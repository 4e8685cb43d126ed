"""Live run dashboard: render a run's event stream as a terminal view.

``repro monitor`` follows a running run's ``events.ndjson`` as it grows
(or replays a finished one) and folds the events into a compact
dashboard:

* **per-rank activity lanes** — each worker's heartbeat trail drawn as
  a busy/quiet strip, computed with the same interval-union arithmetic
  (:func:`repro.obs.timeline.merge_intervals`) the post-hoc
  timeline breakdowns use, so the live picture and ``repro explain``
  agree about where the time went;
* an **energy-convergence sparkline** — ``log10 |dE|`` per SCF cycle,
  the convergence trajectory at a glance;
* the **DLB counter rate** — aggregate and per-rank claims/s from the
  heartbeat stream, the live analogue of the paper's dynamic
  load-balance discussion (Fig. 4);
* a **worker health column** — ``ok`` / ``suspect`` / ``lost`` /
  ``recovered`` per rank from the heartbeat monitor's state machine,
  plus a tail of notable events (``worker.hung``,
  ``process.worker_lost``, checkpoints).

The module is pure state + rendering: :class:`MonitorState` folds
events, :meth:`MonitorState.render` returns text.  The CLI layer owns
the refresh loop and the screen clearing, which keeps everything here
unit-testable without a terminal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.obs.timeline import merge_intervals, overlap_seconds
from repro.obs.events import Event, events_from_ndjson
from repro.obs.slo import LATENCY_METRICS, ClassStats

#: Unicode sparkline ramp, quietest to loudest.
SPARK_CHARS = "▁▂▃▄▅▆▇█"

#: How long (s) one heartbeat keeps a rank's lane lit when the next
#: beat has not arrived yet; matches the default beat rate-limit.
LANE_GLOW_S = 0.3

#: Record kinds surfaced in the event tail.
NOTABLE_KINDS = frozenset(
    {
        "worker.hung",
        "worker.lost",
        "worker.recovered",
        "process.worker_lost",
        "process.replay",  # the same occurrence, in earlier recordings
        "scf.converged",
        "scf.checkpoint",
        "scf.restart",
        "run.start",
        "run.end",
        # SCF-as-a-service job lifecycle (repro serve).
        "job.submitted",
        "job.dispatched",
        "job.done",
        "job.failed",
        "job.retrying",
        "job.cancelled",
        "service.start",
        "service.stop",
        "service.overloaded",
        "service.degraded",
        "service.recovered",
        # SLO engine signals.
        "slo.breach",
    }
)


def sparkline(values: Iterable[float], *, width: int = 32) -> str:
    """Map a numeric series onto :data:`SPARK_CHARS` (last ``width``)."""
    vals = [float(v) for v in values][-width:]
    if not vals:
        return ""
    lo, hi = min(vals), max(vals)
    if hi <= lo:
        return SPARK_CHARS[0] * len(vals)
    span = hi - lo
    return "".join(
        SPARK_CHARS[
            min(int((v - lo) / span * len(SPARK_CHARS)), len(SPARK_CHARS) - 1)
        ]
        for v in vals
    )


@dataclass
class RankView:
    """Everything the dashboard knows about one worker rank."""

    rank: int
    pid: int | None = None
    state: str = "idle"
    phase: str | None = None
    span: str | None = None
    cycle: int | None = None
    beats: int = 0
    claimed: int = 0
    claim_rate: float = 0.0
    suspect_count: int = 0
    last_t: float | None = None
    #: Raw (start, end) activity windows; merged lazily at render time.
    intervals: list[tuple[float, float]] = field(default_factory=list)
    _open: float | None = None

    def observe_beat(self, t: float, phase: str | None) -> None:
        if (
            self._open is not None
            and self.last_t is not None
            and t - self.last_t > LANE_GLOW_S
        ):
            # Silence longer than the glow window: the trail went dark;
            # do NOT bridge the gap — a hang must show as a dark lane.
            self._open = None
        if phase == "start" or (phase != "done" and self._open is None):
            self._open = t
        if self._open is not None:
            self.intervals.append((self._open, max(t, self._open)))
        if phase == "done":
            self._open = None
        else:
            # Between beats the lane stays lit for one beat interval;
            # a hung worker's trail visibly goes dark.
            self.intervals.append((t, t + LANE_GLOW_S))
            self._open = t
        self.last_t = t

    def lane(self, t0: float, t1: float, *, width: int) -> str:
        """Activity strip over ``[t0, t1]``: ``█`` beating, ``·`` quiet."""
        if t1 <= t0 or not self.intervals:
            return "·" * width
        merged = merge_intervals(self.intervals)
        cells = []
        for c in range(width):
            lo = t0 + c * (t1 - t0) / width
            hi = t0 + (c + 1) * (t1 - t0) / width
            frac = overlap_seconds(merged, lo, hi) / max(hi - lo, 1e-12)
            cells.append("█" if frac > 0.5 else "▌" if frac > 0.0 else "·")
        return "".join(cells)


@dataclass
class CycleView:
    """One SCF cycle's convergence sample."""

    cycle: int
    energy: float | None
    delta_e: float | None
    t: float


class MonitorState:
    """Fold telemetry events into a renderable dashboard state."""

    def __init__(self) -> None:
        self.ranks: dict[int, RankView] = {}
        self.cycles: list[CycleView] = []
        self.events: list[Event] = []
        self.run_info: dict[str, Any] = {}
        self.nrecords = 0
        self.t_first: float | None = None
        self.t_last: float | None = None
        self.converged: bool | None = None
        self._dlb_samples: list[tuple[float, float]] = []  # (t, total claims)
        # Service latency digests per job class (fed by job.done/failed).
        self.latency: dict[str, ClassStats] = {}
        self.slo_burn: dict[tuple[str, str], float] = {}
        self.slo_breaches = 0

    # -- folding -------------------------------------------------------------

    def apply(self, rec: Event) -> None:
        self.nrecords += 1
        self.t_first = rec.t if self.t_first is None else min(self.t_first, rec.t)
        self.t_last = rec.t if self.t_last is None else max(self.t_last, rec.t)
        kind, p = rec.kind, _fields(rec)
        if kind == "worker.heartbeat":
            self._rank(p).observe_beat(rec.t, p.get("phase"))
            self._fold_health(p)
            self._sample_dlb(rec.t)
        elif kind in ("worker.hung", "worker.lost", "worker.recovered"):
            self._fold_health(p)
            self.events.append(rec)
        elif kind == "scf.cycle":
            self.cycles.append(
                CycleView(
                    cycle=int(p.get("cycle", len(self.cycles))),
                    energy=_maybe_float(p.get("energy")),
                    delta_e=_maybe_float(p.get("delta_e")),
                    t=rec.t,
                )
            )
        elif kind in ("run.start", "run.end"):
            self.run_info.update(
                {k: v for k, v in p.items() if not isinstance(v, dict)}
            )
            if kind == "run.end" and "converged" in p:
                self.converged = bool(p["converged"])
            self.events.append(rec)
        elif kind == "slo.burn_rate":
            cls, target = p.get("job_class"), p.get("target")
            burn = p.get("burn_rate")
            if cls and target and isinstance(burn, (int, float)):
                self.slo_burn[(cls, target)] = float(burn)
        elif kind in NOTABLE_KINDS:
            if kind == "slo.breach":
                self.slo_breaches += 1
            self.events.append(rec)
        if kind in ("job.done", "job.failed") and p.get("job_class"):
            cls = p["job_class"]
            stats = self.latency.get(cls) or self.latency.setdefault(
                cls, ClassStats(cls))
            stats.observe({m: _maybe_float(p.get(f"{m}_s"))
                           for m in LATENCY_METRICS},
                          failed=kind == "job.failed", targets=())

    def apply_all(self, records: Iterable[Event]) -> None:
        for rec in records:
            self.apply(rec)

    def _rank(self, payload: dict[str, Any]) -> RankView:
        rank = int(payload.get("rank", -1))
        view = self.ranks.get(rank)
        if view is None:
            view = self.ranks[rank] = RankView(rank=rank)
        return view

    def _fold_health(self, payload: dict[str, Any]) -> None:
        if "rank" not in payload:
            return
        view = self._rank(payload)
        for attr in ("pid", "state", "phase", "span", "cycle",
                     "beats", "claimed", "suspect_count"):
            if payload.get(attr) is not None:
                setattr(view, attr, payload[attr])
        if isinstance(payload.get("claim_rate"), (int, float)):
            view.claim_rate = float(payload["claim_rate"])

    def _sample_dlb(self, t: float) -> None:
        total = float(sum(v.claimed for v in self.ranks.values()))
        if not self._dlb_samples or total != self._dlb_samples[-1][1]:
            self._dlb_samples.append((t, total))

    # -- derived quantities ---------------------------------------------------

    @property
    def dlb_rate(self) -> float:
        """Aggregate DLB claims/s over the sampled heartbeat window."""
        if len(self._dlb_samples) < 2:
            return 0.0
        (t0, c0), (t1, c1) = self._dlb_samples[0], self._dlb_samples[-1]
        return (c1 - c0) / (t1 - t0) if t1 > t0 else 0.0

    def convergence_series(self) -> list[float]:
        """``log10 |dE|`` per cycle (clamped), the sparkline's series."""
        out = []
        for c in self.cycles:
            if c.delta_e is None:
                continue
            mag = abs(c.delta_e)
            out.append(math.log10(mag) if mag > 0 else -16.0)
        return out

    @property
    def last_energy(self) -> float | None:
        for c in reversed(self.cycles):
            if c.energy is not None:
                return c.energy
        return None

    @property
    def health_counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for v in self.ranks.values():
            out[v.state] = out.get(v.state, 0) + 1
        return out

    # -- rendering ------------------------------------------------------------

    def render(self, *, width: int = 72, lane_width: int = 28) -> str:
        """The dashboard as plain text (one frame)."""
        lines: list[str] = []
        elapsed = (
            (self.t_last - self.t_first)
            if self.t_first is not None and self.t_last is not None
            else 0.0
        )
        title = (
            self.run_info.get("algorithm")
            or self.run_info.get("run_kind")
            or self.run_info.get("molecule")
        )
        head = f"repro monitor — {self.nrecords} records, {elapsed:.1f} s"
        if title:
            head += f" [{title}]"
        lines.append(head)
        lines.append("=" * min(len(head), width))

        # -- convergence ------------------------------------------------------
        if self.cycles:
            last = self.cycles[-1]
            status = (
                "converged" if self.converged
                else "running" if self.converged is None else "not converged"
            )
            energy = self.last_energy
            lines.append(
                f"cycle {last.cycle:>3d}  "
                + (f"E = {energy:+.10f} Eh  " if energy is not None else "")
                + f"({status})"
            )
            series = self.convergence_series()
            if series:
                lines.append(
                    f"log10|dE|  {sparkline(series)}  "
                    f"[{series[0]:+.1f} → {series[-1]:+.1f}]"
                )
        dlb = self.dlb_rate
        claimed = sum(v.claimed for v in self.ranks.values())
        if self.ranks:
            lines.append(
                f"DLB: {claimed} claims, {dlb:.1f} claims/s aggregate"
            )

        # -- per-rank lanes ---------------------------------------------------
        if self.ranks:
            lines.append("")
            lines.append(
                f"{'rank':>4s} {'pid':>7s} {'state':<9s} {'phase':<6s} "
                f"{'claims':>6s} {'rate/s':>7s}  activity"
            )
            t0 = self.t_first or 0.0
            t1 = max(self.t_last or 0.0, t0 + 1e-6)
            for rank in sorted(self.ranks):
                v = self.ranks[rank]
                mark = {"suspect": "!", "lost": "x"}.get(v.state, " ")
                lines.append(
                    f"{rank:>4d} {v.pid or '-':>7} {v.state:<9s} "
                    f"{(v.phase or '-'):<6s} {v.claimed:>6d} "
                    f"{v.claim_rate:>7.1f} {mark}"
                    f"|{v.lane(t0, t1, width=lane_width)}|"
                )
            health = self.health_counts
            if health.get("suspect") or health.get("lost"):
                lines.append(
                    "health: "
                    + ", ".join(f"{k}={n}" for k, n in sorted(health.items()))
                )

        # -- service latency percentiles + SLO burn ---------------------------
        if self.latency:
            lines.append("")
            lines.append(
                f"{'latency (s)':<22s} {'n':>5s} "
                f"{'qwait p50/p95/p99':>20s} {'total p50/p95/p99':>20s}"
            )
            for cls in sorted(self.latency):
                stats = self.latency[cls]
                cells = {
                    metric: "/".join("-" if v is None else f"{v:.2f}"
                                     for v in qs.values())
                    for metric, qs in stats.quantiles().items()
                }
                lines.append(
                    f"{cls:<22s} {stats.hists['total'].count:>5d} "
                    f"{cells['queue_wait']:>20s} {cells['total']:>20s}"
                )
            burning = {k: v for k, v in self.slo_burn.items() if v >= 1.0}
            if burning or self.slo_breaches:
                worst = sorted(burning.items(), key=lambda kv: -kv[1])[:3]
                detail = ", ".join(
                    f"{cls} {target} burn={burn:.1f}"
                    for (cls, target), burn in worst
                )
                lines.append(
                    f"SLO: {self.slo_breaches} breach(es)"
                    + (f" — {detail}" if detail else "")
                )

        # -- event tail -------------------------------------------------------
        if self.events:
            lines.append("")
            lines.append("events:")
            base = self.t_first or 0.0
            for rec in self.events[-8:]:
                detail = " ".join(
                    f"{k}={v}"
                    for k, v in _fields(rec).items()
                    if k in ("rank", "cycle", "silent_s", "was_suspect",
                             "converged", "energy", "status", "job",
                             "job_class", "target", "burn_rate")
                    and v is not None
                )
                lines.append(
                    f"  t={rec.t - base:>9.3f}s {rec.kind:<18s} {detail}"
                )
        return "\n".join(lines)


def _fields(ev: Event) -> dict[str, Any]:
    """An event's fields with its rank among them (as the line has it)."""
    return ev.fields if ev.rank is None else {"rank": ev.rank, **ev.fields}


def _maybe_float(value: Any) -> float | None:
    try:
        return None if value is None else float(value)
    except (TypeError, ValueError):
        return None


def replay_dashboard(text: str, **render_kw: Any) -> str:
    """One final frame from a recorded event file."""
    state = MonitorState()
    state.apply_all(events_from_ndjson(text))
    return state.render(**render_kw)
