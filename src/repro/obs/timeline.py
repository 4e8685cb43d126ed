"""Timeline analytics over the tracer's span forest.

The paper's profiling discussion (Figures 3–6) is not about raw timers
— it is about *where the parallel time goes*: how busy each MPI rank
and OpenMP thread is, how much of the Fock build is synchronization
(flushes, ``gsumf``), how well the dynamic load balancer equalizes the
per-rank work, and which call chain bounds the time to solution.  This
module computes exactly those quantities from span records
(:mod:`repro.obs.spans`: a live tracer or a ``spans.ndjson`` dump) plus
an optional structured event log, and renders them as:

* per-rank and per-thread **busy/idle/wait breakdowns** (interval-union
  based, so nested instrumentation is never double counted);
* a **load-imbalance decomposition** — max/mean busy time per rank
  (the paper's load-balance metric) and the DLB efficiency it implies;
* a **DLB-grant Gantt** — an ASCII per-rank timeline with injected
  faults, checkpoints, and recovery events overlaid;
* the **critical path** — the chain of longest spans from the root
  (:func:`repro.obs.spans.critical_path`).

Span classification is by name: quartet/diagonalization work counts as
*busy*, flush/reduction spans as *wait*, structural spans (``scf/run``,
``fock/build``) as neither.  Everything is computed on the recorded
wall clock, so the same analysis applies to live tracers and to NDJSON
files read back days later.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

from repro.obs.events import Event
from repro.obs.export import _json_safe
from repro.obs.spans import SpanRecord, critical_path, rank_tracks

#: Span names that represent computational work (busy time).
WORK_SPANS = frozenset(
    {
        "fock/kl",
        "fock/jk",
        "fock/quartets",
        "eri/quartet_batch",
        "scf/diagonalize",
        "scf/diis",
        "perfsim/assign_dynamic",
    }
)

#: Span names that represent synchronization / reduction (wait time).
WAIT_SPANS = frozenset(
    {
        "fock/gsumf",
        "fock/flush_fi",
        "fock/flush_fj",
        "fock/thread_reduce",
    }
)

#: Work spans that carry an explicit OpenMP thread context.
THREAD_WORK_SPANS = frozenset({"fock/kl", "fock/jk"})

#: Event kinds shown on the Gantt, with their marker characters.
EVENT_MARKERS = {
    "fault.kill": "K",
    "dlb.rank_failed": "K",
    "fault.delay": "D",
    "fault.corrupt": "C",
    "fault.corrupt_rejected": "C",
    "scf.recovery": "R",  # the removed convergence guard, in older recordings
    "scf.checkpoint": "S",
    "scf.restart": "^",
    "scf.converged": "*",
    "worker.hung": "!",
    "worker.recovered": "+",
    "process.worker_lost": "L",
}


# -- interval arithmetic -----------------------------------------------------
#
# Public: the live ``repro monitor`` dashboard draws its per-rank activity
# lanes with the same interval-union arithmetic the breakdowns use.


def merge_intervals(
    intervals: Iterable[tuple[float, float]]
) -> list[tuple[float, float]]:
    """Union of half-open intervals as a sorted, disjoint list."""
    merged: list[tuple[float, float]] = []
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


def union_seconds(intervals: Iterable[tuple[float, float]]) -> float:
    return sum(hi - lo for lo, hi in merge_intervals(intervals))


def overlap_seconds(
    merged: list[tuple[float, float]], lo: float, hi: float
) -> float:
    """Seconds of ``[lo, hi)`` covered by a merged interval list."""
    total = 0.0
    for a, b in merged:
        if b <= lo:
            continue
        if a >= hi:
            break
        total += min(b, hi) - max(a, lo)
    return total


# -- breakdowns --------------------------------------------------------------


@dataclass
class RankBreakdown:
    """Busy/wait/idle decomposition of one rank's active window."""

    rank: int
    busy_s: float
    wait_s: float
    first: float
    last: float
    nspans: int
    work_intervals: list[tuple[float, float]] = field(repr=False)
    wait_intervals: list[tuple[float, float]] = field(repr=False)

    @property
    def active_s(self) -> float:
        """The rank's span window (first start to last end)."""
        return max(self.last - self.first, 0.0)

    @property
    def idle_s(self) -> float:
        """Window time covered by neither work nor wait spans."""
        covered = union_seconds(self.work_intervals + self.wait_intervals)
        return max(self.active_s - covered, 0.0)

    @property
    def busy_fraction(self) -> float:
        return self.busy_s / self.active_s if self.active_s > 0 else 0.0


@dataclass
class ThreadBreakdown:
    """Busy time of one (rank, thread) OpenMP lane."""

    rank: int
    thread: int
    busy_s: float
    nspans: int


@dataclass
class TimelineAnalysis:
    """Everything :func:`timeline_report` renders, machine-readable."""

    t_end: float
    ranks: list[RankBreakdown]
    threads: list[ThreadBreakdown]
    path: list[tuple[SpanRecord, float]]  # critical path: (span, self s)
    events: list[Event]
    nspans: int

    @property
    def rank_busy(self) -> list[float]:
        return [r.busy_s for r in self.ranks]

    @property
    def rank_imbalance(self) -> float:
        """max/mean busy seconds per rank (1.0 = perfectly balanced)."""
        return _ratio_imbalance(self.rank_busy)

    @property
    def thread_imbalance(self) -> float:
        """max/mean busy seconds per (rank, thread) lane."""
        return _ratio_imbalance([t.busy_s for t in self.threads])

    @property
    def dlb_efficiency(self) -> float:
        """mean/max busy per rank — the DLB's balancing efficiency."""
        return 1.0 / self.rank_imbalance

    @property
    def imbalance_loss_s(self) -> float:
        """Parallel seconds lost to imbalance (max - mean busy)."""
        busy = self.rank_busy
        if not busy:
            return 0.0
        return max(busy) - sum(busy) / len(busy)

    @property
    def recovery_events(self) -> list[Event]:
        """Fault / recovery / checkpoint events (the resilience overlay)."""
        return [
            ev
            for ev in self.events
            if ev.kind.startswith(("fault.", "scf.recovery", "scf.checkpoint",
                                   "scf.restart")) or ev.kind == "dlb.rank_failed"
        ]

    @property
    def schedule(self) -> str:
        """Distribution strategy observed in the run's ``dlb.reset`` events."""
        for ev in self.events:
            if ev.kind == "dlb.reset":
                return str(ev.fields.get("schedule", "dlb"))
        return "unknown"

    @property
    def schedule_advice(self) -> dict[str, str]:
        """Winning-strategy recommendation for this workload's imbalance.

        A near-flat per-rank busy profile means the grant traffic of a
        dynamic counter buys nothing — static wins; any real skew in
        *measured* busy time is what the estimates behind a static
        partition missed, so it needs per-task balancing (dlb).
        """
        imb = self.rank_imbalance
        observed = self.schedule
        if imb <= 1.05:
            recommended = "static"
            reason = (
                f"rank imbalance {imb:.3f} <= 1.05: pre-partitioning "
                "matches the dynamic balance with zero counter traffic"
            )
        else:
            recommended = "dlb"
            reason = (
                f"rank imbalance {imb:.3f} > 1.05: per-task balancing "
                "needed"
            )
        return {
            "observed": observed,
            "recommended": recommended,
            "reason": reason,
        }


def _ratio_imbalance(values: Sequence[float]) -> float:
    if not values:
        return 1.0
    mean = sum(values) / len(values)
    return max(values) / mean if mean > 0 else 1.0


def analyze_timeline(
    spans: Sequence[SpanRecord],
    events: Sequence[Event] = (),
) -> TimelineAnalysis:
    """Compute the full timeline analysis from flattened spans + events.

    Spans and events must share a time base (they do when both come
    from one traced run, live or via the NDJSON files the profile CLI
    writes); timestamps are re-normalized to the earliest span start.
    """
    spans = list(spans)
    events = list(events)
    if spans:
        t0 = min(s.start for s in spans)
    elif events:
        t0 = min(ev.t for ev in events)
    else:
        t0 = 0.0
    spans = [replace(s, start=s.start - t0, end=s.end - t0) for s in spans]
    events = [
        Event(kind=ev.kind, t=ev.t - t0, rank=ev.rank, fields=ev.fields)
        for ev in events
    ]
    t_end = max((s.end for s in spans), default=0.0)

    ranks: list[RankBreakdown] = []
    for track in rank_tracks(spans):
        rank, rspans = track.pid, track.records
        work = merge_intervals(
            (s.start, s.end) for s in rspans if s.name in WORK_SPANS
        )
        wait = merge_intervals(
            (s.start, s.end) for s in rspans if s.name in WAIT_SPANS
        )
        ranks.append(
            RankBreakdown(
                rank=rank,
                busy_s=sum(hi - lo for lo, hi in work),
                wait_s=sum(hi - lo for lo, hi in wait),
                first=min(s.start for s in rspans),
                last=max(s.end for s in rspans),
                nspans=len(rspans),
                work_intervals=work,
                wait_intervals=wait,
            )
        )

    lanes: dict[tuple[int, int], list[SpanRecord]] = {}
    for s in spans:
        if s.name in THREAD_WORK_SPANS and s.thread is not None:
            lanes.setdefault((s.rank, s.thread), []).append(s)
    threads = [
        ThreadBreakdown(
            rank=rank,
            thread=thread,
            busy_s=union_seconds((s.start, s.end) for s in lspans),
            nspans=len(lspans),
        )
        for (rank, thread), lspans in sorted(lanes.items())
    ]

    return TimelineAnalysis(
        t_end=t_end,
        ranks=ranks,
        threads=threads,
        path=critical_path(spans),
        events=events,
        nspans=len(spans),
    )


# -- rendering ---------------------------------------------------------------


def ascii_gantt(analysis: TimelineAnalysis, *, width: int = 64) -> str:
    """Per-rank ASCII Gantt: ``#`` busy, ``~`` wait, ``.`` idle.

    Fault/recovery/checkpoint events are overlaid with single-character
    markers (``K`` kill, ``C`` corrupt, ``R`` recovery stage, ``S``
    checkpoint, ``D`` straggler delay) at their time bucket; run-global
    events go on a separate ``events`` row.
    """
    t1 = analysis.t_end
    if t1 <= 0 or not analysis.ranks:
        return "(no timeline data)"

    def col(t: float) -> int:
        return min(max(int(t / t1 * width), 0), width - 1)

    lines = [f"DLB Gantt — 1 column ≈ {t1 / width:.6f} s "
             f"(# busy, ~ wait, . idle)"]
    rows: dict[int, list[str]] = {}
    for rb in analysis.ranks:
        row = []
        for c in range(width):
            lo, hi = c * t1 / width, (c + 1) * t1 / width
            if not (rb.first < hi and rb.last > lo):
                row.append(" ")
                continue
            w = overlap_seconds(rb.work_intervals, lo, hi)
            v = overlap_seconds(rb.wait_intervals, lo, hi)
            row.append("#" if w >= v and w > 0 else "~" if v > 0 else ".")
        rows[rb.rank] = row

    global_row = [" "] * width
    for ev in analysis.events:
        marker = EVENT_MARKERS.get(ev.kind)
        if marker is None:
            continue
        target = rows.get(ev.rank) if ev.rank is not None else None
        (target if target is not None else global_row)[col(ev.t)] = marker

    for rank in sorted(rows):
        lines.append(f"rank {rank:>3d} |{''.join(rows[rank])}|")
    if any(ch != " " for ch in global_row):
        lines.append(f"events   |{''.join(global_row)}|")
    return "\n".join(lines)


def timeline_report(
    analysis: TimelineAnalysis, *, title: str = "timeline"
) -> str:
    """Human-readable timeline analysis (``repro explain`` of a run)."""
    lines = [
        f"{title} — {analysis.nspans} spans over {analysis.t_end:.6f} s",
        "",
        "per-rank breakdown (busy = quartets/diag, wait = flush/reduce):",
        f"{'rank':>6s} {'busy(s)':>10s} {'wait(s)':>10s} {'idle(s)':>10s} "
        f"{'busy%':>7s} {'spans':>7s}",
    ]
    for r in analysis.ranks:
        lines.append(
            f"{r.rank:>6d} {r.busy_s:>10.6f} {r.wait_s:>10.6f} "
            f"{r.idle_s:>10.6f} {100 * r.busy_fraction:>6.1f}% "
            f"{r.nspans:>7d}"
        )
    lines += [
        "",
        "load-imbalance decomposition:",
        f"  rank imbalance (max/mean busy) : {analysis.rank_imbalance:.3f}",
        f"  DLB efficiency (mean/max busy) : "
        f"{100 * analysis.dlb_efficiency:.1f}%",
        f"  imbalance loss                 : "
        f"{analysis.imbalance_loss_s:.6f} s",
        f"  thread imbalance (max/mean)    : {analysis.thread_imbalance:.3f}",
    ]
    advice = analysis.schedule_advice
    lines += [
        f"  schedule (observed)            : {advice['observed']}",
        f"  schedule (recommended)         : {advice['recommended']} "
        f"— {advice['reason']}",
    ]
    if analysis.threads:
        lines += [
            "",
            "per-thread busy time (OpenMP lanes):",
            f"{'rank':>6s} {'thread':>7s} {'busy(s)':>10s} {'spans':>7s}",
        ]
        for t in analysis.threads:
            lines.append(
                f"{t.rank:>6d} {t.thread:>7d} {t.busy_s:>10.6f} "
                f"{t.nspans:>7d}"
            )
    if analysis.path:
        lines += ["", "critical path (longest span chain):"]
        for depth, (r, self_s) in enumerate(analysis.path):
            label = "  " * depth + r.name
            lines.append(
                f"  {label:<40s} rank {r.rank} "
                f"total {r.duration:>10.6f} s  self {self_s:>10.6f} s"
            )
    lines += ["", ascii_gantt(analysis)]
    recov = analysis.recovery_events
    if recov:
        lines += ["", f"resilience events ({len(recov)}):"]
        for ev in recov:
            where = "global" if ev.rank is None else f"rank {ev.rank}"
            detail = " ".join(f"{k}={_json_safe(v)}" for k, v in ev.fields.items())
            lines.append(
                f"  t={ev.t:>10.6f}s {where:<8s} {ev.kind:<24s} {detail}"
            )
    return "\n".join(lines)
