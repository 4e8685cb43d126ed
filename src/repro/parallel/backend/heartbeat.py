"""Worker heartbeat liveness for the real-process execution backend.

Before this module existed, a stalled worker was indistinguishable from
a slow one: the parent learned something was wrong only when the build
timeout (minutes) expired or the worker process died outright.  The
heartbeat protocol closes that window:

* **Workers beat in-band** — at build start, at every DLB claim
  boundary (rate-limited to one beat per ``interval_s``), and at build
  completion — by sending a small dict up its own pipe to the parent.
  In-band is the point: a worker stuck in a long quartet batch,
  sleeping in an injected-straggler delay, or wedged in a syscall
  *stops beating*, whereas a background heartbeat thread would keep
  cheerfully ticking through all three.
* **The parent watches deadlines** — :class:`HeartbeatMonitor` folds
  in the beats while collecting build results; a pending rank silent
  for longer than ``timeout_s`` is flagged ``suspect`` and a
  ``worker.hung`` event + ``process.workers_suspect`` counter are
  emitted *before* the DLB counter or the build timeout would notice.
  A suspect rank that eventually reports is marked ``recovered``; one
  whose process died is marked ``lost`` and handed to the existing
  zero-slab / owner-board replay recovery.

Each beat, and each change of a rank's state, is one event on the
installed event log (``worker.heartbeat`` / ``worker.hung`` /
``worker.recovered`` / ``worker.lost``) carrying the rank's whole
health record; a registered run writes them to its ``events.ndjson`` as
they happen, and they are what the ``repro monitor`` dashboard's
worker-health column and per-rank activity lanes are drawn from.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.obs.events import get_event_log
from repro.obs.metrics import get_metrics

#: Default seconds between worker beats (rate limit at claim boundaries).
DEFAULT_INTERVAL_S = 0.25

#: Default parent-side silence deadline before a rank turns ``suspect``.
DEFAULT_TIMEOUT_S = 2.0

#: Health states a rank moves through during a build.
STATES = ("idle", "ok", "suspect", "lost")


def make_beat(
    rank: int,
    pid: int,
    cycle: int,
    phase: str,
    *,
    t: float,
    claimed: int = 0,
    span: str | None = None,
) -> dict[str, Any]:
    """The wire record one worker beat carries (a picklable dict)."""
    return {
        "rank": rank,
        "pid": pid,
        "cycle": cycle,
        "phase": phase,  # start | claim | done
        "t": t,
        "claimed": claimed,
        "span": span,
    }


def beat_sender(
    out: Any,
    rank: int,
    *,
    limited: str,
    interval_s: float = DEFAULT_INTERVAL_S,
    t0: float = 0.0,
    span: Callable[[], str | None] = lambda: None,
) -> Callable[..., None]:
    """A child's in-band heartbeat: ``beat(cycle, phase, claimed=0)``
    sends one :func:`make_beat` record up ``out``, ``t`` relative to
    ``t0``.  Beats of the ``limited`` phase go at most once per
    ``interval_s``; every other phase always sends."""
    pid, last = os.getpid(), 0.0

    def beat(cycle: int, phase: str, claimed: int = 0) -> None:
        nonlocal last
        now = time.perf_counter()
        if phase == limited and now - last < interval_s:
            return
        last = now
        out.send(("beat", make_beat(rank, pid, cycle, phase, t=now - t0,
                                    claimed=claimed, span=span())))

    return beat


@dataclass
class WorkerHealth:
    """Parent-side view of one worker's liveness."""

    rank: int
    pid: int | None = None
    state: str = "idle"
    cycle: int | None = None
    beats: int = 0
    claimed: int = 0
    claim_rate: float = 0.0
    last_beat: float | None = None  # parent clock at last receipt
    last_t: float | None = None  # worker clock stamped into the beat
    last_phase: str | None = None
    last_span: str | None = None
    suspect_count: int = 0

    def age(self, now: float) -> float | None:
        """Seconds of silence (parent clock), or ``None`` before a beat."""
        return None if self.last_beat is None else now - self.last_beat

    def as_dict(self) -> dict[str, Any]:
        """The health fields an event carries (its rank is the event's)."""
        return {
            "pid": self.pid,
            "state": self.state,
            "cycle": self.cycle,
            "beats": self.beats,
            "claimed": self.claimed,
            "claim_rate": self.claim_rate,
            "phase": self.last_phase,
            "span": self.last_span,
            "suspect_count": self.suspect_count,
        }


class HeartbeatMonitor:
    """Deadline watcher over per-rank worker heartbeats.

    The process backend calls :meth:`start_build` when a build is
    dispatched, :meth:`record` for every beat drained from a worker's
    pipe, :meth:`check` from its collect loop (returns the ranks that
    *newly* turned suspect), and :meth:`mark_done` / :meth:`mark_lost`
    as results or deaths arrive.  All side effects (events, metrics)
    happen here, so the backend's control flow stays about collection
    and recovery.
    """

    def __init__(
        self,
        nranks: int,
        *,
        timeout_s: float = DEFAULT_TIMEOUT_S,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        if timeout_s <= 0:
            raise ValueError(f"timeout_s must be > 0, got {timeout_s}")
        self.nranks = nranks
        self.timeout_s = timeout_s
        self.clock = clock
        self.health: list[WorkerHealth] = [
            WorkerHealth(rank=r) for r in range(nranks)
        ]
        self.hung_total = 0

    # -- build lifecycle -----------------------------------------------------

    def start_build(self, cycle: int) -> None:
        """Arm the deadline for a new build: every rank owes a beat."""
        now = self.clock()
        for h in self.health:
            h.state = "ok"
            h.cycle = cycle
            h.claimed = 0
            h.claim_rate = 0.0
            # The dispatch moment counts as the reference beat so a
            # worker that never says anything at all still times out.
            h.last_beat = now
            h.last_phase = "dispatched"

    def record(self, beat: dict[str, Any]) -> WorkerHealth:
        """Fold one drained beat into the rank's health record."""
        h = self.health[int(beat["rank"])]
        now = self.clock()
        prev_t, prev_claimed = h.last_t, h.claimed
        h.pid = beat.get("pid", h.pid)
        h.cycle = beat.get("cycle", h.cycle)
        h.beats += 1
        h.claimed = int(beat.get("claimed", h.claimed))
        h.last_phase = beat.get("phase")
        h.last_span = beat.get("span")
        h.last_beat = now
        h.last_t = beat.get("t", h.last_t)
        # Rate from the *worker's* beat timestamps, not the parent's
        # drain time: beats arrive in bursts, so parent-side deltas
        # would be nonsense.
        if (
            prev_t is not None
            and h.last_t is not None
            and h.last_t > prev_t
        ):
            inst = (h.claimed - prev_claimed) / (h.last_t - prev_t)
            # Light EWMA so the dashboard's DLB claim rate is readable.
            h.claim_rate = (
                inst if h.claim_rate == 0.0
                else 0.7 * h.claim_rate + 0.3 * inst
            )
        if h.state == "suspect":
            self._resolve(h, "recovered")
        elif h.state in ("idle", "lost"):
            h.state = "ok"
        # Stamped on the log's clock so heartbeats share a time base with
        # the driver's run/cycle events; the beat's worker-relative stamp
        # rides along.
        self._emit("worker.heartbeat", h, worker_t=beat.get("t"))
        return h

    def check(self, pending: set[int] | None = None) -> list[int]:
        """Flag pending ranks whose silence exceeded the deadline.

        Returns the ranks that turned suspect *on this call* (already
        suspect or non-pending ranks are not re-reported), after
        emitting ``worker.hung`` events and bumping
        ``process.workers_suspect``.
        """
        now = self.clock()
        newly: list[int] = []
        for h in self.health:
            if pending is not None and h.rank not in pending:
                continue
            if h.state != "ok":
                continue
            age = h.age(now)
            if age is None or age <= self.timeout_s:
                continue
            h.state = "suspect"
            h.suspect_count += 1
            self.hung_total += 1
            newly.append(h.rank)
            self._emit("worker.hung", h, silent_s=age,
                       timeout_s=self.timeout_s)
            registry = get_metrics()
            if registry is not None:
                registry.counter("process.workers_suspect").inc()
                registry.counter(
                    "process.workers_suspect", rank=h.rank
                ).inc()
        return newly

    def next_suspect_in(self, pending: set[int]) -> float | None:
        """Seconds until :meth:`check` would next flag one of ``pending``
        (0.0 when one is already due); ``None`` when none can turn —
        the timer an event-driven caller arms instead of polling."""
        now = self.clock()
        ages = [h.age(now) for h in self.health
                if h.rank in pending and h.state == "ok"]
        horizons = [self.timeout_s - age for age in ages if age is not None]
        return max(0.0, min(horizons)) if horizons else None

    def mark_done(self, rank: int) -> None:
        """A rank delivered its build result."""
        h = self.health[rank]
        if h.state == "suspect":
            self._resolve(h, "recovered")
        h.state = "idle"
        h.last_phase = "done"

    def mark_lost(self, rank: int) -> None:
        """A rank's process died; recovery will replay its claims."""
        h = self.health[rank]
        was_suspect = h.state == "suspect"
        h.state = "lost"
        self._emit("worker.lost", h, was_suspect=was_suspect)

    def _resolve(self, h: WorkerHealth, how: str) -> None:
        h.state = "ok"
        self._emit(f"worker.{how}", h)

    @staticmethod
    def _emit(kind: str, h: WorkerHealth, **extra: Any) -> None:
        log = get_event_log()
        if log is not None:
            log.emit(kind, rank=h.rank, **extra, **h.as_dict())

    # -- inspection ----------------------------------------------------------

    def states(self) -> dict[str, int]:
        """Current state histogram, e.g. ``{"ok": 3, "suspect": 1}``."""
        out: dict[str, int] = {}
        for h in self.health:
            out[h.state] = out.get(h.state, 0) + 1
        return out

    def suspects(self) -> list[int]:
        return [h.rank for h in self.health if h.state == "suspect"]
