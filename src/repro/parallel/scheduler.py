"""Task distribution: one least-loaded list scheduler, strategies by name.

The paper balances load with one rule at two levels: ``ddi_dlbnext``
hands the next ``(i, j)`` bra to whichever rank is free, and the OpenMP
dynamic schedule does the same with kets over threads.  That rule is
:func:`least_loaded`; every least-loaded decision in the package goes
through it (the static LPT partition here, ``ThreadTeam.partition``'s
dynamic schedule with costs, and :mod:`repro.perfsim.engine`'s exact
makespans).

The HONPAS line of work (arXiv:2009.03559 static, arXiv:2009.03555
dynamic) treats static and dynamic distribution as two strategies over
one task list.  Here a strategy is a name in
:data:`repro.config.SCHEDULES`, and :func:`make_scheduler` turns it into
the per-rank queues of one :class:`Scheduler`, which serves them through
the ``next(rank) -> int | None`` protocol the rank programs consume:

``dlb``
    The paper's dynamic shared counter: round-robin grants (what a
    counter converges to under uniform costs), one modeled counter RPC
    per grant.
``static``
    Round-robin, or the cost-weighted LPT partition when Schwarz work
    estimates are given.  Zero counter traffic: every rank knows its
    share up front.

Both grant every task index exactly once, and each rank's grants in
ascending order, which is what lets a killed rank's share be replayed
into its slot bit for bit.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.config import SCHEDULES
from repro.obs.events import get_event_log
from repro.obs.metrics import get_metrics


def least_loaded(
    costs, nworkers: int, order: Iterable[int]
) -> tuple[list[int], list[float]]:
    """Greedy list scheduling: each item to the first least-loaded worker.

    Walks the item indices of ``order`` and gives each one to the
    worker with the least accumulated cost, ties to the lowest worker
    index (a heap of ``(load, worker)``).  Returns the worker of each
    item walked, in walk order, and every worker's final load: a
    left-to-right sum of its items' costs as Python floats.
    """
    # A shared library: loaded by the first run that balances by cost,
    # not by every run (a dlb or cost-less static grant list needs none).
    import heapq

    costs = np.asarray(costs, dtype=np.float64).tolist()
    owner: list[int] = []
    heap = [(0.0, w) for w in range(nworkers)]
    for item in order:
        load, w = heap[0]
        owner.append(w)
        heapq.heapreplace(heap, (load + costs[item], w))
    loads = [0.0] * nworkers
    for load, w in heap:
        loads[w] = load
    return owner, loads


class Scheduler:
    """A strategy's per-rank task queues, served one index at a time.

    ``schedule`` names the strategy (:data:`repro.config.SCHEDULES`);
    ``queues`` holds each rank's task indices in grant order.  Build one
    with :func:`make_scheduler`, which also logs its ``dlb.reset``.
    """

    def __init__(self, schedule: str, queues: list[list[int]]) -> None:
        self.schedule = schedule
        self.nranks = len(queues)
        self._queues = queues
        self._cursor = [0] * self.nranks
        # Cursor positions already metered as dlb.grants.
        self._published = [0] * self.nranks
        self._done_logged: set[int] = set()

    def counter_traffic(self) -> int:
        """Modeled shared-counter RPCs incurred by grants so far.

        The dynamic counter pays one per grant; a pre-partitioned
        strategy needs none: every rank knows its share up front.
        """
        return sum(self._cursor) if self.schedule == "dlb" else 0

    def next(self, rank: int) -> int | None:
        """Next task index for ``rank``, or ``None`` when exhausted.

        This is the simulated ``ddi_dlbnext``: each call advances the
        rank's cursor through its granted share of the global counter.
        """
        cur = self._cursor[rank]
        queue = self._queues[rank]
        if cur >= len(queue):
            if rank not in self._done_logged:
                self._done_logged.add(rank)
                self._publish_grants(rank)
                log = get_event_log()
                if log is not None:
                    log.emit("dlb.rank_done", rank=rank, grants=cur)
            return None
        self._cursor[rank] = cur + 1
        return queue[cur]

    def _publish_grants(self, rank: int) -> None:
        """Meter the grants ``rank`` drew since the last publish as
        ``dlb.grants{rank=…}``: once per drained share, not per grant."""
        drawn = self._cursor[rank] - self._published[rank]
        self._published[rank] = self._cursor[rank]
        registry = get_metrics()
        if drawn and registry is not None:
            registry.counter("dlb.grants", rank=rank).inc(drawn)

    def iter_rank(self, rank: int) -> Iterator[int]:
        """Iterate all remaining task indices granted to ``rank``."""
        while (t := self.next(rank)) is not None:
            yield t

    def assignment(self) -> list[list[int]]:
        """The full grant partition (per-rank task index lists)."""
        return [list(q) for q in self._queues]

    def reset(self) -> None:
        """Rewind all rank cursors (grants are unchanged)."""
        for rank in range(self.nranks):
            self._publish_grants(rank)
        self._cursor = [0] * self.nranks
        self._published = [0] * self.nranks
        self._done_logged.clear()


def make_scheduler(
    schedule: str,
    ntasks: int,
    nranks: int,
    *,
    costs: np.ndarray | None = None,
) -> Scheduler:
    """The grant queues of a distribution strategy, by ``--schedule`` name.

    ``dlb`` and ``static`` without costs deal index ``t`` to rank
    ``t % nranks``.  ``static`` with per-task ``costs`` (Schwarz work
    estimates) deals the tasks in descending cost order (stable, so ties
    keep index order) to the least-loaded rank — the
    longest-processing-time greedy partition — and each rank then walks
    its share in ascending index order.  ``costs`` only applies to
    ``static``, whose ``dlb.reset`` event says whether it was weighted.
    """
    if schedule not in SCHEDULES:
        raise ValueError(
            f"unknown schedule {schedule!r}; choose from {SCHEDULES}"
        )
    if ntasks < 0:
        raise ValueError("ntasks must be non-negative")
    if nranks < 1:
        raise ValueError("nranks must be positive")
    if schedule == "static" and costs is not None:
        costs = np.asarray(costs, dtype=np.float64)
        if costs.shape != (ntasks,):
            raise ValueError(
                f"costs must have shape ({ntasks},); got {costs.shape}"
            )
        order = np.argsort(-costs, kind="stable").tolist()
        owner, _ = least_loaded(costs, nranks, order)
        queues = [[] for _ in range(nranks)]
        for t, r in sorted(zip(order, owner)):
            queues[r].append(t)
    else:
        queues = [list(range(r, ntasks, nranks)) for r in range(nranks)]
    fields = {"weighted": costs is not None} if schedule == "static" else {}
    log = get_event_log()
    if log is not None:
        log.emit(
            "dlb.reset", ntasks=ntasks, nranks=nranks, schedule=schedule,
            **fields,
        )
    return Scheduler(schedule, queues)
