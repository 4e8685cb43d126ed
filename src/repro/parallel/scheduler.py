"""Task-distribution strategies behind one grant interface.

The paper distributes Fock-build tasks through a shared global counter
(``ddi_dlbnext``); the HONPAS line of work (arXiv:2009.03559 static,
arXiv:2009.03555 dynamic) shows that the static/dynamic crossover is
workload-dependent.  The common :class:`Scheduler` base holds the grant
machinery, so both strategies serve the same
``next(rank) -> int | None`` protocol the rank programs consume:

``dlb``
    The paper's dynamic shared counter
    (:class:`~repro.parallel.dlb.DynamicLoadBalancer`): one modeled
    counter RPC per grant.
``static``
    :class:`StaticScheduler` — pre-computed round-robin, or
    cost-weighted LPT when Schwarz work estimates are available.  Zero
    counter traffic: every rank knows its share up front.

Both preserve the contract :func:`repro.resilience.faults
.resilient_grants` relies on: exactly-once grants, ``fail_rank``
withdrawal in grant order, and deterministic requeue to survivors.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.config import SCHEDULES
from repro.obs.events import get_event_log
from repro.obs.metrics import get_metrics

SCHEDULE_NAMES = SCHEDULES


def lpt_partition(costs: np.ndarray, nranks: int) -> list[list[int]]:
    """Longest-processing-time greedy partition of task indices.

    Tasks are dealt in descending cost order (stable, so ties keep index
    order) to the rank with the least accumulated cost (ties to the
    lowest rank); each share is returned in ascending index order, the
    order its rank walks it in.
    """
    shares: list[list[int]] = [[] for _ in range(nranks)]
    loads = np.zeros(nranks)
    for t in np.argsort(-costs, kind="stable"):
        r = int(np.argmin(loads))
        shares[r].append(int(t))
        loads[r] += costs[t]
    for share in shares:
        share.sort()
    return shares


class Scheduler:
    """Deterministic grant partition served one index at a time.

    Subclasses fill ``self._queues`` (per-rank task-index lists) in
    their constructors and call :meth:`_emit_reset`; the base class
    provides the grant cursor, exhaustion logging, fault withdrawal and
    requeue shared by every strategy.
    """

    #: Strategy name as selected by ``--schedule``.
    schedule_name = "static"

    def __init__(self, ntasks: int, nranks: int) -> None:
        if ntasks < 0:
            raise ValueError("ntasks must be non-negative")
        if nranks < 1:
            raise ValueError("nranks must be positive")
        self.ntasks = ntasks
        self.nranks = nranks
        self._queues: list[list[int]] = [[] for _ in range(nranks)]
        self._cursor = [0] * nranks
        self._dead: set[int] = set()
        self._done_logged: set[int] = set()

    def _emit_reset(self, **fields) -> None:
        log = get_event_log()
        if log is not None:
            log.emit(
                "dlb.reset", ntasks=self.ntasks, nranks=self.nranks,
                schedule=self.schedule_name, **fields,
            )

    def counter_traffic(self) -> int:
        """Modeled shared-counter/queue RPCs incurred by grants so far.

        A pre-partitioned strategy needs none: every rank knows its
        share up front.  The dynamic counter pays one per grant.
        """
        return 0

    def next(self, rank: int) -> int | None:
        """Next task index for ``rank``, or ``None`` when exhausted.

        This is the simulated ``ddi_dlbnext``: each call advances the
        rank's cursor through its granted share of the global counter.
        """
        if rank in self._dead:
            return None
        cur = self._cursor[rank]
        queue = self._queues[rank]
        if cur >= len(queue):
            if rank not in self._done_logged:
                self._done_logged.add(rank)
                log = get_event_log()
                if log is not None:
                    log.emit("dlb.rank_done", rank=rank, grants=cur)
            return None
        self._cursor[rank] = cur + 1
        registry = get_metrics()
        if registry is not None:
            registry.counter("dlb.grants", rank=rank).inc()
        return queue[cur]

    def iter_rank(self, rank: int) -> Iterator[int]:
        """Iterate all remaining task indices granted to ``rank``."""
        while (t := self.next(rank)) is not None:
            yield t

    def assignment(self) -> list[list[int]]:
        """The full grant partition (per-rank task index lists)."""
        return [list(q) for q in self._queues]

    def reset(self) -> None:
        """Rewind all rank cursors (grants are unchanged; dead ranks stay dead)."""
        self._cursor = [0] * self.nranks
        self._done_logged.clear()

    # -- fault hooks --------------------------------------------------------

    def alive(self, rank: int) -> bool:
        """Whether ``rank`` still draws from the counter."""
        return rank not in self._dead

    def outstanding(self, rank: int) -> list[int]:
        """Granted-but-undrawn task indices of ``rank``, grant order."""
        return list(self._queues[rank][self._cursor[rank]:])

    def fail_rank(self, rank: int, *, requeue: bool = True) -> list[int]:
        """Declare ``rank`` dead and withdraw its outstanding grants.

        Returns the withdrawn task indices in their original grant
        order.  With ``requeue=True`` (the DDI runtime's recovery path)
        they are appended round-robin to the surviving ranks' queues, to
        be claimed by subsequent ``next()`` draws; with ``requeue=False``
        the caller owns redistribution (the Fock builders replay them in
        grant order so recovered results stay bitwise identical).
        """
        if not 0 <= rank < self.nranks:
            raise ValueError(f"rank {rank} out of range (nranks={self.nranks})")
        if rank in self._dead:
            return []
        tasks = self.outstanding(rank)
        self._cursor[rank] = len(self._queues[rank])
        self._dead.add(rank)
        registry = get_metrics()
        if registry is not None:
            registry.counter("dlb.rank_failures").inc()
            registry.counter("dlb.tasks_withdrawn").inc(len(tasks))
        log = get_event_log()
        if log is not None:
            log.emit(
                "dlb.rank_failed", rank=rank,
                withdrawn=len(tasks), requeued=requeue,
            )
        if requeue and tasks:
            survivors = [r for r in range(self.nranks) if r not in self._dead]
            if not survivors:
                raise RuntimeError(
                    f"rank {rank} failed with {len(tasks)} outstanding "
                    "task(s) and no survivors to re-queue them to"
                )
            for idx, t in enumerate(tasks):
                claimant = survivors[idx % len(survivors)]
                self._queues[claimant].append(t)
                # A survivor that had already drained (and logged
                # dlb.rank_done) has work again: un-log it so its next
                # exhaustion re-emits rank_done with the final grant
                # count instead of leaving the stale one in the log.
                self._done_logged.discard(claimant)
                if registry is not None:
                    registry.counter("dlb.tasks_requeued", rank=claimant).inc()
        return tasks


class StaticScheduler(Scheduler):
    """Pre-computed static partition with zero counter traffic.

    Without cost estimates, indices are dealt round-robin (``t`` to
    rank ``t % nranks``).  With per-task costs (Schwarz work
    estimates), a longest-processing-time greedy pass balances the
    estimated load instead; each rank then walks its share in index
    order.  This is the HONPAS-style static distribution: no runtime
    coordination at all, so it wins exactly when the estimates are
    good and the ranks run at the same speed.
    """

    schedule_name = "static"

    def __init__(
        self,
        ntasks: int,
        nranks: int,
        *,
        costs: np.ndarray | None = None,
    ) -> None:
        super().__init__(ntasks, nranks)
        self.weighted = costs is not None
        if costs is None:
            for t in range(ntasks):
                self._queues[t % nranks].append(t)
        else:
            costs = np.asarray(costs, dtype=np.float64)
            if costs.shape != (ntasks,):
                raise ValueError(
                    f"costs must have shape ({ntasks},); got {costs.shape}"
                )
            self._queues = lpt_partition(costs, nranks)
        self._emit_reset(weighted=self.weighted)


def make_scheduler(
    schedule: str,
    ntasks: int,
    nranks: int,
    *,
    costs: np.ndarray | None = None,
    policy: str = "round_robin",
) -> Scheduler:
    """Instantiate a distribution strategy by ``--schedule`` name.

    ``policy`` only applies to ``schedule="dlb"`` (the pre-partition
    policy of the simulated counter); ``costs`` only to
    ``schedule="static"`` (the LPT weights).
    """
    if schedule == "dlb":
        from repro.parallel.dlb import DynamicLoadBalancer

        return DynamicLoadBalancer(ntasks, nranks, policy=policy)
    if schedule == "static":
        return StaticScheduler(ntasks, nranks, costs=costs)
    raise ValueError(
        f"unknown schedule {schedule!r}; choose from {SCHEDULE_NAMES}"
    )
