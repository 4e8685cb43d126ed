"""DDI-style dynamic load balancer (the paper's ``ddi_dlbnext``).

In GAMESS, ``ddi_dlbnext`` increments a globally shared counter and
returns the next task index; which rank receives which index depends on
arrival timing.  Any grant sequence partitions the index space, and the
reduced Fock matrix is independent of the partition — only the *timing*
depends on it (modelled in :mod:`repro.perfsim`).

The simulated balancer therefore pre-computes the grant partition a
real DLB converges to when task costs are uniform — index ``t`` to rank
``t % nranks`` — and serves it through the same one-index-at-a-time
``next(rank)`` interface the algorithms use (the grant machinery lives
in :class:`repro.parallel.scheduler.Scheduler`, shared with the static
strategy).  Static partitions, cost-weighted or not, are
``schedule="static"`` (:class:`repro.parallel.scheduler.StaticScheduler`).
"""

from __future__ import annotations

from repro.parallel.scheduler import Scheduler


class DynamicLoadBalancer(Scheduler):
    """Shared global task counter, granting round-robin.

    Parameters
    ----------
    ntasks:
        Size of the global index space (0-based indices are served).
    nranks:
        Number of MPI ranks drawing from the counter.
    """

    schedule_name = "dlb"

    def __init__(self, ntasks: int, nranks: int) -> None:
        super().__init__(ntasks, nranks)
        self._emit_reset()
        for t in range(ntasks):
            self._queues[t % nranks].append(t)

    def counter_traffic(self) -> int:
        # Every grant is one RPC against the shared global counter.
        return sum(self._cursor)
