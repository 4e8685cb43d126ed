"""DDI-style dynamic load balancer (the paper's ``ddi_dlbnext``).

In GAMESS, ``ddi_dlbnext`` increments a globally shared counter and
returns the next task index; which rank receives which index depends on
arrival timing.  Any grant sequence partitions the index space, and the
reduced Fock matrix is independent of the partition — only the *timing*
depends on it (modelled in :mod:`repro.perfsim`).

The simulated balancer therefore pre-computes a grant partition under a
chosen policy and serves it through the same one-index-at-a-time
``next(rank)`` interface the algorithms use (the grant machinery lives
in :class:`repro.parallel.scheduler.Scheduler`, shared with the static
strategy):

``round_robin``
    Index ``t`` goes to rank ``t % nranks`` — what a real DLB converges
    to when task costs are uniform.
``block``
    Contiguous slabs (a static schedule, for ablation).

The cost-weighted partition an ideal dynamic balancer approaches when
costs vary is ``schedule="static"``
(:func:`repro.parallel.scheduler.lpt_partition`).
"""

from __future__ import annotations

import numpy as np

from repro.parallel.scheduler import Scheduler

_POLICIES = ("round_robin", "block")


class DynamicLoadBalancer(Scheduler):
    """Shared global task counter with a deterministic grant policy.

    Parameters
    ----------
    ntasks:
        Size of the global index space (0-based indices are served).
    nranks:
        Number of MPI ranks drawing from the counter.
    policy:
        ``round_robin`` (default) or ``block``.
    """

    schedule_name = "dlb"

    def __init__(
        self,
        ntasks: int,
        nranks: int,
        *,
        policy: str = "round_robin",
    ) -> None:
        super().__init__(ntasks, nranks)
        if policy not in _POLICIES:
            raise ValueError(f"unknown DLB policy {policy!r}; choose from {_POLICIES}")
        self.policy = policy
        self._emit_reset(policy=policy)

        if policy == "round_robin":
            for t in range(ntasks):
                self._queues[t % nranks].append(t)
        elif policy == "block":
            bounds = np.linspace(0, ntasks, nranks + 1).astype(int)
            for r in range(nranks):
                self._queues[r] = list(range(bounds[r], bounds[r + 1]))

    def counter_traffic(self) -> int:
        # Every grant is one RPC against the shared global counter.
        return sum(self._cursor)
