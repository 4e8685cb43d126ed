"""Algorithm 1 — the stock GAMESS MPI-only Fock build.

Every rank replicates the density and Fock matrices.  The DDI dynamic
load balancer hands out combined ``(i, j)`` shell-pair indices; for each
granted bra pair the rank runs the full ``(k, l)`` inner loops with
per-quartet Schwarz screening and accumulates into its private Fock
replica, which is summed over ranks at the end (``ddi_gsumf``).

The characteristic weaknesses the paper identifies are visible directly
in the returned statistics: the iteration space is only
``nshells * (nshells + 1) / 2`` tasks of widely varying cost (load
imbalance at scale), and the per-rank memory is the full set of
replicated matrices (see :mod:`repro.core.memory_model`).
"""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

from repro.core.fock_base import (
    ParallelFockBuilderBase,
    RankBuildResult,
    TaskPlan,
)
from repro.core.indexing import decode_pair, npairs
from repro.obs.tracer import get_tracer


class MPIOnlyFockBuilder(ParallelFockBuilderBase):
    """The paper's Algorithm 1 (``nthreads`` is fixed at 1 per rank)."""

    algorithm_name = "mpi-only"

    def __init__(self, basis, hcore, **kwargs) -> None:
        kwargs.setdefault("nthreads", 1)
        if kwargs["nthreads"] != 1:
            raise ValueError("the MPI-only algorithm is single-threaded per rank")
        super().__init__(basis, hcore, **kwargs)

    def dlb_ntasks(self) -> int:
        return npairs(self.nshells)

    def work_estimates(self) -> np.ndarray:
        """Schwarz-screened surviving-quartet counts per bra pair."""
        return self.screening.pair_survivor_counts()

    def plan_task(self, ij: int) -> TaskPlan:
        # The k, l loops under one bra are exactly the combined kets
        # kl <= ij; the rank's single thread takes all survivors.
        kls = self.screening.surviving_kl_pairs(ij)
        plans = (
            [self.engine.share_plan(*decode_pair(ij), kls)] if kls.size else []
        )
        return TaskPlan(ij + 1 - kls.size, [(kls.size, plans)])

    def rank_program(
        self,
        rank: int,
        grants: Iterator[int],
        density: np.ndarray,
        W: np.ndarray,
        *,
        barrier: Callable[[], None] | None = None,
    ) -> RankBuildResult:
        """One rank's share: the stock replicated-Fock quartet loops."""
        rr = RankBuildResult(rank=rank)
        # Stock loop: i over shells, j <= i, with the DLB check on
        # the combined (i, j) index (ddi_dlbnext).
        with get_tracer().span("fock/quartets", rank=rank):
            for ij in grants:
                task = self.task_plan(ij)
                rr.quartets_screened += task.screened
                for _, plans in task.shares:
                    for plan in plans:
                        d = self.engine.digest_bra(
                            plan, density, density[None], 2.0, -0.5
                        )
                        d.add_into(W[:, plan.si], W[:, plan.sj], W)
                        rr.quartets_done += plan.kls.size
        return rr
