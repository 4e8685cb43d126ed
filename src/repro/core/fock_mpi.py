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
    FockBuildStats,
    ParallelFockBuilderBase,
    TaskPlan,
)
from repro.core.indexing import decode_pair
from repro.obs.tracer import get_tracer


class MPIOnlyFockBuilder(ParallelFockBuilderBase):
    """The paper's Algorithm 1 (``nthreads`` is fixed at 1 per rank)."""

    algorithm_name = "mpi-only"

    def __init__(self, basis, hcore, **kwargs) -> None:
        kwargs.setdefault("nthreads", 1)
        if kwargs["nthreads"] != 1:
            raise ValueError("the MPI-only algorithm is single-threaded per rank")
        super().__init__(basis, hcore, **kwargs)

    def plan_task(self, ij: int) -> TaskPlan:
        # The k, l loops under one bra are exactly the combined kets
        # kl <= ij; the rank's single thread takes all survivors.
        kls = self.screening.surviving_kl_pairs(ij)
        plans = (
            [self.engine.share_plan(*decode_pair(ij), kls)] if kls.size else []
        )
        return TaskPlan.of(ij + 1 - kls.size, [plans])

    def rank_program(
        self,
        rank: int,
        blocks: Iterator[list[int]],
        density: np.ndarray,
        W: np.ndarray,
        *,
        barrier: Callable[[], None] | None = None,
    ) -> FockBuildStats:
        """One rank's share: the stock replicated-Fock quartet loops."""
        part = self._rank_stats()
        dc, dx = 2.0 * density, -0.5 * density[None]
        # Stock loop: i over shells, j <= i, with the DLB check on
        # the combined (i, j) index (ddi_dlbnext); every family straight
        # into the rank's replica, plan by plan in program order.
        with get_tracer().span("fock/quartets", rank=rank):
            for _, (layout,) in self.rank_runs(blocks, part):
                self._add_to_replica(layout, dc, dx, W.reshape(-1))
        part.per_thread_quartets = []  # Algorithm 1 has no thread team
        return part
