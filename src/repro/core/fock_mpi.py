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
    RankBuildResult,
)
from repro.core.indexing import decode_pair, lmax_for, npairs
from repro.obs.tracer import get_tracer
from repro.parallel.comm import SimComm, SimWorld


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
                i, j = decode_pair(ij)
                for k in range(i + 1):
                    for l in range(lmax_for(i, j, k) + 1):
                        if not self.screening.survives(i, j, k, l):
                            rr.quartets_screened += 1
                            continue
                        self.engine.apply_quartet(W, density, i, j, k, l)
                        rr.quartets_done += 1
        return rr

    def __call__(self, density: np.ndarray) -> tuple[np.ndarray, FockBuildStats]:
        stats = self._new_stats()
        self._check_density(density)
        tracer = get_tracer()
        world = SimWorld(self.nranks)
        dlb = self.make_scheduler()
        results: list[np.ndarray] = []

        def rank_main(comm: SimComm) -> None:
            rank = comm.rank
            W = np.zeros((self.nbf, self.nbf))
            rr = self.rank_program(rank, self._grants(dlb, rank), density, W)
            self._merge_rank_result(stats, rr)
            stats.per_rank_quartets.append(rr.quartets_done)
            with tracer.span("fock/gsumf", rank=rank):
                self._resilient_gsumf(comm, W)
            results.append(W)

        with tracer.span(
            "fock/build", algorithm=self.algorithm_name, nranks=self.nranks
        ):
            world.execute(rank_main)
        stats.quartets_computed = sum(stats.per_rank_quartets)
        return self._finish(results[0], stats, world, [])
