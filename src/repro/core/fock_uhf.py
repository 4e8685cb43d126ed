"""Hybrid MPI/OpenMP *unrestricted* Fock construction.

Applies the paper's Algorithm-2 structure (shared read-only densities,
thread-private Fock replicas, MPI DLB over ``i``, OpenMP ``collapse(2)``
over ``(j, k)``) to the UHF case: each thread keeps private
:math:`W^\\alpha / W^\\beta` accumulators, both fed from a *single* ERI
sweep via the generalized six-way scatter with per-spin exchange
channels.  This demonstrates the paper's closing claim that the hybrid
scheme transfers directly to UHF (and, by the same token, GVB/DFT/CPHF).

The builder follows the same backend-facing rank-program protocol as
the RHF algorithms — the two spin channels are stacked into one
``(2, nbf, nbf)`` accumulator/density pair so both the deterministic
sim runtime and the real-process backend can execute it unchanged.
"""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

from repro.core.fock_base import (
    FockBuildStats,
    ParallelFockBuilderBase,
    RankBuildResult,
)
from repro.core.indexing import lmax_for
from repro.parallel.comm import SimComm, SimWorld
from repro.parallel.threads import ThreadTeam


class UHFPrivateFockBuilder(ParallelFockBuilderBase):
    """Private-Fock (Algorithm 2) construction of the two spin Focks.

    Satisfies the UHF builder protocol:
    ``builder(d_alpha, d_beta) -> (F_alpha, F_beta, stats)``.
    """

    algorithm_name = "uhf-private-fock"

    @property
    def accumulator_shape(self) -> tuple[int, ...]:
        # Stacked spin channels: W[0] = alpha, W[1] = beta.
        return (2, self.nbf, self.nbf)

    def dlb_ntasks(self) -> int:
        return self.nshells

    def work_estimates(self) -> np.ndarray:
        # Cost of MPI task i ~ number of (j, k) iterations under it.
        return np.array(
            [float((i + 1) * (i + 1)) for i in range(self.nshells)]
        )

    def rank_program(
        self,
        rank: int,
        grants: Iterator[int],
        density: np.ndarray,
        W: np.ndarray,
        *,
        barrier: Callable[[], None] | None = None,
    ) -> RankBuildResult:
        """One rank's share over the stacked ``(alpha, beta)`` densities."""
        rr = RankBuildResult(rank=rank)
        d_alpha, d_beta = density[0], density[1]
        d_total = d_alpha + d_beta
        team = ThreadTeam(self.nthreads)
        thread_counts = np.zeros(self.nthreads, dtype=np.int64)
        wa_threads = team.private_buffers((self.nbf, self.nbf))
        wb_threads = team.private_buffers((self.nbf, self.nbf))
        done = 0
        for i in grants:
            if barrier is not None:
                barrier()
            jk_tasks = [(j, k) for j in range(i + 1) for k in range(i + 1)]
            shares = team.partition(
                len(jk_tasks),
                schedule=self.thread_schedule,
                chunk=self.thread_chunk,
            )
            for t, share in enumerate(shares):
                wa, wb = wa_threads[t], wb_threads[t]
                for idx in share:
                    j, k = jk_tasks[idx]
                    for l in range(lmax_for(i, j, k) + 1):
                        if not self.screening.survives(i, j, k, l):
                            rr.quartets_screened += 1
                            continue
                        X = self.engine.composite_block(i, j, k, l)
                        # One ERI evaluation feeds both spin Focks.
                        for (dest, val) in self.engine.scatter_general(
                            X, d_total, d_alpha, 2.0, -1.0, i, j, k, l
                        ).values():
                            wa[dest] += val
                        for (dest, val) in self.engine.scatter_general(
                            X, d_total, d_beta, 2.0, -1.0, i, j, k, l
                        ).values():
                            wb[dest] += val
                        done += 1
                        thread_counts[t] += 1
        for t in range(self.nthreads):
            W[0] += wa_threads[t]
            W[1] += wb_threads[t]
        rr.quartets_done = done
        rr.per_thread_quartets = thread_counts.tolist()
        return rr

    def assemble(self, W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Spin Fock matrices from the stacked reduced accumulator."""
        fa = self.hcore + W[0] + W[0].T
        fb = self.hcore + W[1] + W[1].T
        return fa, fb

    def __call__(
        self, d_alpha: np.ndarray, d_beta: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, FockBuildStats]:
        stats = self._new_stats()
        self._check_density(d_alpha, "alpha density")
        self._check_density(d_beta, "beta density")
        world = SimWorld(self.nranks)
        dlb = self.make_scheduler()
        density = np.stack([d_alpha, d_beta])
        results: list[np.ndarray] = []

        def rank_main(comm: SimComm) -> None:
            rank = comm.rank
            W = np.zeros(self.accumulator_shape)
            rr = self.rank_program(
                rank, self._grants(dlb, rank), density, W,
                barrier=comm.barrier,
            )
            self._merge_rank_result(stats, rr)
            stats.per_rank_quartets.append(rr.quartets_done)
            self._resilient_gsumf(comm, W)
            results.append(W)

        world.execute(rank_main)
        stats.quartets_computed = sum(stats.per_rank_quartets)
        stats.reduce_bytes = world.stats.reduce_bytes
        self._capture_cache_stats(stats)
        self._record_global(stats)
        fa, fb = self.assemble(results[0])
        return fa, fb, stats


class UHFBuilderAdapter:
    """Adapt a stacked-density (process-backend) builder to UHF's protocol.

    The process backend wraps builders behind the single-argument
    ``builder(density) -> (fock, stats)`` interface; for UHF the
    density is the stacked ``(2, nbf, nbf)`` spin pair and ``fock`` is
    the ``(F_alpha, F_beta)`` tuple from
    :meth:`UHFPrivateFockBuilder.assemble`.  This shim restores the
    two-argument protocol :class:`repro.scf.uhf.UHF` drives.
    """

    def __init__(self, wrapped) -> None:
        self.wrapped = wrapped

    def __getattr__(self, name: str):
        return getattr(self.wrapped, name)

    def __call__(
        self, d_alpha: np.ndarray, d_beta: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, FockBuildStats]:
        (fa, fb), stats = self.wrapped(np.stack([d_alpha, d_beta]))
        return fa, fb, stats
