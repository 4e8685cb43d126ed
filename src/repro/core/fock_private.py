"""Algorithm 2 — hybrid MPI/OpenMP, shared density, *private* Fock.

One MPI rank spans many OpenMP threads.  All read-only matrices
(density, overlap, core Hamiltonian) are shared by the threads; each
thread keeps a private Fock replica, combined at the end of the
parallel region by an OpenMP ``reduction(+ : Fock)``.

Work distribution follows the paper exactly: the master thread draws a
new ``i`` shell index from the DDI balancer (one barrier per draw), and
the ``(j, k)`` loops are collapsed (``collapse(2)``) and distributed
over threads with a dynamic schedule — the collapsed space of
``(i + 1) * (i + 1)`` iterations per draw is what restores thread-level
balance.  The ``l`` loop is unchanged from Algorithm 1.
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
from repro.obs.tracer import get_tracer
from repro.parallel.comm import SimComm, SimWorld
from repro.parallel.threads import ThreadTeam


class PrivateFockBuilder(ParallelFockBuilderBase):
    """The paper's Algorithm 2 ("shared density, private Fock")."""

    algorithm_name = "private-fock"

    def dlb_ntasks(self) -> int:
        # MPI-level DLB over the *i* index only — the coarse granularity
        # the paper identifies as this algorithm's scaling limit.
        return self.nshells

    def rank_program(
        self,
        rank: int,
        grants: Iterator[int],
        density: np.ndarray,
        W: np.ndarray,
        *,
        barrier: Callable[[], None] | None = None,
    ) -> RankBuildResult:
        """One rank's share: collapse(2) thread loops, private Focks."""
        rr = RankBuildResult(rank=rank)
        tracer = get_tracer()
        team = ThreadTeam(self.nthreads)
        thread_counts = np.zeros(self.nthreads, dtype=np.int64)
        # One private Fock replica per thread, as in
        # ``reduction(+ : Fock)``.
        W_threads = team.private_buffers((self.nbf, self.nbf))
        done = 0
        for i in grants:
            if barrier is not None:
                barrier()  # master draw + implicit barrier
            # collapse(2) over (j, k), both 0..i.
            jk_tasks = [(j, k) for j in range(i + 1) for k in range(i + 1)]
            costs = self._jk_costs(i, jk_tasks)
            shares = team.partition(
                len(jk_tasks),
                schedule=self.thread_schedule,
                chunk=self.thread_chunk,
                costs=costs,
            )
            for t, share in enumerate(shares):
                Wt = W_threads[t]
                with tracer.span(
                    "fock/jk", rank=rank, thread=t, i=i, tasks=len(share)
                ):
                    for idx in share:
                        j, k = jk_tasks[idx]
                        for l in range(lmax_for(i, j, k) + 1):
                            if not self.screening.survives(i, j, k, l):
                                rr.quartets_screened += 1
                                continue
                            self.engine.apply_quartet(
                                Wt, density, i, j, k, l
                            )
                            done += 1
                            thread_counts[t] += 1
        # OpenMP reduction over thread-private Focks.
        with tracer.span("fock/thread_reduce", rank=rank):
            for Wt in W_threads:
                W += Wt
        rr.quartets_done = done
        rr.per_thread_quartets = thread_counts.tolist()
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
            rr = self.rank_program(
                rank, self._grants(dlb, rank), density, W,
                barrier=comm.barrier,
            )
            self._merge_rank_result(stats, rr)
            stats.per_rank_quartets.append(rr.quartets_done)
            with tracer.span("fock/gsumf", rank=rank):
                self._resilient_gsumf(comm, W)
            results.append(W)

        with tracer.span(
            "fock/build", algorithm=self.algorithm_name,
            nranks=self.nranks, nthreads=self.nthreads,
        ):
            world.execute(rank_main)
        stats.quartets_computed = sum(stats.per_rank_quartets)
        return self._finish(results[0], stats, world, [])

    def work_estimates(self) -> np.ndarray:
        # Cost of MPI task i ~ number of (j, k, l) iterations under it.
        return np.array(
            [float((i + 1) * (i + 1)) for i in range(self.nshells)]
        )

    def _jk_costs(self, i: int, jk_tasks: list[tuple[int, int]]) -> np.ndarray | None:
        if self.thread_schedule != "dynamic":
            return None
        # Surviving-l counts would be exact; the l-loop extent is a
        # cheap, monotone proxy adequate for grant ordering.
        return np.array(
            [float(lmax_for(i, j, k) + 1) for (j, k) in jk_tasks]
        )
