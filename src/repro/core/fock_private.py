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
    TaskPlan,
)
from repro.obs.tracer import get_tracer
from repro.parallel.threads import ThreadTeam


class PrivateFockBuilder(ParallelFockBuilderBase):
    """The paper's Algorithm 2 ("shared density, private Fock")."""

    algorithm_name = "private-fock"

    def dlb_ntasks(self) -> int:
        # MPI-level DLB over the *i* index only — the coarse granularity
        # the paper identifies as this algorithm's scaling limit.
        return self.nshells

    def _channels(
        self, density: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, float]:
        """Coulomb density, stacked exchange densities, exchange weight."""
        return density, density[None], -0.5

    def plan_task(self, i: int) -> TaskPlan:
        # collapse(2) over (j, k), both 0..i: iteration j * (i+1) + k.
        shares = ThreadTeam(self.nthreads).partition(
            (i + 1) * (i + 1),
            schedule=self.thread_schedule,
            costs=self._jk_costs(i),
        )
        screened_out = 0
        planned = []
        for share in shares:
            js, ks = np.divmod(np.array(share, dtype=np.int64), i + 1)
            # The share ascends, so each j owns one run of it.
            cuts = np.searchsorted(js, np.arange(i + 2)).tolist()
            plans = []
            for j, (lo, hi) in enumerate(zip(cuts, cuts[1:])):
                if lo == hi:
                    continue
                kls, screened = self.screening.surviving_kl_under(
                    i, j, ks[lo:hi]
                )
                screened_out += screened
                if kls.size:
                    plans.append(self.engine.share_plan(i, j, kls))
            planned.append(plans)
        return TaskPlan.of(screened_out, planned)

    def admit(
        self,
        task: int,
        part: FockBuildStats,
        barrier: Callable[[], None] | None,
    ) -> bool:
        if barrier is not None:
            barrier()  # master draw + implicit barrier
        return True

    def rank_program(
        self,
        rank: int,
        blocks: Iterator[list[int]],
        density: np.ndarray,
        W: np.ndarray,
        *,
        barrier: Callable[[], None] | None = None,
    ) -> FockBuildStats:
        """One rank's share: collapse(2) thread loops, private Focks."""
        part = self._rank_stats()
        tracer = get_tracer()
        d_coulomb, d_exchange, kw = self._channels(density)
        dc, dx = 2.0 * d_coulomb, kw * d_exchange
        # One private Fock replica per thread, as in
        # ``reduction(+ : Fock)``.
        W_threads = ThreadTeam(self.nthreads).private_buffers(W.shape)
        targets = [Wt.reshape(-1) for Wt in W_threads]
        for run, layouts in self.rank_runs(blocks, part, barrier):
            for t, layout in enumerate(layouts):
                with tracer.span(
                    "fock/jk", rank=rank, thread=t, tasks=len(run),
                    plans=len(layout.order), quartets=layout.quartets,
                ):
                    self._add_to_replica(layout, dc, dx, targets[t])
        # OpenMP reduction over thread-private Focks.
        with tracer.span("fock/thread_reduce", rank=rank):
            for Wt in W_threads:
                W += Wt
        return part

    def work_estimates(self) -> np.ndarray:
        # Cost of MPI task i ~ number of (j, k, l) iterations under it.
        return np.array(
            [float((i + 1) * (i + 1)) for i in range(self.nshells)]
        )

    def _jk_costs(self, i: int) -> np.ndarray | None:
        if self.thread_schedule != "dynamic":
            return None
        # Surviving-l counts would be exact; the l-loop extent
        # lmax_for(i, j, k) + 1 is a cheap, monotone proxy adequate for
        # grant ordering: k + 1, except j + 1 in the k == i column.
        upto = np.arange(1.0, i + 2)
        extent = np.tile(upto, (i + 1, 1))
        extent[:, i] = upto
        return extent.ravel()
