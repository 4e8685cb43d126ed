"""Algorithm 3 — hybrid MPI/OpenMP with *shared* density and Fock.

The paper's flagship algorithm.  Per MPI rank there is exactly one Fock
matrix shared by all threads; write conflicts are avoided structurally:

* MPI DLB over the combined ``(i, j)`` bra index; OpenMP dynamic
  schedule over the combined ``(k, l)`` ket index (``kl <= ij``).
* Each thread accumulates its bra-column contributions into private
  ``FI`` (column block *i*) and ``FJ`` (column block *j*) buffers
  (paper Figure 1 A; :class:`~repro.core.buffers.ColumnBlockBuffer`).
* The ``F(k, l)`` contribution goes *directly* into the shared Fock
  matrix: distinct ``kl`` iterations touch disjoint ``(k, l)`` blocks,
  so threads never collide (the race tracker proves it).
* ``FJ`` is flushed after every ``kl`` loop; ``FI`` is flushed only
  when the ``i`` index changes (the paper's ``iold`` optimization),
  plus once at the end for the remainder.  Flushes are cooperative,
  row-chunked tree reductions (Figure 1 B).
* Safe bra prescreening (``Q_ij * Q_max < tau``) skips entire top-loop
  iterations, which is what makes the MPI iteration space both large
  *and* cheap to traverse for very sparse systems.
"""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

from repro.core.buffers import ColumnBlockBuffer
from repro.core.fock_base import (
    ParallelFockBuilderBase,
    RankBuildResult,
    TaskPlan,
)
from repro.core.indexing import decode_pair, npairs
from repro.obs.tracer import get_tracer
from repro.parallel.threads import ThreadTeam


class SharedFockBuilder(ParallelFockBuilderBase):
    """The paper's Algorithm 3 ("shared density, shared Fock").

    ``flush_fi_every_iteration`` disables the paper's ``iold``
    optimization (flush FI only when the *i* index changes) and flushes
    after every top-loop iteration instead — an ablation knob; the
    result is identical, only the flush count (and hence the simulated
    synchronization cost) grows.
    """

    algorithm_name = "shared-fock"

    def __init__(self, basis, hcore, *, flush_fi_every_iteration: bool = False,
                 **kwargs) -> None:
        super().__init__(basis, hcore, **kwargs)
        self.flush_fi_every_iteration = flush_fi_every_iteration

    def dlb_ntasks(self) -> int:
        return npairs(self.nshells)

    def plan_task(self, ij: int) -> TaskPlan:
        # OpenMP dynamic schedule over the surviving combined kets.
        kls = self.screening.surviving_kl_pairs(ij)
        planned = []
        if kls.size:
            i, j = decode_pair(ij)
            shares = ThreadTeam(self.nthreads).partition(
                kls.size,
                schedule=self.thread_schedule,
                chunk=self.thread_chunk,
                costs=self._kl_costs(kls),
            )
            planned = [
                (
                    len(share),
                    [self.engine.share_plan(i, j, kls[share])] if share else [],
                )
                for share in shares
            ]
        return TaskPlan(ij + 1 - kls.size, planned)

    def rank_program(
        self,
        rank: int,
        grants: Iterator[int],
        density: np.ndarray,
        W: np.ndarray,
        *,
        barrier: Callable[[], None] | None = None,
    ) -> RankBuildResult:
        """One rank's share: shared Fock with FI/FJ buffers and flushes."""
        rr = RankBuildResult(rank=rank)
        tracer = get_tracer()
        offsets = self.basis.shell_bf_offsets()
        widths = self.basis.shell_nfuncs()
        max_width = self.basis.max_shell_nfunc()
        thread_counts = [0] * self.nthreads
        tracker = self._new_tracker()
        slices = self.engine.shell_slices
        FI = ColumnBlockBuffer(self.nbf, max_width, self.nthreads)
        FJ = ColumnBlockBuffer(self.nbf, max_width, self.nthreads)
        iold = -1

        for ij in grants:
            i, j = decode_pair(ij)
            # Bra prescreening (paper Algorithm 3 line 13, safe form).
            if not self.screening.prescreen_ij(i, j):
                rr.quartets_screened += ij + 1
                continue

            # Flush FI when the i index changes (lines 15-18) — or
            # every iteration when the iold optimization is ablated.
            if (i != iold or self.flush_fi_every_iteration) and iold >= 0:
                with tracer.span("fock/flush_fi", rank=rank, i=iold):
                    FI.flush(
                        W, int(offsets[iold]), int(widths[iold]),
                        tracker=tracker,
                    )
                if tracker is not None:
                    tracker.barrier()

            task = self.task_plan(ij)
            rr.quartets_screened += task.screened
            wi, wj = int(widths[i]), int(widths[j])
            for t, (ntasks, plans) in enumerate(task.shares):
                with tracer.span(
                    "fock/kl", rank=rank, thread=t, ij=ij, tasks=ntasks
                ):
                    for plan in plans:
                        d = self.engine.digest_bra(
                            plan, density, density[None], 2.0, -0.5
                        )
                        # (i,j), (i,k), (i,l) into the thread's FI,
                        # (j,k), (j,l) into its FJ; (k,l) directly
                        # into the shared Fock — disjoint across
                        # threads, which the tracker verifies.
                        d.add_into(
                            FI.thread_view(t)[:, :wi],
                            FJ.thread_view(t)[:, :wj], W,
                        )
                        if tracker is not None:
                            for kl in plan.kls.tolist():
                                k, l = decode_pair(kl)
                                tracker.record_block(
                                    t, W.shape, slices[k], slices[l]
                                )
                thread_counts[t] += ntasks
            if tracker is not None and task.shares:
                tracker.barrier()

            # Flush FJ after every kl loop (line 31).
            with tracer.span("fock/flush_fj", rank=rank, j=j):
                FJ.flush(
                    W, int(offsets[j]), int(widths[j]), tracker=tracker
                )
            if tracker is not None:
                tracker.barrier()
            iold = i

        # Remainder FI flush (line 36).
        if iold >= 0:
            with tracer.span("fock/flush_fi", rank=rank, i=iold):
                FI.flush(
                    W, int(offsets[iold]), int(widths[iold]),
                    tracker=tracker,
                )
        rr.quartets_done = sum(thread_counts)
        rr.per_thread_quartets = thread_counts
        rr.fi_flushes = FI.flushes
        rr.fj_flushes = FJ.flushes
        if tracker is not None:
            rr.races = len(tracker.races)
            rr.writes_checked = tracker.writes_checked
        return rr

    def work_estimates(self) -> np.ndarray:
        """Schwarz-screened surviving-quartet counts per bra pair."""
        return self.screening.pair_survivor_counts()

    def _kl_costs(self, kls: np.ndarray) -> np.ndarray | None:
        if self.thread_schedule != "dynamic":
            return None
        # Ket block size as the cost proxy for grant ordering.
        return self.engine.pair_nfunc[kls].astype(np.float64)
