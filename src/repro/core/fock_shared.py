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

from repro.core.buffers import track_flush
from repro.core.fock_base import (
    FockBuildStats,
    ParallelFockBuilderBase,
    TaskPlan,
)
from repro.core.indexing import decode_pair
from repro.obs.tracer import get_tracer
from repro.parallel.reduction import flush_table, pairwise_tree_sum
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

    def plan_task(self, ij: int) -> TaskPlan:
        # OpenMP dynamic schedule over the surviving combined kets.
        kls = self.screening.surviving_kl_pairs(ij)
        planned = []
        if kls.size:
            i, j = decode_pair(ij)
            shares = ThreadTeam(self.nthreads).partition(
                kls.size,
                schedule=self.thread_schedule,
                costs=self._kl_costs(kls),
            )
            planned = [
                [self.engine.share_plan(i, j, kls[share])] if share else []
                for share in shares
            ]
        return TaskPlan.of(ij + 1 - kls.size, planned)

    def admit(
        self,
        ij: int,
        part: FockBuildStats,
        barrier: Callable[[], None] | None,
    ) -> bool:
        # Bra prescreening (paper Algorithm 3 line 13, safe form).
        if self.screening.prescreen_ij(*decode_pair(ij)):
            return True
        part.quartets_screened += ij + 1
        return False

    def rank_program(
        self,
        rank: int,
        blocks: Iterator[list[int]],
        density: np.ndarray,
        W: np.ndarray,
        *,
        barrier: Callable[[], None] | None = None,
    ) -> FockBuildStats:
        """One rank's share: shared Fock with FI/FJ buffers and flushes.

        Each run of tasks is digested thread by thread, a bra shape at a
        time; then the tasks are walked in program order as in the
        paper's loop: FI flush when ``i`` changes, every thread's plans
        into its FI / FJ buffers and their ``(k, l)`` elements into
        ``W``, FJ flush.  A thread's plans of a task are one stretch of
        its layout's application index.
        """
        part = self._rank_stats()
        tracer = get_tracer()
        T, nbf = self.nthreads, self.nbf
        offsets = self.basis.shell_bf_offsets().tolist()
        widths = self.basis.shell_nfuncs().tolist()
        slices = self.engine.shell_slices
        tracker = self._new_tracker()
        chunks = flush_table(nbf, T)
        width = self.basis.max_shell_nfunc()
        # The threads' FI and FJ buffers: one flat target for digestion.
        buffers = np.zeros((2, T, nbf, width))
        FI, FJ = buffers
        target, W_flat = buffers.reshape(-1), W.reshape(-1)
        dc, dx = 2.0 * density, -0.5 * density[None]
        iold = -1

        def flush(buffer: np.ndarray, shell: int) -> None:
            # Cooperative row-chunked tree reduction (Figure 1 B); the
            # flushes are published once per build.
            w = widths[shell]
            cols = slice(offsets[shell], offsets[shell] + w)
            W[:, cols] += pairwise_tree_sum(buffer[:, :, :w])
            buffer[:, :, :w] = 0.0
            if tracker is not None:
                track_flush(tracker, W.shape, chunks, cols)
                tracker.barrier()

        for run, layouts in self.rank_runs(blocks, part):
            digested = []
            for t, layout in enumerate(layouts):
                with tracer.span(
                    "fock/kl", rank=rank, thread=t, tasks=len(run),
                    plans=len(layout.order), quartets=layout.quartets,
                ):
                    digested.append(layout.digest(self.engine, dc, dx))
            done = [0] * T
            for ij, task in run:
                i, j = decode_pair(ij)
                # Flush FI when the i index changes (lines 15-18) — or
                # every iteration when the iold optimization is ablated.
                if (i != iold or self.flush_fi_every_iteration) and iold >= 0:
                    with tracer.span("fock/flush_fi", rank=rank, i=iold):
                        flush(FI, iold)
                    part.fi_flushes += 1
                for t, plans in enumerate(task.shares):
                    # (i,j), (i,k), (i,l) into the thread's FI, (j,k),
                    # (j,l) into its FJ; (k,l) directly into the shared
                    # Fock — disjoint across threads, which the tracker
                    # verifies.
                    q = done[t] + len(plans)
                    layouts[t].apply(digested[t], target, W_flat, done[t], q)
                    done[t] = q
                    if tracker is not None:
                        for plan in plans:
                            for kl in plan.kls.tolist():
                                k, l = decode_pair(kl)
                                tracker.record_block(
                                    t, W.shape, slices[k], slices[l]
                                )
                if tracker is not None and task.shares:
                    tracker.barrier()
                # Flush FJ after every kl loop (line 31).
                with tracer.span("fock/flush_fj", rank=rank, j=j):
                    flush(FJ, j)
                part.fj_flushes += 1
                iold = i

        # Remainder FI flush (line 36).
        if iold >= 0:
            with tracer.span("fock/flush_fi", rank=rank, i=iold):
                flush(FI, iold)
            part.fi_flushes += 1
        if tracker is not None:
            part.races = len(tracker.races)
            part.writes_checked = tracker.writes_checked
        return part

    def _target(self, t: int) -> tuple:
        # Thread t's FI and FJ buffers; the (k, l) elements go to W.
        nbf, width = self.nbf, self.basis.max_shell_nfunc()
        return width, 0, 1, (t * nbf * width, (self.nthreads + t) * nbf * width), False

    def _kl_costs(self, kls: np.ndarray) -> np.ndarray | None:
        if self.thread_schedule != "dynamic":
            return None
        # Ket block size as the cost proxy for grant ordering.
        return self.engine.pair_nfunc[kls].astype(np.float64)
