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
    FockBuildStats,
    ParallelFockBuilderBase,
    RankBuildResult,
)
from repro.core.indexing import decode_pair, decode_pairs, npairs
from repro.obs.tracer import get_tracer
from repro.parallel.comm import SimComm, SimWorld
from repro.parallel.shared_array import WriteTracker
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
        team = ThreadTeam(self.nthreads)
        offsets = self.basis.shell_bf_offsets()
        widths = self.basis.shell_nfuncs()
        max_width = self.basis.max_shell_nfunc()
        thread_counts = np.zeros(self.nthreads, dtype=np.int64)
        tracker = self._new_tracker()
        FI = ColumnBlockBuffer(self.nbf, max_width, self.nthreads)
        FJ = ColumnBlockBuffer(self.nbf, max_width, self.nthreads)
        iold = -1
        done = 0

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

            kl_surviving = self.screening.surviving_kl_pairs(ij)
            rr.quartets_screened += (ij + 1) - kl_surviving.size
            if kl_surviving.size:
                ks, ls = decode_pairs(kl_surviving)
                shares = team.partition(
                    kl_surviving.size,
                    schedule=self.thread_schedule,
                    chunk=self.thread_chunk,
                    costs=self._kl_costs(ks, ls, widths),
                )
                si = slice(int(offsets[i]), int(offsets[i] + widths[i]))
                sj = slice(int(offsets[j]), int(offsets[j] + widths[j]))
                for t, share in enumerate(shares):
                    with tracer.span(
                        "fock/kl", rank=rank, thread=t, ij=ij,
                        tasks=len(share),
                    ):
                        for idx in share:
                            k, l = int(ks[idx]), int(ls[idx])
                            self._do_quartet(
                                W, FI, FJ, density, i, j, k, l, t,
                                si, sj, tracker,
                            )
                            thread_counts[t] += 1
                            done += 1
                if tracker is not None:
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
        rr.quartets_done = done
        rr.per_thread_quartets = thread_counts.tolist()
        rr.fi_flushes = FI.flushes
        rr.fj_flushes = FJ.flushes
        if tracker is not None:
            rr.races = len(tracker.races)
            rr.writes_checked = tracker.writes_checked
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
            # ONE shared Fock accumulator for the whole rank.
            W = np.zeros((self.nbf, self.nbf))
            rr = self.rank_program(rank, self._grants(dlb, rank), density, W)
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

    def _do_quartet(
        self,
        W: np.ndarray,
        FI: ColumnBlockBuffer,
        FJ: ColumnBlockBuffer,
        density: np.ndarray,
        i: int,
        j: int,
        k: int,
        l: int,
        thread: int,
        si: slice,
        sj: slice,
        tracker: WriteTracker | None,
    ) -> None:
        X = self.engine.composite_block(i, j, k, l)
        contribs = self.engine.scatter_contributions(X, density, i, j, k, l)

        wi = si.stop - si.start
        wj = sj.stop - sj.start
        # Private i-column buffer: families (i,j), (i,k), (i,l).
        for key in ("ji", "ki", "li"):
            (rows, _cols), val = contribs[key]
            FI.add(thread, rows, slice(0, wi), val)
        # Private j-column buffer: families (j,k), (j,l).
        for key in ("kj", "lj"):
            (rows, _cols), val = contribs[key]
            FJ.add(thread, rows, slice(0, wj), val)
        # Shared direct update: family (k, l) — disjoint across threads.
        (rows, cols), val = contribs["kl"]
        W[rows, cols] += val
        if tracker is not None:
            tracker.record_block(thread, W.shape, rows, cols)

    def work_estimates(self) -> np.ndarray:
        """Schwarz-screened surviving-quartet counts per bra pair."""
        return self.screening.pair_survivor_counts()

    def _kl_costs(
        self, ks: np.ndarray, ls: np.ndarray, widths: np.ndarray
    ) -> np.ndarray | None:
        if self.thread_schedule != "dynamic":
            return None
        # Ket block size as the cost proxy for grant ordering.
        return (widths[ks] * widths[ls]).astype(np.float64)
