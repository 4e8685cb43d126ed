"""OpenMP-style thread team: scheduling and per-thread private storage.

Threads in the functional layer execute their iteration shares
sequentially but with the exact data structures and synchronization
phases of the paper's OpenMP regions; the performance consequences of
concurrency are modelled in :mod:`repro.perfsim`.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence, TypeVar

import numpy as np

T = TypeVar("T")

_SCHEDULES = ("static", "dynamic")


def split_chunks(n: int, chunk: int) -> list[range]:
    """Split ``range(n)`` into consecutive chunks of size ``chunk``."""
    if chunk < 1:
        raise ValueError("chunk size must be >= 1")
    return [range(s, min(s + chunk, n)) for s in range(0, n, chunk)]


class ThreadTeam:
    """A fixed-size team of simulated OpenMP threads.

    Parameters
    ----------
    nthreads:
        Team size (``omp_get_max_threads()``).
    """

    def __init__(self, nthreads: int) -> None:
        if nthreads < 1:
            raise ValueError("need at least one thread")
        self.nthreads = nthreads

    def partition(
        self,
        ntasks: int,
        *,
        schedule: str = "dynamic",
        chunk: int = 1,
        costs: np.ndarray | None = None,
    ) -> list[list[int]]:
        """Assign loop iterations ``0..ntasks-1`` to threads.

        ``static``
            Chunks dealt round-robin by chunk index — OpenMP
            ``schedule(static, chunk)``.
        ``dynamic``
            Without ``costs``: identical grant order to static-cyclic
            (what a dynamic schedule produces under uniform costs).
            With ``costs``: greedy earliest-finisher simulation — each
            chunk goes to the thread with the least accumulated cost,
            which is what OpenMP ``schedule(dynamic, chunk)`` converges
            to and what the paper relies on for load balance.

        Returns
        -------
        list of per-thread iteration index lists (each in ascending order).
        """
        if schedule not in _SCHEDULES:
            raise ValueError(
                f"unknown schedule {schedule!r}; choose from {_SCHEDULES}"
            )
        if chunk < 1:
            raise ValueError("chunk size must be >= 1")
        n = self.nthreads
        if n == 1:
            return [list(range(ntasks))]
        shares: list[list[int]] = [[] for _ in range(n)]
        starts = range(0, ntasks, chunk)
        if schedule == "static" or costs is None:
            for c_idx, start in enumerate(starts):
                shares[c_idx % n].extend(range(start, min(start + chunk, ntasks)))
            return shares
        costs = np.asarray(costs, dtype=np.float64)
        if costs.shape != (ntasks,):
            raise ValueError(
                f"costs must have shape ({ntasks},); got {costs.shape}"
            )
        # Plain Python floats: this loop runs once per DLB task, on a
        # handful of threads, where a NumPy call per chunk costs more
        # than the bookkeeping it does.  A multi-task chunk's cost stays
        # a NumPy sum so ties break on the same digits.
        chunk_costs = (
            costs.tolist() if chunk == 1
            else [float(costs[s : s + chunk].sum()) for s in starts]
        )
        loads = [0.0] * n
        # Chunks are handed out in loop order to whichever thread is
        # free first (the first least-loaded one at grant time).
        for start, cost in zip(starts, chunk_costs):
            t = loads.index(min(loads))
            shares[t].extend(range(start, min(start + chunk, ntasks)))
            loads[t] += cost
        return shares

    def collapse2(self, n_outer: int, n_inner: Callable[[int], int] | int) -> list[tuple[int, int]]:
        """Flatten a 2-level loop nest into one iteration list.

        Models OpenMP ``collapse(2)``: the combined iteration space is
        the concatenation of ``(outer, inner)`` index pairs.  ``n_inner``
        may be a constant or a function of the outer index (triangular
        nests).
        """
        out: list[tuple[int, int]] = []
        for a in range(n_outer):
            m = n_inner(a) if callable(n_inner) else n_inner
            out.extend((a, b) for b in range(m))
        return out

    def private_buffers(self, shape: tuple[int, ...]) -> list[np.ndarray]:
        """Allocate one zeroed private array per thread."""
        return [np.zeros(shape) for _ in range(self.nthreads)]
