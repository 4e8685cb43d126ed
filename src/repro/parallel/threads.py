"""OpenMP-style thread team: scheduling and per-thread private storage.

Threads in the functional layer execute their iteration shares
sequentially but with the exact data structures and synchronization
phases of the paper's OpenMP regions; the performance consequences of
concurrency are modelled in :mod:`repro.perfsim`.
"""

from __future__ import annotations

import numpy as np

from repro.parallel.scheduler import least_loaded

_SCHEDULES = ("static", "dynamic")


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
        costs: np.ndarray | None = None,
    ) -> list[list[int]]:
        """Assign loop iterations ``0..ntasks-1`` to threads.

        ``static``
            Iterations dealt round-robin — OpenMP ``schedule(static, 1)``.
        ``dynamic``
            Without ``costs``: identical grant order to static-cyclic
            (what a dynamic schedule produces under uniform costs).
            With ``costs``: iterations handed out in loop order to
            whichever thread is free first (:func:`~repro.parallel
            .scheduler.least_loaded`), which is what OpenMP
            ``schedule(dynamic, 1)`` converges to and what the paper
            relies on for load balance.

        Returns
        -------
        list of per-thread iteration index lists (each in ascending order).
        """
        if schedule not in _SCHEDULES:
            raise ValueError(
                f"unknown schedule {schedule!r}; choose from {_SCHEDULES}"
            )
        n = self.nthreads
        if n == 1:
            return [list(range(ntasks))]
        if schedule == "static" or costs is None:
            return [list(range(t, ntasks, n)) for t in range(n)]
        costs = np.asarray(costs, dtype=np.float64)
        if costs.shape != (ntasks,):
            raise ValueError(
                f"costs must have shape ({ntasks},); got {costs.shape}"
            )
        shares: list[list[int]] = [[] for _ in range(n)]
        for it, t in enumerate(least_loaded(costs, n, range(ntasks))[0]):
            shares[t].append(it)
        return shares

    def private_buffers(self, shape: tuple[int, ...]) -> list[np.ndarray]:
        """Allocate one zeroed private array per thread."""
        return [np.zeros(shape) for _ in range(self.nthreads)]
