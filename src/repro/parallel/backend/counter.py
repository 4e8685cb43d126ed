"""The real shared ``ddi_dlbnext`` counter of the process backend.

The simulated :class:`~repro.parallel.dlb.DynamicLoadBalancer`
pre-partitions the task space so grant sequences are deterministic.
:class:`SharedTaskCounter` is the *actual* GAMESS/DDI protocol the
balancer models: one globally shared integer, incremented under a lock,
where which rank receives which index depends purely on arrival timing.
Both expose the same ``next(rank) -> int | None`` grant interface, so
the rank programs cannot tell which one feeds them — and because any
grant partition sums to the same Fock matrix (to reduction rounding),
the nondeterministic interleaving only moves *statistics*, never
results.  That invariance is exactly what the sim↔process parity suite
certifies.

Alongside the counter lives an *owner board* in shared memory: claim
``t`` by rank ``r`` records ``owner[t] = r`` inside the same lock.
Because the counter is monotone, each rank's owned indices are in claim
order, which lets the parent replay a dead worker's exact task sequence
(``owned(rank)``) after a crash or an injected kill — the process
backend's equivalent of the sim balancer's ``fail_rank`` withdrawal.
"""

from __future__ import annotations

import multiprocessing as mp

import numpy as np

from repro.parallel.shared_array import SharedNDArray


class SharedTaskCounter:
    """Lock-backed global task counter shared across worker processes.

    Parameters
    ----------
    capacity:
        Maximum task-space size over the counter's lifetime (the owner
        board is allocated once at this size).
    ctx:
        ``multiprocessing`` context; the caller's fork context by
        default so the counter is inherited, not pickled.
    """

    def __init__(self, capacity: int, *, ctx: mp.context.BaseContext | None = None) -> None:
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        if ctx is None:
            ctx = mp.get_context("fork")
        self.capacity = capacity
        # One lock (the Value's) guards both the cursor and the active
        # task count; ntasks only changes in reset(), between builds.
        self._next = ctx.Value("q", 0)
        self._ntasks = ctx.Value("q", 0, lock=False)
        self._owner = SharedNDArray((max(capacity, 1),), np.int64)
        self._owner.fill(-1)

    @property
    def ntasks(self) -> int:
        """Active task-space size of the current build."""
        return int(self._ntasks.value)

    def reset(self, ntasks: int) -> None:
        """Rewind for a new build (parent-side, workers quiescent)."""
        if ntasks > self.capacity:
            raise ValueError(
                f"ntasks={ntasks} exceeds counter capacity {self.capacity}"
            )
        with self._next.get_lock():
            self._next.value = 0
            self._ntasks.value = ntasks
            self._owner.array[:] = -1

    def next(self, rank: int) -> int | None:
        """Claim the next task for ``rank`` (``ddi_dlbnext``), or ``None``.

        The grant protocol of :class:`~repro.parallel.dlb
        .DynamicLoadBalancer`: every index in ``[0, ntasks)`` is granted
        exactly once across all callers; exhaustion returns ``None``.
        """
        with self._next.get_lock():
            idx = self._next.value
            if idx >= self._ntasks.value:
                return None
            self._next.value = idx + 1
            self._owner.array[idx] = rank
            return idx

    def claimed(self) -> int:
        """Number of tasks granted so far in this build."""
        with self._next.get_lock():
            return int(self._next.value)

    def owned(self, rank: int) -> list[int]:
        """Task indices claimed by ``rank``, in claim order.

        The counter is monotone, so ascending index order *is* the
        order the rank claimed them in — replaying this sequence after
        a worker death reproduces the dead rank's floating-point
        accumulation order exactly.
        """
        board = self._owner.array[: self.ntasks]
        return [int(t) for t in np.nonzero(board == rank)[0]]

    def unclaimed(self) -> list[int]:
        """Task indices never granted to any rank, ascending."""
        return list(range(self.claimed(), self.ntasks))

    def owners(self) -> np.ndarray:
        """Copy of the owner board (claimed prefix; -1 = unclaimed)."""
        return self._owner.array[: self.ntasks].copy()

    def close(self) -> None:
        """Release the owner board's shared-memory block."""
        self._owner.close(unlink=True)
