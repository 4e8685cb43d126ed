"""Shared-array views and write-race detection.

Two layers live here:

* :class:`SharedNDArray` — a numpy view over a
  :class:`multiprocessing.shared_memory.SharedMemory` block, the view
  layer of the real-process execution backend
  (:mod:`repro.parallel.backend.process`): the parent allocates the
  density / Schwarz / per-rank Fock blocks once and every worker
  process maps the same physical pages.
* :class:`WriteTracker` — the simulated-backend race detector.  The
  paper's central correctness argument for the shared-Fock algorithm
  is that, within one OpenMP region between barriers, no two threads
  ever write the same Fock element: the direct ``F(k,l)`` updates touch
  disjoint ``(k,l)`` blocks because each ``kl`` iteration belongs to
  one thread, and the buffer flushes are row-partitioned.  The tracker
  turns that argument into a checkable invariant: algorithms report
  every shared write as ``(phase, thread, flat element indices)`` and
  the tracker raises :class:`RaceError` (or records the conflict) when
  two different threads write one element inside the same
  synchronization phase.
"""

from __future__ import annotations

import atexit
import os
import weakref
from dataclasses import dataclass, field

import numpy as np

#: Every live owner-side block, for the atexit sweep.  WeakSet: a block
#: that was closed and garbage-collected needs no sweeping.
_live_blocks: "weakref.WeakSet[SharedNDArray]" = weakref.WeakSet()


def _sweep_leaked_blocks() -> None:
    """Unlink owner blocks that were never closed (crash-path cleanup).

    A process that dies between allocating its shared matrices and the
    backend's ``shutdown()`` would otherwise leak ``/dev/shm`` segments
    until reboot — under a long-running job service that leak is
    cumulative and eventually fails *other* jobs with ``ENOSPC``.  The
    owner-pid guard matters: forked workers inherit this registry, and
    a worker's atexit must not unlink blocks its parent still maps.
    """
    for block in list(_live_blocks):
        if block._owner and block._owner_pid == os.getpid():
            block.close()


atexit.register(_sweep_leaked_blocks)


class SharedNDArray:
    """A numpy array backed by a named ``SharedMemory`` block.

    Created by the parent process (``create=True``); worker processes
    either inherit the object through ``fork`` (the mapping survives
    the fork, no reattach needed) or attach by name with
    ``SharedNDArray(name=..., shape=..., dtype=...)``.

    The parent owns the block's lifetime: call :meth:`close` with
    ``unlink=True`` exactly once when the backend shuts down.  Views
    handed out by :attr:`array` stay valid until then.  Owner blocks
    still live at interpreter exit are swept automatically (in the
    creating process only), so an abnormal teardown does not leak
    ``/dev/shm`` segments.
    """

    def __init__(
        self,
        shape: tuple[int, ...],
        dtype: np.dtype | str = np.float64,
        *,
        name: str | None = None,
        create: bool = True,
    ) -> None:
        self.shape = tuple(int(s) for s in shape)
        self.dtype = np.dtype(dtype)
        nbytes = max(1, int(np.prod(self.shape)) * self.dtype.itemsize)
        # Imported here: multiprocessing loads socket and subprocess, and
        # only the process backend ever allocates a block.
        from multiprocessing import shared_memory

        if create:
            self._shm = shared_memory.SharedMemory(create=True, size=nbytes)
        else:
            if name is None:
                raise ValueError("attaching to an existing block needs a name")
            self._shm = shared_memory.SharedMemory(name=name)
        self._owner = create
        self._owner_pid = os.getpid()
        self._closed = False
        self.array = np.ndarray(
            self.shape, dtype=self.dtype, buffer=self._shm.buf
        )
        if create:
            self.array.fill(0)
            _live_blocks.add(self)

    @property
    def name(self) -> str:
        """OS name of the backing block (for attach-by-name workers)."""
        return self._shm.name

    @property
    def nbytes(self) -> int:
        return self.array.nbytes

    def fill(self, value: float) -> None:
        self.array.fill(value)

    def close(self, *, unlink: bool | None = None) -> None:
        """Release the mapping; the creating process also unlinks.

        Idempotent: the crash-path sweep and an orderly ``shutdown()``
        may both reach the same block.  A forked child closing an
        inherited owner block only unmaps — unlinking is reserved for
        the creating pid, which still needs the segment.
        """
        if self._closed:
            return
        self._closed = True
        _live_blocks.discard(self)
        self.array = None  # drop the exported view before unmapping
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - stray external views
            pass
        want_unlink = unlink if unlink is not None else self._owner
        if want_unlink and self._owner_pid == os.getpid():
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass


class RaceError(RuntimeError):
    """Two threads wrote the same element between two barriers."""


@dataclass
class RaceReport:
    """One detected write-write conflict."""

    phase: int
    element: int
    threads: tuple[int, int]


class WriteTracker:
    """Tracks per-phase element ownership of a shared array.

    Parameters
    ----------
    nelements:
        Flat size of the shared array being guarded.
    strict:
        If true, a conflicting write raises :class:`RaceError`
        immediately; otherwise conflicts accumulate in :attr:`races`.
    """

    def __init__(self, nelements: int, *, strict: bool = False) -> None:
        self.nelements = nelements
        self.strict = strict
        self._owner = np.full(nelements, -1, dtype=np.int64)
        self._phase = 0
        self.races: list[RaceReport] = []
        self.writes_checked = 0

    @property
    def phase(self) -> int:
        """Current synchronization-phase counter."""
        return self._phase

    def barrier(self) -> None:
        """Advance to a new phase: element ownership resets."""
        self._phase += 1
        self._owner.fill(-1)

    def record(self, thread: int, flat_indices: np.ndarray) -> None:
        """Record a write by ``thread`` to the given flat elements."""
        idx = np.asarray(flat_indices).ravel()
        self.writes_checked += idx.size
        owners = self._owner[idx]
        conflict = (owners >= 0) & (owners != thread)
        if np.any(conflict):
            bad = idx[conflict]
            first = int(bad[0])
            report = RaceReport(
                self._phase, first, (int(self._owner[first]), thread)
            )
            self.races.append(report)
            if self.strict:
                raise RaceError(
                    f"phase {report.phase}: element {report.element} written "
                    f"by threads {report.threads[0]} and {report.threads[1]}"
                )
        self._owner[idx] = thread

    def record_block(
        self, thread: int, shape: tuple[int, int], rows: slice, cols: slice
    ) -> None:
        """Record a write to a 2-D block of a ``shape``-d shared matrix."""
        n_cols = shape[1]
        r = np.arange(rows.start, rows.stop)
        c = np.arange(cols.start, cols.stop)
        flat = (r[:, None] * n_cols + c[None, :]).ravel()
        self.record(thread, flat)

    @property
    def race_free(self) -> bool:
        """True when no conflicts were observed."""
        return not self.races
