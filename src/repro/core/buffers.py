"""Per-thread column-block accumulation buffers (paper Figure 1).

Algorithm 3 gives every thread a private buffer for the *i* and *j*
column blocks of the Fock matrix.  In the paper's Fortran each buffer is
a 2-D array ``(mxsize, nthreads)`` — one *column* per thread, written
column-wise during accumulation (Figure 1 A) and reduced row-wise with a
chunked tree when flushed into the shared Fock matrix (Figure 1 B),
with padding on the leading dimension against false sharing.

In C-ordered NumPy the natural transposition is used: one contiguous
*row* per thread, shape ``(nthreads, padded_size)``, preserving the
layout property that matters (each thread streams through its own
contiguous memory during accumulation).
"""

from __future__ import annotations

import numpy as np

from repro.parallel.reduction import PAD_DOUBLES, flush_chunks
from repro.parallel.shared_array import WriteTracker


class ColumnBlockBuffer:
    """Thread-private accumulation buffer for one Fock column block.

    Parameters
    ----------
    nbf:
        Number of basis functions (rows of the Fock matrix).
    max_width:
        Widest composite-shell block (the paper's ``shellSize``); the
        buffer is sized for the widest block and reused for all shells.
    nthreads:
        Team size.
    pad:
        Extra doubles of padding per thread row (false-sharing guard).
    """

    def __init__(
        self, nbf: int, max_width: int, nthreads: int, *, pad: int = PAD_DOUBLES
    ) -> None:
        self.nbf = nbf
        self.max_width = max_width
        self.nthreads = nthreads
        self.logical_size = nbf * max_width
        padded = self.logical_size + pad
        self.data = np.zeros((nthreads, padded))
        self.flushes = 0

    def thread_view(self, thread: int) -> np.ndarray:
        """Thread ``thread``'s buffer as an ``(nbf, max_width)`` matrix view."""
        return self.data[thread, : self.logical_size].reshape(
            self.nbf, self.max_width
        )

    def add(
        self, thread: int, rows: slice, cols: np.ndarray | slice, value: np.ndarray
    ) -> None:
        """Accumulate ``value`` into a sub-block of the thread's buffer.

        ``cols`` indexes *within* the column block (0-based inside the
        shell's width).
        """
        self.thread_view(thread)[rows, cols] += value

    def flush(
        self,
        fock: np.ndarray,
        col_offset: int,
        width: int,
        *,
        tracker: WriteTracker | None = None,
    ) -> None:
        """Cooperative flush into the shared Fock matrix.

        Reproduces Figure 1 B: threads own cache-line-sized row chunks
        (``flush_chunks``); each chunk's thread sums that chunk's rows
        across all thread buffers (a pairwise tree at the NumPy level)
        and adds them into ``fock[:, col_offset:col_offset+width]``.
        Each Fock row is written by exactly one thread, so the flush is
        race-free by construction; the tracker, when supplied, verifies
        exactly that.  The tree is element-wise, so one sum and one add
        over the whole block give the per-chunk sums' bits.
        """
        nbf = self.nbf
        view3 = self.data[:, : nbf * self.max_width].reshape(
            self.nthreads, nbf, self.max_width
        )
        chunks = flush_chunks(nbf, self.nthreads)
        cols = slice(col_offset, col_offset + width)
        fock[:, cols] += _pairwise_tree_sum(view3[:, :, :width])
        if tracker is not None:
            for thread, rows in chunks:
                tracker.record_block(
                    thread, fock.shape, slice(rows.start, rows.stop), cols
                )
        self.data.fill(0.0)
        self.flushes += 1

    def is_zero(self) -> bool:
        """True when the buffer holds no pending contributions."""
        return not np.any(self.data)


def _pairwise_tree_sum(stack: np.ndarray) -> np.ndarray:
    """Pairwise (tree-ordered) sum over the leading (thread) axis."""
    n = stack.shape[0]
    if n == 1:
        return stack[0].copy()
    parts = [stack[t] for t in range(n)]
    while len(parts) > 1:
        nxt = [parts[a] + parts[a + 1] for a in range(0, len(parts) - 1, 2)]
        if len(parts) % 2:
            nxt.append(parts[-1])
        parts = nxt
    return parts[0]
