"""Padded, chunked tree reduction of per-thread buffer columns.

Reproduces the reduction of the paper's Figure 1 (B): per-thread
partial Fock columns are stored column-wise (one column per thread,
with padding on the leading dimension against false sharing); the flush
sums the thread columns with a binary tree and adds the result into the
target rows of the shared Fock matrix, with threads cooperating
row-chunk-wise so the flush itself is race-free.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.obs.metrics import get_metrics

#: Default padding (in doubles) appended to the leading dimension of
#: thread-column buffers; 8 doubles = one 64-byte cache line, the
#: false-sharing unit on KNL.
PAD_DOUBLES: int = 8

#: Documented floating-point tolerance under which the tree reduction is
#: *permutation-invariant*: reordering the thread columns changes the
#: reduced result by at most this relative amount.  Addition is not
#: associative in floating point, so different thread interleavings
#: (sim vs. real processes, different OpenMP schedules) produce results
#: that differ at rounding level — this constant is the contract the
#: property tests and the sim↔process parity suite hold the runtime to.
PERMUTATION_TOLERANCE: float = 1.0e-10


def padded_rows(nrows: int, pad: int = PAD_DOUBLES) -> int:
    """Leading dimension after padding to a cache-line multiple."""
    line = pad
    return ((nrows + line - 1) // line) * line + pad


def tree_reduce_columns(
    buffer: np.ndarray, nrows: int, *, validate: bool = False
) -> np.ndarray:
    """Sum thread columns of a padded buffer with a binary tree.

    Parameters
    ----------
    buffer:
        ``(padded_rows, nthreads)`` array; column ``t`` is thread *t*'s
        partial contribution.
    nrows:
        Number of meaningful rows (the rest is padding).
    validate:
        Check every thread column for NaN/Inf *before* merging and
        raise :class:`~repro.resilience.errors.CorruptContributionError`
        naming the offending thread — one poisoned column would
        otherwise contaminate the whole reduced result.

    Returns
    -------
    numpy.ndarray
        ``(nrows,)`` sum over threads.  The pairwise tree order matches
        the paper's reduction and has the usual improved rounding
        behaviour over sequential summation.
    """
    registry = get_metrics()
    if registry is not None:
        registry.counter("reduction.tree_reduces").inc()
        registry.histogram("reduction.tree_reduce_rows").observe(nrows)
    if validate:
        for t in range(buffer.shape[1]):
            if not np.all(np.isfinite(buffer[:nrows, t])):
                from repro.resilience.errors import CorruptContributionError

                if registry is not None:
                    registry.counter("resilience.corrupt_contributions").inc()
                raise CorruptContributionError(
                    f"tree reduction: thread {t}'s column contains "
                    "non-finite values; rejecting before the merge"
                )
    cols = [buffer[:nrows, t] for t in range(buffer.shape[1])]
    while len(cols) > 1:
        nxt = []
        for a in range(0, len(cols) - 1, 2):
            nxt.append(cols[a] + cols[a + 1])
        if len(cols) % 2:
            nxt.append(cols[-1])
        cols = nxt
    return cols[0].copy() if len(cols) == 1 else np.zeros(nrows)


@functools.cache
def _flush_table(
    nrows: int, nthreads: int, chunk: int
) -> tuple[tuple[int, range], ...]:
    return tuple(
        (c % nthreads, range(start, min(start + chunk, nrows)))
        for c, start in enumerate(range(0, nrows, chunk))
    )


def flush_chunks(
    nrows: int, nthreads: int, chunk: int = PAD_DOUBLES
) -> tuple[tuple[int, range], ...]:
    """Row-chunk ownership for a cooperative flush.

    Returns ``(thread, row_range)`` pairs: chunk ``c`` of ``chunk`` rows
    is handled by thread ``c % nthreads`` — each row is summed and
    written by exactly one thread, which is what makes the flush free of
    write conflicts (and, with cache-line-sized chunks, free of false
    sharing).  The table is a pure function of its arguments and is
    computed once; every call still counts as one flush.
    """
    out = _flush_table(nrows, nthreads, chunk)
    registry = get_metrics()
    if registry is not None:
        registry.counter("reduction.cooperative_flushes").inc()
        registry.counter("reduction.flush_chunks").inc(len(out))
    return out
