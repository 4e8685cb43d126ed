"""Tree reduction and the FI/FJ column-block buffers (paper Figure 1)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.buffers import ColumnBlockBuffer, _pairwise_tree_sum
from repro.parallel.reduction import (
    PAD_DOUBLES,
    flush_chunks,
    padded_rows,
    tree_reduce_columns,
)
from repro.parallel.shared_array import WriteTracker


def test_padded_rows_cache_line_multiple():
    for n in (1, 7, 8, 9, 64, 100):
        p = padded_rows(n)
        assert p >= n + PAD_DOUBLES
        assert (p - PAD_DOUBLES) % PAD_DOUBLES == 0


def test_tree_reduce_columns_matches_sum():
    rng = np.random.default_rng(0)
    buf = rng.standard_normal((40, 7))
    out = tree_reduce_columns(buf, 33)
    np.testing.assert_allclose(out, buf[:33].sum(axis=1), rtol=1e-12)


def test_flush_chunks_cover_all_rows():
    chunks = flush_chunks(100, 4)
    rows = [r for (_t, rng_) in chunks for r in rng_]
    assert rows == list(range(100))
    # Each chunk owned by exactly one thread; threads cycle.
    threads = [t for (t, _r) in chunks]
    assert threads[:4] == [0, 1, 2, 3]


def test_flush_ownership_is_computed_once_and_counted_every_time():
    from repro.obs.metrics import MetricsRegistry, use_metrics

    registry = MetricsRegistry()
    with use_metrics(registry):
        first = flush_chunks(19, 2)
        again = flush_chunks(19, 2)
    assert again is first  # the table itself, not a rebuilt copy
    assert list(first) == [(0, range(0, 8)), (1, range(8, 16)), (0, range(16, 19))]
    assert flush_chunks(19, 3) is not first
    assert registry.counter("reduction.cooperative_flushes").value == 2
    assert registry.counter("reduction.flush_chunks").value == 6


@given(st.integers(1, 9), st.integers(1, 30))
@settings(max_examples=40, deadline=None)
def test_pairwise_tree_sum_property(nthreads, n):
    rng = np.random.default_rng(nthreads * 100 + n)
    stack = rng.standard_normal((nthreads, n, 2))
    np.testing.assert_allclose(
        _pairwise_tree_sum(stack), stack.sum(axis=0), rtol=1e-10, atol=1e-12
    )


class TestColumnBlockBuffer:
    def test_accumulate_and_flush(self):
        nbf, width, nthreads = 10, 3, 4
        buf = ColumnBlockBuffer(nbf, width, nthreads)
        fock = np.zeros((nbf, nbf))
        expected = np.zeros((nbf, width))
        rng = np.random.default_rng(1)
        for t in range(nthreads):
            val = rng.standard_normal((4, width))
            buf.add(t, slice(2, 6), slice(0, width), val)
            expected[2:6] += val
        buf.flush(fock, col_offset=5, width=width)
        np.testing.assert_allclose(fock[:, 5 : 5 + width], expected, atol=1e-12)
        assert buf.is_zero()
        assert buf.flushes == 1

    def test_flush_accumulates_into_fock(self):
        buf = ColumnBlockBuffer(4, 2, 2)
        fock = np.ones((4, 4))
        buf.add(0, slice(0, 4), slice(0, 2), np.full((4, 2), 2.0))
        buf.flush(fock, 0, 2)
        np.testing.assert_allclose(fock[:, :2], 3.0)
        np.testing.assert_allclose(fock[:, 2:], 1.0)

    def test_flush_race_free_under_tracker(self):
        nbf = 32
        buf = ColumnBlockBuffer(nbf, 6, 8)
        fock = np.zeros((nbf, nbf))
        tracker = WriteTracker(nbf * nbf, strict=True)
        for t in range(8):
            buf.add(t, slice(0, nbf), slice(0, 6), np.ones((nbf, 6)))
        buf.flush(fock, 0, 6, tracker=tracker)  # must not raise
        assert tracker.race_free

    @pytest.mark.parametrize("nthreads", [1, 2, 3, 5])
    def test_flush_is_bitwise_the_chunked_tree_sum(self, nthreads):
        """What a flush adds to the Fock matrix, spelled out: per
        cache-line row chunk, the pairwise tree over the thread buffers
        — bit for bit, repeatedly, with the tracker seeing every chunk."""
        nbf, width = 19, 4
        rng = np.random.default_rng(nthreads)
        buf = ColumnBlockBuffer(nbf, 6, nthreads)
        fock = rng.standard_normal((nbf, nbf))
        for _flush in range(3):
            want = fock.copy()
            parts = []
            for t in range(nthreads):
                val = rng.standard_normal((nbf, width)) * 10.0 ** rng.integers(-8, 8)
                buf.add(t, slice(0, nbf), slice(0, width), val)
                parts.append(val)
            for start in range(0, nbf, 8):
                level = [p[start : start + 8] for p in parts]
                while len(level) > 1:
                    level = [
                        level[a] + level[a + 1] if a + 1 < len(level) else level[a]
                        for a in range(0, len(level), 2)
                    ]
                want[start : start + 8, 7 : 7 + width] += level[0]
            tracker = WriteTracker(nbf * nbf, strict=True)
            buf.flush(fock, 7, width, tracker=tracker)
            assert np.array_equal(fock, want)
            assert tracker.writes_checked == nbf * width
            assert buf.is_zero()
        assert buf.flushes == 3

    def test_narrow_flush_uses_partial_width(self):
        buf = ColumnBlockBuffer(5, 6, 2)
        fock = np.zeros((5, 8))
        buf.add(0, slice(0, 5), slice(0, 2), np.ones((5, 2)))
        buf.flush(fock, 3, 2)
        np.testing.assert_allclose(fock[:, 3:5], 1.0)
        assert fock[:, 5:].sum() == 0

    def test_thread_views_are_views(self):
        buf = ColumnBlockBuffer(3, 2, 2)
        v = buf.thread_view(1)
        v[0, 0] = 9.0
        assert buf.data[1, 0] == 9.0
