"""Screening decisions and the prefix survivor-count machinery."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.screening import (
    DEFAULT_TAU,
    Screening,
    prefix_survivor_counts,
)
from repro.integrals.schwarz import schwarz_matrix


def _brute_counts(q, tau, w=None):
    P = q.size
    w = np.ones(P) if w is None else w
    out = np.zeros(P)
    for ij in range(P):
        for kl in range(ij + 1):
            if q[ij] * q[kl] >= tau:
                out[ij] += w[kl]
    return out


@given(
    st.lists(
        st.floats(min_value=1e-14, max_value=1e3), min_size=1, max_size=120
    ),
    st.floats(min_value=1e-12, max_value=1.0),
)
@settings(max_examples=60, deadline=None)
def test_prefix_counts_match_bruteforce(qs, tau):
    q = np.array(qs)
    np.testing.assert_allclose(
        prefix_survivor_counts(q, tau), _brute_counts(q, tau), atol=1e-9
    )


@given(st.integers(0, 2**31 - 1), st.integers(1, 200))
@settings(max_examples=30, deadline=None)
def test_prefix_counts_weighted_and_multiclass(seed, P):
    rng = np.random.default_rng(seed)
    q = np.abs(rng.lognormal(-4, 3, P))
    tau = 1e-6
    w = rng.random((P, 3))
    fast = prefix_survivor_counts(q, tau, w)
    for c in range(3):
        np.testing.assert_allclose(
            fast[:, c], _brute_counts(q, tau, w[:, c]), atol=1e-9
        )


def test_prefix_counts_empty():
    assert prefix_survivor_counts(np.array([]), 1e-10).size == 0


def test_prefix_counts_total_is_surviving_quartets():
    rng = np.random.default_rng(0)
    q = np.abs(rng.lognormal(-2, 2, 300))
    tau = 1e-3
    total = prefix_survivor_counts(q, tau).sum()
    brute = sum(
        1
        for ij in range(q.size)
        for kl in range(ij + 1)
        if q[ij] * q[kl] >= tau
    )
    assert total == brute


def test_screening_class_consistency(water_sto3g):
    q = schwarz_matrix(water_sto3g)
    scr = Screening(q, tau=1e-6)
    n = water_sto3g.nshells
    # survives() agrees with the raw product test.
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    assert scr.survives(i, j, k, l) == (
                        q[i, j] * q[k, l] >= 1e-6
                    )


def test_prescreen_is_safe(water_sto3g):
    """A prescreened-out bra must have no surviving quartets at all."""
    q = schwarz_matrix(water_sto3g)
    scr = Screening(q, tau=1e-4)
    from repro.core.indexing import decode_pair, npairs

    for ij in range(npairs(water_sto3g.nshells)):
        i, j = decode_pair(ij)
        if not scr.prescreen_ij(i, j):
            assert scr.surviving_kl_pairs(ij).size == 0


def test_surviving_kl_pairs_matches_loop(water_sto3g):
    q = schwarz_matrix(water_sto3g)
    scr = Screening(q, tau=1e-6)
    from repro.core.indexing import decode_pair, npairs

    for ij in range(npairs(water_sto3g.nshells)):
        i, j = decode_pair(ij)
        expect = [
            kl
            for kl in range(ij + 1)
            if scr.survives(i, j, *decode_pair(kl))
        ]
        np.testing.assert_array_equal(scr.surviving_kl_pairs(ij), expect)


def test_pair_q_ordering(water_sto3g):
    q = schwarz_matrix(water_sto3g)
    scr = Screening(q)
    from repro.core.indexing import decode_pair

    for p in range(scr.pair_q.size):
        i, j = decode_pair(p)
        assert scr.pair_q[p] == q[i, j]


def test_screening_rejects_nonsquare():
    with pytest.raises(ValueError):
        Screening(np.zeros((2, 3)))


def test_tau_zero_keeps_everything(water_sto3g):
    q = schwarz_matrix(water_sto3g)
    scr = Screening(q, tau=0.0)
    counts = scr.pair_survivor_counts()
    expected = np.arange(1, counts.size + 1, dtype=float)
    np.testing.assert_allclose(counts, expected)


@given(st.integers(0, 2**31 - 1), st.integers(1, 9), st.data())
@settings(max_examples=80, deadline=None)
def test_surviving_kl_under_matches_the_stock_loops(seed, nshells, data):
    """Property: same kets, same order, same screened count as the scalar
    ``k`` / ``l <= lmax_for(i, j, k)`` / ``survives`` loops it replaced."""
    from repro.core.indexing import lmax_for, pair_index

    rng = np.random.default_rng(seed)
    q = np.abs(rng.lognormal(-3, 3, (nshells, nshells)))
    scr = Screening(q + q.T, tau=1e-4)
    i = data.draw(st.integers(0, nshells - 1), label="i")
    j = data.draw(st.integers(0, i), label="j")
    ks = sorted(data.draw(
        st.sets(st.integers(0, i), min_size=0, max_size=i + 1), label="ks"))

    want, screened = [], 0
    for k in ks:
        for l in range(lmax_for(i, j, k) + 1):
            if scr.survives(i, j, k, l):
                want.append(pair_index(k, l))
            else:
                screened += 1
    got, got_screened = scr.surviving_kl_under(
        i, j, np.array(ks, dtype=np.int64))
    assert got.tolist() == want
    assert got_screened == screened
