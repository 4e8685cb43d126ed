"""Shell-quartet indexing: pair codecs, loop equivalence, degeneracy."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.indexing import (
    decode_pair,
    decode_pairs,
    kl_pairs_upto,
    lmax_for,
    n_unique_quartets,
    npairs,
    pair_index,
    quartet_degeneracy_factor,
    ragged_arange,
    unique_quartets,
)


def test_pair_index_roundtrip_small():
    for i in range(20):
        for j in range(i + 1):
            assert decode_pair(pair_index(i, j)) == (i, j)


@given(st.integers(min_value=0, max_value=10**12))
@settings(max_examples=200, deadline=None)
def test_decode_pair_roundtrip_property(p):
    i, j = decode_pair(p)
    assert 0 <= j <= i
    assert pair_index(i, j) == p


def test_decode_pairs_vectorized_matches_scalar():
    ps = np.arange(5000)
    i, j = decode_pairs(ps)
    for p in (0, 1, 2, 77, 4999):
        assert (i[p], j[p]) == decode_pair(p)


def test_ragged_arange_concatenates_ranges():
    starts, counts = np.array([5, 0, 9, 2]), np.array([3, 0, 1, 2])
    assert ragged_arange(starts, counts).tolist() == [5, 6, 7, 9, 2, 3]
    empty = np.array([], dtype=np.int64)
    assert ragged_arange(empty, empty).size == 0


def test_pair_index_rejects_disorder():
    with pytest.raises(ValueError):
        pair_index(2, 5)


def test_unique_quartet_count():
    for n in (1, 2, 3, 5, 8):
        assert sum(1 for _ in unique_quartets(n)) == n_unique_quartets(n)
        p = npairs(n)
        assert n_unique_quartets(n) == p * (p + 1) // 2


def test_quartet_loops_match_pair_formulation():
    """The 4-loop enumeration equals {(ij, kl) : kl <= ij}."""
    n = 6
    from_loops = set()
    for (i, j, k, l) in unique_quartets(n):
        from_loops.add((pair_index(i, j), pair_index(k, l)))
    from_pairs = {
        (ij, kl) for ij in range(npairs(n)) for kl in kl_pairs_upto(ij)
    }
    assert from_loops == from_pairs


def test_lmax_rule():
    # k == i restricts l to j; otherwise l goes up to k.
    assert lmax_for(5, 2, 5) == 2
    assert lmax_for(5, 2, 3) == 3


def test_degeneracy_factors():
    assert quartet_degeneracy_factor(3, 2, 1, 0) == 1.0
    assert quartet_degeneracy_factor(3, 3, 1, 0) == 0.5
    assert quartet_degeneracy_factor(3, 2, 1, 1) == 0.5
    assert quartet_degeneracy_factor(3, 2, 3, 2) == 0.5
    assert quartet_degeneracy_factor(3, 3, 3, 3) == 0.125


def test_degeneracy_equals_inverse_orbit_size():
    """fac * (number of distinct index permutations) == 8 always."""
    for (i, j, k, l) in unique_quartets(4):
        perms = {
            (i, j, k, l), (j, i, k, l), (i, j, l, k), (j, i, l, k),
            (k, l, i, j), (l, k, i, j), (k, l, j, i), (l, k, j, i),
        }
        fac = quartet_degeneracy_factor(i, j, k, l)
        assert fac * 8 == len(perms)
