"""Quartet engine: ERI blocks and the six-way Fock scatter."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.indexing import unique_quartets
from repro.core.quartets import QuartetEngine, symmetrize_two_electron
from repro.scf.fock_dense import two_electron_fock_dense


def _full_scatter(basis, eng, D):
    W = np.zeros((basis.nbf, basis.nbf))
    for q in unique_quartets(basis.nshells):
        X = eng.composite_block(*q)
        for dest, val in eng.scatter_contributions(X, D, *q).values():
            W[dest] += val
    return symmetrize_two_electron(W)


def test_scatter_matches_dense_sto3g(water_sto3g, water_sto3g_reference):
    h, eri, d = water_sto3g_reference
    eng = QuartetEngine(water_sto3g)
    g = _full_scatter(water_sto3g, eng, d)
    np.testing.assert_allclose(
        g, two_electron_fock_dense(eri, d), atol=1e-11
    )


@pytest.mark.slow
def test_scatter_matches_dense_631gd(water_631gd):
    from repro.scf.fock_dense import eri_tensor

    rng = np.random.default_rng(11)
    d = rng.standard_normal((water_631gd.nbf, water_631gd.nbf))
    d = d + d.T
    eng = QuartetEngine(water_631gd)
    g = _full_scatter(water_631gd, eng, d)
    ref = two_electron_fock_dense(eri_tensor(water_631gd), d)
    np.testing.assert_allclose(g, ref, atol=1e-10)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=10, deadline=None)
def test_scatter_matches_dense_random_density(seed):
    """Property: scatter == dense for arbitrary symmetric densities."""
    import repro.chem.molecule as M
    from repro.chem.basis import BasisSet
    from repro.scf.fock_dense import eri_tensor

    basis = BasisSet(M.water(), "sto-3g")
    rng = np.random.default_rng(seed)
    d = rng.standard_normal((basis.nbf, basis.nbf))
    d = d + d.T
    eng = QuartetEngine(basis)
    g = _full_scatter(basis, eng, d)
    ref = two_electron_fock_dense(eri_tensor(basis), d)
    np.testing.assert_allclose(g, ref, atol=1e-10)


def test_scatter_linearity(water_sto3g):
    """G(a D1 + b D2) == a G(D1) + b G(D2): the Fock build is linear."""
    rng = np.random.default_rng(7)
    n = water_sto3g.nbf
    d1 = rng.standard_normal((n, n)); d1 = d1 + d1.T
    d2 = rng.standard_normal((n, n)); d2 = d2 + d2.T
    eng = QuartetEngine(water_sto3g)
    g1 = _full_scatter(water_sto3g, eng, d1)
    g2 = _full_scatter(water_sto3g, eng, d2)
    g12 = _full_scatter(water_sto3g, eng, 2.0 * d1 - 0.5 * d2)
    np.testing.assert_allclose(g12, 2.0 * g1 - 0.5 * g2, atol=1e-9)


def test_contribution_routing_covers_six_families(water_sto3g):
    eng = QuartetEngine(water_sto3g)
    X = eng.composite_block(3, 2, 1, 0)
    d = np.eye(water_sto3g.nbf)
    contribs = eng.scatter_contributions(X, d, 3, 2, 1, 0)
    assert set(contribs) == {"ji", "ki", "li", "kj", "lj", "kl"}
    # Destinations line up with the declared orientations.
    offs = water_sto3g.shell_bf_offsets()
    (rows, cols), _ = contribs["kl"]
    assert rows.start == offs[1] and cols.start == offs[0]
    (rows, cols), _ = contribs["ji"]
    assert rows.start == offs[2] and cols.start == offs[3]


def test_composite_block_shape(water_631gd):
    eng = QuartetEngine(water_631gd)
    # Shell 3 of water/6-31G(d) is the oxygen D shell (6 functions).
    widths = water_631gd.shell_nfuncs()
    X = eng.composite_block(3, 1, 2, 0)
    assert X.shape == (widths[3], widths[1], widths[2], widths[0])


def test_pair_cache_reused(water_sto3g):
    """The pair data is the basis' own set: looked up on first
    evaluation, never rebuilt, the same object for every consumer."""
    from repro.integrals.eri import pair_stacks
    from repro.integrals.schwarz import schwarz_matrix

    eng = QuartetEngine(water_sto3g)
    assert "pairs" not in vars(eng)  # constructing an engine prepares nothing
    eng.composite_block(1, 0, 1, 0)
    pairs = eng.pairs
    eng.composite_block(1, 0, 1, 0)
    schwarz_matrix(water_sto3g)
    assert eng.pairs is pairs is pair_stacks(water_sto3g)
    assert QuartetEngine(water_sto3g).pairs is pairs


def test_pair_stacks_die_with_the_basis():
    """The memo is weak and the set holds no reference back to the
    basis: dropping the basis frees its pair data."""
    import gc
    import weakref

    import repro.chem.molecule as M
    from repro.chem.basis import BasisSet
    from repro.integrals.eri import pair_stacks

    basis = BasisSet(M.water(), "sto-3g")
    other = BasisSet(M.water(), "sto-3g")
    pairs = weakref.ref(pair_stacks(basis))
    assert pair_stacks(other) is not pairs()  # per instance, not per value
    assert QuartetEngine(basis).pairs is pairs()
    del basis
    gc.collect()
    assert pairs() is None
