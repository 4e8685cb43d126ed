"""Cyclic Jacobi eigensolver."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.scf.eigensolver import jacobi_eigh


def _random_symmetric(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    return a + a.T


def test_matches_lapack():
    a = _random_symmetric(12, 0)
    w, v = jacobi_eigh(a)
    w_ref = np.linalg.eigvalsh(a)
    np.testing.assert_allclose(w, w_ref, atol=1e-9)


def test_eigenvector_property():
    a = _random_symmetric(9, 1)
    w, v = jacobi_eigh(a)
    np.testing.assert_allclose(a @ v, v * w[None, :], atol=1e-8)
    np.testing.assert_allclose(v.T @ v, np.eye(9), atol=1e-10)


def test_trivial_cases():
    w, v = jacobi_eigh(np.array([[3.0]]))
    assert w[0] == 3.0
    w, v = jacobi_eigh(np.zeros((4, 4)))
    np.testing.assert_allclose(w, 0.0)


def test_diagonal_input():
    d = np.diag([3.0, -1.0, 2.0])
    w, v = jacobi_eigh(d)
    np.testing.assert_allclose(w, [-1.0, 2.0, 3.0])


def test_rejects_nonsymmetric():
    with pytest.raises(ValueError):
        jacobi_eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        jacobi_eigh(np.zeros((2, 3)))


@given(st.integers(1, 12), st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_eigenvalues_sorted_and_trace_preserved(n, seed):
    a = _random_symmetric(n, seed)
    w, _ = jacobi_eigh(a)
    assert np.all(np.diff(w) >= -1e-10)
    assert np.isclose(w.sum(), np.trace(a), atol=1e-8)


def test_scf_with_jacobi_diagonalizer(water_sto3g, monkeypatch):
    """Full RHF where every diagonalization uses the Jacobi solver."""
    import math

    from repro.scf import guess
    from repro.scf.rhf import RHF

    calls = []

    def counting_jacobi(m):
        calls.append(m.shape)
        return jacobi_eigh(m)

    # The one name every SCF diagonalization goes through (the
    # orthogonalizer, the core guess and each Roothaan step).
    monkeypatch.setattr(guess, "eigh", counting_jacobi)
    res = RHF(water_sto3g).run()
    assert res.converged
    assert math.isclose(res.energy, -74.9420799281, abs_tol=1e-6)
    # S, the core guess, and at least one Fock matrix per cycle.
    assert len(calls) >= 2 + res.niterations
