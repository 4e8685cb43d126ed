"""Orthogonalization and initial-guess utilities."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.chem.basis import BasisSet
from repro.chem.molecule import hydrogen_molecule, water
from repro.config import SCFConfig
from repro.core.scf_driver import build_scf
from repro.integrals.onee import overlap_matrix
from repro.scf import guess
from tests.conftest import ledger_fixture_basis
from repro.scf.guess import (
    core_guess_density,
    density_from_coefficients,
    diagonalize_fock,
    orthogonalizer,
)


def test_orthogonalizer_inverts_overlap(water_sto3g):
    s = overlap_matrix(water_sto3g)
    x = orthogonalizer(s)
    np.testing.assert_allclose(x.T @ s @ x, np.eye(s.shape[0]), atol=1e-10)


def test_orthogonalizer_symmetric(water_sto3g):
    s = overlap_matrix(water_sto3g)
    x = orthogonalizer(s)
    np.testing.assert_allclose(x, x.T, atol=1e-12)


def test_diagonalize_fock_orthonormal_mos(water_sto3g):
    s = overlap_matrix(water_sto3g)
    x = orthogonalizer(s)
    rng = np.random.default_rng(0)
    f = rng.standard_normal(s.shape)
    f = f + f.T
    eps, c = diagonalize_fock(f, x)
    np.testing.assert_allclose(c.T @ s @ c, np.eye(s.shape[0]), atol=1e-10)
    # Roothaan equations hold: F C = S C eps.
    np.testing.assert_allclose(f @ c, s @ c @ np.diag(eps), atol=1e-9)


def test_density_from_coefficients_rank():
    rng = np.random.default_rng(5)
    c = rng.standard_normal((6, 6))
    d = density_from_coefficients(c, 2)
    assert np.linalg.matrix_rank(d) == 2
    np.testing.assert_allclose(d, d.T, atol=1e-14)


def test_core_guess_trace(water_sto3g):
    from repro.integrals.onee import core_hamiltonian

    s = overlap_matrix(water_sto3g)
    h = core_hamiltonian(water_sto3g)
    d = core_guess_density(h, s, nocc=5)
    assert np.isclose(np.trace(d @ s), 10.0, atol=1e-10)


# -- degenerate subspaces are pinned ---------------------------------------------

FIXTURES = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e" / "fixtures"


def _random_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


@pytest.mark.parametrize("seed", range(6))
def test_degenerate_subspace_is_canonical_and_still_solves_roothaan(
    water_631gd, seed
):
    """A Fock matrix with an exact 3-fold and an exact 2-fold level, the
    degenerate blocks pre-rotated at random (what LAPACK's answer to
    1e-16 noise amounts to): the eigenvectors come out the same to
    1e-10 every time, a level 1e-6 away is left alone, and C still
    satisfies C.T S C = 1 and F C = S C eps to 1e-12."""
    s = overlap_matrix(water_631gd)
    x = guess.orthogonalizer(s)
    n = s.shape[0]
    base = np.random.default_rng(100)
    u = _random_orthogonal(base, n)
    eps = np.sort(base.uniform(-2.0, 2.0, n))
    eps[3:6] = eps[3]            # 3-fold
    eps[9:11] = eps[9]           # 2-fold
    eps[12] = eps[11] + 1e-6     # merely close: not to be touched
    sinv = np.linalg.inv(x)      # X = S^{-1/2}, so F = X^-1 Fp X^-1

    def fock(rotation):
        v = u @ rotation
        return sinv @ (v * eps) @ v.T @ sinv

    rot = np.eye(n)
    rng = np.random.default_rng(seed)
    rot[3:6, 3:6] = _random_orthogonal(rng, 3)
    rot[9:11, 9:11] = _random_orthogonal(rng, 2)
    e0, c0 = guess.diagonalize_fock(fock(np.eye(n)), x)
    e1, c1 = guess.diagonalize_fock(fock(rot), x)
    np.testing.assert_allclose(e1, e0, atol=1e-12)
    degenerate = [3, 4, 5, 9, 10]
    np.testing.assert_allclose(c1[:, degenerate], c0[:, degenerate], atol=1e-10)
    # (A non-degenerate vector is defined up to its sign, which no
    # density depends on and nothing pins.)
    np.testing.assert_allclose(np.abs(c1), np.abs(c0), atol=1e-8)
    f = fock(rot)
    np.testing.assert_allclose(c1.T @ s @ c1, np.eye(n), atol=1e-12)
    np.testing.assert_allclose(f @ c1, s @ c1 * e1, atol=1e-12)
    # The close pair keeps LAPACK's vectors (up to nothing at all).
    _, raw = guess.eigh(x.T @ f @ x)
    np.testing.assert_array_equal(c1[:, 11:13], (x @ raw)[:, 11:13])


def test_pinned_vectors_put_the_pivot_row_in_one_vector():
    """The canonical form itself: the row of largest norm has all its
    weight in the first vector, ties go to the lowest index, and every
    vector's largest component is positive."""
    v = np.zeros((6, 2))
    v[1, 0] = v[4, 1] = 1.0      # rows 1 and 4 tie: row 1 is the pivot
    c, s_ = np.cos(0.7), np.sin(0.7)
    pinned = guess._pin_subspace(v @ np.array([[c, -s_], [s_, c]]))
    np.testing.assert_allclose(pinned, v, atol=1e-15)


def test_allene_iteration_count_survives_noise_in_the_fock_matrix(monkeypatch):
    """Allene's first Fock matrix has a degenerate e pair at the Fermi
    level; with LAPACK's rotation inside it left to 1e-16 noise the SCF
    took 14 or 15 cycles (6 of these 8 seeds read 14 before the pin).
    1e-13 symmetric noise on X.T F X must leave it at 14."""
    basis = ledger_fixture_basis("allene.xyz", "sto-3g")
    config = SCFConfig(basis="sto-3g", algorithm="shared-fock", nranks=2,
                       nthreads=2, eri_cache_mb=64)
    want = json.loads((FIXTURES / "references.json").read_text())
    want = want["direct"]["allene_semidirect"]
    real = guess.eigh
    for seed in range(8):
        rng = np.random.default_rng(seed)

        def noisy(a):
            noise = 1e-13 * rng.standard_normal(a.shape)
            return real(a + noise + noise.T)

        with build_scf(config, basis) as scf:   # X = S^-1/2 is exact
            monkeypatch.setattr(guess, "eigh", noisy)
            result = scf.run()
            monkeypatch.setattr(guess, "eigh", real)
        assert result.scf.niterations == want["iterations"] == 14, seed
        assert abs(result.energy - want["energy"]) <= 1e-10


@pytest.mark.parametrize(
    "make_basis, config, iterations",
    [
        (lambda: BasisSet(water(), "sto-3g"), SCFConfig(basis="sto-3g"), 9),
        (lambda: BasisSet(hydrogen_molecule(), "6-31g"),
         SCFConfig(basis="6-31g"), None),
        # Linear: exact pi pairs in every cycle, all inside the occupied
        # or the virtual space.
        (lambda: ledger_fixture_basis("hydroxide.xyz", "6-31g(d)", -1),
         SCFConfig(basis="6-31g(d)", charge=-1, algorithm="mpi-only",
                   nranks=4, eri_cache_mb=None), 12),
        (lambda: ledger_fixture_basis("ethyl.xyz", "sto-3g"),
         SCFConfig(basis="sto-3g", method="uhf", multiplicity=2,
                   algorithm="private-fock", nranks=2, nthreads=2), 15),
    ],
    ids=["water", "h2", "hydroxide", "ethyl_uhf"],
)
def test_other_runs_keep_their_iterations_and_energies(
    make_basis, config, iterations, monkeypatch
):
    """With the pin disabled (a tolerance below any gap) every other
    fixture converges in the same number of cycles to the same energy
    within 1e-10 Eh: a rotation inside a level the Fermi level does not
    cut changes no density."""
    basis = make_basis()
    with build_scf(config, basis) as scf:
        pinned = scf.run()
    monkeypatch.setattr(guess, "DEGENERACY_TOL", -1.0)
    with build_scf(config, basis) as scf:
        plain = scf.run()
    assert pinned.converged and plain.converged
    assert pinned.scf.niterations == plain.scf.niterations
    assert iterations in (None, pinned.scf.niterations)
    assert abs(pinned.energy - plain.energy) <= 1e-10
