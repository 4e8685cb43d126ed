"""Two-electron integrals: closed forms, permutation symmetry, bounds."""

import math

import numpy as np
import pytest

from repro.chem.basis import BasisSet
from repro.chem.basis.shell import Shell, normalize_contracted
from repro.chem.molecule import water
from repro.integrals.eri import (
    ShellPair,
    eri_shell_quartet,
    make_shell_pairs,
)
from repro.scf.fock_dense import eri_tensor
from tests.oracles import eri_quartet_shells


def _s_shell(alpha: float, center) -> Shell:
    coefs = normalize_contracted(0, np.array([alpha]), np.array([1.0]))
    return Shell(0, np.array([alpha]), coefs, np.asarray(center, float))


def test_ssss_same_center_closed_form():
    """(ss|ss) for four identical normalized s primitives at one center.

    Closed form: 2 pi^(5/2) / (p q sqrt(p+q)) * N^4 with p = q = 2a.
    """
    a = 0.9
    s = _s_shell(a, [0, 0, 0])
    val = eri_quartet_shells(s, s, s, s)[0, 0, 0, 0]
    N = (2 * a / math.pi) ** 0.75
    p = 2 * a
    expected = 2 * math.pi ** 2.5 / (p * p * math.sqrt(2 * p)) * N ** 4
    assert math.isclose(val, expected, rel_tol=1e-12)


def test_ssss_two_center_closed_form():
    """(aa|bb) with s primitives at distance R: boils down to F0."""
    from tests.oracles import boys_single

    a, b, R = 0.7, 1.1, 1.6
    A = [0.0, 0.0, 0.0]
    B = [0.0, 0.0, R]
    sa, sb = _s_shell(a, A), _s_shell(b, B)
    val = eri_quartet_shells(sa, sa, sb, sb)[0, 0, 0, 0]
    p, q = 2 * a, 2 * b
    alpha = p * q / (p + q)
    Na = (2 * a / math.pi) ** 0.75
    Nb = (2 * b / math.pi) ** 0.75
    expected = (
        2 * math.pi ** 2.5 / (p * q * math.sqrt(p + q))
        * boys_single(0, alpha * R * R)
        * Na ** 2 * Nb ** 2
    )
    assert math.isclose(val, expected, rel_tol=1e-12)


def test_eight_fold_symmetry(water_sto3g):
    eri = eri_tensor(water_sto3g)
    rng = np.random.default_rng(0)
    n = water_sto3g.nbf
    for _ in range(60):
        i, j, k, l = rng.integers(0, n, 4)
        v = eri[i, j, k, l]
        for perm in (
            (j, i, k, l), (i, j, l, k), (j, i, l, k),
            (k, l, i, j), (l, k, i, j), (k, l, j, i), (l, k, j, i),
        ):
            assert math.isclose(eri[perm], v, rel_tol=1e-10, abs_tol=1e-14)


def test_cauchy_schwarz_bound_holds(water_sto3g):
    """|(ij|kl)| <= sqrt((ij|ij)) sqrt((kl|kl)) element-wise."""
    eri = eri_tensor(water_sto3g)
    n = water_sto3g.nbf
    diag = np.sqrt(np.abs(np.einsum("ijij->ij", eri)))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    assert (
                        abs(eri[i, j, k, l])
                        <= diag[i, j] * diag[k, l] + 1e-12
                    )


def test_positive_definiteness_of_diagonal(water_631gd):
    """(ij|ij) >= 0 — the ERI supermatrix is positive semidefinite."""
    shells = water_631gd.shells
    for sa in shells[:4]:
        for sb in shells[:4]:
            pair = ShellPair(sa, sb)
            block = eri_shell_quartet(pair, pair)
            nf = sa.nfunc * sb.nfunc
            diag = block.reshape(nf, nf).diagonal()
            assert np.all(diag >= -1e-12)


def test_bra_ket_exchange_transpose(water_sto3g):
    """(ab|cd) == (cd|ab) at the block level."""
    shells = water_sto3g.shells
    pairs = make_shell_pairs(shells)
    b1 = eri_shell_quartet(pairs[(1, 0)], pairs[(2, 2)])
    b2 = eri_shell_quartet(pairs[(2, 2)], pairs[(1, 0)])
    np.testing.assert_allclose(
        b1, b2.transpose(2, 3, 0, 1), rtol=1e-10, atol=1e-14
    )


def test_h2_sto3g_known_integrals():
    """Szabo & Ostlund table: H2/STO-3G at R = 1.4 bohr.

    (11|11) = 0.7746, (11|22) = 0.5697, (12|12) = 0.2970 (Eh).
    """
    from repro.chem.molecule import hydrogen_molecule

    b = BasisSet(hydrogen_molecule(1.4), "sto-3g")
    eri = eri_tensor(b)
    assert math.isclose(eri[0, 0, 0, 0], 0.7746, abs_tol=2e-4)
    assert math.isclose(eri[0, 0, 1, 1], 0.5697, abs_tol=2e-4)
    assert math.isclose(eri[0, 1, 0, 1], 0.2970, abs_tol=2e-4)
