"""One-electron integrals: closed forms, symmetry, known matrices."""

import math

import numpy as np
import pytest

from repro.chem.basis import BasisSet
from repro.chem.basis.shell import Shell
from repro.chem.molecule import hydrogen_molecule, water
from repro.integrals.onee import (
    core_hamiltonian,
    kinetic_matrix,
    nuclear_matrix,
    overlap_matrix,
)
from repro.integrals.schwarz import schwarz_matrix
from tests.conftest import ledger_fixture_basis
from tests.oracles import (
    eri_class_batch_scalar,
    kinetic_shell_pair,
    nuclear_shell_pair,
    overlap_shell_pair,
)


def _s_shell(alpha: float, center) -> Shell:
    from repro.chem.basis.shell import normalize_contracted

    coefs = normalize_contracted(0, np.array([alpha]), np.array([1.0]))
    return Shell(0, np.array([alpha]), coefs, np.asarray(center, float))


def test_primitive_s_overlap_closed_form():
    # <a|b> for normalized s primitives = exp(-mu R^2) * (hidden norms).
    a, b, R = 0.8, 1.3, 1.1
    sa = _s_shell(a, [0, 0, 0])
    sb = _s_shell(b, [0, 0, R])
    s = overlap_shell_pair(sa, sb)[0, 0]
    p, mu = a + b, a * b / (a + b)
    expected = (
        (2 * a / math.pi) ** 0.75
        * (2 * b / math.pi) ** 0.75
        * (math.pi / p) ** 1.5
        * math.exp(-mu * R * R)
    )
    assert math.isclose(s, expected, rel_tol=1e-12)


def test_primitive_s_kinetic_closed_form():
    # T for two normalized s primitives:
    # T = mu (3 - 2 mu R^2) S.
    a, b, R = 0.8, 1.3, 1.1
    sa = _s_shell(a, [0, 0, 0])
    sb = _s_shell(b, [0, 0, R])
    s = overlap_shell_pair(sa, sb)[0, 0]
    t = kinetic_shell_pair(sa, sb)[0, 0]
    mu = a * b / (a + b)
    assert math.isclose(t, mu * (3 - 2 * mu * R * R) * s, rel_tol=1e-12)


def test_primitive_s_nuclear_closed_form():
    # V for s primitives with one unit charge at the product center:
    # V = -2 pi / p * exp(-mu R^2) * F0(0) * norms.
    a, b = 0.6, 0.9
    A = np.array([0.0, 0.0, 0.0])
    B = np.array([0.0, 0.0, 1.0])
    p = a + b
    P = (a * A + b * B) / p
    sa = _s_shell(a, A)
    sb = _s_shell(b, B)
    v = nuclear_shell_pair(sa, sb, np.array([1.0]), P[None, :])[0, 0]
    mu = a * b / p
    norms = (2 * a / math.pi) ** 0.75 * (2 * b / math.pi) ** 0.75
    expected = -2 * math.pi / p * math.exp(-mu) * norms
    assert math.isclose(v, expected, rel_tol=1e-12)


@pytest.mark.parametrize("fixture", ["water_sto3g", "water_631gd"])
def test_matrices_symmetric(fixture, request):
    basis = request.getfixturevalue(fixture)
    for build in (overlap_matrix, kinetic_matrix, nuclear_matrix):
        m = build(basis)
        np.testing.assert_allclose(m, m.T, atol=1e-12)


def test_overlap_diagonal_and_spd(water_631gd):
    s = overlap_matrix(water_631gd)
    # (l,0,0)-normalized: s/p diagonal exactly 1; d components positive.
    assert np.all(np.diag(s) > 0)
    evals = np.linalg.eigvalsh(s)
    assert np.all(evals > 0), "overlap must be positive definite"


def test_kinetic_positive_definite(water_631gd):
    t = kinetic_matrix(water_631gd)
    assert np.all(np.linalg.eigvalsh(t) > 0)


def test_nuclear_attraction_negative_diagonal(water_sto3g):
    v = nuclear_matrix(water_sto3g)
    assert np.all(np.diag(v) < 0)


def test_water_sto3g_crawford_reference(water_sto3g):
    """Spot-check S and T against the published Crawford-project values."""
    s = overlap_matrix(water_sto3g)
    t = kinetic_matrix(water_sto3g)
    # S(1,2) (O 1s | O 2s) and T(1,1) for this exact geometry/basis.
    assert math.isclose(s[0, 1], 0.236703936510848, rel_tol=1e-6)
    assert math.isclose(t[0, 0], 29.0031999455395, rel_tol=1e-6)
    assert math.isclose(s[0, 0], 1.0, rel_tol=1e-10)


def test_core_hamiltonian_is_sum(water_sto3g):
    h = core_hamiltonian(water_sto3g)
    np.testing.assert_allclose(
        h, kinetic_matrix(water_sto3g) + nuclear_matrix(water_sto3g),
        atol=1e-14,
    )


def test_translation_invariance():
    """Shifting the whole molecule must not change S, T, or H."""
    m1 = water()
    from repro.chem.molecule import Molecule

    shifted = Molecule(
        m1.symbols, m1.coords + np.array([1.0, -2.0, 0.5]), units="bohr"
    )
    b1 = BasisSet(m1, "sto-3g")
    b2 = BasisSet(shifted, "sto-3g")
    np.testing.assert_allclose(
        overlap_matrix(b1), overlap_matrix(b2), atol=1e-12
    )
    np.testing.assert_allclose(
        kinetic_matrix(b1), kinetic_matrix(b2), atol=1e-12
    )
    np.testing.assert_allclose(
        nuclear_matrix(b1), nuclear_matrix(b2), atol=1e-10
    )


# -- the array kernels against the per-pair oracles -----------------------------


@pytest.fixture(scope="module")
def spdf_basis():
    """Water with a three-primitive L, a d and a contracted f shell on O
    and an s + p on H: every pair class from S|S to F|F, registered for
    the occasion (no built-in basis has f functions)."""
    from repro.chem.basis import data

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setitem(data._BASIS_LIBRARY, "test-spdf", {
            "O": (
                ("S", ((130.70932, 0.15432897), (23.808861, 0.53532814),
                       (6.4436083, 0.44463454))),
                ("L", ((5.0331513, -0.09996723, 0.15591627),
                       (1.1695961, 0.39951283, 0.60768372),
                       (0.3803890, 0.70011547, 0.39195739))),
                ("D", ((0.8, 1.0),)),
                ("F", ((1.4, 0.6), (0.5, 0.5))),
            ),
            "H": (
                ("S", ((3.42525091, 0.15432897), (0.62391373, 0.53532814),
                       (0.16885540, 0.44463454))),
                ("P", ((1.1, 1.0),)),
            ),
        })
        yield BasisSet(water(), "test-spdf")


@pytest.fixture(params=["water_631gd", "hydroxide_631gd", "spdf"])
def oracle_basis(request):
    """The bases the array kernels are held to the per-pair oracles on."""
    if request.param == "hydroxide_631gd":
        return ledger_fixture_basis("hydroxide.xyz", "6-31g(d)", charge=-1)
    return request.getfixturevalue(
        "spdf_basis" if request.param == "spdf" else request.param
    )


def _per_pair(basis, kernel):
    """A symmetric matrix the seed's way: one pure shell pair at a time."""
    out = np.zeros((basis.nbf, basis.nbf))
    for i, sa in enumerate(basis.shells):
        ra = slice(sa.bf_offset, sa.bf_offset + sa.nfunc)
        for sb in basis.shells[: i + 1]:
            rb = slice(sb.bf_offset, sb.bf_offset + sb.nfunc)
            out[ra, rb] = kernel(sa, sb)
            out[rb, ra] = out[ra, rb].T
    return out


def test_matrices_match_per_pair_oracles(oracle_basis):
    """S, T, V from the per-class array kernels == the per-pair scalar
    loops to 1e-13 of the matrix scale, L shells and f functions
    included; exactly symmetric."""
    basis, mol = oracle_basis, oracle_basis.molecule
    for build, kernel in (
        (overlap_matrix, overlap_shell_pair),
        (kinetic_matrix, kinetic_shell_pair),
        (nuclear_matrix,
         lambda sa, sb: nuclear_shell_pair(sa, sb, mol.charges, mol.coords)),
    ):
        got, want = build(basis), _per_pair(basis, kernel)
        assert np.array_equal(got, got.T)
        np.testing.assert_allclose(
            got, want, rtol=0.0, atol=1e-13 * np.abs(want).max(),
            err_msg=build.__name__,
        )


def test_schwarz_matches_per_pair_oracle(oracle_basis):
    """Q from the block diagonal of the composite class stacks == the
    largest pure-pair diagonal element by the scalar ERI loops, to
    1e-14 relative."""
    from repro.integrals.eri import ShellPair

    basis = oracle_basis
    want = np.zeros((basis.nshells, basis.nshells))
    for i, ca in enumerate(basis.composite_shells):
        for j, cb in enumerate(basis.composite_shells[: i + 1]):
            for sa in ca.subshells:
                for sb in cb.subshells:
                    pair = ShellPair(sa, sb)
                    diag = np.diagonal(eri_class_batch_scalar(pair, pair)[0])
                    want[i, j] = max(want[i, j], np.sqrt(np.abs(diag).max()))
            want[j, i] = want[i, j]
    np.testing.assert_allclose(schwarz_matrix(basis), want, rtol=1e-14, atol=0.0)


def test_nuclear_batch_is_chunked_without_changing_a_bit(water_631gd, monkeypatch):
    """V walks a class's primitive pairs in memory-capped chunks; every
    step is per primitive pair, so the chunk size cannot show."""
    from repro.integrals import onee

    whole = nuclear_matrix(water_631gd)
    for budget in (1, 4_000):
        monkeypatch.setattr(onee, "MAX_BATCH_DOUBLES", budget)
        assert np.array_equal(nuclear_matrix(water_631gd), whole)
