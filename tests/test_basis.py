"""Basis-set construction: shells, composite L shells, indexing, data."""

import numpy as np
import pytest

from repro.chem.basis import BasisSet, available_basis_sets, basis_definition
from repro.chem.basis.shell import (
    CART_COMPONENTS,
    ncart,
    normalize_contracted,
    primitive_norm,
)
from repro.chem.molecule import methane, water
from repro.chem.graphene import bilayer_graphene


def test_available_sets():
    names = available_basis_sets()
    assert "sto-3g" in names and "6-31g" in names and "6-31g(d)" in names


def test_aliases():
    assert basis_definition("6-31G*", "C") == basis_definition("6-31g(d)", "C")
    assert basis_definition("STO3G", "H") == basis_definition("sto-3g", "H")


def test_unknown_basis_raises():
    with pytest.raises(KeyError):
        basis_definition("cc-pvqz", "C")


def test_unknown_element_raises():
    with pytest.raises(KeyError):
        basis_definition("sto-3g", "Ne")  # only H, C, N, O provided


def test_ncart():
    assert [ncart(l) for l in range(4)] == [1, 3, 6, 10]
    for l, comps in CART_COMPONENTS.items():
        assert len(comps) == ncart(l)
        assert all(sum(c) == l for c in comps)


def test_water_sto3g_sizes(water_sto3g):
    # O: S + L; H: S each -> 4 composite shells, 1+4+1+1 = 7 BFs.
    assert water_sto3g.nshells == 4
    assert water_sto3g.nbf == 7
    assert water_sto3g.shell_types() == ("S", "L", "S", "S")


def test_water_631gd_sizes(water_631gd):
    # O: S, L, L, D (15 BFs); H: S, S (2 BFs each).
    assert water_631gd.nshells == 8
    assert water_631gd.nbf == 19
    assert water_631gd.max_shell_nfunc() == 6  # Cartesian d


def test_carbon_gamess_shell_counting():
    mol = bilayer_graphene(2)
    b = BasisSet(mol, "6-31g(d)")
    # 4 composite shells and 15 Cartesian functions per carbon.
    assert b.nshells == 4 * mol.natoms
    assert b.nbf == 15 * mol.natoms


def test_bf_offsets_contiguous(water_631gd):
    offsets = water_631gd.shell_bf_offsets()
    widths = water_631gd.shell_nfuncs()
    assert offsets[0] == 0
    np.testing.assert_array_equal(offsets[1:], (offsets + widths)[:-1])
    assert offsets[-1] + widths[-1] == water_631gd.nbf


def test_primitive_norm_s_gaussian():
    # <g|g> = 1 for the normalized s Gaussian: N^2 (pi/2a)^(3/2) = 1.
    a = 0.7
    n = primitive_norm(a, 0, 0, 0)
    assert np.isclose(n * n * (np.pi / (2 * a)) ** 1.5, 1.0, rtol=1e-12)


def test_contracted_normalization_self_overlap():
    # The (l,0,0) component of every shell must have unit self-overlap;
    # verified through the overlap integral engine.
    from repro.integrals.onee import overlap_matrix

    b = BasisSet(water(), "6-31g(d)")
    s = overlap_matrix(b)
    for sh in b.shells:
        assert np.isclose(s[sh.bf_offset, sh.bf_offset], 1.0, rtol=1e-10), sh.letter


def test_l_shell_shares_exponents(water_sto3g):
    lshell = water_sto3g.composite_shells[1]
    assert lshell.stype == "L"
    s_sub, p_sub = lshell.subshells
    np.testing.assert_array_equal(s_sub.exps, p_sub.exps)
    assert s_sub.l == 0 and p_sub.l == 1


def test_composite_shell_rejects_subshells_that_share_nothing(water_sto3g):
    """The integral engine evaluates a composite over ONE exponent array
    on ONE center; a composite that is not one is refused at
    construction, by name, rather than evaluated silently wrong."""
    import dataclasses

    from repro.chem.basis.shell import CompositeShell

    s_sub, p_sub = water_sto3g.composite_shells[1].subshells
    CompositeShell((s_sub, p_sub), atom_index=0, index=1)  # the real one
    moved = dataclasses.replace(p_sub, center=p_sub.center + [0.0, 0.0, 0.1])
    other_exps = dataclasses.replace(p_sub, exps=p_sub.exps * 1.01)
    fewer = dataclasses.replace(
        p_sub, exps=p_sub.exps[:2], coefs=p_sub.coefs[:2]
    )
    for bad in (moved, other_exps, fewer):
        with pytest.raises(ValueError, match=r"composite shell 7 \(L, atom 2\)"):
            CompositeShell((s_sub, bad), atom_index=2, index=7)
    with pytest.raises(ValueError, match="no sub-shells"):
        CompositeShell((), atom_index=0)


def test_bf_labels(water_sto3g):
    labels = water_sto3g.bf_labels()
    assert len(labels) == water_sto3g.nbf
    assert labels[0].startswith("O0:s")


def test_shell_centers_match_atoms():
    b = BasisSet(methane(), "sto-3g")
    centers = b.shell_centers()
    for cs, center in zip(b.composite_shells, centers):
        np.testing.assert_allclose(
            center, b.molecule.coords[cs.atom_index], atol=1e-14
        )
