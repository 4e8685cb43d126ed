"""Property-based invariances of the integral engine."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.chem.basis.shell import Shell, normalize_contracted
from repro.integrals.eri import eri_quartet_shells
from tests.oracles import (
    kinetic_shell_pair,
    nuclear_shell_pair,
    overlap_shell_pair,
)


def _shell(l, alpha, center):
    coefs = normalize_contracted(l, np.array([alpha]), np.array([1.0]))
    return Shell(l, np.array([alpha]), coefs, np.asarray(center, float))


_exp = st.floats(min_value=0.1, max_value=8.0)
_pos = st.floats(min_value=-2.0, max_value=2.0)
_l = st.integers(min_value=0, max_value=2)


@given(_l, _l, _exp, _exp, _pos, _pos, _pos)
@settings(max_examples=30, deadline=None)
def test_overlap_translation_invariance(la, lb, a, b, dx, dy, dz):
    A = np.array([0.0, 0.0, 0.0])
    B = np.array([0.7, -0.2, 0.4])
    shift = np.array([dx, dy, dz])
    s1 = overlap_shell_pair(_shell(la, a, A), _shell(lb, b, B))
    s2 = overlap_shell_pair(_shell(la, a, A + shift), _shell(lb, b, B + shift))
    np.testing.assert_allclose(s1, s2, atol=1e-10)


@given(_l, _exp, _pos)
@settings(max_examples=30, deadline=None)
def test_kinetic_hermitian(la, a, dz):
    sa = _shell(la, a, [0.0, 0.0, 0.0])
    sb = _shell(la, a * 1.3, [0.1, 0.2, dz])
    tab = kinetic_shell_pair(sa, sb)
    tba = kinetic_shell_pair(sb, sa)
    np.testing.assert_allclose(tab, tba.T, atol=1e-10)


@given(_l, _exp, _pos)
@settings(max_examples=20, deadline=None)
def test_nuclear_sign(la, a, dz):
    """Attraction to a positive charge is non-positive on the diagonal."""
    sa = _shell(la, a, [0.0, 0.0, dz])
    v = nuclear_shell_pair(
        sa, sa, np.array([1.0]), np.array([[0.3, 0.0, 0.0]])
    )
    assert np.all(np.diag(v) <= 1e-12)


@given(_exp, _exp, _pos)
@settings(max_examples=15, deadline=None)
def test_eri_translation_invariance(a, b, dz):
    A = np.array([0.0, 0.0, 0.0])
    B = np.array([0.0, 0.0, 1.0])
    shift = np.array([0.3, -0.5, dz])
    v1 = eri_quartet_shells(
        _shell(0, a, A), _shell(0, b, B), _shell(1, a, A), _shell(1, b, B)
    )
    v2 = eri_quartet_shells(
        _shell(0, a, A + shift), _shell(0, b, B + shift),
        _shell(1, a, A + shift), _shell(1, b, B + shift),
    )
    np.testing.assert_allclose(v1, v2, atol=1e-9)


@given(_exp, st.floats(min_value=0.5, max_value=6.0))
@settings(max_examples=15, deadline=None)
def test_eri_decays_with_separation(a, r):
    """(ss|ss) between separated charge clouds decays like 1/r."""
    s0 = _shell(0, a, [0.0, 0.0, 0.0])
    s1 = _shell(0, a, [0.0, 0.0, r])
    s2 = _shell(0, a, [0.0, 0.0, 2.0 * r + 4.0])
    near = eri_quartet_shells(s0, s0, s1, s1)[0, 0, 0, 0]
    far = eri_quartet_shells(s0, s0, s2, s2)[0, 0, 0, 0]
    assert far < near
    assert far > 0


@given(_l, _exp)
@settings(max_examples=20, deadline=None)
def test_contraction_linearity(l, a):
    """Doubling a contraction coefficient doubles the raw overlap."""
    exps = np.array([a])
    c1 = normalize_contracted(l, exps, np.array([1.0]))
    sh1 = Shell(l, exps, c1, np.zeros(3))
    sh2 = Shell(l, exps, 2.0 * c1, np.zeros(3))
    s11 = overlap_shell_pair(sh1, sh1)
    s22 = overlap_shell_pair(sh2, sh2)
    np.testing.assert_allclose(s22, 4.0 * s11, rtol=1e-12)
