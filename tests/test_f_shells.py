"""Generality of the integral engine: Cartesian f shells.

No built-in basis uses f functions, but the McMurchie-Davidson kernels
are written for arbitrary angular momentum; this module locks that in
with hand-built f shells.
"""

import numpy as np
import pytest

from repro.chem.basis.shell import (
    CART_COMPONENTS,
    Shell,
    ncart,
    normalize_contracted,
)
from tests.oracles import (
    eri_quartet_shells,
    kinetic_shell_pair,
    overlap_shell_pair,
)


def _shell(l, alpha, center):
    coefs = normalize_contracted(l, np.array([alpha]), np.array([1.0]))
    return Shell(l, np.array([alpha]), coefs, np.asarray(center, float))


@pytest.fixture(scope="module")
def f_shell():
    return _shell(3, 0.6, [0.0, 0.0, 0.0])


def test_f_shell_size(f_shell):
    assert f_shell.nfunc == ncart(3) == 10
    assert len(CART_COMPONENTS[3]) == 10


def test_f_overlap_normalized_leading_component(f_shell):
    s = overlap_shell_pair(f_shell, f_shell)
    assert s.shape == (10, 10)
    # (3,0,0) component normalized by construction.
    assert np.isclose(s[0, 0], 1.0, rtol=1e-10)
    np.testing.assert_allclose(s, s.T, atol=1e-12)
    assert np.all(np.linalg.eigvalsh(s) > 0)


def test_f_kinetic_positive(f_shell):
    t = kinetic_shell_pair(f_shell, f_shell)
    assert np.all(np.diag(t) > 0)
    np.testing.assert_allclose(t, t.T, atol=1e-12)


def test_sf_overlap_orthogonality():
    """An s and an f function on the same center are orthogonal."""
    s = _shell(0, 1.1, [0, 0, 0])
    f = _shell(3, 0.6, [0, 0, 0])
    block = overlap_shell_pair(s, f)
    np.testing.assert_allclose(block, 0.0, atol=1e-12)


def test_f_eri_symmetry():
    """(ff|ss) block equals the transposed (ss|ff) block."""
    f = _shell(3, 0.8, [0.0, 0.0, 0.3])
    s = _shell(0, 1.3, [0.0, 0.4, 0.0])
    a = eri_quartet_shells(f, f, s, s)
    b = eri_quartet_shells(s, s, f, f)
    np.testing.assert_allclose(a, b.transpose(2, 3, 0, 1), atol=1e-12)


def test_f_eri_diagonal_positive():
    f = _shell(3, 0.8, [0.1, -0.2, 0.3])
    block = eri_quartet_shells(f, f, f, f)
    nf = 10
    diag = block.reshape(nf * nf, nf * nf).diagonal()
    assert np.all(diag > -1e-12)
