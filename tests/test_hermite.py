"""McMurchie-Davidson building blocks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.integrals.hermite import (
    e_coefficients_1d,
    hermite_coulomb_batch,
    hermite_index,
)
from repro.integrals.boys import boys
from tests import oracles


def e_coefficients_3d(la, lb, a, b, A, B):
    """``(Ex, Ey, Ez)`` of one primitive pair from the production
    recursion, the three axes as one array call."""
    p = a + b
    P = (a * A + b * B) / p
    E = e_coefficients_1d(la, lb, P - A, P - B, p, a * b / p * (A - B) ** 2)
    return tuple(np.moveaxis(E, -1, 0))


def test_e000_is_gaussian_product_prefactor():
    a, b = 0.9, 0.4
    A, B = 0.3, -0.8
    p = a + b
    mu = a * b / p
    P = (a * A + b * B) / p
    E = e_coefficients_1d(0, 0, P - A, P - B, p, mu * (A - B) ** 2)
    assert math.isclose(E[0, 0, 0], math.exp(-mu * (A - B) ** 2), rel_tol=1e-14)


def test_e_overlap_ss():
    # s-s overlap: S = E_0^{00} (pi/p)^(1/2) per axis.
    a, b = 1.1, 0.7
    A = np.array([0.0, 0.0, 0.0])
    B = np.array([0.0, 0.0, 1.2])
    Ex, Ey, Ez = e_coefficients_3d(0, 0, a, b, A, B)
    p = a + b
    s = Ex[0, 0, 0] * Ey[0, 0, 0] * Ez[0, 0, 0] * (math.pi / p) ** 1.5
    mu = a * b / p
    expected = (math.pi / p) ** 1.5 * math.exp(-mu * 1.2 ** 2)
    assert math.isclose(s, expected, rel_tol=1e-13)


def test_e_coefficients_t_bounds():
    E = e_coefficients_1d(3, 2, 0.4, -0.2, 1.5, 0.3)
    # E_t^{ij} must vanish for t > i + j.
    for i in range(4):
        for j in range(3):
            for t in range(i + j + 1, 6):
                assert E[i, j, t] == 0.0


def test_hermite_coulomb_r000():
    # R_000 = F_0(p * |PC|^2).
    p = 0.8
    PC = np.array([0.3, -0.4, 1.0])
    R = hermite_coulomb_batch(0, np.array([p]), PC[None, :])
    x = p * float(PC @ PC)
    assert R.shape == (1, 1)
    assert math.isclose(R[0, 0], boys(0, x)[0], rel_tol=1e-13)


def test_hermite_coulomb_symmetry_in_sign():
    # R_{tuv}(PC) picks up (-1)^(t+u+v) under PC -> -PC.
    p = 1.3
    PC = np.array([0.5, 0.2, -0.7])
    R1, R2 = hermite_coulomb_batch(
        3, np.array([p, p]), np.array([PC, -PC])
    )
    index = hermite_index(3)
    for t in range(4):
        for u in range(4 - t):
            for v in range(4 - t - u):
                c = index[t, u, v]
                assert math.isclose(
                    R1[c], (-1) ** (t + u + v) * R2[c],
                    rel_tol=1e-10, abs_tol=1e-13,
                )


@given(
    st.floats(min_value=0.1, max_value=5.0),
    st.floats(min_value=0.1, max_value=5.0),
    st.floats(min_value=-2.0, max_value=2.0),
)
@settings(max_examples=40, deadline=None)
def test_e_symmetry_under_exchange(a, b, dx):
    """E_t^{ij}(a, A; b, B) == E_t^{ji}(b, B; a, A)."""
    A = np.array([0.0, 0.0, 0.0])
    B = np.array([dx, 0.0, 0.0])
    E_ab = e_coefficients_3d(2, 2, a, b, A, B)[0]
    E_ba = e_coefficients_3d(2, 2, b, a, B, A)[0]
    for i in range(3):
        for j in range(3):
            for t in range(i + j + 1):
                assert math.isclose(
                    E_ab[i, j, t], E_ba[j, i, t], rel_tol=1e-9, abs_tol=1e-12
                )


@pytest.mark.parametrize("la", range(4))
def test_array_recursion_equals_scalar_loop_bitwise(la):
    """Every class up to (f, f + 2): the table of each of 60 primitive
    pairs x 3 axes from ONE array call is bitwise the scalar loop's, and
    entries beyond t = i + j are exact zeros."""
    rng = np.random.default_rng(la)
    n = 60
    a, b = rng.uniform(0.05, 3000.0, (2, n)) ** rng.choice([1.0, 0.3], (2, n))
    A, B = rng.uniform(-3.0, 3.0, (2, 3, n))
    B[:, :5] = A[:, :5]  # same-center pairs: pa = pb = 0 exactly
    p = a + b
    P = (a * A + b * B) / p
    pa, pb, mu_ab2 = P - A, P - B, a * b / p * (A - B) ** 2
    for lb in range(la + 3):
        E = e_coefficients_1d(la, lb, pa, pb, p, mu_ab2)
        assert E.shape == (la + 1, lb + 1, la + lb + 1, 3, n)
        for d in range(3):
            for k in range(n):
                ref = oracles.e_coefficients_1d(
                    la, lb, pa[d, k], pb[d, k], p[k], mu_ab2[d, k]
                )
                assert np.array_equal(E[..., d, k], ref), (lb, d, k)
        i, j, t = np.indices(E.shape[:3])
        assert not E[t > i + j].any()
