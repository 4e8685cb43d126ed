"""Boys function: known values, recursion identity, asymptotics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.integrals.boys import boys, boys_single


def test_f0_zero():
    # F_m(0) = 1 / (2m + 1).
    vals = boys(5, 0.0)
    for m in range(6):
        assert math.isclose(vals[m], 1.0 / (2 * m + 1), rel_tol=1e-13)


def test_f0_known_value():
    # F_0(x) = sqrt(pi/(4x)) * erf(sqrt(x)).
    for x in (0.1, 1.0, 5.0, 30.0):
        expected = math.sqrt(math.pi / (4 * x)) * math.erf(math.sqrt(x))
        assert math.isclose(boys_single(0, x), expected, rel_tol=1e-12)


def test_large_x_asymptotic():
    # F_m(x) -> (2m-1)!! / (2x)^m * sqrt(pi/(4x)) for large x.
    x = 80.0
    f = boys(2, x)
    f0 = math.sqrt(math.pi / (4 * x))
    assert math.isclose(f[0], f0, rel_tol=1e-10)
    assert math.isclose(f[1], f0 / (2 * x), rel_tol=1e-8)
    assert math.isclose(f[2], 3 * f0 / (2 * x) ** 2, rel_tol=1e-6)


def test_vectorized_shape():
    xs = np.linspace(0, 20, 7).reshape(7)
    out = boys(3, xs)
    assert out.shape == (4, 7)


def test_negative_argument_raises():
    with pytest.raises(ValueError):
        boys(0, -1.0)


@given(st.floats(min_value=0.0, max_value=200.0), st.integers(0, 8))
@settings(max_examples=80, deadline=None)
def test_recursion_identity(x, m):
    """Upward recursion: F_{m+1} = ((2m+1) F_m - e^{-x}) / (2x).

    Checked only away from x -> 0, where the upward form is numerically
    unstable (the very reason the implementation recurses downward).
    """
    vals = boys(m + 1, x)
    if x > 1e-3:
        lhs = vals[m + 1]
        rhs = ((2 * m + 1) * vals[m] - math.exp(-x)) / (2 * x)
        assert math.isclose(lhs, rhs, rel_tol=1e-8, abs_tol=1e-12)


@given(st.floats(min_value=0.0, max_value=100.0))
@settings(max_examples=60, deadline=None)
def test_monotone_decreasing_in_m(x):
    vals = boys(6, x)
    assert np.all(np.diff(vals) <= 1e-15)
    assert np.all(vals >= 0)


# -- the NumPy-only evaluation against independent references -----------------


def _probe_arguments():
    """x over [0, 1e5]: dense on the grid, across the seam, log-spaced."""
    from repro.integrals.boys import GRID_MAX

    rng = np.random.default_rng(7)
    return np.concatenate([
        np.linspace(0.0, GRID_MAX + 4.0, 2001),
        rng.uniform(0.0, GRID_MAX, 4000),
        rng.uniform(GRID_MAX - 1.0, GRID_MAX + 1.0, 1000),
        10.0 ** rng.uniform(-9.0, 5.0, 4000),
        [0.0, GRID_MAX, np.nextafter(GRID_MAX, 0.0),
         np.nextafter(GRID_MAX, 1e3), 1.0e5],
    ])


def test_matches_hyp1f1_across_both_regimes_and_the_seam():
    """F_m = 1F1(m+1/2; m+3/2; -x) / (2m+1), m <= 16, x in [0, 1e5].

    1e-13 relative wherever ``hyp1f1`` itself is that good; for
    ``45 < x < 100`` and ``m >= 8`` it is not (up to 5e-12 off the
    ``mpmath`` value at m = 16, x = 61 — see the next test), so the bound
    there is the reference's error, not ours.
    """
    from scipy.special import hyp1f1

    x = _probe_arguments()
    got = boys(16, x)
    for m in range(17):
        ref = hyp1f1(m + 0.5, m + 1.5, -x) / (2 * m + 1)
        rel = np.abs(got[m] - ref) / ref
        weak = (x > 45.0) & (x < 100.0) if m >= 8 else np.zeros(x.size, bool)
        assert rel[~weak].max() <= 1e-13, m
        assert rel.max() <= 1e-11, m


def test_matches_mpmath_to_1e14():
    """Against 40-digit incomplete-gamma values, everywhere, m <= 16."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    from repro.integrals.boys import GRID_MAX

    rng = np.random.default_rng(8)
    xs = np.concatenate([
        rng.uniform(0.0, GRID_MAX, 60), rng.uniform(GRID_MAX, 100.0, 40),
        [1e-12, GRID_MAX, np.nextafter(GRID_MAX, 0.0), 61.0, 1.0e4],
    ])
    got = boys(16, xs)
    for m in (0, 1, 5, 8, 12, 16):
        for i, x in enumerate(xs.tolist()):
            a = mp.mpf(m) + mp.mpf(1) / 2
            exact = mp.gammainc(a, 0, x) / (2 * mp.mpf(x) ** a)
            assert abs(mp.mpf(float(got[m, i])) - exact) <= 1e-14 * exact


@given(st.lists(st.floats(0.0, 200.0), min_size=1, max_size=40),
       st.integers(0, 12))
@settings(max_examples=60, deadline=None)
def test_value_does_not_depend_on_the_batch(xs, m):
    """Element-wise: the same argument gives the same bits alone, in a
    batch, or in a batch that spans both regimes."""
    xs = np.array(xs)
    batch = boys(m, xs)
    for i in range(xs.size):
        assert np.array_equal(boys(m, xs[i : i + 1])[:, 0], batch[:, i])


def test_empty_and_high_order():
    assert boys(3, np.empty(0)).shape == (4, 0)
    # Above the shared table's orders: a table of its own, same accuracy.
    vals = boys(40, np.array([0.0, 2.5]))
    assert math.isclose(vals[40, 0], 1.0 / 81.0, rel_tol=1e-14)
    assert math.isclose(
        vals[39, 1], (5.0 * vals[40, 1] + math.exp(-2.5)) / 79.0, rel_tol=1e-13
    )
