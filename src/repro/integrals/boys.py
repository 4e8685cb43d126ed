"""The Boys function :math:`F_m(x) = \\int_0^1 t^{2m} e^{-x t^2} dt`.

The fundamental special function of Gaussian molecular integrals,
evaluated with NumPy alone (no compiled special-function library on
the run path) in two regimes that meet at :data:`GRID_MAX`:

* ``x < GRID_MAX`` — a table of :math:`F_m` on a uniform grid, built
  once per process from the all-positive series
  :math:`F_M(x) = e^{-x} \\sum_k (2x)^k / \\prod_{j \\le k} (2M + 2j + 1)`
  at the top order and the stable *downward* recursion
  :math:`F_m = (2 x F_{m+1} + e^{-x}) / (2m + 1)` below it, then a
  Taylor expansion about the nearest grid point,
  :math:`F_m(x_0 + d) = \\sum_k F_{m+k}(x_0) (-d)^k / k!`, for every
  requested order at once.
* ``x >= GRID_MAX`` — :math:`F_0 = \\sqrt{\\pi / 4x}` (``erfc`` is below
  one ulp there) and the *upward* recursion
  :math:`F_{m+1} = ((2m + 1) F_m - e^{-x}) / 2x`, which is stable for
  ``x > m``.

Every step is element-wise, so a value never depends on which other
arguments shared its batch — the ERI kernel's independence invariant
starts here.
"""

from __future__ import annotations

import functools
import math

import numpy as np

#: Where the tabulated regime hands over to the asymptotic one.
GRID_MAX = 36.0
#: Grid points per unit of ``x`` (a power of two, so ``x * _GRID_DENSITY``
#: is exact); the Taylor remainder after ``_TAYLOR_TERMS`` is
#: ``(1/64)^7 / 7! < 1e-16`` of the leading term.
_GRID_DENSITY = 32
_TAYLOR_TERMS = 6
_INV_K = 1.0 / np.arange(1, _TAYLOR_TERMS + 1)


@functools.cache
def _grid_table(norders: int) -> np.ndarray:
    """``table[m, i] = F_m(i / _GRID_DENSITY)`` for ``m < norders``."""
    m_top = norders - 1
    x = np.arange(int(GRID_MAX) * _GRID_DENSITY + 1) / _GRID_DENSITY
    ex = np.exp(-x)
    table = np.empty((norders, x.size))
    term = np.full_like(x, 1.0 / (2 * m_top + 1))
    total = term.copy()
    # Terms shrink once 2k > 2x - 2m: 150 of them reach 1e-17 of the
    # sum at x = 36 for every m_top >= 0.
    for k in range(1, 150):
        term = term * (2.0 * x / (2 * (m_top + k) + 1))
        total += term
    table[m_top] = ex * total
    for m in range(m_top - 1, -1, -1):
        table[m] = (2.0 * x * table[m + 1] + ex) / (2 * m + 1)
    table.flags.writeable = False
    return table


def _boys_grid(m_max: int, x: np.ndarray) -> np.ndarray:
    """``F_0..F_m_max`` for ``0 <= x < GRID_MAX``; shape ``(m_max+1, n)``."""
    node = np.rint(x * _GRID_DENSITY).astype(np.intp)
    # One table serves every order the supported shells (up to f) ask
    # for; a higher request gets its own.
    norders = m_max + _TAYLOR_TERMS + 1
    T = _grid_table(max(norders, 32))[:norders].take(node, axis=1)
    # w[k-1] = (-d)^k / k!, by running products down the rows.
    d = node / _GRID_DENSITY - x
    w = np.multiply.accumulate(_INV_K[:, None] * d, axis=0)
    # Term k of every order at once — row m reads table order m + k —
    # added in the order k = 1..6, then the node value: a term at a
    # time, because all six side by side are the largest array of a
    # whole ERI share.
    out = T[1 : m_max + 2] * w[0]
    for k in range(1, _TAYLOR_TERMS):
        out += T[k + 1 : m_max + k + 2] * w[k]
    out += T[: m_max + 1]
    return out


def _boys_asymptotic(m_max: int, x: np.ndarray) -> np.ndarray:
    """``F_0..F_m_max`` for ``x >= GRID_MAX``; shape ``(m_max+1, n)``."""
    out = np.empty((m_max + 1, x.size))
    out[0] = np.sqrt((0.25 * math.pi) / x)
    if m_max > 0:
        ex = np.exp(-x)
        half_inv = 0.5 / x
        for m in range(m_max):
            out[m + 1] = ((2 * m + 1) * out[m] - ex) * half_inv
    return out


def boys(m_max: int, x: np.ndarray | float) -> np.ndarray:
    """Evaluate :math:`F_m(x)` for all orders ``0..m_max``.

    Parameters
    ----------
    m_max:
        Highest Boys order required (inclusive).
    x:
        Argument(s); scalar or array, must be non-negative.

    Returns
    -------
    numpy.ndarray
        Shape ``(m_max + 1,) + np.shape(x)``; row ``m`` holds
        :math:`F_m` at every argument.
    """
    xs = np.asarray(x, dtype=np.float64)
    xf = np.ascontiguousarray(xs).ravel()
    if xf.size == 0:
        return np.empty((m_max + 1,) + xs.shape)
    lo = xf.min()
    if not lo >= 0:
        raise ValueError("Boys function argument must be non-negative")
    if xf.max() < GRID_MAX:
        out = _boys_grid(m_max, xf)
    elif lo >= GRID_MAX:
        out = _boys_asymptotic(m_max, xf)
    else:
        far = xf >= GRID_MAX
        out = np.empty((m_max + 1, xf.size))
        out[:, far] = _boys_asymptotic(m_max, xf[far])
        near = ~far
        out[:, near] = _boys_grid(m_max, xf[near])
    return out.reshape((m_max + 1,) + xs.shape)


def boys_single(m: int, x: float) -> float:
    """Scalar convenience wrapper: :math:`F_m(x)` for a single point."""
    return float(boys(m, np.float64(x))[m])
