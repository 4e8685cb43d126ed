"""Hermite-Gaussian machinery of the McMurchie-Davidson scheme.

Two building blocks:

* :func:`e_coefficients_1d` — the expansion coefficients
  :math:`E_t^{ij}` that express a product of two 1-D Cartesian
  Gaussians as a sum of Hermite Gaussians.
* :func:`hermite_coulomb_batch` — the Hermite Coulomb integrals
  :math:`R^0_{tuv}` built from Boys-function values by the standard
  three-term recursion, over a whole *batch* of ``(exponent,
  displacement)`` points at once with ONE vectorized Boys evaluation.
  It is the only Hermite-Coulomb recursion in the package: the ERI
  kernel sends it every primitive combination of a class of quartets,
  the nuclear-attraction kernel every primitive pair x nucleus.  Only
  the ``t + u + v <= lmax`` components exist, in the compact order of
  :func:`hermite_tuv`.

Both follow Helgaker, Jorgensen & Olsen, *Molecular Electronic-Structure
Theory*, chapter 9.  (The scalar per-point recursion the batch is tested
against lives in ``tests/oracles.py``.)
"""

from __future__ import annotations

import functools

import numpy as np

from repro.integrals.boys import boys


def e_coefficients_1d(
    la: int, lb: int, pa: float, pb: float, p: float, mu_xab2: float
) -> np.ndarray:
    """1-D Hermite expansion coefficients :math:`E_t^{ij}`.

    Parameters
    ----------
    la, lb:
        Maximum Cartesian exponents on centers A and B for this axis.
    pa, pb:
        :math:`P_x - A_x` and :math:`P_x - B_x` (Gaussian product center
        relative to each origin).
    p:
        Total exponent :math:`a + b`.
    mu_xab2:
        :math:`\\mu (A_x - B_x)^2` with :math:`\\mu = ab/p` — the 1-D
        Gaussian-product prefactor exponent.

    Returns
    -------
    numpy.ndarray
        ``E[i, j, t]`` of shape ``(la+1, lb+1, la+lb+1)``; entries with
        ``t > i + j`` are zero.
    """
    E = np.zeros((la + 1, lb + 1, la + lb + 1))
    E[0, 0, 0] = np.exp(-mu_xab2)
    one_over_2p = 0.5 / p

    # Build up in i with j = 0.
    for i in range(1, la + 1):
        tmax = i
        for t in range(tmax + 1):
            val = pa * E[i - 1, 0, t]
            if t > 0:
                val += one_over_2p * E[i - 1, 0, t - 1]
            if t + 1 <= i - 1:
                val += (t + 1) * E[i - 1, 0, t + 1]
            E[i, 0, t] = val

    # Then increment j for every i.
    for j in range(1, lb + 1):
        for i in range(la + 1):
            tmax = i + j
            for t in range(tmax + 1):
                val = pb * E[i, j - 1, t]
                if t > 0:
                    val += one_over_2p * E[i, j - 1, t - 1]
                if t + 1 <= i + j - 1:
                    val += (t + 1) * E[i, j - 1, t + 1]
                E[i, j, t] = val
    return E


def e_coefficients_3d(
    la: int, lb: int, a: float, b: float, A: np.ndarray, B: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-axis :math:`E_t^{ij}` tensors for a primitive pair.

    Returns ``(Ex, Ey, Ez)`` each shaped ``(la+1, lb+1, la+lb+1)``.
    The 3-D Gaussian-product prefactor :math:`e^{-\\mu |AB|^2}` is
    distributed across the three axes (one factor each), so products
    ``Ex * Ey * Ez`` carry it exactly once.
    """
    p = a + b
    mu = a * b / p
    P = (a * A + b * B) / p
    out = []
    for d in range(3):
        out.append(
            e_coefficients_1d(
                la, lb, P[d] - A[d], P[d] - B[d], p, mu * (A[d] - B[d]) ** 2
            )
        )
    return out[0], out[1], out[2]


def _level_start(level: int) -> int:
    """Number of Hermite components below ``level`` (its compact offset)."""
    return level * (level + 1) * (level + 2) // 6


@functools.cache
def hermite_tuv(lmax: int) -> np.ndarray:
    """Hermite orders ``(t, u, v)`` with ``t + u + v <= lmax``, compact.

    Shape ``(ncomp, 3)``, ``ncomp = (lmax+1)(lmax+2)(lmax+3)/6``, ordered
    by level ``t + u + v`` and, inside a level, with the components
    whose recursion has a second term first (so that
    :func:`hermite_coulomb_batch` adds that term into a leading slice).
    A level's order does not depend on ``lmax``: the table for ``lmax``
    is a prefix of the table for ``lmax + 1``.  This is the column order
    of every compact Hermite array in the package — the E tensors of
    :class:`~repro.integrals.eri.ShellPair` and the output of
    :func:`hermite_coulomb_batch`.
    """
    comps = [
        (t, u, level - t - u)
        for level in range(lmax + 1)
        for t in range(level, -1, -1)
        for u in range(level - t, -1, -1)
    ]
    # The lowered axis is the first non-zero one; its recursion has a
    # second term when that order exceeds 1.  (Stable sort.)
    comps.sort(key=lambda c: (sum(c), next((x for x in c if x), 0) < 2))
    table = np.array(comps, dtype=np.intp)
    table.flags.writeable = False
    return table


@functools.cache
def hermite_index(lmax: int) -> np.ndarray:
    """Inverse of :func:`hermite_tuv`: ``index[t, u, v]`` is the compact row.

    Shape ``(lmax+1,)*3``; entries with ``t + u + v > lmax`` are ``-1``.
    """
    tuv = hermite_tuv(lmax)
    index = np.full((lmax + 1,) * 3, -1, dtype=np.intp)
    index[tuv[:, 0], tuv[:, 1], tuv[:, 2]] = np.arange(len(tuv))
    index.flags.writeable = False
    return index


@functools.cache
def _lowered_axis(lmax: int) -> np.ndarray:
    """Per compact component above level 0, the axis its recursion
    lowers: the first non-zero one of ``(t, u, v)``."""
    return (hermite_tuv(lmax)[1:] != 0).argmax(axis=1)


@functools.cache
def _level_plan(level: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """How level ``t + u + v = level >= 1`` follows from the two below.

    ``R^n_{tuv} = X_a R^{n+1}_{tuv - 1_a} + (k - 1) R^{n+1}_{tuv - 2_a}``
    with ``a`` the lowered axis (:func:`_lowered_axis`) and ``k`` its
    order.  Returns ``(src1, src2, weight2)``: for every component of
    the level the position of the first source inside level
    ``level - 1``; for the leading ``len(src2)`` components the position
    of the second source inside level ``level - 2`` and the weight
    ``k - 1``.
    """
    index = hermite_index(level)
    start = _level_start(level)
    src1, src2, weight2 = [], [], []
    for comp, a in zip(
        hermite_tuv(level)[start:].tolist(),
        _lowered_axis(level)[start - 1 :].tolist(),
    ):
        comp[a] -= 1
        src1.append(index[tuple(comp)] - _level_start(level - 1))
        if comp[a] > 0:
            weight2.append(float(comp[a]))
            comp[a] -= 1
            src2.append(index[tuple(comp)] - _level_start(level - 2))
    return (
        np.array(src1, dtype=np.intp),
        np.array(src2, dtype=np.intp),
        np.array(weight2)[:, None],
    )


def hermite_coulomb_batch(
    lmax: int, p: np.ndarray, PC: np.ndarray
) -> np.ndarray:
    """Batched :math:`R^0_{tuv}(p, \\mathbf{PC})` over many points at once.

    Parameters
    ----------
    lmax:
        Maximum total Hermite order ``t + u + v`` required (shared by
        the whole batch).
    p:
        Exponents of the Hermite Gaussians (total or reduced, depending
        on the integral type), shape ``(n,)``.
    PC:
        Vectors from the Hermite center to the charge center, shape
        ``(n, 3)``.

    Returns
    -------
    numpy.ndarray
        ``R[point, c]`` of shape ``(n, ncomp)``, C-contiguous, column
        ``c`` holding the order ``hermite_tuv(lmax)[c]``.

    Notes
    -----
    The Boys function is evaluated exactly **once**, vectorized over all
    ``n`` arguments.  The auxiliary integrals ``R^m_{tuv}`` are kept per
    level as ``(lmax - level + 1, ncomp_level, n)`` arrays — nothing
    with ``m + t + u + v > lmax`` is ever stored — and one level follows
    from the two below it in one gather-multiply-add over all its
    components and auxiliary orders (:func:`_level_plan`), so the Python
    loop is ``O(lmax)``, not ``O(lmax^3)``.  Every step is element-wise
    along the batch: a point's result is bitwise the same whatever else
    is in the batch.
    """
    p = np.ascontiguousarray(p, dtype=np.float64)
    PC = np.ascontiguousarray(PC, dtype=np.float64)
    if p.ndim != 1 or PC.shape != (p.size, 3):
        raise ValueError(
            f"expected p (n,) and PC (n, 3); got {p.shape} and {PC.shape}"
        )
    X = np.ascontiguousarray(PC.T)
    F = boys(lmax, p * (X[0] * X[0] + X[1] * X[1] + X[2] * X[2]))

    # R^m_{000} = (-2p)^m F_m: running products down the rows.
    power = np.empty_like(F)
    power[0] = 1.0
    power[1:] = -2.0 * p
    np.multiply.accumulate(power, axis=0, out=power)
    power *= F
    levels = [power[:, None, :]]
    Xa = X.take(_lowered_axis(lmax), axis=0)
    for level in range(1, lmax + 1):
        src1, src2, weight2 = _level_plan(level)
        start = _level_start(level) - 1
        cur = levels[-1][1:].take(src1, axis=1)
        cur *= Xa[start : start + src1.size]
        if src2.size:
            second = levels[-2][1:-1].take(src2, axis=1)
            second *= weight2
            cur[:, : src2.size] += second
        levels.append(cur)
    return np.ascontiguousarray(np.concatenate([a[0] for a in levels]).T)
