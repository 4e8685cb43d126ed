"""Hermite-Gaussian machinery of the McMurchie-Davidson scheme.

Two building blocks:

* :func:`e_coefficients_1d` — the expansion coefficients
  :math:`E_t^{ij}` that express a product of two 1-D Cartesian
  Gaussians as a sum of Hermite Gaussians, over arrays of primitive
  pairs: the pair layer (:mod:`repro.integrals.eri`) runs it once per
  pair class.
* :func:`hermite_from_boys` — the Hermite Coulomb integrals
  :math:`R^0_{tuv}` built from Boys-function values by the standard
  three-term recursion, over a whole *batch* of ``(exponent,
  displacement)`` points at once.  It is the only Hermite-Coulomb
  recursion in the package.  The ERI kernel evaluates the Boys function
  once per share of quartets and runs the recursion once per ket order
  on the rows it needs; :func:`hermite_coulomb_batch` is the two steps
  in one call (the nuclear-attraction kernel sends it every primitive
  pair x nucleus).  Only the ``t + u + v <= lmax`` components exist, in
  the compact order of :func:`hermite_tuv`.

Both follow Helgaker, Jorgensen & Olsen, *Molecular Electronic-Structure
Theory*, chapter 9.  (The scalar recursions both are tested against
live in ``tests/oracles.py``.)
"""

from __future__ import annotations

import functools

import numpy as np

from repro.integrals.boys import boys


def e_coefficients_1d(
    la: int,
    lb: int,
    pa: np.ndarray | float,
    pb: np.ndarray | float,
    p: np.ndarray | float,
    mu_xab2: np.ndarray | float,
) -> np.ndarray:
    """1-D Hermite expansion coefficients :math:`E_t^{ij}`, over arrays.

    The one E recursion of the package.  The four real arguments
    broadcast against each other; every operation is element-wise along
    them, so one call serves every primitive pair (and all three axes)
    of a pair class, and an element's table is bitwise the one a scalar
    call returns (``tests/oracles.py`` keeps the scalar loop it is
    tested against).

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
        ``E[i, j, t, ...]`` of shape ``(la+1, lb+1, la+lb+1) + shape``
        with ``shape`` the broadcast shape of the real arguments (``()``
        for scalars); entries with ``t > i + j`` are zero.
    """
    pa, pb, p, mu_xab2 = np.broadcast_arrays(pa, pb, p, mu_xab2)
    E = np.zeros((la + 1, lb + 1, la + lb + 1) + p.shape)
    E[0, 0, 0] = np.exp(-mu_xab2)
    one_over_2p = 0.5 / p
    # (t + 1) along the t axis, for the E_{t+1} term.
    up = np.arange(1.0, la + lb + 1).reshape((-1,) + (1,) * p.ndim)

    # Per target (i, j) the scalar recursion's own order: the E_t term,
    # then E_{t-1}, then E_{t+1}; t runs along the leading axis of the
    # slices.  Build up in i with j = 0 ...
    for i in range(1, la + 1):
        src, dst = E[i - 1, 0], E[i, 0]
        np.multiply(pa, src[: i + 1], out=dst[: i + 1])
        dst[1 : i + 1] += one_over_2p * src[:i]
        dst[: i - 1] += up[: i - 1] * src[1:i]
    # ... then increment j, for every i at once: row i is exact up to
    # t = i + j and sees only zeros beyond.
    for j in range(1, lb + 1):
        tmax = la + j
        src, dst = E[:, j - 1], E[:, j]
        np.multiply(pb, src[:, : tmax + 1], out=dst[:, : tmax + 1])
        dst[:, 1 : tmax + 1] += one_over_2p * src[:, :tmax]
        dst[:, : tmax - 1] += up[: tmax - 1] * src[:, 1:tmax]
    return E


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

    One vectorized Boys evaluation over all ``n`` arguments, then
    :func:`hermite_from_boys`.

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
    """
    p = np.ascontiguousarray(p, dtype=np.float64)
    PC = np.ascontiguousarray(PC, dtype=np.float64)
    if p.ndim != 1 or PC.shape != (p.size, 3):
        raise ValueError(
            f"expected p (n,) and PC (n, 3); got {p.shape} and {PC.shape}"
        )
    X = np.ascontiguousarray(PC.T)
    F = boys(lmax, p * (X[0] * X[0] + X[1] * X[1] + X[2] * X[2]))
    return hermite_from_boys(lmax, p, X, F)


def hermite_from_boys(
    lmax: int, p: np.ndarray, X: np.ndarray, F: np.ndarray
) -> np.ndarray:
    """The recursion half of :func:`hermite_coulomb_batch`: ``R[point, c]``
    from Boys values that are already there.

    ``p`` is ``(n,)``, ``X`` the displacements as ``(3, n)`` and ``F``
    holds :math:`F_m(p |X|^2)` in row ``m``, for *at least* the orders
    ``0..lmax`` — rows beyond are not read, so one Boys evaluation at the
    highest order a caller needs serves every lower ``lmax`` over the
    same points (row ``m`` of ``boys(M, x)`` does not depend on ``M``).

    The auxiliary integrals ``R^m_{tuv}`` are kept per level as
    ``(lmax - level + 1, ncomp_level, n)`` arrays — nothing with
    ``m + t + u + v > lmax`` is ever stored — and one level follows from
    the two below it in one gather-multiply-add over all its components
    and auxiliary orders (:func:`_level_plan`), so the Python loop is
    ``O(lmax)``, not ``O(lmax^3)``.  Every step is element-wise along
    the batch: a point's result is bitwise the same whatever else is in
    the batch.
    """
    # R^m_{000} = (-2p)^m F_m: running products down the rows, a row at
    # a time (an accumulate along the short axis walks it strided).
    power = np.empty((lmax + 1, p.size))
    power[0] = 1.0
    power[1:] = -2.0 * p
    for m in range(2, lmax + 1):
        np.multiply(power[m - 1], power[m], out=power[m])
    power *= F[: lmax + 1]
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
