"""Scalar reference implementations the array integral kernels are
tested against.

These are the seed's primitive-loop spellings — one primitive pair, one
point, one Boys call, one ``(t, u, v)`` target at a time — kept out of
``src/`` because nothing on a run path calls them.  The E recursion
(:func:`e_coefficients_1d`), the per-pair overlap / kinetic / nuclear
kernels and the Hermite-Coulomb recursion share only the Boys function
with the production code; the scalar ERI loops
(:func:`eri_class_batch_scalar`) additionally read the production pair
data (:class:`~repro.integrals.eri.PairStack`) and are independent of
the kernel in their recursion, primitive loops and contraction order.
:func:`concat_stacks` / :func:`take_pairs` assemble the stacks the
paired kernel is tested on; no run path builds a stack that way.
"""

from __future__ import annotations

import math

import numpy as np

from repro.chem.basis.shell import Shell
from repro.integrals.boys import boys
from repro.integrals.eri import PairSet, PairStack, ragged_arange
from repro.integrals.hermite import hermite_tuv


def e_coefficients_1d(
    la: int, lb: int, pa: float, pb: float, p: float, mu_xab2: float
) -> np.ndarray:
    """1-D Hermite expansion coefficients ``E[i, j, t]`` of one primitive
    pair, one entry at a time: the loop the array recursion of
    ``repro.integrals.hermite`` must equal bitwise."""
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
    """Per-axis ``(Ex, Ey, Ez)`` of a primitive pair, each shaped
    ``(la+1, lb+1, la+lb+1)``; the Gaussian-product prefactor is spread
    over the axes so that ``Ex * Ey * Ez`` carries it once."""
    p = a + b
    mu = a * b / p
    P = (a * A + b * B) / p
    return tuple(
        e_coefficients_1d(
            la, lb, P[d] - A[d], P[d] - B[d], p, mu * (A[d] - B[d]) ** 2
        )
        for d in range(3)
    )


def overlap_shell_pair(sha: Shell, shb: Shell) -> np.ndarray:
    """Overlap block ``<a|b>``, shape ``(sha.nfunc, shb.nfunc)``."""
    A, B = sha.center, shb.center
    comps_a, comps_b = sha.components, shb.components
    out = np.zeros((sha.nfunc, shb.nfunc))

    for a, ca in zip(sha.exps, sha.coefs):
        for b, cb in zip(shb.exps, shb.coefs):
            p = a + b
            Ex, Ey, Ez = e_coefficients_3d(sha.l, shb.l, a, b, A, B)
            pref = ca * cb * (math.pi / p) ** 1.5
            for ia, (ax, ay, az) in enumerate(comps_a):
                for ib, (bx, by, bz) in enumerate(comps_b):
                    out[ia, ib] += (
                        pref * Ex[ax, bx, 0] * Ey[ay, by, 0] * Ez[az, bz, 0]
                    )
    return out


def kinetic_shell_pair(sha: Shell, shb: Shell) -> np.ndarray:
    """Kinetic-energy block ``<a| -nabla^2/2 |b>`` from
    ``T = Tx Sy Sz + Sx Ty Sz + Sx Sy Tz`` with
    ``T^{ij} = -2 b^2 s^{i,j+2} + b (2j+1) s^{ij} - j (j-1)/2 s^{i,j-2}``."""
    A, B = sha.center, shb.center
    comps_a, comps_b = sha.components, shb.components
    out = np.zeros((sha.nfunc, shb.nfunc))

    for a, ca in zip(sha.exps, sha.coefs):
        for b, cb in zip(shb.exps, shb.coefs):
            p = a + b
            # E tensors with ket angular momentum raised by 2 so the
            # s^{i, j+2} terms are available.
            Es = e_coefficients_3d(sha.l, shb.l + 2, a, b, A, B)
            pref = ca * cb * (math.pi / p) ** 1.5

            def s1d(E: np.ndarray, i: int, j: int) -> float:
                if j < 0:
                    return 0.0
                return E[i, j, 0]

            def t1d(E: np.ndarray, i: int, j: int) -> float:
                val = -2.0 * b * b * s1d(E, i, j + 2)
                val += b * (2 * j + 1) * s1d(E, i, j)
                if j >= 2:
                    val -= 0.5 * j * (j - 1) * s1d(E, i, j - 2)
                return val

            for ia, (ax, ay, az) in enumerate(comps_a):
                for ib, (bx, by, bz) in enumerate(comps_b):
                    sx = s1d(Es[0], ax, bx)
                    sy = s1d(Es[1], ay, by)
                    sz = s1d(Es[2], az, bz)
                    tx = t1d(Es[0], ax, bx)
                    ty = t1d(Es[1], ay, by)
                    tz = t1d(Es[2], az, bz)
                    out[ia, ib] += pref * (tx * sy * sz + sx * ty * sz + sx * sy * tz)
    return out


def nuclear_shell_pair(
    sha: Shell, shb: Shell, charges: np.ndarray, centers: np.ndarray
) -> np.ndarray:
    """Nuclear-attraction block ``<a| sum_C -Z_C/r_C |b>`` of one pure
    pair: ``sum_tuv E_tuv R_tuv(p, P - C)`` per primitive pair and
    nucleus, every term in Python."""
    A, B = sha.center, shb.center
    comps_a, comps_b = sha.components, shb.components
    ltot = sha.l + shb.l
    out = np.zeros((sha.nfunc, shb.nfunc))

    for a, ca in zip(sha.exps, sha.coefs):
        for b, cb in zip(shb.exps, shb.coefs):
            p = a + b
            P = (a * A + b * B) / p
            Ex, Ey, Ez = e_coefficients_3d(sha.l, shb.l, a, b, A, B)
            pref = ca * cb * 2.0 * math.pi / p
            for Z, C in zip(charges, centers):
                R = hermite_coulomb(ltot, p, P - np.asarray(C, dtype=float))
                for ia, (ax, ay, az) in enumerate(comps_a):
                    for ib, (bx, by, bz) in enumerate(comps_b):
                        val = 0.0
                        for t in range(ax + bx + 1):
                            for u in range(ay + by + 1):
                                for v in range(az + bz + 1):
                                    val += (
                                        Ex[ax, bx, t] * Ey[ay, by, u]
                                        * Ez[az, bz, v] * R[t, u, v]
                                    )
                        out[ia, ib] -= Z * pref * val
    return out


def hermite_coulomb(lmax: int, p: float, PC: np.ndarray) -> np.ndarray:
    """Dense Hermite Coulomb tensor :math:`R^0_{tuv}(p, \\mathbf{PC})`.

    ``R[t, u, v]`` of shape ``(lmax+1,)*3``; only entries with
    ``t + u + v <= lmax`` are populated.  Same floating-point order as
    ``hermite_coulomb_batch``, so the two agree bitwise.
    """
    x2 = float(PC[0] * PC[0] + PC[1] * PC[1] + PC[2] * PC[2])
    F = boys(lmax, p * x2)

    # R^n_{000} = (-2p)^n F_n.
    Rn = np.zeros((lmax + 1, lmax + 1, lmax + 1, lmax + 1))
    minus_2p = -2.0 * p
    fac = 1.0
    for n in range(lmax + 1):
        Rn[n, 0, 0, 0] = fac * F[n]
        fac *= minus_2p

    X, Y, Z = float(PC[0]), float(PC[1]), float(PC[2])
    # Raise t, then u, then v, lowering the auxiliary order n each time.
    for total in range(1, lmax + 1):
        for t in range(total + 1):
            for u in range(total - t + 1):
                v = total - t - u
                for n in range(lmax + 1 - total):
                    if t > 0:
                        val = X * Rn[n + 1, t - 1, u, v]
                        if t > 1:
                            val += (t - 1) * Rn[n + 1, t - 2, u, v]
                    elif u > 0:
                        val = Y * Rn[n + 1, t, u - 1, v]
                        if u > 1:
                            val += (u - 1) * Rn[n + 1, t, u - 2, v]
                    else:
                        val = Z * Rn[n + 1, t, u, v - 1]
                        if v > 1:
                            val += (v - 1) * Rn[n + 1, t, u, v - 2]
                    Rn[n, t, u, v] = val
    return Rn[0]


def eri_class_batch_scalar(bra: PairStack, ket: PairStack) -> np.ndarray:
    """``eri_class_batch`` one quartet, one primitive combination, one
    Boys call at a time: ``ebra @ M @ eket.T`` per combination."""
    tb, tk = hermite_tuv(bra.ltot), hermite_tuv(ket.ltot)
    ti, ui, vi = (tb[:, None, :] + tk[None, :, :]).transpose(2, 0, 1)
    ket_parity = (-1.0) ** tk.sum(axis=1)
    two_pi_pow = 2.0 * math.pi ** 2.5

    out = np.zeros((ket.npairs, bra.nfunc_pair, ket.nfunc_pair))
    for n in range(ket.npairs):
        for i in range(bra.ptr[n], bra.ptr[n + 1]):
            p, P = bra.p[i], bra.P[i]
            for j in range(ket.ptr[n], ket.ptr[n + 1]):
                q, Q = ket.p[j], ket.P[j]
                R = hermite_coulomb(
                    bra.ltot + ket.ltot, p * q / (p + q), P - Q
                )
                pref = two_pi_pow / (p * q * math.sqrt(p + q))
                eket = ket.ebra[j] * ket_parity
                out[n] += pref * (bra.ebra[i] @ R[ti, ui, vi] @ eket.T)
    return out


def concat_stacks(stacks: list[PairStack]) -> PairStack:
    """One stack holding the pairs of ``stacks`` (all of one class)."""
    first = stacks[0]
    assert all((s.las, s.lbs) == (first.las, first.lbs) for s in stacks)
    return PairStack(
        first.las,
        first.lbs,
        *(
            np.concatenate([getattr(s, name) for s in stacks])
            for name in ("p", "P", "ebra", "counts")
        ),
    )


def take_pairs(stack: PairStack, rows: np.ndarray) -> PairStack:
    """The sub-stack of the pairs ``rows`` of ``stack``, in that order."""
    counts = stack.counts[rows]
    prim = ragged_arange(stack.ptr[rows], counts)
    return PairStack(
        stack.las, stack.lbs,
        stack.p[prim], stack.P[prim], stack.ebra[prim], counts,
    )


def eri_bra_slab_scalar(pairs: PairSet, ij: int, kls: np.ndarray) -> np.ndarray:
    """``eri_bra_slab`` one quartet at a time through the scalar loops:
    ket ``n``'s block is the columns ``n`` of the slab."""
    bra = pairs.pair(ij)
    return np.concatenate(
        [eri_class_batch_scalar(bra, pairs.pair(kl))[0] for kl in kls]
        or [np.empty((bra.nfunc_pair, 0))],
        axis=1,
    )


def eri_shell_quartet_scalar(bra: PairStack, ket: PairStack) -> np.ndarray:
    """One quartet ``(ab|cd)`` by the scalar loops, shape
    ``(nfa, nfb, nfc, nfd)``."""
    return eri_class_batch_scalar(bra, ket).reshape(
        bra.nfa, bra.nfb, ket.nfa, ket.nfb
    )
