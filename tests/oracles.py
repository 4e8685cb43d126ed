"""Scalar reference implementations the batched integral kernels are
tested against.

These are the seed's primitive-loop spellings — one point, one Boys
call, one ``(t, u, v)`` target at a time — kept out of ``src/`` because
nothing on a run path calls them.  They share the pair E tensors
(:class:`~repro.integrals.eri.ShellPair`) and the Boys function with
the production kernel; the Hermite-Coulomb recursion, the primitive
loops and the contraction order are independent of it.
"""

from __future__ import annotations

import math

import numpy as np

from repro.integrals.boys import boys
from repro.integrals.eri import PairStack, ShellPair
from repro.integrals.hermite import hermite_tuv


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
        m = n if bra.npairs > 1 else 0
        for i in range(bra.ptr[m], bra.ptr[m + 1]):
            p, P = bra.p[i], bra.P[i]
            for j in range(ket.ptr[n], ket.ptr[n + 1]):
                q, Q = ket.p[j], ket.P[j]
                R = hermite_coulomb(
                    bra.ltot + ket.ltot, p * q / (p + q), P - Q
                )
                pref = (
                    bra.coef[i] * ket.coef[j] * two_pi_pow
                    / (p * q * math.sqrt(p + q))
                )
                eket = ket.ebra[j] * ket_parity
                out[n] += pref * (bra.ebra[i] @ R[ti, ui, vi] @ eket.T)
    return out


def eri_shell_quartet_scalar(bra: ShellPair, ket: ShellPair) -> np.ndarray:
    """One quartet ``(ab|cd)`` by the scalar loops, shape
    ``(nfa, nfb, nfc, nfd)``."""
    return eri_class_batch_scalar(bra, ket).reshape(
        bra.sha.nfunc, bra.shb.nfunc, ket.sha.nfunc, ket.shb.nfunc
    )
