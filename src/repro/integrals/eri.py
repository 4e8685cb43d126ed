"""Electron-repulsion integrals over shell quartets (McMurchie-Davidson).

The quartet kernel follows the factorized form

.. math::

   (ab|cd) = \\frac{2 \\pi^{5/2}}{p q \\sqrt{p+q}}
             \\sum_{tuv} E^{ab}_{tuv}
             \\sum_{\\tau\\nu\\phi} (-1)^{\\tau+\\nu+\\phi}
             E^{cd}_{\\tau\\nu\\phi}
             R^0_{t+\\tau,\\,u+\\nu,\\,v+\\phi}(\\alpha, P - Q),

with :math:`\\alpha = pq/(p+q)`.  Per contracted shell *pair* the
E-product tensor is precomputed once (:class:`ShellPair`), over the
``t + u + v <= l_a + l_b`` Hermite components only.

The ragged class stack
----------------------
:func:`eri_class_batch` is the one two-electron kernel.  It evaluates a
whole *class* of quartets per call: every bra of one ``(l_a, l_b)``
against every ket of one ``(l_c, l_d)``, so all E tensors of a side
share a shape.  The pairs of a side are a :class:`PairStack` — their
primitive-pair data (``p``, ``P``, ``coef``, ``ebra``) concatenated
along one axis with segment offsets ``ptr``, *ragged*, no padding, so a
six-primitive core pair and a one-primitive polarisation pair sit side
by side.  Every primitive combination of every quartet becomes one
point of ONE :func:`~repro.integrals.hermite.hermite_coulomb_batch`
call (hence one vectorized Boys evaluation per class, not per quartet);
the two E contractions are one stacked ``matmul`` each, per primitive,
and ``np.add.reduceat`` sums the primitives of a quartet.  This is the
Python analogue of the paper's vectorized ``twoei`` kernel.
:func:`eri_shell_quartet` is the one-quartet call of the same kernel.

The independence invariant
--------------------------
A quartet's block is **bitwise** the same whatever else is in the batch
— alone, in any sub-share, in any chunk.  Every gate that compares the
program with itself (ERI cache on/off, kill-replay, checkpoint-resume)
rests on it, because those runs batch the same quartets differently.
It holds because nothing below reduces *across* quartets: the Boys
function and the Hermite recursion are element-wise per point, each
``matmul`` item is one primitive's own small GEMM on contiguous
operands of class-fixed shape, and ``reduceat`` adds a quartet's
primitives in their stored order.  (One ``tensordot`` over the whole
batch would be as fast and breaks it: BLAS blocks the long axis
differently for different batch lengths.)

The memory cap
--------------
A class can hold thousands of points and the intermediates are a few
thousand doubles per point at ``(dd|dd)``, so the kernel walks the
quartets in chunks of at most :data:`MAX_BATCH_DOUBLES` doubles of
per-point intermediates (always at least one quartet).  By the
invariant, chunking cannot change a result.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

import numpy as np

from repro.chem.basis.shell import Shell, ncart
from repro.integrals.hermite import (
    e_coefficients_3d,
    hermite_coulomb_batch,
    hermite_index,
    hermite_tuv,
)
from repro.obs.metrics import get_metrics

#: Cap on the per-point intermediates of one kernel chunk (the Hermite
#: work arrays, the gathered R and E tensors, the half-transformed
#: block), in doubles: 1 MiB.
MAX_BATCH_DOUBLES = 1 << 17

_TWO_PI_POW = 2.0 * math.pi ** 2.5


def ragged_arange(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(s, s + c)`` over ``zip(starts, counts)``."""
    ends = counts.cumsum()
    return np.arange(ends[-1] if ends.size else 0) + (
        starts - (ends - counts)
    ).repeat(counts)


@functools.cache
def _ket_parity(ltot: int) -> np.ndarray:
    """:math:`(-1)^{t+u+v}` per compact Hermite component of a ket."""
    parity = (-1.0) ** hermite_tuv(ltot).sum(axis=1)
    parity.flags.writeable = False
    return parity


@functools.cache
def _hermite_sum_index(lbra: int, lket: int) -> np.ndarray:
    """``index[c_bra, c_ket]``: compact row of ``tuv_bra + tuv_ket``."""
    s = hermite_tuv(lbra)[:, None, :] + hermite_tuv(lket)[None, :, :]
    index = hermite_index(lbra + lket)[s[..., 0], s[..., 1], s[..., 2]]
    index.flags.writeable = False
    return index


class PairStack:
    """Ragged stack of the primitive-pair data of same-class shell pairs.

    Pair ``n`` owns the primitive rows ``ptr[n]:ptr[n+1]`` of

    * ``p`` — total exponents ``a + b``, shape ``(nprim,)``;
    * ``P`` — Gaussian-product centers, ``(nprim, 3)``;
    * ``coef`` — contraction-coefficient products, ``(nprim,)``;
    * ``ebra`` — the E-product tensor mapping the compact Hermite
      components (:func:`~repro.integrals.hermite.hermite_tuv` of
      ``la + lb``) to Cartesian function pairs,
      ``(nprim, nfunc_pair, ncomp)``.

    The same tensor serves a pair in the ket role: the ket parity
    :math:`(-1)^{t+u+v}` (``parity``) rides on the per-point prefactor
    inside the kernel, so no signed copy is stored.
    """

    def __init__(
        self,
        la: int,
        lb: int,
        p: np.ndarray,
        P: np.ndarray,
        coef: np.ndarray,
        ebra: np.ndarray,
        counts: np.ndarray,
    ) -> None:
        self.la, self.lb = la, lb
        self.ltot = la + lb
        self.nfunc_pair = ncart(la) * ncart(lb)
        self.p, self.P, self.coef, self.ebra = p, P, coef, ebra
        #: Primitive pairs per shell pair, their segment offsets, and
        #: the shell pair of each primitive row.
        self.counts = counts
        self.ptr = np.zeros(counts.size + 1, dtype=np.intp)
        counts.cumsum(out=self.ptr[1:])
        self.owner = np.arange(counts.size).repeat(counts)
        self.parity = _ket_parity(self.ltot)

    @property
    def npairs(self) -> int:
        """Number of shell pairs in the stack."""
        return self.counts.size

    @classmethod
    def concat(cls, pairs: Sequence["PairStack"]) -> "PairStack":
        """One stack holding the pairs of ``pairs`` (all of one class)."""
        first = pairs[0]
        if any((s.la, s.lb) != (first.la, first.lb) for s in pairs):
            raise ValueError("a PairStack holds pairs of one (la, lb) class")
        return cls(
            first.la,
            first.lb,
            *(
                np.concatenate([getattr(s, name) for s in pairs])
                for name in ("p", "P", "coef", "ebra", "counts")
            ),
        )

    def take(self, rows: np.ndarray) -> "PairStack":
        """The sub-stack of the pairs ``rows``, in that order."""
        counts = self.counts[rows]
        prim = ragged_arange(self.ptr[rows], counts)
        return PairStack(
            self.la, self.lb,
            self.p[prim], self.P[prim], self.coef[prim], self.ebra[prim],
            counts,
        )


class ShellPair(PairStack):
    """Precomputed Hermite expansion data of one contracted shell pair.

    A :class:`PairStack` of one: the Gaussian-product data of every
    primitive combination of the pure shells ``sha``, ``shb``.
    """

    def __init__(self, sha: Shell, shb: Shell) -> None:
        self.sha = sha
        self.shb = shb
        la, lb = sha.l, shb.l
        tt, uu, vv = hermite_tuv(la + lb).T

        comps_a, comps_b = sha.components, shb.components
        A, B = sha.center, shb.center
        nprim = sha.nprim * shb.nprim
        p = np.empty(nprim)
        P = np.empty((nprim, 3))
        coef = np.empty(nprim)
        ebra = np.empty((nprim, sha.nfunc * shb.nfunc, tt.size))
        n = 0
        for a, ca in zip(sha.exps, sha.coefs):
            for b, cb in zip(shb.exps, shb.coefs):
                Ex, Ey, Ez = e_coefficients_3d(la, lb, a, b, A, B)
                row = 0
                for (ax, ay, az) in comps_a:
                    for (bx, by, bz) in comps_b:
                        ebra[n, row] = (
                            Ex[ax, bx, tt] * Ey[ay, by, uu] * Ez[az, bz, vv]
                        )
                        row += 1
                p[n] = a + b
                P[n] = (a * A + b * B) / p[n]
                coef[n] = ca * cb
                n += 1
        super().__init__(la, lb, p, P, coef, ebra, np.array([nprim]))


def make_shell_pairs(shells: tuple[Shell, ...] | list[Shell]) -> dict[tuple[int, int], ShellPair]:
    """Build the :class:`ShellPair` cache for all pairs ``i >= j``.

    Keys are (bra_index, ket_index) into ``shells``; only the lower
    triangle is stored since ``ShellPair(i, j)`` serves both orders via
    transposition at the quartet level.
    """
    pairs: dict[tuple[int, int], ShellPair] = {}
    for i, sa in enumerate(shells):
        for j, sb in enumerate(shells[: i + 1]):
            pairs[(i, j)] = ShellPair(sa, sb)
    return pairs


def eri_class_batch(bra: PairStack, ket: PairStack) -> np.ndarray:
    """Contracted ERI blocks :math:`(ab|cd)_n` of one class of quartets.

    Quartet ``n`` is bra pair ``n`` against ket pair ``n``; a bra stack
    of one pair is broadcast against every ket (the fixed-bra share of a
    Fock build).  See the module docstring for the layout, the
    independence invariant and the memory cap.

    Returns
    -------
    numpy.ndarray
        Shape ``(ket.npairs, nfunc_pair_bra, nfunc_pair_ket)``, function
        pairs in canonical Cartesian row-major order.
    """
    nq = ket.npairs
    if bra.npairs not in (1, nq):
        raise ValueError(
            f"cannot pair {bra.npairs} bras with {nq} kets: "
            "the bra stack holds one pair or one per ket"
        )
    lsum = bra.ltot + ket.ltot
    gather = _hermite_sum_index(bra.ltot, ket.ltot)
    ntb, ntk = gather.shape
    nfb, nfk = bra.nfunc_pair, ket.nfunc_pair
    if bra.npairs == nq:
        bra_start, bra_count = bra.ptr[:-1], bra.counts
    else:
        bra_start = np.zeros(nq, dtype=np.intp)
        bra_count = np.full(nq, bra.counts[0])

    # Doubles of intermediates per point: the (m, t, u, v) work set of
    # the Hermite recursion, the gathered R matrix, the gathered bra E
    # tensor and the half-transformed block.
    per_point = math.comb(lsum + 4, 4) + ntb * ntk + (ntb + ntk) * nfb
    stops = (bra_count * ket.counts).cumsum()
    registry = get_metrics()

    out = np.empty((nq, nfb, nfk))
    q0 = 0
    while q0 < nq:
        budget = (stops[q0 - 1] if q0 else 0) + MAX_BATCH_DOUBLES // per_point
        q1 = max(q0 + 1, int(stops.searchsorted(budget, side="right")))
        k0, k1 = ket.ptr[q0], ket.ptr[q1]
        # One point per (ket primitive, bra primitive of its quartet),
        # bra primitive fastest: kp / bp index the primitive of a point.
        owner = ket.owner[k0:k1]
        nb = bra_count[owner]
        seg_stop = nb.cumsum()
        seg_start = seg_stop - nb
        kp = np.arange(k0, k1).repeat(nb)
        bp = np.arange(seg_stop[-1]) + (bra_start[owner] - seg_start).repeat(nb)

        p, q = bra.p[bp], ket.p[kp]
        psum, pq = p + q, p * q
        R = hermite_coulomb_batch(lsum, pq / psum, bra.P[bp] - ket.P[kp])
        M = R.take(gather, axis=1)  # (npoints, ntb, ntk)
        scale = (
            _TWO_PI_POW * bra.coef[bp] * ket.coef[kp] / (pq * np.sqrt(psum))
        )
        M *= (scale[:, None] * ket.parity)[:, None, :]

        # out[n] = sum_j (sum_i E_bra[i] @ M[i, j]) @ E_ket[j].T, the ket
        # parity already on M.
        half = np.add.reduceat(np.matmul(bra.ebra[bp], M), seg_start, axis=0)
        full = np.matmul(half, ket.ebra[k0:k1].transpose(0, 2, 1))
        out[q0:q1] = np.add.reduceat(full, ket.ptr[q0:q1] - k0, axis=0)

        if registry is not None:
            registry.counter("eri.quartets").inc(q1 - q0)
            registry.counter("eri.boys_calls").inc()
            registry.histogram("eri.batch_size").observe(kp.size)
        q0 = q1
    return out


def eri_shell_quartet(bra: ShellPair, ket: ShellPair) -> np.ndarray:
    """Contracted ERI block :math:`(ab|cd)` for one shell quartet.

    The one-quartet call of :func:`eri_class_batch`.

    Returns
    -------
    numpy.ndarray
        Shape ``(nfa, nfb, nfc, nfd)`` in canonical Cartesian order.
    """
    return eri_class_batch(bra, ket).reshape(
        bra.sha.nfunc, bra.shb.nfunc, ket.sha.nfunc, ket.shb.nfunc
    )


def eri_quartet_shells(sa: Shell, sb: Shell, sc: Shell, sd: Shell) -> np.ndarray:
    """Convenience quartet evaluation without a pair cache (tests)."""
    return eri_shell_quartet(ShellPair(sa, sb), ShellPair(sc, sd))
