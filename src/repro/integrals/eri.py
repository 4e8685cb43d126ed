"""Shell-pair data and electron-repulsion integrals (McMurchie-Davidson).

The quartet kernel follows the factorized form

.. math::

   (ab|cd) = \\frac{2 \\pi^{5/2}}{p q \\sqrt{p+q}}
             \\sum_{tuv} E^{ab}_{tuv}
             \\sum_{\\tau\\nu\\phi} (-1)^{\\tau+\\nu+\\phi}
             E^{cd}_{\\tau\\nu\\phi}
             R^0_{t+\\tau,\\,u+\\nu,\\,v+\\phi}(\\alpha, P - Q),

with :math:`\\alpha = pq/(p+q)`.  Everything that depends on one side
only — exponents, product centers, the E-product tensor — is *pair*
data, built once per basis and shared by every integral that needs it.

Composite pairs and their classes
---------------------------------
The unit is the *composite* shell pair: both sides are GAMESS shells,
i.e. one or more pure sub-shells on one center over one set of
exponents (the fused sp "L" shell is the case that matters).  Sub-shells
share all primitive work — :math:`p`, :math:`P` and the 1-D E tables —
so a composite pair is ONE row of pair data and an ``(LL|LL)`` quartet
is one kernel quartet, not sixteen.  Pairs are grouped by *composite
class*, the sub-shell ``l`` tuples of both sides (``S|S``, ``L|S``,
``L|L``, ``D|L``, ...): inside a class every array shape is fixed.  A
pure shell is a composite of one sub-shell; nothing below distinguishes
the two.

:class:`PairSet` builds the classes of a list of pairs with array
operations only — exponents and centers gathered per class, the 1-D E
recursion (:func:`~repro.integrals.hermite.e_coefficients_1d`) run once
per class over every primitive pair and all three axes, up to
``l_b + 2`` so that the same tables give overlap and kinetic energy.
:func:`pair_stacks` memoises the set of a basis' canonical composite
pairs weakly per :class:`~repro.chem.basis.basisset.BasisSet`: S, T, V,
the Schwarz bounds and every :class:`~repro.core.quartets.QuartetEngine`
of one basis read one set, and it dies with the basis.

The padded E tensor
-------------------
A class's pairs are a :class:`PairStack`: their primitive-pair data
concatenated along one axis with segment offsets ``ptr`` — *ragged*, no
padding along that axis, so a six-primitive core pair and a
one-primitive polarisation pair sit side by side.  Per primitive pair
``ebra`` maps the compact Hermite components of order
``lmax_a + lmax_b`` (:func:`~repro.integrals.hermite.hermite_tuv`) to
the whole composite function-pair block, row-major over the functions
of both sides, sub-shell after sub-shell.  Rows of a sub-pair of lower
``l_a + l_b`` are exact zeros beyond their own order (the E tables are
zero there; nothing is ever multiplied into them).  The contraction
coefficients are folded into the rows — an L shell's s and p share
exponents, not coefficients — so the kernel carries no per-primitive
coefficient.

The kernel
----------
:func:`eri_class_batch` is the one two-electron kernel.  It evaluates a
whole class of quartets per call: every bra of one composite class
against every ket of one composite class.  Every primitive combination
of every quartet is one point of ONE
:func:`~repro.integrals.hermite.hermite_coulomb_batch` call (hence one
vectorized Boys evaluation per class, not per quartet); the two E
contractions are one stacked ``matmul`` each, per primitive, and
``np.add.reduceat`` sums the primitives of a quartet.  Its output rows
*are* the composite blocks.  This is the Python analogue of the paper's
vectorized ``twoei`` kernel.

The independence invariant
--------------------------
A quartet's block is **bitwise** the same whatever else is in the batch
— alone, in any sub-share, in any chunk.  Every gate that compares the
program with itself (ERI cache on/off, kill-replay, checkpoint-resume)
rests on it, because those runs batch the same quartets differently.
It holds because nothing reduces *across* pairs or quartets: the pair
builder, the Boys function and the Hermite recursion are element-wise
per primitive pair / point, each ``matmul`` item is one primitive's own
small GEMM on contiguous operands of class-fixed shape (padding is part
of the class, so it is the same in every batch), and ``reduceat`` adds
a quartet's primitives in their stored order.  (One ``tensordot`` over
the whole batch would be as fast and breaks it: BLAS blocks the long
axis differently for different batch lengths.)

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
import weakref
from typing import NamedTuple, Sequence

import numpy as np

from repro.chem.basis.basisset import BasisSet
from repro.chem.basis.shell import CART_COMPONENTS, CompositeShell, Shell, ncart
from repro.integrals.hermite import (
    e_coefficients_1d,
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


# -- pair data --------------------------------------------------------------------


class PairStack:
    """Ragged stack of the primitive-pair data of same-class shell pairs.

    ``las`` / ``lbs`` are the sub-shell angular momenta of the two sides
    (the composite class).  Pair ``n`` owns the primitive rows
    ``ptr[n]:ptr[n+1]`` of

    * ``p`` — total exponents ``a + b``, shape ``(nprim,)``;
    * ``P`` — Gaussian-product centers, ``(nprim, 3)``;
    * ``ebra`` — the padded E-product tensor, contraction coefficients
      folded in: compact Hermite components of order ``ltot =
      max(las) + max(lbs)`` to the ``nfa * nfb`` function pairs of the
      composite block, ``(nprim, nfunc_pair, ncomp)``.

    The same tensor serves a pair in the ket role: the ket parity
    :math:`(-1)^{t+u+v}` (``parity``) rides on the per-point prefactor
    inside the kernel, so no signed copy is stored.
    """

    def __init__(
        self,
        las: tuple[int, ...],
        lbs: tuple[int, ...],
        p: np.ndarray,
        P: np.ndarray,
        ebra: np.ndarray,
        counts: np.ndarray,
    ) -> None:
        self.las, self.lbs = las, lbs
        self.ltot = max(las) + max(lbs)
        #: Functions of either side of the composite block.
        self.nfa = sum(map(ncart, las))
        self.nfb = sum(map(ncart, lbs))
        self.nfunc_pair = self.nfa * self.nfb
        self.p, self.P, self.ebra = p, P, ebra
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
        if any((s.las, s.lbs) != (first.las, first.lbs) for s in pairs):
            raise ValueError("a PairStack holds pairs of one composite class")
        return cls(
            first.las,
            first.lbs,
            *(
                np.concatenate([getattr(s, name) for s in pairs])
                for name in ("p", "P", "ebra", "counts")
            ),
        )

    def take(self, rows: np.ndarray) -> "PairStack":
        """The sub-stack of the pairs ``rows``, in that order."""
        counts = self.counts[rows]
        prim = ragged_arange(self.ptr[rows], counts)
        return PairStack(
            self.las, self.lbs,
            self.p[prim], self.P[prim], self.ebra[prim], counts,
        )

    def pair(self, n: int) -> "PairStack":
        """Pair ``n`` alone, as views of this stack's rows."""
        rows = slice(self.ptr[n], self.ptr[n + 1])
        return PairStack(
            self.las, self.lbs,
            self.p[rows], self.P[rows], self.ebra[rows],
            self.counts[n : n + 1],
        )


def _subshells(side: Shell | CompositeShell) -> tuple[Shell, ...]:
    return side.subshells if isinstance(side, CompositeShell) else (side,)


@functools.cache
def _side_functions(ls: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Per function of a composite side, sub-shell after sub-shell: its
    Cartesian powers ``(nf, 3)`` and the sub-shell it belongs to."""
    powers = np.array([c for l in ls for c in CART_COMPONENTS[l]], dtype=np.intp)
    sub = np.repeat(np.arange(len(ls)), [ncart(l) for l in ls])
    return powers, sub


class ClassRows(NamedTuple):
    """The function pairs (rows) of a composite class, row-major: per
    row the function index inside either side (``fa``, ``fb``), its
    Cartesian powers (``powa``, ``powb``, each ``(nrow, 3)``) and its
    sub-shell (``suba``, ``subb``)."""

    fa: np.ndarray
    fb: np.ndarray
    powa: np.ndarray
    powb: np.ndarray
    suba: np.ndarray
    subb: np.ndarray


@functools.cache
def class_rows(las: tuple[int, ...], lbs: tuple[int, ...]) -> ClassRows:
    """The (read-only, shared) row table of the class ``las | lbs``."""
    (pa, sa), (pb, sb) = _side_functions(las), _side_functions(lbs)
    fa = np.repeat(np.arange(len(pa)), len(pb))
    fb = np.tile(np.arange(len(pb)), len(pa))
    rows = ClassRows(fa, fb, pa[fa], pb[fb], sa[fa], sb[fb])
    for array in rows:
        array.flags.writeable = False
    return rows


class PairClass(NamedTuple):
    """The pairs of one composite class of a :class:`PairSet`.

    ``stack`` is what the Coulomb kernels read.  The rest serves the
    one-electron matrices: row ``n`` of the stack pairs side ``ia[n]``
    with side ``ib[n]``; per primitive pair ``b`` is the exponent on the
    second side, ``coef[row]`` the contraction-coefficient product of
    every function pair and ``s1d[i, j, axis]`` the 1-D overlap table
    :math:`E_0^{ij}` up to ``j = max(lbs) + 2``.
    """

    stack: PairStack
    ia: np.ndarray
    ib: np.ndarray
    b: np.ndarray
    coef: np.ndarray
    s1d: np.ndarray


class _Sides(NamedTuple):
    """The shells a :class:`PairSet` draws from, flattened: per side its
    sub-shell momenta, primitive count, first primitive and center; per
    primitive its exponent and, per sub-shell (zero beyond a side's
    own), its contraction coefficient."""

    keys: list[tuple[int, ...]]
    nprim: np.ndarray
    start: np.ndarray
    centers: np.ndarray
    exps: np.ndarray
    coefs: np.ndarray


class PairSet:
    """Pair data of a list of shell pairs, stacked per composite class.

    Parameters
    ----------
    sides:
        The shells the pairs draw from, pure (:class:`Shell`) or
        composite (:class:`CompositeShell`).
    ia, ib:
        Pair ``n`` is ``sides[ia[n]]`` with ``sides[ib[n]]``.

    Attributes
    ----------
    classes:
        One :class:`PairClass` per composite class present, its rows in
        ascending pair order.
    cls, row:
        Pair ``n`` is row ``row[n]`` of ``classes[cls[n]].stack``.
    """

    def __init__(
        self,
        sides: Sequence[Shell | CompositeShell],
        ia: np.ndarray,
        ib: np.ndarray,
    ) -> None:
        # Flatten the sides once (a loop over shells, not over pairs).
        subs = [_subshells(side) for side in sides]
        keys = [tuple(s.l for s in sub) for sub in subs]
        nprim = np.array([sub[0].nprim for sub in subs])
        start = nprim.cumsum() - nprim
        coefs = np.zeros((max(map(len, keys)), nprim.sum()))
        for sub, lo in zip(subs, start.tolist()):
            for s, shell in enumerate(sub):
                coefs[s, lo : lo + shell.nprim] = shell.coefs
        flat = _Sides(
            keys, nprim, start,
            np.array([sub[0].center for sub in subs]),
            np.concatenate([sub[0].exps for sub in subs]),
            coefs,
        )

        ia, ib = np.asarray(ia, dtype=np.intp), np.asarray(ib, dtype=np.intp)
        kinds = {key: n for n, key in enumerate(dict.fromkeys(keys))}
        kind = np.array([kinds[key] for key in keys])
        code = kind[ia] * len(kinds) + kind[ib]
        self.cls = np.empty(ia.size, dtype=np.intp)
        self.row = np.empty(ia.size, dtype=np.intp)
        classes = []
        # (np.unique would do, at the price of importing numpy.ma.)
        for c, value in enumerate(np.flatnonzero(np.bincount(code)).tolist()):
            members = np.flatnonzero(code == value)
            self.cls[members] = c
            self.row[members] = np.arange(members.size)
            classes.append(_build_class(flat, ia[members], ib[members]))
        self.classes: tuple[PairClass, ...] = tuple(classes)

    def pair(self, n: int) -> PairStack:
        """The stack of pair ``n`` alone."""
        return self.classes[self.cls[n]].stack.pair(self.row[n])


def _build_class(sides: _Sides, ia: np.ndarray, ib: np.ndarray) -> PairClass:
    """Pair data of the pairs ``(ia[n], ib[n])``, all of one class."""
    las, lbs = sides.keys[ia[0]], sides.keys[ib[0]]
    la, lb = max(las), max(lbs)
    # One primitive row per (a-primitive, b-primitive) of every pair,
    # the b primitive fastest: gather exponents a, b (n,), centers A, B
    # (3, n) and per-sub-shell coefficients ca, cb (nsub, n).
    nb = sides.nprim[ib]
    counts = sides.nprim[ia] * nb
    owner = np.arange(ia.size).repeat(counts)
    local = ragged_arange(np.zeros_like(counts), counts)
    pa = sides.start[ia][owner] + local // nb[owner]
    pb = sides.start[ib][owner] + local % nb[owner]
    a, b = sides.exps[pa], sides.exps[pb]
    A, B = sides.centers[ia][owner].T, sides.centers[ib][owner].T
    ca, cb = sides.coefs[:, pa], sides.coefs[:, pb]

    p = a + b
    mu = a * b / p
    P = (a * A + b * B) / p
    AB = A - B
    # E[i, j, t, axis, n], to j = lb + 2: the t = 0 entries of the extra
    # columns are what the kinetic energy needs.
    E = e_coefficients_1d(la, lb + 2, P - A, P - B, p, mu * (AB * AB))

    rows = class_rows(las, lbs)
    powa, powb = rows.powa, rows.powb
    tuv = hermite_tuv(la + lb)
    coef = ca[rows.suba] * cb[rows.subb]
    # ebra[row, c, n] = Ex[ax, bx, t_c] Ey[ay, by, u_c] Ez[az, bz, v_c]:
    # zero wherever a component exceeds the row's own order.
    ebra = E[powa[:, None, 0], powb[:, None, 0], tuv[:, 0], 0]
    ebra *= E[powa[:, None, 1], powb[:, None, 1], tuv[:, 1], 1]
    ebra *= E[powa[:, None, 2], powb[:, None, 2], tuv[:, 2], 2]
    ebra *= coef[:, None, :]
    stack = PairStack(
        las, lbs, p, np.ascontiguousarray(P.T),
        np.ascontiguousarray(ebra.transpose(2, 0, 1)), counts,
    )
    return PairClass(stack, ia, ib, b, coef, E[:, :, 0].copy())


class ShellPair(PairStack):
    """Pair data of one contracted shell pair: a :class:`PairStack` of
    one, built by the same code as the stacks of a whole basis
    (:class:`PairSet`).  Either side may be pure or composite."""

    def __init__(
        self, sha: Shell | CompositeShell, shb: Shell | CompositeShell
    ) -> None:
        s = PairSet((sha, shb), [0], [1]).classes[0].stack
        super().__init__(s.las, s.lbs, s.p, s.P, s.ebra, s.counts)


def make_shell_pairs(
    shells: Sequence[Shell | CompositeShell],
) -> dict[tuple[int, int], PairStack]:
    """The pair data of all pairs ``i >= j``, built class by class.

    Keys are (bra_index, ket_index) into ``shells``, values stacks of
    one pair; only the lower triangle is stored since pair ``(i, j)``
    serves both orders via transposition at the quartet level.
    """
    i, j = np.tril_indices(len(shells))
    pairs = PairSet(shells, i, j)
    return {
        key: pairs.pair(n) for n, key in enumerate(zip(i.tolist(), j.tolist()))
    }


_PAIR_STACKS: "weakref.WeakKeyDictionary[BasisSet, PairSet]" = (
    weakref.WeakKeyDictionary()
)


def pair_stacks(basis: BasisSet) -> PairSet:
    """The pair data of a basis: every canonical composite pair
    ``I >= J``, pair ``n`` being the combined index ``I (I + 1) / 2 + J``.

    Built on first use and kept for as long as the basis lives (a weak
    memo keyed by the instance; the set holds no reference back), so
    the one-electron matrices, the Schwarz bounds and every quartet
    engine of one basis share one set.
    """
    pairs = _PAIR_STACKS.get(basis)
    if pairs is None:
        i, j = np.tril_indices(basis.nshells)
        pairs = _PAIR_STACKS[basis] = PairSet(basis.composite_shells, i, j)
    return pairs


# -- the kernel ---------------------------------------------------------------------


def eri_class_batch(bra: PairStack, ket: PairStack) -> np.ndarray:
    """Contracted ERI blocks :math:`(ab|cd)_n` of one class of quartets.

    Quartet ``n`` is bra pair ``n`` against ket pair ``n``; a bra stack
    of one pair is broadcast against every ket (the fixed-bra share of a
    Fock build).  See the module docstring for the layout, the
    independence invariant and the memory cap.

    Returns
    -------
    numpy.ndarray
        Shape ``(ket.npairs, nfunc_pair_bra, nfunc_pair_ket)``: per
        quartet the whole composite block, function pairs of either
        side row-major.
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
        scale = _TWO_PI_POW / (pq * np.sqrt(psum))
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


def eri_shell_quartet(bra: PairStack, ket: PairStack) -> np.ndarray:
    """Contracted ERI block :math:`(ab|cd)` for one shell quartet.

    The one-quartet call of :func:`eri_class_batch`.

    Returns
    -------
    numpy.ndarray
        Shape ``(nfa, nfb, nfc, nfd)``, sub-shell after sub-shell and
        canonical Cartesian order inside each.
    """
    return eri_class_batch(bra, ket).reshape(bra.nfa, bra.nfb, ket.nfa, ket.nfb)


def eri_quartet_shells(sa: Shell, sb: Shell, sc: Shell, sd: Shell) -> np.ndarray:
    """Convenience quartet evaluation without a pair cache (tests)."""
    return eri_shell_quartet(ShellPair(sa, sb), ShellPair(sc, sd))
