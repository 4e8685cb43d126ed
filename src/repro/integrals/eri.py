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

The kernel, in three stages
---------------------------
A Fock build asks for one thing: the slab of a fixed bra against a share
of kets of mixed classes (:func:`eri_bra_slab`).  The work splits along
what each step depends on, and each step runs once per value of that:

1. **Once per share** (:func:`_boys_stage`) — what depends on the two
   primitive pairs of a point only.  The share's kets are sorted by
   (ket order ``ltot``, class) with one stable ``argsort`` and gather
   their exponents and centers from the flat ``p`` / ``P`` of the
   :class:`PairSet`; the bra's primitives are broadcast against them (no
   per-point index arrays), giving ``p + q``, ``pq``, ``alpha``,
   ``P - Q``, the prefactor and ONE vectorized Boys evaluation at the
   share's highest order ``M`` over every point of the share.
2. **Once per distinct ket order** (:func:`_half_transform`) — what
   depends on the bra and on ``ltot`` of the ket, not on its class:
   :func:`~repro.integrals.hermite.hermite_from_boys` at the group's own
   ``lsum`` on rows ``0..lsum`` of the Boys values (no wasted orders),
   the gather to (bra component, ket component), prefactor x ket parity,
   and the bra half-transform, one ``matmul`` against the bra's E tensor
   and a ``reduceat`` over the bra primitives.  ``L|S`` and ``S|L``
   share it, as do ``L|L``, ``D|S`` and ``S|D``.
3. **Per ket class** (:func:`_ket_transform`) — only the ket E
   contraction, the ``reduceat`` over a ket's primitives, and the write
   into the slab's columns.

Sharing is exact.  Row ``m`` of ``boys(M, x)`` does not depend on ``M``
(the Taylor rows and the upward recursion are per order and per
element), so the slice a group reads is bitwise ``boys(lsum, x)``; the
recursion's compact order for ``lsum`` is a prefix of the one for any
higher order and never reads beyond its own rows; everything else in
stages 1 and 2 is element-wise per point.  :func:`eri_class_batch` is
the *paired* form — bra ``n`` against ket ``n``, the Schwarz diagonal
and one-quartet calls — written over the same three functions with
gathered points, so the arithmetic exists once.  This is the Python
analogue of the paper's vectorized ``twoei`` kernel.

The independence invariant
--------------------------
A quartet's block is **bitwise** the same whatever else is in the call
— alone, in any sub-share, in any order, in any chunk, slab or paired.
Every gate that compares the program with itself (ERI cache on/off,
kill-replay, checkpoint-resume) rests on it, because those runs batch
the same quartets differently.  It holds because nothing reduces
*across* pairs or quartets: the pair builder, the Boys function and the
Hermite recursion are element-wise per primitive pair / point, each
``matmul`` item is one primitive's own small GEMM on contiguous operands
of class-fixed shape (padding is part of the class, so it is the same in
every batch), and ``reduceat`` adds a quartet's primitives in their
stored order.  (One ``tensordot`` over the whole batch would be as fast
and breaks it: BLAS blocks the long axis differently for different batch
lengths.  And ``np.add.reduce(half.reshape(nk, nb, ...), axis=1)`` is
*not* bitwise ``np.add.reduceat(half, arange(0, n, nb), axis=0)``, which
is what every Fock byte so far was summed with: keep ``reduceat``.)

The memory cap
--------------
A share can hold thousands of points and stage 2 works in a few
thousand doubles per point at ``(dd|dd)``, so :data:`MAX_BATCH_DOUBLES`
bounds both stages *together*, splitting only at ket boundaries: stage 1
takes as many of the sorted kets as leave, beside the ``M + 6`` doubles
per point it keeps of them, room for stage 2 of the widest one; stage 2
then walks each order of that piece in runs of kets that fit the room
(always at least one ket).  By the invariant a split cannot change a
bit.
"""

from __future__ import annotations

import functools
import math
import weakref
from typing import NamedTuple, Sequence

import numpy as np

from repro.chem.basis.basisset import BasisSet
from repro.chem.basis.shell import CART_COMPONENTS, CompositeShell, Shell, ncart
from repro.integrals.boys import boys
from repro.integrals.hermite import (
    e_coefficients_1d,
    hermite_from_boys,
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
    p, P, prim_base:
        The ``p`` / ``P`` rows of every class, class after class: class
        ``c`` starts at ``prim_base[c]``.  What lets a share of kets of
        *mixed* classes gather its primitives in one indexing step.
    prim_start, prim_count:
        Pair ``n`` owns the rows ``prim_start[n] : prim_start[n] +
        prim_count[n]`` of ``p`` / ``P``.
    ltot, nfunc:
        Per pair, the Hermite order and the function-pair count of its
        class.
    ket_key:
        Per pair ``ltot * len(classes) + cls``: a share sorted by it has
        the kets of one Hermite order, and inside an order the kets of
        one class, side by side.
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
        self.prim_start = np.empty(ia.size, dtype=np.intp)
        classes, base = [], [0]
        # (np.unique would do, at the price of importing numpy.ma.)
        for c, value in enumerate(np.flatnonzero(np.bincount(code)).tolist()):
            members = np.flatnonzero(code == value)
            self.cls[members] = c
            self.row[members] = np.arange(members.size)
            classes.append(_build_class(flat, ia[members], ib[members]))
            stack = classes[-1].stack
            self.prim_start[members] = base[-1] + stack.ptr[:-1]
            base.append(base[-1] + stack.p.size)
        self.classes: tuple[PairClass, ...] = tuple(classes)
        stacks = [members.stack for members in classes]
        self.prim_base = base
        self.prim_count = flat.nprim[ia] * flat.nprim[ib]
        self.p = np.concatenate([stack.p for stack in stacks])
        self.P = np.concatenate([stack.P for stack in stacks])
        self.ltot = np.array([stack.ltot for stack in stacks])[self.cls]
        self.nfunc = np.array([stack.nfunc_pair for stack in stacks])[self.cls]
        self.ket_key = self.ltot * len(classes) + self.cls

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


def _stage2_doubles(lbra: int, lket: int, nfb: int) -> int:
    """Doubles of stage-2 intermediates per point: the (m, t, u, v) work
    set of the Hermite recursion, the gathered R matrix, the bra E
    tensor of the point and the half-transformed block."""
    ntb, ntk = _hermite_sum_index(lbra, lket).shape
    return math.comb(lbra + lket + 4, 4) + ntb * ntk + (ntb + ntk) * nfb


def _boys_stage(
    mmax: int, p: np.ndarray, P: np.ndarray, q: np.ndarray, Q: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Stage 1: what depends on the two primitive pairs of a point only.

    ``p`` / ``q`` (exponents) broadcast against each other, as do ``P``
    / ``Q`` (centers, ``(3, ...)``); the points are the broadcast shape,
    flattened.  Returns per point ``alpha`` (n,), ``P - Q`` as (3, n),
    the prefactor :math:`2\\pi^{5/2} / (pq\\sqrt{p+q})` (n,) and the Boys
    values ``F[m]`` (mmax + 1, n): ``mmax + 6`` doubles a point, which is
    what stage 1 keeps while stage 2 runs.
    """
    psum, pq = p + q, p * q
    alpha = (pq / psum).ravel()
    X = np.subtract(P, Q, order="C").reshape(3, -1)
    scale = (_TWO_PI_POW / (pq * np.sqrt(psum))).ravel()
    F = boys(mmax, alpha * (X[0] * X[0] + X[1] * X[1] + X[2] * X[2]))
    return alpha, X, scale, F


def _half_transform(
    lbra: int,
    lket: int,
    points: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    ebra: np.ndarray,
    seg_start: np.ndarray,
) -> np.ndarray:
    """Stage 2: what depends on the bra and on the *order* of the ket.

    The Hermite recursion at ``lbra + lket`` on the Boys rows it needs,
    the gather to (bra component, ket component), the prefactor and ket
    parity, and the bra E contraction summed over the bra primitives of
    every ket primitive (they begin at ``seg_start``).  ``ebra`` is
    ``(1, nb, nfb, ntb)`` for one bra broadcast over points laid out
    ``(ket primitive, nb)``, or ``(npoints, 1, nfb, ntb)`` gathered per
    point.  Returns ``(ket primitives, nfb, ntk)``.
    """
    alpha, X, scale, F = points
    gather = _hermite_sum_index(lbra, lket)
    R = hermite_from_boys(lbra + lket, alpha, X, F)
    M = R.take(gather, axis=1)  # (npoints, ntb, ntk)
    M *= (scale[:, None] * _ket_parity(lket))[:, None, :]
    half = np.matmul(ebra, M.reshape((-1, ebra.shape[1]) + gather.shape))
    # reduceat, not reduce over a reshaped axis: the two differ in the
    # last bit, and every stored Fock byte was summed this way.
    return np.add.reduceat(
        half.reshape((-1,) + half.shape[2:]), seg_start, axis=0
    )


def _ket_transform(
    half: np.ndarray, eket: np.ndarray, seg_start: np.ndarray
) -> np.ndarray:
    """Stage 3, per ket class: the ket E contraction (the parity is
    already on ``half``), summed over the primitives of every ket.
    Returns the composite blocks ``(kets, nfb, nfk)``."""
    full = np.matmul(half, eket.transpose(0, 2, 1))
    return np.add.reduceat(full, seg_start, axis=0)


#: The registry ``_publish`` last wrote to, and its three ``eri.*``
#: metrics, looked up once per registry rather than once per call.
_published_to: tuple = (None, None, None, None)


def _publish(quartets: int, batch_sizes: list[int]) -> None:
    """One registry visit per kernel call: ``eri.boys_calls`` counts
    Boys evaluations, ``eri.batch_size`` the points of each."""
    global _published_to
    registry = get_metrics()
    if registry is None:
        return
    owner, counted, boys_calls, histogram = _published_to
    if owner is not registry:
        counted = registry.counter("eri.quartets")
        boys_calls = registry.counter("eri.boys_calls")
        histogram = registry.histogram("eri.batch_size")
        _published_to = (registry, counted, boys_calls, histogram)
    counted.inc(quartets)
    boys_calls.inc(len(batch_sizes))
    for size in batch_sizes:
        histogram.observe(size)


def eri_bra_slab(pairs: PairSet, ij: int, kls: np.ndarray) -> np.ndarray:
    """The slab ``X[(i j), m]`` of pair ``ij`` of ``pairs`` as the bra
    against the pairs ``kls`` as kets — what a Fock build asks for.

    Columns run over the kets' function pairs, ket after ket in the
    order of ``kls``, each block row-major.  The kets may be of any
    classes; see the module docstring for the three stages, the
    independence invariant and the memory cap.
    """
    bra = pairs.pair(ij)
    nb, nfb, lbra = bra.p.size, bra.nfunc_pair, bra.ltot
    ebra, bra_P = bra.ebra[None], bra.P.T[:, None, :]
    nk = kls.size
    width = pairs.nfunc[kls]
    column = width.cumsum() - width
    out = np.empty((nfb, int(width.sum())))

    # Kets of one order side by side, and inside an order kets of one
    # class; per sorted ket where its order and where its class end.
    key = pairs.ket_key[kls]
    order = key.argsort(kind="stable")
    kets, key = kls[order], key[order]
    class_stop = key.searchsorted(key, side="right").tolist()
    lket = pairs.ltot[kets]
    group_stop = lket.searchsorted(lket, side="right").tolist()
    cls, lket = pairs.cls[kets].tolist(), lket.tolist()
    count = pairs.prim_count[kets]
    prim_stops = np.concatenate(([0], count.cumsum()))
    prim_stop = prim_stops.tolist()
    # Doubles per ket that stage 1 keeps (cumulative) and that stage 2
    # works in (per ket, and cumulative for the walk inside an order).
    mmax = lbra + (lket[-1] if nk else 0)
    kept = prim_stops * ((mmax + 6) * nb)
    work = count * np.array(
        [nb * _stage2_doubles(lbra, l, nfb) for l in range(mmax - lbra + 1)]
    ).take(lket)
    work_stop = np.concatenate(([0], work.cumsum()))

    batch_sizes = []
    a = 0
    while a < nk:
        # Stage 1 takes the kets a..b: as many as leave, beside what it
        # keeps of them, room for stage 2 of the widest one.
        need = kept[a + 1 :] - kept[a] + np.maximum.accumulate(work[a:])
        b = a + max(1, int(need.searchsorted(MAX_BATCH_DOUBLES, side="right")))
        room = MAX_BATCH_DOUBLES - (kept[b] - kept[a])
        prim = ragged_arange(pairs.prim_start[kets[a:b]], count[a:b])
        points = _boys_stage(
            mmax, bra.p, bra_P,
            pairs.p[prim][:, None], pairs.P[prim].T[:, :, None],
        )
        batch_sizes.append(nb * prim.size)
        first = prim_stop[a]
        c = a
        while c < b:
            # Stage 2 takes the kets c..d of one order that fit the room.
            d = int(work_stop.searchsorted(work_stop[c] + room, side="right")) - 1
            d = min(max(d, c + 1), b, group_stop[c])
            k0, k1 = prim_stop[c] - first, prim_stop[d] - first
            half = _half_transform(
                lbra, lket[c],
                [x[..., k0 * nb : k1 * nb] for x in points],
                ebra, np.arange(0, (k1 - k0) * nb, nb),
            )
            e = c
            while e < d:
                # Stage 3 takes the kets e..f of one class.
                f = min(d, class_stop[e])
                stack = pairs.classes[cls[e]].stack
                r0, r1 = prim_stop[e] - first, prim_stop[f] - first
                blocks = _ket_transform(
                    half[r0 - k0 : r1 - k0],
                    stack.ebra.take(prim[r0:r1] - pairs.prim_base[cls[e]], axis=0),
                    prim_stops[e:f] - prim_stop[e],
                )
                # (ket, ij, kl) -> the kets' columns, side by side;
                # every ket of a class is equally wide.
                cols = column[order[e:f], None] + np.arange(stack.nfunc_pair)
                out[:, cols.ravel()] = blocks.transpose(1, 0, 2).reshape(nfb, -1)
                e = f
            c = d
        a = b
    _publish(nk, batch_sizes)
    return out


def eri_class_batch(bra: PairStack, ket: PairStack) -> np.ndarray:
    """Contracted ERI blocks :math:`(ab|cd)_n` of paired stacks: quartet
    ``n`` is bra pair ``n`` against ket pair ``n`` (the Schwarz diagonal;
    one quartet).  The stages of :func:`eri_bra_slab` over gathered
    points, a chunk of quartets at a time under the same cap.

    Returns
    -------
    numpy.ndarray
        Shape ``(ket.npairs, nfunc_pair_bra, nfunc_pair_ket)``: per
        quartet the whole composite block, function pairs of either
        side row-major.
    """
    nq = ket.npairs
    if bra.npairs != nq:
        raise ValueError(
            f"cannot pair {bra.npairs} bras with {nq} kets: one bra per ket"
        )
    lsum = bra.ltot + ket.ltot
    per_point = lsum + 6 + _stage2_doubles(bra.ltot, ket.ltot, bra.nfunc_pair)
    stops = (bra.counts * ket.counts).cumsum()

    out = np.empty((nq, bra.nfunc_pair, ket.nfunc_pair))
    batch_sizes = []
    q0 = 0
    while q0 < nq:
        budget = (stops[q0 - 1] if q0 else 0) + MAX_BATCH_DOUBLES // per_point
        q1 = max(q0 + 1, int(stops.searchsorted(budget, side="right")))
        k0, k1 = ket.ptr[q0], ket.ptr[q1]
        # One point per (ket primitive, bra primitive of its quartet),
        # bra primitive fastest: kp / bp index the primitive of a point.
        owner = ket.owner[k0:k1]
        nb = bra.counts[owner]
        seg_stop = nb.cumsum()
        seg_start = seg_stop - nb
        kp = np.arange(k0, k1).repeat(nb)
        bp = np.arange(seg_stop[-1]) + (bra.ptr[owner] - seg_start).repeat(nb)

        points = _boys_stage(lsum, bra.p[bp], bra.P[bp].T, ket.p[kp], ket.P[kp].T)
        half = _half_transform(
            bra.ltot, ket.ltot, points, bra.ebra[bp][:, None], seg_start
        )
        out[q0:q1] = _ket_transform(half, ket.ebra[k0:k1], ket.ptr[q0:q1] - k0)
        batch_sizes.append(kp.size)
        q0 = q1
    _publish(nq, batch_sizes)
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
