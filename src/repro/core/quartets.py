"""Composite-shell quartet evaluation and the six-way Fock scatter.

:class:`QuartetEngine` is the workhorse shared by all three parallel
algorithms: it evaluates the ERI blocks of composite (GAMESS) shell
quartets and scatters the six Fock contributions of the paper's
eqs. (2a)-(2f) into an accumulation matrix ``W``.

Share-at-a-time evaluation
--------------------------
Integrals are evaluated a *share* at a time, not a quartet at a time,
and straight into the shape the Fock build consumes:
:meth:`QuartetEngine.slab` takes one bra (combined index ``ij``) and the
combined indices of a thread's kets and returns the slab
``X[(i j), m]`` — bra function pairs by the kets' function pairs, ket
after ket.  The pair data is the basis' own
(:func:`~repro.integrals.eri.pair_stacks`: one ragged
:class:`~repro.integrals.eri.PairStack` per composite pair class, shared
with the one-electron matrices, the Schwarz bounds and every other
engine of the basis).  A share is ONE
:func:`~repro.integrals.eri.eri_bra_slab` call, staged by what each step
depends on: the Boys function is evaluated once over every primitive
combination of the share, the Hermite recursion and the bra
half-transform run once per distinct ket order (``L|S`` and ``S|L``
together), and only the ket transform runs per ket class, its rows
written into the slab columns of their kets — an ``(LL|LL)`` quartet is
one kernel quartet, its s and p sub-blocks sharing every primitive
quantity.  :meth:`~QuartetEngine.composite_blocks` is the column split
of the same slab.  A ket's columns are bitwise independent of what else
is in the share (the kernel's independence invariant), so a share may be
split, reordered, or partly served from the cache without changing a bit
of the Fock matrix; the kernel bounds its own batch memory, both stages
under one cap.  With a :class:`~repro.integrals.cache.QuartetCache`
attached the slab of a share seen before *is* the stored array; the
cache counts hits, misses and evictions in quartets.

Accumulation convention
-----------------------
Each of the six element families is written in *one* orientation,
matching the paper's column-block organization:

======== ====================== =======================
family   update                 destination (row, col)
======== ====================== =======================
(i, j)   ``+2 X' D_kl``         ``(J-block, I-block)`` — the FI buffer
(i, k)   ``-1/2 X' D_jl``       ``(K-block, I-block)`` — the FI buffer
(i, l)   ``-1/2 X' D_jk``       ``(L-block, I-block)`` — the FI buffer
(j, k)   ``-1/2 X' D_il``       ``(K-block, J-block)`` — the FJ buffer
(j, l)   ``-1/2 X' D_ik``       ``(L-block, J-block)`` — the FJ buffer
(k, l)   ``+2 X' D_ij``         ``(K-block, L-block)`` — shared direct
======== ====================== =======================

with ``X' = X * fac`` (:func:`~repro.core.indexing.quartet_degeneracy_factor`).
The true two-electron matrix is recovered once at the end by
:func:`symmetrize_two_electron`: ``G = W + W^T``.  This identity holds
for diagonal families too (the derivation in the module tests), so no
diagonal correction is needed.

Batches of planned shares
-------------------------
The builders do not digest quartet by quartet, nor share by share.  A
share — one bra ``(i, j)`` against one thread's surviving kets — is
planned once (:class:`SharePlan`: the kets, the degeneracy factor of
every slab column; for direct SCF the kernel's
:class:`~repro.integrals.eri.KetSchedule` once the share is first
evaluated), and the plans of one bra *shape* ``(ni, nj)`` are digested
together: a :class:`BraBatch` lays their columns end to end — ``m``
runs over every ket *function* pair ``(kfun[m], lfun[m])``, plan after
plan, quartet after quartet, each block in its own ``(k, l)``
row-major order — and :meth:`QuartetEngine.digest` computes each
family once per batch.  Every family either reduces over bra axes or
over one plan's own columns, or acts element-wise along ``m``, so kets
of mixed shell classes and plans of different bras share a batch:

======== ============================== ===========================
family   reduces over                   result, destination rows
======== ============================== ===========================
(i, j)   ``m`` (the plan's columns)     ``(nj, ni)``, the J-block
(k, l)   ``i, j``                       ``(M,)``, ``(kfun, lfun)``
(i, k)   ``j``                          ``(ni, M)``, rows ``kfun``
(i, l)   ``j``                          ``(ni, M)``, rows ``lfun``
(j, k)   ``i``                          ``(nj, M)``, rows ``kfun``
(j, l)   ``i``                          ``(nj, M)``, rows ``lfun``
======== ============================== ===========================

A plan's six families are bitwise the same alone and in any batch —
the property the ERI kernel already has for a ket's columns — because
the arithmetic never lets the batch length choose an order: products
are element-wise, the sums over ``i`` / ``j`` are explicit additions in
index order, and the ``(i, j)`` sum runs over each plan's own columns
as one ``np.add.reduceat`` segment.  ``einsum``, ``@`` and ``.sum``
are not used: their summation order (blocking, pairwise sums, BLAS
kernels) depends on the array's shape, so the same plan would get
other last bits in another batch, and a last-bit change in ``F`` is a
different SCF iteration count on near-degenerate systems.  A column's
exchange record and ``(k, l)`` element are stored side by side
(:class:`Families`), so a plan's terms are a few contiguous slices.
*Where* they go is each algorithm's decision, fixed before any density
is seen: a thread's layout keeps an ``int32`` application index, built
in the cold build, of every term in the order it is added — plan after
plan in program order, its ``(i, j)`` block, then column after column
its record and its ``(k, l)`` element — and a warm build adds the
layout's terms with one ``np.add.at``, which adds repeated indices in
order, however the plans were batched or the grants blocked.

:meth:`QuartetEngine.scatter_general` is the per-quartet spelling of the
same arithmetic, kept as the oracle the batches are property-tested
against and for the e2e ledger's pinned per-quartet digestion sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from typing import NamedTuple

import numpy as np

from repro.chem.basis.basisset import BasisSet
from repro.core.indexing import (
    pair_index,
    quartet_degeneracy_factor,
    ragged_arange,
)
from repro.integrals.cache import QuartetCache
from repro.integrals.eri import (
    KetSchedule,
    PairSet,
    eri_bra_slab,
    ket_schedule,
    pair_stacks,
)
from repro.obs.tracer import get_tracer


def _sum_in_order(terms: np.ndarray, axis: int) -> np.ndarray:
    """The terms along ``axis`` added left to right, element-wise: the
    bits of an element depend on its own terms only (a NumPy reduction
    would pick its order from the array's shape)."""
    lead = (slice(None),) * axis
    out = terms[(*lead, 0)].copy()
    for n in range(1, terms.shape[axis]):
        out += terms[(*lead, n)]
    return out


def symmetrize_two_electron(W: np.ndarray) -> np.ndarray:
    """Recover the symmetric two-electron matrix: ``G = W + W^T``."""
    return W + W.T


@dataclass(eq=False, slots=True)
class SharePlan:
    """The density-independent half of digesting one share.

    Fixed by the bra, the share's kets and the basis: built once by
    :meth:`QuartetEngine.share_plan`, reusable every SCF cycle.  The
    per-column index data of a digestion lives in the
    :class:`BraBatch` the plan is digested in.  ``schedule`` is the
    kernel's :class:`~repro.integrals.eri.KetSchedule` of the share,
    built the first time an engine without a cache evaluates it and
    kept with the plan.  With a cache the stored slab is what is kept:
    a share the cache serves needs no schedule, and a miss schedules
    afresh.
    """

    ij: int
    si: slice
    sj: slice
    kls: np.ndarray  # combined ket indices of the share, in slab order
    fac: np.ndarray  # degeneracy factor of each slab column
    schedule: KetSchedule | None = None

    @property
    def shape(self) -> tuple[int, int]:
        """The bra shape ``(ni, nj)``: what plans must share to be
        digested together."""
        return self.si.stop - self.si.start, self.sj.stop - self.sj.start

    @property
    def nbytes(self) -> int:
        """Bytes of index data held (what a plan memo grows by)."""
        held = self.kls.nbytes + self.fac.nbytes
        return held + (self.schedule.nbytes if self.schedule else 0)


class BraBatch(NamedTuple):
    """Plans of one bra shape ``(ni, nj)``, their columns laid end to end.

    ``starts[p]`` is the first column of ``plans[p]``; ``rows[:, m]``
    holds the ket function pair ``(kfun, lfun)`` of column ``m`` of the
    batch.  Per plan ``p``: ``i_at[:, p]`` / ``j_at[:, p]`` are the flat
    offsets ``function * nbf`` of the rows of its ``i`` / ``j`` block,
    ``bra_at[:, p]`` the flat indices of its ``(i, j)`` block.  Per
    column ``m``: ``kl_at[m] = kfun * nbf + lfun``, and ``col[m]`` the
    plan it belongs to.  Density-independent, built by
    :meth:`QuartetEngine.bra_batch`.
    """

    plans: list[SharePlan]
    ni: int
    nj: int
    starts: np.ndarray
    rows: np.ndarray
    i_at: np.ndarray
    j_at: np.ndarray
    bra_at: np.ndarray
    kl_at: np.ndarray
    col: np.ndarray

    @property
    def ncols(self) -> int:
        return self.rows.shape[1]

    def columns(self, p: int) -> slice:
        """The batch columns of plan ``p``."""
        a = int(self.starts[p])
        return slice(a, a + self.plans[p].fac.size)

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in self[3:])

    def targets(
        self, row_stride: int, channel_stride: int, nchannels: int,
        bases: tuple[int, int] | None = None, kl: bool = True,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Flat target indices of :meth:`Families.plan_terms`, per plan
        ``(C, nj, ni)`` and per column: rows ``row_stride`` apart,
        channel ``c`` at ``c * channel_stride``, every plan's ``i`` and
        ``j`` column blocks at the offsets ``bases`` (by default their
        own first columns, as in a Fock replica)."""
        channels = np.arange(nchannels)[:, None, None] * channel_stride
        own = np.array([(p.si.start, p.sj.start) for p in self.plans]).T
        at = own if bases is None else np.broadcast_to(np.vstack(bases), own.shape)
        # (i, j) block: rows sj + j of the I block's columns.
        blocks = (
            (at[0] + own[1] * row_stride)[:, None, None, None] + channels
            + np.arange(self.nj)[:, None] * row_stride + np.arange(self.ni)
        )
        # A record: the kfun and lfun rows of every channel, over the i
        # block, then over the j block.
        rows = self.rows.T[:, None, :, None] * row_stride + channels
        terms = [
            (rows + at[s][self.col][:, None, None, None] + np.arange(n))
            .reshape(self.ncols, -1)
            for s, n in ((0, self.ni), (1, self.nj))
        ]
        if kl:
            terms.append(self.kl_at[:, None] + channels.ravel())
        return blocks, np.concatenate(terms, axis=1)


class Families(NamedTuple):
    """The six Fock families of a :class:`BraBatch`.

    Per plan ``p``: ``ji[p]`` is its ``(nj, ni)`` J-block.  Per column
    ``m`` of the batch, ``terms[m]`` holds what the column adds: its
    record of exchange rows — ``kli[c, 0, :, m]``, the ``(i, k)`` row
    (destination row ``kfun[m]``), and ``kli[c, 1, :, m]``, the
    ``(i, l)`` row (``lfun[m]``), both over the plan's ``i`` block, for
    every exchange channel ``c``; then ``klj`` likewise over its ``j``
    block — and then its ``(k, l)`` element ``kl[m]`` once per channel.
    ``kl``, ``kli`` and ``klj`` are views of ``terms``.
    """

    batch: BraBatch
    ji: np.ndarray
    kl: np.ndarray
    kli: np.ndarray
    klj: np.ndarray
    terms: np.ndarray

    def plan_terms(self, p: int, kl: bool = True) -> tuple[np.ndarray, ...]:
        """Plan ``p``'s terms, flat, in the order they are added: its
        ``(i, j)`` block once per channel, then column after column its
        exchange record and, with ``kl``, its ``(k, l)`` element per
        channel."""
        C = self.kli.shape[0]
        cols = self.terms[self.batch.columns(p)]
        return (*(self.ji[p].ravel(),) * C, (cols if kl else cols[:, :-C]).ravel())


class QuartetEngine:
    """ERI evaluation and Fock scattering over composite shells.

    Parameters
    ----------
    basis:
        The AO basis.  Its pair data (:attr:`pairs`) is looked up when
        the first block is evaluated; constructing an engine prepares
        nothing.
    cache:
        Optional :class:`~repro.integrals.cache.QuartetCache`.  When
        given, :meth:`slab` serves repeat kets from the cache
        (semi-direct SCF): cycles after the first skip integral
        evaluation entirely for every bra still resident.
    """

    def __init__(self, basis: BasisSet, cache: QuartetCache | None = None) -> None:
        self.basis = basis
        self.cache = cache
        self.quartets_computed = 0
        self.quartets_from_cache = 0
        # Frozen index tables of the digestion path.  Per composite
        # shell: its basis-function slice.  Per canonical shell pair
        # (combined index kl): the shells, the k == l half of the
        # degeneracy factor, and one CSR row of the pair's function
        # indices in block order — O(nbf^2) integers, no quartet data.
        offsets, widths = basis.shell_bf_offsets(), basis.shell_nfuncs()
        self._widths = widths
        self.shell_slices = tuple(
            slice(o, o + w) for o, w in zip(offsets.tolist(), widths.tolist())
        )
        k, l = np.tril_indices(basis.nshells)
        self._pair_k, self._pair_l = k, l
        self._pair_fac = np.where(k == l, 0.5, 1.0)
        #: Function pairs per canonical shell pair (the ket block size).
        self.pair_nfunc = widths[k] * widths[l]
        self._ket_ptr = np.concatenate(([0], np.cumsum(self.pair_nfunc)))
        pair = np.repeat(np.arange(k.size), self.pair_nfunc)
        local = np.arange(pair.size) - self._ket_ptr[pair]
        self._ket_kfun = offsets[k[pair]] + local // widths[l[pair]]
        self._ket_lfun = offsets[l[pair]] + local % widths[l[pair]]

    # -- ERI slabs --------------------------------------------------------

    @cached_property
    def pairs(self) -> PairSet:
        """The basis' canonical composite pairs, stacked per class (the
        one set every consumer of this basis shares)."""
        return pair_stacks(self.basis)

    def slab(
        self, ij: int, kls: np.ndarray, plan: SharePlan | None = None
    ) -> np.ndarray:
        """Unscaled ERI slab ``X[(i j), m]`` of bra ``ij`` against ``kls``.

        ``kls`` holds combined indices of canonical ket pairs
        (``int64``); the columns run over their function pairs, ket
        after ket, each block in its own ``(k, l)`` row-major order.
        Without a cache the kets are evaluated together, one kernel
        call per share, straight into the slab, and ``plan`` — the
        :class:`SharePlan` of this very share — keeps the kernel's
        schedule of it, as the share comes back every build.  With a
        cache, the slab is what is kept: the result is whatever
        :meth:`QuartetCache.slab
        <repro.integrals.cache.QuartetCache.slab>` returns — the stored
        array itself (read-only) for a share it has seen — and only
        kets it does not hold are evaluated, scheduled afresh.
        """
        cache = self.cache
        if cache is None or not kls.size:
            self.quartets_computed += kls.size
            return self._evaluate_slab(ij, kls, plan)
        misses = cache.misses
        X = cache.slab(ij, kls, self.pair_nfunc, partial(self._evaluate_slab, ij))
        computed = cache.misses - misses
        self.quartets_computed += computed
        self.quartets_from_cache += kls.size - computed
        return X

    def _evaluate_slab(
        self, ij: int, kls: np.ndarray, plan: SharePlan | None = None
    ) -> np.ndarray:
        schedule = None
        if plan is not None:
            if plan.schedule is None:
                plan.schedule = ket_schedule(self.pairs, ij, kls)
            schedule = plan.schedule
        with get_tracer().span(
            "eri/quartet_batch", bra=self._bra_class(ij), kets=kls.size
        ):
            return eri_bra_slab(self.pairs, ij, kls, schedule)

    def _bra_class(self, ij: int) -> str:
        """The composite class of pair ``ij``, one letter a side:
        ``"LS"`` is an sp shell with an s shell."""
        stack = self.pairs.classes[self.pairs.cls[ij]].stack
        return "".join(
            "L" if len(side) > 1 else "SPDFGH"[side[0]]
            for side in (stack.las, stack.lbs)
        )

    def composite_blocks(
        self, I: int, J: int, kls: np.ndarray
    ) -> list[np.ndarray]:
        """ERI blocks ``(I J | K L)`` of one bra against the kets ``kls``:
        the column split of :meth:`slab`.

        ``I >= J``; ``kls`` holds combined indices of canonical ket
        pairs.

        Returns
        -------
        list of numpy.ndarray
            One ``(nfI, nfJ, nfK, nfL)`` block per ket (an L shell's s
            and p functions at their offsets), each a view of the slab —
            read-only when the slab is the cache's.
        """
        kls = np.asarray(kls, dtype=np.int64)
        X = self.slab(pair_index(I, J), kls)
        ni, nj = self._widths[I], self._widths[J]
        ends = np.cumsum(self.pair_nfunc[kls]).tolist()
        nk = self._widths[self._pair_k[kls]].tolist()
        nl = self._widths[self._pair_l[kls]].tolist()
        return [
            X[:, a:b].reshape(ni, nj, k, l)
            for a, b, k, l in zip([0, *ends], ends, nk, nl)
        ]

    def composite_block(self, I: int, J: int, K: int, L: int) -> np.ndarray:
        """ERI block over composite shells ``(I J | K L)``, ``K >= L``:
        the one-quartet case of :meth:`composite_blocks` (with a cache
        attached, a repeat quartet is a view of the stored slab)."""
        return self.composite_blocks(I, J, [pair_index(K, L)])[0]

    # -- Fock scattering ---------------------------------------------------

    def share_plan(self, I: int, J: int, kls: np.ndarray) -> SharePlan:
        """The density-independent half of digesting ``(I J|`` against
        the kets ``kls`` (combined indices of canonical pairs, at least
        one): see :class:`SharePlan` and the module docstring."""
        kls = np.asarray(kls, dtype=np.int64)
        ij = pair_index(I, J)
        fac = self._pair_fac[kls] * (0.5 if I == J else 1.0)
        fac[kls == ij] *= 0.5
        fac = np.repeat(fac, self.pair_nfunc[kls])
        fac.flags.writeable = False
        return SharePlan(ij, self.shell_slices[I], self.shell_slices[J], kls, fac)

    def ket_functions(self, kls: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(kfun, lfun)``: the ket function pair of each slab column of
        the kets ``kls``."""
        m = ragged_arange(self._ket_ptr[kls], self.pair_nfunc[kls])
        return self._ket_kfun[m], self._ket_lfun[m]

    def bra_batch(self, plans: list[SharePlan]) -> BraBatch:
        """The plans (at least one, all of one bra shape) as one
        :class:`BraBatch`, in the order given."""
        ni, nj = plans[0].shape
        nbf = self.basis.nbf
        sizes = [p.fac.size for p in plans]
        rows = np.stack(self.ket_functions(np.concatenate([p.kls for p in plans])))
        i_at = (np.array([p.si.start for p in plans]) + np.arange(ni)[:, None]) * nbf
        j_at = (np.array([p.sj.start for p in plans]) + np.arange(nj)[:, None]) * nbf
        return BraBatch(
            plans, ni, nj, np.cumsum([0, *sizes[:-1]]), rows, i_at, j_at,
            (i_at[:, None] + j_at[None] // nbf).reshape(ni * nj, -1),
            rows[0] * nbf + rows[1], np.repeat(np.arange(len(plans)), sizes),
        )

    def batch_slab(self, batch: BraBatch) -> np.ndarray:
        """The slabs of ``batch``'s plans side by side, each column
        scaled by its degeneracy factor: ``(ni * nj, ncols)``."""
        X = np.empty((batch.ni * batch.nj, batch.ncols))
        for plan, a in zip(batch.plans, batch.starts.tolist()):
            np.multiply(
                self.slab(plan.ij, plan.kls, plan), plan.fac,
                out=X[:, a : a + plan.fac.size],
            )
        return X

    def digest(
        self,
        batch: BraBatch,
        d_coulomb: np.ndarray,
        d_exchange: np.ndarray,
        X: np.ndarray,
    ) -> Families:
        """All six families of every plan of ``batch``.

        ``X`` is :meth:`batch_slab` of the batch.  The densities come
        weighted — ``d_coulomb`` is ``2 D`` for every builder,
        ``d_exchange`` a stack ``(nchannels, nbf, nbf)`` of the exchange
        densities times their weight.  A plan's families are bitwise the
        same alone and in any batch: element-wise products, sums over
        the bra indices in explicit order, and the sum over a plan's own
        columns as one ``np.add.reduceat`` segment (see the module
        docstring).
        """
        ni, nj, M = batch.ni, batch.nj, batch.ncols
        X3 = X.reshape(ni, nj, M)
        dc = d_coulomb.ravel()
        C = d_exchange.shape[0]
        dx = d_exchange.reshape(C, -1)
        rows, col = batch.rows, batch.col
        R = 2 * C * (ni + nj)
        terms = np.empty((M, R + C))

        # (i, j): each plan's own columns, one reduceat segment each.
        # Products go to C-ordered buffers: NumPy would lay a broadcast
        # result out in an order that is slow to fill.
        work = np.empty((ni, nj, M))
        ji = np.add.reduceat(
            np.multiply(X3, dc[batch.kl_at], out=work),
            batch.starts, axis=2,
        )
        # (k, l): the bra's function pairs, added j first, then i.
        np.multiply(X, np.take(dc[batch.bra_at], col, axis=1), out=work.reshape(ni * nj, M))
        terms[:, R:] = _sum_in_order(_sum_in_order(work, 1), 0)[:, None]

        # Exchange: the (i, k) row pairs with D[j, lfun], the (i, l)
        # row with D[j, kfun] — summed over j in order; likewise for j.
        # Sums into C-ordered buffers too, then once into the records.
        partner = rows[::-1, None, :]  # (2, 1, M)
        work = np.empty((C, 2, ni, nj, M))
        for axis, rows_at, cut in ((3, batch.j_at, slice(0, 2 * C * ni)),
                                   (2, batch.i_at, slice(2 * C * ni, R))):
            at = np.take(rows_at, col, axis=1) + partner  # (2, n, M)
            dens = dx[0].take(at)[None] if C == 1 else dx[:, at]
            np.multiply(X3, dens[:, :, None] if axis == 3 else dens[:, :, :, None], out=work)
            terms[:, cut] = _sum_in_order(work, axis).reshape(-1, M).T
        kli = terms[:, : 2 * C * ni].reshape(M, C, 2, ni).transpose(1, 2, 3, 0)
        klj = terms[:, 2 * C * ni : R].reshape(M, C, 2, nj).transpose(1, 2, 3, 0)
        ji = np.ascontiguousarray(ji.transpose(2, 1, 0))
        return Families(batch, ji, terms[:, R], kli, klj, terms)

    def scatter_general(
        self,
        X: np.ndarray,
        d_coulomb: np.ndarray,
        d_exchange: np.ndarray,
        jw: float,
        kw: float,
        I: int,
        J: int,
        K: int,
        L: int,
    ) -> dict[str, tuple[tuple[slice, slice], np.ndarray]]:
        """Six-way scatter with independent Coulomb/exchange channels.

        The Coulomb families (``(i,j)`` and ``(k,l)``) contract the
        quartet against ``d_coulomb`` with weight ``jw``; the four
        exchange families contract against ``d_exchange`` with weight
        ``kw``.  Closed-shell RHF uses ``(D, D, +2, -1/2)``; spin-
        unrestricted Fock matrices use ``(D_total, D_sigma, +2, -1)``
        per spin channel.
        """
        si, sj, sk, sl = (self.shell_slices[x] for x in (I, J, K, L))
        fac = quartet_degeneracy_factor(I, J, K, L)
        Xs = X * fac

        dj_kl = d_coulomb[sk, sl]
        dj_ij = d_coulomb[si, sj]
        dk_jl = d_exchange[sj, sl]
        dk_jk = d_exchange[sj, sk]
        dk_il = d_exchange[si, sl]
        dk_ik = d_exchange[si, sk]

        return {
            "ji": ((sj, si), jw * np.einsum("ijkl,kl->ji", Xs, dj_kl)),
            "ki": ((sk, si), kw * np.einsum("ijkl,jl->ki", Xs, dk_jl)),
            "li": ((sl, si), kw * np.einsum("ijkl,jk->li", Xs, dk_jk)),
            "kj": ((sk, sj), kw * np.einsum("ijkl,il->kj", Xs, dk_il)),
            "lj": ((sl, sj), kw * np.einsum("ijkl,ik->lj", Xs, dk_ik)),
            "kl": ((sk, sl), jw * np.einsum("ijkl,ij->kl", Xs, dj_ij)),
        }

    def scatter_contributions(
        self,
        X: np.ndarray,
        D: np.ndarray,
        I: int,
        J: int,
        K: int,
        L: int,
    ) -> dict[str, tuple[tuple[slice, slice], np.ndarray]]:
        """Compute the six scaled closed-shell Fock contributions.

        Returns a dict keyed by destination family —
        ``"ji" / "ki" / "li"`` (the FI buffer), ``"kj" / "lj"`` (the FJ
        buffer), ``"kl"`` (shared direct) — each mapping to
        ``((row_slice, col_slice), value_block)``.  Callers (the three
        algorithms) decide *where* each contribution is accumulated;
        the arithmetic is identical across algorithms by construction.
        """
        return self.scatter_general(X, D, D, 2.0, -0.5, I, J, K, L)
