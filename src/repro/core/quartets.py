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

The bra slab
------------
The builders do not digest quartet by quartet.  For a fixed bra
``(i, j)`` and one thread's share of surviving kets,
:meth:`QuartetEngine.digest_bra` scales the slab's columns by the
degeneracy factor of their quartet — ``m`` runs over every ket
*function* pair ``(kfun[m], lfun[m])`` of the share, quartet after
quartet, each block in its own ``(k, l)`` row-major order — and computes
each family once per share.  Every family either reduces over bra axes
only or acts element-wise along ``m``, so kets of mixed shell classes
share a slab:

======== ============================== ===========================
family   reduces over                   result, destination rows
======== ============================== ===========================
(i, j)   ``m`` (the whole share)        ``(nj, ni)``, the J-block
(k, l)   ``i, j``                       ``(M,)``, ``(kfun, lfun)``
(i, k)   ``j``                          ``(M, ni)``, rows ``kfun``
(i, l)   ``j``                          ``(M, ni)``, rows ``lfun``
(j, k)   ``i``                          ``(M, nj)``, rows ``kfun``
(j, l)   ``i``                          ``(M, nj)``, rows ``lfun``
======== ============================== ===========================

Digestion has two halves.  What depends only on the bra, the kets and
the basis — the per-column factor, ``kfun`` / ``lfun`` and their
concatenation ``rows``, and for direct SCF the kernel's
:class:`~repro.integrals.eri.KetSchedule` once the share is first
evaluated — is a :class:`SharePlan`, built by
:meth:`QuartetEngine.share_plan` and reusable for every density (the
builders keep it per DLB task, direct or semi-direct, under one byte
budget, see
:meth:`~repro.core.fock_base.ParallelFockBuilderBase.task_plan`).  What
depends on the density is :meth:`~QuartetEngine.digest_bra`, the one
body that computes the six families, returned as a :class:`BraDigest`
with the ``(i, k)`` rows stacked on the ``(i, l)`` rows (and ``j``
likewise) so each column block takes ONE ``np.add.at`` over ``rows``;
*where* they go is still each algorithm's decision.  The four exchange
contractions stay four ``einsum`` calls, joined afterwards: fusing a
pair into one ``einsum('ijm,cjsm->csmi')`` is faster but sums in another
order, and a last-bit change in ``F`` is a different SCF iteration
count on near-degenerate systems — joined halves scattered by one
``np.add.at`` accumulate exactly as two calls did.

:meth:`QuartetEngine.scatter_general` is the per-quartet spelling of the
same arithmetic, kept as the oracle the slab is property-tested against
and for the e2e ledger's pinned per-quartet digestion sweep.
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


def symmetrize_two_electron(W: np.ndarray) -> np.ndarray:
    """Recover the symmetric two-electron matrix: ``G = W + W^T``."""
    return W + W.T


@dataclass(eq=False, slots=True)
class SharePlan:
    """The density-independent half of digesting one share.

    Everything :meth:`QuartetEngine.digest_bra` needs besides the densities
    and the integrals, fixed by the bra, the share's kets and the basis:
    built once by :meth:`QuartetEngine.share_plan`, reusable every SCF
    cycle.  ``kfun`` / ``lfun`` are the two halves of ``rows``.
    ``schedule`` is the kernel's
    :class:`~repro.integrals.eri.KetSchedule` of the share, built the
    first time an engine without a cache evaluates it and kept with the
    plan.  With a cache the stored slab is what is kept: a share the
    cache serves needs no schedule, and a miss schedules afresh.
    """

    ij: int
    si: slice
    sj: slice
    kls: np.ndarray  # combined ket indices of the share, in slab order
    fac: np.ndarray  # degeneracy factor of each slab column
    kfun: np.ndarray
    lfun: np.ndarray
    rows: np.ndarray  # concat(kfun, lfun): the share's row scatter
    schedule: KetSchedule | None = None

    @property
    def nbytes(self) -> int:
        """Bytes of index data held (what a plan memo grows by)."""
        held = self.kls.nbytes + self.fac.nbytes + self.rows.nbytes
        return held + (self.schedule.nbytes if self.schedule else 0)


class BraDigest(NamedTuple):
    """The six Fock families of one bra against one share of kets.

    ``kli`` stacks the ``(i, k)`` rows (``plan.kfun``) on the ``(i, l)``
    rows (``plan.lfun``), ``klj`` likewise for ``j``; both carry a
    leading axis over the exchange channels that were digested (one for
    RHF, two for UHF).
    """

    plan: SharePlan
    ji: np.ndarray
    kl: np.ndarray
    kli: np.ndarray
    klj: np.ndarray

    def add_into(
        self, col_i: np.ndarray, col_j: np.ndarray, W: np.ndarray,
        channel: int = 0,
    ) -> None:
        """Accumulate: ``ji`` and ``kli`` into the ``(nbf, ni)`` column
        block ``col_i``, ``klj`` into ``col_j``, ``kl`` into ``W`` itself.

        Rows repeat along ``m`` (one per ``l`` of a ``k``, and again per
        quartet), hence the unbuffered ``np.add.at`` — one per column
        block, which adds the ``kfun`` rows and then the ``lfun`` rows
        in order; the ``(kfun, lfun)`` pairs of a share are distinct, so
        ``kl`` is a plain fancy ``+=``.
        """
        plan = self.plan
        col_i[plan.sj] += self.ji
        np.add.at(col_i, plan.rows, self.kli[channel])
        np.add.at(col_j, plan.rows, self.klj[channel])
        W[plan.kfun, plan.lfun] += self.kl


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
        with get_tracer().span("eri/quartet_batch"):
            return eri_bra_slab(self.pairs, ij, kls, schedule)

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
        sizes = self.pair_nfunc[kls]
        fac = self._pair_fac[kls] * (0.5 if I == J else 1.0)
        fac[kls == ij] *= 0.5
        m = ragged_arange(self._ket_ptr[kls], sizes)
        rows = np.concatenate((self._ket_kfun[m], self._ket_lfun[m]))
        fac = np.repeat(fac, sizes)
        fac.flags.writeable = rows.flags.writeable = False
        return SharePlan(
            ij, self.shell_slices[I], self.shell_slices[J], kls, fac,
            rows[: m.size], rows[m.size :], rows,
        )

    def digest_bra(
        self,
        plan: SharePlan,
        d_coulomb: np.ndarray,
        d_exchange: np.ndarray,
        jw: float,
        kw: float,
    ) -> BraDigest:
        """All six families of one planned share.

        ``d_exchange`` is a stack ``(nchannels, nbf, nbf)``.  The slab
        comes through :meth:`slab`; see the module docstring for its
        layout and for why the four exchange ``einsum`` calls stay four.
        """
        si, sj, kfun, lfun = plan.si, plan.sj, plan.kfun, plan.lfun
        X = self.slab(plan.ij, plan.kls, plan) * plan.fac
        X3 = X.reshape(si.stop - si.start, sj.stop - sj.start, -1)
        dk_j, dk_i = d_exchange[:, sj], d_exchange[:, si]
        return BraDigest(
            plan,
            ji=jw * (X3 @ d_coulomb[kfun, lfun]).T,
            kl=jw * (d_coulomb[si, sj].ravel() @ X),
            kli=kw * np.concatenate(
                (
                    np.einsum("ijm,cjm->cmi", X3, dk_j[:, :, lfun]),
                    np.einsum("ijm,cjm->cmi", X3, dk_j[:, :, kfun]),
                ),
                axis=1,
            ),
            klj=kw * np.concatenate(
                (
                    np.einsum("ijm,cim->cmj", X3, dk_i[:, :, lfun]),
                    np.einsum("ijm,cim->cmj", X3, dk_i[:, :, kfun]),
                ),
                axis=1,
            ),
        )

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
