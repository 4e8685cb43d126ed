"""Composite-shell quartet evaluation and the six-way Fock scatter.

:class:`QuartetEngine` is the workhorse shared by all three parallel
algorithms: it evaluates the ERI blocks of composite (GAMESS) shell
quartets and scatters the six Fock contributions of the paper's
eqs. (2a)-(2f) into an accumulation matrix ``W``.

Class-batched evaluation
------------------------
Blocks are evaluated a *share* at a time, not a quartet at a time:
:meth:`QuartetEngine.composite_blocks` takes one bra ``(I, J)`` and the
combined indices of a thread's kets.  The pair data is the basis' own
(:func:`~repro.integrals.eri.pair_stacks`: one ragged
:class:`~repro.integrals.eri.PairStack` per composite pair class, shared
with the one-electron matrices, the Schwarz bounds and every other
engine of the basis).  A share selects its rows of each class by index
and each (bra, ket class) is ONE
:func:`~repro.integrals.eri.eri_class_batch` call whose output rows
*are* the composite blocks — an ``(LL|LL)`` quartet is one kernel
quartet, its s and p sub-blocks sharing every primitive quantity.  A
quartet's block is bitwise independent of what else is in the share (the
kernel's independence invariant), so a share may be split, reordered,
replayed or partly served from the cache without changing a bit of the
Fock matrix; the kernel bounds its own batch memory.  With a cache
attached the hit / miss / eviction sequence is exactly that of
quartet-by-quartet evaluation (see
:meth:`~QuartetEngine.composite_blocks`).

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
:meth:`QuartetEngine.digest_bra` lays the scaled blocks side by side as
one slab ``X[(i j), m]`` — ``m`` runs over every ket *function* pair
``(kfun[m], lfun[m])`` of the share, quartet after quartet, each block
in its own ``(k, l)`` row-major order — and computes each family once
per share.  Every family either reduces over bra axes only or acts
element-wise along ``m``, so kets of mixed shell classes share a slab:

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

The engine returns the six results with ``kfun``/``lfun``
(:class:`BraDigest`); *where* they go is still each algorithm's
decision.  :meth:`QuartetEngine.scatter_general` is the per-quartet
spelling of the same arithmetic, kept for the distributed-data builder
(which is about per-quartet one-sided traffic) and as the oracle the
slab is property-tested against.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

import numpy as np

from repro.chem.basis.basisset import BasisSet
from repro.core.indexing import (
    pair_index,
    quartet_degeneracy_factor,
    ragged_arange,
)
from repro.integrals.cache import QuartetCache
from repro.integrals.eri import PairSet, eri_class_batch, pair_stacks
from repro.obs.tracer import get_tracer


def symmetrize_two_electron(W: np.ndarray) -> np.ndarray:
    """Recover the symmetric two-electron matrix: ``G = W + W^T``."""
    return W + W.T


class BraDigest(NamedTuple):
    """The six Fock families of one bra against one share of kets.

    ``ki``/``li``/``kj``/``lj`` carry a leading axis over the exchange
    channels that were digested (one for RHF, two for UHF).
    """

    si: slice
    sj: slice
    kfun: np.ndarray
    lfun: np.ndarray
    ji: np.ndarray
    kl: np.ndarray
    ki: np.ndarray
    li: np.ndarray
    kj: np.ndarray
    lj: np.ndarray

    def add_into(
        self, col_i: np.ndarray, col_j: np.ndarray, W: np.ndarray,
        channel: int = 0,
    ) -> None:
        """Accumulate: ``ji/ki/li`` into the ``(nbf, ni)`` column block
        ``col_i``, ``kj/lj`` into ``col_j``, ``kl`` into ``W`` itself.

        Rows repeat along ``m`` (one per ``l`` of a ``k``, and again per
        quartet), hence the unbuffered ``np.add.at``; the ``(kfun,
        lfun)`` pairs of a share are distinct, so ``kl`` is a plain
        fancy ``+=``.
        """
        col_i[self.sj] += self.ji
        np.add.at(col_i, self.kfun, self.ki[channel])
        np.add.at(col_i, self.lfun, self.li[channel])
        np.add.at(col_j, self.kfun, self.kj[channel])
        np.add.at(col_j, self.lfun, self.lj[channel])
        W[self.kfun, self.lfun] += self.kl


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
        given, :meth:`composite_blocks` serves repeat quartets from the
        cache (semi-direct SCF): cycles after the first skip integral
        evaluation entirely for every block still resident.
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

    # -- ERI blocks -----------------------------------------------------

    @cached_property
    def pairs(self) -> PairSet:
        """The basis' canonical composite pairs, stacked per class (the
        one set every consumer of this basis shares)."""
        return pair_stacks(self.basis)

    def composite_blocks(
        self, I: int, J: int, kls: np.ndarray
    ) -> list[np.ndarray]:
        """ERI blocks ``(I J | K L)`` of one bra against the kets ``kls``.

        ``I >= J``; ``kls`` holds combined indices of canonical ket
        pairs.  Without a cache all of them are evaluated together, one
        kernel call per ket class.  With a cache the blocks absent at
        entry are evaluated together and then the per-quartet sequence
        ``get -> (evaluate) -> put`` is replayed in ``kls`` order, so
        hits, misses, evictions and LRU order are those of quartet-by-
        quartet evaluation; a block the replay itself evicts before its
        turn (a budget smaller than the share) is re-evaluated alone,
        which by the kernel's independence invariant yields the same
        bits.

        Returns
        -------
        list of numpy.ndarray
            One ``(nfI, nfJ, nfK, nfL)`` block per ket (an L shell's s
            and p functions at their offsets).  Blocks that went through
            the cache own their memory and are read-only; without a
            cache they are views of the kernel's output.
        """
        kls = np.asarray(kls, dtype=np.intp)
        cache = self.cache
        if cache is None:
            self.quartets_computed += kls.size
            return self._evaluate_blocks(I, J, kls)
        keys = [
            (I, J, k, l)
            for k, l in zip(
                self._pair_k[kls].tolist(), self._pair_l[kls].tolist()
            )
        ]
        absent = [n for n, key in enumerate(keys) if key not in cache]
        fresh = (
            dict(zip(absent, self._evaluate_blocks(I, J, kls[absent])))
            if absent else {}
        )
        blocks = []
        for n, key in enumerate(keys):
            block = cache.get(key)
            if block is None:
                block = fresh.get(n)
                if block is None:
                    (block,) = self._evaluate_blocks(I, J, kls[n : n + 1])
                self.quartets_computed += 1
                # A view would pin the whole batch output for as long as
                # one of its blocks stays cached.
                block = block.copy()
                cache.put(key, block)
            else:
                self.quartets_from_cache += 1
            blocks.append(block)
        return blocks

    def composite_block(self, I: int, J: int, K: int, L: int) -> np.ndarray:
        """ERI block over composite shells ``(I J | K L)``, ``K >= L``:
        the one-quartet case of :meth:`composite_blocks` (with a cache
        attached, a repeat quartet is the stored read-only block)."""
        return self.composite_blocks(I, J, [pair_index(K, L)])[0]

    def _evaluate_blocks(
        self, I: int, J: int, kls: np.ndarray
    ) -> list[np.ndarray]:
        pairs = self.pairs
        bra = pairs.pair(pair_index(I, J))
        cls, row = pairs.cls[kls], pairs.row[kls]
        blocks: list[np.ndarray] = [None] * kls.size
        with get_tracer().span("eri/quartet_batch"):
            for c, members in enumerate(pairs.classes):
                share = np.flatnonzero(cls == c)
                if not share.size:
                    continue
                kets = members.stack.take(row[share])
                values = eri_class_batch(bra, kets).reshape(
                    -1, bra.nfa, bra.nfb, kets.nfa, kets.nfb
                )
                for n, value in zip(share.tolist(), values):
                    blocks[n] = value
        return blocks

    # -- Fock scattering ---------------------------------------------------

    def digest_bra(
        self,
        I: int,
        J: int,
        kls: np.ndarray,
        d_coulomb: np.ndarray,
        d_exchange: np.ndarray,
        jw: float,
        kw: float,
    ) -> BraDigest:
        """All six families of bra ``(I J|`` against the kets ``kls``.

        ``kls`` holds combined indices of canonical ket pairs (at least
        one); ``d_exchange`` is a stack ``(nchannels, nbf, nbf)``.  The
        blocks come through :meth:`composite_blocks`, in ``kls`` order.
        See the module docstring for the slab layout.
        """
        si, sj = self.shell_slices[I], self.shell_slices[J]
        ni, nj = si.stop - si.start, sj.stop - sj.start
        X = np.concatenate(
            [
                block.reshape(ni * nj, -1)
                for block in self.composite_blocks(I, J, kls)
            ],
            axis=1,
        )
        sizes = self.pair_nfunc[kls]
        fac = self._pair_fac[kls] * (0.5 if I == J else 1.0)
        fac[kls == pair_index(I, J)] *= 0.5
        X *= np.repeat(fac, sizes)
        m = ragged_arange(self._ket_ptr[kls], sizes)
        kfun, lfun = self._ket_kfun[m], self._ket_lfun[m]
        X3 = X.reshape(ni, nj, -1)
        dk_j, dk_i = d_exchange[:, sj], d_exchange[:, si]
        return BraDigest(
            si, sj, kfun, lfun,
            ji=jw * (X3 @ d_coulomb[kfun, lfun]).T,
            kl=jw * (d_coulomb[si, sj].ravel() @ X),
            ki=kw * np.einsum("ijm,cjm->cmi", X3, dk_j[:, :, lfun]),
            li=kw * np.einsum("ijm,cjm->cmi", X3, dk_j[:, :, kfun]),
            kj=kw * np.einsum("ijm,cim->cmj", X3, dk_i[:, :, lfun]),
            lj=kw * np.einsum("ijm,cim->cmj", X3, dk_i[:, :, kfun]),
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
