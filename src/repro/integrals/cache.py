"""Memory-bounded LRU cache of evaluated ERI slabs, one entry per bra.

Direct SCF re-evaluates every surviving shell quartet each cycle; with
this cache wired into :class:`~repro.core.quartets.QuartetEngine`, the
SCF becomes *semi-direct*: integrals evaluated in cycle 1 are served
from memory in cycles 2..N (for as long as the byte budget holds), in
the order the Fock build consumes them.

The bra store
-------------
The unit of the cache is the bra: one entry per combined pair index
``ij`` — stable across cycles because the basis is fixed for a given
SCF.  A Fock build asks for one bra against one thread's share of kets
and contracts the answer as a slab ``X[(i j), m]`` (``m`` over the ket
*function* pairs, ket after ket), so that is what is kept: per bra, the
**unscaled** slab columns of the kets stored so far, as the share-sized
pieces they arrived in, each with its ``kl`` vector and column offsets.

* A share asked for again — the same kets in the same order — is
  returned *as stored*: no gather, no copy, one dictionary look-up.
* Anything else goes through one sorted ket index per bra, built the
  first time it is needed and dropped when the bra gains a piece: a
  subset, a superset or another partition of the stored kets (what one
  cache shared by builders of different ranks x threads sees), or a
  partial hit, where only the missing kets are evaluated — together —
  and kept as a new piece.  A ket's columns are bitwise independent of
  what it was evaluated with (the kernel's invariant), so every route
  returns the same bits.
* ``get(key)`` / ``put(key, block)`` with a composite-shell quartet key
  ``(I, J, K, L)`` are the one-ket case of the same store.

Eviction is least-recently-used over whole bras under a byte budget on
the summed ``nbytes`` of the slabs (index vectors are not counted, as
the keys of a per-quartet store would not be); a slab larger than the
whole budget is served but not stored.  ``hits`` / ``misses`` /
``evictions`` / ``len()`` count **quartets** — a share of 14 kets
served from memory is 14 hits, an evicted bra holding 30 kets is 30
evictions — so hit rates read the same whatever the container.  Stored
arrays are marked read-only so an accidental in-place mutation by a
consumer raises instead of corrupting every later cycle.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, NamedTuple

import numpy as np

from repro.integrals.eri import ragged_arange

#: Default cache budget (bytes): enough for every quartet of the small
#: validation systems while staying irrelevant next to the O(nbf^2)
#: matrices of benchmark-scale runs.
DEFAULT_CACHE_BYTES: int = 64 * 1024 * 1024

QuartetKey = tuple[int, int, int, int]


def _pair(i: int, j: int) -> int:
    """Combined index of the canonical pair ``(i >= j)``."""
    return i * (i + 1) // 2 + j


def _distinct(kls: np.ndarray) -> np.ndarray:
    """``kls`` itself when no ket repeats, else its sorted distinct kets."""
    ordered = np.sort(kls)
    first = np.concatenate(([True], ordered[1:] != ordered[:-1]))
    return kls if first.all() else ordered[first]


class _Piece(NamedTuple):
    """Kets that were evaluated together, as they arrived."""

    kls: np.ndarray  # combined ket indices
    X: np.ndarray  # (bra function pairs, ptr[-1]) unscaled, read-only
    ptr: np.ndarray  # column offset of each ket, and the total


class _KetIndex:
    """Sorted look-up from ket to ``(piece, columns)`` over some pieces."""

    def __init__(self, pieces: list[_Piece]) -> None:
        kl = np.concatenate([p.kls for p in pieces])
        order = np.argsort(kl, kind="stable")
        self.pieces = pieces
        self.kl = kl[order]
        self.src = np.repeat(
            np.arange(len(pieces)), [p.kls.size for p in pieces]
        )[order]
        self.start = np.concatenate([p.ptr[:-1] for p in pieces])[order]
        self.width = np.concatenate([np.diff(p.ptr) for p in pieces])[order]

    def locate(self, kls: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Index row of each ket of ``kls`` and whether it is there."""
        pos = np.minimum(np.searchsorted(self.kl, kls), self.kl.size - 1)
        return pos, self.kl[pos] == kls

    def gather(self, pos: np.ndarray) -> np.ndarray:
        """A new slab of the kets at index rows ``pos``, in that order."""
        src, start, width = self.src[pos], self.start[pos], self.width[pos]
        out = np.empty((self.pieces[0].X.shape[0], int(width.sum())))
        dest = np.cumsum(width) - width
        for p in np.flatnonzero(np.bincount(src)).tolist():
            mine = np.flatnonzero(src == p)
            out[:, ragged_arange(dest[mine], width[mine])] = self.pieces[p].X[
                :, ragged_arange(start[mine], width[mine])
            ]
        return out


class _Bra:
    """What is stored under one bra."""

    __slots__ = ("pieces", "nbytes", "nquartets", "index")

    def __init__(self) -> None:
        self.pieces: dict[bytes, _Piece] = {}  # keyed by ``kls.tobytes()``
        self.nbytes = 0
        self.nquartets = 0
        self.index: _KetIndex | None = None

    def ket_index(self) -> _KetIndex:
        if self.index is None:
            self.index = _KetIndex(list(self.pieces.values()))
        return self.index


class QuartetCache:
    """LRU store of ERI slabs per bra under a byte budget.

    Parameters
    ----------
    max_bytes:
        Byte budget over the summed ``nbytes`` of the stored slabs.
        Must be positive; use :meth:`from_mb` for the CLI's MB knob.
    """

    def __init__(self, max_bytes: int = DEFAULT_CACHE_BYTES) -> None:
        max_bytes = int(max_bytes)
        if max_bytes <= 0:
            raise ValueError("max_bytes must be positive")
        self.max_bytes = max_bytes
        self._store: OrderedDict[int, _Bra] = OrderedDict()
        self._quartets = 0
        self.bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @classmethod
    def from_mb(cls, megabytes: float) -> "QuartetCache":
        """Construct from a budget in MB (the ``--eri-cache-mb`` knob)."""
        return cls(int(megabytes * 1024 * 1024))

    def slab(
        self,
        ij: int,
        kls: np.ndarray,
        widths: np.ndarray | None = None,
        evaluate: Callable[[np.ndarray], np.ndarray] | None = None,
    ) -> np.ndarray | None:
        """Unscaled slab of bra ``ij`` against the kets ``kls``, in order.

        ``kls`` is an ``int64`` vector of combined ket indices.  Kets
        not stored yet are evaluated by ``evaluate(missing)`` — one call,
        distinct kets, returning their slab — and kept, their column
        counts read from ``widths[missing]``; without an evaluator a
        request with a missing ket returns ``None``.  The bra becomes
        the most recently used.  The result is the stored array itself
        when the request is a share seen before, a new array otherwise.
        """
        bra = self._store.get(ij)
        pieces: list[_Piece] = []
        nfound = 0
        if bra is not None:
            self._store.move_to_end(ij)
            piece = bra.pieces.get(kls.tobytes())
            if piece is not None:
                self.hits += kls.size
                return piece.X
            index = bra.ket_index()
            pieces = index.pieces
            pos, found = index.locate(kls)
            nfound = int(np.count_nonzero(found))
        self.hits += nfound
        self.misses += kls.size - nfound
        if nfound == kls.size:
            return index.gather(pos)
        if evaluate is None:
            return None
        new = _distinct(kls[~found] if nfound else kls)
        X = evaluate(new)
        X.flags.writeable = False
        piece = _Piece(new, X, np.concatenate(([0], np.cumsum(widths[new]))))
        self._insert(ij, piece)
        if new is kls:
            return X
        index = _KetIndex([*pieces, piece])
        return index.gather(index.locate(kls)[0])

    def get(self, key: QuartetKey) -> np.ndarray | None:
        """The stored ``(nfI * nfJ, nfK * nfL)`` slab of one quartet, its
        bra refreshed to most-recently-used, or None."""
        I, J, K, L = key
        return self.slab(_pair(I, J), np.array([_pair(K, L)]))

    def put(self, key: QuartetKey, block: np.ndarray) -> None:
        """Store the ``(nfI, nfJ, nfK, nfL)`` block of one quartet,
        replacing the piece that held its ket, evicting least-recently-
        used bras to fit.

        The array is marked read-only; callers treat ERI blocks as
        immutable (contractions allocate their own outputs).
        """
        I, J, K, L = key
        ij, kl = _pair(I, J), np.array([_pair(K, L)])
        block.flags.writeable = False
        X = block.reshape(block.shape[0] * block.shape[1], -1)
        self._discard(ij, kl)
        self._insert(ij, _Piece(kl, X, np.array([0, X.shape[1]])))

    def _find(self, ij: int, kl: np.ndarray) -> _Piece | None:
        """The piece of bra ``ij`` that holds the single ket ``kl``."""
        bra = self._store.get(ij)
        if bra is None:
            return None
        piece = bra.pieces.get(kl.tobytes())
        # When every piece is one ket wide the dictionary has them all.
        if piece is None and len(bra.pieces) < bra.nquartets:
            index = bra.ket_index()
            pos, found = index.locate(kl)
            if found[0]:
                piece = index.pieces[index.src[pos[0]]]
        return piece

    def _account(self, bra: _Bra, piece: _Piece, sign: int) -> None:
        bra.index = None
        bra.nbytes += sign * piece.X.nbytes
        bra.nquartets += sign * piece.kls.size
        self.bytes += sign * piece.X.nbytes
        self._quartets += sign * piece.kls.size

    def _discard(self, ij: int, kl: np.ndarray) -> None:
        piece = self._find(ij, kl)
        if piece is None:
            return
        bra = self._store[ij]
        del bra.pieces[piece.kls.tobytes()]
        self._account(bra, piece, -1)
        if not bra.pieces:
            del self._store[ij]

    def _insert(self, ij: int, piece: _Piece) -> None:
        if piece.X.nbytes > self.max_bytes:
            return  # would evict everything and still not fit
        bra = self._store.get(ij)
        if bra is None:
            bra = self._store[ij] = _Bra()
        else:
            self._store.move_to_end(ij)
        bra.pieces[piece.kls.tobytes()] = piece
        self._account(bra, piece, +1)
        while self.bytes > self.max_bytes:
            _, old = self._store.popitem(last=False)
            self.bytes -= old.nbytes
            self._quartets -= old.nquartets
            self.evictions += old.nquartets

    def clear(self) -> None:
        """Drop every entry (counters are kept; they are lifetime totals)."""
        self._store.clear()
        self._quartets = 0
        self.bytes = 0

    @property
    def hit_rate(self) -> float:
        """hits / (hits + misses) over the cache lifetime; 0.0 if unused."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __len__(self) -> int:
        """Quartets stored."""
        return self._quartets

    def __contains__(self, key: QuartetKey) -> bool:
        I, J, K, L = key
        return self._find(_pair(I, J), np.array([_pair(K, L)])) is not None

    def stats(self) -> dict[str, int | float]:
        """JSON-ready counter snapshot (``entries`` in quartets)."""
        return {
            "entries": self._quartets,
            "bytes": self.bytes,
            "max_bytes": self.max_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }

    def __repr__(self) -> str:
        return (
            f"QuartetCache(entries={self._quartets}, "
            f"bytes={self.bytes}/{self.max_bytes}, hits={self.hits}, "
            f"misses={self.misses}, evictions={self.evictions})"
        )
