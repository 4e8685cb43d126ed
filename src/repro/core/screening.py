"""Schwarz screening: functional tests, statistics, and the large-system model.

Three roles:

1. **Functional screening** for the Fock algorithms:
   :class:`Screening` answers the per-quartet test
   ``Q_ij * Q_kl >= tau`` and the safe top-loop prescreen
   ``Q_ij * Q_max >= tau`` (the paper's Algorithm 3 prescreens whole
   ``ij`` iterations; the version here uses the globally safe bound so
   all three algorithms compute the identical surviving quartet set).

2. **Screening statistics** for the performance model: exact surviving-
   quartet counts per top-loop task, computed with sorted/searchsorted
   aggregation instead of quartet enumeration (usable up to the 5 nm
   dataset's ~5 * 10^14 quartets).

3. **The model Schwarz bounds** for benchmark-scale systems, where
   exact :math:`Q_{ij} = \\sqrt{(ij|ij)}` evaluation is unaffordable in
   Python: a calibrated Gaussian-overlap decay model

   .. math:: \\log Q_{ij} = a_{t_i} + a_{t_j} -
             \\frac{\\zeta_i \\zeta_j}{\\zeta_i + \\zeta_j} R_{ij}^2

   with one amplitude per shell type (S/L/D) and the most-diffuse
   exponent :math:`\\zeta` per composite shell.  The parameters are fit
   once against exact small-graphene Schwarz matrices (a least-squares
   fit in log space, ``tests/oracles.py::calibrate_schwarz_model``); the
   fit quality is exercised by the test suite and reported in
   EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.chem.basis.basisset import BasisSet
from repro.core.indexing import npairs, pair_index, ragged_arange

#: GAMESS-like default integral cutoff.
DEFAULT_TAU: float = 1.0e-10


class Screening:
    """Quartet screening decisions over a Schwarz bound matrix.

    Parameters
    ----------
    Q:
        Symmetric ``(nshells, nshells)`` Schwarz bounds over composite
        shells (exact or modelled).
    tau:
        Integral neglect threshold.
    """

    def __init__(self, Q: np.ndarray, tau: float = DEFAULT_TAU) -> None:
        Q = np.asarray(Q, dtype=np.float64)
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
            raise ValueError("Q must be square")
        self.Q = Q
        self.tau = float(tau)
        self.qmax = float(Q.max()) if Q.size else 0.0
        self.nshells = Q.shape[0]

        # Flattened canonical-pair Q values, indexed by combined pair index.
        iu, ju = np.tril_indices(self.nshells)
        order = iu * (iu + 1) // 2 + ju
        self.pair_q = np.empty(npairs(self.nshells))
        self.pair_q[order] = Q[iu, ju]

    def survives(self, i: int, j: int, k: int, l: int) -> bool:
        """Per-quartet Cauchy-Schwarz test (paper's ``schwartz(i,j,k,l)``)."""
        return self.Q[i, j] * self.Q[k, l] >= self.tau

    def prescreen_ij(self, i: int, j: int) -> bool:
        """Safe top-loop test: can *any* quartet with this bra survive?"""
        return self.Q[i, j] * self.qmax >= self.tau

    def surviving_kl_pairs(self, ij: int) -> np.ndarray:
        """Combined ``kl`` indices (0..ij) surviving against bra ``ij``.

        Vectorized over the inner loop — this is what Algorithm 3's
        thread-level work list looks like after screening.
        """
        q_ij = self.pair_q[ij]
        kl = np.arange(ij + 1, dtype=np.int64)
        mask = q_ij * self.pair_q[kl] >= self.tau
        return kl[mask]

    def surviving_kl_under(
        self, i: int, j: int, ks: np.ndarray
    ) -> tuple[np.ndarray, int]:
        """Surviving kets of bra ``(i, j)`` restricted to the shells ``ks``.

        The stock loops' ``l <= lmax_for(i, j, k)`` for every ``k`` of
        ``ks``, in their order, under the test :meth:`survives` applies.
        Returns the combined ``kl`` indices and the number screened out.
        """
        kl = ragged_arange(ks * (ks + 1) // 2, np.where(ks == i, j, ks) + 1)
        keep = self.pair_q[pair_index(i, j)] * self.pair_q[kl] >= self.tau
        return kl[keep], int(kl.size - np.count_nonzero(keep))

    # -- aggregate statistics (no quartet enumeration) --------------------

    def pair_survivor_counts(self) -> np.ndarray:
        """Surviving-quartet count per top-loop ``ij`` task.

        For every combined bra index ``ij``, the number of ket pairs
        ``kl <= ij`` with ``Q_ij Q_kl >= tau``, as float64: the
        :func:`prefix_survivor_counts` of every position.
        """
        return prefix_survivor_counts(self.pair_q, self.tau)[:, 0].astype(np.float64)


#: Positions per chunk of :func:`prefix_survivor_counts` (a power of two):
#: a level sorts one chunk's keys at a time.
_CHUNK = 1 << 22

#: Width of the position blocks whose kets are counted by brute force.
_TAIL = 32


def prefix_survivor_counts(
    pair_q: np.ndarray,
    tau: float,
    positions: np.ndarray | None = None,
    pair_class: np.ndarray | None = None,
    nclass: int = 1,
) -> np.ndarray:
    """Exact per-class prefix survivor counts at chosen bra positions.

    ``out[t, c]`` counts the kets ``kl <= ij`` of class
    ``pair_class[kl] == c`` that survive against the bra at position
    ``ij = positions[t]`` of ``pair_q``: ``Q_ij^2 >= tau`` for the bra
    itself, ``Q_kl >= tau / Q_ij`` for the kets before it (no ket where
    ``Q_ij <= 0``).  This is the per-top-loop-task work of Algorithm 3,
    computed without quartet enumeration.  ``positions`` defaults to
    every position and ``pair_class`` to one class.

    The kets before a bra are its own ``_TAIL``-wide position block,
    counted by brute force, plus one dyadic block per set bit of the
    bra's position above that.  A level works on one ``_CHUNK``-position
    chunk at a time: it sorts the kets of every block it asks about by
    Q rank within the chunk and answers the bras whose position has that
    level's bit set with ``searchsorted`` (:func:`_add_block_counts`);
    bras past a chunk count all of it the same way; ``O(P log^2 P)``
    overall.
    """
    q = np.asarray(pair_q, dtype=np.float64)
    P = q.size
    pos = (np.arange(P, dtype=np.int64) if positions is None
           else np.asarray(positions, dtype=np.int64))
    cls = np.zeros(P, dtype=np.int64) if pair_class is None else pair_class
    out = np.zeros((pos.size, nclass), dtype=np.int64)
    flat = out.reshape(-1)
    rows = np.arange(pos.size, dtype=np.int64)
    qb = q[pos]
    with np.errstate(divide="ignore", over="ignore"):
        th = np.where(qb > 0, tau / qb, np.inf)

    flat[rows * nclass + cls[pos]] += qb * qb >= tau
    low = pos & (_TAIL - 1)
    for d in range(1, _TAIL):
        t = rows[low >= d]
        t = t[q[pos[t] - d] >= th[t]]
        flat[t * nclass + cls[pos[t] - d]] += 1

    for c0 in range(0, P, _CHUNK):
        n = min(_CHUNK, P - c0)
        size = max(_TAIL, 1 << (n - 1).bit_length())
        bits = size.bit_length()
        qc = q[c0:c0 + n]
        order = np.argsort(qc)
        # Ket Q ranks and classes in the chunk, padded to a power of two:
        # the padding lies past every block a bra of this chunk counts.
        rank = np.zeros(size, dtype=np.int64)
        rank[order] = np.arange(n)
        cc = np.zeros(size, dtype=np.int64)
        cc[:n] = cls[c0:c0 + n]
        # A ket clears a bra's threshold iff it ranks at or above the
        # threshold's insertion point.
        qrank = np.searchsorted(qc[order], th)
        off = pos - c0
        here = rows[(off >= 0) & (off < n)]
        # Class histogram of every ``width``-wide block.
        hist = np.bincount(
            np.arange(size) // _TAIL * nclass + cc, minlength=size // _TAIL * nclass
        ).reshape(-1, nclass)
        width = _TAIL
        while width < size:
            # A bra with bit ``width`` set counts the left half of its
            # ``2 * width``-wide block.
            t = here[(off[here] & width) != 0]
            if t.size:
                _add_block_counts(
                    out, t, rank.reshape(-1, 2, width)[:, 0],
                    cc.reshape(-1, 2, width)[:, 0], hist[0::2],
                    off[t] // (2 * width), qrank[t], bits)
            hist = hist.reshape(-1, 2, nclass).sum(axis=1)
            width *= 2
        # Bras past the chunk count all of it.
        t = rows[off >= n]
        if t.size:
            _add_block_counts(
                out, t, rank[None, :n], cc[None, :n],
                np.bincount(cc[:n], minlength=nclass)[None],
                np.zeros(t.size, dtype=np.int64), qrank[t], bits)
    return out


def _add_block_counts(out, rows, rank, cls, hist, qblock, qrank, bits):
    """``out[rows, c] +=`` the kets in row ``qblock`` of ``rank`` / ``cls``
    of class ``c`` ranked at or above ``qrank``.

    ``rank`` and ``cls`` are ``(blocks, width)``, ranks and ``qrank`` below
    ``2 ** bits``; ``hist[b, c]`` counts the kets of class ``c`` in block
    ``b``.  Few bras search once per class in ``(block, class, rank)``
    order; many bras search once each in ``(block, rank)`` order and read
    the classes off a cumulative table.
    """
    nblock, width = rank.shape
    nclass = out.shape[1]
    if rows.size * nclass <= rank.size:
        keys = np.sort((cls << bits) | rank, axis=1)
        keys += (np.arange(nblock) * nclass << bits)[:, None]
        gq = np.arange(nclass) + (qblock * nclass)[:, None]
        count = np.cumsum(hist.ravel())[gq]
        gq <<= bits
        gq |= qrank[:, None]
        count -= np.searchsorted(keys.ravel(), gq)
    else:
        cbits = (nclass - 1).bit_length()
        keys = np.sort((rank << cbits) | cls, axis=1)
        table = np.zeros((rank.size + 1, nclass), dtype=np.int32)
        table[np.arange(1, rank.size + 1),
              keys.ravel() & ((1 << cbits) - 1)] = 1
        np.cumsum(table, axis=0, out=table)
        keys += (np.arange(nblock) << (bits + cbits))[:, None]
        lo = np.searchsorted(keys.ravel(), (qblock << (bits + cbits)) | (qrank << cbits))
        count = table[(qblock + 1) * width] - table[lo]
    out[rows] += count


# -- model Schwarz matrix ---------------------------------------------------


@dataclass(frozen=True)
class SchwarzModelParams:
    """Fitted parameters of the distance-decay Schwarz model.

    Attributes
    ----------
    amplitudes:
        ``log Q`` amplitude per shell-type label.
    residual_std:
        Standard deviation of the log-space fit residual (quality metric).
    """

    amplitudes: dict[str, float]
    residual_std: float


#: Default parameters, calibrated against exact 6-31G(d) Schwarz matrices
#: of small graphene patches (``tests/test_screening_model.py``).
#: Values are log-amplitudes.
DEFAULT_SCHWARZ_PARAMS = SchwarzModelParams(
    amplitudes={"S": -0.417, "L": 0.371, "D": 1.719},
    residual_std=1.30,
)


def model_schwarz_pairs(
    basis: BasisSet, params: SchwarzModelParams | None = None
) -> np.ndarray:
    """Modelled Schwarz bound of every canonical shell pair.

    In combined-index order (``pair_q`` of :class:`Screening`), one row
    ``i`` of pairs ``(i, j <= i)`` at a time: no square matrix and no
    pair index arrays (the 5.0 nm dataset's 3.3 * 10^7 pairs are the
    single large allocation of the workload pipeline).
    """
    params = params or DEFAULT_SCHWARZ_PARAMS
    comps = basis.composite_shells
    centers = np.array([c.center for c in comps])
    zetas = np.array([c.min_exponent() for c in comps])
    amp = np.array([params.amplitudes[c.stype] for c in comps])
    out = np.empty(npairs(len(comps)))
    for i in range(len(comps)):
        j = slice(0, i + 1)
        d = centers[i] - centers[j]
        r2 = np.einsum("ij,ij->i", d, d)
        mu = zetas[i] * zetas[j] / (zetas[i] + zetas[j])
        out[npairs(i):npairs(i + 1)] = np.exp(amp[i] + amp[j] - mu * r2)
    return out
