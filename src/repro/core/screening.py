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

3. **The model Schwarz matrix** for benchmark-scale systems, where
   exact :math:`Q_{ij} = \\sqrt{(ij|ij)}` evaluation is unaffordable in
   Python: a calibrated Gaussian-overlap decay model

   .. math:: \\log Q_{ij} = a_{t_i} + a_{t_j} -
             \\frac{\\zeta_i \\zeta_j}{\\zeta_i + \\zeta_j} R_{ij}^2

   with one amplitude per shell type (S/L/D) and the most-diffuse
   exponent :math:`\\zeta` per composite shell.  The parameters are fit
   once against exact small-graphene Schwarz matrices
   (:func:`calibrate_schwarz_model`); the fit quality is exercised by
   the test suite and reported in EXPERIMENTS.md.
"""

from __future__ import annotations

import copy
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

    def with_tau(self, tau: float) -> "Screening":
        """A view of the same Schwarz data under a different threshold.

        Used by density-aware (incremental) screening: a small density
        change lets the effective threshold rise without recomputing any
        bounds.  The clone shallow-copies *every* attribute (sharing the
        Schwarz arrays) so fields added to ``__init__`` later can never
        be silently missing on incremental-SCF clones.
        """
        clone = copy.copy(self)
        clone.tau = float(tau)
        return clone

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

    def pair_survivor_counts(self, pair_costs: np.ndarray | None = None) -> np.ndarray:
        """Surviving-quartet count (or cost) per top-loop ``ij`` task.

        For every combined bra index ``ij``, counts ket pairs
        ``kl <= ij`` with ``Q_ij Q_kl >= tau``.  Computed by sorting the
        prefix of pair Q values incrementally — overall
        ``O(P log P)`` via offline sorting: survivors(ij) = number of
        elements among the first ``ij + 1`` pair Qs that are
        ``>= tau / Q_ij``, obtained from the ranks of thresholds in the
        prefix order statistics.

        Parameters
        ----------
        pair_costs:
            Optional per-``kl`` cost weights; when given, returns the
            summed cost of survivors instead of their count (used by the
            performance model's work estimates).

        Notes
        -----
        Exact counting with arbitrary prefixes requires an offline
        order-statistics pass; we use a merge-based approach: process
        pairs in combined-index order, maintaining a sorted list via
        ``numpy`` (amortized through block rebuilds).  For the library's
        dataset sizes (up to 3.3 * 10^7 pairs) the simpler
        *global-sort + correction-free approximation* is not acceptable,
        so we do the exact prefix computation in
        :func:`prefix_survivor_counts`, which this method delegates to.
        """
        return prefix_survivor_counts(self.pair_q, self.tau, pair_costs)


def prefix_survivor_counts(
    pair_q: np.ndarray, tau: float, pair_costs: np.ndarray | None = None
) -> np.ndarray:
    """Exact per-prefix survivor counts/costs.

    For each bra index ``ij`` (a position in ``pair_q``), computes
    ``sum over kl <= ij of w_kl * [Q_ij * Q_kl >= tau]`` where ``w`` is
    1 or ``pair_costs``.  This is the per-top-loop-task work of
    Algorithm 3, computed *without quartet enumeration*.

    Implemented as a vectorized divide-and-conquer dominance count
    (merge-sort style): positions are split in half; for every bra in
    the right half the qualifying kets in the left half are counted with
    one ``searchsorted`` against the left half's sorted Q values (plus a
    weight prefix sum); halves recurse.  ``O(P log^2 P)`` with NumPy-
    vectorized inner work — the 2.0 nm dataset's 10^6 pairs take ~1 s
    and the 5.0 nm dataset's 3.3 * 10^7 pairs stay tractable.
    """
    pair_q = np.asarray(pair_q, dtype=np.float64)
    P = pair_q.size
    if pair_costs is None:
        w = np.ones((P, 1))
        squeeze = True
    else:
        w = np.asarray(pair_costs, dtype=np.float64)
        squeeze = w.ndim == 1
        if squeeze:
            w = w[:, None]
        if w.shape[0] != P:
            raise ValueError(f"pair_costs first dim must be {P}; got {w.shape}")
    C = w.shape[1]
    out = np.zeros((P, C), dtype=np.float64)
    if P == 0:
        return out[:, 0] if squeeze else out
    with np.errstate(divide="ignore", over="ignore"):
        thresholds = np.where(pair_q > 0, tau / pair_q, np.inf)

    # Bottom-up merge over position blocks: at block size s, each
    # adjacent (left, right) block pair contributes the count of
    # left-side kets qualifying for right-side bras.  Over all levels
    # every ordered pair (ket position < bra position) is counted
    # exactly once; the kl == ij self term is added up front.
    out += w * (pair_q * pair_q >= tau)[:, None]

    # Pad to a power-of-two length with inert entries: -inf Q never
    # qualifies as a ket, +inf thresholds never accept kets.
    P2 = 1 << (P - 1).bit_length()
    qp = np.full(P2, -np.inf)
    qp[:P] = pair_q
    tp = np.full(P2, np.inf)
    tp[:P] = thresholds
    wp = np.zeros((P2, C))
    wp[:P] = w
    outp = np.zeros((P2, C))

    # Small levels: all block pairs at once via broadcasting, chunked to
    # bound the (nblocks, s, s) comparison tensor.
    _SMALL = 32
    size = 1
    while size < P2 and size <= _SMALL:
        nb = P2 // (2 * size)
        ql = qp.reshape(nb, 2 * size)[:, :size]
        wl = wp.reshape(nb, 2 * size, C)[:, :size, :]
        th = tp.reshape(nb, 2 * size)[:, size:]
        chunk = max(1, int(4.0e7 // (size * size + 1)))
        res = np.empty((nb, size, C))
        for s0 in range(0, nb, chunk):
            s1 = min(s0 + chunk, nb)
            qual = ql[s0:s1, :, None] >= th[s0:s1, None, :]
            res[s0:s1] = np.einsum("bkr,bkc->brc", qual, wl[s0:s1])
        outp.reshape(nb, 2 * size, C)[:, size:, :] += res
        size *= 2

    # Large levels: one sort + one batched searchsorted per block pair.
    while size < P2:
        for left in range(0, P2, 2 * size):
            mid = left + size
            right = mid + size
            order = np.argsort(qp[left:mid], kind="stable")
            qls = qp[left:mid][order]
            cumw = np.vstack(
                (np.zeros(C), np.cumsum(wp[left:mid][order], axis=0))
            )
            pos = np.searchsorted(qls, tp[mid:right], side="left")
            outp[mid:right] += cumw[-1] - cumw[pos]
        size *= 2

    out += outp[:P]
    return out[:, 0] if squeeze else out


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
#: of small graphene patches (see ``calibrate_schwarz_model`` and
#: ``tests/test_screening_model.py``).  Values are log-amplitudes.
DEFAULT_SCHWARZ_PARAMS = SchwarzModelParams(
    amplitudes={"S": -0.417, "L": 0.371, "D": 1.719},
    residual_std=1.30,
)


def _shell_features(basis: BasisSet) -> tuple[np.ndarray, list[str], np.ndarray]:
    """Per-composite-shell (centers, type labels, diffuse exponents)."""
    comps = basis.composite_shells
    centers = np.array([c.center for c in comps])
    types = [c.stype for c in comps]
    zetas = np.array([c.min_exponent() for c in comps])
    return centers, types, zetas


def model_schwarz_matrix(
    basis: BasisSet, params: SchwarzModelParams | None = None
) -> np.ndarray:
    """Modelled Schwarz bound matrix for benchmark-scale systems.

    Memory-aware: built from per-atom distance blocks, O(nshells^2)
    output (the 5 nm dataset gives a 8,064^2 float64 matrix, ~0.5 GB —
    the single large allocation of the workload pipeline).
    """
    params = params or DEFAULT_SCHWARZ_PARAMS
    centers, types, zetas = _shell_features(basis)
    amp = np.array([params.amplitudes[t] for t in types])

    n = len(types)
    Q = np.empty((n, n))
    # Row-blocked pairwise distances keep peak temp memory bounded.
    block = max(1, int(2.0e7 // max(n, 1)))
    mu = zetas[:, None] * zetas[None, :] / (zetas[:, None] + zetas[None, :])
    for s in range(0, n, block):
        e = min(s + block, n)
        diff = centers[s:e, None, :] - centers[None, :, :]
        r2 = np.einsum("ijk,ijk->ij", diff, diff)
        Q[s:e] = np.exp(amp[s:e, None] + amp[None, :] - mu[s:e] * r2)
    return Q


def calibrate_schwarz_model(
    basis: BasisSet, exact_Q: np.ndarray
) -> SchwarzModelParams:
    """Fit the decay model's per-type amplitudes to an exact Q matrix.

    Linear least squares in log space:
    ``log Q_ij + mu_ij R_ij^2 = a_{t_i} + a_{t_j}``.
    """
    centers, types, zetas = _shell_features(basis)
    labels = sorted(set(types))
    col = {t: c for c, t in enumerate(labels)}
    n = len(types)

    rows = []
    rhs = []
    for i in range(n):
        for j in range(i + 1):
            q = exact_Q[i, j]
            if q <= 0:
                continue
            r2 = float(np.sum((centers[i] - centers[j]) ** 2))
            mu = zetas[i] * zetas[j] / (zetas[i] + zetas[j])
            row = np.zeros(len(labels))
            row[col[types[i]]] += 1.0
            row[col[types[j]]] += 1.0
            rows.append(row)
            rhs.append(np.log(q) + mu * r2)
    A = np.array(rows)
    b = np.array(rhs)
    sol, *_ = np.linalg.lstsq(A, b, rcond=None)
    resid = A @ sol - b
    return SchwarzModelParams(
        amplitudes={t: float(sol[col[t]]) for t in labels},
        residual_std=float(np.std(resid)),
    )
