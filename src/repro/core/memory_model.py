"""Memory-footprint model of the three HF algorithms (paper eqs. 3a-3c).

The paper's asymptotic per-node footprints, in matrix words:

.. math::

   M_{MPI}  &= \\tfrac{5}{2} N^2 \\cdot N_{MPI/node} \\\\
   M_{PrF}  &= (2 + N_{threads}) N^2 \\cdot N_{MPI/node} \\\\
   M_{ShF}  &= \\tfrac{7}{2} N^2 \\cdot N_{MPI/node}

This module implements those equations *and* the explicit structure
inventory behind them (which matrices are replicated per rank, per
thread, or shared), the small non-asymptotic terms (the FI/FJ thread
buffers of Figure 1), the legacy-DDI data-server doubling that affects
the stock MPI code, and the derived quantities the benchmarks need:
Table 2 footprints, footprint-limited rank counts (the reason the
MPI-only code cannot use more than 128 hardware threads on one node in
Figure 4), and the ~50x / ~200x reduction headlines.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.constants import GB, WORD_BYTES


class AlgorithmKind(str, enum.Enum):
    """The three HF parallelizations benchmarked in the paper."""

    MPI_ONLY = "mpi-only"
    PRIVATE_FOCK = "private-fock"
    SHARED_FOCK = "shared-fock"


@dataclass(frozen=True)
class Structure:
    """One named data structure in the footprint inventory.

    ``scope`` is ``"rank"`` (replicated per MPI rank), ``"thread"``
    (replicated per OpenMP thread), or ``"node"`` (shared per node).
    ``words`` is its size in 8-byte words.
    """

    name: str
    words: float
    scope: str


@dataclass(frozen=True)
class NodeConfig:
    """Process/thread geometry on one node."""

    mpi_per_node: int
    threads_per_rank: int = 1

    @property
    def hardware_threads(self) -> int:
        """Total hardware threads the configuration occupies."""
        return self.mpi_per_node * self.threads_per_rank


class MemoryModel:
    """Footprint model for a given problem size.

    Parameters
    ----------
    nbf:
        Number of basis functions ``N``.
    nshells:
        Composite shell count (sizes the FI/FJ buffers).
    max_shell_width:
        Widest shell block (the paper's ``shellSize``; 6 for 6-31G(d)
        with Cartesian d).
    legacy_ddi:
        When true, the stock MPI code pays the pre-MPI-3 DDI data-server
        duplication: one data-server process per compute rank with the
        same replicated structures (the paper's section 6.2; the runs in
        the paper used the MPI-3 DDI, so the default is off).
    """

    def __init__(
        self,
        nbf: int,
        nshells: int = 0,
        max_shell_width: int = 6,
        *,
        legacy_ddi: bool = False,
    ) -> None:
        self.nbf = int(nbf)
        self.nshells = int(nshells)
        self.max_shell_width = int(max_shell_width)
        self.legacy_ddi = legacy_ddi

    # -- structure inventories -------------------------------------------

    def inventory(
        self, kind: AlgorithmKind, nthreads: int = 1
    ) -> list[Structure]:
        """The named-structure inventory behind eqs. (3a)-(3c).

        Symmetric matrices (density, Fock, core Hamiltonian, overlap)
        are stored triangular (N^2/2 words) as GAMESS does; the MO
        coefficient matrix is square.  The inventories sum exactly to
        the paper's asymptotic coefficients: 5/2 (MPI-only),
        2 + N_threads (private Fock), 7/2 (shared Fock).
        """
        n2 = float(self.nbf) ** 2
        tri = n2 / 2.0
        kind = AlgorithmKind(kind)

        if kind is AlgorithmKind.MPI_ONLY:
            return [
                Structure("density", tri, "rank"),
                Structure("fock", tri, "rank"),
                Structure("core-hamiltonian", tri, "rank"),
                Structure("mo-coefficients", n2, "rank"),
            ]
        if kind is AlgorithmKind.PRIVATE_FOCK:
            return [
                Structure("density (shared)", tri, "rank"),
                Structure("core-hamiltonian (shared)", tri, "rank"),
                Structure("mo-coefficients (shared)", n2, "rank"),
                Structure("fock (per thread)", n2, "thread"),
            ]
        return [
            Structure("density (shared)", tri, "rank"),
            Structure("core-hamiltonian (shared)", tri, "rank"),
            Structure("overlap (shared)", tri, "rank"),
            Structure("mo-coefficients (shared)", n2, "rank"),
            Structure("fock (shared)", n2, "rank"),
            Structure(
                "FI/FJ thread buffers",
                2.0 * self.nbf * self.max_shell_width,
                "thread",
            ),
        ]

    # -- per-rank / per-node footprints -------------------------------------

    def per_rank_words(self, kind: AlgorithmKind, nthreads: int = 1) -> float:
        """Words held by one MPI rank (including its threads' replicas)."""
        total = 0.0
        for s in self.inventory(kind, nthreads):
            if s.scope == "thread":
                total += s.words * nthreads
            else:
                total += s.words
        kind = AlgorithmKind(kind)
        if kind is AlgorithmKind.MPI_ONLY and self.legacy_ddi:
            total *= 2.0  # compute rank + DDI data-server twin
        return total

    def per_node_bytes(self, kind: AlgorithmKind, config: NodeConfig) -> float:
        """Bytes per node for a process geometry."""
        return (
            self.per_rank_words(kind, config.threads_per_rank)
            * config.mpi_per_node
            * WORD_BYTES
        )

    def per_node_gb(self, kind: AlgorithmKind, config: NodeConfig) -> float:
        """GB per node (decimal GB, as the paper's Table 2 reports)."""
        return self.per_node_bytes(kind, config) / GB

    # -- paper equations (asymptotic, square-matrix form) -----------------

    def asymptotic_words(
        self, kind: AlgorithmKind, config: NodeConfig
    ) -> float:
        """Eqs. (3a)-(3c) verbatim: words per node, square-matrix units."""
        n2 = float(self.nbf) ** 2
        kind = AlgorithmKind(kind)
        if kind is AlgorithmKind.MPI_ONLY:
            coeff = 2.5
        elif kind is AlgorithmKind.PRIVATE_FOCK:
            coeff = 2.0 + config.threads_per_rank
        else:
            coeff = 3.5
        return coeff * n2 * config.mpi_per_node

    # -- derived quantities ---------------------------------------------------

    def max_ranks_per_node(
        self,
        kind: AlgorithmKind,
        node_memory_bytes: float,
        *,
        nthreads: int = 1,
        cap: int = 256,
    ) -> int:
        """Largest rank count whose replicas fit in node memory.

        This is the constraint that limits the stock MPI code to 128
        hardware threads for the 1.0 nm system in the paper's Figure 4.
        """
        per_rank = self.per_rank_words(kind, nthreads) * WORD_BYTES
        if per_rank <= 0:
            return cap
        return max(0, min(cap, int(node_memory_bytes // per_rank)))

    def footprint_reduction(
        self,
        kind: AlgorithmKind,
        hybrid_config: NodeConfig,
        mpi_config: NodeConfig,
    ) -> float:
        """Footprint ratio stock-MPI / hybrid (the ~50x and ~200x numbers)."""
        mpi = self.per_node_bytes(AlgorithmKind.MPI_ONLY, mpi_config)
        hyb = self.per_node_bytes(kind, hybrid_config)
        return mpi / hyb if hyb > 0 else float("inf")


#: The node geometries the paper uses for Table 2: 256 single-thread
#: ranks for the stock code, 4 ranks x 64 threads for the hybrids.
TABLE2_MPI_CONFIG = NodeConfig(mpi_per_node=256, threads_per_rank=1)
TABLE2_HYBRID_CONFIG = NodeConfig(mpi_per_node=4, threads_per_rank=64)
