"""Memory-footprint model: eqs (3a)-(3c), Table 2 headlines, caps."""

import math

import pytest

from repro.constants import GB
from repro.core.memory_model import (
    AlgorithmKind,
    MemoryModel,
    NodeConfig,
    TABLE2_HYBRID_CONFIG,
    TABLE2_MPI_CONFIG,
)


def test_inventory_sums_match_paper_coefficients():
    """The structure inventories reproduce the 5/2, 2+T, 7/2 asymptotics."""
    n = 1000
    mm = MemoryModel(n)
    n2 = float(n * n)
    assert math.isclose(
        mm.per_rank_words(AlgorithmKind.MPI_ONLY), 2.5 * n2, rel_tol=1e-12
    )
    for t in (1, 16, 64):
        assert math.isclose(
            mm.per_rank_words(AlgorithmKind.PRIVATE_FOCK, t),
            (2 + t) * n2,
            rel_tol=1e-12,
        )
    # Shared Fock: 7/2 N^2 plus the FI/FJ buffers — negligible only in
    # the asymptotic (large-N) limit, exactly as the paper notes.
    big = MemoryModel(30240)
    got = big.per_rank_words(AlgorithmKind.SHARED_FOCK, 64)
    assert math.isclose(got, 3.5 * 30240.0 ** 2, rel_tol=1e-2)
    assert got > 3.5 * 30240.0 ** 2  # buffers are accounted


def test_asymptotic_equations_verbatim():
    mm = MemoryModel(5340)
    cfg = NodeConfig(4, 64)
    n2 = 5340.0 ** 2
    assert mm.asymptotic_words(AlgorithmKind.MPI_ONLY, NodeConfig(256)) == (
        2.5 * n2 * 256
    )
    assert mm.asymptotic_words(AlgorithmKind.PRIVATE_FOCK, cfg) == 66 * n2 * 4
    assert mm.asymptotic_words(AlgorithmKind.SHARED_FOCK, cfg) == 3.5 * n2 * 4


def test_legacy_ddi_doubles_mpi():
    mm = MemoryModel(1000, legacy_ddi=True)
    mm0 = MemoryModel(1000, legacy_ddi=False)
    assert mm.per_rank_words(AlgorithmKind.MPI_ONLY) == 2 * mm0.per_rank_words(
        AlgorithmKind.MPI_ONLY
    )
    # Hybrids are unaffected (they used the MPI-3 DDI).
    assert mm.per_rank_words(AlgorithmKind.SHARED_FOCK, 64) == (
        mm0.per_rank_words(AlgorithmKind.SHARED_FOCK, 64)
    )


def test_footprint_reduction_headline():
    """Paper headline: shared Fock ~200x below stock MPI; private ~50x."""
    for nbf in (1800, 5340, 30240):
        mm = MemoryModel(nbf, legacy_ddi=True)
        red_shared = mm.footprint_reduction(
            AlgorithmKind.SHARED_FOCK, TABLE2_HYBRID_CONFIG, TABLE2_MPI_CONFIG
        )
        assert 80 <= red_shared <= 250
        red_private = mm.footprint_reduction(
            AlgorithmKind.PRIVATE_FOCK, TABLE2_HYBRID_CONFIG, TABLE2_MPI_CONFIG
        )
        assert 3 <= red_private <= 60


def test_table2_ordering_and_magnitudes():
    """Footprint ordering MPI >> private >> shared for every dataset."""
    from repro.analysis.tables import table2_memory_footprints

    for row in table2_memory_footprints():
        assert row.mpi_gb > row.private_gb > row.shared_gb
        assert row.mpi_gb / row.shared_gb > 60


def test_max_ranks_per_node_cap():
    """The 1.0 nm stock-code ceiling: with ~1 GB/rank base the node
    cannot host 256 ranks (the paper's 128-hardware-thread limit)."""
    mm = MemoryModel(1800, legacy_ddi=True)
    node_bytes = 192 * GB
    # Matrix replicas alone would allow 256 ranks...
    assert mm.max_ranks_per_node(AlgorithmKind.MPI_ONLY, node_bytes) == 256
    # ...the run-time base is what forbids it (handled by the perf sim's
    # feasibility logic; here we check the raw matrix-only bound).
    per_rank = mm.per_rank_words(AlgorithmKind.MPI_ONLY) * 8
    assert (per_rank + 1 * GB) * 256 > node_bytes


def test_per_node_gb_scaling():
    mm = MemoryModel(5340)
    one = mm.per_node_gb(AlgorithmKind.SHARED_FOCK, NodeConfig(1, 64))
    four = mm.per_node_gb(AlgorithmKind.SHARED_FOCK, NodeConfig(4, 64))
    assert math.isclose(four, 4 * one, rel_tol=1e-12)


def test_invalid_kind_rejected():
    mm = MemoryModel(100)
    with pytest.raises(ValueError):
        mm.per_rank_words("gpu-only")
