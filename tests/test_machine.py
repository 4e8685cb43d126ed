"""KNL node, memory modes, cluster modes, interconnects, systems."""

import math

import pytest

from repro.machine.cluster_modes import ClusterMode, cluster_penalties
from repro.machine.interconnect import ARIES_DRAGONFLY, OMNI_PATH
from repro.machine.knl import XEON_PHI_7210, XEON_PHI_7230
from repro.machine.memory_modes import (
    MemoryMode,
    effective_bandwidth_gbs,
)
from repro.machine.system import JLSE, THETA


class TestKNLNode:
    def test_specs_match_paper_table1(self):
        for node in (XEON_PHI_7210, XEON_PHI_7230):
            assert node.ncores == 64
            assert node.frequency_ghz == 1.3
            assert node.mcdram_gb == 16
            assert node.ddr_gb == 192
            assert node.max_hw_threads == 256

    def test_smt_curve_biggest_gain_at_two(self):
        """Paper: 'the benefit is highest... for two threads per core'."""
        n = XEON_PHI_7230
        gains = [
            n.core_throughput(t + 1) - n.core_throughput(t)
            for t in range(1, 4)
        ]
        assert gains[0] > gains[1] >= gains[2] >= 0

    def test_node_throughput_monotone(self):
        n = XEON_PHI_7230
        prev = 0.0
        for t in (1, 32, 64, 128, 192, 256):
            cur = n.node_throughput(t)
            assert cur >= prev
            prev = cur

    def test_node_throughput_saturates(self):
        n = XEON_PHI_7230
        assert n.node_throughput(256) == n.node_throughput(999)
        assert math.isclose(
            n.node_throughput(256), 64 * n.core_throughput(4), rel_tol=1e-12
        )

    def test_spread_beats_packed_at_low_counts(self):
        n = XEON_PHI_7230
        assert n.node_throughput(32, spread=True) > n.node_throughput(
            32, spread=False
        )


class TestMemoryModes:
    def test_small_working_set_runs_at_mcdram_speed(self):
        bw = effective_bandwidth_gbs(MemoryMode.CACHE, 4.0, XEON_PHI_7230)
        assert bw > 250

    def test_large_working_set_degrades_toward_ddr(self):
        bw_small = effective_bandwidth_gbs(MemoryMode.CACHE, 4.0, XEON_PHI_7230)
        bw_big = effective_bandwidth_gbs(MemoryMode.CACHE, 150.0, XEON_PHI_7230)
        assert bw_big < bw_small
        assert bw_big > XEON_PHI_7230.ddr_bw_gbs * 0.9

    def test_flat_ddr_constant(self):
        for ws in (1.0, 50.0, 180.0):
            assert effective_bandwidth_gbs(
                MemoryMode.FLAT_DDR, ws, XEON_PHI_7230
            ) == XEON_PHI_7230.ddr_bw_gbs

    def test_flat_mcdram_capacity_enforced(self):
        assert effective_bandwidth_gbs(
            MemoryMode.FLAT_MCDRAM, 10.0, XEON_PHI_7230
        ) == XEON_PHI_7230.mcdram_bw_gbs
        with pytest.raises(ValueError):
            effective_bandwidth_gbs(MemoryMode.FLAT_MCDRAM, 20.0, XEON_PHI_7230)

    def test_hybrid_between_cache_and_flat(self):
        bw_hybrid = effective_bandwidth_gbs(MemoryMode.HYBRID, 12.0, XEON_PHI_7230)
        bw_cache = effective_bandwidth_gbs(MemoryMode.CACHE, 12.0, XEON_PHI_7230)
        assert bw_hybrid <= bw_cache

    def test_negative_ws_rejected(self):
        with pytest.raises(ValueError):
            effective_bandwidth_gbs(MemoryMode.CACHE, -1.0, XEON_PHI_7230)


class TestClusterModes:
    def test_quadrant_is_baseline(self):
        p = cluster_penalties(ClusterMode.QUADRANT)
        assert p.coherency == 1.0 and p.memory == 1.0

    def test_all_to_all_is_worst(self):
        """Paper Figure 5: all-to-all clearly worst for shared data."""
        a2a = cluster_penalties(ClusterMode.ALL_TO_ALL)
        for mode in ClusterMode:
            if mode is not ClusterMode.ALL_TO_ALL:
                assert a2a.coherency > cluster_penalties(mode).coherency

    def test_string_lookup(self):
        assert cluster_penalties("quadrant").coherency == 1.0


class TestInterconnect:
    def test_allreduce_zero_for_one_rank(self):
        assert ARIES_DRAGONFLY.allreduce_seconds(1e6, 1) == 0.0

    def test_allreduce_grows_with_ranks_and_bytes(self):
        t1 = ARIES_DRAGONFLY.allreduce_seconds(1e6, 16)
        t2 = ARIES_DRAGONFLY.allreduce_seconds(1e6, 4096)
        t3 = ARIES_DRAGONFLY.allreduce_seconds(1e8, 16)
        assert t2 > t1
        assert t3 > t1

    def test_dlb_fetch_local_faster(self):
        assert ARIES_DRAGONFLY.dlb_fetch_seconds(same_node=True) < (
            ARIES_DRAGONFLY.dlb_fetch_seconds(same_node=False)
        )


class TestSystems:
    def test_theta_and_jlse(self):
        assert THETA.max_nodes == 3624
        assert JLSE.max_nodes == 10
        assert THETA.node.model == "Xeon Phi 7230"
        assert JLSE.node.model == "Xeon Phi 7210"
        assert THETA.interconnect is ARIES_DRAGONFLY
        assert JLSE.interconnect is OMNI_PATH

    def test_node_validation(self):
        THETA.validate_nodes(3000)
        with pytest.raises(ValueError):
            THETA.validate_nodes(4000)
        with pytest.raises(ValueError):
            JLSE.validate_nodes(0)
