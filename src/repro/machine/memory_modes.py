"""MCDRAM memory modes: flat, cache, hybrid.

The memory mode determines the effective bandwidth the Fock build's
memory-bound phases (density reads, buffer flushes, Fock updates) see,
as a function of the per-node working set:

* **cache** — MCDRAM is a direct-mapped L3 in front of DDR4.  Working
  sets within MCDRAM run near MCDRAM bandwidth (minus a direct-mapped
  conflict-miss penalty); larger working sets degrade smoothly toward
  DDR4 bandwidth.
* **flat** — explicit placement: ``flat-mcdram`` allocations run at full
  MCDRAM bandwidth but *must fit* in 16 GB; ``flat-ddr`` runs at DDR4
  bandwidth regardless of size (the ``numactl`` choices).
* **hybrid** — half the MCDRAM is cache, half is allocatable; modelled
  with the cache curve over an 8 GB cache.
"""

from __future__ import annotations

import enum

from repro.machine.knl import KNLNodeSpec


class MemoryMode(str, enum.Enum):
    """KNL boot-time memory configuration."""

    CACHE = "cache"
    FLAT_MCDRAM = "flat-mcdram"
    FLAT_DDR = "flat-ddr"
    HYBRID = "hybrid"


#: Direct-mapped-cache efficiency relative to raw MCDRAM bandwidth.
_CACHE_MODE_EFFICIENCY = 0.85


def effective_bandwidth_gbs(
    mode: MemoryMode,
    working_set_gb: float,
    node: KNLNodeSpec,
) -> float:
    """Effective streaming bandwidth for a working set under a mode.

    Raises
    ------
    ValueError
        For ``flat-mcdram`` with a working set that does not fit in
        MCDRAM (the real run would fail to allocate).
    """
    mode = MemoryMode(mode)
    if working_set_gb < 0:
        raise ValueError("working set must be non-negative")

    if mode is MemoryMode.FLAT_DDR:
        return node.ddr_bw_gbs
    if mode is MemoryMode.FLAT_MCDRAM:
        if working_set_gb > node.mcdram_gb:
            raise ValueError(
                f"working set {working_set_gb:.1f} GB exceeds MCDRAM "
                f"({node.mcdram_gb:.0f} GB) in flat-mcdram mode"
            )
        return node.mcdram_bw_gbs

    cache_gb = node.mcdram_gb if mode is MemoryMode.CACHE else node.mcdram_gb / 2
    peak = node.mcdram_bw_gbs * _CACHE_MODE_EFFICIENCY
    if working_set_gb <= cache_gb:
        return peak
    # Smooth hit-rate degradation: the cached fraction runs at MCDRAM
    # speed, the rest at DDR speed.
    hit = cache_gb / working_set_gb
    return hit * peak + (1.0 - hit) * node.ddr_bw_gbs
