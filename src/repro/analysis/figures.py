"""Reproduction of the paper's figures (3-7) as data series."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import ALGORITHMS
from repro.machine.cluster_modes import ClusterMode
from repro.machine.memory_modes import MemoryMode
from repro.machine.system import JLSE, THETA
from repro.perfsim.affinity import Affinity
from repro.perfsim.cost_model import CostModel, calibrated_cost_model
from repro.perfsim.scaling import (
    ScalingPoint,
    node_scaling,
    single_node_thread_scaling,
)
from repro.perfsim.simulate import RunConfig, simulate_fock_build
from repro.perfsim.workload import Workload


@dataclass
class Series:
    """One labelled curve: x values and timings."""

    label: str
    x: list[int | str]
    seconds: list[float]
    feasible: list[bool] = field(default_factory=list)


def figure3_affinity(
    cost: CostModel | None = None,
    *,
    thread_counts: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64),
) -> list[Series]:
    """Figure 3: shared-Fock time vs threads/rank per affinity type.

    1.0 nm dataset, one JLSE node, 4 MPI ranks, quad-cache mode.
    """
    cost = cost or calibrated_cost_model()
    wl = Workload.for_dataset("1.0nm")
    out: list[Series] = []
    for aff in (Affinity.COMPACT, Affinity.SCATTER, Affinity.BALANCED, Affinity.NONE):
        xs, ts = [], []
        for tpr in thread_counts:
            cfg = RunConfig.hybrid(
                "shared-fock", system=JLSE, nodes=1, ranks_per_node=4,
                threads_per_rank=tpr, affinity=aff,
            )
            sim = simulate_fock_build(wl, cfg, cost)
            xs.append(tpr)
            ts.append(sim.total_seconds)
        out.append(Series(label=aff.value, x=xs, seconds=ts))
    return out


def figure4_single_node(
    cost: CostModel | None = None,
    *,
    hw_threads: tuple[int, ...] = (4, 8, 16, 32, 64, 128, 256),
) -> list[Series]:
    """Figure 4: single-node scaling vs hardware threads, all 3 codes.

    1.0 nm dataset on one JLSE node.  The stock code's points beyond its
    memory limit are reported infeasible — the paper's 128-thread
    ceiling.
    """
    cost = cost or calibrated_cost_model()
    wl = Workload.for_dataset("1.0nm")
    out: list[Series] = []
    for alg in ALGORITHMS:
        pts = single_node_thread_scaling(
            wl, alg, list(hw_threads), cost, system=JLSE
        )
        out.append(
            Series(
                label=alg,
                x=[p.x for p in pts],
                seconds=[p.seconds for p in pts],
                feasible=[p.feasible for p in pts],
            )
        )
    return out


def figure5_modes(
    cost: CostModel | None = None,
    *,
    datasets: tuple[str, ...] = ("0.5nm", "2.0nm"),
    cluster_modes: tuple[ClusterMode, ...] = (
        ClusterMode.QUADRANT,
        ClusterMode.SNC4,
        ClusterMode.ALL_TO_ALL,
    ),
    memory_modes: tuple[MemoryMode, ...] = (
        MemoryMode.CACHE,
        MemoryMode.FLAT_DDR,
        MemoryMode.FLAT_MCDRAM,
    ),
) -> dict[str, list[dict]]:
    """Figure 5: time per (cluster mode x memory mode x algorithm).

    Returns, per dataset, a list of records with keys ``cluster``,
    ``memory``, ``algorithm``, ``seconds``, ``feasible``.
    """
    cost = cost or calibrated_cost_model()
    out: dict[str, list[dict]] = {}
    for label in datasets:
        wl = Workload.for_dataset(label)
        recs: list[dict] = []
        for cmode in cluster_modes:
            for mmode in memory_modes:
                for alg in ALGORITHMS:
                    if alg == "mpi-only":
                        cfg = RunConfig.mpi_only(
                            system=JLSE, nodes=1,
                            cluster_mode=cmode, memory_mode=mmode,
                        )
                    else:
                        cfg = RunConfig.hybrid(
                            alg, system=JLSE, nodes=1,
                            cluster_mode=cmode, memory_mode=mmode,
                        )
                    sim = simulate_fock_build(wl, cfg, cost)
                    recs.append(
                        {
                            "cluster": cmode.value,
                            "memory": mmode.value,
                            "algorithm": alg,
                            "seconds": sim.total_seconds,
                            "feasible": sim.feasible,
                            "reason": sim.infeasible_reason,
                        }
                    )
        out[label] = recs
    return out


def figure6_scaling_curves(
    cost: CostModel | None = None,
    *,
    node_counts: tuple[int, ...] = (4, 16, 64, 128, 256, 512),
) -> list[Series]:
    """Figure 6: multi-node scaling of the three codes, 2.0 nm, Theta."""
    cost = cost or calibrated_cost_model()
    wl = Workload.for_dataset("2.0nm")
    out: list[Series] = []
    for alg in ALGORITHMS:
        pts = node_scaling(wl, alg, list(node_counts), cost, system=THETA)
        out.append(
            Series(
                label=alg,
                x=[p.x for p in pts],
                seconds=[p.seconds for p in pts],
                feasible=[p.feasible for p in pts],
            )
        )
    return out


def figure7_5nm_scaling(
    cost: CostModel | None = None,
    *,
    node_counts: tuple[int, ...] = (256, 512, 1000, 1500, 2000, 3000),
) -> Series:
    """Figure 7: shared-Fock scaling of the 5.0 nm dataset to 3,000 nodes."""
    cost = cost or calibrated_cost_model()
    wl = Workload.for_dataset("5.0nm")
    pts = node_scaling(wl, "shared-fock", list(node_counts), cost, system=THETA)
    return Series(
        label="shared-fock/5.0nm",
        x=[p.x for p in pts],
        seconds=[p.seconds for p in pts],
        feasible=[p.feasible for p in pts],
    )
