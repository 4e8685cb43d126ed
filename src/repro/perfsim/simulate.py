"""End-to-end simulated Fock-build time for one run configuration.

``simulate_fock_build(workload, config, cost_model)`` composes the
machine model, the screening-derived workload, and the algorithm
structure into a wall-time prediction with a cost breakdown.  The
quantity simulated matches what the paper reports: the accumulated
"TIME TO FORM FOCK" over the SCF run (the artifact appendix extracts
exactly that timer), with the replicated diagonalization time reported
separately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from repro.config import SCHEDULES
from repro.constants import GB
from repro.core.memory_model import AlgorithmKind, MemoryModel, NodeConfig
from repro.machine.cluster_modes import ClusterMode, cluster_penalties
from repro.machine.memory_modes import MemoryMode, effective_bandwidth_gbs
from repro.machine.system import SystemSpec, THETA
from repro.perfsim.affinity import Affinity, placement_throughput
from repro.perfsim.cost_model import CostModel
from repro.perfsim.engine import assign_schedule, thread_loop_makespan
from repro.perfsim.workload import Workload


@dataclass(frozen=True)
class RunConfig:
    """One benchmark run: machine geometry, algorithm, node modes.

    ``ranks_per_node=None`` selects the largest memory-feasible rank
    count (power of two, capped at 256) — the choice the paper's
    MPI-only runs are forced into.
    """

    algorithm: AlgorithmKind
    system: SystemSpec = THETA
    nodes: int = 1
    ranks_per_node: int | None = 4
    threads_per_rank: int = 64
    cluster_mode: ClusterMode = ClusterMode.QUADRANT
    memory_mode: MemoryMode = MemoryMode.CACHE
    affinity: Affinity = Affinity.BALANCED
    base_per_rank_gb: float = 1.0
    schedule: str = "dlb"

    def __post_init__(self) -> None:
        # Accept plain strings for every enum field (CLI, config files).
        object.__setattr__(self, "algorithm", AlgorithmKind(self.algorithm))
        object.__setattr__(self, "cluster_mode", ClusterMode(self.cluster_mode))
        object.__setattr__(self, "memory_mode", MemoryMode(self.memory_mode))
        object.__setattr__(self, "affinity", Affinity(self.affinity))
        if self.schedule not in SCHEDULES:
            raise ValueError(
                f"unknown schedule {self.schedule!r}; "
                f"choose from {SCHEDULES}"
            )

    @classmethod
    def mpi_only(
        cls, *, system: SystemSpec = THETA, nodes: int = 1,
        ranks_per_node: int | None = None, **kw,
    ) -> "RunConfig":
        """Stock-code configuration (one thread per rank)."""
        return cls(
            algorithm=AlgorithmKind.MPI_ONLY, system=system, nodes=nodes,
            ranks_per_node=ranks_per_node, threads_per_rank=1, **kw,
        )

    @classmethod
    def hybrid(
        cls, algorithm: AlgorithmKind | str, *, system: SystemSpec = THETA,
        nodes: int = 1, ranks_per_node: int = 4, threads_per_rank: int = 64,
        **kw,
    ) -> "RunConfig":
        """Hybrid configuration (paper default: 4 ranks x 64 threads)."""
        return cls(
            algorithm=AlgorithmKind(algorithm), system=system, nodes=nodes,
            ranks_per_node=ranks_per_node, threads_per_rank=threads_per_rank,
            **kw,
        )


@dataclass
class SimResult:
    """Simulated timing of one run."""

    config: RunConfig
    workload_label: str
    feasible: bool
    infeasible_reason: str = ""
    total_seconds: float = math.inf
    per_iteration_seconds: float = math.inf
    diag_seconds: float = 0.0
    ranks_per_node: int = 0
    total_ranks: int = 0
    hardware_threads_per_node: int = 0
    breakdown: dict[str, float] = field(default_factory=dict)
    node_memory_gb: float = 0.0
    effective_bandwidth_gbs: float = 0.0
    imbalance: float = 1.0


def _resolve_ranks_per_node(
    wl: Workload, cfg: RunConfig, cost: CostModel
) -> int:
    """Auto rank count for the stock code: memory-feasible power of two."""
    if cfg.ranks_per_node is not None:
        return cfg.ranks_per_node
    node = cfg.system.node
    mm = MemoryModel(wl.nbf, wl.nshells, legacy_ddi=True)
    per_rank_gb = (
        mm.per_rank_words(AlgorithmKind.MPI_ONLY) * 8 / GB
        + cfg.base_per_rank_gb
    )
    cap = min(node.max_hw_threads, 256)
    fit = int(node.ddr_gb // per_rank_gb) if per_rank_gb > 0 else cap
    fit = max(1, min(cap, fit))
    # Round down to a power of two, as job scripts do.
    return 1 << (fit.bit_length() - 1)


def simulate_fock_build(
    wl: Workload, cfg: RunConfig, cost: CostModel
) -> SimResult:
    """Predict the accumulated Fock-construction wall time of one run."""
    kind = AlgorithmKind(cfg.algorithm)
    system = cfg.system
    system.validate_nodes(cfg.nodes)
    node = system.node
    fabric = system.interconnect
    clp = cluster_penalties(cfg.cluster_mode)

    rpn = _resolve_ranks_per_node(wl, cfg, cost)
    tpr = 1 if kind is AlgorithmKind.MPI_ONLY else cfg.threads_per_rank
    R = cfg.nodes * rpn
    threads_on_node = rpn * tpr
    result = SimResult(
        config=cfg, workload_label=wl.label, feasible=True,
        ranks_per_node=rpn, total_ranks=R,
        hardware_threads_per_node=threads_on_node,
    )

    if threads_on_node > node.max_hw_threads:
        result.feasible = False
        result.infeasible_reason = (
            f"{threads_on_node} threads exceed the node's "
            f"{node.max_hw_threads} hardware threads"
        )
        return result

    # -- memory feasibility and effective bandwidth ----------------------
    legacy = kind is AlgorithmKind.MPI_ONLY
    mm = MemoryModel(wl.nbf, wl.nshells, legacy_ddi=legacy)
    ws_gb = mm.per_node_bytes(kind, NodeConfig(rpn, tpr)) / GB
    node_gb = ws_gb + rpn * cfg.base_per_rank_gb
    result.node_memory_gb = node_gb

    capacity = (
        node.mcdram_gb
        if cfg.memory_mode is MemoryMode.FLAT_MCDRAM
        else node.ddr_gb
    )
    if node_gb > capacity:
        result.feasible = False
        result.infeasible_reason = (
            f"needs {node_gb:.0f} GB/node; {cfg.memory_mode.value} "
            f"capacity is {capacity:.0f} GB"
        )
        return result

    # Bandwidth is governed by the *reused* read set: the per-rank
    # replicas of the density / core-Hamiltonian / overlap matrices that
    # every quartet rereads.  Thread-private Fock replicas are
    # accumulate-streams with per-block locality and do not join the
    # reuse set.
    read_set_gb = 1.5 * wl.nbf * wl.nbf * 8.0 * rpn / GB
    try:
        bw = effective_bandwidth_gbs(cfg.memory_mode, read_set_gb, node)
    except ValueError as exc:
        result.feasible = False
        result.infeasible_reason = str(exc)
        return result
    result.effective_bandwidth_gbs = bw

    # Cache-miss stall factor: the "cache capacity and cache line
    # conflict effects" of replicated matrices the paper names as the
    # reason large footprints hurt (section 6.1).  Each doubling of the
    # per-node replica count beyond the hybrid baseline (4 ranks) adds
    # conflict misses in the direct-mapped MCDRAM cache; the price of a
    # miss scales with how slow the backing path is relative to an
    # unloaded MCDRAM cache, and with the cluster mode's coherency-path
    # length.
    bw_ref = node.mcdram_bw_gbs * 0.85
    replicas = rpn
    miss_rate = cost.miss_base + cost.miss_per_replica_doubling * max(
        0.0, math.log2(max(replicas, 1) / 4.0)
    )
    stall = 1.0 + miss_rate * (bw_ref / bw) * clp.memory

    # -- node compute rate plus a bandwidth-roofline safety net ------------
    tp = placement_throughput(node, rpn, tpr, cfg.affinity)
    unit_rate_node = tp / (cost.seconds_per_unit * stall)
    byte_demand = unit_rate_node * cost.bytes_per_unit
    s_mem = min(1.0, bw * 1e9 / byte_demand) if byte_demand > 0 else 1.0
    thread_rate = (
        (tp / max(threads_on_node, 1)) * s_mem / (cost.seconds_per_unit * stall)
    )

    spu_thread = 1.0 / thread_rate  # seconds per unit on one thread

    dlb_fetch = fabric.dlb_fetch_seconds(same_node=(cfg.nodes == 1))
    barrier = cost.barrier_seconds(tpr, clp.coherency)

    sig = wl.task_significant
    nsig = int(sig.sum())
    n_insig = wl.task_index.size - nsig

    breakdown: dict[str, float] = {}

    if kind in (AlgorithmKind.MPI_ONLY, AlgorithmKind.SHARED_FOCK):
        work = wl.task_work[sig] * spu_thread
        max_unit = wl.task_max_unit[sig] * spu_thread
        if kind is AlgorithmKind.SHARED_FOCK:
            # Per-task thread makespan + two barriers + the FJ flush,
            # plus tag-directory serialization of the shared F(k,l)
            # writes in coherency-hostile cluster modes.
            fj_bytes = (tpr + 1) * wl.nbf * 6 * 8.0
            flush_bw = cost.flush_bw_fraction * bw * 1e9 / rpn
            fj_flush = fj_bytes / flush_bw * clp.coherency
            shared_write = (
                wl.task_count[sig]
                * cost.shared_write_ns
                * 1e-9
                * max(0.0, clp.coherency - 1.0)
            )
            task_times = (
                thread_loop_makespan(work, max_unit, tpr)
                + 2.0 * barrier
                + fj_flush
                + shared_write
            )
            breakdown["flush"] = fj_flush * nsig / max(R, 1)
            breakdown["barrier"] = 2.0 * barrier * nsig / max(R, 1)
        else:
            task_times = work

        asg = assign_schedule(
            task_times, R, cfg.schedule, per_task_overhead=dlb_fetch,
            multiplicity=wl.stride,
        )
        makespan = asg.makespan
        if cfg.schedule == "dlb":
            # Insignificant draws: pure fetch cost, spread over ranks.
            makespan += n_insig * wl.stride / R * dlb_fetch
            # Global DLB counter occupancy floor.  Pre-partitioned and
            # chunked strategies never serialize on a shared counter.
            occupancy = wl.npair_tasks * cost.dlb_occupancy_us * 1e-6
            makespan = max(makespan, occupancy)
        result.imbalance = asg.imbalance

        if kind is AlgorithmKind.SHARED_FOCK:
            # FI flushes on i-change (amortized) + remainder.
            n_i_changes = min(
                max(nsig * wl.stride // max(R, 1), 1), wl.nshells
            )
            fi_bytes = (tpr + 1) * wl.nbf * 6 * 8.0
            flush_bw = cost.flush_bw_fraction * bw * 1e9 / rpn
            makespan += n_i_changes * (
                fi_bytes / flush_bw * clp.coherency + barrier
            )
    else:  # PRIVATE_FOCK
        i_idx = np.arange(wl.nshells)
        work_i = wl.work_per_i * spu_thread
        # Collapsed (j, k) sub-task tail: each of the (i+1)^2 inner
        # tasks is small; a heavy-tail factor bounds the worst chunk.
        denom = np.maximum((i_idx + 1.0) ** 2, 1.0)
        max_sub = work_i * np.minimum(1.0, 10.0 / denom)
        task_times = (
            thread_loop_makespan(work_i, max_sub, tpr) + 2.0 * barrier
        )
        asg = assign_schedule(
            task_times, R, cfg.schedule, per_task_overhead=dlb_fetch,
        )
        makespan = asg.makespan
        result.imbalance = asg.imbalance
        breakdown["barrier"] = 2.0 * barrier * wl.nshells / max(R, 1)
        # End-of-build OpenMP reduction of thread-private Focks.
        red_bytes = tpr * wl.nbf * wl.nbf * 8.0
        makespan += red_bytes / (cost.flush_bw_fraction * bw * 1e9 / rpn)

    # -- Fock allreduce over MPI ranks -------------------------------------
    fock_bytes = wl.nbf * wl.nbf * 8.0
    if cfg.nodes > 1:
        reduce_t = fabric.allreduce_seconds(fock_bytes, R)
    else:
        reduce_t = (rpn - 1) / max(rpn, 1) * 2.0 * fock_bytes / (bw * 1e9)
    per_iter = makespan + reduce_t

    breakdown["compute"] = wl.total_work * spu_thread / max(
        R * (tpr if kind is not AlgorithmKind.MPI_ONLY else 1), 1
    )
    breakdown["imbalance"] = max(0.0, makespan - breakdown["compute"]
                                 - breakdown.get("barrier", 0.0)
                                 - breakdown.get("flush", 0.0))
    breakdown["reduction"] = reduce_t
    result.breakdown = {k: v * cost.scf_iterations for k, v in breakdown.items()}

    result.per_iteration_seconds = per_iter
    result.total_seconds = per_iter * cost.scf_iterations
    result.diag_seconds = (
        cost.diag_units_per_n3 * wl.nbf ** 3 * cost.seconds_per_unit
        * cost.scf_iterations
    )
    return result

