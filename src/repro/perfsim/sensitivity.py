"""Sensitivity analysis: are the reproduced shapes artifacts of tuning?

The performance model's secondary constants (miss penalties, barrier
cost, fabric latencies, SMT curve) come from hardware documentation,
not from fitting the result curves — but a reproduction is only
credible if its qualitative conclusions *survive perturbation* of those
constants.  This module perturbs each constant by a given factor,
re-runs the calibration (so the anchor point stays anchored), and
re-evaluates the paper's structural claims.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.config import ALGORITHMS
from repro.machine.system import THETA
from repro.perfsim.cost_model import CostModel
from repro.perfsim.simulate import RunConfig, simulate_fock_build
from repro.perfsim.workload import Workload

#: The structural claims of Table 3 that must survive perturbation.
CLAIMS = (
    "shared_fock_wins_at_512",
    "speedup_4x_to_9x",
    "private_fock_fastest_at_4",
    "crossover_by_128",
)

#: Perturbable secondary constants of the cost model.
PERTURBABLE = (
    "bytes_per_unit",
    "miss_base",
    "miss_per_replica_doubling",
    "barrier_base_us",
    "dlb_occupancy_us",
    "flush_bw_fraction",
    "shared_write_ns",
)


@dataclass
class SensitivityRecord:
    """Outcome of one perturbed re-evaluation."""

    parameter: str
    factor: float
    claims_held: dict[str, bool]
    speedup_512: float

    @property
    def all_hold(self) -> bool:
        return all(self.claims_held.values())


def _recalibrate(model: CostModel, wl: Workload) -> CostModel:
    """Re-anchor seconds_per_unit after a perturbation (fixed point)."""
    cfg = RunConfig.mpi_only(system=THETA, nodes=4)
    for _ in range(8):
        sim = simulate_fock_build(wl, cfg, model)
        ratio = 2661.0 / sim.total_seconds
        if abs(ratio - 1.0) < 1e-6:
            break
        model = model.with_scale(model.seconds_per_unit * ratio)
    return model


def evaluate_claims(model: CostModel, wl: Workload) -> tuple[dict[str, bool], float]:
    """Check the Table-3 structural claims under a cost model."""
    def run(alg: str, nodes: int) -> float:
        if alg == "mpi-only":
            cfg = RunConfig.mpi_only(system=THETA, nodes=nodes)
        else:
            cfg = RunConfig.hybrid(alg, system=THETA, nodes=nodes)
        return simulate_fock_build(wl, cfg, model).total_seconds

    t4 = {a: run(a, 4) for a in ALGORITHMS}
    t128 = {a: run(a, 128) for a in ("private-fock", "shared-fock")}
    t512 = {a: run(a, 512) for a in ("mpi-only", "shared-fock")}
    speedup = t512["mpi-only"] / t512["shared-fock"]
    claims = {
        "shared_fock_wins_at_512": t512["shared-fock"] < t512["mpi-only"],
        "speedup_4x_to_9x": 3.0 < speedup < 12.0,
        "private_fock_fastest_at_4": t4["private-fock"] == min(t4.values()),
        "crossover_by_128": t128["shared-fock"] < t128["private-fock"],
    }
    return claims, speedup


def sensitivity_sweep(
    base: CostModel,
    *,
    factors: tuple[float, ...] = (0.5, 2.0),
    dataset: str = "2.0nm",
) -> list[SensitivityRecord]:
    """Perturb each secondary constant and re-test the claims.

    Each perturbed model is re-calibrated to the anchor before the
    claims are evaluated, mirroring what an honest re-fit would do.
    """
    wl = Workload.for_dataset(dataset)
    records: list[SensitivityRecord] = []
    for name in PERTURBABLE:
        for f in factors:
            perturbed = replace(base, **{name: getattr(base, name) * f})
            perturbed = _recalibrate(perturbed, wl)
            claims, speedup = evaluate_claims(perturbed, wl)
            records.append(
                SensitivityRecord(
                    parameter=name, factor=f, claims_held=claims,
                    speedup_512=speedup,
                )
            )
    return records
