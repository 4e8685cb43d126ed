"""Discrete-event / analytic performance simulator.

Regenerates the paper's timing results (Figures 3-7, Table 3) from
mechanistic inputs:

* :mod:`~repro.perfsim.workload` — per-task work distributions derived
  from the real screening statistics of the benchmark systems (exact
  surviving-quartet counts per top-loop task; no curve fitting).
* :mod:`~repro.perfsim.cost_model` — ERI/update flop model, buffer
  flush, barrier, DLB-fetch and allreduce costs; one global time-scale
  constant calibrated to a single paper data point.
* :mod:`~repro.perfsim.affinity` — KMP_AFFINITY placement model.
* :mod:`~repro.perfsim.engine` — task-to-rank assignment under a
  named strategy (``dlb`` / ``static``): the one least-loaded list
  scheduler for an exact makespan, closed-form for huge task counts.
* :mod:`~repro.perfsim.simulate` — end-to-end simulated Fock-build
  time for a (dataset, algorithm, machine configuration).
* :mod:`~repro.perfsim.scaling` — node/thread sweeps and parallel
  efficiency, the direct generators of the paper's plots.
"""

from repro.perfsim.cost_model import CostModel, calibrated_cost_model
from repro.perfsim.workload import Workload
from repro.perfsim.affinity import Affinity, placement_throughput
from repro.perfsim.engine import AssignmentResult, assign_schedule
from repro.perfsim.simulate import RunConfig, SimResult, simulate_fock_build
from repro.perfsim.scaling import (
    node_scaling,
    parallel_efficiency,
    single_node_thread_scaling,
)

__all__ = [
    "CostModel",
    "calibrated_cost_model",
    "Workload",
    "Affinity",
    "placement_throughput",
    "assign_schedule",
    "AssignmentResult",
    "RunConfig",
    "SimResult",
    "simulate_fock_build",
    "node_scaling",
    "parallel_efficiency",
    "single_node_thread_scaling",
]
