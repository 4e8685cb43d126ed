"""Dynamic task assignment: the timing core of the simulator.

``assign_dynamic`` reproduces what a DDI-style dynamic load balancer
does in time: tasks are drawn in index order, each grabbed by the rank
that becomes free first.  For moderate task counts the simulation is
exact (a heap of rank-free times); beyond a threshold the asymptotic
makespan model ``total/R + tail + overheads`` is used — in that regime
(tasks >> ranks) the exact simulation converges to it anyway.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.obs.metrics import get_metrics
from repro.obs.tracer import get_tracer
from repro.parallel.scheduler import SCHEDULE_NAMES

#: Above this many tasks the closed-form makespan model is used.
EXACT_SIM_LIMIT: int = 400_000


@dataclass
class AssignmentResult:
    """Outcome of a dynamic assignment.

    Attributes
    ----------
    makespan:
        Wall time until the last rank finishes (seconds).
    mean_load:
        Average per-rank busy time.
    imbalance:
        ``makespan / mean_load`` (>= 1; 1 is perfect balance).
    tasks_assigned:
        Number of tasks (or task groups) placed.
    exact:
        Whether the exact event simulation was used.
    """

    makespan: float
    mean_load: float
    imbalance: float
    tasks_assigned: int
    exact: bool


def assign_dynamic(
    costs: np.ndarray,
    nranks: int,
    *,
    per_task_overhead: float = 0.0,
    multiplicity: int = 1,
) -> AssignmentResult:
    """Simulate dynamic (earliest-free) assignment of ordered tasks.

    Parameters
    ----------
    costs:
        Per-task wall seconds, in draw order.
    nranks:
        Number of workers drawing tasks.
    per_task_overhead:
        Seconds added to every draw (DLB fetch latency as seen by the
        drawing rank).
    multiplicity:
        Each cost row represents this many consecutive identical tasks
        (stride-sampled workloads).

    Returns
    -------
    AssignmentResult
    """
    costs = np.asarray(costs, dtype=np.float64)
    n = costs.size
    if nranks < 1:
        raise ValueError("need at least one rank")
    with get_tracer().span(
        "perfsim/assign_dynamic", nranks=nranks, ntasks=int(n)
    ):
        result = _assign_dynamic(
            costs, nranks,
            per_task_overhead=per_task_overhead,
            multiplicity=multiplicity,
        )
    registry = get_metrics()
    if registry is not None:
        registry.counter("perfsim.assignments").inc()
        registry.counter("perfsim.tasks_assigned").inc(result.tasks_assigned)
        registry.histogram("perfsim.imbalance").observe(result.imbalance)
        registry.gauge("perfsim.last_makespan_s").set(result.makespan)
    return result


def _assign_dynamic(
    costs: np.ndarray,
    nranks: int,
    *,
    per_task_overhead: float,
    multiplicity: int,
) -> AssignmentResult:
    n = costs.size
    if n == 0:
        return AssignmentResult(0.0, 0.0, 1.0, 0, True)

    eff = costs + per_task_overhead
    total = float(eff.sum()) * multiplicity

    if n * multiplicity > EXACT_SIM_LIMIT or multiplicity > 1:
        # Asymptotic regime: mean + tail-task correction.  The tail term
        # is the largest single task a rank can be left holding.
        mean = total / nranks
        tail = float(eff.max())
        makespan = mean + tail * (1.0 - 1.0 / nranks)
        return AssignmentResult(
            makespan=makespan,
            mean_load=mean,
            imbalance=makespan / mean if mean > 0 else 1.0,
            tasks_assigned=n,
            exact=False,
        )

    if nranks >= n:
        # Every task gets its own rank immediately.
        makespan = float(eff.max())
        mean = total / nranks
        return AssignmentResult(
            makespan=makespan,
            mean_load=mean,
            imbalance=makespan / mean if mean > 0 else 1.0,
            tasks_assigned=n,
            exact=True,
        )

    free = [0.0] * nranks
    heapq.heapify(free)
    for c in eff:
        t = heapq.heappop(free)
        heapq.heappush(free, t + float(c))
    makespan = max(free)
    mean = total / nranks
    return AssignmentResult(
        makespan=float(makespan),
        mean_load=mean,
        imbalance=float(makespan) / mean if mean > 0 else 1.0,
        tasks_assigned=n,
        exact=True,
    )


def assign_schedule(
    costs: np.ndarray,
    nranks: int,
    schedule: str = "dlb",
    *,
    per_task_overhead: float = 0.0,
    multiplicity: int = 1,
) -> AssignmentResult:
    """Makespan of one task distribution under a named strategy.

    ``dlb`` is the paper's shared-counter dynamic balancer (one counter
    fetch per draw, charged as ``per_task_overhead``); ``static`` is a
    cost-weighted pre-partition with zero counter traffic.
    """
    if schedule not in SCHEDULE_NAMES:
        raise ValueError(
            f"unknown schedule {schedule!r}; choose from {SCHEDULE_NAMES}"
        )
    if schedule == "dlb":
        return assign_dynamic(
            costs, nranks,
            per_task_overhead=per_task_overhead,
            multiplicity=multiplicity,
        )
    costs = np.asarray(costs, dtype=np.float64)
    if nranks < 1:
        raise ValueError("need at least one rank")
    with get_tracer().span(
        "perfsim/assign_static", nranks=nranks, ntasks=int(costs.size)
    ):
        result = _assign_static(costs, nranks, multiplicity=multiplicity)
    registry = get_metrics()
    if registry is not None:
        registry.counter("perfsim.assignments").inc()
        registry.counter("perfsim.tasks_assigned").inc(result.tasks_assigned)
        registry.histogram("perfsim.imbalance").observe(result.imbalance)
        registry.gauge("perfsim.last_makespan_s").set(result.makespan)
    return result


def _assign_static(
    costs: np.ndarray, nranks: int, *, multiplicity: int
) -> AssignmentResult:
    """Cost-weighted static pre-partition (LPT greedy), no draw cost."""
    n = costs.size
    if n == 0:
        return AssignmentResult(0.0, 0.0, 1.0, 0, True)
    total = float(costs.sum()) * multiplicity
    mean = total / nranks
    if n * multiplicity > EXACT_SIM_LIMIT or multiplicity > 1:
        # LPT on many tasks lands within one task of perfect balance.
        makespan = max(mean, float(costs.max()))
        return AssignmentResult(
            makespan=makespan,
            mean_load=mean,
            imbalance=makespan / mean if mean > 0 else 1.0,
            tasks_assigned=n,
            exact=False,
        )
    loads = [(0.0, r) for r in range(nranks)]
    heapq.heapify(loads)
    for c in np.sort(costs)[::-1]:
        t, r = heapq.heappop(loads)
        heapq.heappush(loads, (t + float(c), r))
    makespan = max(t for t, _ in loads)
    return AssignmentResult(
        makespan=float(makespan),
        mean_load=mean,
        imbalance=float(makespan) / mean if mean > 0 else 1.0,
        tasks_assigned=n,
        exact=True,
    )


def thread_loop_makespan(
    total_cost: float,
    max_task_cost: float,
    nthreads: int,
) -> float:
    """Makespan of an OpenMP ``schedule(dynamic, 1)`` inner loop.

    The classic greedy list-scheduling bound, tight for many small
    tasks: ``total / T + max_task * (1 - 1/T)``.
    """
    if nthreads <= 1:
        return total_cost
    return total_cost / nthreads + max_task_cost * (1.0 - 1.0 / nthreads)
