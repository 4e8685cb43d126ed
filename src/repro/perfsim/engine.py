"""Task assignment in time: the timing core of the simulator.

:func:`assign_schedule` reproduces what a distribution strategy does
in time.  Under ``dlb`` (the DDI-style dynamic load balancer) tasks are
drawn in index order, each grabbed by the rank that becomes free first;
under ``static`` they are dealt longest first to the least-loaded rank
(the LPT pre-partition).  Both are the one list scheduler
:func:`~repro.parallel.scheduler.least_loaded` over a different order.
For moderate task counts the simulation is exact; beyond a threshold a
closed-form makespan model is used — in that regime (tasks >> ranks)
the exact simulation converges to it anyway.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import SCHEDULES
from repro.obs.metrics import get_metrics
from repro.obs.tracer import get_tracer
from repro.parallel.scheduler import least_loaded

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


def assign_schedule(
    costs: np.ndarray,
    nranks: int,
    schedule: str = "dlb",
    *,
    per_task_overhead: float = 0.0,
    multiplicity: int = 1,
) -> AssignmentResult:
    """Makespan of one task distribution under a named strategy.

    Parameters
    ----------
    costs:
        Per-task wall seconds, in draw order.
    nranks:
        Number of workers drawing tasks.
    schedule:
        ``dlb`` is the paper's shared-counter dynamic balancer: tasks
        drawn in index order by the earliest-free rank, one counter
        fetch per draw charged as ``per_task_overhead``.  ``static`` is
        the cost-weighted LPT pre-partition, with zero counter traffic
        (``per_task_overhead`` does not apply).
    per_task_overhead:
        Seconds added to every ``dlb`` draw (DLB fetch latency as seen
        by the drawing rank).
    multiplicity:
        Each cost row represents this many consecutive identical tasks
        (stride-sampled workloads).

    Returns
    -------
    AssignmentResult
    """
    if schedule not in SCHEDULES:
        raise ValueError(
            f"unknown schedule {schedule!r}; choose from {SCHEDULES}"
        )
    costs = np.asarray(costs, dtype=np.float64)
    if nranks < 1:
        raise ValueError("need at least one rank")
    n = costs.size
    dynamic = schedule == "dlb"
    span = "perfsim/assign_dynamic" if dynamic else "perfsim/assign_static"
    with get_tracer().span(span, nranks=nranks, ntasks=int(n)):
        if n == 0:
            result = AssignmentResult(0.0, 0.0, 1.0, 0, True)
        else:
            eff = costs + per_task_overhead if dynamic else costs
            mean = float(eff.sum()) * multiplicity / nranks
            exact = n * multiplicity <= EXACT_SIM_LIMIT and multiplicity == 1
            if exact:
                # Draws in index order, or the LPT deal: longest first.
                order = (
                    range(n) if dynamic
                    else np.argsort(-eff, kind="stable").tolist()
                )
                makespan = max(least_loaded(eff, nranks, order)[1])
            elif dynamic:
                # Mean + tail-task correction: the tail term is the
                # largest single task a rank can be left holding.
                tail = float(eff.max())
                makespan = mean + tail * (1.0 - 1.0 / nranks)
            else:
                # LPT on many tasks lands within one task of balance.
                makespan = max(mean, float(eff.max()))
            result = AssignmentResult(
                makespan=makespan,
                mean_load=mean,
                imbalance=makespan / mean if mean > 0 else 1.0,
                tasks_assigned=n,
                exact=exact,
            )
    registry = get_metrics()
    if registry is not None:
        registry.counter("perfsim.assignments").inc()
        registry.counter("perfsim.tasks_assigned").inc(result.tasks_assigned)
        registry.histogram("perfsim.imbalance").observe(result.imbalance)
        registry.gauge("perfsim.last_makespan_s").set(result.makespan)
    return result


def thread_loop_makespan(
    total: float | np.ndarray, max_task: float | np.ndarray, nthreads: int
) -> float | np.ndarray:
    """Makespan of an OpenMP ``schedule(dynamic, 1)`` inner loop, for a
    scalar or an array of loops.

    The classic greedy list-scheduling bound, tight for many small
    tasks: ``total / T + max_task * (1 - 1/T)``.
    """
    if nthreads <= 1:
        return total
    return total / nthreads + max_task * (1.0 - 1.0 / nthreads)
