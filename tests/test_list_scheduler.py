"""The one least-loaded list scheduler against the spellings it replaced.

Every least-loaded decision goes through
:func:`repro.parallel.scheduler.least_loaded`, every distribution
strategy is a name over one :class:`~repro.parallel.scheduler.Scheduler`
and every batch policy a name over one
:class:`~repro.workload.scheduler.BatchScheduler`.  Hypothesis holds
each of them bitwise to the oracle in ``tests/oracles.py``: the LPT
``argmin`` loop, the thread team's ``loads.index(min(loads))`` loop,
perfsim's two heap makespans, the ``dlb`` / ``static`` scheduler
subclasses (grants, events, metered grants, counter traffic) and the
batch planner's per-policy window hook (order, batches, fingerprint).
"""

from __future__ import annotations

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.config import BATCH_POLICIES, SCHEDULES  # noqa: E402
from repro.obs.events import EventLog, use_event_log  # noqa: E402
from repro.obs.metrics import MetricsRegistry, use_metrics  # noqa: E402
from repro.parallel.scheduler import least_loaded, make_scheduler  # noqa: E402
from repro.perfsim.engine import assign_schedule  # noqa: E402
from repro.workload import make_batch_scheduler  # noqa: E402
from tests import oracles  # noqa: E402
from tests.test_workload_properties import manifests  # noqa: E402

COMMON = dict(deadline=None)


@st.composite
def cost_vectors(draw, max_size=60):
    """Float costs (ties nowhere), integer-valued costs (ties
    everywhere) or zeros, from empty to more items than workers."""
    n = draw(st.integers(0, max_size), label="ntasks")
    kind = draw(st.sampled_from(("floats", "integers", "zeros")), label="kind")
    if kind == "floats":
        values = st.floats(0.0, 1e3, allow_nan=False, allow_infinity=False)
    elif kind == "integers":
        values = st.integers(0, 4).map(float)
    else:
        values = st.just(0.0)
    return np.array(
        draw(st.lists(values, min_size=n, max_size=n), label="costs"),
        dtype=np.float64,
    )


@settings(max_examples=200, **COMMON)
@given(costs=cost_vectors(), nworkers=st.integers(1, 8))
def test_least_loaded_is_the_four_spellings_it_replaced(costs, nworkers):
    """Assignment for assignment against the LPT ``argmin`` loop and the
    thread team's loop; makespan and the whole result, bit for bit,
    against perfsim's two heaps (exact paths and ``nworkers >= n``)."""
    n = costs.size
    lpt = np.argsort(-costs, kind="stable").tolist()
    owner, _ = least_loaded(costs, nworkers, lpt)
    assert [
        sorted(t for t, w in zip(lpt, owner) if w == r) for r in range(nworkers)
    ] == oracles.lpt_partition(costs, nworkers)
    assert make_scheduler(
        "static", n, nworkers, costs=costs
    ).assignment() == oracles.lpt_partition(costs, nworkers)

    owner, _ = least_loaded(costs, nworkers, range(n))
    assert [
        [t for t in range(n) if owner[t] == r] for r in range(nworkers)
    ] == oracles.thread_partition(nworkers, costs)

    for overhead in (0.0, 0.5):
        assert assign_schedule(
            costs, nworkers, "dlb", per_task_overhead=overhead
        ) == oracles.assign_dynamic(
            costs, nworkers, per_task_overhead=overhead
        )
    assert assign_schedule(
        costs, nworkers, "static", per_task_overhead=0.5
    ) == oracles.assign_static(costs, nworkers)


@settings(max_examples=60, **COMMON)
@given(
    costs=cost_vectors(max_size=20),
    nworkers=st.integers(1, 8),
    multiplicity=st.sampled_from((1, 3, 100_000)),
)
def test_closed_form_makespans_are_the_oracles(costs, nworkers, multiplicity):
    """The asymptotic branches stay as they were, under both names."""
    assert assign_schedule(
        costs, nworkers, "dlb", per_task_overhead=0.25,
        multiplicity=multiplicity,
    ) == oracles.assign_dynamic(
        costs, nworkers, per_task_overhead=0.25, multiplicity=multiplicity
    )
    assert assign_schedule(
        costs, nworkers, "static", multiplicity=multiplicity
    ) == oracles.assign_static(costs, nworkers, multiplicity=multiplicity)


def test_least_loaded_of_nothing():
    assert least_loaded(np.array([]), 3, []) == ([], [0.0] * 3)


def _run_grants(make, actions, nranks):
    """Drive a scheduler through ``actions`` (a rank's draw, or
    ``nranks`` for a reset); returns each action's grant and the counter
    traffic after it, the final assignment, the events (kind, rank and
    fields) and the metered grants."""
    log, registry = EventLog(), MetricsRegistry()
    trace = []
    with use_event_log(log), use_metrics(registry):
        sch = make()
        for rank in actions:
            if rank == nranks:
                sch.reset()
                trace.append(("reset", sch.counter_traffic()))
            else:
                trace.append((sch.next(rank), sch.counter_traffic()))
        trace.append(("assignment", sch.assignment()))
    events = [(ev.kind, ev.rank, ev.fields) for ev in log]
    return trace, events, registry.snapshot()


@settings(max_examples=80, **COMMON)
@given(
    data=st.data(),
    schedule=st.sampled_from(SCHEDULES),
    ntasks=st.integers(0, 30),
    nranks=st.integers(1, 5),
    weighted=st.booleans(),
)
def test_strategies_grant_as_the_subclasses_did(
    data, schedule, ntasks, nranks, weighted
):
    """``dlb`` and ``static`` grants, ``dlb.reset`` / ``dlb.rank_done``
    events, ``dlb.grants{rank}`` and counter traffic equal the subclass
    oracle's under any interleaving of draws and resets."""
    costs = (
        np.array(data.draw(st.lists(
            st.integers(0, 3).map(float), min_size=ntasks, max_size=ntasks,
        ), label="costs"))
        if weighted else None
    )
    actions = data.draw(
        st.lists(st.integers(0, nranks), max_size=60), label="actions"
    )
    if schedule == "dlb":
        def oracle():
            return oracles.DynamicLoadBalancer(ntasks, nranks)
    else:
        def oracle():
            return oracles.StaticScheduler(ntasks, nranks, costs=costs)
    got = _run_grants(
        lambda: make_scheduler(schedule, ntasks, nranks, costs=costs),
        actions, nranks,
    )
    assert got == _run_grants(oracle, actions, nranks)


@settings(max_examples=60, **COMMON)
@given(
    specs=manifests(max_size=40),
    policy=st.sampled_from(BATCH_POLICIES),
    window=st.integers(1, 12),
)
def test_batch_plans_are_the_subclass_plans(specs, policy, window):
    """Order, batches and fingerprint of the one planner equal the
    per-policy window hook's, for ``fifo`` and ``binned``."""
    got = make_batch_scheduler(policy, window=window).plan(specs)
    want = oracles.batch_plan(policy, specs, window)
    assert got.order == want.order
    assert got.batches == want.batches
    assert got.fingerprint == want.fingerprint
    assert got.to_dict() == want.to_dict()
