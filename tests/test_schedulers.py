"""Distribution-strategy unit tests: the strategies as names over one
Scheduler, the perfsim grant model, and the timeline analyzer's strategy verdict.

The hypothesis exactly-once / kill-replay properties (sim schedulers and
the process backend's grant sources) live in ``test_dlb_properties.py``;
this module pins the deterministic, example-level contracts:
counter-traffic accounting, the single spelling of the strategy names,
and the imbalance-driven schedule recommendation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import SCHEDULES
from repro.obs.events import EventLog, use_event_log
from repro.parallel.scheduler import make_scheduler


def _drain(sch, rank):
    out = []
    while (t := sch.next(rank)) is not None:
        out.append(t)
    return out


# -- strategy construction and counter traffic -------------------------------


def test_make_scheduler_rejects_unknown_name():
    """Never-existing and removed (PR 15) names fail the same typed way."""
    for name in ("lottery", "guided", "steal"):
        with pytest.raises(ValueError, match="unknown schedule"):
            make_scheduler(name, 10, 2)


@pytest.mark.parametrize("schedule", SCHEDULES)
def test_reset_events_carry_schedule_name(schedule):
    log = EventLog()
    with use_event_log(log):
        make_scheduler(schedule, 8, 2)
    resets = [ev for ev in log if ev.kind == "dlb.reset"]
    assert len(resets) == 1
    assert resets[0].fields["schedule"] == schedule


def test_static_pre_partition_has_zero_counter_traffic():
    sch = make_scheduler("static", 12, 3)
    for r in range(3):
        _drain(sch, r)
    assert sch.counter_traffic() == 0


def test_dlb_counter_traffic_is_one_per_grant():
    sch = make_scheduler("dlb", 12, 3)
    total = sum(len(_drain(sch, r)) for r in range(3))
    assert total == 12
    assert sch.counter_traffic() == 12


def test_static_cost_weighted_balances_skewed_loads():
    costs = np.array([100.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    sch = make_scheduler("static", 8, 2, costs=costs)
    loads = [float(sum(costs[t] for t in q)) for q in sch.assignment()]
    # The heavy task sits alone; everything else lands on the other rank.
    assert sorted(loads) == [7.0, 100.0]


def test_shared_counter_unclaimed_reports_leftovers():
    """The tail nobody claimed (every worker died) is what the process
    backend's recovery folds into the first replay."""
    from repro.parallel.backend import SharedTaskCounter

    counter = SharedTaskCounter(6)
    try:
        counter.reset(6)
        assert counter.next(0) == 0
        assert counter.next(1) == 1
        assert counter.owned(0) == [0] and counter.owned(1) == [1]
        assert counter.unclaimed() == [2, 3, 4, 5]
    finally:
        counter.close()


# -- perfsim grant model ------------------------------------------------------


def test_assign_schedule_static_drops_fetch_overhead():
    from repro.perfsim.engine import assign_schedule

    costs = np.full(64, 1.0)
    dyn = assign_schedule(costs, 4, "dlb", per_task_overhead=0.5)
    sta = assign_schedule(costs, 4, "static", per_task_overhead=0.5)
    assert dyn.makespan == pytest.approx(
        assign_schedule(costs, 4, per_task_overhead=0.5).makespan
    )
    assert sta.makespan == pytest.approx(16.0)
    assert dyn.makespan > sta.makespan


def test_assign_schedule_rejects_unknown():
    from repro.perfsim.engine import assign_schedule

    with pytest.raises(ValueError, match="unknown schedule"):
        assign_schedule(np.ones(4), 2, "magic")


def test_runconfig_validates_schedule():
    from repro.perfsim.simulate import RunConfig

    with pytest.raises(ValueError, match="unknown schedule"):
        RunConfig(algorithm="shared-fock", schedule="magic")
    cfg = RunConfig(algorithm="shared-fock", schedule="static")
    assert cfg.schedule == "static"


def test_simulate_static_beats_dlb_on_uniform_workload():
    from repro.perfsim.cost_model import calibrated_cost_model
    from repro.perfsim.simulate import RunConfig, simulate_fock_build
    from repro.perfsim.workload import Workload

    wl = Workload.for_dataset("2.0nm")
    cost = calibrated_cost_model()
    base = dict(algorithm="shared-fock", nodes=4, ranks_per_node=4,
                threads_per_rank=16)
    t_dlb = simulate_fock_build(wl, RunConfig(**base, schedule="dlb"), cost)
    t_sta = simulate_fock_build(wl, RunConfig(**base, schedule="static"), cost)
    assert t_dlb.feasible and t_sta.feasible
    # Static saves the counter fetches; the model must reflect that.
    assert t_sta.total_seconds <= t_dlb.total_seconds


# -- timeline strategy verdict ------------------------------------------------


def _analysis_with_imbalance(busy):
    from repro.obs.timeline import analyze_timeline
    from repro.obs.events import Event
    from repro.obs.spans import SpanRecord

    spans = [SpanRecord(name="fock/kl", start=0.0, end=b, rank=r)
             for r, b in enumerate(busy)]
    events = [Event(kind="dlb.reset", t=0.0, rank=None,
                    fields={"schedule": "dlb"})]
    return analyze_timeline(spans, events)


def test_timeline_recommends_static_when_balanced():
    a = _analysis_with_imbalance([1.0, 1.0, 1.01, 0.99])
    assert a.schedule == "dlb"
    advice = a.schedule_advice
    assert advice["observed"] == "dlb"
    assert advice["recommended"] == "static"


def test_timeline_recommends_dlb_on_mild_skew():
    a = _analysis_with_imbalance([1.0, 1.0, 1.0, 1.2])
    assert a.schedule_advice["recommended"] == "dlb"


def test_timeline_keeps_dynamic_on_heavy_skew():
    a = _analysis_with_imbalance([1.0, 1.0, 1.0, 3.0])
    assert a.schedule_advice["recommended"] == "dlb"


def test_timeline_only_recommends_strategies_that_exist():
    for busy in ([1.0, 1.0], [1.0, 1.04], [1.0, 1.1], [1.0, 5.0]):
        advice = _analysis_with_imbalance(busy).schedule_advice
        assert advice["recommended"] in SCHEDULES


def test_timeline_report_surfaces_schedule_verdict():
    from repro.obs.timeline import timeline_report

    a = _analysis_with_imbalance([1.0, 1.0, 1.0, 1.0])
    report = timeline_report(a)
    assert "schedule (observed)" in report
    assert "schedule (recommended)" in report
    assert "schedule (recommended)         : static" in report
