"""Dynamic-assignment engine."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.perfsim.engine import (
    AssignmentResult,
    assign_schedule,
    thread_loop_makespan,
)


def test_empty_tasks():
    r = assign_schedule(np.array([]), 4)
    assert r.makespan == 0.0


def test_single_rank_is_serial():
    costs = np.array([1.0, 2.0, 3.0])
    r = assign_schedule(costs, 1)
    assert r.makespan == pytest.approx(6.0)
    assert r.imbalance == pytest.approx(1.0)


def test_more_ranks_than_tasks():
    costs = np.array([5.0, 1.0])
    r = assign_schedule(costs, 10)
    assert r.makespan == pytest.approx(5.0)


def test_exact_greedy_known_case():
    # Tasks drawn in order by earliest-free rank:
    # r0: 4; r1: 1, then grabs 3 at t=1, then 1 at t=4 -> r1 ends 5? ...
    costs = np.array([4.0, 1.0, 3.0, 1.0])
    r = assign_schedule(costs, 2)
    # r0 takes 4 (busy till 4); r1 takes 1 (till 1), 3 (till 4), then
    # the final 1 goes to whichever freed first (tie at 4) -> makespan 5.
    assert r.makespan == pytest.approx(5.0)
    assert r.exact


@given(
    st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=1, max_size=200),
    st.integers(min_value=1, max_value=16),
)
@settings(max_examples=60, deadline=None)
def test_makespan_bounds(costs, nranks):
    """Greedy makespan obeys the classic list-scheduling bounds."""
    arr = np.array(costs)
    r = assign_schedule(arr, nranks)
    lower = max(arr.sum() / nranks, arr.max())
    assert r.makespan >= lower - 1e-9
    assert r.makespan <= arr.sum() / nranks + arr.max() + 1e-9


def test_overhead_added_per_task():
    costs = np.ones(10)
    r0 = assign_schedule(costs, 2)
    r1 = assign_schedule(costs, 2, per_task_overhead=0.5)
    assert r1.makespan == pytest.approx(r0.makespan * 1.5)


def test_closed_form_for_huge_counts():
    costs = np.ones(10)
    r = assign_schedule(costs, 2, multiplicity=1_000_000)
    assert not r.exact
    assert r.makespan == pytest.approx(5e6 + 1.0 * 0.5, rel=1e-6)


def test_starvation_visible_in_imbalance():
    """More ranks than tasks: imbalance explodes (Algorithm-2 regime)."""
    costs = np.ones(10)
    r = assign_schedule(costs, 40)
    assert r.imbalance == pytest.approx(4.0)


def test_invalid_ranks():
    with pytest.raises(ValueError):
        assign_schedule(np.ones(3), 0)


def test_thread_loop_makespan():
    assert thread_loop_makespan(100.0, 5.0, 1) == 100.0
    m = thread_loop_makespan(100.0, 5.0, 10)
    assert m == pytest.approx(10.0 + 4.5)
    # One function for one loop or an array of them, element for element.
    total, top = np.array([100.0, 7.0, 0.0]), np.array([5.0, 7.0, 0.0])
    assert np.array_equal(thread_loop_makespan(total, top, 1), total)
    assert thread_loop_makespan(total, top, 10).tolist() == [
        thread_loop_makespan(float(a), float(b), 10) for a, b in zip(total, top)
    ]
