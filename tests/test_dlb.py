"""Dynamic load balancer: grant layout and partition invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.parallel.scheduler import make_scheduler


@given(
    st.integers(min_value=0, max_value=300),
    st.integers(min_value=1, max_value=17),
)
@settings(max_examples=60, deadline=None)
def test_partition_is_exact(ntasks, nranks):
    """Every task index granted exactly once, none invented."""
    dlb = make_scheduler("dlb", ntasks, nranks)
    seen = []
    for r in range(nranks):
        seen.extend(dlb.iter_rank(r))
    assert sorted(seen) == list(range(ntasks))


def test_round_robin_layout():
    dlb = make_scheduler("dlb", 7, 3)
    assert dlb.assignment() == [[0, 3, 6], [1, 4], [2, 5]]


def test_lpt_partition_balances_loads():
    rng = np.random.default_rng(0)
    costs = rng.lognormal(0, 2, 500)
    shares = make_scheduler("static", 500, 8, costs=costs).assignment()
    assert sorted(t for q in shares for t in q) == list(range(500))
    loads = [costs[q].sum() for q in shares]
    rr = make_scheduler("dlb", 500, 8)
    rr_loads = [costs[q].sum() for q in rr.assignment()]
    assert max(loads) / np.mean(loads) <= max(rr_loads) / np.mean(rr_loads) + 1e-9


def test_bad_policy_rejected():
    # The counter grants round-robin only: cost_greedy (PR 15) and block
    # were folded into schedule="static", and no strategy takes a policy.
    for policy in ("lottery", "cost_greedy", "block", "round_robin"):
        with pytest.raises(TypeError):
            make_scheduler("dlb", 10, 2, policy=policy)


def test_next_exhaustion_and_reset():
    dlb = make_scheduler("dlb", 3, 2)
    assert dlb.next(0) == 0
    assert dlb.next(0) == 2
    assert dlb.next(0) is None
    dlb.reset()
    assert dlb.next(0) == 0


def test_rank_grants_ascending():
    """Each rank walks its tasks in ascending combined-index order —
    required by the shared-Fock flush-on-i-change logic."""
    costs = np.random.default_rng(1).random(100)
    partitions = [
        make_scheduler("dlb", 100, 7).assignment(),
        make_scheduler("static", 100, 7, costs=costs).assignment(),
    ]
    for partition in partitions:
        for q in partition:
            assert q == sorted(q)
