"""Dynamic load balancer: grant layout and partition invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.parallel.dlb import DynamicLoadBalancer
from repro.parallel.scheduler import lpt_partition


@given(
    st.integers(min_value=0, max_value=300),
    st.integers(min_value=1, max_value=17),
)
@settings(max_examples=60, deadline=None)
def test_partition_is_exact(ntasks, nranks):
    """Every task index granted exactly once, none invented."""
    dlb = DynamicLoadBalancer(ntasks, nranks)
    seen = []
    for r in range(nranks):
        seen.extend(dlb.iter_rank(r))
    assert sorted(seen) == list(range(ntasks))


def test_round_robin_layout():
    dlb = DynamicLoadBalancer(7, 3)
    assert dlb.assignment() == [[0, 3, 6], [1, 4], [2, 5]]


def test_lpt_partition_balances_loads():
    rng = np.random.default_rng(0)
    costs = rng.lognormal(0, 2, 500)
    shares = lpt_partition(costs, 8)
    assert sorted(t for q in shares for t in q) == list(range(500))
    loads = [costs[q].sum() for q in shares]
    rr = DynamicLoadBalancer(500, 8)
    rr_loads = [costs[q].sum() for q in rr.assignment()]
    assert max(loads) / np.mean(loads) <= max(rr_loads) / np.mean(rr_loads) + 1e-9


def test_bad_policy_rejected():
    # The counter grants round-robin only: cost_greedy (PR 15) and block
    # were folded into schedule="static".
    for policy in ("lottery", "cost_greedy", "block", "round_robin"):
        with pytest.raises(TypeError):
            DynamicLoadBalancer(10, 2, policy=policy)


def test_next_exhaustion_and_reset():
    dlb = DynamicLoadBalancer(3, 2)
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
        DynamicLoadBalancer(100, 7).assignment(),
        lpt_partition(costs, 7),
    ]
    for partition in partitions:
        for q in partition:
            assert q == sorted(q)
