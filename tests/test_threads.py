"""OpenMP-style thread team scheduling."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.parallel.threads import ThreadTeam
from tests.oracles import thread_partition


@given(
    st.integers(min_value=0, max_value=500),
    st.integers(min_value=1, max_value=16),
    st.sampled_from(["static", "dynamic"]),
    st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_partition_is_exact(ntasks, nthreads, schedule, weighted):
    team = ThreadTeam(nthreads)
    costs = np.arange(ntasks, 0, -1.0) if weighted else None
    shares = team.partition(ntasks, schedule=schedule, costs=costs)
    assert len(shares) == nthreads
    flat = sorted(x for s in shares for x in s)
    assert flat == list(range(ntasks))


def test_static_cyclic_layout():
    team = ThreadTeam(2)
    shares = team.partition(6, schedule="static")
    assert shares == [[0, 2, 4], [1, 3, 5]]


def test_static_chunked_layout():
    """``schedule(static, 1)``, the one chunk size the builders and the
    OpenMP-schedule ablation use; there is no chunk knob."""
    team = ThreadTeam(2)
    shares = team.partition(8, schedule="static")
    assert shares == [[0, 2, 4, 6], [1, 3, 5, 7]]
    with pytest.raises(TypeError):
        team.partition(8, schedule="static", chunk=2)


def test_dynamic_with_costs_improves_balance():
    rng = np.random.default_rng(2)
    costs = rng.lognormal(0, 2, 400)
    team = ThreadTeam(8)
    dyn = team.partition(400, schedule="dynamic", costs=costs)
    stat = team.partition(400, schedule="static")
    load = lambda shares: max(costs[list(s)].sum() for s in shares)
    assert load(dyn) <= load(stat) + 1e-9


def _partition_with_numpy_bookkeeping(nthreads, ntasks, costs):
    """The greedy loop as it stood before the plain-float rewrite, at
    the one chunk size left."""
    shares = [[] for _ in range(nthreads)]
    loads = np.zeros(nthreads)
    for it in range(ntasks):
        t = int(np.argmin(loads))
        shares[t].append(it)
        loads[t] += float(costs[it])
    return shares


@given(
    st.integers(min_value=0, max_value=200),
    st.integers(min_value=1, max_value=8),
    st.data(),
)
@settings(max_examples=150, deadline=None)
def test_dynamic_partition_equals_the_numpy_loop(ntasks, nthreads, data):
    """Property: same shares, tie for tie, as the per-chunk NumPy loop."""
    # Few distinct values (block sizes 1, 4, 16, 36 ... plus awkward
    # fractions) so equal loads — where only the tie-break decides —
    # are the common case, not the exception.
    costs = np.array(data.draw(st.lists(
        st.sampled_from([1.0, 4.0, 16.0, 36.0, 0.1, 0.2, 0.3, 1.0 / 3.0]),
        min_size=ntasks, max_size=ntasks,
    )), dtype=np.float64)
    shares = ThreadTeam(nthreads).partition(
        ntasks, schedule="dynamic", costs=costs
    )
    assert shares == _partition_with_numpy_bookkeeping(nthreads, ntasks, costs)


def _partition_as_it_was(nthreads, ntasks, schedule, costs):
    """``ThreadTeam.partition`` at chunk 1 before its least-loaded loop
    became the one list scheduler: the pinned ``per_thread_quartets``
    of ``test_digestion.py`` are its."""
    if schedule == "static" or costs is None:
        shares = [[] for _ in range(nthreads)]
        for it in range(ntasks):
            shares[it % nthreads].append(it)
        return shares
    return thread_partition(nthreads, costs)


@given(
    st.integers(min_value=0, max_value=200),
    st.integers(min_value=1, max_value=6),
    st.sampled_from(["static", "dynamic"]),
    st.sampled_from(["none", "integers", "floats"]),
    st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=200, deadline=None)
def test_partition_equals_the_loop_it_replaced(
    ntasks, nthreads, schedule, kind, seed
):
    """Property: both schedules, one thread or several, no costs,
    integer-valued costs (ties everywhere — ket block sizes) and
    arbitrary floats (ties nowhere, sums that round)."""
    rng = np.random.default_rng(seed)
    costs = {
        "none": None,
        "integers": rng.choice([1.0, 3.0, 4.0, 9.0, 12.0, 16.0], ntasks),
        "floats": rng.lognormal(0.0, 1.5, ntasks),
    }[kind]
    got = ThreadTeam(nthreads).partition(ntasks, schedule=schedule, costs=costs)
    assert got == _partition_as_it_was(nthreads, ntasks, schedule, costs)


def test_one_thread_takes_everything_without_reading_costs():
    class Untouchable:
        def __array__(self, *args, **kwargs):
            raise AssertionError("costs were read")

    assert ThreadTeam(1).partition(5, costs=Untouchable()) == [[0, 1, 2, 3, 4]]


def test_bad_schedule_rejected():
    with pytest.raises(ValueError):
        ThreadTeam(2).partition(10, schedule="guided")


def test_private_buffers_independent():
    team = ThreadTeam(3)
    bufs = team.private_buffers((2, 2))
    bufs[0][0, 0] = 5.0
    assert bufs[1][0, 0] == 0.0
    assert len(bufs) == 3
