"""Property tests for grant accounting and reduction invariance.

Hypothesis drives the two contracts the differential parity suite
leans on:

* **exactly-once grants** — however rank draws interleave, every
  strategy (``dlb``, ``static``) serves every task index exactly once,
  from the sim scheduler and from the process backend's grant source
  (the shared :class:`~repro.parallel.backend.SharedTaskCounter` for
  ``dlb``, each rank's own pre-computed share for ``static``); this
  holds through ``fail_rank`` requeue and through the process
  backend's kill replay, which re-executes the dead rank's claims in
  claim order.
* **permutation invariance** — reordering thread columns moves the tree
  reduction by at most
  :data:`~repro.parallel.reduction.PERMUTATION_TOLERANCE` (relative),
  which is why a nondeterministic process-backend partition still
  reproduces the sim energy.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.parallel.backend import SharedTaskCounter  # noqa: E402
from repro.parallel.dlb import DynamicLoadBalancer  # noqa: E402
from repro.parallel.scheduler import (  # noqa: E402
    SCHEDULE_NAMES,
    make_scheduler,
)
from repro.parallel.reduction import (  # noqa: E402
    PERMUTATION_TOLERANCE,
    padded_rows,
    tree_reduce_columns,
)

#: Shared-memory examples are heavier than pure-python ones; keep the
#: example budget modest and disable the per-example deadline (CI
#: machines stall unpredictably on shm setup).
COMMON = dict(deadline=None)


def _drain_interleaved(data, serve, nranks, alive=None):
    """Draw from ``serve(rank)`` in a hypothesis-chosen interleaving
    until every live rank is exhausted; returns the granted indices."""
    granted: list[int] = []
    live = set(range(nranks)) if alive is None else set(alive)
    exhausted: set[int] = set()
    while live - exhausted:
        rank = data.draw(
            st.sampled_from(sorted(live - exhausted)), label="rank"
        )
        t = serve(rank)
        if t is None:
            exhausted.add(rank)
        else:
            granted.append(t)
    return granted


@settings(max_examples=50, **COMMON)
@given(
    data=st.data(),
    ntasks=st.integers(min_value=0, max_value=40),
    nranks=st.integers(min_value=1, max_value=6),
    policy=st.sampled_from(["round_robin", "block"]),
)
def test_dlb_grants_each_index_exactly_once(data, ntasks, nranks, policy):
    dlb = DynamicLoadBalancer(ntasks, nranks, policy=policy)
    granted = _drain_interleaved(data, dlb.next, nranks)
    assert Counter(granted) == Counter(range(ntasks))


@settings(max_examples=50, **COMMON)
@given(
    data=st.data(),
    ntasks=st.integers(min_value=1, max_value=40),
    nranks=st.integers(min_value=2, max_value=6),
)
def test_dlb_exactly_once_through_fail_rank_requeue(data, ntasks, nranks):
    """Kill one rank mid-draw with requeue: its outstanding grants move
    to survivors, and the union of everything ever granted is still each
    index exactly once (completed work is not re-granted)."""
    dlb = DynamicLoadBalancer(ntasks, nranks, policy="round_robin")
    victim = data.draw(st.integers(0, nranks - 1), label="victim")

    # Random prefix of interleaved draws before the failure.
    prefix: list[int] = []
    for _ in range(data.draw(st.integers(0, ntasks), label="ndraws")):
        rank = data.draw(st.integers(0, nranks - 1), label="rank")
        t = dlb.next(rank)
        if t is not None:
            prefix.append(t)

    withdrawn = dlb.fail_rank(victim, requeue=True)
    assert set(withdrawn).isdisjoint(prefix)

    survivors = [r for r in range(nranks) if r != victim]
    rest = _drain_interleaved(data, dlb.next, nranks, alive=survivors)
    assert dlb.next(victim) is None  # dead ranks draw nothing
    assert Counter(prefix + rest) == Counter(range(ntasks))


@settings(max_examples=50, **COMMON)
@given(
    data=st.data(),
    ntasks=st.integers(min_value=1, max_value=40),
    nranks=st.integers(min_value=2, max_value=6),
)
def test_dlb_fail_without_requeue_returns_grant_order(data, ntasks, nranks):
    """``requeue=False`` hands the withdrawn tasks back in grant order —
    the property the Fock builders' bitwise-identical replay rests on."""
    dlb = DynamicLoadBalancer(ntasks, nranks, policy="round_robin")
    victim = data.draw(st.integers(0, nranks - 1), label="victim")
    expected = dlb.assignment()[victim]
    npre = data.draw(st.integers(0, len(expected)), label="npre")
    drawn = [dlb.next(victim) for _ in range(npre)]
    withdrawn = dlb.fail_rank(victim, requeue=False)
    assert drawn + withdrawn == expected
    # Nobody else ever sees those indices again.
    survivors = [r for r in range(nranks) if r != victim]
    rest = _drain_interleaved(data, dlb.next, nranks, alive=survivors)
    assert set(rest).isdisjoint(withdrawn)


def _draw_costs(data, ntasks):
    return np.array(
        data.draw(
            st.lists(
                st.floats(0.01, 100.0, allow_nan=False),
                min_size=ntasks, max_size=ntasks,
            ),
            label="costs",
        )
    )


@contextmanager
def _process_grants(schedule, ntasks, nranks, costs=None):
    """``(claim, replay)`` of the process backend's grant source for one
    build, outside a fork.

    ``dlb`` workers claim from the shared :class:`SharedTaskCounter`; a
    ``static`` worker walks the share its build command carried
    (``iter(share)`` in ``_worker_loop``).  ``replay(rank)`` is what
    ``ProcessFockBuilder._recover`` re-executes for a dead rank: its
    claims off the owner board, or its whole share.
    """
    if schedule == "dlb":
        counter = SharedTaskCounter(max(ntasks, 1))
        try:
            counter.reset(ntasks)
            yield counter.next, counter.owned
        finally:
            counter.close()
    else:
        shares = make_scheduler(
            schedule, ntasks, nranks, costs=costs
        ).assignment()
        walkers = [iter(share) for share in shares]
        yield (lambda rank: next(walkers[rank], None)), shares.__getitem__


@settings(max_examples=60, **COMMON)
@given(
    data=st.data(),
    ntasks=st.integers(min_value=0, max_value=40),
    nranks=st.integers(min_value=1, max_value=6),
    schedule=st.sampled_from(SCHEDULE_NAMES),
    source=st.sampled_from(("sim", "process")),
    weighted=st.booleans(),
)
def test_every_schedule_grants_each_index_exactly_once(
    data, ntasks, nranks, schedule, source, weighted
):
    """The exactly-once contract is strategy- and backend-independent:
    the dynamic counter and the static pre-partition, served by the sim
    scheduler or by the process backend's grant source, hand out every
    task index exactly once under any rank interleaving."""
    costs = _draw_costs(data, ntasks) if weighted else None
    if source == "sim":
        sch = make_scheduler(schedule, ntasks, nranks, costs=costs)
        granted = _drain_interleaved(data, sch.next, nranks)
    else:
        with _process_grants(schedule, ntasks, nranks, costs) as (claim, _):
            granted = _drain_interleaved(data, claim, nranks)
    assert Counter(granted) == Counter(range(ntasks))


@settings(max_examples=40, **COMMON)
@given(
    data=st.data(),
    ntasks=st.integers(min_value=1, max_value=40),
    nranks=st.integers(min_value=2, max_value=6),
    schedule=st.sampled_from(SCHEDULE_NAMES),
)
def test_every_schedule_exactly_once_through_fail_rank_requeue(
    data, ntasks, nranks, schedule
):
    """Kill-with-requeue preserves exactly-once under every strategy."""
    sch = make_scheduler(schedule, ntasks, nranks)
    victim = data.draw(st.integers(0, nranks - 1), label="victim")

    prefix: list[int] = []
    for _ in range(data.draw(st.integers(0, ntasks), label="ndraws")):
        rank = data.draw(st.integers(0, nranks - 1), label="rank")
        t = sch.next(rank)
        if t is not None:
            prefix.append(t)

    withdrawn = sch.fail_rank(victim, requeue=True)
    assert set(withdrawn).isdisjoint(prefix)

    survivors = [r for r in range(nranks) if r != victim]
    rest = _drain_interleaved(data, sch.next, nranks, alive=survivors)
    assert sch.next(victim) is None
    assert Counter(prefix + rest) == Counter(range(ntasks))


@settings(max_examples=40, **COMMON)
@given(
    data=st.data(),
    ntasks=st.integers(min_value=1, max_value=40),
    nranks=st.integers(min_value=2, max_value=6),
    schedule=st.sampled_from(SCHEDULE_NAMES),
)
def test_every_schedule_fail_without_requeue_grant_order(
    data, ntasks, nranks, schedule
):
    """``requeue=False`` returns exactly the victim's outstanding grants
    in grant order (the replay contract), for every strategy, even after
    arbitrary draws elsewhere."""
    sch = make_scheduler(schedule, ntasks, nranks)
    victim = data.draw(st.integers(0, nranks - 1), label="victim")
    drawn: list[int] = []
    for _ in range(data.draw(st.integers(0, ntasks), label="ndraws")):
        rank = data.draw(st.integers(0, nranks - 1), label="rank")
        t = sch.next(rank)
        if t is not None and rank == victim:
            drawn.append(t)
    expected = sch.outstanding(victim)
    withdrawn = sch.fail_rank(victim, requeue=False)
    assert withdrawn == expected
    survivors = [r for r in range(nranks) if r != victim]
    rest = _drain_interleaved(data, sch.next, nranks, alive=survivors)
    assert set(rest).isdisjoint(withdrawn)
    combined = drawn + withdrawn + rest
    assert len(combined) == len(set(combined))


@settings(max_examples=40, **COMMON)
@given(
    data=st.data(),
    ntasks=st.integers(min_value=1, max_value=40),
    nranks=st.integers(min_value=2, max_value=6),
    schedule=st.sampled_from(SCHEDULE_NAMES),
)
def test_process_kill_replay_is_claim_order_and_exactly_once(
    data, ntasks, nranks, schedule
):
    """The process backend's recovery contract, for both grant sources:
    a worker killed after any number of claims is replayed starting with
    exactly those claims in claim order (bitwise-identical accumulation),
    and survivors' claims plus the replay cover every index once."""
    costs = _draw_costs(data, ntasks)
    with _process_grants(schedule, ntasks, nranks, costs) as (claim, replay):
        victim = data.draw(st.integers(0, nranks - 1), label="victim")
        kill_after = data.draw(st.integers(0, ntasks), label="kill_after")
        claimed: list[int] = []   # the victim's claims before it dies
        others: list[int] = []
        live = set(range(nranks))
        while live:
            rank = data.draw(st.sampled_from(sorted(live)), label="rank")
            if rank == victim and len(claimed) >= kill_after:
                live.discard(rank)  # dies at the claim boundary
                continue
            t = claim(rank)
            if t is None:
                live.discard(rank)
            else:
                (claimed if rank == victim else others).append(t)
        replayed = replay(victim)
    assert replayed[:len(claimed)] == claimed
    assert Counter(others + replayed) == Counter(range(ntasks))


@settings(max_examples=15, **COMMON)
@given(
    data=st.data(),
    ntasks=st.integers(min_value=0, max_value=30),
    nranks=st.integers(min_value=1, max_value=4),
)
def test_shared_counter_exactly_once(data, ntasks, nranks):
    """The process backend's shared counter is a true ``dlbnext``: any
    interleaving of claims serves each index exactly once, and the owner
    board partitions the index space."""
    counter = SharedTaskCounter(max(ntasks, 1))
    try:
        counter.reset(ntasks)
        granted = _drain_interleaved(data, counter.next, nranks)
        assert Counter(granted) == Counter(range(ntasks))
        assert counter.claimed() == ntasks
        owned = [counter.owned(r) for r in range(nranks)]
        assert sorted(t for ts in owned for t in ts) == list(range(ntasks))
        # Owned lists ascend: claim order == index order per rank, the
        # property the parent-side kill replay depends on.
        for ts in owned:
            assert ts == sorted(ts)
    finally:
        counter.close()


@settings(max_examples=40, **COMMON)
@given(
    data=st.data(),
    nrows=st.integers(min_value=1, max_value=48),
    nthreads=st.integers(min_value=1, max_value=8),
)
def test_tree_reduce_permutation_invariance(data, nrows, nthreads):
    """Reordering thread columns moves the tree-reduced sum by at most
    the documented PERMUTATION_TOLERANCE (relative)."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**31), label="seed"))
    buf = np.zeros((padded_rows(nrows), nthreads))
    buf[:nrows] = rng.standard_normal((nrows, nthreads)) * 10.0 ** rng.integers(
        -3, 4
    )
    perm = data.draw(st.permutations(range(nthreads)), label="perm")

    base = tree_reduce_columns(buf, nrows)
    shuffled = tree_reduce_columns(buf[:, perm], nrows)

    scale = max(np.max(np.abs(base)), 1.0)
    assert np.max(np.abs(shuffled - base)) <= PERMUTATION_TOLERANCE * scale
