"""Fault injection: seeded chaos with bitwise-identical recovery."""

import math

import numpy as np
import pytest

from repro.core.scf_driver import ParallelSCF
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.parallel.comm import SimWorld
from repro.parallel.dlb import DynamicLoadBalancer
from repro.resilience import (
    CorruptContributionError,
    FaultEvent,
    FaultKind,
    FaultPlan,
    FaultSpecError,
    RankLostError,
    corrupt_copy,
    resilient_grants,
)


# -- FaultPlan construction & validation -------------------------------------


def test_plan_from_spec_round_trips():
    spec = ("kill:rank=1:cycle=2:after=5;delay:rank=3:cycle=1:factor=4;"
            "corrupt:rank=0:cycle=2:payload=inf")
    plan = FaultPlan.from_spec(spec, nranks=4)
    assert len(plan) == 3
    assert plan.to_spec() == spec
    kinds = [ev.kind for ev in plan.events]
    assert kinds == [FaultKind.KILL, FaultKind.DELAY, FaultKind.CORRUPT]


@pytest.mark.parametrize("bad", [
    "explode:rank=0",                  # unknown kind
    "kill:cycle=2",                    # missing rank
    "kill:rank=zero",                  # non-integer rank
    "kill:rank=0:wat=1",               # unknown field
    "kill:rank=0;cycle",               # malformed key=value
    "delay:rank=0:factor=0.5",         # factor must exceed 1
    "corrupt:rank=0:payload=seven",    # unknown payload
    "kill:rank=-1",                    # negative rank
    "kill:rank=0:cycle=0",             # cycle is 1-based
    "kill:rank=0:after=-3",            # negative task count
])
def test_plan_rejects_malformed_specs(bad):
    with pytest.raises(FaultSpecError):
        FaultPlan.from_spec(bad)


def test_plan_rejects_out_of_range_rank_at_construction():
    with pytest.raises(FaultSpecError, match="rank 7"):
        FaultPlan.from_spec("kill:rank=7:cycle=1", nranks=2)
    # validation is also available post-hoc
    plan = FaultPlan.from_spec("kill:rank=3:cycle=1")
    with pytest.raises(FaultSpecError):
        plan.validate_for(2)


def test_plan_rejects_killing_the_only_rank():
    with pytest.raises(FaultSpecError, match="only"):
        FaultPlan.from_spec("kill:rank=0:cycle=1", nranks=1)


def test_seeded_plan_is_deterministic():
    a = FaultPlan.seeded(1234, nranks=4, nevents=3,
                         kinds=tuple(FaultKind))
    b = FaultPlan.seeded(1234, nranks=4, nevents=3,
                         kinds=tuple(FaultKind))
    assert a.to_spec() == b.to_spec()
    c = FaultPlan.seeded(1235, nranks=4, nevents=3,
                         kinds=tuple(FaultKind))
    assert a.to_spec() != c.to_spec()


def test_events_are_one_shot():
    plan = FaultPlan([FaultEvent(FaultKind.KILL, rank=1, cycle=2, after=3)])
    assert plan.kill_after(1, 1) is None     # wrong cycle
    assert plan.kill_after(0, 2) is None     # wrong rank
    assert plan.kill_after(1, 2) == 3        # fires
    assert plan.kill_after(1, 2) is None     # spent
    assert plan.fired == plan.events


# -- DLB fault hooks ----------------------------------------------------------


def test_dlb_fail_rank_withdraws_and_requeues():
    dlb = DynamicLoadBalancer(10, 3)          # rank1 holds 1,4,7
    assert dlb.next(1) == 1
    withdrawn = dlb.fail_rank(1, requeue=True)
    assert withdrawn == [4, 7]
    assert not dlb.alive(1)
    assert dlb.next(1) is None
    # round-robin claims by the survivors, appended after their own work
    assert dlb.assignment()[0] == [0, 3, 6, 9, 4]
    assert dlb.assignment()[2] == [2, 5, 8, 7]
    # idempotent: a dead rank has nothing left to withdraw
    assert dlb.fail_rank(1) == []


def test_dlb_fail_rank_no_requeue_leaves_redistribution_to_caller():
    dlb = DynamicLoadBalancer(6, 2)
    withdrawn = dlb.fail_rank(0, requeue=False)
    assert withdrawn == [0, 2, 4]
    assert dlb.assignment()[1] == [1, 3, 5]   # untouched


def test_dlb_fail_rank_validates_rank_and_survivors():
    dlb = DynamicLoadBalancer(4, 2)
    with pytest.raises(ValueError):
        dlb.fail_rank(5)
    dlb.fail_rank(0, requeue=False)
    with pytest.raises(RuntimeError, match="no survivors"):
        dlb.fail_rank(1, requeue=True)


def test_resilient_grants_replays_in_original_grant_order():
    dlb = DynamicLoadBalancer(8, 2)           # rank1: 1,3,5,7
    plan = FaultPlan([FaultEvent(FaultKind.KILL, rank=1, cycle=1, after=2)])
    grants = list(resilient_grants(dlb, 1, plan, 1))
    # two healthy draws, then death; the remaining grants replay in order
    assert grants == [1, 3, 5, 7]
    assert not dlb.alive(1)


def test_resilient_grants_raises_when_no_survivors():
    dlb = DynamicLoadBalancer(4, 2)
    dlb.fail_rank(0, requeue=False)
    plan = FaultPlan([FaultEvent(FaultKind.KILL, rank=1, cycle=1, after=0)])
    with pytest.raises(RankLostError):
        list(resilient_grants(dlb, 1, plan, 1))


# -- validated reductions -----------------------------------------------------


def test_simcomm_gsumf_rejects_corrupt_buffer():
    world = SimWorld(2)

    def rank_main(comm):
        buf = np.zeros((2, 2))
        if comm.rank == 1:
            buf[0, 0] = np.inf
        comm.gsumf(buf)

    with pytest.raises(CorruptContributionError, match="rank 1"):
        world.execute(rank_main)


def test_tree_reduce_validates_thread_columns():
    from repro.parallel.reduction import tree_reduce_columns

    buf = np.ones((4, 3))
    np.testing.assert_allclose(
        tree_reduce_columns(buf, 4, validate=True), np.full(4, 3.0)
    )
    buf[2, 1] = np.nan
    with pytest.raises(CorruptContributionError, match="thread 1"):
        tree_reduce_columns(buf, 4, validate=True)
    # unvalidated path keeps the historical permissive behaviour
    assert np.isnan(tree_reduce_columns(buf, 4)).any()


def test_corrupt_copy_leaves_original_pristine():
    buf = np.arange(4.0).reshape(2, 2)
    wire = corrupt_copy(buf, "inf")
    assert np.isinf(wire[0, 0])
    assert np.all(np.isfinite(buf))


# -- end-to-end: injected faults, bitwise-identical recovery ------------------


@pytest.mark.parametrize("algorithm,nthreads", [
    ("mpi-only", 1),
    ("private-fock", 2),
    ("shared-fock", 2),
])
def test_kill_one_of_four_ranks_is_bitwise_identical(
    algorithm, nthreads, water_sto3g
):
    clean = ParallelSCF(
        water_sto3g, algorithm, nranks=4, nthreads=nthreads
    ).run()
    # after=0: rank 1 dies on its first draw of build 2, so the kill
    # fires even for algorithms whose task space gives it a single grant.
    plan = FaultPlan.from_spec("kill:rank=1:cycle=2:after=0", nranks=4)
    registry = MetricsRegistry()
    with use_metrics(registry):
        faulted = ParallelSCF(
            water_sto3g, algorithm, nranks=4, nthreads=nthreads,
            fault_plan=plan,
        ).run()
    assert plan.fired                          # the kill actually struck
    assert faulted.energy == clean.energy      # bitwise, not approximately
    assert faulted.scf.niterations == clean.scf.niterations
    snap = registry.snapshot()
    assert snap["resilience.rank_failures"] == 1
    assert snap["resilience.tasks_requeued"] >= 1
    assert any(k.startswith("resilience.tasks_recovered") for k in snap)


@pytest.mark.parametrize("payload", ["nan", "inf", "-inf"])
def test_corrupt_contribution_is_retransmitted_bitwise(payload, water_sto3g):
    clean = ParallelSCF(water_sto3g, "shared-fock", nranks=3, nthreads=2).run()
    plan = FaultPlan.from_spec(
        f"corrupt:rank=2:cycle=3:payload={payload}", nranks=3
    )
    registry = MetricsRegistry()
    with use_metrics(registry):
        faulted = ParallelSCF(
            water_sto3g, "shared-fock", nranks=3, nthreads=2, fault_plan=plan,
        ).run()
    assert plan.fired
    assert faulted.energy == clean.energy
    snap = registry.snapshot()
    assert snap["resilience.corrupt_injected"] == 1
    assert snap["resilience.corrupt_detected"] == 1
    assert snap["resilience.retransmissions{rank=2}"] == 1


def test_unvalidated_corruption_trips_density_guard(water_sto3g):
    from repro.resilience import NonFiniteDensityError, ResilienceError

    plan = FaultPlan.from_spec("corrupt:rank=0:cycle=1:payload=nan", nranks=2)
    scf = ParallelSCF(
        water_sto3g, "shared-fock", nranks=2, nthreads=1,
        fault_plan=plan, validate_reductions=False,
    )
    # With validation off the NaN reaches the Fock/density pipeline; the
    # downstream guards must catch it instead of iterating on garbage.
    with pytest.raises((NonFiniteDensityError, ResilienceError)):
        scf.run()


def test_delay_fault_is_metered_but_bitwise_neutral(water_sto3g):
    clean = ParallelSCF(water_sto3g, "mpi-only", nranks=2).run()
    plan = FaultPlan.from_spec("delay:rank=1:cycle=1:factor=4", nranks=2)
    registry = MetricsRegistry()
    with use_metrics(registry):
        slowed = ParallelSCF(
            water_sto3g, "mpi-only", nranks=2, fault_plan=plan
        ).run()
    assert slowed.energy == clean.energy
    snap = registry.snapshot()
    assert snap["resilience.stragglers"] == 1
    assert snap["resilience.straggler_factor"]["max"] == 4.0


def test_seeded_kill_plan_end_to_end(water_sto3g):
    """The chaos-smoke scenario: a seeded random kill, fixed outcome."""
    clean = ParallelSCF(water_sto3g, "private-fock", nranks=4, nthreads=2).run()
    plan = FaultPlan.seeded(20170613, nranks=4, ncycles=3, max_after=5)
    faulted = ParallelSCF(
        water_sto3g, "private-fock", nranks=4, nthreads=2, fault_plan=plan,
    ).run()
    assert faulted.energy == clean.energy
    assert math.isclose(faulted.energy, -74.9420799281, abs_tol=5e-7)


def test_builder_rejects_plan_outside_geometry(water_sto3g):
    plan = FaultPlan.from_spec("kill:rank=6:cycle=1")
    with pytest.raises(FaultSpecError):
        ParallelSCF(water_sto3g, "mpi-only", nranks=2, fault_plan=plan)


def test_non_finite_density_fails_fast_naming_the_build(water_sto3g):
    from repro.resilience import NonFiniteDensityError

    scf = ParallelSCF(water_sto3g, "shared-fock", nranks=1, nthreads=1)
    bad = np.zeros((water_sto3g.nbf, water_sto3g.nbf))
    bad[0, 0] = np.nan
    with pytest.raises(NonFiniteDensityError, match="build 1"):
        scf.builder(bad)
