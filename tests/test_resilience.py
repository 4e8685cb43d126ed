"""Fault injection: seeded chaos with bitwise-identical recovery."""

import math

import numpy as np
import pytest

from repro.core.scf_driver import ParallelSCF
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.parallel.comm import SimWorld
from repro.resilience import (
    CorruptContributionError,
    FaultEvent,
    FaultKind,
    FaultPlan,
    FaultSpecError,
    corrupt_copy,
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
    kill = FaultEvent(FaultKind.KILL, rank=1, cycle=2, after=3)
    delay = FaultEvent(FaultKind.DELAY, rank=1, cycle=2, factor=4.0)
    again = FaultEvent(FaultKind.KILL, rank=1, cycle=2, after=5)
    plan = FaultPlan([kill, delay, again])
    assert plan.take(1) == {}                # wrong cycle
    assert plan.take(2) == {                 # fires: one kill per rank
        (FaultKind.KILL, 1): kill, (FaultKind.DELAY, 1): delay,
    }
    assert plan.take(2) == {(FaultKind.KILL, 1): again}  # a 2nd builder's
    assert plan.take(2) == {}                # spent
    assert plan.fired == plan.events


# -- a killed rank, replayed into its slot -----------------------------------


def _mpi_builder(basis, **kw):
    from repro.core.fock_mpi import MPIOnlyFockBuilder
    from repro.integrals.onee import core_hamiltonian

    return MPIOnlyFockBuilder(basis, core_hamiltonian(basis), nranks=2, **kw)


def _trial_density(nbf):
    d = np.random.default_rng(3).standard_normal((nbf, nbf))
    return d + d.T


def test_killed_rank_is_cut_then_replayed_in_grant_order(water_sto3g):
    """A rank killed after two tasks runs those two, then its whole
    grant list again from a zeroed slot, in grant order: the build and
    its stats are the fault-free ones, bit for bit."""
    d = _trial_density(water_sto3g.nbf)
    F_clean, stats_clean = _mpi_builder(water_sto3g)(d)
    builder = _mpi_builder(
        water_sto3g, fault_plan=FaultPlan.from_spec(
            "kill:rank=1:cycle=1:after=2", nranks=2
        ),
    )
    calls = []
    program = builder.rank_program

    def spied(rank, blocks, *args, **kwargs):
        blocks = list(blocks)
        calls.append((rank, blocks))
        return program(rank, iter(blocks), *args, **kwargs)

    builder.rank_program = spied
    registry = MetricsRegistry()
    with use_metrics(registry):
        F, stats = builder(d)
    grants = list(range(1, builder.dlb_ntasks(), 2))  # rank 1, round-robin
    assert calls[1:] == [(1, [grants[:2]]), (1, [grants])]
    assert np.array_equal(F, F_clean)
    assert stats.as_dict() == stats_clean.as_dict()
    snap = registry.snapshot()
    assert snap["resilience.rank_failures"] == 1
    assert snap["resilience.tasks_replayed{rank=1}"] == len(grants)


def test_every_rank_killed_still_builds_bitwise(water_sto3g):
    """A replay needs no survivor: each killed rank redoes its own
    grants, so a build in which every rank dies is still the clean one."""
    d = _trial_density(water_sto3g.nbf)
    F_clean, _ = _mpi_builder(water_sto3g)(d)
    plan = FaultPlan.from_spec(
        "kill:rank=0:cycle=1:after=0;kill:rank=1:cycle=1:after=3", nranks=2
    )
    registry = MetricsRegistry()
    with use_metrics(registry):
        F, _ = _mpi_builder(water_sto3g, fault_plan=plan)(d)
    assert len(plan.fired) == 2
    assert np.array_equal(F, F_clean)
    assert registry.snapshot()["resilience.rank_failures"] == 2


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
    assert snap["resilience.tasks_replayed{rank=1}"] >= 1


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


@pytest.mark.parametrize(
    "backend", ("sim", pytest.param("process", marks=pytest.mark.process))
)
def test_non_finite_uhf_density_names_its_spin_channel(water_sto3g, backend):
    """Both backends share one build head: it names the spin density
    that holds the NaN/Inf, before any rank runs."""
    from repro.core.fock_uhf import UHFPrivateFockBuilder
    from repro.integrals.onee import core_hamiltonian
    from repro.parallel.backend import make_backend
    from repro.resilience import NonFiniteDensityError

    builder = UHFPrivateFockBuilder(
        water_sto3g, core_hamiltonian(water_sto3g), nranks=2, nthreads=1
    )
    good = np.zeros((water_sto3g.nbf, water_sto3g.nbf))
    bad = good.copy()
    bad[0, 1] = np.inf
    with make_backend(backend, workers=2) as be:
        wrapped = be.wrap_builder(builder)
        with pytest.raises(NonFiniteDensityError,
                           match="build 1: input beta density"):
            wrapped(good, bad)
        with pytest.raises(NonFiniteDensityError,
                           match="build 2: input alpha density"):
            wrapped(bad, good)
