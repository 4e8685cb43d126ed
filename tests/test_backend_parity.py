"""Differential sim <-> process parity suite.

The process backend runs the *same* rank programs as the deterministic
sim runtime, on real forked workers with shared-memory matrices and a
lock-backed DLB counter.  The partition of DLB tasks across workers is
nondeterministic, but the reduced Fock matrix is partition-independent
up to floating-point rounding, so the two backends must agree:

* single Fock builds to ~1e-12 (one reduction's worth of rounding);
* converged SCF energies to <= 1e-10 Hartree with *identical* iteration
  counts, for all three paper algorithms and across distinct
  scheduling-jitter seeds (nondeterminism hunting);
* chaos runs — a worker killed mid-build via a seeded
  :class:`~repro.resilience.faults.FaultPlan` — recover to the same
  energy and cycle count as the fault-free sim run.

Tolerances reference
:data:`repro.parallel.reduction.PERMUTATION_TOLERANCE`, the documented
contract for reordering-induced rounding drift.
"""

from __future__ import annotations

import os
import threading

import numpy as np
import pytest

from repro.core.scf_driver import ParallelSCF, make_fock_builder
from repro.integrals.onee import core_hamiltonian
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.parallel.backend import make_backend
from repro.parallel.reduction import PERMUTATION_TOLERANCE
from repro.resilience.faults import FaultEvent, FaultKind, FaultPlan

ALGORITHMS = ("mpi-only", "private-fock", "shared-fock")

#: SCF-level parity bound from the issue spec (Hartree).
ENERGY_TOL = 1.0e-10

#: Single-build parity bound: one gsumf reduction of rounding noise.
FOCK_TOL = 1.0e-12


def _geometry(algorithm: str) -> dict:
    """Smallest interesting geometry per algorithm (MPI-only is 1-thread)."""
    return {"nranks": 3, "nthreads": 1 if algorithm == "mpi-only" else 2}


def _trial_density(nbf: int, seed: int = 7) -> np.ndarray:
    rng = np.random.default_rng(seed)
    d = rng.standard_normal((nbf, nbf)) * 0.1
    return d + d.T


def _run_scf(basis, algorithm, *, backend="sim", schedule_seed=None, **kw):
    geo = _geometry(algorithm)
    options = {"schedule_seed": schedule_seed} if backend == "process" else None
    with ParallelSCF(
        basis, algorithm, backend=backend, backend_options=options, **geo, **kw
    ) as scf:
        return scf.run()


@pytest.fixture(scope="module")
def water_ref(water_sto3g):
    """Sim-backend reference runs on water, one per algorithm."""
    return {a: _run_scf(water_sto3g, a) for a in ALGORITHMS}


@pytest.mark.process
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_fock_build_parity(water_sto3g, algorithm):
    """One Fock build: process workers agree with the sim runtime ~bitwise."""
    hcore = core_hamiltonian(water_sto3g)
    geo = _geometry(algorithm)
    D = _trial_density(water_sto3g.nbf)

    F_sim, stats_sim = make_fock_builder(algorithm, water_sto3g, hcore, **geo)(D)

    inner = make_fock_builder(algorithm, water_sto3g, hcore, **geo)
    with make_backend("process", workers=geo["nranks"]) as be:
        F_proc, stats_proc = be.wrap_builder(inner)(D)

    assert np.max(np.abs(F_proc - F_sim)) < FOCK_TOL
    # Work conservation: exactly the same screened quartet set evaluated.
    assert stats_proc.quartets_computed == stats_sim.quartets_computed


@pytest.mark.process
def test_process_ranks_and_their_parent_add_no_threads(water_sto3g):
    """Commands, beats and results go over pipes written synchronously:
    no queue feeder thread in a rank or in the process driving them."""
    hcore = core_hamiltonian(water_sto3g)
    geo = _geometry("mpi-only")
    inner = make_fock_builder("mpi-only", water_sto3g, hcore, **geo)
    before = threading.active_count()
    with make_backend("process", workers=geo["nranks"]) as be:
        builder = be.wrap_builder(inner)
        builder(_trial_density(water_sto3g.nbf))
        tasks = [len(os.listdir(f"/proc/{p.pid}/task"))
                 for p in builder._children]
        assert tasks == [1] * geo["nranks"]
        assert threading.active_count() <= before


@pytest.mark.process
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_scf_parity_water(water_sto3g, water_ref, algorithm):
    """Converged SCF parity on water for every paper algorithm."""
    ref = water_ref[algorithm]
    got = _run_scf(water_sto3g, algorithm, backend="process")
    assert got.converged
    assert abs(got.energy - ref.energy) <= ENERGY_TOL
    assert got.scf.niterations == ref.scf.niterations


@pytest.mark.process
@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("seed", (1, 2, 3))
def test_scf_parity_scheduling_seeds(water_sto3g, water_ref, algorithm, seed):
    """Nondeterminism hunting: jittered claim schedules change the DLB
    partition but must not move the converged energy or cycle count."""
    ref = water_ref[algorithm]
    got = _run_scf(
        water_sto3g, algorithm, backend="process", schedule_seed=seed
    )
    assert got.converged
    assert abs(got.energy - ref.energy) <= ENERGY_TOL
    assert got.scf.niterations == ref.scf.niterations


@pytest.mark.process
@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("schedule", ("static",))
def test_scf_parity_every_schedule(
    water_sto3g, water_ref, algorithm, schedule
):
    """Strategy x algorithm parity: the non-default strategy, on both
    backends and under the same jitter seeds as the dlb sweep above,
    reproduces the dlb sim reference energy and cycle count — the
    partition-independence contract that makes ``--schedule`` a pure
    performance knob."""
    ref = water_ref[algorithm]
    sim = _run_scf(water_sto3g, algorithm, schedule=schedule)
    assert sim.converged
    assert abs(sim.energy - ref.energy) <= ENERGY_TOL
    assert sim.scf.niterations == ref.scf.niterations
    for seed in (1, 2, 3):
        got = _run_scf(
            water_sto3g, algorithm, backend="process", schedule=schedule,
            schedule_seed=seed,
        )
        assert got.converged
        assert abs(got.energy - ref.energy) <= ENERGY_TOL
        assert got.scf.niterations == ref.scf.niterations


@pytest.mark.process
def test_uhf_process_parity(water_sto3g):
    """UHF on the process backend (newly allowed): the stacked-spin
    accumulator reproduces the sim-backend UHF energy exactly."""
    from repro.core.fock_uhf import UHFPrivateFockBuilder
    from repro.scf.uhf import UHF

    hcore = core_hamiltonian(water_sto3g)

    def run_uhf(backend_name):
        inner = UHFPrivateFockBuilder(
            water_sto3g, hcore, nranks=2, nthreads=2
        )
        if backend_name == "sim":
            return UHF(
                water_sto3g, multiplicity=3, fock_builder=inner
            ).run()
        with make_backend("process", workers=2) as be:
            # The wrapper carries the spin pair itself: (da, db) in,
            # (fa, fb, stats) out, as the builder it wraps.
            return UHF(
                water_sto3g, multiplicity=3,
                fock_builder=be.wrap_builder(inner),
            ).run()

    ref = run_uhf("sim")
    got = run_uhf("process")
    assert ref.converged and got.converged
    assert abs(got.energy - ref.energy) <= ENERGY_TOL
    assert got.niterations == ref.niterations


@pytest.mark.process
@pytest.mark.slow
def test_scf_parity_graphene(graphene_sto3g):
    """The heavier fixture: a 4-carbon bilayer-graphene patch, shared-fock."""
    ref = _run_scf(graphene_sto3g, "shared-fock")
    got = _run_scf(graphene_sto3g, "shared-fock", backend="process")
    assert got.converged
    assert abs(got.energy - ref.energy) <= ENERGY_TOL
    assert got.scf.niterations == ref.scf.niterations


@pytest.mark.process
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_chaos_parity_kill_one_rank(water_sto3g, water_ref, algorithm):
    """A worker killed for real (``os._exit``) mid-build recovers to the
    fault-free sim result: the parent zeroes the dead worker's slab and
    replays its claimed grants, so energy and cycle count match."""
    ref = water_ref[algorithm]

    # The victim must have claimed a task to die after it: on a busy host
    # two workers can drain water's handful of DLB tasks before the third
    # wakes up, so the other two start the fatal build as stragglers.
    plan = FaultPlan(
        [FaultEvent(kind=FaultKind.KILL, rank=1, cycle=2, after=1)]
        + [
            FaultEvent(kind=FaultKind.DELAY, rank=r, cycle=2, factor=11.0)
            for r in (0, 2)
        ],
        nranks=3,
    )
    registry = MetricsRegistry()
    with use_metrics(registry):
        got = _run_scf(
            water_sto3g, algorithm, backend="process", fault_plan=plan
        )

    # The kill genuinely happened: the parent observed a dead worker and
    # replayed its claimed tasks.
    assert registry.counter("process.workers_lost").value >= 1
    assert registry.counter("process.tasks_replayed", rank=1).value >= 1
    assert got.converged
    assert abs(got.energy - ref.energy) <= ENERGY_TOL
    assert got.scf.niterations == ref.scf.niterations


@pytest.mark.process
def test_chaos_static_kill_replays_the_dead_ranks_share(water_sto3g):
    """``--schedule static`` on real processes has no shared grant state:
    the build command carries each rank's share, so a worker killed
    mid-build is recovered by replaying its *whole* share in partition
    order — one Fock build, one of three workers lost, sim parity."""
    hcore = core_hamiltonian(water_sto3g)
    geo = _geometry("shared-fock")
    D = _trial_density(water_sto3g.nbf)
    F_sim, _ = make_fock_builder(
        "shared-fock", water_sto3g, hcore, schedule="static", **geo
    )(D)

    plan = FaultPlan(
        [FaultEvent(kind=FaultKind.KILL, rank=1, cycle=1, after=1)], nranks=3
    )
    inner = make_fock_builder(
        "shared-fock", water_sto3g, hcore, schedule="static",
        fault_plan=plan, **geo,
    )
    share = inner.make_scheduler().assignment()[1]
    assert len(share) > 1  # after=1 lands mid-share, not at its end
    registry = MetricsRegistry()
    with use_metrics(registry), make_backend("process", workers=3) as be:
        builder = be.wrap_builder(inner)
        assert builder._counter is None  # no shared-memory board either
        F_proc, stats = builder(D)

    assert registry.counter("process.workers_lost").value == 1
    assert registry.counter(
        "process.tasks_replayed", rank=1
    ).value == len(share)
    assert np.max(np.abs(F_proc - F_sim)) <= ENERGY_TOL


@pytest.mark.process
def test_chaos_parity_seeded_plan(water_sto3g, water_ref):
    """A seeded (randomly generated, deterministic) kill plan under the
    process backend still reproduces the unfaulted sim run."""
    ref = water_ref["shared-fock"]
    # max_after=2 keeps the kill inside what one of 3 ranks claims of
    # water's 10 DLB tasks, so the fault is guaranteed to fire.
    plan = FaultPlan.seeded(
        20260806, nranks=3, ncycles=3, nevents=1, kinds=(FaultKind.KILL,),
        max_after=2,
    )
    registry = MetricsRegistry()
    with use_metrics(registry):
        got = _run_scf(
            water_sto3g, "shared-fock", backend="process", fault_plan=plan
        )
    assert registry.counter("process.workers_lost").value >= 1
    assert got.converged
    assert abs(got.energy - ref.energy) <= ENERGY_TOL
    assert got.scf.niterations == ref.scf.niterations


@pytest.mark.process
def test_parity_tolerance_is_the_documented_contract():
    """The suite's SCF bound equals the runtime's documented
    permutation-invariance tolerance — one contract, one constant."""
    assert ENERGY_TOL == PERMUTATION_TOLERANCE
