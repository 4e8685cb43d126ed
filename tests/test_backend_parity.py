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
import signal
import threading

import numpy as np
import pytest

from repro.core import fock_base
from repro.core.scf_driver import ParallelSCF, make_fock_builder
from repro.integrals.onee import core_hamiltonian
from repro.obs.events import EventLog, use_event_log
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.parallel.backend import make_backend
from repro.parallel.backend import process as process_backend
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
@pytest.mark.parametrize("algorithm", (*ALGORITHMS, "uhf"))
def test_fock_build_parity(water_sto3g, algorithm):
    """One Fock build: process workers agree with the sim runtime
    ~bitwise and count the same work.  Under ``static`` a rank gets the
    same share on both backends, so the whole stats record agrees, FI
    flushes (one per change of ``i`` on a rank) and per-rank counts
    included; under ``dlb`` the partition is timing-dependent, and only
    what does not depend on it must agree."""
    from repro.core.fock_uhf import UHFPrivateFockBuilder

    hcore = core_hamiltonian(water_sto3g)
    geo = _geometry(algorithm)
    D = _trial_density(water_sto3g.nbf)
    densities = (D,)
    if algorithm == "uhf":
        densities = (D, _trial_density(water_sto3g.nbf, seed=8))

    def builder(schedule):
        if algorithm == "uhf":
            return UHFPrivateFockBuilder(
                water_sto3g, hcore, schedule=schedule, **geo
            )
        return make_fock_builder(
            algorithm, water_sto3g, hcore, schedule=schedule, **geo
        )

    for schedule in ("dlb", "static"):
        *F_sim, stats_sim = builder(schedule)(*densities)
        with make_backend("process", workers=geo["nranks"]) as be:
            *F_proc, stats_proc = be.wrap_builder(builder(schedule))(*densities)

        for a, b in zip(F_proc, F_sim, strict=True):
            assert np.max(np.abs(a - b)) < FOCK_TOL
        if schedule == "static":
            assert stats_proc.as_dict() == stats_sim.as_dict()
        # Work conservation: exactly the same screened quartet set
        # evaluated, split the same way over the threads.
        for name in ("quartets_computed", "quartets_screened", "fj_flushes",
                     "per_thread_quartets"):
            assert getattr(stats_proc, name) == getattr(stats_sim, name), name


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
    assert registry.counter("resilience.rank_failures").value >= 1
    assert registry.counter("resilience.tasks_replayed", rank=1).value >= 1
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

    assert registry.counter("resilience.rank_failures").value == 1
    assert registry.counter(
        "resilience.tasks_replayed", rank=1
    ).value == len(share)
    assert np.max(np.abs(F_proc - F_sim)) <= ENERGY_TOL


@pytest.mark.process
def test_kill_and_corrupt_take_one_path_on_both_backends(water_sto3g):
    """One static shared-fock build under a kill, a delay and a
    corruption, on the sim runtime and on real processes.  The parent's
    build head decides every fault on both backends: the plans fire the
    same events, the ``resilience.*`` metrics (straggler factor
    included) and the parent's ``fault.*`` events agree.  A static
    rank's share is fixed before the build, so both backends replay the
    killed rank's whole share into its slot, and both hand the
    validating ``gsumf`` a corrupted copy of rank 2's slab before the
    clean one: the stats records are equal, and so is F."""
    hcore = core_hamiltonian(water_sto3g)
    D = _trial_density(water_sto3g.nbf)
    spec = ("kill:rank=1:cycle=1:after=1;delay:rank=0:cycle=1:factor=4;"
            "corrupt:rank=2:cycle=1:payload=nan")

    def build(backend):
        plan = FaultPlan.from_spec(spec, nranks=3)
        inner = make_fock_builder(
            "shared-fock", water_sto3g, hcore, schedule="static",
            fault_plan=plan, nranks=3, nthreads=2,
        )
        registry, log = MetricsRegistry(), EventLog()
        with use_metrics(registry), use_event_log(log), \
                make_backend(backend, workers=3) as be:
            F, stats = be.wrap_builder(inner)(D)
        resilience = {
            key: value for key, value in registry.snapshot().items()
            if key.startswith("resilience.")
        }
        faults = sorted(ev.kind for ev in log if ev.kind.startswith("fault."))
        return F, stats, resilience, plan.fired, faults

    F_sim, stats_sim, res_sim, fired_sim, faults_sim = build("sim")
    F_proc, stats_proc, res_proc, fired_proc, faults_proc = build("process")
    assert fired_proc == fired_sim
    assert len(fired_sim) == 3
    assert faults_proc == faults_sim == [
        "fault.corrupt", "fault.delay", "fault.kill",
    ]
    assert stats_proc.as_dict() == stats_sim.as_dict()
    assert res_proc == res_sim
    assert res_sim["resilience.rank_failures"] == 1
    assert res_sim["resilience.stragglers"] == 1
    assert res_sim["resilience.straggler_factor"]["max"] == 4.0
    assert res_sim["resilience.corrupt_detected"] == 1
    assert res_sim["resilience.retransmissions{rank=2}"] == 1
    assert np.max(np.abs(F_proc - F_sim)) <= ENERGY_TOL


@pytest.mark.process
def test_a_rank_late_at_the_build_deadline_is_killed_and_replayed(
    water_sto3g, monkeypatch
):
    """A worker still running at the build deadline is SIGKILLed and
    replayed like a dead one: its share is redone in the parent, one
    ``fault.kill`` names it, F is the fault-free build's, and the next
    build respawns it.  The delayed rank sleeps past a deadline far
    shorter than its delay; on a busy host another rank may miss it
    too, so only the delayed one is asserted on."""
    monkeypatch.setattr(process_backend, "BUILD_DEADLINE_S", 0.05)
    hcore = core_hamiltonian(water_sto3g)
    D = _trial_density(water_sto3g.nbf)
    geo = {"nranks": 2, "nthreads": 2}
    F_sim, _ = make_fock_builder(
        "shared-fock", water_sto3g, hcore, schedule="static", **geo
    )(D)
    plan = FaultPlan.from_spec("delay:rank=1:cycle=1:factor=100", nranks=2)
    inner = make_fock_builder(
        "shared-fock", water_sto3g, hcore, schedule="static",
        fault_plan=plan, **geo,
    )
    share = inner.make_scheduler().assignment()[1]
    registry, log = MetricsRegistry(), EventLog()
    with use_metrics(registry), use_event_log(log), \
            make_backend("process", workers=2) as be:
        builder = be.wrap_builder(inner)
        F_proc, _ = builder(D)
        late = builder._children[1]
        assert late.proc.exitcode == -signal.SIGKILL
        kills = [ev for ev in log if ev.kind == "fault.kill"]
        assert 1 in [ev.rank for ev in kills]
        assert registry.counter(
            "resilience.tasks_replayed", rank=1
        ).value == len(share)
        assert np.max(np.abs(F_proc - F_sim)) <= FOCK_TOL
        monkeypatch.setattr(process_backend, "BUILD_DEADLINE_S", 120.0)
        F_next, _ = builder(D)
        assert late.respawns == 1 and late.alive()
        assert np.max(np.abs(F_next - F_sim)) <= FOCK_TOL


@pytest.mark.process
def test_a_static_rank_beats_once_per_run(
    water_sto3g, monkeypatch, tmp_path
):
    """A static rank holds its whole share as one grant block, and beats
    before each run of its rank loop, not only when it claims: with the
    digestion budget lowered so the share spans several runs, and no
    rate limit, the parent counts more beats than start, claim, the
    closing claim and done.  Blocks stay whole shares."""
    monkeypatch.setattr(fock_base, "MAX_BATCH_DOUBLES", 1)
    hcore = core_hamiltonian(water_sto3g)
    D = _trial_density(water_sto3g.nbf)
    inner = make_fock_builder(
        "shared-fock", water_sto3g, hcore, schedule="static",
        nranks=2, nthreads=1,
    )
    shares = inner.make_scheduler().assignment()
    assert min(map(len, shares)) > 1  # a run per task: several runs
    _block_spy(inner, tmp_path)
    with make_backend(
        "process", workers=2, heartbeat_interval_s=0.0
    ) as be:
        builder = be.wrap_builder(inner)
        builder(D)
        beats = [h.beats for h in builder.heartbeat.health]
    assert all(n > 4 for n in beats)
    assert [_blocks(tmp_path, rank) for rank in range(2)] == [
        [len(share)] for share in shares
    ]


def _block_spy(inner, log_dir):
    """Wrap ``inner.rank_program`` (before the workers fork) to log the
    size of every grant block a rank is handed, one file per process."""
    program = inner.rank_program

    def spied(rank, blocks, *args, **kwargs):
        def logged():
            for block in blocks:
                with open(log_dir / f"rank{rank}-{os.getpid()}", "a") as f:
                    f.write(f"{len(block)}\n")
                yield block

        return program(rank, logged(), *args, **kwargs)

    inner.rank_program = spied


def _blocks(log_dir, rank):
    return [
        int(line) for path in sorted(log_dir.glob(f"rank{rank}-*"))
        for line in path.read_text().split()
    ]


@pytest.mark.process
def test_straggler_dlb_rank_claims_one_task_per_block(water_sto3g, tmp_path):
    """Grant blocks on real processes: under ``dlb`` every claim on the
    live counter is a block of one task, so a straggler's grants still
    shift to the other rank one claim at a time; under ``static`` a rank
    is handed its whole share at once.  Sim parity either way."""
    hcore = core_hamiltonian(water_sto3g)
    D = _trial_density(water_sto3g.nbf)
    geo = {"nranks": 2, "nthreads": 2}
    F_sim, _ = make_fock_builder("shared-fock", water_sto3g, hcore, **geo)(D)

    for schedule in ("dlb", "static"):
        log_dir = tmp_path / schedule
        log_dir.mkdir()
        plan = FaultPlan(
            [FaultEvent(kind=FaultKind.DELAY, rank=1, cycle=1, factor=6.0)],
            nranks=2,
        )
        inner = make_fock_builder(
            "shared-fock", water_sto3g, hcore, schedule=schedule,
            fault_plan=plan, **geo,
        )
        shares = inner.make_scheduler().assignment()
        _block_spy(inner, log_dir)
        with make_backend("process", workers=2) as be:
            F_proc, _ = be.wrap_builder(inner)(D)
        blocks = [_blocks(log_dir, rank) for rank in range(2)]
        if schedule == "dlb":
            assert set(blocks[0] + blocks[1]) == {1}
            assert sum(blocks[0]) + sum(blocks[1]) == inner.dlb_ntasks()
            # The straggler slept through its first claims: the other
            # rank drew more than half of the counter.
            assert sum(blocks[0]) > sum(blocks[1])
        else:
            assert blocks == [[len(share)] for share in shares]
        assert np.max(np.abs(F_proc - F_sim)) <= FOCK_TOL


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
    assert registry.counter("resilience.rank_failures").value >= 1
    assert got.converged
    assert abs(got.energy - ref.energy) <= ENERGY_TOL
    assert got.scf.niterations == ref.scf.niterations


@pytest.mark.process
def test_parity_tolerance_is_the_documented_contract():
    """The suite's SCF bound equals the runtime's documented
    permutation-invariance tolerance — one contract, one constant."""
    assert ENERGY_TOL == PERMUTATION_TOLERANCE
