"""Checkpoint/restart: interrupted runs resume bitwise identically."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scf_driver import ParallelSCF
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.resilience import (
    CheckpointError,
    CheckpointManager,
    SCFCheckpoint,
    SCFConvergenceError,
    load_checkpoint,
)
from repro.resilience.checkpoint import COST_RATIO, FORMAT_VERSION, MAGIC
from repro.scf.convergence import ConvergenceCriteria


def _rhf_checkpoint(nbf=3, cycle=4):
    rng = np.random.default_rng(7)
    d = rng.standard_normal((nbf, nbf))
    return SCFCheckpoint(
        kind="rhf",
        cycle=cycle,
        energy=-74.5,
        densities=(d + d.T,),
        diis_focks=[rng.standard_normal((nbf, nbf)) for _ in range(2)],
        diis_errors=[rng.standard_normal((nbf, nbf)) for _ in range(2)],
        history=np.array([[1, -74.0, 1e-1, -74.0], [2, -74.4, 1e-2, -0.4]]),
        nbf=nbf,
        nelectrons=10,
        label="water/sto-3g",
    )


# -- serialization ------------------------------------------------------------


def test_checkpoint_save_load_round_trip_is_exact(tmp_path):
    ck = _rhf_checkpoint()
    path = ck.save(tmp_path / "state.ckpt")
    back = SCFCheckpoint.load(path)
    assert back.kind == ck.kind
    assert back.cycle == ck.cycle
    assert back.energy == ck.energy            # float64 binary round-trip
    for a, b in zip(back.densities, ck.densities):
        assert np.array_equal(a, b)
    for a, b in zip(back.diis_focks, ck.diis_focks):
        assert np.array_equal(a, b)
    for a, b in zip(back.diis_errors, ck.diis_errors):
        assert np.array_equal(a, b)
    assert np.array_equal(back.history, ck.history)
    assert back.nbf == ck.nbf
    assert back.nelectrons == ck.nelectrons
    assert back.label == ck.label


def _assert_same_state(back, ck):
    assert (back.kind, back.cycle, back.nbf, back.nelectrons, back.label) \
        == (ck.kind, ck.cycle, ck.nbf, ck.nelectrons, ck.label)
    assert back.energy == ck.energy
    assert back.history.shape == np.asarray(ck.history).shape
    assert back.history.tobytes() == np.asarray(ck.history).tobytes()
    for got, want in ((back.densities, ck.densities),
                      (back.diis_focks, ck.diis_focks),
                      (back.diis_errors, ck.diis_errors)):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
            assert a.flags.writeable and a.dtype == np.float64


_finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["rhf", "uhf"]),
    nbf=st.integers(1, 6),
    ndiis=st.integers(0, 8),
    ncycles=st.integers(0, 5),
    energy=_finite,
    label=st.text(max_size=20),
    seed=st.integers(0, 2**32 - 1),
)
def test_format_round_trips_every_bit(tmp_path_factory, kind, nbf, ndiis,
                                      ncycles, energy, label, seed):
    """RHF and UHF states, 0-8 DIIS vectors, an empty history: what
    ``load`` returns is what ``save`` was given, bit for bit, and the
    file is exactly as long as its header says."""
    rng = np.random.default_rng(seed)
    ck = SCFCheckpoint(
        kind=kind, cycle=max(1, ncycles), energy=energy,
        densities=tuple(rng.standard_normal((nbf, nbf))
                        for _ in range(1 if kind == "rhf" else 2)),
        diis_focks=[rng.standard_normal((nbf, nbf)) for _ in range(ndiis)],
        # Error vectors live in the orthogonal basis: not always nbf wide.
        diis_errors=[rng.standard_normal((nbf - 1, nbf - 1))
                     for _ in range(ndiis)],
        history=rng.standard_normal((ncycles, 4)),
        nbf=nbf, nelectrons=2 * nbf, label=label,
    )
    path = ck.save(tmp_path_factory.mktemp("ck") / "state.ckpt")
    _assert_same_state(SCFCheckpoint.load(path), ck)
    raw = path.read_bytes()
    assert raw.startswith(MAGIC)
    header_len = int.from_bytes(raw[8:12], "little")
    assert (12 + header_len) % 8 == 0          # payload is aligned
    meta = json.loads(raw[12:12 + header_len])
    assert meta["version"] == FORMAT_VERSION == 2
    assert len(raw) == 12 + header_len + 8 * sum(
        int(np.prod(shape)) for shape in meta["shapes"])


def test_checkpoint_constructor_validates():
    with pytest.raises(CheckpointError, match="kind"):
        SCFCheckpoint(kind="dft", cycle=1, energy=0.0, densities=())
    with pytest.raises(CheckpointError, match="cycle"):
        SCFCheckpoint(kind="rhf", cycle=0, energy=0.0, densities=())
    with pytest.raises(CheckpointError, match="DIIS"):
        SCFCheckpoint(
            kind="rhf", cycle=1, energy=0.0, densities=(),
            diis_focks=[np.eye(2)], diis_errors=[],
        )


def test_load_missing_or_malformed_file(tmp_path):
    with pytest.raises(CheckpointError, match="not found"):
        SCFCheckpoint.load(tmp_path / "nope.ckpt")
    junk = tmp_path / "junk.ckpt"
    junk.write_bytes(b"this is not an npz archive")
    with pytest.raises(CheckpointError):
        SCFCheckpoint.load(junk)


def test_truncated_checkpoint_is_a_checkpoint_error(tmp_path):
    """A torn write — the file cut at any byte — is the documented
    ``CheckpointError``, never a raw ``zipfile`` / ``EOFError`` escape."""
    path = _rhf_checkpoint().save(tmp_path / "state.ckpt")
    whole = path.read_bytes()
    torn = tmp_path / "torn.ckpt"
    for cut in range(len(whole)):
        torn.write_bytes(whole[:cut])
        with pytest.raises(CheckpointError):
            SCFCheckpoint.load(torn)
    torn.write_bytes(whole)
    assert SCFCheckpoint.load(torn).cycle == _rhf_checkpoint().cycle


def test_interrupted_save_keeps_the_previous_checkpoint(tmp_path, monkeypatch):
    """The archive is written beside its destination and renamed over it:
    a save that dies before the rename leaves the old checkpoint loadable
    and no temporary file behind."""
    import os

    from dataclasses import replace

    first = _rhf_checkpoint()
    path = first.save(tmp_path / "state.ckpt")

    def killed(src, dst):
        raise OSError("killed before the rename")

    monkeypatch.setattr(os, "replace", killed)
    with pytest.raises(OSError, match="killed"):
        replace(first, cycle=first.cycle + 1).save(path)
    monkeypatch.undo()

    assert [p.name for p in tmp_path.iterdir()] == ["state.ckpt"]
    assert SCFCheckpoint.load(path).cycle == first.cycle
    replace(first, cycle=first.cycle + 1).save(path)
    assert [p.name for p in tmp_path.iterdir()] == ["state.ckpt"]
    assert SCFCheckpoint.load(path).cycle == first.cycle + 1


def test_load_rejects_future_format_version(tmp_path):
    path = _rhf_checkpoint().save(tmp_path / "state.ckpt")
    raw = path.read_bytes()
    # "version": 2 -> 9 keeps every length in the record the same.
    assert raw.count(b'"version": 2') == 1
    path.write_bytes(raw.replace(b'"version": 2', b'"version": 9'))
    with pytest.raises(CheckpointError, match="version 9"):
        SCFCheckpoint.load(path)


def test_version_1_npz_archive_is_refused_by_name(tmp_path):
    """What the previous format wrote is not read by a second reader:
    it is a ``CheckpointError`` that says what the file is."""
    path = tmp_path / "old.npz"
    with path.open("wb") as fh:
        np.savez(fh, version=np.array(1), kind=np.array("rhf"),
                 cycle=np.array(3), density_0=np.eye(3))
    with pytest.raises(CheckpointError, match=r"version-1 \.npz"):
        SCFCheckpoint.load(path)


def test_check_compatible_guards_restart():
    ck = _rhf_checkpoint()
    ck.check_compatible(kind="rhf", nbf=3, nelectrons=10)
    with pytest.raises(CheckpointError, match="UHF"):
        ck.check_compatible(kind="uhf", nbf=3, nelectrons=10)
    with pytest.raises(CheckpointError, match="basis"):
        ck.check_compatible(kind="rhf", nbf=7, nelectrons=10)
    with pytest.raises(CheckpointError, match="electrons"):
        ck.check_compatible(kind="rhf", nbf=3, nelectrons=8)


def test_load_checkpoint_coerces_paths_and_objects(tmp_path):
    ck = _rhf_checkpoint()
    assert load_checkpoint(ck) is ck
    path = ck.save(tmp_path / "s.ckpt")
    assert load_checkpoint(path).cycle == ck.cycle
    assert load_checkpoint(str(path)).cycle == ck.cycle


# -- CheckpointManager --------------------------------------------------------


def test_manager_writes_on_interval_only(tmp_path):
    mgr = CheckpointManager(tmp_path / "s.ckpt", every=3)
    registry = MetricsRegistry()
    with use_metrics(registry):
        for cycle in range(1, 8):
            ck = _rhf_checkpoint(cycle=cycle)
            assert mgr.maybe_save(ck) == (cycle % 3 == 0)
    assert mgr.writes == 2                     # cycles 3 and 6
    snap = registry.snapshot()
    assert snap["resilience.checkpoints_written"] == 2
    assert snap["resilience.last_checkpoint_cycle"] == 6
    assert SCFCheckpoint.load(mgr.path).cycle == 6   # latest wins


def test_manager_rejects_bad_interval(tmp_path):
    with pytest.raises(CheckpointError):
        CheckpointManager(tmp_path / "s.ckpt", every=0)


class _Clock:
    """A fake wall clock in whole milliseconds (exact arithmetic)."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now


def _drive(manager, clock, cycles, *, cycle_ms, write_ms):
    """Run ``cycles`` fake cycles; returns (written, snapshotted) cycles.

    Each snapshot advances the clock by its write's cost, so the manager
    measures ``write_ms(cycle)`` for the write after ``cycle``.
    """
    written, snapshotted = [], []

    def snapshot_of(cycle):
        def snapshot():
            snapshotted.append(cycle)
            clock.now += write_ms(cycle)
            return _rhf_checkpoint(cycle=cycle)
        return snapshot

    for cycle in cycles:
        clock.now += cycle_ms
        if manager.after_cycle(cycle, snapshot_of(cycle)):
            written.append(cycle)
    return written, snapshotted


def test_cost_rule_writes_after_cycle_one_then_every_k_costs(tmp_path):
    """5 ms cycles, 1 ms writes: cycle 1, then every COST_RATIO ms."""
    clock = _Clock()
    mgr = CheckpointManager(tmp_path / "s.ckpt", every=None, clock=clock)
    written, snapshotted = _drive(mgr, clock, range(1, 41), cycle_ms=5,
                                  write_ms=lambda cycle: 1)
    gap = COST_RATIO // 5  # cycles until the cycles since took K x 1 ms
    assert written == list(range(1, 41, gap))
    assert mgr.writes == len(written)
    # No SCFCheckpoint is built for a cycle that does not write.
    assert snapshotted == written
    assert SCFCheckpoint.load(mgr.path).cycle == written[-1]


def test_cost_rule_writes_every_cycle_when_cycles_are_slow(tmp_path):
    clock = _Clock()
    mgr = CheckpointManager(tmp_path / "s.ckpt", every=None, clock=clock)
    written, _ = _drive(mgr, clock, range(1, 6), cycle_ms=COST_RATIO,
                        write_ms=lambda cycle: 1)
    assert written == [1, 2, 3, 4, 5]


def test_cost_rule_first_write_is_the_first_cycle_seen(tmp_path):
    """A resumed run writes after its first cycle, whatever its number:
    that write measures the cost (a fresh run's first cycle is 1)."""
    clock = _Clock()
    mgr = CheckpointManager(tmp_path / "s.ckpt", every=None, clock=clock)
    written, _ = _drive(mgr, clock, range(6, 9), cycle_ms=1,
                        write_ms=lambda cycle: 1)
    assert written == [6]


def test_cost_rule_does_not_stretch_for_a_stalled_write(tmp_path):
    """The interval follows the cheapest write measured: a write the
    host stalled (cycle 2's, 100 ms) leaves it at 40 x 1 ms."""
    clock = _Clock()
    mgr = CheckpointManager(tmp_path / "s.ckpt", every=None, clock=clock)
    written, _ = _drive(
        mgr, clock, range(1, 6), cycle_ms=COST_RATIO,
        write_ms=lambda cycle: 100 if cycle == 2 else 1)
    assert written == [1, 2, 3, 4, 5]


def test_explicit_interval_ignores_cost_and_builds_only_due_snapshots(
        tmp_path):
    clock = _Clock()
    mgr = CheckpointManager(tmp_path / "s.ckpt", every=3, clock=clock)
    written, snapshotted = _drive(mgr, clock, range(1, 11), cycle_ms=0,
                                  write_ms=lambda cycle: 1000)
    assert written == snapshotted == [3, 6, 9]


# -- end-to-end bitwise restart ----------------------------------------------


def _interrupt(scf_factory, ck_path, *, stop_after, every):
    """Run with a cycle cap, checkpointing; return the raised error."""
    scf = scf_factory(ConvergenceCriteria(max_iterations=stop_after))
    with pytest.raises(SCFConvergenceError) as err:
        scf.run(checkpoint=CheckpointManager(ck_path, every=every))
    return err.value


def _assert_same_trace(restarted, full):
    """The restored trace (cycles 1-4) plus the replayed tail match the
    uninterrupted trace cycle for cycle, bit for bit."""
    # resumed at cycle 5: same total cycle count as the uninterrupted run
    assert restarted.iterations[-1].iteration == full.iterations[-1].iteration
    assert restarted.niterations == full.niterations
    for a, b in zip(restarted.iterations, full.iterations):
        assert a.iteration == b.iteration
        assert a.energy == b.energy
        assert a.density_rms == b.density_rms


@pytest.mark.parametrize("algorithm,nthreads", [
    ("mpi-only", 1),
    ("private-fock", 2),
    ("shared-fock", 2),
])
def test_rhf_restart_is_bitwise_identical(
    algorithm, nthreads, water_sto3g, tmp_path
):
    def factory(criteria=None):
        return ParallelSCF(
            water_sto3g, algorithm, nranks=2, nthreads=nthreads,
            criteria=criteria,
        )

    full = factory().run()
    assert full.converged

    ck_path = tmp_path / "scf.ckpt"
    err = _interrupt(factory, ck_path, stop_after=4, every=2)
    assert err.result is not None              # partial result survives
    assert not err.result.converged

    restarted = factory().run(restart=ck_path)
    assert restarted.converged
    assert restarted.energy == full.energy     # bitwise
    _assert_same_trace(restarted.scf, full.scf)


def test_uhf_restart_is_bitwise_identical(water_sto3g, tmp_path):
    from repro.core.fock_uhf import UHFPrivateFockBuilder
    from repro.integrals.onee import kinetic_matrix, nuclear_matrix
    from repro.scf.uhf import UHF

    h = kinetic_matrix(water_sto3g) + nuclear_matrix(water_sto3g)

    def factory(criteria=None):
        builder = UHFPrivateFockBuilder(
            water_sto3g, h, nranks=2, nthreads=2
        )
        return UHF(water_sto3g, fock_builder=builder, criteria=criteria)

    full = factory().run()
    assert full.converged

    ck_path = tmp_path / "uhf.ckpt"
    err = _interrupt(factory, ck_path, stop_after=4, every=2)
    assert err.result is not None

    restarted = factory().run(restart=ck_path)
    assert restarted.converged
    assert restarted.energy == full.energy
    _assert_same_trace(restarted, full)
    for a, b in zip(restarted.densities, full.densities):
        assert np.array_equal(a, b)


def test_restart_conflicts_with_initial_density(water_sto3g, tmp_path):
    scf = ParallelSCF(water_sto3g, "mpi-only", nranks=1)
    ck = _rhf_checkpoint()
    with pytest.raises(ValueError, match="not both"):
        scf.run(restart=ck, initial_density=np.eye(water_sto3g.nbf))


@pytest.mark.parametrize("method, other", [("rhf", "uhf"), ("uhf", "rhf")])
def test_restart_refuses_the_other_methods_checkpoint(
    method, other, water_sto3g, tmp_path
):
    """The shared loop still reads only its own front-end's files."""
    path = tmp_path / f"{other}.ckpt"
    ParallelSCF(water_sto3g, "private-fock", method=other, nranks=1).run(
        checkpoint=CheckpointManager(path, every=1)
    )
    assert SCFCheckpoint.load(path).kind == other
    scf = ParallelSCF(water_sto3g, "private-fock", method=method, nranks=1)
    with pytest.raises(CheckpointError, match=f"{other.upper()} run"):
        scf.run(restart=path)


def test_restart_rejects_mismatched_checkpoint(water_sto3g, tmp_path):
    ck = _rhf_checkpoint(nbf=3)                # water/sto-3g has 7 BFs
    path = ck.save(tmp_path / "wrong.ckpt")
    scf = ParallelSCF(water_sto3g, "mpi-only", nranks=1)
    with pytest.raises(CheckpointError, match="basis"):
        scf.run(restart=path)


def test_run_accepts_checkpoint_path_directly(water_sto3g, tmp_path):
    path = tmp_path / "auto.ckpt"
    res = ParallelSCF(water_sto3g, "mpi-only", nranks=1).run(checkpoint=path)
    assert res.converged
    ck = SCFCheckpoint.load(path)
    assert ck.kind == "rhf"
    assert ck.cycle % 5 == 0                   # default interval
