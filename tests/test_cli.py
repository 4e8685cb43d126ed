"""Command-line interface."""

import pytest

from repro.chem.molecule import water
from repro.cli import build_parser, main


@pytest.fixture()
def water_xyz(tmp_path):
    p = tmp_path / "water.xyz"
    p.write_text(water().to_xyz())
    return p


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_scf_command(water_xyz, capsys):
    rc = main(["scf", str(water_xyz), "--ranks", "2", "--threads", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "-74.94207995" in out
    assert "shared-fock" in out


def test_scf_runs_without_importing_scipy(water_xyz):
    """scipy is a test-only dependency: a whole ``repro scf`` process
    (parser, basis, integrals, Schwarz, Fock builds, diagonalizations)
    never imports it."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    code = (
        "import sys\n"
        "from repro.cli import main\n"
        f"rc = main(['scf', {str(water_xyz)!r}, '--ranks', '2', '--threads', '2'])\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not loaded, loaded[:5]\n"
        "sys.exit(rc)\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), REPRO_RUNS_DIR=str(water_xyz.parent))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=water_xyz.parent,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "-74.94207995" in done.stdout


def _python(code: str, cwd, **env) -> str:
    """Run ``code`` in a fresh interpreter whose environment sets none of
    the BLAS / OpenMP thread variables except those in ``env``."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    from repro.cli import THREAD_ENV_VARS

    base = {k: v for k, v in os.environ.items() if k not in THREAD_ENV_VARS}
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, capture_output=True,
        text=True, timeout=120,
        env={**base, "PYTHONPATH": str(src), "REPRO_RUNS_DIR": str(cwd),
             **env},
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_importing_repro_sets_no_thread_budget_and_loads_no_numpy(tmp_path):
    out = _python(
        "import os, sys\n"
        "import repro, repro.cli\n"
        "repro.cli.build_parser()\n"
        "print('numpy' in sys.modules,\n"
        "      [v for v in repro.cli.THREAD_ENV_VARS if v in os.environ])\n",
        tmp_path,
    )
    assert out.split("\n")[0] == "False []"


#: Records the BLAS setting at the moment NumPy is first imported, then
#: runs one ``repro scf`` and reports what the process and its children
#: (forked, as fleet workers and process-backend ranks are, and exec'd)
#: see afterwards.
_THREAD_PROBE = """\
import json, multiprocessing, os, subprocess, sys
seen = []

class Spy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))
        return None

sys.meta_path.insert(0, Spy())
from repro.cli import THREAD_ENV_VARS, main
assert main(["scf", "water.xyz"]) == 0
env = lambda: [os.environ.get(v) for v in THREAD_ENV_VARS]
forked = multiprocessing.get_context("fork").Queue()
child = multiprocessing.get_context("fork").Process(
    target=lambda: forked.put(env()))
child.start(); child.join()
execd = subprocess.run(
    [sys.executable, "-c",
     "import os; print(*[os.environ.get(v) for v in %r])" % (THREAD_ENV_VARS,)],
    capture_output=True, text=True).stdout.split()
print(json.dumps([seen, env(), forked.get(), execd]))
"""


@pytest.mark.parametrize("given, want", [
    ({}, ["1", "1", "1"]),
    ({"OPENBLAS_NUM_THREADS": "3"}, ["3", "1", "1"]),
])
def test_the_console_entry_point_owns_the_thread_budget(
    water_xyz, given, want
):
    """``main`` pins the BLAS / OpenMP pools to one thread before NumPy is
    imported; an explicit environment wins; children inherit it."""
    import json

    out = _python(_THREAD_PROBE, water_xyz.parent, **given)
    at_numpy_import, after, forked, execd = json.loads(
        out.strip().splitlines()[-1])
    assert at_numpy_import == [want[0]]
    assert after == forked == execd == want


def test_scf_command_algorithm_choice(water_xyz, capsys):
    rc = main(
        ["scf", str(water_xyz), "--algorithm", "mpi-only", "--ranks", "3"]
    )
    assert rc == 0
    assert "mpi-only" in capsys.readouterr().out


def test_scf_uhf(tmp_path, capsys):
    xyz = tmp_path / "h.xyz"
    xyz.write_text("1\nhydrogen atom\nH 0.0 0.0 0.0\n")
    rc = main(["scf", str(xyz), "--uhf", "--multiplicity", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "-0.46658" in out
    assert "<S^2>" in out


def test_dataset_command(capsys):
    rc = main(["dataset", "0.5nm"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "44 atoms" in out and "660 basis functions" in out


def test_simulate_command(capsys):
    rc = main(
        ["simulate", "--dataset", "0.5nm", "--algorithm", "shared-fock",
         "--nodes", "1", "--system", "jlse"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "Fock-build time" in out


def test_simulate_schedule_flag(capsys):
    rc = main(
        ["simulate", "--dataset", "0.5nm", "--algorithm", "shared-fock",
         "--nodes", "1", "--system", "jlse", "--schedule", "static"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "Fock-build time" in out


@pytest.mark.parametrize("schedule", ("static",))
def test_scf_schedule_flag(water_xyz, capsys, schedule):
    """Every distribution strategy converges to the same water energy."""
    rc = main(["scf", str(water_xyz), "--schedule", schedule,
               "--ranks", "2", "--threads", "2"])
    assert rc == 0
    assert "-74.94207995" in capsys.readouterr().out


@pytest.mark.parametrize("argv", (
    ["--schedule", "guided"], ["--schedule", "steal"], ["--steal-seed", "3"],
))
def test_scf_removed_schedule_knobs_are_usage_errors(water_xyz, capsys, argv):
    """The strategies removed in PR 15 fail in argparse (exit 2), typed."""
    with pytest.raises(SystemExit) as exc:
        main(["scf", str(water_xyz), *argv])
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


def test_scf_incremental_flag(water_xyz, capsys):
    rc = main(["scf", str(water_xyz), "--incremental",
               "--rebuild-every", "4", "--ranks", "2", "--threads", "2"])
    assert rc == 0
    assert "-74.94207995" in capsys.readouterr().out


def test_simulate_infeasible(capsys):
    rc = main(
        ["simulate", "--dataset", "2.0nm", "--algorithm", "mpi-only",
         "--nodes", "1", "--system", "jlse", "--memory-mode", "flat-mcdram"]
    )
    assert rc == 1
    assert "INFEASIBLE" in capsys.readouterr().out


@pytest.mark.parametrize("target", ["table2", "table4"])
def test_reproduce_tables(target, capsys):
    rc = main(["reproduce", target])
    assert rc == 0
    assert "0.5nm" in capsys.readouterr().out


def test_reproduce_fig3(capsys):
    rc = main(["reproduce", "fig3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "balanced" in out and "compact" in out


def test_reproduce_fig6_plot(capsys):
    rc = main(["reproduce", "fig6"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "mpi-only" in out and "nodes" in out


def test_bad_dataset_rejected():
    with pytest.raises(SystemExit):
        main(["dataset", "42nm"])


# -- resilience flags ---------------------------------------------------------


def test_scf_with_fault_plan_recovers_bitwise(water_xyz, capsys):
    rc = main(["scf", str(water_xyz), "--ranks", "4", "--threads", "2",
               "--fault-plan", "kill:rank=1:cycle=2:after=0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "-74.94207995" in out               # same digits as fault-free


def test_scf_checkpoint_then_restart(water_xyz, tmp_path, capsys):
    ck = tmp_path / "scf.npz"
    rc = main(["scf", str(water_xyz), "--ranks", "2",
               "--checkpoint", str(ck), "--checkpoint-every", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert ck.exists()
    assert "checkpoints" in out
    rc = main(["scf", str(water_xyz), "--ranks", "2", "--restart", str(ck)])
    assert rc == 0
    assert "-74.94207995" in capsys.readouterr().out


def test_scf_recovery_flag_is_neutral(water_xyz, capsys):
    rc = main(["scf", str(water_xyz), "--scf-recovery"])
    assert rc == 0
    assert "-74.94207995" in capsys.readouterr().out


def test_fault_plan_out_of_range_rank_rejected(water_xyz, capsys):
    rc = main(["scf", str(water_xyz), "--ranks", "2",
               "--fault-plan", "kill:rank=7:cycle=1"])
    assert rc == 2
    assert "rank 7" in capsys.readouterr().err


def test_fault_plan_malformed_spec_rejected(water_xyz, capsys):
    rc = main(["scf", str(water_xyz), "--fault-plan", "meteor:rank=0"])
    assert rc == 2
    assert "fault" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--eri-cache-mb", "0"],
    ["--eri-cache-mb", "-4"],
    ["--eri-cache-mb", "lots"],
    ["--ranks", "0"],
    ["--threads", "-1"],
    ["--checkpoint-every", "0"],
])
def test_invalid_numeric_flags_rejected(water_xyz, argv):
    with pytest.raises(SystemExit):
        main(["scf", str(water_xyz), *argv])


# -- profile / timeline / compare ---------------------------------------------


def test_profile_writes_all_artifacts(tmp_path, capsys):
    out_dir = tmp_path / "prof"
    rc = main(["profile", "--algorithm", "shared-fock",
               "--ranks", "2", "--threads", "2",
               "--output-dir", str(out_dir)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "-74.9420799" in out
    for name in ("trace.json", "profile.txt", "metrics.ndjson",
                 "spans.ndjson", "events.ndjson"):
        assert (out_dir / name).exists(), name
    # Without --timeline, no timeline report is produced.
    assert not (out_dir / "timeline.txt").exists()
    # The event log captured SCF progress with relative timestamps.
    import json

    events = [json.loads(ln)
              for ln in (out_dir / "events.ndjson").read_text().splitlines()]
    kinds = {e["event"] for e in events}
    assert {"dlb.reset", "scf.cycle", "scf.converged"} <= kinds


@pytest.mark.parametrize("algorithm", ["mpi-only", "private-fock",
                                       "shared-fock"])
def test_profile_timeline_all_algorithms(algorithm, tmp_path, capsys):
    out_dir = tmp_path / "prof"
    # mpi-only takes profile's own default (1 thread); an explicit
    # --threads 2 with it is a config error like on every other verb.
    threads = [] if algorithm == "mpi-only" else ["--threads", "2"]
    rc = main(["profile", "--algorithm", algorithm, "--ranks", "2", *threads,
               "--output-dir", str(out_dir), "--timeline"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "per-rank breakdown" in out
    assert "DLB efficiency" in out
    assert "DLB Gantt" in out
    assert (out_dir / "timeline.txt").exists()
    import json

    doc = json.loads((out_dir / "timeline.json").read_text())
    assert [r["rank"] for r in doc["ranks"]] == [0, 1]
    assert doc["rank_imbalance"] >= 1.0
    for r in doc["ranks"]:
        assert r["busy_s"] > 0


def test_profile_timeline_faulted_run_shows_recovery(tmp_path, capsys):
    out_dir = tmp_path / "prof"
    rc = main(["profile", "--algorithm", "shared-fock",
               "--ranks", "4", "--threads", "2",
               "--fault-plan",
               "kill:rank=1:cycle=2:after=1;corrupt:rank=0:cycle=3:payload=inf",
               "--scf-recovery",
               "--output-dir", str(out_dir), "--timeline"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "-74.9420799" in out                  # bitwise-identical recovery
    assert "resilience events" in out
    assert "fault.kill" in out and "fault.corrupt" in out
    # The kill marker lands on the failed rank's Gantt row.
    gantt_rows = [ln for ln in out.splitlines() if ln.startswith("rank ")]
    rank1 = next(ln for ln in gantt_rows if ln.startswith("rank   1"))
    assert "K" in rank1


def test_timeline_command_merges_runs(tmp_path, capsys):
    for alg, threads in (("mpi-only", "1"), ("shared-fock", "2")):
        rc = main(["profile", "--algorithm", alg, "--ranks", "2",
                   "--threads", threads, "--output-dir", str(tmp_path / alg)])
        assert rc == 0
    capsys.readouterr()  # drop profile output
    merged = tmp_path / "merged.json"
    report = tmp_path / "timeline.txt"
    rc = main(["timeline",
               str(tmp_path / "mpi-only" / "spans.ndjson"),
               str(tmp_path / "shared-fock" / "spans.ndjson"),
               "--events", str(tmp_path / "mpi-only" / "events.ndjson"),
               "--events", str(tmp_path / "shared-fock" / "events.ndjson"),
               "--labels", "mpi,shared",
               "--merged-trace", str(merged), "--report", str(report)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "timeline (mpi)" in out and "timeline (shared)" in out
    import json

    doc = json.loads(merged.read_text())
    pids = {e["pid"] for e in doc["traceEvents"] if e["ph"] == "X"}
    assert {0, 1} <= pids and {1000, 1001} <= pids
    names = {e["args"]["name"] for e in doc["traceEvents"] if e["ph"] == "M"}
    assert "mpi rank 0" in names and "shared rank 1" in names
    assert "per-rank breakdown" in report.read_text()


def test_timeline_command_count_mismatch(tmp_path, capsys):
    spans = tmp_path / "spans.ndjson"
    spans.write_text("")
    rc = main(["timeline", str(spans), "--events", str(spans),
               "--events", str(spans)])
    assert rc == 2
    assert "counts must match" in capsys.readouterr().err


# -- execution backends -------------------------------------------------------


@pytest.mark.parametrize("argv", [
    ["--workers", "0"],
    ["--workers", "-2"],
    ["--workers", "many"],
    ["--backend", "threads"],
])
def test_backend_flag_validation(water_xyz, argv):
    """Bad backend geometry is an argparse error (exit code 2)."""
    with pytest.raises(SystemExit) as exc:
        main(["scf", str(water_xyz), *argv])
    assert exc.value.code == 2


def test_sim_backend_ignores_workers_with_warning(water_xyz, capsys):
    rc = main(["scf", str(water_xyz), "--backend", "sim", "--workers", "8",
               "--ranks", "2"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "--workers is ignored by the sim backend" in captured.err
    # The warning is advisory: the run proceeds on the sim backend.
    assert "-74.94207995" in captured.out


@pytest.mark.process
def test_uhf_runs_on_process_backend(tmp_path, capsys):
    """Scheduling is decoupled from the Fock builders, so the old
    --uhf/--backend process rejection is gone: the run completes and
    matches the sim-backend UHF energy."""
    xyz = tmp_path / "h.xyz"
    xyz.write_text("1\nhydrogen atom\nH 0.0 0.0 0.0\n")
    rc = main(["scf", str(xyz), "--uhf", "--multiplicity", "2",
               "--backend", "process", "--workers", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "-0.46658" in out
    assert "<S^2>" in out


def test_uhf_rejects_incremental(tmp_path, capsys):
    xyz = tmp_path / "h.xyz"
    xyz.write_text("1\nhydrogen atom\nH 0.0 0.0 0.0\n")
    rc = main(["scf", str(xyz), "--uhf", "--multiplicity", "2",
               "--incremental"])
    assert rc == 2
    assert "not supported with --uhf" in capsys.readouterr().err


@pytest.mark.process
def test_scf_process_backend_runs(water_xyz, capsys):
    rc = main(["scf", str(water_xyz), "--backend", "process",
               "--workers", "2", "--threads", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "backend      : process (2 worker process(es))" in out
    assert "-74.94207995" in out


@pytest.mark.process
def test_scf_process_backend_schedule_seed(water_xyz, capsys):
    rc = main(["scf", str(water_xyz), "--backend", "process",
               "--workers", "2", "--schedule-seed", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "-74.94207995" in out


def test_process_backend_rejects_bad_worker_geometry():
    """The typed error for a geometry the backend itself cannot serve."""
    from repro.parallel.backend.process import (
        ProcessBackend,
        WorkerGeometryError,
    )
    from repro.chem.basis import BasisSet
    from repro.core.scf_driver import make_fock_builder
    from repro.integrals.onee import core_hamiltonian

    basis = BasisSet(water(), "sto-3g")
    builder = make_fock_builder(
        "shared-fock", basis, core_hamiltonian(basis), nranks=3, nthreads=1
    )
    with ProcessBackend(workers=2) as be:
        with pytest.raises(WorkerGeometryError):
            be.wrap_builder(builder)


@pytest.mark.process
def test_profile_process_backend_merged_trace(tmp_path, capsys):
    out_dir = tmp_path / "prof"
    rc = main(["profile", "--algorithm", "shared-fock",
               "--backend", "process", "--workers", "2", "--threads", "2",
               "--output-dir", str(out_dir)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "[process backend]" in out
    merged = out_dir / "merged_trace.json"
    assert merged.exists()
    import json

    events = json.loads(merged.read_text())["traceEvents"]
    names = {e.get("pid") for e in events if "pid" in e} | {
        e["args"]["name"] for e in events
        if e.get("ph") == "M" and e.get("name") == "process_name"
    }
    # Driver track plus one track per worker in one merged trace.
    assert any("driver" in str(n) for n in names)
    assert any("workers" in str(n) for n in names)
