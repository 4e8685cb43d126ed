"""CLI observability: registered runs, run registry commands, monitor."""

import json
import sys
import threading
import time

import pytest

from repro.chem.molecule import water
from repro.cli import main


@pytest.fixture()
def water_xyz(tmp_path):
    p = tmp_path / "water.xyz"
    p.write_text(water().to_xyz())
    return p


def _runs(runs_dir):
    return sorted(d for d in runs_dir.iterdir() if d.is_dir())


def _scf(water_xyz, runs_dir, *extra):
    return main([
        "scf", str(water_xyz), "--ranks", "2",
        "--runs-dir", str(runs_dir), *extra,
    ])


# -- registration -------------------------------------------------------------


@pytest.mark.parametrize("method_flags", [
    pytest.param((), id="rhf"),
    pytest.param(("--uhf", "--multiplicity", "3"), id="uhf"),
])
def test_scf_registers_run_with_artifacts(
    method_flags, water_xyz, tmp_path, capsys
):
    runs_dir = tmp_path / "runs"
    rc = _scf(water_xyz, runs_dir, *method_flags)
    out = capsys.readouterr().out
    assert rc == 0
    assert "run id       :" in out

    (run_dir,) = _runs(runs_dir)
    rec = json.loads((run_dir / "run.json").read_text())
    assert rec["kind"] == "scf"
    assert rec["status"] == "done"
    assert rec["config"]["molecule"] == "water"
    assert rec["summary"]["converged"] is True
    if not method_flags:
        assert rec["summary"]["energy"] == pytest.approx(
            -74.94207995, abs=1e-6)
    # One front-end is as visible as the other: a cycle is an event.
    cycles = rec["summary"]["iterations"]
    assert rec["event_counts"]["scf.cycle"] == cycles
    assert rec["event_counts"]["scf.converged"] == 1
    metrics = json.loads((run_dir / "metrics.json").read_text())
    assert any(k.startswith("summary.") for k in metrics)
    assert (run_dir / "metrics.prom").read_text().strip()
    # One event file: it holds the run bracket and the SCF cycles (one
    # sample each: the monitor's sparkline is drawn from them).
    assert not (run_dir / "telemetry.ndjson").exists()
    kinds = [
        json.loads(line)["event"]
        for line in (run_dir / "events.ndjson").read_text().splitlines()
        if line.strip()
    ]
    assert {"run.start", "scf.cycle", "run.end"} <= set(kinds)
    assert kinds.count("scf.cycle") == cycles
    assert kinds.count("scf.converged") == 1


def test_no_registry_leaves_nothing_behind(water_xyz, tmp_path, capsys):
    runs_dir = tmp_path / "runs"
    rc = _scf(water_xyz, runs_dir, "--no-registry")
    assert rc == 0
    assert "run id" not in capsys.readouterr().out
    assert not runs_dir.exists()


def test_quiet_keeps_stdout_machine_parseable(water_xyz, tmp_path, capsys):
    rc = _scf(water_xyz, tmp_path / "runs", "--quiet")
    out = capsys.readouterr().out
    assert rc == 0
    assert "RHF energy" in out  # the primary result stays
    assert "run id" not in out
    assert "basis functions" not in out
    assert "Fock build" not in out


def test_log_level_accepted_before_and_after_command(water_xyz, tmp_path):
    runs_dir = tmp_path / "runs"
    assert main(["--log-level", "debug", "scf", str(water_xyz),
                 "--runs-dir", str(runs_dir)]) == 0
    assert _scf(water_xyz, runs_dir, "--log-level", "error") == 0


# -- runs subcommands ---------------------------------------------------------


def test_runs_list_show_and_diff(water_xyz, tmp_path, capsys):
    runs_dir = tmp_path / "runs"
    assert _scf(water_xyz, runs_dir, "--quiet") == 0
    assert _scf(water_xyz, runs_dir, "--quiet") == 0
    capsys.readouterr()

    assert main(["runs", "--runs-dir", str(runs_dir), "list"]) == 0
    table = capsys.readouterr().out
    assert "shared-fock" in table
    assert "-74.942080" in table
    ids = [d.name for d in _runs(runs_dir)]
    assert all(i in table for i in ids)

    assert main(["runs", "--runs-dir", str(runs_dir), "show"]) == 0
    shown = capsys.readouterr().out
    assert f"run {ids[-1]}" in shown and '"status": "done"' in shown

    # Identical physics: the two runs' final metrics must compare equal
    # (timings ignored).
    rc = main([
        "compare", *(str(runs_dir / i / "metrics.json") for i in ids),
        "--ignore", "*wall*", "--ignore", "*_s", "--ignore", "*rate*",
        "--tolerance", "0.2",
    ])
    report = capsys.readouterr().out
    assert rc == 0
    assert "verdict: PASS" in report


def test_runs_show_unknown_prefix_errors(tmp_path, capsys):
    rc = main(["runs", "--runs-dir", str(tmp_path / "runs"), "show", "zzz"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


# -- monitor ------------------------------------------------------------------


def test_monitor_replays_recorded_run(water_xyz, tmp_path, capsys):
    runs_dir = tmp_path / "runs"
    assert _scf(water_xyz, runs_dir, "--quiet") == 0
    capsys.readouterr()
    rc = main(["monitor", "latest", "--runs-dir", str(runs_dir)])
    frame = capsys.readouterr().out
    assert rc == 0
    assert "repro monitor" in frame
    assert "log10|dE|" in frame
    assert "converged" in frame

    # The recorded events.ndjson path works directly as the source too.
    (run_dir,) = _runs(runs_dir)
    rc = main(["monitor", str(run_dir / "events.ndjson")])
    assert rc == 0
    assert "repro monitor" in capsys.readouterr().out


def test_monitor_without_telemetry_errors(water_xyz, tmp_path, capsys):
    """A run whose events file is missing is one ``error:`` line."""
    runs_dir = tmp_path / "runs"
    assert _scf(water_xyz, runs_dir, "--quiet") == 0
    (run_dir,) = _runs(runs_dir)
    (run_dir / "events.ndjson").unlink()
    capsys.readouterr()
    rc = main(["monitor", "latest", "--runs-dir", str(runs_dir)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "has no events.ndjson" in err[0]


class _Frames:
    """A stdout that keeps what a thread prints, whole writes at a time."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass

    def frames(self):
        return [f for f in "".join(self.writes).split("repro monitor — ")
                if f]


def test_monitor_follows_a_live_run_until_it_ends(tmp_path, monkeypatch):
    """``repro monitor`` follows a live run's events.ndjson as it grows
    and exits once the run is finalized, having drawn every cycle."""
    from repro.obs.session import ObsSession

    runs_dir = tmp_path / "runs"
    obs = ObsSession("scf", {"molecule": "water"}, runs_dir=runs_dir)

    def cycle(n):
        obs.log.emit("scf.cycle", cycle=n, energy=-74.9 - 0.01 / n,
                     delta_e=10.0 ** -n)

    cycle(1)
    cycle(2)
    out = _Frames()
    monkeypatch.setattr(sys, "stdout", out)
    rc = []
    monitor = threading.Thread(target=lambda: rc.append(main([
        "monitor", obs.handle.run_id, "--runs-dir", str(runs_dir),
        "--plain", "--interval", "0.05",
    ])))
    try:
        monitor.start()
        deadline = time.monotonic() + 5
        while not out.frames() and time.monotonic() < deadline:
            time.sleep(0.01)
        assert out.frames(), "the monitor drew no first frame"
        for n in (3, 4, 5):
            cycle(n)
            time.sleep(0.06)
    finally:
        obs.finalize(status="done")
        obs.close()
    monitor.join(timeout=5)
    assert not monitor.is_alive(), "monitor kept following a finished run"
    assert rc == [0]
    frames = out.frames()
    assert len(frames) >= 2
    assert frames[-1].startswith("5 records")
    assert "cycle   5" in frames[-1]


def test_monitor_empty_registry_errors(tmp_path, capsys):
    rc = main(["monitor", "latest", "--runs-dir", str(tmp_path / "none")])
    assert rc == 2
    assert "no runs registered" in capsys.readouterr().err


# -- runs prune ---------------------------------------------------------------


def test_runs_prune_cli(water_xyz, tmp_path, capsys):
    runs_dir = tmp_path / "runs"
    for _ in range(3):
        assert _scf(water_xyz, runs_dir, "--quiet") == 0
    capsys.readouterr()

    rc = main(["runs", "--runs-dir", str(runs_dir), "prune",
               "--keep-last", "1", "--dry-run"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "would remove 2 run(s)" in out
    assert len(_runs(runs_dir)) == 3  # dry run deleted nothing

    rc = main(["runs", "--runs-dir", str(runs_dir), "prune",
               "--keep-last", "1"])
    assert rc == 0
    assert "removed 2 run(s)" in capsys.readouterr().out
    assert len(_runs(runs_dir)) == 1


def test_runs_prune_requires_a_policy(tmp_path, capsys):
    rc = main(["runs", "--runs-dir", str(tmp_path / "runs"), "prune"])
    assert rc == 2
    assert "--keep-last" in capsys.readouterr().err


# -- slo ----------------------------------------------------------------------


def test_slo_from_recorded_telemetry(tmp_path, capsys):
    ndjson = tmp_path / "telemetry.ndjson"
    # An earlier build's sink format: payload keys flattened to the top
    # level, the kind spelled "kind".
    records = [
        {"kind": "job.done", "t_s": 1.0, "source": "service",
         "job": "j000000", "job_class": "shared-fock/sim",
         "queue_wait_s": 0.1, "run_s": 0.4, "total_s": 0.5},
        {"kind": "job.failed", "t_s": 2.0, "source": "service",
         "job": "j000001", "job_class": "shared-fock/sim",
         "queue_wait_s": 0.2, "run_s": 9.0, "total_s": 9.2},
    ]
    ndjson.write_text("\n".join(json.dumps(r) for r in records) + "\n")

    rc = main(["slo", str(ndjson)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "shared-fock/sim" in out
    assert "p95" in out and "burn=" in out

    rc = main(["slo", str(ndjson), "--json",
               "--slo", "error_rate<0.25"])
    rep = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert rep["targets"] == ["error_rate<0.25"]
    cls = rep["classes"]["shared-fock/sim"]
    assert cls["done"] == 1 and cls["failed"] == 1
    assert cls["targets"][0]["breached"]  # 50% failures vs 25% budget


def test_slo_bad_target_errors(tmp_path, capsys):
    ndjson = tmp_path / "telemetry.ndjson"
    ndjson.write_text("")
    rc = main(["slo", str(ndjson), "--slo", "nonsense<1"])
    assert rc == 2
    assert "invalid --slo target" in capsys.readouterr().err


def test_slo_latest_without_telemetry_errors(tmp_path, capsys):
    rc = main(["slo", "latest", "--runs-dir", str(tmp_path / "runs")])
    assert rc == 2
    assert "telemetry" in capsys.readouterr().err


def test_slo_latest_reads_the_newest_serve_run(tmp_path, capsys):
    """Every registered run has an event file; ``slo latest`` skips the
    newer scf run's and reads the serve run's."""
    from repro.obs.registry import RunRegistry

    registry = RunRegistry(tmp_path / "runs")
    serve = registry.register("serve")
    serve.path("events.ndjson").write_text(json.dumps(
        {"event": "job.done", "t_s": 1.0, "rank": None, "job": "j000000",
         "job_class": "shared-fock/sim", "queue_wait_s": 0.1,
         "run_s": 0.4, "total_s": 0.5}) + "\n")
    scf = registry.register("scf")
    scf.path("events.ndjson").write_text("")
    for run in (serve, scf):
        run.finalize(status="done")
    assert main(["monitor", "latest", "--runs-dir",
                 str(tmp_path / "runs")]) == 0
    assert "0 records" in capsys.readouterr().out
    assert main(["slo", "latest", "--runs-dir", str(tmp_path / "runs"),
                 "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["classes"]["shared-fock/sim"]["done"] == 1


# -- explain ------------------------------------------------------------------


def test_trace_without_journal_errors(tmp_path, capsys):
    rc = main(["explain", "j000000", "--service-dir", str(tmp_path / "svc"),
               "--runs-dir", str(tmp_path / "runs")])
    assert rc == 2
    assert "no service journal" in capsys.readouterr().err


def test_trace_unknown_job_errors(tmp_path, capsys):
    svc = tmp_path / "svc"
    svc.mkdir()
    (svc / "journal.ndjson").write_text("")
    rc = main(["explain", "j999999", "--service-dir", str(svc),
               "--runs-dir", str(tmp_path / "runs")])
    assert rc == 2
    assert "no job matches" in capsys.readouterr().err


def _explain_error(capsys, *argv) -> str:
    rc = main(["explain", *map(str, argv)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    return err[0]


def test_explain_directory_without_spans_is_one_error_line(tmp_path, capsys):
    assert "spans.ndjson" in _explain_error(capsys, tmp_path)


def test_explain_file_without_span_records_is_one_error_line(
        tmp_path, capsys):
    metrics = tmp_path / "metrics.json"
    metrics.write_text('{"scf.cycles": 9}\n{"fock_build": 1}\n')
    assert "no span record" in _explain_error(capsys, metrics)


def test_explain_unknown_source_is_one_error_line(tmp_path, capsys):
    err = _explain_error(capsys, "nothing-here", "--runs-dir",
                         tmp_path / "runs", "--service-dir", tmp_path)
    assert "'nothing-here' is not a path, a run" in err


def test_explain_run_without_spans_is_one_error_line(
        water_xyz, tmp_path, capsys):
    runs_dir = tmp_path / "runs"
    assert _scf(water_xyz, runs_dir, "--quiet") == 0
    capsys.readouterr()
    err = _explain_error(capsys, "latest", "--runs-dir", runs_dir)
    assert "recorded no spans.ndjson" in err


def test_explain_skips_a_torn_last_line(tmp_path, capsys):
    spans = [json.dumps({"span": "fock/kl", "start_s": 0.1 * i,
                         "dur_s": 0.05, "rank": i % 2, "depth": 0})
             for i in range(4)]
    (tmp_path / "spans.ndjson").write_text("\n".join(spans)[:-9])
    assert main(["explain", str(tmp_path)]) == 0
    assert "3 spans over" in capsys.readouterr().out


# -- process-backend liveness (the straggler smoke) ---------------------------


@pytest.mark.process
def test_straggler_fault_emits_worker_hung(water_xyz, tmp_path, capsys):
    """An injected straggler trips the heartbeat deadline mid-run.

    Mirrors the CI monitor-smoke job: a rank-1 delay fault with a tight
    heartbeat deadline must produce ``worker.hung`` (and the matching
    recovery) in the run's incremental event stream while the SCF still
    converges to the right answer.
    """
    runs_dir = tmp_path / "runs"
    rc = main([
        "scf", str(water_xyz), "--backend", "process", "--workers", "2",
        "--runs-dir", str(runs_dir),
        "--fault-plan", "delay:rank=1:cycle=2:factor=100",
        "--heartbeat-interval", "0.005", "--heartbeat-timeout", "0.02",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "-74.94207995" in out

    (run_dir,) = _runs(runs_dir)
    events = [
        json.loads(line)
        for line in (run_dir / "events.ndjson").read_text().splitlines()
        if line.strip()
    ]
    hung = [e for e in events if e["event"] == "worker.hung"]
    assert hung, "straggler never tripped the heartbeat deadline"
    assert all(e["timeout_s"] == pytest.approx(0.02) for e in hung)
    assert any(e["event"] == "worker.recovered" for e in events)
    # Each event is written once: there is no second telemetry file.
    assert not (run_dir / "telemetry.ndjson").exists()
    rec = json.loads((run_dir / "run.json").read_text())
    assert rec["status"] == "done"
    assert rec["event_counts"].get("worker.hung", 0) >= 1
