"""SCF service end-to-end: daemon, fleet, retry, degradation, CLI flags.

Each test runs a real :class:`ServiceDaemon` in-process (dispatch loop
on a thread, worker fleet as forked processes) against a throwaway
service directory, and talks to it through the same
:class:`JobClient`/unix-socket path production uses.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.obs.telemetry import records_from_ndjson
from repro.service import (
    JobClient,
    JobSpec,
    ServiceConfig,
    ServiceDaemon,
    ServiceOverloaded,
    probe_socket,
)
from repro.service.errors import JobSpecError
from repro.service.supervisor import run_job

pytestmark = pytest.mark.process  # forks fleet workers

H2_XYZ = "2\nh2\nH 0.0 0.0 0.0\nH 0.0 0.0 0.74\n"
WATER_XYZ = (
    "3\nwater\n"
    "O 0.0 0.0 0.117\n"
    "H 0.0 0.757 -0.471\n"
    "H 0.0 -0.757 -0.471\n"
)


@pytest.fixture
def service(tmp_path):
    """A started daemon + client; config overridable per test."""
    started: list[tuple[ServiceDaemon, threading.Thread]] = []

    def start(**overrides) -> JobClient:
        overrides.setdefault("service_dir", str(tmp_path / "svc"))
        overrides.setdefault("runs_dir", str(tmp_path / "runs"))
        overrides.setdefault("fleet", 1)
        overrides.setdefault("job_timeout_s", 60.0)
        overrides.setdefault("backoff_base_s", 0.05)
        overrides.setdefault("backoff_cap_s", 0.2)
        daemon = ServiceDaemon(ServiceConfig(**overrides)).start()
        thread = threading.Thread(target=daemon.run_forever, daemon=True)
        thread.start()
        started.append((daemon, thread))
        return JobClient(overrides["service_dir"])

    yield start
    # LIFO: each close() restores the globals its start() displaced.
    for daemon, thread in reversed(started):
        daemon.request_stop()
        thread.join(timeout=10)
        daemon.close()


def _telemetry_kinds(tmp_path) -> set[str]:
    """Record kinds the serving daemon's telemetry sink has seen."""
    sinks = list((tmp_path / "runs").glob("*/telemetry.ndjson"))
    assert len(sinks) == 1
    return {r.kind for r in records_from_ndjson(sinks[0].read_text())}


class TestRoundTrip:
    def test_submit_to_done_with_reference_energy(self, service, tmp_path):
        client = service()
        reference = run_job(JobSpec(xyz=H2_XYZ))

        job = client.submit({"xyz": H2_XYZ, "tag": "h2"})
        assert job["state"] == "pending"
        done = client.result(job["id"], timeout_s=60)

        assert done["state"] == "done"
        assert done["attempt"] == 1
        assert done["result"]["converged"]
        # The service answer IS the direct answer, bit for bit.
        assert done["result"]["energy"] == reference["energy"]

        # Every job lands in the run registry with job.* telemetry.
        assert done["run_id"] is not None
        run_json = (tmp_path / "runs" / done["run_id"] / "run.json")
        assert run_json.exists()

    def test_persistent_workers_reuse_warm_setup(self, service):
        client = service()
        first = client.result(
            client.submit({"xyz": H2_XYZ})["id"], timeout_s=60)
        second = client.result(
            client.submit({"xyz": H2_XYZ})["id"], timeout_s=60)
        assert not first["result"]["warm_setup"]
        assert second["result"]["warm_setup"]
        assert second["result"]["energy"] == first["result"]["energy"]

    def test_submit_wakes_the_dispatch_loop(self, service):
        """The loop blocks with no timeout while idle; an accepted
        submit is one of the events that end the wait, so the job is
        running within 1 s — and a stop request is another."""
        client = service()
        time.sleep(0.2)  # let the loop reach its first wait
        job = client.submit({"xyz": H2_XYZ})
        deadline = time.monotonic() + 1.0
        state = job["state"]
        while state == "pending" and time.monotonic() < deadline:
            time.sleep(0.02)
            state = client.status(job["id"])["state"]
        assert state in ("running", "done")
        client.shutdown_daemon()

    def test_ping_reports_fleet_and_depth(self, service):
        client = service(fleet=2)
        info = client.ping()
        assert info["fleet"]["size"] == 2
        assert info["depth"]["open"] == 0

    def test_malformed_spec_is_a_typed_client_error(self, service):
        client = service()
        with pytest.raises(JobSpecError):
            client.submit({"xyz": H2_XYZ, "algorithm": "quantum"})

    def test_replayed_job_with_removed_schedule_fails_alone(
        self, service, tmp_path
    ):
        """A journal written before PR 15 may hold a pending job with
        ``schedule: "guided"``.  Replay adopts it; its dispatch fails it
        terminally with a typed error naming the valid values, and the
        daemon keeps serving the jobs queued behind it.  (A *new*
        submission with a removed name never gets that far: it is
        refused at admission with the same typed error.)"""
        from repro.service.queue import DurableJobQueue

        svc = tmp_path / "svc"
        svc.mkdir()
        journal = svc / "journal.ndjson"
        with DurableJobQueue(journal, fsync=False) as q:
            stale = q.submit(JobSpec(xyz=H2_XYZ, tag="stale"))
            good = q.submit(JobSpec(xyz=H2_XYZ, tag="good"))
        first, rest = journal.read_text().split("\n", 1)
        assert '"schedule": "dlb"' in first
        journal.write_text(
            first.replace('"schedule": "dlb"', '"schedule": "guided"')
            + "\n" + rest
        )

        client = service(max_retries=3)
        failed = client.result(stale.id, timeout_s=60)
        assert failed["state"] == "failed"
        assert failed["attempt"] == 1  # terminal: never retried
        assert failed["error_type"] == "JobSpecError"
        assert "'guided'" in failed["error"]
        assert "('dlb', 'static')" in failed["error"]
        done = client.result(good.id, timeout_s=60)
        assert done["state"] == "done"
        for removed in ("guided", "steal"):
            with pytest.raises(JobSpecError, match=r"\('dlb', 'static'\)"):
                client.submit({"xyz": H2_XYZ, "schedule": removed})
        later = client.result(client.submit({"xyz": H2_XYZ})["id"],
                              timeout_s=60)
        assert later["state"] == "done"

    def test_journal_written_by_the_parent_commit_replays_and_finishes(
        self, service, tmp_path
    ):
        """The submit record below is a literal line from a journal the
        commit before ``SCFConfig`` wrote (no ``method``/``multiplicity``/
        ``rebuild_every``/``scf_recovery`` keys); the energy is what that
        commit computed for it."""
        svc = tmp_path / "svc"
        svc.mkdir()
        (svc / "journal.ndjson").write_text(
            '{"op": "submit", "job": {"id": "j000000", "spec": {"xyz": '
            '"2\\nh2\\nH 0.0 0.0 0.0\\nH 0.0 0.0 0.74\\n", "basis": '
            '"sto-3g", "algorithm": "private-fock", "nranks": 2, '
            '"nthreads": 2, "backend": "sim", "schedule": "dlb", '
            '"charge": 0, "eri_cache_mb": 64.0, "incremental": false, '
            '"max_iterations": 40, "fault_plan": null, "tag": "old", '
            '"sleep_s": 0.0, "cycle_delay_s": 0.0, "die_on_attempt": null, '
            '"die_after_builds": 1}, "state": "pending", "attempt": 0, '
            '"submitted_at": 1790858747.4396262, "not_before": 0.0, '
            '"interrupted": false, "degraded": false, "error": null, '
            '"error_type": null, "result": null, "run_id": null, '
            '"trace_id": "4ba1c3120fb4a9c1d1a70be0790d813a", '
            '"parent_span_id": null, "root_span_id": "f3ec3e6b9ebb3035", '
            '"client_t": null}, "t": 1790858747.4397295, '
            '"pt": 75856.985908125}\n'
        )
        client = service()
        done = client.result("j000000", timeout_s=60)
        assert done["state"] == "done" and done["tag"] == "old"
        # (To round-off: the integrals' summation order is not part of
        # the journal format.)
        assert abs(done["result"]["energy"] - -1.116759307506359) < 1e-12
        assert done["result"]["iterations"] == 2
        assert "s_squared" not in done["result"]

    def test_job_telemetry_reaches_the_sink(self, service, tmp_path):
        client = service()
        client.result(client.submit({"xyz": H2_XYZ})["id"], timeout_s=60)
        assert {"service.start", "job.submitted", "job.dispatched",
                "job.done"} <= _telemetry_kinds(tmp_path)


class TestOverload:
    def test_submissions_beyond_the_bound_are_shed(self, service):
        client = service(max_queue_depth=2, fleet=1)
        # A slow job pins the single worker; the queue fills behind it.
        client.submit({"xyz": WATER_XYZ, "cycle_delay_s": 0.5})
        client.submit({"xyz": H2_XYZ})
        with pytest.raises(ServiceOverloaded) as err:
            client.submit({"xyz": H2_XYZ})
        assert err.value.max_depth == 2
        assert err.value.depth == 2


class TestRetry:
    def test_worker_death_is_retried_to_success(self, service):
        client = service(max_retries=2)
        reference = run_job(JobSpec(xyz=H2_XYZ))
        job = client.submit({"xyz": H2_XYZ, "die_on_attempt": 1})
        done = client.result(job["id"], timeout_s=90)
        assert done["state"] == "done"
        assert done["attempt"] == 2  # one death, one clean re-run
        assert done["result"]["energy"] == reference["energy"]
        assert client.ping()["fleet"]["lost_workers"] >= 1

    def test_retry_budget_exhaustion_fails_the_job(self, service):
        client = service(max_retries=0)
        job = client.submit({"xyz": H2_XYZ, "die_on_attempt": 1})
        done = client.result(job["id"], timeout_s=90)
        assert done["state"] == "failed"
        assert done["attempt"] == 1
        assert done["error_type"] == "WorkerLostError"

    def test_convergence_failure_is_terminal(self, service):
        client = service(max_retries=5)
        job = client.submit({"xyz": WATER_XYZ, "max_iterations": 2})
        done = client.result(job["id"], timeout_s=60)
        assert done["state"] == "failed"
        assert done["attempt"] == 1  # terminal: never retried
        assert done["error_type"] == "SCFConvergenceError"

    def test_job_deadline_kills_and_retries(self, service):
        client = service(job_timeout_s=1.0, max_retries=0,
                         heartbeat_timeout_s=0.5)
        job = client.submit({"xyz": H2_XYZ, "sleep_s": 30.0})
        done = client.result(job["id"], timeout_s=60)
        assert done["state"] == "failed"
        assert done["error_type"] == "JobTimeoutError"
        assert client.ping()["fleet"]["timeouts"] >= 1


class TestUnreadableCheckpoint:
    """A checkpoint that cannot seed the run is no checkpoint: the job
    still runs exactly once, to the uninterrupted twin's answer."""

    def test_worker_killed_inside_the_write_resumes_from_the_previous_file(
        self, service, tmp_path, monkeypatch
    ):
        """The worker dies between writing its third checkpoint beside
        the second and renaming it over it: a torn ``*.tmp`` next to an
        intact file.  The retry resumes from the intact one and sweeps
        the debris."""
        import os

        twin = run_job(JobSpec(xyz=WATER_XYZ))
        killed_once = tmp_path / "killed-once"
        saves = []  # the forked worker counts in its own copy
        real_replace = os.replace

        def replace_or_die(src, dst):
            if str(dst).endswith("scf.ckpt") and not killed_once.exists():
                saves.append(dst)
                if len(saves) == 3:
                    killed_once.touch()
                    os.truncate(src, os.path.getsize(src) // 2)
                    os._exit(17)
            return real_replace(src, dst)

        # Fleet workers are forked from this process, patch and all.
        monkeypatch.setattr(os, "replace", replace_or_die)
        client = service(max_retries=2)
        job = client.submit({"xyz": WATER_XYZ})
        done = client.result(job["id"], timeout_s=60)
        assert killed_once.exists()
        assert done["state"] == "done"
        assert done["attempt"] == 2
        assert done["result"]["resumed"]
        assert done["result"]["energy"] == twin["energy"]
        assert done["result"]["iterations"] == twin["iterations"]
        job_dir = tmp_path / "svc" / "jobs" / done["id"]
        assert [p.name for p in job_dir.iterdir()] == ["scf.ckpt"]
        assert "checkpoint.discarded" not in _telemetry_kinds(tmp_path)

    @pytest.mark.parametrize("content", ["garbage", "version-1 npz"])
    def test_unreadable_file_is_discarded_and_the_job_starts_over(
        self, service, tmp_path, content
    ):
        import numpy as np

        twin = run_job(JobSpec(xyz=WATER_XYZ))
        stale = tmp_path / "svc" / "jobs" / "j000000" / "scf.ckpt"
        stale.parent.mkdir(parents=True)
        if content == "garbage":
            stale.write_bytes(b"REPROCKP" + bytes(range(256)) * 3)
        else:
            with stale.open("wb") as fh:
                np.savez(fh, version=np.array(1), cycle=np.array(4),
                         density_0=np.eye(7))

        client = service(max_retries=0)
        job = client.submit({"xyz": WATER_XYZ})
        assert job["id"] == "j000000"
        done = client.result(job["id"], timeout_s=60)
        assert done["state"] == "done"
        assert done["attempt"] == 1
        assert not done["result"]["resumed"]
        assert done["result"]["energy"] == twin["energy"]
        assert done["result"]["iterations"] == twin["iterations"]
        assert "checkpoint.discarded" in _telemetry_kinds(tmp_path)


class TestCancel:
    def test_cancel_pending_job(self, service):
        client = service(fleet=1)
        client.submit({"xyz": WATER_XYZ, "cycle_delay_s": 0.5})
        queued = client.submit({"xyz": H2_XYZ})
        cancelled = client.cancel(queued["id"])
        assert cancelled["state"] == "cancelled"

    def test_cancel_running_job_kills_the_worker(self, service):
        client = service(fleet=1)
        job = client.submit({"xyz": WATER_XYZ, "cycle_delay_s": 1.0})
        deadline = time.monotonic() + 30
        while client.status(job["id"])["state"] != "running":
            assert time.monotonic() < deadline
            time.sleep(0.05)
        cancelled = client.cancel(job["id"])
        assert cancelled["state"] == "cancelled"
        # The slot respawns and remains usable.
        after = client.result(
            client.submit({"xyz": H2_XYZ})["id"], timeout_s=60)
        assert after["state"] == "done"


class TestDegradation:
    def test_process_jobs_degrade_when_budget_exhausted(
        self, service, tmp_path
    ):
        client = service(process_budget=0)
        job = client.submit({"xyz": H2_XYZ, "backend": "process",
                             "nranks": 2})
        done = client.result(job["id"], timeout_s=60)
        assert done["state"] == "done"
        assert done["degraded"]
        assert done["result"]["backend"] == "sim"
        # The degradation is flagged in the registry and telemetry.
        assert "service.degraded" in _telemetry_kinds(tmp_path)


class TestStaleSocket:
    def test_dead_daemons_socket_is_reclaimed(self, tmp_path):
        import socket as socket_mod

        svc = tmp_path / "svc"
        svc.mkdir()
        # A bound-then-abandoned socket: exists on disk, refuses
        # connects (its owner is gone).
        path = svc / "service.sock"
        sock = socket_mod.socket(socket_mod.AF_UNIX,
                                 socket_mod.SOCK_STREAM)
        sock.bind(str(path))
        sock.close()
        assert path.exists()
        assert not probe_socket(path)

        config = ServiceConfig(service_dir=str(svc),
                               runs_dir=str(tmp_path / "runs"), fleet=1)
        daemon = ServiceDaemon(config).start()
        try:
            assert probe_socket(path)  # reclaimed and re-bound
        finally:
            daemon.close()

    def test_live_daemon_refuses_a_second_bind(self, tmp_path):
        from repro.service import DaemonAlreadyRunning

        config = ServiceConfig(service_dir=str(tmp_path / "svc"),
                               runs_dir=str(tmp_path / "runs"), fleet=1)
        daemon = ServiceDaemon(config).start()
        try:
            with pytest.raises(DaemonAlreadyRunning):
                ServiceDaemon(config).start()
        finally:
            daemon.close()


class TestCLIFlags:
    """--max-queue-depth / --job-timeout / --max-retries / --backoff-base
    reject nonsense at parse time."""

    @pytest.mark.parametrize("argv", [
        ["serve", "--max-queue-depth", "0"],
        ["serve", "--max-queue-depth", "-3"],
        ["serve", "--job-timeout", "0"],
        ["serve", "--job-timeout", "-1"],
        ["serve", "--max-retries", "-1"],
        ["serve", "--backoff-base", "0"],
        ["serve", "--backoff-base", "-0.5"],
        ["serve", "--fleet", "0"],
        ["serve", "--process-budget", "-1"],
    ])
    def test_invalid_values_rejected(self, argv, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as err:
            build_parser().parse_args(argv)
        assert err.value.code == 2

    def test_valid_flags_parse(self):
        from repro.cli import build_parser

        args = build_parser().parse_args([
            "serve", "--max-queue-depth", "8", "--job-timeout", "30",
            "--max-retries", "0", "--backoff-base", "0.1",
        ])
        assert args.max_queue_depth == 8
        assert args.job_timeout == 30.0
        assert args.max_retries == 0
        assert args.backoff_base == 0.1

    def test_cap_below_base_rejected_by_daemon(self, tmp_path, capsys):
        from repro.cli import main

        rc = main([
            "serve", "--service-dir", str(tmp_path / "svc"),
            "--backoff-base", "5.0", "--backoff-cap", "1.0",
        ])
        assert rc == 2
        assert "backoff_cap_s" in capsys.readouterr().err
