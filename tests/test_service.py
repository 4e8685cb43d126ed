"""SCF service end-to-end: daemon, fleet, retry, degradation, CLI flags.

Each test runs a real :class:`ServiceDaemon` in-process (dispatch loop
on a thread, worker fleet as forked processes) against a throwaway
service directory, and talks to it through the same
:class:`JobClient`/unix-socket path production uses.
"""

from __future__ import annotations

import json
import threading
import time
from pathlib import Path

import pytest

from repro.obs.events import events_from_ndjson
from repro.obs.registry import RunRegistry
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
    """Event kinds the serving daemon's run recorded."""
    registry = RunRegistry(tmp_path / "runs")
    (serve,) = [run_id for run_id in registry.run_ids()
                if registry.load(run_id)["kind"] == "serve"]
    path = registry.telemetry_path(serve)
    return {ev.kind for ev in events_from_ndjson(path.read_text())}


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
        ``rebuild_every`` keys); the energy is what that
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

    def test_retired_scf_recovery_key_loads_and_finishes(
        self, service, tmp_path
    ):
        """Journals and manifests written while the convergence guard
        existed may carry ``scf_recovery``: true where it was set, false
        where a manifest spelled out the default.  Each loads without
        the key and runs plain DIIS to ``done``."""
        from repro.service.queue import DurableJobQueue

        svc = tmp_path / "svc"
        svc.mkdir()
        journal = svc / "journal.ndjson"
        with DurableJobQueue(journal, fsync=False) as q:
            for flag in (True, False):
                q.submit(JobSpec(xyz=H2_XYZ, tag=f"journal-{flag}"))
        records = [json.loads(ln) for ln in journal.read_text().splitlines()]
        assert [r["op"] for r in records] == ["submit", "submit"]
        for record, flag in zip(records, (True, False)):
            record["job"]["spec"]["scf_recovery"] = flag
        journal.write_text("".join(json.dumps(r) + "\n" for r in records))
        manifest = tmp_path / "guarded.ndjson"
        manifest.write_text("".join(
            json.dumps({"molecule": "h2", "tag": f"manifest-{flag}",
                        "scf_recovery": flag}) + "\n"
            for flag in (True, False)
        ))

        client = service(manifest=str(manifest))
        jobs = client.status()["jobs"]
        assert sorted(j["tag"] for j in jobs) == [
            "journal-False", "journal-True", "manifest-False", "manifest-True"
        ]
        energy = {}
        for job in jobs:
            done = client.result(job["id"], timeout_s=60)
            assert done["state"] == "done", done
            energy[done["tag"]] = done["result"]["energy"]
        assert energy["journal-True"] == energy["journal-False"]
        assert abs(energy["journal-True"] - -1.116759307506359) < 1e-10
        assert energy["manifest-True"] == energy["manifest-False"]

    def test_job_telemetry_reaches_the_sink(self, service, tmp_path):
        client = service()
        client.result(client.submit({"xyz": H2_XYZ})["id"], timeout_s=60)
        assert {"service.start", "job.submitted", "job.dispatched",
                "job.done"} <= _telemetry_kinds(tmp_path)


class TestSLOReport:
    def test_live_report_reads_the_serve_runs_event_file(
        self, service, tmp_path, capsys
    ):
        """``repro slo`` on the running daemon prints what it prints for
        the file the daemon names, and the daemon writes no ``slo.``
        record of its own."""
        from repro.cli import main

        client = service(max_retries=0)
        jobs = [client.submit({"xyz": H2_XYZ}),
                client.submit({"xyz": WATER_XYZ, "max_iterations": 2})]
        states = [client.result(job["id"], timeout_s=60)["state"]
                  for job in jobs]
        assert states == ["done", "failed"]

        path = client.status()["events"]
        capsys.readouterr()
        assert main(["slo", "--service-dir", str(tmp_path / "svc"),
                     "--json"]) == 0
        live = capsys.readouterr().out
        assert main(["slo", path, "--json"]) == 0
        assert live == capsys.readouterr().out
        report = json.loads(live)
        cls = report["classes"]["shared-fock/sim"]
        assert (cls["done"], cls["failed"]) == (1, 1)
        assert not any(ev.kind.startswith("slo.") for ev in
                       events_from_ndjson(Path(path).read_text()))


class TestJournalShape:
    def test_each_attempt_is_one_running_record(self, service, tmp_path):
        """One ``running`` record per attempt, carrying ``attempt`` and
        ``run_id``, plus ``resumed`` on an attempt that starts from a
        checkpoint and ``degraded`` on one moved to the sim backend."""
        client = service(max_retries=2, process_budget=0)
        plain = client.submit({"xyz": H2_XYZ})
        retried = client.submit({"xyz": WATER_XYZ, "die_on_attempt": 1,
                                 "die_after_builds": 2})
        degraded = client.submit({"xyz": H2_XYZ, "backend": "process",
                                  "nranks": 2})
        done = {job["id"]: client.result(job["id"], timeout_s=60)
                for job in (plain, retried, degraded)}
        assert done[retried["id"]]["attempt"] == 2

        journal = [json.loads(line) for line in
                   (tmp_path / "svc" / "journal.ndjson").read_text()
                   .splitlines()]
        for job_id, job in done.items():
            assert job["state"] == "done"
            running = [r for r in journal if r["op"] == "state"
                       and r["id"] == job_id and r["state"] == "running"]
            assert [r["attempt"] for r in running] == list(
                range(1, job["attempt"] + 1))
            assert {r["run_id"] for r in running} == {job["run_id"]}
            flags = [(r.get("resumed", False), r.get("degraded", False))
                     for r in running]
            want = {plain["id"]: [(False, False)],
                    retried["id"]: [(False, False), (True, False)],
                    degraded["id"]: [(False, True)]}[job_id]
            assert flags == want


class TestCheckpointOnCost:
    """The service's checkpoint rule: after cycle 1, then once the
    cycles since the last write took ``COST_RATIO`` times the cheapest
    write."""

    @staticmethod
    def _run(tmp_path, **spec):
        from repro.chem.molecule import water
        from repro.obs.metrics import MetricsRegistry, use_metrics

        registry = MetricsRegistry()
        with use_metrics(registry):
            result = run_job(JobSpec(xyz=water().to_xyz(), **spec),
                             checkpoint=tmp_path / "scf.ckpt")
        return result, registry.snapshot()["resilience.checkpoints_written"]

    def test_a_fast_job_writes_a_few_checkpoints(self, tmp_path, monkeypatch):
        """A cycle as cheap as a write, on a clock that ticks once per
        read so the count does not depend on the host: the job's manager
        (built by ``run_job`` at the service default) writes after cycle
        1 and not again within ``COST_RATIO`` cycles."""
        import itertools
        from functools import partial

        import repro.resilience
        from repro.resilience import CheckpointManager, SCFCheckpoint

        ticks = itertools.count()
        monkeypatch.setattr(
            repro.resilience, "CheckpointManager",
            partial(CheckpointManager, clock=lambda: next(ticks)))
        result, writes = self._run(tmp_path)
        assert result["iterations"] == 9
        assert writes == 1
        assert SCFCheckpoint.load(tmp_path / "scf.ckpt").cycle == 1

    def test_a_slow_job_still_writes_every_cycle(self, tmp_path):
        result, writes = self._run(tmp_path, cycle_delay_s=0.05)
        assert writes == result["iterations"] == 9

    def test_spans_reach_the_attempt_file_once_per_cycle(self, tmp_path):
        """The worker's span sink: one write per SCF cycle plus one at
        attempt end, every span on disk once it is over."""
        from repro.chem.molecule import water
        from repro.obs.stream import SpanBatchWriter
        from repro.obs.tracer import (
            TraceContext, Tracer, new_span_id, new_trace_id, use_tracer)

        path = tmp_path / "attempt-001.spans.ndjson"
        writer = SpanBatchWriter(path)
        tracer = Tracer(context=TraceContext(new_trace_id(), new_span_id()),
                        on_close=writer)
        with use_tracer(tracer), tracer.span("job/attempt", attempt=1):
            result = run_job(JobSpec(xyz=water().to_xyz()))
        writer.close()
        assert writer.writes == result["iterations"] + 1
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert records[-1]["span"] == "job/attempt"

        def in_build(span):
            node = span.parent
            while node is not None and node.name != "fock/build":
                node = node.parent
            return node is not None

        # Every span outside a Fock build is on disk, none inside one.
        assert sorted(r["span_id"] for r in records) == sorted(
            s.span_id for s in tracer.walk() if not in_build(s))
        builds = [r for r in records if r["span"] == "fock/build"]
        assert len(builds) == result["iterations"]
        for build in builds:
            attrs = build["attrs"]
            assert attrs["fock/kl.count"] >= 1
            totals = [k for k in attrs if k.endswith(".total_s")]
            for key in totals:
                assert 0.0 < attrs[key] <= build["dur_s"]


class TestJobTrace:
    def test_explain_prints_the_build_totals_of_a_fresh_job(
        self, service, tmp_path, capsys
    ):
        from repro.cli import main

        client = service()
        job = client.submit({"xyz": WATER_XYZ})
        assert client.result(job["id"], timeout_s=60)["state"] == "done"
        capsys.readouterr()
        assert main(["explain", job["id"],
                     "--service-dir", str(tmp_path / "svc"),
                     "--runs-dir", str(tmp_path / "runs")]) == 0
        report = capsys.readouterr().out.splitlines()
        (build,) = [n for n, line in enumerate(report)
                    if line.startswith("fock/build ")]
        folded = report[build + 1:]
        names = [line.split()[0] for line in folded]
        assert {"fock/kl", "fock/gsumf"} <= set(names)
        assert all(line.startswith("  ") for line in folded)
        secs = [float(line.split()[2]) for line in folded]
        assert secs == sorted(secs, reverse=True)

    def test_the_attempt_file_is_whole_before_the_outcome_is_sent(
        self, tmp_path
    ):
        """The fleet worker's loop, in-process: when ``done`` goes up
        the pipe, the attempt's ``job/attempt`` line is already on
        disk."""
        import signal

        from repro.obs.events import get_event_log, set_event_log
        from repro.obs.metrics import get_metrics, set_metrics
        from repro.obs.tracer import new_span_id, new_trace_id
        from repro.service.supervisor import _service_worker_loop

        path = tmp_path / "trace" / "attempt-001.spans.ndjson"
        job = {"spec": JobSpec(xyz=WATER_XYZ), "id": "j000001",
               "attempt": 1,
               "trace": {"trace_id": new_trace_id(),
                         "root_span_id": new_span_id(),
                         "obs_dir": str(path.parent)}}
        outcomes = []

        class Out:
            @staticmethod
            def send(msg):
                if msg[0] in ("done", "failed"):
                    lines = (path.read_text().splitlines()
                             if path.exists() else [])
                    outcomes.append((msg[0], bool(lines) and json.loads(
                        lines[-1])["span"] == "job/attempt"))

        class Cmd:
            recv = iter([("job", job), ("stop",)]).__next__

        sigint = signal.getsignal(signal.SIGINT)
        log, metrics = get_event_log(), get_metrics()
        try:
            _service_worker_loop(0, (), Cmd, Out)
        finally:
            signal.signal(signal.SIGINT, sigint)
            set_event_log(log)
            set_metrics(metrics)
        assert outcomes == [("done", True)]


class TestKilledAttempt:
    def test_a_killed_attempt_loses_only_its_cycle_in_flight(
        self, service, tmp_path
    ):
        """A worker that ``os._exit``s at the start of its fourth Fock
        build leaves cycles 1-3 on disk, each with its children, and not
        one torn line; the retry resumes and the job's trace assembles
        clean around the interrupted attempt."""
        from collections import defaultdict

        from repro.obs.trace_assembly import assemble_job_trace

        client = service(max_retries=2)
        job = client.submit({"xyz": WATER_XYZ, "die_on_attempt": 1,
                             "die_after_builds": 3})
        done = client.result(job["id"], timeout_s=60)
        assert done["state"] == "done" and done["attempt"] == 2
        assert done["result"]["resumed"]

        killed = (tmp_path / "runs" / done["run_id"] / "trace"
                  / "attempt-001.spans.ndjson").read_text()
        assert killed.endswith("\n")
        records = [json.loads(line) for line in killed.splitlines()]
        iterations = [r for r in records if r["span"] == "scf/iteration"]
        assert [r["attrs"]["iteration"] for r in iterations] == [1, 2, 3]
        children = defaultdict(set)
        for r in records:
            children[r["parent_span_id"]].add(r["span"])
        for r in iterations:
            assert {"scf/fock_build", "scf/diis", "scf/diagonalize"} <= (
                children[r["span_id"]])
        # Open when the worker died: never written.
        assert not {"job/attempt", "scf/run"} & {r["span"] for r in records}

        trace = assemble_job_trace(tmp_path / "svc" / "journal.ndjson",
                                   job["id"], runs_root=tmp_path / "runs")
        assert trace.validate() == []
        attempts = [s for s in trace.segments if s.name == "job/attempt"]
        assert len(attempts) == 2
        assert attempts[0].synthetic and attempts[0].attrs.get("interrupted")
        assert not attempts[1].synthetic


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
        # A write per cycle: the cost rule writes a slow job every cycle
        # (a fast one only once or twice).
        monkeypatch.setattr(os, "replace", replace_or_die)
        client = service(max_retries=2)
        job = client.submit({"xyz": WATER_XYZ, "cycle_delay_s": 0.05})
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


class TestSocketPath:
    """A service dir too deep for ``sun_path`` gets a short socket under
    the temp directory, keyed on the directory, not on its spelling."""

    def test_the_fallback_keys_on_the_absolute_directory(
        self, tmp_path, monkeypatch
    ):
        from repro.service import service_socket_path

        deep = "d" * 120
        for parent in ("a", "b"):
            (tmp_path / parent / deep).mkdir(parents=True)
        monkeypatch.chdir(tmp_path / "a")
        here = service_socket_path(deep)
        assert len(str(here)) <= 100
        assert here == service_socket_path(tmp_path / "a" / deep)
        monkeypatch.chdir(tmp_path / "b")
        assert service_socket_path(deep) != here
        assert service_socket_path(deep) == service_socket_path(
            tmp_path / "b" / deep)


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
        # Removed options: the service checkpoints on cost only, the
        # cost-ordered batch policies did not beat binned, and no policy
        # left has a tie-break seed.
        ["serve", "--checkpoint-every", "1"],
        ["batch", "jobs.ndjson", "--policy", "sjf"],
        ["serve", "--batch-policy", "auto"],
        ["serve", "--batch-seed", "1"],
        ["batch", "jobs.ndjson", "--seed", "1"],
        # SLO targets belong to the `repro slo` report, not the daemon.
        ["serve", "--slo", "total:p95<60"],
    ])
    def test_invalid_values_rejected(self, argv, capsys):
        from repro.cli import build_parser

        with pytest.raises(SystemExit) as err:
            build_parser().parse_args(argv)
        assert err.value.code == 2

    def test_config_of_an_earlier_build_loads(self):
        stored = {**ServiceConfig().to_dict(), "checkpoint_every": 1,
                  "tick_s": 0.05, "batch_seed": 3}
        assert ServiceConfig.from_dict(stored) == ServiceConfig()

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
