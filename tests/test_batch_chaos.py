"""Chaos: SIGKILL a daemon mid-manifest; every job completes exactly once.

The daemon ingests a workload manifest at startup (``repro serve
--manifest``), runs as a real subprocess (own session, so ``killpg``
takes out daemon + fleet in one blow, like a node OOM), and is
SIGKILLed while a deliberately slow manifest job is mid-flight.  A
fresh daemon on the same service dir with the same ``--manifest`` flags
must then finish the workload such that:

* **exactly-once** — the restarted daemon's plan fingerprint matches
  the ``manifest.id`` marker, so intake is skipped: the journal holds
  exactly one submit per manifest job, before and after the crash;
* **acknowledged results survive** — jobs done before the kill are
  preserved verbatim (state, attempt, result);
* **interrupted jobs finish correctly** — each re-run job's energy is
  within 1e-10 Eh of a direct in-process reference;
* **traces stay whole** — every interrupted job still assembles one
  clean distributed trace (``validate() == []``) spanning both the
  dead daemon's journal records and the survivor's worker spans.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.service import JobClient, JobSpec, ServiceUnavailable
from repro.service.supervisor import run_job
from repro.workload import load_manifest, make_batch_scheduler

pytestmark = pytest.mark.process

MANIFEST = """\
# chaos manifest: fast jobs up front, slow tail for the kill to catch
{"molecule": "h2", "repeat": 2}
{"molecule": "water", "repeat": 2}
{"molecule": "water", "cycle_delay_s": 0.4, "tag": "slow-a"}
{"molecule": "water", "cycle_delay_s": 0.4, "tag": "slow-b"}
"""

N_JOBS = 6
POLICY, WINDOW = "binned", 4

# Tag -> reference system; repeat-expanded untagged entries pick up
# positional batch-%04d tags in manifest order.
SYSTEM_BY_TAG = {
    "batch-0000": "h2", "batch-0001": "h2",
    "batch-0002": "water", "batch-0003": "water",
    "slow-a": "water", "slow-b": "water",
}


def _spawn_daemon(service_dir: Path, runs_dir: Path,
                  manifest: Path) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--service-dir", str(service_dir),
         "--runs-dir", str(runs_dir),
         "--fleet", "1",
         "--backoff-base", "0.05", "--backoff-cap", "0.2",
         "--manifest", str(manifest),
         "--batch-policy", POLICY,
         "--batch-window", str(WINDOW)],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,  # killpg reaches orphan workers too
    )
    client = JobClient(service_dir)
    deadline = time.monotonic() + 30
    while True:
        try:
            client.ping()
            return proc
        except ServiceUnavailable:
            if proc.poll() is not None:
                raise RuntimeError(
                    f"daemon exited rc={proc.returncode} before serving")
            if time.monotonic() > deadline:
                proc.kill()
                raise
            time.sleep(0.1)


def _killpg(proc: subprocess.Popen) -> None:
    try:
        os.killpg(os.getpgid(proc.pid), signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait(timeout=10)


def _submit_count(journal: Path) -> int:
    return sum(1 for line in journal.read_text().splitlines()
               if line.strip() and json.loads(line).get("op") == "submit")


def test_sigkill_mid_manifest_completes_every_job_exactly_once(tmp_path):
    service_dir = tmp_path / "svc"
    runs_dir = tmp_path / "runs"
    manifest = tmp_path / "workload.ndjson"
    manifest.write_text(MANIFEST)
    journal = service_dir / "journal.ndjson"
    client = JobClient(service_dir)

    from repro.chem.molecule import hydrogen_molecule, water
    references = {
        "h2": run_job(JobSpec(xyz=hydrogen_molecule().to_xyz())),
        "water": run_job(JobSpec(xyz=water().to_xyz())),
    }

    daemon = _spawn_daemon(service_dir, runs_dir, manifest)
    try:
        # The whole manifest was enqueued at startup, nothing extra.
        listing = client.status()
        assert len(listing["jobs"]) == N_JOBS
        assert _submit_count(journal) == N_JOBS

        # The marker is the plan fingerprint; an independent local plan
        # over the same manifest must agree (cross-process determinism).
        plan = make_batch_scheduler(
            POLICY, window=WINDOW,
        ).plan(load_manifest(manifest))
        marker = (service_dir / "manifest.id").read_text().strip()
        assert marker == plan.fingerprint

        # Let the fast front finish and catch a slow job mid-flight.
        deadline = time.monotonic() + 60
        while True:
            jobs = {j["tag"]: j for j in client.status()["jobs"]}
            if jobs["slow-a"]["state"] == "running":
                break
            assert time.monotonic() < deadline, \
                f"slow-a never dispatched: {jobs['slow-a']}"
            time.sleep(0.05)
        done_before = {j["id"]: j for j in jobs.values()
                       if j["state"] == "done"}
        assert done_before, "kill landed before any job finished"
        time.sleep(0.3)  # let the slow job get some cycles in
    finally:
        _killpg(daemon)

    # Restart with the SAME manifest flags: the matching marker must
    # suppress re-intake — the journal already owns these jobs.
    daemon = _spawn_daemon(service_dir, runs_dir, manifest)
    try:
        assert _submit_count(journal) == N_JOBS  # no duplicates

        listing = client.status()
        assert len(listing["jobs"]) == N_JOBS  # no job invented or lost

        # Acknowledged results survived the kill verbatim.
        for job_id, before in done_before.items():
            after = client.status(job_id)
            assert after["state"] == "done"
            assert after["attempt"] == before["attempt"]
            assert after["result"] == before["result"]

        # Every manifest job reaches done exactly once.
        final = {}
        for job in listing["jobs"]:
            final[job["id"]] = client.result(job["id"], timeout_s=120)
            assert final[job["id"]]["state"] == "done", final[job["id"]]
        assert len(final) == N_JOBS

        # Energies match in-process references to 1e-10 Eh.
        for job in final.values():
            reference = references[SYSTEM_BY_TAG[job["tag"]]]
            assert abs(job["result"]["energy"]
                       - reference["energy"]) <= 1e-10, job["tag"]

        interrupted = [j for j in final.values() if j["interrupted"]]
        assert interrupted, "the kill interrupted no job — test is vacuous"
    finally:
        _killpg(daemon)

    # One clean assembled trace per interrupted/retried job.
    from repro.obs.trace_assembly import assemble_job_trace

    for job in interrupted:
        trace = assemble_job_trace(journal, job["id"], runs_root=runs_dir)
        assert trace.trace_id == job["trace_id"]
        assert trace.validate() == []  # one root, no orphans, sane times
        names = [s.name for s in trace.segments]
        assert names.count("service/job") == 1
        assert any(n == "job/attempt" for n in names)


def test_restart_after_completion_does_not_reenqueue(tmp_path):
    service_dir = tmp_path / "svc"
    runs_dir = tmp_path / "runs"
    manifest = tmp_path / "workload.ndjson"
    manifest.write_text('{"molecule": "h2", "repeat": 3}\n')
    journal = service_dir / "journal.ndjson"
    client = JobClient(service_dir)

    daemon = _spawn_daemon(service_dir, runs_dir, manifest)
    try:
        for job in client.status()["jobs"]:
            assert client.result(job["id"], timeout_s=90)["state"] == "done"
        assert _submit_count(journal) == 3
    finally:
        _killpg(daemon)

    # A clean restart over a fully-done workload changes nothing: same
    # three jobs, still done, zero new submits, zero re-runs.
    daemon = _spawn_daemon(service_dir, runs_dir, manifest)
    try:
        assert _submit_count(journal) == 3
        jobs = client.status()["jobs"]
        assert len(jobs) == 3
        assert all(j["state"] == "done" and j["attempt"] == 1
                   for j in jobs)
    finally:
        _killpg(daemon)
