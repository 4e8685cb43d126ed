"""Chaos: SIGKILL the daemon mid-job and prove the journal loses nothing.

The daemon runs as a real subprocess (its own session, so ``killpg``
takes out the daemon and any orphaned fleet workers in one blow).  A
fast job is driven to completion, a slow one to mid-flight, then the
whole process group is SIGKILLed.  A fresh daemon on the same service
directory must replay the journal such that:

* the acknowledged (done) job is preserved verbatim — same state,
  same result, same attempt counter;
* the interrupted job is re-run and finishes with an energy bitwise
  identical (well within 1e-10 Eh) to a direct in-process reference.

The fleet-level tests at the end kill a worker in the middle of talking
to the daemon and prove the fleet keeps serving: its outcome pipe dies
with it, and no frame it could write is ever torn.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import select
import signal
import subprocess
import sys
import time
from multiprocessing.connection import wait as mp_wait
from pathlib import Path

import pytest

from repro.parallel.child import KILLED_EXIT_CODE
from repro.service import JobClient, JobSpec, ServiceUnavailable, probe_socket
from repro.service import supervisor
from repro.service.jobs import Job
from repro.service.supervisor import WorkerFleet, run_job

pytestmark = pytest.mark.process

H2_XYZ = "2\nh2\nH 0.0 0.0 0.0\nH 0.0 0.0 0.74\n"
WATER_XYZ = (
    "3\nwater\n"
    "O 0.0 0.0 0.117\n"
    "H 0.0 0.757 -0.471\n"
    "H 0.0 -0.757 -0.471\n"
)


def _spawn_daemon(service_dir: Path, runs_dir: Path) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--service-dir", str(service_dir),
         "--runs-dir", str(runs_dir),
         "--fleet", "1",
         "--backoff-base", "0.05", "--backoff-cap", "0.2"],
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


def test_sigkilled_daemon_replays_journal_without_losing_jobs(tmp_path):
    service_dir = tmp_path / "svc"
    runs_dir = tmp_path / "runs"
    client = JobClient(service_dir)
    reference = run_job(JobSpec(xyz=WATER_XYZ))

    daemon = _spawn_daemon(service_dir, runs_dir)
    try:
        # One job all the way to acknowledged-done before the crash.
        fast = client.submit({"xyz": H2_XYZ, "tag": "fast"})
        fast_done = client.result(fast["id"], timeout_s=90)
        assert fast_done["state"] == "done"

        # One slow job caught mid-flight by the kill.
        slow = client.submit({"xyz": WATER_XYZ, "tag": "slow",
                              "cycle_delay_s": 0.5})
        deadline = time.monotonic() + 30
        while client.status(slow["id"])["state"] != "running":
            assert time.monotonic() < deadline, "slow job never dispatched"
            time.sleep(0.05)
    finally:
        _killpg(daemon)

    # The socket file is now stale: present on disk, nobody listening.
    sock = service_dir / "service.sock"
    assert sock.exists()
    assert not probe_socket(sock)
    with pytest.raises(ServiceUnavailable):
        client.ping()

    # Restart on the same service dir: journal replay must adopt both.
    daemon = _spawn_daemon(service_dir, runs_dir)
    try:
        # Acknowledged job preserved verbatim — never re-run.
        replayed = client.status(fast["id"])
        assert replayed["state"] == "done"
        assert replayed["attempt"] == fast_done["attempt"]
        assert replayed["result"] == fast_done["result"]

        # Interrupted job adopted, re-run, and correct.
        recovered = client.result(slow["id"], timeout_s=120)
        assert recovered["state"] == "done"
        assert recovered["interrupted"]
        assert abs(recovered["result"]["energy"]
                   - reference["energy"]) <= 1e-10
    finally:
        _killpg(daemon)


def test_killed_worker_retried_job_assembles_one_trace(tmp_path):
    """A worker that dies mid-attempt must still yield a stitched trace.

    The chaos spec kills the worker on attempt 1 (``os._exit``: the
    attempt's root span is never closed, its span file ends mid-write),
    the retry resumes from the checkpoint and finishes.  ``repro
    trace`` must still assemble ONE well-formed trace: a single
    trace_id, both attempts as sibling spans under the job root, no
    orphan spans, and the synthetic queue.wait / retry.backoff /
    checkpoint.resume segments bridging the gaps.
    """
    from repro.obs.trace_assembly import assemble_job_trace

    service_dir = tmp_path / "svc"
    runs_dir = tmp_path / "runs"
    client = JobClient(service_dir)
    daemon = _spawn_daemon(service_dir, runs_dir)
    try:
        job = client.submit({"xyz": WATER_XYZ, "tag": "chaos",
                             "die_on_attempt": 1})
        done = client.result(job["id"], timeout_s=120)
        assert done["state"] == "done"
        assert done["attempt"] == 2
        assert done["trace_id"]
    finally:
        _killpg(daemon)

    trace = assemble_job_trace(
        service_dir / "journal.ndjson", job["id"], runs_root=runs_dir)
    assert trace.trace_id == done["trace_id"]
    assert trace.validate() == []  # no orphans, good intervals, one root

    names = [s.name for s in trace.segments]
    attempts = [s for s in trace.segments if s.name == "job/attempt"]
    assert len(attempts) == 2
    # Attempts are siblings under the job root, on their own tracks.
    root = next(s for s in trace.segments if s.name == "service/job")
    assert {a.parent_span_id for a in attempts} == {root.span_id}
    assert attempts[0].rank != attempts[1].rank
    # The killed attempt's container is synthesized from the journal;
    # the surviving attempt's is the worker's real span.
    assert attempts[0].synthetic and attempts[0].attrs.get("interrupted")
    assert not attempts[1].synthetic
    # Synthetic glue covers the non-work latency.
    assert names.count("queue.wait") >= 1
    assert names.count("retry.backoff") == 1
    assert names.count("checkpoint.resume") == 1
    # Real SCF spans from the resumed attempt made it in.
    assert any(n.startswith("scf/") for n in names)

    # The Chrome document spans client, daemon, and both attempts.
    doc = trace.to_chrome_trace()
    assert doc["otherData"]["trace_id"] == done["trace_id"]
    pids = {e["pid"] for e in doc["traceEvents"] if e["ph"] == "X"}
    assert len(pids) >= 4
    # And the critical path runs submit -> ... -> the final attempt.
    crit = trace.critical_path
    assert crit[0].name == "client/submit"
    assert sum(1 for s in crit if s.name == "job/attempt") == 2


def test_graceful_sigterm_finalizes_and_releases_socket(tmp_path):
    service_dir = tmp_path / "svc"
    daemon = _spawn_daemon(service_dir, tmp_path / "runs")
    client = JobClient(service_dir)
    job = client.submit({"xyz": H2_XYZ})
    assert client.result(job["id"], timeout_s=90)["state"] == "done"

    daemon.terminate()  # SIGTERM -> clean close()
    assert daemon.wait(timeout=30) == 0
    assert not (service_dir / "service.sock").exists()
    assert not (service_dir / "daemon.pid").exists()


# -- the fleet: a dying worker takes only its own pipe with it ----------------


def _job(attempt: int) -> Job:
    return Job(id="j000001", spec=JobSpec(xyz=H2_XYZ), attempt=attempt)


def _outcomes_within(fleet: WorkerFleet, seconds: float) -> list:
    """Serve ``fleet`` the way the daemon does, for at most ``seconds``;
    the first outcomes it reports, or ``[]``."""
    deadline = time.monotonic() + seconds
    while (left := deadline - time.monotonic()) > 0:
        mp_wait(fleet.waitables(), left)
        outcomes = fleet.poll()
        if outcomes:
            return outcomes
    return []


def test_worker_dying_mid_flood_does_not_wedge_the_next_job(monkeypatch):
    """Attempt 1 floods the daemon with events and dies 1 ms later, in
    the middle of sending; the job on the respawned slot still reports
    at once, not at its 30 s deadline."""

    def flood_then_die(spec, *, attempt, emit, **_):
        if attempt == 1:
            for i in range(2000):
                emit("test.flood", i=i)
            time.sleep(0.001)
            os._exit(KILLED_EXIT_CODE)
        return {"energy": 0.0}

    monkeypatch.setattr(supervisor, "run_job", flood_then_die)  # forks inherit
    fleet = WorkerFleet(1, job_timeout_s=30.0)
    try:
        fleet.dispatch(_job(1))
        assert [o.kind for o in _outcomes_within(fleet, 30.0)] == ["lost"]
        fleet.dispatch(_job(2))
        assert [o.kind for o in _outcomes_within(fleet, 2.0)] == ["done"]
    finally:
        fleet.shutdown()


def test_a_torn_outcome_frame_is_dropped_with_its_pipe():
    """A frame cut at any byte by its writer's death yields no outcome,
    never blocks ``poll``, and takes the pipe out of the wait set."""
    fleet = WorkerFleet(1)
    slot = fleet.slots[0]
    slot.job_id = "j000001"  # the outcome the slot is waiting for
    try:
        reader, writer = multiprocessing.Pipe(duplex=False)
        writer.send(("done", "j000001", {"energy": -1.0}))
        frame = os.read(reader.fileno(), 65536)
        reader.close()
        writer.close()
        slot.child.out.close()
        for cut in range(len(frame)):
            slot.child.out, writer = multiprocessing.Pipe(duplex=False)
            os.write(writer.fileno(), frame[:cut])
            writer.close()
            assert fleet.poll() == []
            assert slot.child.out is None and slot.busy
            assert slot.child.out not in fleet.waitables()
        # The whole frame is a result: the cut, not the bytes, dropped it.
        slot.child.out, writer = multiprocessing.Pipe(duplex=False)
        os.write(writer.fileno(), frame)
        writer.close()
        assert [o.kind for o in fleet.poll()] == ["done"]
        assert slot.child.out is None and not slot.busy
    finally:
        fleet.shutdown()


def test_a_long_error_still_fits_one_atomic_pipe_write(monkeypatch):
    """A 10 kB exception message comes back as ONE ``failed`` frame no
    longer than ``PIPE_BUF``: one ``write(2)`` a kill cannot tear."""

    def raise_long(spec, **_):
        raise ValueError("x" * 10_000)

    monkeypatch.setattr(supervisor, "run_job", raise_long)
    fleet = WorkerFleet(1)
    try:
        fleet.dispatch(_job(1))
        out = fleet.slots[0].child.out
        frames = []
        while not frames or frames[-1][0][0] != "failed":
            assert out.poll(30.0)
            payload = out.recv_bytes()
            frames.append((pickle.loads(payload), 4 + len(payload)))
        (msg, size), = [f for f in frames if f[0][0] == "failed"]
        assert size <= select.PIPE_BUF
        assert msg[2]["error"].startswith("x" * 100)
        assert msg[2]["error_type"] == "ValueError"
    finally:
        fleet.shutdown()


def test_every_respawn_counts(monkeypatch):
    """One slot loses its worker, has a job cancelled and one time out:
    four workers ran, so three respawns."""
    monkeypatch.setattr(supervisor, "run_job",
                        lambda spec, **_: time.sleep(60))  # forks inherit
    fleet = WorkerFleet(1, job_timeout_s=30.0)
    slot = fleet.slots[0]
    pids = [slot.child.pid]
    try:
        fleet.dispatch(_job(1))
        os.kill(slot.child.pid, signal.SIGKILL)
        assert [o.kind for o in _outcomes_within(fleet, 10.0)] == ["lost"]
        pids.append(slot.child.pid)

        fleet.dispatch(_job(2))
        assert fleet.cancel_job("j000001")
        pids.append(slot.child.pid)

        fleet.dispatch(_job(3))
        slot.deadline = fleet.clock() - 1.0
        assert [o.kind for o in fleet.poll()] == ["timeout"]
        pids.append(slot.child.pid)

        assert len(set(pids)) == 4
        assert fleet.stats()["respawns"] == 3
    finally:
        fleet.shutdown()
