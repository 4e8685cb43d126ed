"""The daemon's dispatch loop is event-driven: it blocks, it is woken,
and nothing waits to be noticed.

Every bound below is a latency a polling loop could only meet by luck:
an idle daemon makes *zero* wake-ups, and a result, a retry gate, a job
deadline, a worker death and a signal are each acted on within
milliseconds of happening, not at the next tick.  Times are read from
the journal (``pt`` is ``perf_counter``, ``t`` is wall clock — the same
clocks the workers' span files and the retry gates use).
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time

import pytest

from repro.service import JobClient, ServiceConfig, ServiceDaemon
from repro.service.daemon import RETIRED_CONFIG_KEYS
from repro.service.jobs import JobSpec
from repro.workload import WorkloadManager

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
    """``start(**overrides) -> (daemon, client)``, loop on a thread."""
    started: list[tuple[ServiceDaemon, threading.Thread]] = []

    def start(**overrides) -> tuple[ServiceDaemon, JobClient]:
        overrides.setdefault("service_dir", str(tmp_path / "svc"))
        overrides.setdefault("runs_dir", str(tmp_path / "runs"))
        overrides.setdefault("fleet", 1)
        daemon = ServiceDaemon(ServiceConfig(**overrides)).start()
        thread = threading.Thread(target=daemon.run_forever, daemon=True)
        thread.start()
        started.append((daemon, thread))
        return daemon, JobClient(overrides["service_dir"])

    yield start
    for daemon, thread in reversed(started):
        daemon.request_stop()
        thread.join(timeout=10)
        assert not thread.is_alive()
        daemon.close()


def _journal(tmp_path) -> list[dict]:
    text = (tmp_path / "svc" / "journal.ndjson").read_text()
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def _transitions(tmp_path, job_id: str, state: str) -> list[dict]:
    return [r for r in _journal(tmp_path)
            if r["op"] == "state" and r["id"] == job_id
            and r["state"] == state]


# -- the wait ------------------------------------------------------------------


def test_idle_daemon_never_wakes(service):
    daemon, client = service()
    client.ping()  # requests are served by their own threads
    time.sleep(0.2)  # the loop has reached its first wait
    before = daemon.wakeups
    time.sleep(1.0)
    client.ping()
    assert daemon.wakeups == before


def test_result_is_folded_and_the_next_job_dispatched_at_once(
    service, tmp_path
):
    daemon, client = service()
    first = client.submit({"xyz": H2_XYZ, "cycle_delay_s": 0.05})
    second = client.submit({"xyz": H2_XYZ})  # pending behind the first
    done = client.result(first["id"], timeout_s=60)
    client.result(second["id"], timeout_s=60)

    spans = [
        json.loads(line)
        for path in (tmp_path / "runs" / done["run_id"] / "trace").glob(
            "*.spans.ndjson")
        for line in path.read_text().splitlines()
    ]
    scf_run = next(s for s in spans if s["span"] == "scf/run")
    result_ready = scf_run["start_s"] + scf_run["dur_s"]
    journalled_done = _transitions(tmp_path, first["id"], "done")[0]["pt"]
    next_running = _transitions(tmp_path, second["id"], "running")[0]["pt"]
    assert result_ready <= journalled_done <= next_running
    assert next_running - result_ready < 0.020


def test_gated_retry_dispatches_when_its_gate_opens(service, tmp_path):
    daemon, client = service(max_retries=1, backoff_base_s=0.3,
                             backoff_cap_s=0.4)
    job = client.submit({"xyz": H2_XYZ, "die_on_attempt": 1})
    done = client.result(job["id"], timeout_s=60)
    assert done["state"] == "done" and done["attempt"] == 2

    gate = _transitions(tmp_path, job["id"], "retrying")[0]["not_before"]
    reclaimed = next(r for r in _transitions(tmp_path, job["id"], "running")
                     if r.get("attempt") == 2)
    assert 0.0 <= reclaimed["t"] - gate < 0.020


def test_job_past_its_deadline_is_killed_at_the_deadline(service, tmp_path):
    daemon, client = service(job_timeout_s=0.5, max_retries=0)
    job = client.submit({"xyz": H2_XYZ, "sleep_s": 30.0})
    failed = client.result(job["id"], timeout_s=60)
    assert failed["error_type"] == "JobTimeoutError"

    claimed = _transitions(tmp_path, job["id"], "running")[0]["pt"]
    folded = _transitions(tmp_path, job["id"], "failed")[0]["pt"]
    assert 0.5 <= folded - claimed < 0.5 + 0.050


def test_killed_worker_is_reported_lost_by_its_sentinel(service):
    """No timer is anywhere near: the job deadline is 60 s away and the
    heartbeat horizon 10 s, yet the loss is folded at once."""
    daemon, client = service(job_timeout_s=60.0, heartbeat_timeout_s=10.0,
                             max_retries=0)
    job = client.submit({"xyz": H2_XYZ, "sleep_s": 30.0})
    deadline = time.monotonic() + 10
    while client.status(job["id"])["state"] != "running":
        assert time.monotonic() < deadline
        time.sleep(0.01)
    time.sleep(0.1)  # the loop is back in its wait, the worker asleep
    before = daemon.wakeups
    killed_at = time.monotonic()
    os.kill(daemon.fleet.slots[0].proc.pid, signal.SIGKILL)
    failed = client.result(job["id"], timeout_s=30)
    assert time.monotonic() - killed_at < 0.5
    assert failed["error_type"] == "WorkerLostError"
    assert client.ping()["fleet"]["lost_workers"] == 1
    assert daemon.wakeups - before <= 3  # the sentinel, not a spin


def test_sigterm_during_the_blocking_wait_ends_run_forever(tmp_path):
    """The signal is delivered to a thread that is *not* the one blocked
    in the wait — the kernel is free to pick any — so nothing interrupts
    the wait and no Python-level handler runs until the interpreter's
    wake-up descriptor, which is the loop's self-pipe, is written."""
    daemon = ServiceDaemon(ServiceConfig(
        service_dir=str(tmp_path / "svc"), runs_dir=str(tmp_path / "runs"),
        fleet=1)).start()
    previous = {sig: signal.getsignal(sig)
                for sig in (signal.SIGTERM, signal.SIGINT)}
    sent_at: list[float] = []

    def send() -> None:
        sent_at.append(time.monotonic())
        signal.pthread_kill(threading.get_ident(), signal.SIGTERM)

    sender = threading.Timer(0.3, send)
    rescue = threading.Timer(5.0, daemon.request_stop)  # a failed run ends
    try:
        daemon.install_signal_handlers()
        sender.start()
        rescue.start()
        daemon.run_forever()  # the main thread, as in `repro serve`
        returned_at = time.monotonic()
    finally:
        sender.cancel()
        rescue.cancel()
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        daemon.close()
    assert sent_at and returned_at - sent_at[0] < 0.1
    assert daemon.wakeups == 1


# -- teardown ------------------------------------------------------------------


def test_close_of_an_idle_daemon_is_immediate(tmp_path):
    daemon = ServiceDaemon(ServiceConfig(
        service_dir=str(tmp_path / "svc"), runs_dir=str(tmp_path / "runs"),
        fleet=1)).start()
    JobClient(tmp_path / "svc").ping()
    accept_threads = [daemon._accept_thread, daemon.channel._server_thread]
    assert all(t.is_alive() for t in accept_threads)
    started = time.perf_counter()
    daemon.close()
    assert time.perf_counter() - started < 0.2
    assert not any(t.is_alive() for t in accept_threads)
    assert not (tmp_path / "svc" / "service.sock").exists()


# -- waiting clients -----------------------------------------------------------


def test_status_with_wait_s_answers_when_the_job_settles(service):
    daemon, client = service()
    job = client.submit({"xyz": H2_XYZ, "sleep_s": 0.3})
    asked = time.monotonic()
    reply = client.request("status", id=job["id"], wait_s=5.0)
    waited = time.monotonic() - asked
    assert reply["waited"] is True
    assert reply["job"]["state"] == "done"
    assert 0.25 < waited < 2.0  # held open, and released by the result

    # Bulk form: only the jobs asked about, all of them terminal.
    other = client.submit({"xyz": H2_XYZ})
    reply = client.request("status", ids=[other["id"]], wait_s=5.0)
    assert [j["id"] for j in reply["jobs"]] == [other["id"]]
    assert reply["jobs"][0]["state"] == "done"

    # An expired wait answers with the state as it is.
    slow = client.submit({"xyz": H2_XYZ, "sleep_s": 5.0})
    reply = client.request("status", id=slow["id"], wait_s=0.05)
    assert reply["waited"] and reply["job"]["state"] != "done"
    client.cancel(slow["id"])


def test_clients_fall_back_to_polling_an_older_daemon(service):
    """A daemon that predates ``wait_s`` ignores the field and answers at
    once, without ``waited``: the clients pace themselves again."""

    class OldDaemonClient(JobClient):
        def request(self, cmd, **fields):
            fields.pop("wait_s", None)
            ids = fields.pop("ids", None)
            reply = super().request(cmd, **fields)
            reply.pop("waited", None)
            assert ids is None or "jobs" in reply
            return reply

    daemon, client = service()
    old = OldDaemonClient(client.service_dir)
    job = old.submit({"xyz": H2_XYZ, "sleep_s": 0.2})
    assert old.result(job["id"], timeout_s=30, poll_s=0.02)["state"] == "done"
    report = WorkloadManager(old, poll_s=0.02).run(
        [JobSpec(xyz=H2_XYZ, tag=f"t{i}") for i in range(3)], timeout_s=60)
    assert report.metrics["jobs_done"] == 3


# -- cancel against the loop ---------------------------------------------------


def test_cancel_between_claim_and_dispatch_still_cancels(
    service, monkeypatch
):
    """A job is journalled ``running`` a moment before a worker has it.
    A cancel landing in that moment used to find no worker to kill,
    mark the job cancelled — and the loop then ran it anyway."""
    daemon, client = service()
    claimed, release = threading.Event(), threading.Event()
    register = daemon.registry.register

    def slow_register(kind, **kwargs):
        if kind == "job" and not release.is_set():
            claimed.set()
            assert release.wait(10)
        return register(kind, **kwargs)

    monkeypatch.setattr(daemon.registry, "register", slow_register)
    job = client.submit({"xyz": WATER_XYZ, "cycle_delay_s": 1.0})
    assert claimed.wait(10)
    assert client.status(job["id"])["state"] == "running"
    reply: dict = {}
    canceller = threading.Thread(
        target=lambda: reply.update(client.cancel(job["id"])))
    canceller.start()
    time.sleep(0.1)
    assert canceller.is_alive()  # waits for the pass to finish its dispatch
    release.set()
    canceller.join(timeout=10)
    assert reply["state"] == "cancelled"

    asked = time.monotonic()
    after = client.result(client.submit({"xyz": H2_XYZ})["id"], timeout_s=60)
    assert after["state"] == "done"
    assert time.monotonic() - asked < 3.0  # the worker was not still busy
    assert client.status(job["id"])["state"] == "cancelled"


# -- stored configs ------------------------------------------------------------


def test_config_stored_by_an_older_build_still_loads(monkeypatch):
    from repro.service import daemon as daemon_module

    logged: list[str] = []
    monkeypatch.setattr(daemon_module.logger, "info",
                        lambda msg, *args: logged.append(msg % args))
    stored = {**ServiceConfig(fleet=3).to_dict(), RETIRED_CONFIG_KEYS[0]: 0.05}
    stored["slo_targets"] = list(stored["slo_targets"])  # as JSON has it
    assert ServiceConfig.from_dict(stored) == ServiceConfig(fleet=3)
    assert len(logged) == 1 and RETIRED_CONFIG_KEYS[0] in logged[0]
    with pytest.raises(TypeError):
        ServiceConfig.from_dict({"no_such_option": 1})
