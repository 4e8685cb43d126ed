"""The ``repro serve`` daemon: SCF-as-a-service over a unix socket.

One process, three moving parts:

* an **accept loop** answering NDJSON requests (submit / status /
  result / cancel / ping / shutdown) on the service socket — each
  connection is one request, handled on its own short-lived thread;
* the **dispatch loop** (the main thread): folds fleet outcomes into
  the durable queue, applies the retry policy, hands ready jobs to
  idle workers, enforces nothing itself — deadlines and liveness live
  in :class:`~repro.service.supervisor.WorkerFleet`.  The loop is
  event-driven: between passes it blocks in one
  :func:`multiprocessing.connection.wait` over the fleet's outcome
  pipe, the sentinel of every busy worker and a self-pipe (written by
  accepted submits, cancels, stop requests and the signal handlers),
  with a timeout only when something is *due* — a retry's back-off
  gate, a job deadline, a heartbeat-suspect horizon, the idle exit.
  There is no polling interval and no other thread that naps: an idle
  daemon makes no wake-ups at all, and a finished job is folded the
  moment its result is written;
* the observability stack: a thread-safe, bounded event log installed
  as the process event log and written to the serve run's
  ``events.ndjson`` (``repro monitor <serve run id>`` follows it) —
  carrying ``job.*`` / ``service.*`` / ``slo.*`` records for every
  lifecycle edge and the fleet's heartbeats, plus a run-registry record
  per job and one for the daemon itself.

Crash model end to end: submissions and transitions are fsync'd to the
journal *before* they are acknowledged, checkpoints land under
``<service-dir>/jobs/<id>/``, so a SIGKILL'd daemon restarted on the
same directory replays the journal, re-queues exactly the jobs that
were in flight, and resumes them from their checkpoints — acknowledged
results are never lost, never re-run.

Startup handles the classic AF_UNIX footgun: a socket *path* survives
its owner's death.  The daemon probes an existing path first — a live
daemon answers and startup aborts with
:class:`~repro.service.errors.DaemonAlreadyRunning`; a dead one
refuses the connect and the stale path is unlinked and re-bound.
"""

from __future__ import annotations

import json
import logging
import os
import signal
import socket
import threading
import time
from dataclasses import asdict, dataclass
from functools import partial
from multiprocessing.connection import wait as wait_for_any
from pathlib import Path
from typing import Any, Callable

from repro.obs.events import get_event_log, set_event_log
from repro.obs.metrics import MetricsRegistry, get_metrics, set_metrics
from repro.obs.registry import RunHandle, RunRegistry, new_run_id
from repro.obs.slo import DEFAULT_SLO_TARGETS, SLOEngine, job_class
from repro.obs.stream import ObsStreamer
from repro.obs.telemetry import TelemetryChannel
from repro.service.client import recv_line, probe_socket, service_socket_path
from repro.service.errors import (
    DaemonAlreadyRunning,
    JobNotFound,
    ServiceError,
)
from repro.service.jobs import TERMINAL_STATES, Job, JobSpec
from repro.service.queue import DEFAULT_MAX_DEPTH, DurableJobQueue
from repro.service.retry import TERMINAL, RetryPolicy, classify
from repro.service.supervisor import (
    DEFAULT_HEARTBEAT_TIMEOUT_S,
    DEFAULT_JOB_TIMEOUT_S,
    JobOutcome,
    WorkerFleet,
)

logger = logging.getLogger("repro.service.daemon")

#: Longest a ``status`` request with ``wait_s`` is held open.
MAX_WAIT_S = 60.0

#: ``ServiceConfig`` keys of earlier builds that a stored config may carry:
#: the tick loop's polling interval, the fixed job-checkpoint interval
#: (jobs checkpoint on cost), and the batch-plan seed (no policy left
#: breaks ties at random).
RETIRED_CONFIG_KEYS = ("tick_s", "checkpoint_every", "batch_seed")


def close_listener(server: socket.socket,
                   thread: threading.Thread | None) -> None:
    """Close a listening socket whose ``accept()`` loop runs on ``thread``.

    ``close()`` alone leaves a thread parked in ``accept()`` asleep on
    Linux (joining it only ever timed out); ``shutdown()`` fails the
    pending accept, the loop returns, and the join is immediate.  The
    join's timeout is a guard for platforms that do not, not a sleep.
    """
    try:
        server.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    if thread is not None:
        thread.join(timeout=5)
    try:
        server.close()
    except OSError:  # pragma: no cover - teardown best effort
        pass


@dataclass
class ServiceConfig:
    """Everything a daemon needs, CLI-shaped and JSON-able."""

    service_dir: str = str(Path(".repro") / "service")
    fleet: int = 2
    max_queue_depth: int = DEFAULT_MAX_DEPTH
    job_timeout_s: float = DEFAULT_JOB_TIMEOUT_S
    max_retries: int = 3
    backoff_base_s: float = 0.25
    backoff_cap_s: float = 30.0
    retry_seed: int = 0
    process_budget: int = 4
    heartbeat_timeout_s: float = DEFAULT_HEARTBEAT_TIMEOUT_S
    idle_exit_s: float | None = None
    runs_dir: str | None = None
    slo_targets: tuple[str, ...] = DEFAULT_SLO_TARGETS
    keep_runs: int | None = None  # registry retention (prune keep-last-N)
    # -- workload-manifest intake (repro serve --manifest) --------------------
    manifest: str | None = None
    batch_policy: str = "binned"
    batch_window: int | None = None

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ServiceConfig":
        """Rebuild a config from :meth:`to_dict` output, this build's or
        an earlier one's (retired keys are dropped, with one log line)."""
        values = dict(data)
        retired = [k for k in RETIRED_CONFIG_KEYS if k in values]
        for key in retired:
            del values[key]
        if retired:
            logger.info("ignoring retired service config key(s): %s",
                        ", ".join(retired))
        if "slo_targets" in values:
            values["slo_targets"] = tuple(values["slo_targets"])
        return cls(**values)


class ServiceDaemon:
    """The long-running job service.  Use as a context manager:

    >>> with ServiceDaemon(ServiceConfig(service_dir=d)) as daemon:
    ...     daemon.run_forever()
    """

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        self.service_dir = Path(config.service_dir)
        self.jobs_dir = self.service_dir / "jobs"
        self.socket_path = service_socket_path(self.service_dir)
        self.pid_path = self.service_dir / "daemon.pid"
        self.policy = RetryPolicy(
            max_retries=config.max_retries,
            backoff_base_s=config.backoff_base_s,
            backoff_cap_s=config.backoff_cap_s,
            seed=config.retry_seed,
        )
        self.queue: DurableJobQueue | None = None
        self.fleet: WorkerFleet | None = None
        self.channel: TelemetryChannel | None = None
        self._events_file: ObsStreamer | None = None
        self.registry: RunRegistry | None = None
        self.serve_run: RunHandle | None = None
        self.slo: SLOEngine | None = None
        self._job_runs: dict[str, RunHandle] = {}
        # Registry writes deferred past the dispatch (_flush_registry).
        self._registry_writes: list[Callable[[], None]] = []
        # Per-job latency accounting on the shared perf_counter base:
        # {"submit_pt", "ready_pt", "dispatch_pt"?, "queue_wait", "run"}.
        self._timing: dict[str, dict[str, float]] = {}
        self._server: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._stopping = False
        # The self-pipe: how another thread or a signal handler ends the
        # dispatch loop's blocking wait (created by start()).
        self._wake_r: socket.socket | None = None
        self._wake_w: socket.socket | None = None
        self._prior_wakeup_fd: int | None = None  # set with the handlers
        #: Times the dispatch loop came out of its blocking wait.
        self.wakeups = 0
        # Notified whenever a job settles, for ``status`` + ``wait_s``.
        self._settled = threading.Condition()
        # One pass of the dispatch loop and one cancel request each move
        # jobs and slots between states in several steps (claim, then
        # dispatch; kill, then journal): never interleaved.  Without it
        # a cancel between a claim and its dispatch finds no worker to
        # kill and the cancelled job runs anyway, and the sentinel of a
        # worker a cancel just killed reads as a lost worker to retry.
        self._lock = threading.Lock()
        self._started = False
        self._closed = False
        self._last_active = time.monotonic()
        self.jobs_done = 0
        self.jobs_failed = 0
        self.jobs_cancelled = 0
        self.retries = 0
        self.overloads = 0

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "ServiceDaemon":
        """Bind the socket, replay the journal, spawn the fleet."""
        if self._started:
            return self
        self.service_dir.mkdir(parents=True, exist_ok=True)
        self.jobs_dir.mkdir(parents=True, exist_ok=True)

        # Stale-socket reclaim: probe before bind.
        if self.socket_path.exists():
            if probe_socket(self.socket_path):
                raise DaemonAlreadyRunning(
                    f"a live daemon already answers at {self.socket_path}"
                )
            logger.warning("reclaiming stale service socket %s",
                           self.socket_path)
            self.socket_path.unlink()

        self._server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._server.bind(str(self.socket_path))
        self._server.listen(16)
        self.pid_path.write_text(f"{os.getpid()}\n")
        self._wake_r, self._wake_w = socket.socketpair()
        self._wake_r.setblocking(False)
        self._wake_w.setblocking(False)

        self.registry = RunRegistry(self.config.runs_dir)
        self.serve_run = self.registry.register(
            "serve", config=self.config.to_dict()
        )

        # The channel IS the process event log: job, SLO and fleet
        # heartbeat records all arrive through emit(), and a daemon that
        # runs for days holds a bounded backlog.  An in-process daemon
        # (tests, benchmarks) hands the process' globals back on close().
        self.channel = TelemetryChannel()
        self._prev_event_log = get_event_log()
        self._prev_metrics = get_metrics()
        set_event_log(self.channel)
        set_metrics(MetricsRegistry())
        self.slo = SLOEngine(self.config.slo_targets, log=self.channel)
        if self.serve_run is not None:
            # Every event, once, in the serve run's events.ndjson: what
            # `repro monitor` follows and `repro slo` replays.
            self._events_file = ObsStreamer(self.serve_run.directory,
                                            log=self.channel)

        self.queue = DurableJobQueue(
            self.service_dir / "journal.ndjson",
            max_depth=self.config.max_queue_depth,
        )
        if self.queue.recovered_jobs:
            logger.info("journal replay recovered %d in-flight job(s): %s",
                        len(self.queue.recovered_jobs),
                        ", ".join(self.queue.recovered_jobs))
            self.channel.emit(
                "service.recovered",
                jobs=list(self.queue.recovered_jobs),
                replayed=self.queue.replayed,
            )
        if self.config.manifest is not None:
            self._enqueue_manifest()

        # Workers are forked from here on; every fd they must NOT
        # inherit goes in this list (see _service_worker_loop).
        close_fds = (self._server.fileno(), self.queue.fileno(),
                     self._wake_r.fileno(), self._wake_w.fileno())
        self.fleet = WorkerFleet(
            self.config.fleet,
            job_timeout_s=self.config.job_timeout_s,
            heartbeat_timeout_s=self.config.heartbeat_timeout_s,
            process_budget=self.config.process_budget,
            close_fds=close_fds,
        )

        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="service-accept", daemon=True
        )
        self._accept_thread.start()
        self._started = True
        self._last_active = time.monotonic()
        self.channel.emit(
            "service.start",
            pid=os.getpid(),
            socket=str(self.socket_path),
            fleet=self.config.fleet,
            max_queue_depth=self.config.max_queue_depth,
            recovered=len(self.queue.recovered_jobs),
        )
        logger.info("service listening at %s (fleet=%d, pid=%d)",
                    self.socket_path, self.config.fleet, os.getpid())
        return self

    def _enqueue_manifest(self) -> None:
        """Ingest ``config.manifest``, batch-planned, exactly once.

        The planned submission order *is* the batch plan: the durable
        queue dispatches FIFO over submission order, so submitting in
        plan order makes the fleet execute each setup-key bin
        back-to-back (warm ``setup_cache`` + ERI-pool hits on every job
        after a bin's first).

        Exactly-once across restarts: after the full plan is journaled,
        the plan fingerprint is written to ``<service-dir>/manifest.id``
        (atomic rename).  A restarted daemon whose marker matches skips
        the intake — the journal already owns those jobs — so a SIGKILL
        mid-*workload* never duplicates a job.  (A crash inside the
        intake loop itself re-enqueues from scratch; the loop is pure
        fsync'd appends taking milliseconds, so that window is the
        narrow, documented trade for keeping the journal format
        unchanged.)
        """
        from repro.workload.manifest import load_manifest
        from repro.workload.scheduler import make_batch_scheduler

        specs = load_manifest(self.config.manifest)
        scheduler = make_batch_scheduler(
            self.config.batch_policy,
            window=self.config.batch_window,
        )
        plan = scheduler.plan(specs)
        marker = self.service_dir / "manifest.id"
        if marker.exists() and marker.read_text().strip() == plan.fingerprint:
            logger.info("manifest %s already ingested (%d job(s) in the "
                        "journal); skipping", self.config.manifest,
                        len(specs))
            return
        now_pt = time.perf_counter()
        for index in plan.order:
            job = self.queue.submit(specs[index], enforce_depth=False)
            self._timing[job.id] = {
                "submit_pt": now_pt, "ready_pt": now_pt,
                "queue_wait": 0.0, "run": 0.0,
            }
        tmp = marker.with_suffix(".id.tmp")
        tmp.write_text(plan.fingerprint + "\n")
        tmp.replace(marker)
        self._last_active = time.monotonic()
        self.channel.emit(
            "service.manifest",
            manifest=str(self.config.manifest),
            jobs=len(plan.order),
            batches=len(plan.batches),
            policy=self.config.batch_policy,
            fingerprint=plan.fingerprint,
        )
        logger.info("manifest %s: %d job(s) in %d batch(es) under the "
                    "%s policy", self.config.manifest, len(plan.order),
                    len(plan.batches), self.config.batch_policy)

    def install_signal_handlers(self) -> None:
        """SIGTERM/SIGINT request a graceful stop (main thread only).

        The self-pipe doubles as the interpreter's wake-up descriptor:
        the kernel may deliver the signal to any thread, and only a byte
        written by the C-level handler gets the main thread out of its
        blocking wait to run the Python-level one (which a signal alone
        would not even if it landed there: PEP 475 resumes the wait).
        """
        self._prior_wakeup_fd = signal.set_wakeup_fd(
            self._wake_w.fileno(), warn_on_full_buffer=False)
        for sig in (signal.SIGTERM, signal.SIGINT):
            signal.signal(sig, lambda *_: self.request_stop())

    def run_forever(self) -> None:
        """The dispatch loop; returns on stop request or idle exit.

        Each pass folds what the fleet has to report and dispatches what
        is ready, then blocks until something can change either: a
        fleet waitable, the self-pipe, or the next thing that is due.
        """
        assert self.queue is not None and self.fleet is not None
        while not self._stopping:
            with self._lock:
                outcomes = self.fleet.poll()
                for outcome in outcomes:
                    self._fold_outcome(outcome)
                self._dispatch_ready()
                self._flush_registry()
                if outcomes:
                    self._notify_settled()
                idle_at = self._idle_deadline()
                if idle_at is not None and time.monotonic() > idle_at:
                    logger.info("idle for %gs; exiting",
                                self.config.idle_exit_s)
                    break
                watch = [self._wake_r, *self.fleet.waitables()]
                timeout = self._seconds_until_due(idle_at)
            ready = wait_for_any(watch, timeout)
            self.wakeups += 1
            if self._wake_r in ready:
                self._wake_r.recv(4096)

    def _seconds_until_due(self, idle_at: float | None) -> float | None:
        """Seconds until the loop has work that no event will announce:
        a retry's back-off gate opening, a job deadline or heartbeat
        horizon passing, the idle exit.  ``None``: block until an event.
        """
        due = []
        gate = self.queue.next_wakeup()
        if gate is not None:
            due.append(gate - self.queue.clock())
        deadline = self.fleet.next_deadline()
        if deadline is not None:
            due.append(deadline - self.fleet.clock())
        if idle_at is not None:
            due.append(idle_at - time.monotonic())
        return max(0.0, min(due)) if due else None

    def _wake_loop(self) -> None:
        """End the dispatch loop's current (or next) blocking wait."""
        if self._wake_w is not None:
            try:
                self._wake_w.send(b"\0")
            except OSError:
                pass  # full: the loop wakes just as well; closed: no loop

    def request_stop(self) -> None:
        """Ask :meth:`run_forever` to return (any thread, or a signal
        handler: a flag and one byte on the self-pipe, no lock)."""
        self._stopping = True
        self._wake_loop()

    def _notify_settled(self) -> None:
        """Re-check every ``status`` request parked on ``wait_s``."""
        with self._settled:
            self._settled.notify_all()

    def _idle_deadline(self) -> float | None:
        """Monotonic time at which ``idle_exit_s`` runs out; ``None``
        when it is not configured or the service has open work."""
        if self.config.idle_exit_s is None:
            return None
        if self.queue.depth()["open"] > 0 or self.fleet.busy_slots():
            self._last_active = time.monotonic()
            return None
        return self._last_active + self.config.idle_exit_s

    def close(self) -> None:
        """Graceful teardown: fleet, sockets, registry record, pid file.

        Running jobs are *not* drained — their workers are killed and
        the journal keeps them ``running``, so the next daemon on this
        directory recovers them.  That asymmetry is deliberate: stop
        must be fast and is exactly the crash path, minus the crash.
        """
        if self._closed:
            return
        self._closed = True
        self.request_stop()
        self._notify_settled()
        if self.fleet is not None:
            self.fleet.shutdown()
        with self._lock:  # a pass may still be finishing on another thread
            self._flush_registry()
        if self._server is not None:
            close_listener(self._server, self._accept_thread)
        if self.channel is not None:
            self.channel.emit(
                "service.stop",
                jobs_done=self.jobs_done,
                jobs_failed=self.jobs_failed,
            )
        if self.serve_run is not None:
            self.serve_run.finalize(
                status="done",
                summary=self._summary(),
            )
        if self.channel is not None:
            self.channel.close()
            if self._events_file is not None:
                self._events_file.close()
            set_event_log(self._prev_event_log)
            set_metrics(self._prev_metrics)
        if self.queue is not None:
            self.queue.close()
        for path in (self.socket_path, self.pid_path):
            try:
                path.unlink()
            except OSError:
                pass
        if self._prior_wakeup_fd is not None:
            signal.set_wakeup_fd(self._prior_wakeup_fd)
            self._prior_wakeup_fd = None
        for sock in (self._wake_r, self._wake_w):
            if sock is not None:
                sock.close()

    def _summary(self) -> dict[str, Any]:
        stats = self.fleet.stats() if self.fleet is not None else {}
        depth = self.queue.depth() if self.queue is not None else {}
        return {
            "jobs_done": self.jobs_done,
            "jobs_failed": self.jobs_failed,
            "jobs_cancelled": self.jobs_cancelled,
            "retries": self.retries,
            "overloads": self.overloads,
            "degraded_jobs": stats.get("degraded_jobs", 0),
            "timeouts": stats.get("timeouts", 0),
            "lost_workers": stats.get("lost_workers", 0),
            "queue": depth,
        }

    def __enter__(self) -> "ServiceDaemon":
        return self.start()

    def __exit__(self, *exc: object) -> bool:
        self.close()
        return False

    # -- dispatch ------------------------------------------------------------

    def _checkpoint_path(self, job_id: str) -> Path:
        job_dir = self.jobs_dir / job_id
        job_dir.mkdir(parents=True, exist_ok=True)
        return job_dir / "scf.ckpt"

    def _dispatch_ready(self) -> None:
        """Hand ready jobs to idle workers.

        Per job: ONE fsync'd ``running`` record carrying the attempt and
        the registry run id minted for it claims the job — journal
        first, then the change, as for every transition — and then the
        hand-off.  The worker creates the run's ``trace/`` directory
        itself; registering the run is queued for
        :meth:`_flush_registry`, after every ready job is on its way.
        A cancel cannot land between the pick and the claim: it takes
        :attr:`_lock`, which the loop holds.
        """
        while self.fleet.idle_slots():
            job = self.queue.next_ready()
            if job is None:
                return
            ckpt = self._checkpoint_path(job.id)
            fields: dict[str, Any] = {"attempt": job.attempt + 1}
            handle = self._job_runs.get(job.id)
            run_id = (handle.run_id if handle is not None
                      else new_run_id() if self.registry is not None
                      else None)
            if run_id is not None:
                fields["run_id"] = run_id
            if ckpt.exists():
                # Trace assembly synthesizes the checkpoint.resume
                # segment from this flag.
                fields["resumed"] = True
            degraded = self.fleet.degrades(job)
            newly_degraded = degraded and not job.degraded
            if newly_degraded:
                fields["degraded"] = True
            self.queue.transition(job.id, "running", **fields)

            trace: dict[str, Any] | None = None
            if job.trace_id is not None and run_id is not None:
                trace = {
                    "trace_id": job.trace_id,
                    "root_span_id": job.root_span_id,
                    "obs_dir": str(self.registry.run_dir(run_id) / "trace"),
                }
            now_pt = time.perf_counter()
            timing = self._timing.setdefault(job.id, {
                "submit_pt": (job.client_t if job.client_t is not None
                              else now_pt),
                "ready_pt": now_pt,
                "queue_wait": 0.0,
                "run": 0.0,
            })
            timing["queue_wait"] += max(0.0, now_pt - timing["ready_pt"])
            timing["dispatch_pt"] = now_pt
            slot = self.fleet.dispatch(job, degraded=degraded,
                                       checkpoint=ckpt, restart=ckpt,
                                       trace=trace)
            if run_id is not None:
                self._registry_writes.append(partial(
                    self._record_job_run, job, run_id, newly_degraded))
            if newly_degraded:
                self.channel.emit(
                    "service.degraded",
                    job=job.id,
                    reason="process budget exhausted",
                    budget=self.config.process_budget,
                    in_use=self.fleet.process_ranks_in_use(),
                )
            self.channel.emit(
                "job.dispatched",
                job=job.id,
                attempt=job.attempt,
                slot=slot,
                degraded=job.degraded,
                resumed=job.interrupted or job.attempt > 1,
            )

    def _close_attempt_timing(self, job_id: str) -> dict[str, float]:
        """Fold the finished attempt into the job's latency accounting."""
        now_pt = time.perf_counter()
        timing = self._timing.setdefault(job_id, {
            "submit_pt": now_pt, "ready_pt": now_pt,
            "queue_wait": 0.0, "run": 0.0,
        })
        dispatch_pt = timing.pop("dispatch_pt", None)
        if dispatch_pt is not None:
            timing["run"] += max(0.0, now_pt - dispatch_pt)
        return timing

    def _latency_fields(self, job_id: str) -> dict[str, float]:
        """Terminal latency decomposition; pops the accounting entry."""
        timing = self._close_attempt_timing(job_id)
        self._timing.pop(job_id, None)
        total = max(0.0, time.perf_counter() - timing["submit_pt"])
        return {
            "queue_wait_s": round(timing["queue_wait"], 6),
            "run_s": round(timing["run"], 6),
            "total_s": round(total, 6),
        }

    def _observe_slo(self, job: Any, latency: dict[str, float],
                     *, failed: bool) -> None:
        if self.slo is None:
            return
        self.slo.observe_job(
            job_class(job.spec),
            queue_wait_s=latency["queue_wait_s"],
            run_s=latency["run_s"],
            total_s=latency["total_s"],
            failed=failed,
            job_id=job.id,
        )

    def _fold_outcome(self, outcome: JobOutcome) -> None:
        try:
            job = self.queue.get(outcome.job_id)
        except JobNotFound:  # pragma: no cover - cannot happen via fleet
            logger.warning("outcome for unknown job %s", outcome.job_id)
            return
        if outcome.kind == "done":
            self.jobs_done += 1
            latency = self._latency_fields(job.id)
            # The latency decomposition is journaled inside the result
            # payload, so batch clients read per-job queue-wait straight
            # from the acknowledged record (no telemetry tap needed).
            result = {**outcome.payload, **latency}
            self.queue.transition(
                job.id, "done",
                result=result,
                degraded=bool(job.degraded or result.get("degraded")),
                error=None, error_type=None,
            )
            self.channel.emit(
                "job.done",
                job=job.id,
                attempt=job.attempt,
                energy=result.get("energy"),
                iterations=result.get("iterations"),
                degraded=bool(job.degraded),
                warm_setup=result.get("warm_setup"),
                job_class=job_class(job.spec),
                **latency,
            )
            self._observe_slo(job, latency, failed=False)
            self._finalize_job_run(job.id, "done", summary={
                "energy": result.get("energy"),
                "converged": result.get("converged"),
                "iterations": result.get("iterations"),
                "attempts": job.attempt,
                "degraded": bool(job.degraded),
                **latency,
            })
            return

        # failed / lost / timeout
        error = outcome.payload.get("error", "job failed")
        error_type = outcome.payload.get("error_type")
        verdict = outcome.payload.get("classification") or classify(error_type)
        if verdict != TERMINAL and self.policy.should_retry(
            job.attempt, error_type
        ):
            delay = self.policy.delay_s(job.id, job.attempt)
            self.retries += 1
            timing = self._close_attempt_timing(job.id)
            # The backoff gate reopens queue-wait accounting then.
            timing["ready_pt"] = time.perf_counter() + delay
            self.queue.transition(
                job.id, "retrying",
                not_before=time.time() + delay,
                error=error, error_type=error_type,
            )
            self.channel.emit(
                "job.retrying",
                job=job.id,
                attempt=job.attempt,
                delay_s=round(delay, 4),
                error_type=error_type,
                outcome=outcome.kind,
            )
        else:
            self.jobs_failed += 1
            latency = self._latency_fields(job.id)
            self.queue.transition(
                job.id, "failed", error=error, error_type=error_type,
            )
            self.channel.emit(
                "job.failed",
                job=job.id,
                attempt=job.attempt,
                error_type=error_type,
                terminal=verdict == TERMINAL,
                outcome=outcome.kind,
                job_class=job_class(job.spec),
                **latency,
            )
            self._observe_slo(job, latency, failed=True)
            self._finalize_job_run(job.id, "failed", summary={
                "error": error,
                "error_type": error_type,
                "attempts": job.attempt,
                **latency,
            })

    def _record_job_run(self, job: Job, run_id: str, degraded: bool) -> None:
        """Register a dispatched job's registry run (first attempt in this
        daemon) and record a degradation on it."""
        handle = self._job_runs.get(job.id)
        if handle is None:
            handle = self.registry.register("job", run_id=run_id, config={
                "job_id": job.id,
                "tag": job.spec.tag,
                "basis": job.spec.basis,
                "algorithm": job.spec.algorithm,
                "backend": job.spec.backend,
                "nranks": job.spec.nranks,
                "nthreads": job.spec.nthreads,
                "trace_id": job.trace_id,
            })
            if handle is None:
                return
            self._job_runs[job.id] = handle
        if degraded:
            handle.record["degraded"] = True
            handle.save()

    def _finalize_job_run(self, job_id: str, status: str,
                          summary: dict[str, Any] | None = None) -> None:
        """Queue the close of a settled job's registry record."""
        handle = self._job_runs.pop(job_id, None)
        if handle is not None:
            self._registry_writes.append(
                partial(handle.finalize, status=status, summary=summary))

    def _flush_registry(self) -> None:
        """Write the registry records queued since the last flush, then
        apply the ``--keep`` retention policy.

        The dispatch loop flushes after its hand-offs: a worker never
        waits for a ``run.json`` — not its own, not its predecessor's.
        """
        writes, self._registry_writes = self._registry_writes, []
        for write in writes:
            write()
        if writes:
            self._prune_registry()

    def _prune_registry(self) -> None:
        """Apply the ``--keep`` retention policy."""
        if self.registry is None or self.config.keep_runs is None:
            return
        protect = {h.run_id for h in self._job_runs.values()}
        if self.serve_run is not None:
            protect.add(self.serve_run.run_id)
        try:
            self.registry.prune(keep_last=self.config.keep_runs,
                                protect=protect)
        except OSError as exc:  # pragma: no cover - fs failure path
            logger.warning("registry prune failed: %s", exc)

    # -- request handling ----------------------------------------------------

    def _accept_loop(self) -> None:
        assert self._server is not None
        while True:
            try:
                client, _ = self._server.accept()
            except OSError:
                return  # server closed
            threading.Thread(
                target=self._serve_client, args=(client,),
                name="service-request", daemon=True,
            ).start()

    def _serve_client(self, client: socket.socket) -> None:
        client.settimeout(10.0)
        try:
            try:
                request = json.loads(recv_line(client).decode() or "{}")
                response = self._handle(request)
            except ServiceError as exc:
                response = {"ok": False, "error": str(exc),
                            "error_type": type(exc).__name__}
                for attr in ("depth", "max_depth"):
                    value = getattr(exc, attr, None)
                    if value is not None:
                        response[attr] = value
            except Exception as exc:
                logger.exception("request handling failed")
                response = {"ok": False, "error": str(exc) or repr(exc),
                            "error_type": type(exc).__name__}
            client.sendall((json.dumps(response) + "\n").encode())
        except OSError:
            pass  # client went away; nothing to tell it
        finally:
            try:
                client.close()
            except OSError:  # pragma: no cover - teardown best effort
                pass

    def _handle(self, request: dict[str, Any]) -> dict[str, Any]:
        cmd = request.get("cmd")
        if cmd == "ping":
            return {
                "ok": True,
                "pid": os.getpid(),
                "socket": str(self.socket_path),
                "depth": self.queue.depth(),
                "fleet": self.fleet.stats(),
            }
        if cmd == "submit":
            spec = JobSpec.from_dict(request.get("spec") or {})
            try:
                job = self.queue.submit(spec, trace=request.get("trace"))
            except ServiceError:
                self.overloads += 1
                self.channel.emit(
                    "service.overloaded",
                    depth=self.queue.depth()["open"],
                    max_depth=self.config.max_queue_depth,
                )
                raise
            now_pt = time.perf_counter()
            self._timing[job.id] = {
                "submit_pt": (job.client_t if job.client_t is not None
                              else now_pt),
                "ready_pt": now_pt,
                "queue_wait": 0.0,
                "run": 0.0,
            }
            self._last_active = time.monotonic()
            # The reply describes the job as admitted; once the loop is
            # woken it may claim the job before the reply is written.
            admitted = job.public_dict()
            self.channel.emit(
                "job.submitted",
                job=job.id, tag=spec.tag, basis=spec.basis,
                algorithm=spec.algorithm, backend=spec.backend,
                trace_id=job.trace_id,
            )
            self._wake_loop()
            return {"ok": True, "job": admitted}
        if cmd == "status":
            # ``wait_s`` holds the reply until every job asked about is
            # terminal, so a waiting client needs no poll loop;
            # ``waited`` tells it this daemon honoured the field.
            job_id, ids = request.get("id"), request.get("ids")
            if job_id is not None:
                jobs = [self.queue.get(job_id)]
            elif ids is not None:
                jobs = [self.queue.get(i) for i in ids]
            else:
                jobs = list(self.queue)
            reply: dict[str, Any] = {"ok": True}
            if request.get("wait_s") is not None:
                self._wait_terminal(jobs, float(request["wait_s"]))
                reply["waited"] = True
            if job_id is not None:
                return {**reply, "job": jobs[0].public_dict()}
            return {
                **reply,
                "jobs": [j.public_dict() for j in jobs],
                "depth": self.queue.depth(),
                "fleet": self.fleet.stats(),
                "summary": self._summary(),
                "slo": self.slo.report() if self.slo else None,
            }
        if cmd == "cancel":
            job = self.queue.get(request.get("id") or "")
            with self._lock:
                was_open = job.open
                if job.state == "running":
                    self.fleet.cancel_job(job.id)
                    self.queue.transition(job.id, "cancelled",
                                          error="cancelled while running",
                                          error_type="JobCancelled")
                else:
                    self.queue.cancel(job.id)  # idempotent on terminal jobs
                if was_open and job.state == "cancelled":
                    self.jobs_cancelled += 1
                    self.channel.emit("job.cancelled", job=job.id)
                    self._finalize_job_run(job.id, "cancelled")
                    self._flush_registry()
                    self._wake_loop()  # a slot may have come free
                    self._notify_settled()
            return {"ok": True, "job": job.public_dict()}
        if cmd == "shutdown":
            self.request_stop()
            return {"ok": True, "pid": os.getpid()}
        raise ServiceError(f"unknown command {cmd!r}")

    def _wait_terminal(self, jobs: list[Any], wait_s: float) -> None:
        """Block the calling request thread until every one of ``jobs``
        is terminal, the daemon is stopping, or ``wait_s`` has passed."""
        def settled() -> bool:
            return self._stopping or all(
                j.state in TERMINAL_STATES for j in jobs)

        with self._settled:
            self._settled.wait_for(settled, timeout=min(wait_s, MAX_WAIT_S))


def serve(config: ServiceConfig) -> int:
    """Run a daemon to completion (the ``repro serve`` entry point)."""
    with ServiceDaemon(config) as daemon:
        daemon.install_signal_handlers()
        daemon.run_forever()
    return 0
