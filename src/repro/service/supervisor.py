"""Supervised worker fleet: persistent processes that run SCF jobs.

The fleet is the service's execution layer.  Each *slot* owns one
long-lived forked worker process running :func:`_service_worker_loop`:
jobs arrive over a per-slot command queue, results and heartbeats come
back over one shared outcome queue.  Workers persist across jobs, so a
stream of requests for the same system reuses the warm
molecule/basis/Schwarz setup (:func:`run_job`'s ``setup_cache``) —
the job-level analogue of the paper's persistent MPI fleet amortizing
setup across Fock builds.

Supervision reuses the PR-6 :class:`~repro.parallel.backend.heartbeat
.HeartbeatMonitor` verbatim — one "rank" per slot, one "cycle" per job
attempt: workers beat at job start and at every Fock-build boundary
(rate-limited), a busy slot silent past the deadline turns ``suspect``
and emits ``worker.hung``, a dead process is marked ``lost``.  On top
of liveness the fleet enforces **per-job deadlines**: a job running
past ``job_timeout_s`` has its worker SIGKILLed and respawned, and the
outcome surfaces as a retryable :class:`~repro.service.errors
.JobTimeoutError`.

The fleet never sleeps and is never polled on a clock.  It tells its
owner what to block on — :meth:`WorkerFleet.waitables` (the outcome
queue's read end and the process sentinel of every busy worker) and
:meth:`WorkerFleet.next_deadline` (the earliest job deadline or
heartbeat-suspect horizon) — and :meth:`WorkerFleet.poll` is what the
owner calls when one of those fires.

Graceful degradation: the fleet carries a *process budget* — the
number of real backend worker processes it may run concurrently.  A
job that asks for ``backend: process`` beyond the budget (or whose
process backend fails to come up, e.g. shared memory exhaustion) is
executed on the sim backend instead, flagged ``degraded`` — the
service answers slowly rather than failing loudly.
"""

from __future__ import annotations

import logging
import multiprocessing as mp
import os
import signal
import time
from dataclasses import dataclass, field, replace
from multiprocessing.connection import wait as mp_wait
from pathlib import Path
from typing import Any, Callable

from repro.obs.telemetry import get_telemetry
from repro.parallel.backend.heartbeat import HeartbeatMonitor, make_beat
from repro.service.errors import JobSpecError
from repro.service.jobs import Job, JobSpec
from repro.service.retry import classify

logger = logging.getLogger("repro.service.supervisor")

#: Exit code of a chaos-killed service worker (mirrors the backend's).
KILLED_EXIT_CODE = 17

#: Per-worker warm-setup cache entries (molecule + basis pairs).
SETUP_CACHE_SIZE = 8

#: Default job wall-clock deadline.
DEFAULT_JOB_TIMEOUT_S = 120.0

#: Default heartbeat-silence deadline before a busy slot turns suspect.
DEFAULT_HEARTBEAT_TIMEOUT_S = 10.0

#: Default worker beat rate limit.
DEFAULT_BEAT_INTERVAL_S = 0.25


def run_job(
    spec: JobSpec,
    *,
    attempt: int = 1,
    checkpoint: str | Path | None = None,
    restart: str | Path | None = None,
    checkpoint_every: int = 1,
    beat: Callable[[int, str], None] | None = None,
    emit: Callable[..., None] | None = None,
    setup_cache: dict[str, Any] | None = None,
    eri_cache_pool: dict[Any, Any] | None = None,
    force_backend: str | None = None,
    allow_exit: bool = False,
) -> dict[str, Any]:
    """Execute one SCF job; returns the acknowledgeable result summary.

    Used by the fleet's worker processes and — for the degraded inline
    path — by the daemon itself, which is why the chaos ``os._exit``
    knob is gated on ``allow_exit`` (a worker may die for the chaos
    suite; the daemon must not).

    ``checkpoint`` / ``restart`` are the PR-3 checkpoint mechanics: the
    job checkpoints every ``checkpoint_every`` cycles, and a retry or a
    journal-replayed job resumes from the last checkpoint bitwise
    identically instead of recomputing converged cycles.  A restart
    file that cannot seed this run — torn, garbage, another format
    version, another system — is *no checkpoint*: ``emit`` is told
    ``checkpoint.discarded`` and the job starts from cycle 0.

    ``eri_cache_pool`` is the cross-*job* analogue of ``setup_cache``:
    a per-worker pool of :class:`~repro.integrals.cache.QuartetCache`
    instances keyed by ``(setup_key, eri_cache_mb)``.  A sim-backend
    job whose system was run before on this worker starts with every
    surviving quartet block already cached — its first Fock build hits
    instead of recomputing, which is what makes batching many small
    jobs of the same system pay (cached blocks are read-only, so reuse
    cannot change the energy).  Process-backend jobs skip the pool:
    their Fock builds happen in forked ranks whose cache fills would
    be lost on exit.
    """
    from repro.chem.basis import BasisSet
    from repro.chem.molecule import Molecule
    from repro.core.scf_driver import ParallelSCF, build_scf
    from repro.integrals.cache import QuartetCache
    from repro.resilience import (
        CheckpointError,
        CheckpointManager,
        load_checkpoint,
    )

    spec.validate()
    backend = force_backend or spec.backend
    degraded = backend != spec.backend

    warm_setup = False
    key = spec.setup_key()
    if setup_cache is not None and key in setup_cache:
        mol, basis = setup_cache[key]
        warm_setup = True
    else:
        mol = Molecule.from_xyz(spec.xyz, charge=spec.charge)
        basis = BasisSet(mol, spec.basis)
        if setup_cache is not None:
            if len(setup_cache) >= SETUP_CACHE_SIZE:
                setup_cache.pop(next(iter(setup_cache)))
            setup_cache[key] = (mol, basis)

    pooled_cache: QuartetCache | None = None
    eri_preloaded = False
    eri_stats_before: dict[str, Any] | None = None

    def build(backend_name: str) -> ParallelSCF:
        nonlocal pooled_cache, eri_preloaded, eri_stats_before
        pooled_cache = None
        if (eri_cache_pool is not None and backend_name == "sim"
                and spec.eri_cache_mb is not None):
            pool_key = (key, float(spec.eri_cache_mb))
            pooled_cache = eri_cache_pool.get(pool_key)
            if pooled_cache is None:
                pooled_cache = QuartetCache.from_mb(spec.eri_cache_mb)
                if len(eri_cache_pool) >= SETUP_CACHE_SIZE:
                    eri_cache_pool.pop(next(iter(eri_cache_pool)))
                eri_cache_pool[pool_key] = pooled_cache
            eri_stats_before = pooled_cache.stats()
            eri_preloaded = eri_stats_before["entries"] > 0
        return build_scf(
            replace(spec, backend=backend_name), basis,
            eri_cache=pooled_cache,
        )

    try:
        scf = build(backend)
    except OSError as exc:
        if backend != "process":
            raise
        # Real worker processes could not come up (fork limit, shared
        # memory exhaustion): degrade to the sim backend rather than
        # failing the job.
        logger.warning("process backend unavailable (%s); degrading "
                       "job to sim backend", exc)
        backend, degraded = "sim", True
        scf = build(backend)

    die_here = (
        allow_exit
        and spec.die_on_attempt is not None
        and attempt == spec.die_on_attempt
    )
    orig_builder = scf.driver.fock_builder
    builds = 0

    def wrapped_builder(*densities):
        nonlocal builds
        if die_here and builds >= spec.die_after_builds:
            # Chaos: this *service worker* dies for real, mid-job —
            # no result message, a half-finished SCF, a journal entry
            # stuck at "running".  The supervisor must notice, respawn,
            # and the retry must resume from the checkpoint.
            os._exit(KILLED_EXIT_CODE)
        if spec.cycle_delay_s > 0:
            time.sleep(spec.cycle_delay_s)
        if beat is not None:
            beat(builds, "build")
        out = orig_builder(*densities)
        builds += 1
        return out

    scf.driver.fock_builder = wrapped_builder

    run_kwargs: dict[str, Any] = {}
    if checkpoint is not None:
        checkpoint = Path(checkpoint)
        # This attempt owns the path: whatever an attempt killed inside
        # its write left beside it is dead weight.
        for stale in checkpoint.parent.glob(f"{checkpoint.name}.*.tmp"):
            stale.unlink(missing_ok=True)
        run_kwargs["checkpoint"] = CheckpointManager(
            checkpoint, every=checkpoint_every
        )
    if restart is not None and Path(restart).exists():
        try:
            state = load_checkpoint(restart)
            state.check_compatible(
                kind=spec.method, nbf=basis.nbf,
                nelectrons=mol.nelectrons,
            )
        except CheckpointError as exc:
            logger.warning("discarding checkpoint %s: %s", restart, exc)
            if emit is not None:
                emit("checkpoint.discarded", path=str(restart),
                     reason=str(exc))
        else:
            run_kwargs["restart"] = state

    try:
        res = scf.run(**run_kwargs)
    finally:
        scf.shutdown()

    eri_hits = eri_misses = None
    if pooled_cache is not None and eri_stats_before is not None:
        after = pooled_cache.stats()
        eri_hits = int(after["hits"] - eri_stats_before["hits"])
        eri_misses = int(after["misses"] - eri_stats_before["misses"])

    return {
        "energy": float(res.energy),
        "converged": bool(res.converged),
        "iterations": res.scf.niterations,
        "quartets_computed": int(res.total_quartets_computed),
        "backend": backend,
        "degraded": degraded,
        "warm_setup": warm_setup,
        "eri_cache_preloaded": eri_preloaded,
        "eri_cache_hits": eri_hits,
        "eri_cache_misses": eri_misses,
        "resumed": "restart" in run_kwargs,
        # UHF only, so an RHF result reads as it always has.
        **({"s_squared": float(res.scf.s_squared)}
           if spec.method == "uhf" else {}),
    }


def _service_worker_loop(slot: int, cmd: Any, out: Any,
                         cfg: dict[str, Any]) -> None:
    """One persistent fleet worker: serve job commands until ``stop``.

    Forked from the daemon, so the first order of business is shedding
    inherited parent state: the daemon's listening sockets (a child
    holding the listen fd would make a dead daemon's socket accept
    connections forever) and the parent's global telemetry/event/metric
    instruments (publishing from here would interleave onto the
    parent's subscriber sockets).
    """
    from repro.obs.events import set_event_log
    from repro.obs.export import span_line
    from repro.obs.logctl import set_log_context
    from repro.obs.metrics import MetricsRegistry, set_metrics
    from repro.obs.stream import NDJSONStreamWriter
    from repro.obs.telemetry import set_telemetry
    from repro.obs.tracer import TraceContext, Tracer, set_tracer

    for fd in cfg.get("close_fds", ()):
        try:
            os.close(fd)
        except OSError:
            pass
    set_telemetry(None)
    set_event_log(None)
    set_metrics(MetricsRegistry())
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # daemon handles ^C

    pid = os.getpid()
    interval = cfg.get("beat_interval_s", DEFAULT_BEAT_INTERVAL_S)
    setup_cache: dict[str, Any] = {}
    # Cross-job ERI block pool (see run_job): persists with the worker,
    # so a batch of same-system jobs computes its quartets exactly once.
    eri_cache_pool: dict[Any, Any] = {}

    while True:
        msg = cmd.get()
        if msg[0] == "stop":
            return
        job = msg[1]
        spec = JobSpec.from_dict(job["spec"])
        job_id, attempt = job["id"], int(job["attempt"])
        last_beat = 0.0

        def beat(builds: int, phase: str) -> None:
            """Rate-limited in-band heartbeat (never blocks, never raises)."""
            nonlocal last_beat
            now = time.monotonic()
            if phase == "build" and now - last_beat < interval:
                return
            last_beat = now
            try:
                out.put_nowait(("beat", make_beat(
                    slot, pid, attempt, phase,
                    t=time.perf_counter(), claimed=builds,
                )))
            except Exception:  # pragma: no cover - full queue
                pass

        def emit(kind: str, **payload: Any) -> None:
            """A telemetry record for the daemon to publish on our behalf."""
            out.put(("event", slot, job_id, kind, payload))

        # Distributed trace plumbing: when the daemon handed us a trace
        # context, install a live tracer parented on the job's root span
        # and stream every completed span to a per-attempt NDJSON file.
        # Line-buffered appends survive the chaos os._exit, and one file
        # per attempt keeps a SIGKILL'd attempt's spans separable from
        # its retry's during assembly.
        trace = job.get("trace") or {}
        span_writer = None
        attempt_span = None
        if trace.get("trace_id") and trace.get("obs_dir"):
            try:
                span_writer = NDJSONStreamWriter(
                    Path(trace["obs_dir"]) /
                    f"attempt-{attempt:03d}.spans.ndjson")
                writer = span_writer
                tracer = Tracer(
                    context=TraceContext(trace["trace_id"],
                                         trace["root_span_id"]),
                    # t0=0.0: absolute perf_counter timestamps, the
                    # cross-process time base assembly aligns on.
                    on_close=lambda s: writer.write_line(span_line(s, 0.0)),
                )
                set_tracer(tracer)
                attempt_span = tracer.span(
                    "job/attempt", job=job_id, attempt=attempt,
                    slot=slot, worker_pid=pid,
                )
                attempt_span.__enter__()
            except OSError:
                span_writer = None
                attempt_span = None
        set_log_context(job_id=job_id, trace_id=trace.get("trace_id"))

        beat(0, "start")
        if spec.sleep_s > 0:
            # The wedge knob: silence after the start beat is exactly
            # what the hung-job detector is built to catch.
            time.sleep(spec.sleep_s)
        try:
            result = run_job(
                spec,
                attempt=attempt,
                checkpoint=job.get("checkpoint"),
                restart=job.get("restart"),
                checkpoint_every=cfg.get("checkpoint_every", 1),
                beat=beat,
                emit=emit,
                setup_cache=setup_cache,
                eri_cache_pool=eri_cache_pool,
                force_backend=job.get("force_backend"),
                allow_exit=True,
            )
        except Exception as exc:
            out.put(("failed", slot, job_id, {
                "error": str(exc) or type(exc).__name__,
                "error_type": type(exc).__name__,
                "classification": classify(exc),
            }))
        else:
            beat(result.get("iterations", 0), "done")
            out.put(("done", slot, job_id, result))
        finally:
            if attempt_span is not None:
                attempt_span.__exit__(None, None, None)
            set_tracer(None)
            if span_writer is not None:
                span_writer.close()
            set_log_context(job_id=None, trace_id=None)


def _exiting(proc: Any) -> bool:
    """Whether ``proc`` has died, by its sentinel rather than ``waitpid``.

    The sentinel reads EOF a few milliseconds before the process can be
    reaped; in between ``is_alive()`` still says yes, and a loop woken
    by the sentinel would spin on that answer until it changes.
    """
    return bool(mp_wait([proc.sentinel], 0))


@dataclass
class WorkerSlot:
    """Parent-side record of one fleet worker."""

    index: int
    proc: Any = None
    cmd: Any = None
    job_id: str | None = None
    attempt: int = 0
    process_ranks: int = 0  # real backend workers this job consumes
    deadline: float | None = None
    started: float | None = None
    respawns: int = 0

    @property
    def busy(self) -> bool:
        return self.job_id is not None


@dataclass
class JobOutcome:
    """One terminal fleet event the daemon must act on."""

    kind: str  # done | failed | lost | timeout
    slot: int
    job_id: str
    payload: dict[str, Any] = field(default_factory=dict)


class WorkerFleet:
    """Fixed-size supervised pool of persistent job workers.

    Not thread-safe: an owner that cancels from one thread while another
    polls and dispatches serialises the two itself (the daemon does).
    """

    def __init__(
        self,
        size: int,
        *,
        job_timeout_s: float = DEFAULT_JOB_TIMEOUT_S,
        heartbeat_interval_s: float = DEFAULT_BEAT_INTERVAL_S,
        heartbeat_timeout_s: float = DEFAULT_HEARTBEAT_TIMEOUT_S,
        process_budget: int = 4,
        checkpoint_every: int = 1,
        close_fds: tuple[int, ...] = (),
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if size < 1:
            raise ValueError(f"fleet size must be >= 1, got {size}")
        if job_timeout_s <= 0:
            raise ValueError(f"job_timeout_s must be > 0, got {job_timeout_s}")
        if process_budget < 0:
            raise ValueError("process_budget must be >= 0")
        self.size = size
        self.job_timeout_s = job_timeout_s
        self.process_budget = process_budget
        self.clock = clock
        self._ctx = mp.get_context("fork")
        self._out = self._ctx.Queue()
        self._cfg = {
            "beat_interval_s": heartbeat_interval_s,
            "checkpoint_every": checkpoint_every,
            "close_fds": tuple(close_fds),
        }
        self.slots = [WorkerSlot(index=i) for i in range(size)]
        self.monitor = HeartbeatMonitor(size, timeout_s=heartbeat_timeout_s)
        self.degraded_jobs = 0
        self.timeouts = 0
        self.lost_workers = 0
        self._closed = False
        for slot in self.slots:
            self._spawn(slot)

    # -- worker lifecycle ----------------------------------------------------

    def _spawn(self, slot: WorkerSlot) -> None:
        slot.cmd = self._ctx.Queue()
        slot.proc = self._ctx.Process(
            target=_service_worker_loop,
            args=(slot.index, slot.cmd, self._out, self._cfg),
            name=f"scf-job-worker-{slot.index}",
            daemon=False,  # must be able to fork process-backend workers
        )
        slot.proc.start()

    def _ensure_alive(self, slot: WorkerSlot) -> None:
        if slot.proc is None or not slot.proc.is_alive():
            if slot.proc is not None:
                slot.proc.join(timeout=1)
                slot.respawns += 1
            self._spawn(slot)

    def _kill(self, slot: WorkerSlot) -> None:
        """SIGKILL a slot's worker (deadline breach or cancel)."""
        proc = slot.proc
        if proc is not None and proc.is_alive():
            try:
                os.kill(proc.pid, signal.SIGKILL)
            except (OSError, TypeError):  # pragma: no cover - racing exit
                pass
            proc.join(timeout=5)
        slot.proc = None

    # -- dispatch ------------------------------------------------------------

    def idle_slots(self) -> list[WorkerSlot]:
        return [s for s in self.slots if not s.busy]

    def busy_slots(self) -> list[WorkerSlot]:
        return [s for s in self.slots if s.busy]

    def process_ranks_in_use(self) -> int:
        return sum(s.process_ranks for s in self.slots)

    def dispatch(
        self,
        job: Job,
        *,
        checkpoint: str | Path | None = None,
        restart: str | Path | None = None,
        trace: dict[str, Any] | None = None,
    ) -> dict[str, Any]:
        """Hand one claimed job to an idle slot.

        Returns ``{"slot": i, "degraded": bool}``.  Raises
        ``RuntimeError`` when no slot is idle (the daemon checks
        first).  The degrade decision happens here: a process-backend
        job that would push the fleet past its process budget runs on
        the sim backend instead.

        ``trace`` carries the job's distributed-trace context down to
        the worker: ``{"trace_id": …, "root_span_id": …, "obs_dir": …}``
        — the worker installs a tracer parented on ``root_span_id`` and
        streams its per-attempt span NDJSON under ``obs_dir``.
        """
        idle = self.idle_slots()
        if not idle:
            raise RuntimeError("no idle worker slot")
        slot = idle[0]
        self._ensure_alive(slot)

        force_backend = None
        degraded = False
        process_ranks = 0
        if job.spec.backend == "process":
            if (self.process_ranks_in_use() + job.spec.nranks
                    > self.process_budget):
                force_backend = "sim"
                degraded = True
                self.degraded_jobs += 1
            else:
                process_ranks = job.spec.nranks

        slot.job_id = job.id
        slot.attempt = job.attempt
        slot.process_ranks = process_ranks
        slot.started = self.clock()
        slot.deadline = slot.started + self.job_timeout_s
        # Arm the liveness reference beat: a worker that never says
        # anything at all still times out.
        self.monitor.record(make_beat(
            slot.index, slot.proc.pid, job.attempt, "dispatched",
            t=time.perf_counter(),
        ))
        slot.cmd.put(("job", {
            "id": job.id,
            "attempt": job.attempt,
            "spec": job.spec.to_dict(),
            "checkpoint": None if checkpoint is None else str(checkpoint),
            "restart": None if restart is None else str(restart),
            "force_backend": force_backend,
            "trace": trace,
        }))
        return {"slot": slot.index, "degraded": degraded}

    # -- supervision ---------------------------------------------------------

    def _free(self, slot: WorkerSlot) -> None:
        slot.job_id = None
        slot.attempt = 0
        slot.process_ranks = 0
        slot.deadline = None
        slot.started = None

    def waitables(self) -> list[Any]:
        """What a blocking wait must watch for this fleet to be served.

        The outcome queue's read end (results, heartbeats, worker
        events) and the sentinel of every busy worker (a death is an
        event, not something to discover later).  Suitable for
        :func:`multiprocessing.connection.wait`.
        """
        return [self._out._reader] + [
            s.proc.sentinel for s in self.slots
            if s.busy and s.proc is not None
        ]

    def next_deadline(self) -> float | None:
        """When :meth:`poll` next has something to do with no event
        arriving, on ``self.clock``: the earliest job deadline or
        heartbeat-suspect horizon of a busy slot.  ``None`` when idle."""
        busy = self.busy_slots()
        due = [s.deadline for s in busy if s.deadline is not None]
        silent_in = self.monitor.next_suspect_in({s.index for s in busy})
        if silent_in is not None:
            due.append(self.clock() + silent_in)
        return min(due, default=None)

    def poll(self) -> list[JobOutcome]:
        """Drain beats/results, enforce deadlines, detect dead workers.

        Returns the terminal outcomes the owner must fold into the
        durable queue.  Called whenever something in :meth:`waitables`
        is ready or :meth:`next_deadline` has passed.
        """
        import queue as queue_mod

        outcomes: list[JobOutcome] = []
        while True:
            try:
                msg = self._out.get_nowait()
            except queue_mod.Empty:
                break
            except (OSError, EOFError):  # pragma: no cover - teardown race
                break
            if msg[0] == "beat":
                self.monitor.record(msg[1])
                continue
            if msg[0] == "event":
                _, slot_idx, job_id, kind, payload = msg
                channel = get_telemetry()
                if channel is not None:
                    channel.publish(kind, source=f"worker{slot_idx}",
                                    job=job_id, **payload)
                continue
            kind, slot_idx, job_id, payload = msg
            slot = self.slots[slot_idx]
            if slot.job_id != job_id:
                continue  # stale result from a killed-then-replaced job
            self.monitor.mark_done(slot_idx)
            self._free(slot)
            outcomes.append(JobOutcome(kind=kind, slot=slot_idx,
                                       job_id=job_id, payload=payload))

        now = self.clock()
        for slot in self.slots:
            if not slot.busy:
                continue
            if slot.deadline is not None and now >= slot.deadline:
                # Deadline breach: kill-and-respawn, surface a
                # retryable timeout.
                job_id = slot.job_id
                elapsed = now - (slot.started or now)
                self._kill(slot)
                self.monitor.mark_lost(slot.index)
                self.timeouts += 1
                self._free(slot)
                self._ensure_alive(slot)
                outcomes.append(JobOutcome(
                    kind="timeout", slot=slot.index, job_id=job_id,
                    payload={
                        "error": (f"job exceeded its {self.job_timeout_s:g}s "
                                  f"deadline (ran {elapsed:.1f}s)"),
                        "error_type": "JobTimeoutError",
                    },
                ))
            elif slot.proc is None or _exiting(slot.proc):
                # The worker died underneath the job (chaos kill, OOM
                # kill, crash): retryable, respawn the slot.
                job_id = slot.job_id
                exitcode = None
                if slot.proc is not None:
                    slot.proc.join(timeout=1)
                    exitcode = slot.proc.exitcode
                slot.proc = None
                self.monitor.mark_lost(slot.index)
                self.lost_workers += 1
                self._free(slot)
                self._ensure_alive(slot)
                outcomes.append(JobOutcome(
                    kind="lost", slot=slot.index, job_id=job_id,
                    payload={
                        "error": (f"worker process died "
                                  f"(exit code {exitcode})"),
                        "error_type": "WorkerLostError",
                    },
                ))
        # Busy-but-silent slots turn suspect here (worker.hung events).
        self.monitor.check({s.index for s in self.slots if s.busy})
        return outcomes

    def cancel_job(self, job_id: str) -> bool:
        """Kill the worker running ``job_id``; True when one was found."""
        for slot in self.slots:
            if slot.job_id == job_id:
                self._kill(slot)
                self.monitor.mark_lost(slot.index)
                self._free(slot)
                self._ensure_alive(slot)
                return True
        return False

    def stats(self) -> dict[str, Any]:
        return {
            "size": self.size,
            "busy": len(self.busy_slots()),
            "process_budget": self.process_budget,
            "process_ranks_in_use": self.process_ranks_in_use(),
            "degraded_jobs": self.degraded_jobs,
            "timeouts": self.timeouts,
            "lost_workers": self.lost_workers,
            "respawns": sum(s.respawns for s in self.slots),
            "suspects": self.monitor.suspects(),
        }

    # -- teardown ------------------------------------------------------------

    def shutdown(self) -> None:
        """Stop idle workers politely, kill busy/stuck ones."""
        if self._closed:
            return
        self._closed = True
        for slot in self.slots:
            if slot.proc is None or not slot.proc.is_alive():
                continue
            if slot.busy:
                self._kill(slot)
                continue
            try:
                slot.cmd.put(("stop",))
            except Exception:  # pragma: no cover - teardown best effort
                pass
        for slot in self.slots:
            proc = slot.proc
            if proc is None:
                continue
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - teardown best effort
                proc.terminate()
                proc.join(timeout=5)
            slot.proc = None

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.shutdown()
        except Exception:
            pass
