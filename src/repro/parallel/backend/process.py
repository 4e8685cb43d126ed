"""Real-process execution backend (``multiprocessing`` fork workers).

:class:`ProcessFockBuilder` runs the *same rank programs* the sim
backend executes — ``builder.rank_program(rank, grants, density, W)``
verbatim — but on real OS processes:

* The density, the Schwarz screening matrix, and one Fock accumulator
  slab per rank live in ``multiprocessing.shared_memory`` blocks
  (:class:`~repro.parallel.shared_array.SharedNDArray`); workers are
  forked, so they inherit the mappings and read/write the same physical
  pages — the process analogue of the paper's shared-density setup.
* The DLB is the real DDI protocol: a lock-backed shared counter
  (:class:`~repro.parallel.backend.counter.SharedTaskCounter`) serving
  ``dlbnext`` grants whose rank assignment depends on arrival timing.
  Grant interleaving is genuinely nondeterministic; the reduced Fock
  matrix is partition-independent, which the parity suite certifies
  against the deterministic sim backend (<= 1e-10 Hartree).  Under
  ``schedule="static"`` there is no counter at all: each build command
  carries the rank's pre-computed share and the worker walks that list.
* The reduction is performed by the parent in rank order — the same
  floating-point association as the sim world's slot reduction — after
  all workers report.

Fault injection is *real* here: a :class:`~repro.resilience.faults
.FaultPlan` ``kill`` event makes the worker ``os._exit`` at a
task-claim boundary mid-build (no result, partial slab); ``delay``
events put the worker to sleep.  Recovery is parent-side: a lost
worker's slab is zeroed and its tasks (the counter's owner board
remembers its claims, in claim order; a static rank's are its whole
share) are replayed by the parent into the same reduction slot, then
the worker is respawned for the next build.  ``corrupt`` events are a
wire-level sim concept and do not fire in this backend.

Observability: each worker traces its rank program into per-worker
spans/events NDJSON under ``obs_dir/worker<r>/``, timestamped against
one shared ``perf_counter`` base (``CLOCK_MONOTONIC`` is common across
processes on a host), so :func:`worker_obs_run` can hand the whole
worker fleet to
:func:`~repro.obs.analysis.timeline.merged_chrome_trace` as a single
aligned timeline.  Records are streamed *incrementally* (line-buffered
append via :class:`~repro.obs.stream.ObsStreamer`): a worker killed by
``os._exit`` mid-build leaves every span and event it completed on
disk, not in a lost buffer.

Liveness: workers send in-band heartbeats (build start, every DLB
claim boundary rate-limited to ``heartbeat_interval_s``, build done)
over a shared queue; the parent's
:class:`~repro.parallel.backend.heartbeat.HeartbeatMonitor` flags any
pending rank silent past ``heartbeat_timeout_s`` as ``suspect`` and
emits a ``worker.hung`` event — a stalled worker becomes visible in
seconds instead of at the build timeout.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue as queue_mod
import time
from pathlib import Path
from typing import Any

import numpy as np

from repro.obs.events import EventLog, events_from_ndjson, get_event_log
from repro.obs.metrics import get_metrics
from repro.obs.stream import ObsStreamer
from repro.obs.telemetry import get_telemetry
from repro.obs.tracer import Tracer, get_tracer, use_tracer
from repro.parallel.backend.base import ExecutionBackend
from repro.parallel.backend.counter import SharedTaskCounter
from repro.parallel.backend.heartbeat import (
    DEFAULT_INTERVAL_S,
    DEFAULT_TIMEOUT_S,
    HeartbeatMonitor,
    make_beat,
)
from repro.parallel.shared_array import SharedNDArray

#: Injected-kill exit code (distinguishes chaos deaths in diagnostics).
KILLED_EXIT_CODE = 17

#: Hard ceiling on one Fock build's wall time before the parent gives up.
DEFAULT_BUILD_TIMEOUT_S = 120.0


class BuildTimeoutError(RuntimeError):
    """A process-backend Fock build exceeded its wall-clock budget."""


class WorkerGeometryError(ValueError):
    """Builder geometry and backend worker count disagree."""


def _worker_loop(
    rank: int,
    builder: Any,
    counter: Any,
    density: SharedNDArray,
    slabs: SharedNDArray,
    cmd: Any,
    results: Any,
    hb: Any,
    cfg: dict,
) -> None:
    """One worker process: serve ``("build", cycle, tau, share)`` commands forever.

    Everything else arrives through fork inheritance (no pickling): the
    sim builder (whose ``rank_program`` we execute), the shared counter
    (``None`` under ``schedule="static"``, where ``share`` is this
    rank's whole grant sequence), the shared-memory views, and the
    heartbeat queue.
    """
    tracer = Tracer() if cfg["obs_dir"] is not None else None
    log = EventLog() if cfg["obs_dir"] is not None else None
    streamer = (
        ObsStreamer(
            Path(cfg["obs_dir"]) / f"worker{rank}",
            tracer=tracer, log=log, t0=cfg["t0"],
        )
        if cfg["obs_dir"] is not None
        else None
    )
    plan = builder.fault_plan
    D = density.array
    W = slabs.array[rank]
    pid = os.getpid()
    interval = cfg["heartbeat_s"]
    last_beat = 0.0

    def beat(phase: str, cycle: int, claimed: int = 0) -> None:
        """Send one in-band heartbeat (never blocks, never raises)."""
        nonlocal last_beat
        now = time.perf_counter()
        last_beat = now
        span = tracer.current.name if tracer and tracer.current else None
        try:
            hb.put_nowait(
                make_beat(rank, pid, cycle, phase, t=now - cfg["t0"],
                          claimed=claimed, span=span)
            )
        except Exception:  # pragma: no cover - full queue is diagnostic loss
            pass

    while True:
        msg = cmd.get()
        if msg[0] == "stop":
            if streamer is not None:
                streamer.close()
            return
        _, cycle, tau, share = msg
        if tau != builder.screening.tau:
            # The parent retuned the screening threshold between builds
            # (incremental-Fock density screening); follow suit.  The
            # clone shares the shared-memory Schwarz pages.
            builder.screening = builder.screening.with_tau(tau)
        if interval is not None:
            beat("start", cycle)
        kill_after = plan.kill_after(rank, cycle) if plan is not None else None
        factor = plan.delay_factor(rank, cycle) if plan is not None else 1.0
        if factor > 1.0:
            # A real straggler: this worker sleeps, the shared counter
            # shifts its grants to the faster ranks automatically — and
            # the heartbeat goes silent, which is exactly how the
            # parent tells a stall from slow progress.
            if log is not None:
                log.emit("fault.delay", rank=rank, cycle=cycle, factor=factor)
            time.sleep(min(0.2, 0.02 * (factor - 1.0)))
        rng = (
            np.random.default_rng([cfg["schedule_seed"], rank, cycle])
            if cfg["schedule_seed"] is not None
            else None
        )

        claims = (
            iter(lambda: counter.next(rank), None) if share is None
            else iter(share)
        )
        claim_count = 0

        def grants():
            nonlocal claim_count
            done = 0
            while True:
                if kill_after is not None and done >= kill_after:
                    # Die *for real*, mid-build, at the claim boundary:
                    # no result message, a partially-written slab, and
                    # a counter that keeps serving the survivors.  The
                    # parent replays our claimed tasks and respawns us.
                    # Streamed obs records are already on disk.
                    if log is not None:
                        log.emit(
                            "fault.kill", rank=rank, cycle=cycle, after=done
                        )
                    os._exit(KILLED_EXIT_CODE)
                if rng is not None:
                    # Scheduling jitter for nondeterminism hunting:
                    # perturb claim arrival order between runs.
                    time.sleep(float(rng.random()) * 2e-4)
                if (
                    interval is not None
                    and time.perf_counter() - last_beat >= interval
                ):
                    beat("claim", cycle, claimed=done)
                t = next(claims, None)
                if t is None:
                    return
                yield t
                done += 1
                claim_count = done

        if tracer is not None:
            with use_tracer(tracer):
                with tracer.span(
                    "fock/rank", rank=rank, cycle=cycle,
                    pid=pid, backend="process",
                ):
                    rr = builder.rank_program(rank, grants(), D, W)
            # Streamed on close; drop the in-memory copies.
            tracer.clear()
            if log is not None:
                log.clear()
        else:
            rr = builder.rank_program(rank, grants(), D, W)
        if interval is not None:
            beat("done", cycle, claimed=claim_count)
        results.put((rank, cycle, rr.as_dict()))


class ProcessFockBuilder:
    """Drop-in for the builder it wraps, on real processes.

    ``builder(density) -> (fock, stats)`` around an RHF builder,
    ``builder(d_alpha, d_beta) -> (F_alpha, F_beta, stats)`` around the
    UHF one, whose accumulator stacks the spin pair.

    Wraps a sim builder constructed with ``nranks == workers``; the sim
    object itself crosses the fork into every worker, so its
    ``rank_program`` — including screening, the quartet engine, and the
    fault plan — is byte-for-byte the code the sim backend runs.
    """

    def __init__(
        self,
        inner: Any,
        *,
        workers: int,
        schedule_seed: int | None = None,
        obs_dir: str | Path | None = None,
        build_timeout_s: float = DEFAULT_BUILD_TIMEOUT_S,
        heartbeat_interval_s: float | None = DEFAULT_INTERVAL_S,
        heartbeat_timeout_s: float = DEFAULT_TIMEOUT_S,
    ) -> None:
        if workers < 1:
            raise WorkerGeometryError(f"workers must be >= 1, got {workers}")
        if inner.nranks != workers:
            raise WorkerGeometryError(
                f"builder was configured for nranks={inner.nranks} but the "
                f"process backend runs {workers} worker(s); construct the "
                "builder with nranks == workers"
            )
        self.inner = inner
        self.workers = workers
        self.build_timeout_s = build_timeout_s
        self._ctx = mp.get_context("fork")
        shape = tuple(inner.accumulator_shape)
        self._density = SharedNDArray(shape)
        self._slabs = SharedNDArray((workers, *shape))
        # dlb draws from the shared counter; a static rank walks its own
        # pre-computed share, which needs no shared state at all.
        self._counter = (
            SharedTaskCounter(inner.dlb_ntasks(), ctx=self._ctx)
            if inner.schedule == "dlb" else None
        )
        # Re-home the Schwarz matrix in shared memory *before* any fork:
        # workers then screen against the same physical pages instead of
        # copy-on-write duplicates.
        self._schwarz = SharedNDArray(inner.screening.Q.shape)
        self._schwarz.array[:] = inner.screening.Q
        inner.screening.Q = self._schwarz.array
        self._cfg = {
            "schedule_seed": schedule_seed,
            "obs_dir": None if obs_dir is None else str(obs_dir),
            "t0": time.perf_counter(),  # shared trace base for all workers
            "heartbeat_s": heartbeat_interval_s,
        }
        self._procs: list[Any] = [None] * workers
        self._cmds: list[Any] = [None] * workers
        self._results = self._ctx.Queue()
        self._hb = self._ctx.Queue()
        self.heartbeat: HeartbeatMonitor | None = (
            HeartbeatMonitor(workers, timeout_s=heartbeat_timeout_s)
            if heartbeat_interval_s is not None
            else None
        )
        self._closed = False

    @property
    def screening(self):
        """The wrapped builder's screening (settable: incremental Fock
        retunes ``tau`` between builds; the new value ships to workers
        with the next build command)."""
        return self.inner.screening

    @screening.setter
    def screening(self, value) -> None:
        self.inner.screening = value

    def __getattr__(self, name: str) -> Any:
        # Geometry/metadata reads (nbf, algorithm_name, basis, ...)
        # delegate to the wrapped sim builder.
        return getattr(self.inner, name)

    # -- worker lifecycle ----------------------------------------------------

    def _spawn(self, rank: int) -> None:
        cmd = self._ctx.Queue()
        proc = self._ctx.Process(
            target=_worker_loop,
            args=(
                rank, self.inner, self._counter, self._density,
                self._slabs, cmd, self._results, self._hb, self._cfg,
            ),
            name=f"fock-worker-{rank}",
            daemon=True,
        )
        proc.start()
        self._cmds[rank] = cmd
        self._procs[rank] = proc

    def _ensure_workers(self) -> None:
        """Start lazily; respawn any worker lost in an earlier build."""
        for rank in range(self.workers):
            proc = self._procs[rank]
            if proc is None or not proc.is_alive():
                self._spawn(rank)

    # -- the build -----------------------------------------------------------

    def __call__(self, *densities: np.ndarray) -> tuple:
        if self._closed:
            raise RuntimeError("process backend already shut down")
        stats = self.inner._new_stats()
        cycle = self.inner._build_index
        density = np.reshape(densities, self._density.array.shape)
        self.inner._check_density(density)
        tracer = get_tracer()
        with tracer.span(
            "fock/build", algorithm=self.inner.algorithm_name,
            nranks=self.workers, nthreads=self.inner.nthreads,
            backend="process",
        ):
            self._density.array[:] = density
            self._slabs.fill(0.0)
            if self._counter is not None:
                self._counter.reset(self.inner.dlb_ntasks())
                shares = [None] * self.workers
            else:
                shares = self.inner.make_scheduler().assignment()
            self._ensure_workers()
            if self.heartbeat is not None:
                self.heartbeat.start_build(cycle)
            tau = float(self.inner.screening.tau)
            for rank in range(self.workers):
                self._cmds[rank].put(("build", cycle, tau, shares[rank]))
            rrs, dead = self._collect(cycle)
            self._recover(rrs, dead, cycle, shares)
            # Reduce the per-rank slabs in rank order — the same
            # floating-point association as SimWorld's slot reduction.
            with tracer.span("fock/gsumf", backend="process"):
                W = np.zeros(tuple(self.inner.accumulator_shape))
                for rank in range(self.workers):
                    W += self._slabs.array[rank]
        for rank in range(self.workers):
            rr = rrs[rank]
            self.inner._merge_rank_result(stats, rr)
            stats.per_rank_quartets.append(rr.quartets_done)
        stats.quartets_computed = sum(stats.per_rank_quartets)
        stats.reduce_bytes = W.nbytes * self.workers
        self.inner._capture_cache_stats(stats)
        self.inner._record_global(stats)
        focks = self.inner.assemble(W)
        return (focks, stats) if len(densities) == 1 else (*focks, stats)

    def _drain_heartbeats(self) -> None:
        """Fold every queued worker beat into the liveness monitor."""
        if self.heartbeat is None:
            return
        while True:
            try:
                beat = self._hb.get_nowait()
            except queue_mod.Empty:
                return
            self.heartbeat.record(beat)

    def _collect(self, cycle: int) -> tuple[dict, list[int]]:
        """Gather per-rank results; detect workers that died or stalled."""
        from repro.core.fock_base import RankBuildResult

        rrs: dict[int, RankBuildResult] = {}
        dead: list[int] = []
        pending = set(range(self.workers))
        deadline = time.monotonic() + self.build_timeout_s
        # Poll fast enough that a missed-heartbeat deadline is noticed
        # within about half the timeout, not at the 0.25 s default.
        poll = 0.25
        if self.heartbeat is not None:
            poll = min(poll, max(0.01, self.heartbeat.timeout_s / 2))
        while pending:
            self._drain_heartbeats()
            try:
                rank, rcycle, payload = self._results.get(timeout=poll)
            except queue_mod.Empty:
                for rank in sorted(pending):
                    proc = self._procs[rank]
                    if proc is not None and not proc.is_alive():
                        # A live worker never exits between builds, so a
                        # dead pending worker has no result in flight.
                        proc.join()
                        self._procs[rank] = None
                        pending.discard(rank)
                        dead.append(rank)
                        if self.heartbeat is not None:
                            self.heartbeat.mark_lost(rank)
                if self.heartbeat is not None:
                    # Silent-but-alive pending ranks turn suspect here:
                    # the worker.hung event fires long before the build
                    # timeout or a missed DLB claim would implicate them.
                    self.heartbeat.check(pending)
                if time.monotonic() > deadline:
                    raise BuildTimeoutError(
                        f"Fock build {cycle}: worker(s) {sorted(pending)} "
                        f"unresponsive after {self.build_timeout_s:.0f} s"
                    )
                continue
            if rcycle != cycle:  # pragma: no cover - lock-step safety net
                continue
            rrs[rank] = RankBuildResult.from_dict(payload)
            pending.discard(rank)
            if self.heartbeat is not None:
                self.heartbeat.mark_done(rank)
        self._drain_heartbeats()
        return rrs, dead

    def _recover(
        self, rrs: dict, dead: list[int], cycle: int, shares: list
    ) -> None:
        """Replay each lost worker's tasks in the parent.

        The owner board lists the dead rank's claims in claim order (a
        static rank's are its whole share, in partition order);
        zero-and-replay into its own slab reproduces its contribution
        regardless of how far the worker got before dying (partial
        direct writes, unflushed column buffers, unreduced
        thread-private Focks — all discarded and redone).
        """
        if not dead:
            return
        registry = get_metrics()
        log = get_event_log()
        channel = get_telemetry()
        counter = self._counter
        leftover = counter.unclaimed() if counter is not None else []
        for idx, rank in enumerate(sorted(dead)):
            tasks = counter.owned(rank) if counter is not None else shares[rank]
            if idx == 0 and leftover:
                # Unclaimed tail (every worker died): fold into the
                # first replay so no task is lost.
                tasks += leftover
            slab = self._slabs.array[rank]
            slab[:] = 0.0
            rr = self.inner.rank_program(
                rank, iter(tasks), self._density.array, slab
            )
            rrs[rank] = rr
            # Whether the heartbeat already implicated this rank before
            # its death was confirmed — the suspect -> lost -> replay
            # chain the monitor dashboard shows.
            was_suspect = (
                self.heartbeat is not None
                and self.heartbeat.health[rank].suspect_count > 0
            )
            if registry is not None:
                registry.counter("process.workers_lost").inc()
                registry.counter(
                    "process.tasks_replayed", rank=rank
                ).inc(len(tasks))
            if log is not None:
                log.emit(
                    "process.worker_lost", rank=rank, cycle=cycle,
                    replayed=len(tasks), was_suspect=was_suspect,
                )
            if channel is not None:
                channel.publish(
                    "process.replay", source="driver", rank=rank,
                    cycle=cycle, replayed=len(tasks),
                    was_suspect=was_suspect,
                )

    # -- teardown ------------------------------------------------------------

    def shutdown(self) -> None:
        """Stop workers, restore the builder, release shared memory.

        The shared blocks are released in a ``finally`` so a failure
        anywhere earlier (a wedged worker, a broken command queue, the
        Schwarz copy-back) cannot leak ``/dev/shm`` segments — under a
        long-running job service the leak would be cumulative.
        """
        if self._closed:
            return
        self._closed = True
        try:
            for rank, proc in enumerate(self._procs):
                if proc is not None and proc.is_alive():
                    try:
                        self._cmds[rank].put(("stop",))
                    except Exception:  # pragma: no cover - best effort
                        pass
            for proc in self._procs:
                if proc is None:
                    continue
                proc.join(timeout=5)
                if proc.is_alive():  # pragma: no cover - best effort
                    proc.terminate()
                    proc.join(timeout=5)
            self._procs = [None] * self.workers
            # Give the builder back a private Schwarz matrix before the
            # shared block goes away.
            self.inner.screening.Q = np.array(self._schwarz.array, copy=True)
        finally:
            for block in (self._schwarz, self._density, self._slabs):
                try:
                    block.close(unlink=True)
                except Exception:  # pragma: no cover - best effort
                    pass
            if self._counter is not None:
                self._counter.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.shutdown()
        except Exception:
            pass


class ProcessBackend(ExecutionBackend):
    """Execution backend that owns a fleet of fork workers per builder."""

    name = "process"

    def __init__(
        self,
        *,
        workers: int = 4,
        schedule_seed: int | None = None,
        obs_dir: str | Path | None = None,
        build_timeout_s: float = DEFAULT_BUILD_TIMEOUT_S,
        heartbeat_interval_s: float | None = DEFAULT_INTERVAL_S,
        heartbeat_timeout_s: float = DEFAULT_TIMEOUT_S,
    ) -> None:
        if workers < 1:
            raise WorkerGeometryError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.schedule_seed = schedule_seed
        self.obs_dir = obs_dir
        self.build_timeout_s = build_timeout_s
        self.heartbeat_interval_s = heartbeat_interval_s
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self._wrapped: list[ProcessFockBuilder] = []

    def wrap_builder(self, builder: Any) -> ProcessFockBuilder:
        wrapped = ProcessFockBuilder(
            builder,
            workers=self.workers,
            schedule_seed=self.schedule_seed,
            obs_dir=self.obs_dir,
            build_timeout_s=self.build_timeout_s,
            heartbeat_interval_s=self.heartbeat_interval_s,
            heartbeat_timeout_s=self.heartbeat_timeout_s,
        )
        self._wrapped.append(wrapped)
        return wrapped

    def shutdown(self) -> None:
        for wrapped in self._wrapped:
            wrapped.shutdown()
        self._wrapped.clear()


def worker_obs_run(
    obs_dir: str | Path, *, label: str = "process"
) -> tuple[str, list, list]:
    """Load all per-worker NDJSON dumps as one merged-trace run triple.

    All workers share one trace time base, so returning them as a
    *single* ``(label, spans, events)`` triple (rank = pid track)
    preserves their relative alignment through
    :func:`~repro.obs.analysis.timeline.merged_chrome_trace`.
    """
    from repro.obs.analysis.timeline import spans_from_ndjson

    spans: list = []
    events: list = []
    for d in sorted(Path(obs_dir).glob("worker*")):
        spans_file = d / "spans.ndjson"
        events_file = d / "events.ndjson"
        if spans_file.exists():
            spans += spans_from_ndjson(spans_file.read_text())
        if events_file.exists():
            events += events_from_ndjson(events_file.read_text())
    return (label, spans, events)
