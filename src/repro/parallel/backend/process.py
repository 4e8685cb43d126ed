"""Real-process execution backend (``multiprocessing`` fork workers).

:class:`ProcessFockBuilder` runs the *same rank programs* the sim
backend executes — ``builder.rank_program(rank, blocks, density, W)``
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
  against the deterministic sim backend (<= 1e-10 Hartree).  Each claim
  is one grant block of one task, so a rank digests a task before it
  claims the next.  Under ``schedule="static"`` there is no counter at
  all: each build command carries the rank's pre-computed share, handed
  to the rank program as one block (cut where a kill strikes).
* The reduction is performed by the parent after all workers report:
  the slabs go through the builder's own reduction step
  (``_reduce``) on a :class:`~repro.parallel.comm.SimWorld` of one
  slot per rank, which adds them in rank order — the sim runtime's
  association.  Each worker reports its rank program's partial
  :class:`~repro.core.fock_base.FockBuildStats` as a dict over its
  pipe; the parent hands the partials, in rank order, to the builder's
  build tail, the one the sim runtime calls.

Fault injection is *real* here, and the parent decides every fault in
the builder's build head (``_start_build``), as on the sim runtime.  A
build command carries the rank's kill point and delay factor; the
worker calls ``os._exit`` at the task-claim boundary (no result,
partial slab) or sleeps before it claims.  A late rank is a killed
rank: one still running at :data:`BUILD_DEADLINE_S` (a constant, not an
option) is SIGKILLed.  The parent recovers either through the
builder's replay step (``_replay``): the lost worker's slab is zeroed
and its tasks (its claims off the counter's owner board, in claim
order; a static rank's whole share) are replayed into it, then the
worker is respawned for the next build.  ``corrupt`` events strike a
slab on its way into the parent's reduction, as on the sim runtime.

Observability: each worker traces its rank program into per-worker
spans NDJSON under ``obs_dir/worker<r>/``, timestamped against
one shared ``perf_counter`` base (``CLOCK_MONOTONIC`` is common across
processes on a host), so :func:`worker_obs_run` can hand the whole
worker fleet to
:func:`~repro.obs.spans.merged_chrome_trace` as a single
aligned timeline.  Records are streamed *incrementally* (line-buffered
append via :class:`~repro.obs.stream.ObsStreamer`): a worker killed by
``os._exit`` mid-build leaves every span it completed on disk, not in
a lost buffer.

Liveness: each worker is a :class:`~repro.parallel.child.Child` that
sends in-band heartbeats (build start, every claim and every run of
the rank loop rate-limited to ``heartbeat_interval_s``, build done)
beside its result; the parent's
:class:`~repro.parallel.backend.heartbeat.HeartbeatMonitor` flags any
pending rank silent past ``heartbeat_timeout_s`` as ``suspect`` and
emits a ``worker.hung`` event — a stalled worker becomes visible in
seconds, long before the deadline, which alone kills.
"""

from __future__ import annotations

import dataclasses
import os
import time
from multiprocessing.connection import wait as mp_wait
from pathlib import Path
from typing import Any

import numpy as np

from repro.obs.events import events_from_ndjson
from repro.obs.stream import ObsStreamer
from repro.obs.tracer import Tracer, get_tracer, use_tracer
from repro.parallel.backend.base import ExecutionBackend
from repro.parallel.backend.counter import SharedTaskCounter
from repro.parallel.backend.heartbeat import (
    DEFAULT_INTERVAL_S,
    DEFAULT_TIMEOUT_S,
    HeartbeatMonitor,
    beat_sender,
)
from repro.parallel.child import KILLED_EXIT_CODE, Child, stop
from repro.parallel.comm import SimWorld
from repro.parallel.shared_array import SharedNDArray

#: Seconds a worker has to report a build before the parent SIGKILLs it
#: and replays its share, as for a worker that died.
BUILD_DEADLINE_S = 120.0


class WorkerGeometryError(ValueError):
    """Builder geometry and backend worker count disagree."""


def _worker_loop(
    rank: int,
    builder: Any,
    counter: Any,
    density: SharedNDArray,
    slabs: SharedNDArray,
    cfg: dict,
    cmd: Any,
    out: Any,
) -> None:
    """One worker process: serve ``cmd``'s builds, reporting up ``out``.

    Everything else arrives through fork inheritance (no pickling): the
    sim builder (whose ``rank_program`` we execute), the shared counter
    (``None`` under ``schedule="static"``, where ``share`` is this
    rank's whole grant sequence) and the shared-memory views.  Each
    build command carries the rank's kill point and delay factor.
    """
    tracer = Tracer() if cfg["obs_dir"] is not None else None
    streamer = (
        ObsStreamer(
            Path(cfg["obs_dir"]) / f"worker{rank}", tracer=tracer, t0=cfg["t0"]
        )
        if cfg["obs_dir"] is not None
        else None
    )
    D = density.array
    W = slabs.array[rank]
    pid = os.getpid()
    beat = beat_sender(
        out, rank, limited="claim", interval_s=cfg["heartbeat_s"],
        t0=cfg["t0"],
        span=lambda: (tracer.current.name
                      if tracer and tracer.current else None),
    )

    while True:
        msg = cmd.recv()
        if msg[0] == "stop":
            if streamer is not None:
                streamer.close()
            return
        _, cycle, share, kill_after, factor = msg
        beat(cycle, "start")
        if factor > 1.0:
            # A real straggler: this worker sleeps, the shared counter
            # shifts its grants to the faster ranks automatically — and
            # the heartbeat goes silent, which is exactly how the
            # parent tells a stall from slow progress.
            time.sleep(min(0.2, 0.02 * (factor - 1.0)))
        rng = (
            np.random.default_rng([cfg["schedule_seed"], rank, cycle])
            if cfg["schedule_seed"] is not None
            else None
        )

        claimed = 0
        builder.on_run = lambda: beat(cycle, "claim", claimed)

        def grants():
            """Grant blocks: one task per claim from the live counter
            (the DDI protocol: each claim is a round trip), a static
            rank's whole share at once — cut where a kill strikes."""
            nonlocal claimed
            while True:
                if kill_after is not None and claimed >= kill_after:
                    # Die *for real*, mid-build, at the claim boundary:
                    # no result message, a partially-written slab, and
                    # a counter that keeps serving the survivors.  The
                    # parent replays our claimed tasks and respawns us.
                    # Streamed obs records are already on disk.
                    os._exit(KILLED_EXIT_CODE)
                if rng is not None:
                    # Scheduling jitter for nondeterminism hunting:
                    # perturb claim arrival order between runs.
                    time.sleep(float(rng.random()) * 2e-4)
                beat(cycle, "claim", claimed)
                if share is None:
                    t = counter.next(rank)
                    block = [] if t is None else [t]
                else:
                    block = share[claimed:kill_after]
                if not block:
                    return
                claimed += len(block)
                yield block

        if tracer is not None:
            with use_tracer(tracer):
                with tracer.span(
                    "fock/rank", rank=rank, cycle=cycle,
                    pid=pid, backend="process",
                ):
                    part = builder.rank_program(rank, grants(), D, W)
            # Streamed on close; drop the in-memory copies.
            tracer.clear()
        else:
            part = builder.rank_program(rank, grants(), D, W)
        beat(cycle, "done", claimed)
        out.send(("result", cycle, dataclasses.asdict(part)))


class ProcessFockBuilder:
    """Drop-in for the builder it wraps, on real processes.

    ``builder(density) -> (fock, stats)`` around an RHF builder,
    ``builder(d_alpha, d_beta) -> (F_alpha, F_beta, stats)`` around the
    UHF one, whose accumulator stacks the spin pair.

    Wraps a sim builder constructed with ``nranks == workers``; the sim
    object itself crosses the fork into every worker, so its
    ``rank_program`` — including screening and the quartet engine — is
    byte-for-byte the code the sim backend runs, and a build starts and
    ends in the builder's own head and tail (``_start_build`` /
    ``_finish_build``), as on the sim runtime.
    """

    def __init__(
        self,
        inner: Any,
        *,
        workers: int,
        schedule_seed: int | None = None,
        obs_dir: str | Path | None = None,
        heartbeat_interval_s: float = DEFAULT_INTERVAL_S,
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
        shape = tuple(inner.accumulator_shape)
        self._density = SharedNDArray(shape)
        self._slabs = SharedNDArray((workers, *shape))
        # dlb draws from the shared counter; a static rank walks its own
        # pre-computed share, which needs no shared state at all.
        self._counter = (
            SharedTaskCounter(inner.dlb_ntasks())
            if inner.schedule == "dlb" else None
        )
        # Re-home the Schwarz matrix in shared memory *before* any fork:
        # workers then screen against the same physical pages instead of
        # copy-on-write duplicates.
        self._schwarz = SharedNDArray(inner.screening.Q.shape)
        self._schwarz.array[:] = inner.screening.Q
        inner.screening.Q = self._schwarz.array
        cfg = {
            "schedule_seed": schedule_seed,
            "obs_dir": None if obs_dir is None else str(obs_dir),
            "t0": time.perf_counter(),  # shared trace base for all workers
            "heartbeat_s": heartbeat_interval_s,
        }
        # Started lazily, by the first build.
        self._children = [
            Child(_worker_loop, rank, inner, self._counter, self._density,
                  self._slabs, cfg, name=f"fock-worker-{rank}", daemon=True)
            for rank in range(workers)
        ]
        self.heartbeat = HeartbeatMonitor(workers,
                                          timeout_s=heartbeat_timeout_s)
        self._closed = False

    def __getattr__(self, name: str) -> Any:
        # Geometry/metadata reads (nbf, algorithm_name, basis, ...)
        # delegate to the wrapped sim builder.
        return getattr(self.inner, name)

    # -- the build -----------------------------------------------------------

    def __call__(self, *densities: np.ndarray) -> tuple:
        if self._closed:
            raise RuntimeError("process backend already shut down")
        density = self.inner._start_build(densities)
        cycle = self.inner._build_index
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
            for child in self._children:
                if not child.alive():  # respawn any worker lost earlier
                    child.spawn()
            self.heartbeat.start_build(cycle)
            for rank, child in enumerate(self._children):
                child.send(("build", cycle, shares[rank],
                            *self.inner._orders(rank)))
            parts, dead = self._collect(cycle)
            self._recover(parts, dead, shares)
            slabs = self._slabs.array
            world = SimWorld(self.workers)
            with tracer.span("fock/gsumf", backend="process"):
                world.execute(
                    lambda comm: self.inner._reduce(comm, slabs[comm.rank])
                )
        return self.inner._finish_build(
            slabs[0], [parts[rank] for rank in range(self.workers)],
            world.stats.reduce_bytes,
        )

    def _collect(self, cycle: int) -> tuple[dict, list[int]]:
        """Gather per-rank partial stats, waiting on the pending ranks'
        pipes and sentinels at once; SIGKILL a worker still pending at
        the deadline, and return every dead one for replay."""
        from repro.core.fock_base import FockBuildStats

        parts: dict[int, FockBuildStats] = {}
        dead: list[int] = []
        pending = set(range(self.workers))
        deadline = time.monotonic() + BUILD_DEADLINE_S
        while pending:
            children = [self._children[r] for r in pending]
            due = [deadline - time.monotonic(),
                   self.heartbeat.next_suspect_in(pending)]
            mp_wait([c.out for c in children if c.out is not None]
                    + [c.sentinel for c in children],
                    max(0.0, min(t for t in due if t is not None)))
            for rank in sorted(pending):
                child = self._children[rank]
                # The pipe first: a result sent before a death counts.
                for msg in child.messages():
                    if msg[0] == "beat":
                        self.heartbeat.record(msg[1])
                    elif msg[1] == cycle:
                        parts[rank] = FockBuildStats(**msg[2])
                if rank in parts:
                    pending.discard(rank)
                    self.heartbeat.mark_done(rank)
                elif not child.alive():
                    # A live worker never exits between builds, so a
                    # dead pending worker has no result in flight.
                    child.join()
                    pending.discard(rank)
                    dead.append(rank)
                    self.heartbeat.mark_lost(rank)
            # Silent-but-alive pending ranks turn suspect here: the
            # worker.hung event fires long before the build deadline
            # or a missed DLB claim would implicate them.
            self.heartbeat.check(pending)
            if pending and time.monotonic() > deadline:
                # The next pass takes a late rank as a dead one.
                for rank in pending:
                    self._children[rank].kill()
        return parts, dead

    def _recover(self, parts: dict, dead: list[int], shares: list) -> None:
        """Replay each lost worker's tasks in the parent, through the
        builder's replay step: its claims off the owner board, in claim
        order (a static rank's whole share, in partition order), plus
        the unclaimed tail when every worker died."""
        counter = self._counter
        leftover = counter.unclaimed() if counter is not None else []
        for rank in sorted(dead):
            tasks = counter.owned(rank) if counter is not None else shares[rank]
            tasks, leftover = [*tasks, *leftover], []
            # was_suspect: whether the heartbeat implicated the rank
            # before its death was confirmed — the suspect -> lost ->
            # replay chain the monitor dashboard shows.
            parts[rank] = self.inner._replay(
                rank, tasks, self._density.array, self._slabs.array[rank],
                was_suspect=self.heartbeat.health[rank].suspect_count > 0,
            )

    # -- teardown ------------------------------------------------------------

    def shutdown(self) -> None:
        """Stop workers, restore the builder, release shared memory.

        The shared blocks are released in a ``finally`` so a failure
        anywhere earlier (a wedged worker, a broken command pipe, the
        Schwarz copy-back) cannot leak ``/dev/shm`` segments — under a
        long-running job service the leak would be cumulative.
        """
        if self._closed:
            return
        self._closed = True
        try:
            stop(self._children)
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
    """Execution backend that owns a fleet of fork workers per builder.

    ``options`` are the :class:`ProcessFockBuilder` keywords every
    wrapped builder gets.
    """

    name = "process"

    def __init__(self, *, workers: int = 4, **options: Any) -> None:
        if workers < 1:
            raise WorkerGeometryError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.options = options
        self._wrapped: list[ProcessFockBuilder] = []

    def wrap_builder(self, builder: Any) -> ProcessFockBuilder:
        wrapped = ProcessFockBuilder(builder, workers=self.workers,
                                     **self.options)
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
    :func:`~repro.obs.spans.merged_chrome_trace`.
    """
    from repro.obs.spans import spans_from_ndjson

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
