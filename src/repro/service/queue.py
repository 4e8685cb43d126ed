"""Durable job queue: every state transition is a write-ahead journal line.

The queue's only source of truth is an append-only NDJSON journal.
Each record is written, flushed, **and fsync'd** before the in-memory
state changes, so the on-disk journal is always at least as new as
anything the daemon has acknowledged to a client:

* ``{"op": "submit", "job": {...}}``     — a new job, full spec inline
* ``{"op": "state", "id": ..., "state": ..., ...fields}`` — a transition
* ``{"op": "recover", ...}``             — a replay marker written when
  a restarted daemon adopts the journal

Crash model: a SIGKILL'd daemon loses nothing it acknowledged.
Replay (:meth:`DurableJobQueue.replay`) folds the journal back into
jobs; jobs that were ``running`` at the crash return to ``pending``
with ``interrupted=True`` (the dispatcher resumes them from their PR-3
checkpoint when one exists), ``retrying`` jobs keep their
backoff gate, and terminal jobs — ``done`` is the *acknowledged* state
— are preserved verbatim, never re-run.  A torn final line (the crash
hit mid-append) is tolerated and dropped: by write ordering it can only
describe a transition that was never acknowledged.

Admission control lives here too: :meth:`submit` raises
:class:`~repro.service.errors.ServiceOverloaded` once the open-job
count (pending + running + retrying) reaches ``max_depth`` — shedding
load with a typed rejection instead of letting the backlog grow
without bound.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time
from pathlib import Path
from typing import Any, Callable, Iterator

from repro.obs.tracer import new_span_id, new_trace_id, parse_traceparent
from repro.service.errors import JobNotFound, ServiceOverloaded
from repro.service.jobs import Job, JobSpec, TERMINAL_STATES

logger = logging.getLogger("repro.service.queue")

#: Default admission bound on open jobs.
DEFAULT_MAX_DEPTH = 64


class DurableJobQueue:
    """FIFO job queue whose every mutation is journaled before it happens.

    Thread-safe: client handler threads submit/cancel while the
    dispatch loop claims and completes, all under one lock.  The
    journal file handle is owned by the queue; :meth:`close` releases
    it.
    """

    def __init__(
        self,
        journal: str | Path,
        *,
        max_depth: int | None = DEFAULT_MAX_DEPTH,
        fsync: bool = True,
        clock: Callable[[], float] = time.time,
        pclock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.journal_path = Path(journal)
        self.max_depth = max_depth
        self.fsync = fsync
        self.clock = clock
        self.pclock = pclock
        self.jobs: dict[str, Job] = {}
        self._order: list[str] = []  # submission order (FIFO dispatch)
        self._lock = threading.RLock()
        self._seq = 0
        self.replayed = 0  # journal lines folded in at startup
        self.recovered_jobs: list[str] = []  # running -> pending at replay
        self.journal_path.parent.mkdir(parents=True, exist_ok=True)
        if self.journal_path.exists():
            self.replay()
        self._fh = open(self.journal_path, "a", encoding="utf-8")
        if self.replayed:
            self._append({"op": "recover", "jobs": len(self.jobs),
                          "resumed": list(self.recovered_jobs)})

    # -- journal -------------------------------------------------------------

    def _append(self, record: dict[str, Any]) -> None:
        """Write one journal line durably (flush + fsync) before returning."""
        record.setdefault("t", self.clock())
        # perf_counter is CLOCK_MONOTONIC — shared across processes on
        # one host, so journal transitions land on the same time base
        # as worker span NDJSON (trace assembly aligns on "pt").
        record.setdefault("pt", self.pclock())
        self._fh.write(json.dumps(record) + "\n")
        self._fh.flush()
        if self.fsync:
            os.fsync(self._fh.fileno())

    def replay(self) -> None:
        """Rebuild queue state from the journal (startup only)."""
        jobs: dict[str, Job] = {}
        order: list[str] = []
        lines = self.journal_path.read_text(encoding="utf-8").split("\n")
        for i, line in enumerate(lines):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError:
                # A torn tail from a mid-append crash describes a
                # transition that was never acknowledged; drop it.  A
                # torn line anywhere *else* would mean journal
                # corruption, which deserves a loud warning either way.
                logger.warning(
                    "dropping malformed journal line %d of %s",
                    i + 1, self.journal_path,
                )
                continue
            op = rec.get("op")
            if op == "submit":
                job = Job.from_dict(rec["job"])
                jobs[job.id] = job
                order.append(job.id)
            elif op == "state":
                job = jobs.get(rec.get("id", ""))
                if job is None:
                    logger.warning("journal transition for unknown job %s",
                                   rec.get("id"))
                    continue
                job.state = rec["state"]
                for name in ("attempt", "not_before", "degraded", "error",
                             "error_type", "result", "run_id"):
                    if name in rec:
                        setattr(job, name, rec[name])
            elif op == "recover":
                continue
            self.replayed += 1
        # Jobs the dead daemon left in flight: back to pending, flagged
        # interrupted so the dispatcher looks for their checkpoint.
        self.recovered_jobs = []
        for job in jobs.values():
            if job.state == "running":
                job.state = "pending"
                job.interrupted = True
                self.recovered_jobs.append(job.id)
            elif job.state == "retrying":
                job.state = "pending"  # keep not_before: backoff survives
        self.jobs = jobs
        self._order = order
        self._seq = max(
            (int(j[1:]) for j in jobs if j[1:].isdigit()), default=-1
        ) + 1

    # -- admission -----------------------------------------------------------

    def depth(self) -> dict[str, int]:
        """State histogram plus the open-job total."""
        with self._lock:
            out = {s: 0 for s in
                   ("pending", "running", "retrying", "done", "failed",
                    "cancelled")}
            for job in self.jobs.values():
                out[job.state] = out.get(job.state, 0) + 1
            out["open"] = sum(out[s] for s in ("pending", "running",
                                               "retrying"))
            return out

    def submit(self, spec: JobSpec,
               trace: dict[str, Any] | None = None,
               *, enforce_depth: bool = True) -> Job:
        """Admit one job, or shed it with :class:`ServiceOverloaded`.

        ``trace`` is the optional context dict a tracing client sends
        with the submit request: ``{"traceparent": "00-…-…-01",
        "client_t": <perf_counter>}``.  The job adopts the client's
        ``trace_id`` (minting a fresh one when absent or malformed, so
        old clients still get traced jobs) and a ``root_span_id`` that
        every worker attempt parents onto; both are journaled inside
        the submit record.

        ``enforce_depth=False`` bypasses admission control — used only
        by the daemon's own manifest intake (``repro serve
        --manifest``), where the whole workload is known up front and
        shedding the tail of its own batch would be self-defeating.
        Client submissions always enforce the bound.
        """
        spec.validate()
        ctx = parse_traceparent((trace or {}).get("traceparent", ""))
        client_t = (trace or {}).get("client_t")
        with self._lock:
            open_jobs = sum(1 for j in self.jobs.values() if j.open)
            if (enforce_depth and self.max_depth is not None
                    and open_jobs >= self.max_depth):
                raise ServiceOverloaded(
                    f"queue depth {open_jobs} at the admission bound "
                    f"{self.max_depth}; resubmit after the backlog drains",
                    depth=open_jobs, max_depth=self.max_depth,
                )
            job = Job(id=f"j{self._seq:06d}", spec=spec,
                      submitted_at=self.clock(),
                      trace_id=ctx.trace_id if ctx else new_trace_id(),
                      parent_span_id=ctx.span_id if ctx else None,
                      root_span_id=new_span_id(),
                      client_t=(float(client_t)
                                if isinstance(client_t, (int, float))
                                else None))
            self._seq += 1
            self._append({"op": "submit", "job": job.to_dict()})
            self.jobs[job.id] = job
            self._order.append(job.id)
            return job

    # -- lookup --------------------------------------------------------------

    def get(self, job_id: str) -> Job:
        """Resolve an exact id or unambiguous prefix."""
        with self._lock:
            if job_id in self.jobs:
                return self.jobs[job_id]
            matches = [j for j in self._order if j.startswith(job_id)]
            if len(matches) == 1:
                return self.jobs[matches[0]]
            if not matches:
                raise JobNotFound(f"no job matches {job_id!r}")
            raise JobNotFound(
                f"{job_id!r} is ambiguous: matches {', '.join(matches[:5])}"
            )

    def __iter__(self) -> Iterator[Job]:
        with self._lock:
            return iter([self.jobs[j] for j in self._order])

    def __len__(self) -> int:
        with self._lock:
            return len(self.jobs)

    # -- transitions ---------------------------------------------------------

    def transition(self, job_id: str, state: str, **fields: Any) -> Job:
        """Journal then apply one state transition (plus field updates)."""
        with self._lock:
            job = self.get(job_id)
            self._append({"op": "state", "id": job.id, "state": state,
                          **fields})
            job.state = state
            for name, value in fields.items():
                setattr(job, name, value)
            return job

    def claim_next(self, now: float | None = None) -> Job | None:
        """Atomically move the first dispatchable job to ``running``.

        FIFO over submission order, gated by each job's ``not_before``
        (the retry backoff); ``retrying`` jobs become dispatchable the
        moment their gate passes.  Returns ``None`` when nothing is
        ready.
        """
        now = self.clock() if now is None else now
        with self._lock:
            for job_id in self._order:
                job = self.jobs[job_id]
                if job.state not in ("pending", "retrying"):
                    continue
                if job.not_before > now:
                    continue
                return self.transition(
                    job.id, "running", attempt=job.attempt + 1
                )
            return None

    def next_wakeup(self) -> float | None:
        """Earliest ``not_before`` among pending jobs still gated."""
        now = self.clock()
        with self._lock:
            gated = [j.not_before for j in self.jobs.values()
                     if j.state in ("pending", "retrying")
                     and j.not_before > now]
            return min(gated) if gated else None

    def cancel(self, job_id: str) -> Job:
        """Cancel a pending/retrying job; running jobs raise (the daemon
        kills the worker first, then records the transition itself)."""
        with self._lock:
            job = self.get(job_id)
            if job.state in TERMINAL_STATES:
                return job  # idempotent
            if job.state == "running":
                raise ValueError(f"job {job.id} is running; the daemon "
                                 "must kill its worker before cancelling")
            return self.transition(job.id, "cancelled")

    def fileno(self) -> int:
        """The journal's fd (daemons exclude it from forked workers)."""
        return self._fh.fileno()

    # -- teardown ------------------------------------------------------------

    def close(self) -> None:
        try:
            self._fh.close()
        except OSError:  # pragma: no cover - teardown best effort
            pass

    def __enter__(self) -> "DurableJobQueue":
        return self

    def __exit__(self, *exc: object) -> bool:
        self.close()
        return False
