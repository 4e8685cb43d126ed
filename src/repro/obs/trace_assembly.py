"""Stitch one job's cross-process spans into a single Chrome trace.

Three processes leave three kinds of evidence about one job:

* the **client** stamps its ``perf_counter`` into the submit request;
* the **daemon** journals every queue transition with both wall time
  (``t``) and ``perf_counter`` (``pt``);
* each **worker attempt** streams its span NDJSON (W3C ids, absolute
  ``perf_counter`` timestamps) to ``<run_dir>/trace/attempt-NNN…``.

``perf_counter`` is ``CLOCK_MONOTONIC`` — one clock for every process
on the host — so those fragments already share a time base.  This
module folds them into one job-level trace:

* real spans: the client submit, the job root (submit → terminal), one
  container per attempt, and the worker's SCF spans under it;
* synthetic segments the service *implies* but no process ever timed
  as a span: ``queue.wait`` (ready → dispatched, per attempt),
  ``retry.backoff`` (the deterministic gate between attempts), and
  ``checkpoint.resume`` (dispatch → first span of a resumed attempt);
* a **cross-process critical path**: the single chain of segments that
  accounts for the job's end-to-end latency, hopping client → queue →
  worker → queue → worker as retries demand.

A SIGKILL'd attempt never closes its ``job/attempt`` root, so that
span is missing from its NDJSON; assembly synthesizes the container
from the journal's transition boundaries and re-parents the attempt's
surviving spans onto it — merged traces stay well-formed under chaos.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from repro.obs.tracer import new_span_id

_MICRO = 1e6

#: Chrome pid tracks of the merged trace.
PID_CLIENT = 0
PID_SERVICE = 1
PID_ATTEMPT_BASE = 2


class TraceAssemblyError(RuntimeError):
    """The journal/registry evidence cannot be stitched for this job."""


# -- journal folding ---------------------------------------------------------


@dataclass
class JobJournal:
    """Everything the service journal says about one job."""

    job_id: str
    trace_id: str | None = None
    parent_span_id: str | None = None
    root_span_id: str | None = None
    client_t: float | None = None
    submit_t: float | None = None  # wall clock
    submit_pt: float | None = None  # perf_counter
    run_id: str | None = None
    transitions: list[dict[str, Any]] = field(default_factory=list)

    @property
    def terminal(self) -> dict[str, Any] | None:
        for rec in reversed(self.transitions):
            if rec.get("state") in ("done", "failed", "cancelled"):
                return rec
        return None

    @property
    def end_pt(self) -> float | None:
        term = self.terminal
        if term is not None and term.get("pt") is not None:
            return term["pt"]
        pts = [r["pt"] for r in self.transitions if r.get("pt") is not None]
        return max(pts) if pts else self.submit_pt


def _iter_journal(journal_path: str | Path) -> Iterator[dict[str, Any]]:
    text = Path(journal_path).read_text(encoding="utf-8")
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            yield json.loads(line)
        except json.JSONDecodeError:
            continue  # torn tail — same tolerance as queue replay


def load_job_journal(journal_path: str | Path, job_id: str) -> JobJournal:
    """Fold the journal's submit + transitions for one job (prefix ok)."""
    jobs: dict[str, JobJournal] = {}
    for rec in _iter_journal(journal_path):
        op = rec.get("op")
        if op == "submit":
            job = rec.get("job") or {}
            jid = job.get("id")
            if not jid:
                continue
            jobs[jid] = JobJournal(
                job_id=jid,
                trace_id=job.get("trace_id"),
                parent_span_id=job.get("parent_span_id"),
                root_span_id=job.get("root_span_id"),
                client_t=job.get("client_t"),
                submit_t=rec.get("t"),
                submit_pt=rec.get("pt"),
            )
        elif op == "state":
            jj = jobs.get(rec.get("id", ""))
            if jj is None:
                continue
            jj.transitions.append(rec)
            if rec.get("run_id"):
                jj.run_id = rec["run_id"]
    if job_id in jobs:
        return jobs[job_id]
    matches = [j for j in jobs if j.startswith(job_id)]
    if len(matches) == 1:
        return jobs[matches[0]]
    if not matches:
        raise TraceAssemblyError(
            f"no job matches {job_id!r} in {journal_path}")
    raise TraceAssemblyError(
        f"{job_id!r} is ambiguous: matches {', '.join(matches[:5])}")


# -- span loading ------------------------------------------------------------


def load_attempt_spans(trace_dir: str | Path) -> dict[int, list[dict]]:
    """Per-attempt span records from ``attempt-NNN.spans.ndjson`` files."""
    out: dict[int, list[dict]] = {}
    trace_dir = Path(trace_dir)
    if not trace_dir.is_dir():
        return out
    for path in sorted(trace_dir.glob("attempt-*.spans.ndjson")):
        stem = path.name.split(".", 1)[0]  # "attempt-003"
        try:
            attempt = int(stem.split("-", 1)[1])
        except (IndexError, ValueError):
            continue
        records: list[dict] = []
        for line in path.read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                continue  # torn tail of a killed worker
        out[attempt] = records
    return out


# -- assembly ----------------------------------------------------------------


@dataclass
class TraceSegment:
    """One interval on the merged timeline (real or synthetic)."""

    name: str
    start: float  # absolute perf_counter seconds
    end: float
    pid: int
    tid: int = 0
    span_id: str = ""
    parent_span_id: str | None = None
    attrs: dict[str, Any] = field(default_factory=dict)
    synthetic: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class AssembledTrace:
    """The stitched job trace plus its derived artifacts."""

    job_id: str
    trace_id: str
    segments: list[TraceSegment]
    critical_path: list[TraceSegment]
    warnings: list[str]

    def validate(self) -> list[str]:
        """Structural checks; returns problems (empty = well-formed)."""
        problems: list[str] = []
        ids = {s.span_id for s in self.segments}
        roots = [s for s in self.segments if s.parent_span_id is None]
        for seg in self.segments:
            if seg.parent_span_id is not None \
                    and seg.parent_span_id not in ids:
                problems.append(
                    f"orphan span {seg.name!r} ({seg.span_id}) parented on "
                    f"missing {seg.parent_span_id}")
            if not math.isfinite(seg.start) or seg.end < seg.start:
                problems.append(f"span {seg.name!r} has a bad interval")
        if len(roots) > 1:
            names = ", ".join(s.name for s in roots[:5])
            problems.append(f"multiple root spans: {names}")
        attempts = [s for s in self.segments if s.name == "job/attempt"]
        job_roots = [s for s in self.segments if s.name == "service/job"]
        if job_roots:
            root_id = job_roots[0].span_id
            for seg in attempts:
                if seg.parent_span_id != root_id:
                    problems.append(
                        f"attempt {seg.attrs.get('attempt')} is not a "
                        "sibling under the job root")
        return problems

    def to_chrome_trace(self) -> dict[str, Any]:
        """Chrome trace-event JSON with one pid track per process."""
        if not self.segments:
            return {"traceEvents": [], "displayTimeUnit": "ms"}
        t0 = min(s.start for s in self.segments)
        events: list[dict[str, Any]] = []
        pids = sorted({s.pid for s in self.segments})
        names = {PID_CLIENT: "client", PID_SERVICE: "service daemon"}
        for pid in pids:
            label = names.get(
                pid, f"worker attempt {pid - PID_ATTEMPT_BASE + 1}")
            events.append({"name": "process_name", "ph": "M", "pid": pid,
                           "tid": 0, "args": {"name": label}})
        for seg in self.segments:
            args = dict(seg.attrs)
            args["span_id"] = seg.span_id
            if seg.parent_span_id:
                args["parent_span_id"] = seg.parent_span_id
            if seg.synthetic:
                args["synthetic"] = True
            events.append({
                "name": seg.name,
                "cat": "synthetic" if seg.synthetic
                       else seg.name.split("/", 1)[0],
                "ph": "X",
                "ts": (seg.start - t0) * _MICRO,
                "dur": seg.duration * _MICRO,
                "pid": seg.pid,
                "tid": seg.tid,
                "args": args,
            })
        for i, seg in enumerate(self.critical_path):
            events.append({
                "name": f"critical:{seg.name}",
                "cat": "critical-path",
                "ph": "X",
                "ts": (seg.start - t0) * _MICRO,
                "dur": seg.duration * _MICRO,
                "pid": PID_SERVICE,
                "tid": 99,
                "args": {"step": i, "source_pid": seg.pid},
            })
        events.append({"name": "thread_name", "ph": "M", "pid": PID_SERVICE,
                       "tid": 99, "args": {"name": "critical path"}})
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "producer": "repro.obs.trace_assembly",
                "job_id": self.job_id,
                "trace_id": self.trace_id,
            },
        }

    def critical_path_report(self) -> str:
        """Text table of the critical path (relative seconds)."""
        if not self.critical_path:
            return "(empty critical path)"
        t0 = min(s.start for s in self.segments)
        total = sum(s.duration for s in self.critical_path)
        lines = [
            f"critical path — {len(self.critical_path)} segment(s), "
            f"{total:.3f} s end to end",
            f"{'segment':<36s} {'start(s)':>10s} {'dur(s)':>10s} {'%':>6s}",
        ]
        for seg in self.critical_path:
            pct = 100.0 * seg.duration / total if total > 0 else 0.0
            lines.append(
                f"{seg.name:<36s} {seg.start - t0:>10.4f} "
                f"{seg.duration:>10.4f} {pct:>5.1f}%")
        return "\n".join(lines)


def _attempt_boundaries(jj: JobJournal) -> list[dict[str, Any]]:
    """Per-attempt ``{attempt, start_pt, end_pt, resumed, outcome}``.

    Each ``running`` transition opens an attempt; the next transition
    for the job closes it.  ``resumed`` comes from the dispatcher's
    journal annotation (a checkpoint existed when the attempt left).
    """
    bounds: list[dict[str, Any]] = []
    for i, rec in enumerate(jj.transitions):
        if rec.get("state") != "running":
            continue
        attempt = rec.get("attempt")
        if attempt is None or (bounds and bounds[-1]["attempt"] == attempt):
            # Journals of earlier builds carry the run_id/degraded/
            # resumed annotations in a second "running" record (no
            # attempt counter) right after the claim; merge them into
            # the open attempt.
            if bounds and rec.get("resumed"):
                bounds[-1]["resumed"] = True
            continue
        entry = {
            "attempt": int(attempt),
            "start_pt": rec.get("pt"),
            "end_pt": None,
            "resumed": bool(rec.get("resumed")),
            "outcome": None,
        }
        for later in jj.transitions[i + 1:]:
            state = later.get("state")
            if state == "running":
                la = later.get("attempt")
                if la is None or la == attempt:
                    if later.get("resumed"):
                        entry["resumed"] = True
                    continue
                # A new attempt started with no terminal record in
                # between: the daemon died mid-attempt and the journal
                # replay re-dispatched — close the old attempt there.
                entry["end_pt"] = later.get("pt")
                entry["outcome"] = "interrupted"
                break
            if state in ("retrying", "done", "failed", "cancelled"):
                entry["end_pt"] = later.get("pt")
                entry["outcome"] = state
                break
        bounds.append(entry)
    return bounds


def assemble_job_trace(
    journal_path: str | Path,
    job_id: str,
    *,
    trace_dir: str | Path | None = None,
    runs_root: str | Path | None = None,
) -> AssembledTrace:
    """Assemble one job's merged cross-process trace.

    ``trace_dir`` points directly at the per-attempt span directory;
    when omitted it is derived as ``<runs_root>/<run_id>/trace`` from
    the journal's ``run_id`` annotation.
    """
    jj = load_job_journal(journal_path, job_id)
    if jj.trace_id is None or jj.root_span_id is None:
        raise TraceAssemblyError(
            f"job {jj.job_id} predates trace propagation "
            "(no trace_id in its submit record)")
    warnings: list[str] = []
    if trace_dir is None and runs_root is not None and jj.run_id:
        trace_dir = Path(runs_root) / jj.run_id / "trace"
    attempt_spans = (load_attempt_spans(trace_dir)
                     if trace_dir is not None else {})
    if not attempt_spans:
        warnings.append("no worker span NDJSON found; journal-only trace")

    segments: list[TraceSegment] = []
    submit_pt = jj.submit_pt
    if submit_pt is None:
        raise TraceAssemblyError(
            f"job {jj.job_id} has no perf_counter submit stamp")
    end_pt = jj.end_pt or submit_pt
    bounds = _attempt_boundaries(jj)

    # Job root: the whole service-side lifetime, on the daemon track.
    term = jj.terminal
    root = TraceSegment(
        name="service/job",
        start=submit_pt, end=max(end_pt, submit_pt),
        pid=PID_SERVICE,
        span_id=jj.root_span_id,
        parent_span_id=jj.parent_span_id,
        attrs={"job": jj.job_id,
               "state": term.get("state") if term else "open",
               "attempts": len(bounds)},
    )
    segments.append(root)

    # Client submit span: perf_counter is cross-process, so the client
    # stamp and the journal stamp bracket the submit round trip.
    if jj.client_t is not None and jj.parent_span_id is not None:
        segments.append(TraceSegment(
            name="client/submit",
            start=min(jj.client_t, submit_pt), end=submit_pt,
            pid=PID_CLIENT,
            span_id=jj.parent_span_id,
            parent_span_id=None,
            attrs={"job": jj.job_id},
        ))
    elif jj.parent_span_id is not None:
        # Trace context arrived but without a clock stamp; keep the
        # root parented on it and note the missing client span.
        root.parent_span_id = None
        warnings.append("client context had no clock stamp; "
                        "submit span omitted")

    # Ready markers: when each attempt *became* dispatchable.
    ready_pt = submit_pt
    for k, b in enumerate(bounds):
        start_pt = b["start_pt"]
        if start_pt is None:
            warnings.append(f"attempt {b['attempt']} has no dispatch stamp")
            continue
        pid = PID_ATTEMPT_BASE + k

        # queue.wait: ready -> dispatched (on the daemon track).
        if start_pt > ready_pt:
            segments.append(TraceSegment(
                name="queue.wait",
                start=ready_pt, end=start_pt,
                pid=PID_SERVICE,
                span_id=new_span_id(),
                parent_span_id=jj.root_span_id,
                attrs={"attempt": b["attempt"]},
                synthetic=True,
            ))

        attempt_end = b["end_pt"] if b["end_pt"] is not None else end_pt
        attempt_end = max(attempt_end, start_pt)
        records = attempt_spans.get(b["attempt"], [])

        # The worker's own attempt root, if the attempt survived to
        # close it; otherwise synthesize the container from the
        # journal's boundaries (the SIGKILL case).
        root_rec = next(
            (r for r in records if r.get("span") == "job/attempt"
             and r.get("parent_span_id") == jj.root_span_id),
            None,
        )
        if root_rec is not None:
            attempt_span_id = root_rec["span_id"]
            attempt_seg = TraceSegment(
                name="job/attempt",
                start=root_rec["start_s"],
                end=root_rec["start_s"] + root_rec["dur_s"],
                pid=pid,
                span_id=attempt_span_id,
                parent_span_id=jj.root_span_id,
                attrs=dict(root_rec.get("attrs") or {}),
            )
        else:
            attempt_span_id = new_span_id()
            attempt_seg = TraceSegment(
                name="job/attempt",
                start=start_pt, end=attempt_end,
                pid=pid,
                span_id=attempt_span_id,
                parent_span_id=jj.root_span_id,
                attrs={"attempt": b["attempt"], "job": jj.job_id,
                       "interrupted": True},
                synthetic=True,
            )
            if records:
                warnings.append(
                    f"attempt {b['attempt']} root span missing (worker "
                    "died); container synthesized from the journal")
        segments.append(attempt_seg)

        # Child spans of the attempt.  Spans whose parent never closed
        # (killed mid-nesting) re-parent onto the attempt container.
        known_ids = {r.get("span_id") for r in records
                     if r.get("span_id")}
        first_child_start: float | None = None
        for r in records:
            if r is root_rec:
                continue
            if r.get("span_id") is None:
                continue
            parent = r.get("parent_span_id")
            if parent not in known_ids or parent == r.get("span_id"):
                parent = attempt_span_id
            if parent == jj.root_span_id:
                parent = attempt_span_id
            start = r["start_s"]
            if first_child_start is None or start < first_child_start:
                first_child_start = start
            segments.append(TraceSegment(
                name=r["span"],
                start=start, end=start + r["dur_s"],
                pid=pid,
                tid=int(r.get("thread") or 0),
                span_id=r["span_id"],
                parent_span_id=parent,
                attrs=dict(r.get("attrs") or {}),
            ))

        # checkpoint.resume: dispatch -> the resumed attempt's first
        # recorded span (its restart-load window).
        if b["resumed"]:
            resume_end = (first_child_start
                          if first_child_start is not None
                          and first_child_start > start_pt
                          else min(attempt_end, start_pt + 1e-4))
            segments.append(TraceSegment(
                name="checkpoint.resume",
                start=start_pt, end=resume_end,
                pid=pid,
                span_id=new_span_id(),
                parent_span_id=attempt_span_id,
                attrs={"attempt": b["attempt"]},
                synthetic=True,
            ))

        # retry.backoff: the deterministic gate after a failed attempt.
        if b["outcome"] == "retrying":
            retry_rec = next(
                (r for r in jj.transitions
                 if r.get("state") == "retrying"
                 and r.get("pt") == b["end_pt"]),
                None,
            )
            gate_pt = attempt_end
            if retry_rec is not None and retry_rec.get("pt") is not None:
                not_before = retry_rec.get("not_before")
                t_wall = retry_rec.get("t")
                if not_before is not None and t_wall is not None:
                    gate_pt = retry_rec["pt"] + max(
                        0.0, float(not_before) - float(t_wall))
            if gate_pt > attempt_end:
                segments.append(TraceSegment(
                    name="retry.backoff",
                    start=attempt_end, end=gate_pt,
                    pid=PID_SERVICE,
                    span_id=new_span_id(),
                    parent_span_id=jj.root_span_id,
                    attrs={"after_attempt": b["attempt"]},
                    synthetic=True,
                ))
            ready_pt = gate_pt
        else:
            ready_pt = attempt_end

    critical = _critical_path(jj, segments)
    trace = AssembledTrace(
        job_id=jj.job_id,
        trace_id=jj.trace_id,
        segments=segments,
        critical_path=critical,
        warnings=warnings,
    )
    return trace


def _critical_path(jj: JobJournal,
                   segments: list[TraceSegment]) -> list[TraceSegment]:
    """The chain of segments accounting for end-to-end latency.

    Client submit → (queue.wait → attempt → [retry.backoff])* in
    timeline order; within each attempt, descend the longest-duration
    child chain so the path names the dominant SCF phase, not just
    "the attempt took a while".
    """
    path: list[TraceSegment] = []
    for seg in segments:
        if seg.name == "client/submit":
            path.append(seg)
            break
    by_parent: dict[str, list[TraceSegment]] = {}
    for seg in segments:
        if seg.parent_span_id is not None:
            by_parent.setdefault(seg.parent_span_id, []).append(seg)

    timeline = sorted(
        (s for s in segments
         if s.name in ("queue.wait", "retry.backoff", "job/attempt")),
        key=lambda s: s.start,
    )
    for seg in timeline:
        path.append(seg)
        if seg.name != "job/attempt":
            continue
        cur = seg
        while True:
            children = by_parent.get(cur.span_id)
            if not children:
                break
            dominant = max(children, key=lambda c: c.duration)
            if dominant.duration <= 0:
                break
            path.append(dominant)
            cur = dominant
    return path
