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

import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

from repro.obs.events import ndjson_records
from repro.obs.spans import (
    SpanRecord,
    Track,
    chrome_trace,
    critical_path,
    rank_tracks,
    spans_from_ndjson,
)
from repro.obs.stream import folded_totals
from repro.obs.tracer import new_span_id

#: Chrome pid tracks of the merged trace (a segment's ``rank``).
PID_CLIENT = 0
PID_SERVICE = 1
PID_ATTEMPT_BASE = 2

#: The critical-path lane: a thread of the daemon's track.
CRITICAL_TID = 99


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


def load_job_journal(journal_path: str | Path, job_id: str) -> JobJournal:
    """Fold the journal's submit + transitions for one job (prefix ok)."""
    jobs: dict[str, JobJournal] = {}
    # A torn tail is skipped, the same tolerance as queue replay.
    for rec in ndjson_records(Path(journal_path).read_text(encoding="utf-8")):
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


def load_attempt_spans(trace_dir: str | Path) -> dict[int, list[SpanRecord]]:
    """Per-attempt span records from ``attempt-NNN.spans.ndjson`` files
    (a killed worker's torn tail skipped)."""
    out: dict[int, list[SpanRecord]] = {}
    trace_dir = Path(trace_dir)
    if not trace_dir.is_dir():
        return out
    for path in sorted(trace_dir.glob("attempt-*.spans.ndjson")):
        stem = path.name.split(".", 1)[0]  # "attempt-003"
        try:
            attempt = int(stem.split("-", 1)[1])
        except (IndexError, ValueError):
            continue
        out[attempt] = spans_from_ndjson(path.read_text(encoding="utf-8"))
    return out


# -- assembly ----------------------------------------------------------------


@dataclass
class AssembledTrace:
    """The stitched job trace plus its derived artifacts.

    A segment is a :class:`~repro.obs.spans.SpanRecord` whose ``rank``
    is its process track (:data:`PID_CLIENT`, :data:`PID_SERVICE`, or
    :data:`PID_ATTEMPT_BASE` + the attempt's index).
    """

    job_id: str
    trace_id: str
    segments: list[SpanRecord]
    critical_path: list[SpanRecord]
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
        """Chrome trace-event JSON: a process track each for the client,
        the daemon and every worker attempt, and the critical path as one
        more track, a lane of the daemon's."""
        names = {PID_CLIENT: "client", PID_SERVICE: "service daemon"}
        lane = [
            SpanRecord(f"critical:{seg.name}", seg.start, seg.end,
                       attrs={"step": i, "source_pid": seg.rank})
            for i, seg in enumerate(self.critical_path)
        ]
        return chrome_trace(
            [*rank_tracks(self.segments, lambda pid: names.get(
                pid, f"worker attempt {pid - PID_ATTEMPT_BASE + 1}")),
             Track(PID_SERVICE, "critical path", lane, tid=CRITICAL_TID,
                   cat="critical-path")],
            ids=True,
            other={"job_id": self.job_id, "trace_id": self.trace_id},
        )

    def critical_path_report(self) -> str:
        """Text table of the critical path (relative seconds), and under a
        segment with :func:`~repro.obs.stream.folded_totals` an indented
        row per folded name: calls, seconds, % of the segment."""
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
            for name, count, secs in folded_totals(seg.attrs):
                pct = 100.0 * secs / seg.duration if seg.duration > 0 else 0.0
                lines.append(
                    f"  {name:<25s} {count:>7d}x {'':>10s} "
                    f"{secs:>10.4f} {pct:>5.1f}%")
        return "\n".join(lines)


def _attempt_boundaries(jj: JobJournal) -> list[dict[str, Any]]:
    """Per-attempt ``{attempt, start_pt, end_pt, resumed, outcome}``.

    Each ``running`` transition opens an attempt; the next transition
    for the job closes it.  ``resumed`` comes from the dispatcher's
    journal annotation (a checkpoint existed when the attempt left).
    """
    bounds: list[dict[str, Any]] = []
    current: dict[str, Any] | None = None  # the attempt still open
    for rec in jj.transitions:
        state, attempt = rec.get("state"), rec.get("attempt")
        if state in ("retrying", "done", "failed", "cancelled"):
            if current is not None:
                current.update(end_pt=rec.get("pt"), outcome=state)
                current = None
            continue
        if state != "running":
            continue
        if attempt is None or (bounds and bounds[-1]["attempt"] == attempt):
            # Journals of earlier builds carry the run_id/degraded/
            # resumed annotations in a second "running" record (no
            # attempt counter) right after the claim; merge them into
            # the open attempt.
            if bounds and rec.get("resumed"):
                bounds[-1]["resumed"] = True
            continue
        if current is not None:
            # A new attempt started with no terminal record in between:
            # the daemon died mid-attempt and the journal replay
            # re-dispatched — close the old attempt there.
            current.update(end_pt=rec.get("pt"), outcome="interrupted")
        current = {
            "attempt": int(attempt),
            "start_pt": rec.get("pt"),
            "end_pt": None,
            "resumed": bool(rec.get("resumed")),
            "outcome": None,
        }
        bounds.append(current)
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

    segments: list[SpanRecord] = []
    submit_pt = jj.submit_pt
    if submit_pt is None:
        raise TraceAssemblyError(
            f"job {jj.job_id} has no perf_counter submit stamp")
    end_pt = jj.end_pt or submit_pt
    bounds = _attempt_boundaries(jj)

    # Job root: the whole service-side lifetime, on the daemon track.
    term = jj.terminal
    root = SpanRecord(
        name="service/job",
        start=submit_pt, end=max(end_pt, submit_pt),
        rank=PID_SERVICE,
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
        segments.append(SpanRecord(
            name="client/submit",
            start=min(jj.client_t, submit_pt), end=submit_pt,
            rank=PID_CLIENT,
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
            segments.append(SpanRecord(
                name="queue.wait",
                start=ready_pt, end=start_pt,
                rank=PID_SERVICE,
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
            (r for r in records if r.name == "job/attempt"
             and r.parent_span_id == jj.root_span_id),
            None,
        )
        if root_rec is not None:
            attempt_seg = replace(root_rec, rank=pid)
        else:
            attempt_seg = SpanRecord(
                name="job/attempt",
                start=start_pt, end=attempt_end,
                rank=pid,
                span_id=new_span_id(),
                parent_span_id=jj.root_span_id,
                attrs={"attempt": b["attempt"], "job": jj.job_id,
                       "interrupted": True},
                synthetic=True,
            )
            if records:
                warnings.append(
                    f"attempt {b['attempt']} root span missing (worker "
                    "died); container synthesized from the journal")
        attempt_span_id = attempt_seg.span_id
        segments.append(attempt_seg)

        # Child spans of the attempt.  Spans whose parent never closed
        # (killed mid-nesting) re-parent onto the attempt container.
        known_ids = {r.span_id for r in records if r.span_id}
        first_child_start: float | None = None
        for r in records:
            if r is root_rec or r.span_id is None:
                continue
            parent = r.parent_span_id
            if (parent not in known_ids or parent == r.span_id
                    or parent == jj.root_span_id):
                parent = attempt_span_id
            if first_child_start is None or r.start < first_child_start:
                first_child_start = r.start
            segments.append(replace(r, rank=pid, parent_span_id=parent))

        # checkpoint.resume: dispatch -> the resumed attempt's first
        # recorded span (its restart-load window).
        if b["resumed"]:
            resume_end = (first_child_start
                          if first_child_start is not None
                          and first_child_start > start_pt
                          else min(attempt_end, start_pt + 1e-4))
            segments.append(SpanRecord(
                name="checkpoint.resume",
                start=start_pt, end=resume_end,
                rank=pid,
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
                segments.append(SpanRecord(
                    name="retry.backoff",
                    start=attempt_end, end=gate_pt,
                    rank=PID_SERVICE,
                    span_id=new_span_id(),
                    parent_span_id=jj.root_span_id,
                    attrs={"after_attempt": b["attempt"]},
                    synthetic=True,
                ))
            ready_pt = gate_pt
        else:
            ready_pt = attempt_end

    return AssembledTrace(
        job_id=jj.job_id,
        trace_id=jj.trace_id,
        segments=segments,
        critical_path=_critical_path(segments),
        warnings=warnings,
    )


def _critical_path(segments: list[SpanRecord]) -> list[SpanRecord]:
    """The chain of segments accounting for end-to-end latency.

    Client submit → (queue.wait → attempt → [retry.backoff])* in
    timeline order; within each attempt, the longest-child chain
    (:func:`~repro.obs.spans.critical_path`) so the path names the
    dominant SCF phase, not just "the attempt took a while".
    """
    path = [s for s in segments if s.name == "client/submit"][:1]
    for seg in sorted(
        (s for s in segments
         if s.name in ("queue.wait", "retry.backoff", "job/attempt")),
        key=lambda s: s.start,
    ):
        if seg.name == "job/attempt":
            path += [r for r, _ in critical_path(segments, seg)]
        else:
            path.append(seg)
    return path
