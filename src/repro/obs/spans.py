"""The flat span record, and what reads, walks and draws it.

One vocabulary for every trace: a ``repro profile`` tracer, a
``spans.ndjson`` read back days later, a service worker's attempt file,
the synthetic segments of a job's trace (:mod:`repro.obs.trace_assembly`).

* :class:`SpanRecord` — one finished span;
* :func:`spans_from_tracer` / :func:`spans_from_ndjson` — records from
  a live tracer or from NDJSON;
* :func:`critical_path` — the longest-child chain down parent links;
* :func:`chrome_trace` — the one Chrome ``trace_event`` builder
  (``chrome://tracing``, ui.perfetto.dev).  The simulated MPI rank is
  the process track and the OpenMP thread the thread track, so a run
  reads like the per-rank/per-thread timelines of the paper.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, NamedTuple, Sequence

from repro.obs.events import Event, EventLog, ndjson_records
from repro.obs.export import _json_safe, write_text
from repro.obs.tracer import Tracer, new_span_id

_MICRO = 1e6

#: pid stride between the runs of a merged trace (ranks per run < stride).
PID_STRIDE = 1000


@dataclass
class SpanRecord:
    """One finished span, flattened: absolute times, rank/thread resolved.

    ``rank`` is the span's process track: an MPI rank in a run's trace,
    the client, daemon or a worker attempt in a job's.  ``thread`` is
    ``None`` when nothing on the span's path set one.
    """

    name: str
    start: float
    end: float
    rank: int = 0
    thread: int | None = None
    span_id: str | None = None
    parent_span_id: str | None = None
    attrs: dict[str, Any] = field(default_factory=dict)
    synthetic: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


def _as_int(value: Any, default: int = 0) -> int:
    try:
        return int(value)
    except (TypeError, ValueError):
        return default


def spans_from_tracer(tracer: Tracer) -> list[SpanRecord]:
    """A tracer's finished spans, depth-first.  Spans recorded without a
    trace context get fresh ids, so the parent links hold either way."""
    ids: dict[int, str] = {}
    out: list[SpanRecord] = []
    for s in tracer.walk():
        if s.end is None:
            continue
        ids[id(s)] = span_id = s.span_id or new_span_id()
        thread = s.effective_attr("thread", None)
        out.append(SpanRecord(
            name=s.name, start=s.start, end=s.end,
            rank=_as_int(s.effective_attr("rank", 0)),
            thread=None if thread is None else _as_int(thread),
            span_id=span_id,
            parent_span_id=(s.parent_span_id if s.span_id
                            else ids.get(id(s.parent))),
            attrs=dict(s.attrs),
        ))
    return out


def spans_from_ndjson(text: str) -> list[SpanRecord]:
    """Span records from NDJSON lines (:func:`~repro.obs.export.span_record`).

    A line that does not parse — the torn tail of a killed writer — is
    skipped, and so is a record that is not a span.  A file written
    without ids (``repro profile``'s) gets fresh ones, each span
    parented on the span one ``depth`` up whose interval holds it: the
    latest such span of its rank, else of any.
    """
    lines = [rec for rec in ndjson_records(text) if isinstance(rec, dict)
             and {"span", "start_s", "dur_s"} <= rec.keys()]
    out = []
    for rec in lines:
        start = float(rec["start_s"])
        out.append(SpanRecord(
            name=rec["span"], start=start, end=start + float(rec["dur_s"]),
            rank=_as_int(rec.get("rank", 0)),
            thread=_as_int(rec["thread"]) if "thread" in rec else None,
            span_id=rec.get("span_id"),
            parent_span_id=rec.get("parent_span_id"),
            attrs=rec.get("attrs") or {},
        ))
    if any(r.span_id for r in out):
        return out
    depths = [_as_int(rec.get("depth", 0)) for rec in lines]
    last: dict[tuple[int, int | None], SpanRecord] = {}
    for i in sorted(range(len(out)), key=lambda i: (out[i].start, depths[i])):
        s, depth = out[i], depths[i]
        s.span_id = new_span_id()
        parent = last.get((depth - 1, s.rank))
        if parent is None or parent.end < s.end or parent.start > s.start:
            parent = last.get((depth - 1, None))
        if (depth > 0 and parent is not None
                and parent.start <= s.start and parent.end >= s.end):
            s.parent_span_id = parent.span_id
        last[(depth, s.rank)] = last[(depth, None)] = s
    return out


def critical_path(
    records: Sequence[SpanRecord], root: SpanRecord | None = None
) -> list[tuple[SpanRecord, float]]:
    """The chain of longest spans down the parent links, each with its
    self time (its duration less its children's).

    The chain starts at ``root`` — by default the longest record whose
    parent is not among ``records`` — and steps to the longest child
    while that child lasts any time at all.
    """
    children: dict[str, list[SpanRecord]] = {}
    for r in records:
        if r.parent_span_id is not None:
            children.setdefault(r.parent_span_id, []).append(r)
    if root is None:
        ids = {r.span_id for r in records if r.span_id}
        root = max((r for r in records if r.parent_span_id not in ids),
                   key=lambda r: r.duration, default=None)
    path = []
    while root is not None:
        kids = children.get(root.span_id, [])
        self_s = root.duration - sum(k.duration for k in kids)
        path.append((root, max(self_s, 0.0)))
        root = max(kids, key=lambda r: r.duration, default=None)
        if root is not None and root.duration <= 0:
            root = None
    return path


# -- Chrome trace_event ------------------------------------------------------


class Track(NamedTuple):
    """Records drawn on the Chrome process ``pid``, named ``name``.

    With ``tid`` the track is one named thread of that process instead
    (a lane): every record is drawn on it, under category ``cat``.
    """

    pid: int
    name: str
    records: Sequence[SpanRecord] = ()
    tid: int | None = None
    cat: str | None = None


def rank_tracks(
    records: Iterable[SpanRecord],
    name: Callable[[int], str] = "rank {}".format,
    pid_base: int = 0,
) -> list[Track]:
    """One process track per rank (pid ``pid_base + rank``), in rank order."""
    by_rank: dict[int, list[SpanRecord]] = {}
    for r in records:
        by_rank.setdefault(r.rank, []).append(r)
    return [Track(pid_base + rank, name(rank), recs)
            for rank, recs in sorted(by_rank.items())]


def chrome_trace(
    tracks: Iterable[Track],
    events: Iterable[Event] = (),
    *,
    pid_base: int = 0,
    ids: bool = False,
    other: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """The Chrome trace document of labelled tracks plus an event overlay.

    Times are microseconds from the earliest record (else the earliest
    event).  A record is a complete (``"X"``) event on its track's
    process, on its own thread unless the track is a lane; ``ids`` adds
    its span and parent ids to its args.  An event is an instant
    (``"i"``) on pid ``pid_base`` + its rank (a run-global one on
    ``pid_base``) — how a faulted run's kill, recovery and checkpoint
    moments show inside the span timeline.
    """
    tracks, events = list(tracks), list(events)
    starts = [r.start for t in tracks for r in t.records]
    t0 = min(starts) if starts else min((ev.t for ev in events), default=0.0)
    out: list[dict[str, Any]] = []
    for pid, name, records, tid, cat in tracks:
        out.append({"name": "process_name" if tid is None else "thread_name",
                    "ph": "M", "pid": pid, "tid": tid or 0,
                    "args": {"name": name}})
        for r in records:
            args = {k: _json_safe(v) for k, v in r.attrs.items()}
            if ids and r.span_id is not None:
                args["span_id"] = r.span_id
                if r.parent_span_id:
                    args["parent_span_id"] = r.parent_span_id
            if r.synthetic:
                args["synthetic"] = True
            out.append({
                "name": r.name,
                "cat": cat or ("synthetic" if r.synthetic
                               else r.name.split("/", 1)[0]),
                "ph": "X",
                "ts": (r.start - t0) * _MICRO,
                "dur": r.duration * _MICRO,
                "pid": pid,
                "tid": (r.thread or 0) if tid is None else tid,
                "args": args,
            })
    for ev in events:
        out.append({
            "name": ev.kind,
            "cat": ev.kind.split(".", 1)[0],
            "ph": "i",
            "ts": (ev.t - t0) * _MICRO,
            "pid": pid_base + int(ev.rank or 0),
            "tid": 0,
            "s": "g" if ev.rank is None else "p",
            "args": {k: _json_safe(v) for k, v in ev.fields.items()},
        })
    return {"traceEvents": out, "displayTimeUnit": "ms",
            "otherData": {"producer": "repro.obs", **(other or {})}}


def to_chrome_trace(
    tracer: Tracer, *, events: EventLog | Iterable[Event] | None = None
) -> dict[str, Any]:
    """A traced run's document: a process per rank, a named thread per
    (rank, thread), the event log overlaid."""
    records = spans_from_tracer(tracer)
    lanes = sorted({(r.rank, r.thread or 0) for r in records})
    return chrome_trace(
        [*rank_tracks(records),
         *(Track(rank, f"thread {t}", tid=t) for rank, t in lanes)],
        events or (),
    )


def write_chrome_trace(
    tracer: Tracer,
    path: str | Path,
    *,
    events: EventLog | Iterable[Event] | None = None,
) -> Path:
    """Write :func:`to_chrome_trace` to ``path`` (parent dirs created)."""
    return write_text(path, json.dumps(to_chrome_trace(tracer, events=events)))


def merged_chrome_trace(
    runs: Sequence[tuple[str, Sequence[SpanRecord], Sequence[Event]]],
) -> dict[str, Any]:
    """Several runs side by side in one document, e.g. the three Fock
    algorithms in one Perfetto tab.

    ``runs`` holds ``(label, spans, events)``; run *k* is drawn on its
    own time base, its ranks on pids ``k * PID_STRIDE + rank`` named
    ``"<label> rank <r>"``.
    """
    out: list[dict[str, Any]] = []
    for k, (label, spans, events) in enumerate(runs):
        base = k * PID_STRIDE
        tracks = rank_tracks(spans, f"{label} rank {{}}".format, base)
        out += chrome_trace(tracks, events, pid_base=base)["traceEvents"]
    return {**chrome_trace(()), "traceEvents": out}
