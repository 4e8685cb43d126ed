"""Structured run-event log: NDJSON-able discrete events with rank context.

Spans (:mod:`repro.obs.tracer`) answer *where the time went*; the event
log answers *what happened* — discrete, timestamped occurrences with a
rank context that the timeline analyzer overlays on the span Gantt and
the ``repro monitor`` dashboard folds live:

* ``run.start`` / ``run.end`` — the parallel SCF driver's bracket;
* ``scf.cycle`` / ``scf.converged`` / ``scf.restart`` — SCF progress;
* ``scf.checkpoint`` — checkpoint writes (cycle, path);
* ``dlb.reset`` / ``dlb.rank_done`` — the grant schedulers'
  lifecycle;
* ``fault.kill`` / ``fault.delay`` / ``fault.corrupt`` — injected
  faults and their recovery (:mod:`repro.resilience`), logged by the
  parent's build driver on either backend: ``fault.kill`` marks a rank
  replayed into its slot, dead or late (how many tasks; on the process
  backend also whether its heartbeat had already gone silent), which
  is what makes a faulted run's timeline show *when* a rank died;
* ``worker.heartbeat`` / ``worker.hung`` / ``worker.recovered`` /
  ``worker.lost`` — process-backend (and service-fleet) liveness;
* ``scf.recovery`` — only older recordings carry it: the stage
  escalations of the convergence guard, since removed; the timeline
  still draws them (``R``);
* ``job.*`` / ``service.*`` / ``slo.*`` — the ``repro serve`` daemon's
  lifecycle records.

Like the tracer and the metrics registry, the log is installed globally
(:func:`use_event_log`) and defaults to *off*: instrumented code pays
one ``get_event_log()`` call and an ``is None`` test per event.  It is
the one channel instrumented code reports through.  A run streams its
log to ``events.ndjson`` (:class:`~repro.obs.stream.ObsStreamer`), which
``repro monitor`` follows live; the service daemon installs a
thread-safe, bounded log (:class:`~repro.obs.telemetry.TelemetryChannel`).

Timestamps come from the same ``time.perf_counter`` clock the tracer
uses, so events and spans share a time base and the exporters can place
events on the span timeline exactly.
"""

from __future__ import annotations

import json
import time
from collections import Counter, deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator


@dataclass(frozen=True)
class Event:
    """One discrete run event.

    Attributes
    ----------
    kind:
        Dotted event name (``"fault.kill"``, ``"scf.cycle"``, ...).
    t:
        Clock reading at emission (absolute; the exporters normalize).
    rank:
        Simulated MPI rank context, or ``None`` for run-global events.
    fields:
        Arbitrary JSON-able payload (cycle, factor, payload, ...).
    """

    kind: str
    t: float
    rank: int | None = None
    fields: dict[str, Any] = field(default_factory=dict)


class EventLog:
    """Append-only recorder of :class:`Event` records.

    Parameters
    ----------
    clock:
        Monotonic second counter; :func:`time.perf_counter` by default
        (the tracer's clock, so spans and events line up).
    on_emit:
        Optional callback invoked with each event as it is recorded —
        the incremental-NDJSON hook
        (:class:`~repro.obs.stream.ObsStreamer`), mirroring
        ``Tracer.on_close``.
    maxlen:
        Keep only the newest ``maxlen`` events (a long-lived log);
        ``None`` keeps them all (one run's log).
    """

    def __init__(
        self,
        *,
        clock: Callable[[], float] = time.perf_counter,
        on_emit: Callable[[Event], None] | None = None,
        maxlen: int | None = None,
    ) -> None:
        self.clock = clock
        self.on_emit = on_emit
        self.events: list[Event] | deque[Event] = (
            [] if maxlen is None else deque(maxlen=maxlen)
        )

    def emit(self, kind: str, *, rank: int | None = None, **fields: Any) -> Event:
        """Record an event now; returns the stored record."""
        ev = Event(kind=kind, t=self.clock(), rank=rank, fields=fields)
        self.record(ev)
        return ev

    def record(self, ev: Event) -> None:
        """Append an event built elsewhere (another log emitted it)."""
        self.events.append(ev)
        if self.on_emit is not None:
            self.on_emit(ev)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def kinds(self) -> dict[str, int]:
        """Event count per kind (diagnostics/tests)."""
        return dict(Counter(ev.kind for ev in self.events))

    def clear(self) -> None:
        self.events.clear()


def _json_safe(value: Any) -> Any:
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return str(value)


def event_record(ev: Event, t0: float = 0.0) -> dict[str, Any]:
    """The JSON-ready dict for one event: the one event line
    (``events.ndjson``)."""
    rec: dict[str, Any] = {
        "event": ev.kind,
        "t_s": ev.t - t0,
        "rank": ev.rank,
    }
    rec.update({k: _json_safe(v) for k, v in ev.fields.items()})
    return rec


def ndjson_records(text: str) -> Iterator[dict[str, Any]]:
    """The JSON object of each line of an NDJSON text.

    Blank lines are skipped, and so is a line that does not parse: the
    torn tail of a writer killed mid-line.
    """
    for line in text.splitlines():
        if line.strip():
            try:
                yield json.loads(line)
            except json.JSONDecodeError:
                continue


def event_from_record(rec: dict[str, Any]) -> Event:
    """Parse one :func:`event_record` line back into an event.

    Recordings of earlier builds spell the kind ``kind`` and carry a
    ``source``; a ``rank<N>`` source names the rank, any other source
    (``driver``, ``service``, ``worker<N>``) is a run-global event.
    """
    rec = dict(rec)
    source = ""
    if "event" in rec:
        kind = rec.pop("event")
    else:
        kind, source = rec.pop("kind"), str(rec.pop("source", ""))
    t = float(rec.pop("t_s", 0.0))
    rank = rec.pop("rank", None)
    if rank is None and source.startswith("rank") and source[4:].isdigit():
        rank = int(source[4:])
    return Event(kind=kind, t=t, rank=rank, fields=rec)


def events_ndjson(log: EventLog, *, t0: float | None = None) -> str:
    """One JSON line per event, timestamps relative to ``t0``.

    ``t0`` defaults to the first event's clock reading; the profile CLI
    passes the traced run's earliest span start so events land on the
    same relative axis as ``spans_ndjson``.
    """
    if t0 is None:
        t0 = log.events[0].t if log.events else 0.0
    return "\n".join(json.dumps(event_record(ev, t0)) for ev in log.events)


def events_from_ndjson(text: str) -> list[Event]:
    """Parse an event NDJSON text (``events.ndjson``, a telemetry
    recording of any build) back into :class:`Event` records.

    Parsed timestamps are the file's ``t_s`` values.
    """
    return [event_from_record(rec) for rec in ndjson_records(text)]


_current_log: EventLog | None = None


def get_event_log() -> EventLog | None:
    """The globally installed event log, or ``None`` (logging off)."""
    return _current_log


def set_event_log(log: EventLog | None) -> None:
    """Install a global event log; ``None`` disables event capture."""
    global _current_log
    _current_log = log


@contextmanager
def use_event_log(log: EventLog) -> Iterator[EventLog]:
    """Install ``log`` for the duration of a ``with`` block."""
    previous = _current_log
    set_event_log(log)
    try:
        yield log
    finally:
        set_event_log(previous)
