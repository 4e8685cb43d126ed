"""Incremental NDJSON streaming of spans and events.

A worker that dies mid-build via ``os._exit`` (the fault injector's
kill path) never reaches the batch exporters of :mod:`repro.obs.export`.
:class:`ObsStreamer` hooks the tracer's ``on_close`` and the event
log's ``on_emit`` and appends one JSON line per completed span /
emitted event to unbuffered append files the moment the record exists,
so a killed worker's output is durable up to its last completed span.
The lines are those of ``spans.ndjson`` / ``events.ndjson``, read by
:func:`~repro.obs.spans.spans_from_ndjson` and
:func:`~repro.obs.events.events_from_ndjson` (a torn last line too).

:class:`SpanBatchWriter` writes a service worker's job trace a cycle at
a time (a killed attempt loses at most its cycle in flight), with a Fock
build's inner spans folded into totals on the build's own record;
``repro profile`` and ``repro scf`` keep every span.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, BinaryIO, Sequence

from repro.obs.events import Event, EventLog, event_record
from repro.obs.export import span_record
from repro.obs.tracer import Span, Tracer


class NDJSONStreamWriter:
    """Append JSON records to a file, whole lines per ``write`` call.

    The file is unbuffered and opened for append: every call below is
    one ``write`` of whole lines, which survives an ``os._exit`` the
    moment it returns, and concurrent writers appending to *separate*
    files can be merged afterwards without tearing.  ``writes`` counts
    the calls that wrote.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh: BinaryIO = open(self.path, "ab", buffering=0)
        self.writes = 0

    def write(self, record: dict[str, Any]) -> None:
        self.write_lines((json.dumps(record),))

    def write_lines(self, lines: Sequence[str]) -> None:
        """Append pre-serialized JSON lines in one ``write``."""
        if not lines:
            return
        data = memoryview(("\n".join(lines) + "\n").encode())
        while data:  # a regular file takes it whole but for a full disk
            data = data[self._fh.write(data):]
        self.writes += 1

    def close(self) -> None:
        try:
            self._fh.close()
        except OSError:  # pragma: no cover - teardown best effort
            pass

    def __enter__(self) -> "NDJSONStreamWriter":
        return self

    def __exit__(self, *exc: object) -> bool:
        self.close()
        return False


#: Suffixes of the attrs a folded span name adds to its ``fock/build``.
_COUNT, _TOTAL = ".count", ".total_s"


def folded_totals(attrs: dict[str, Any]) -> list[tuple[str, int, float]]:
    """``(name, count, total_s)`` of each name :class:`SpanBatchWriter`
    folded into a record's ``attrs``, largest total first."""
    rows = []
    for key, secs in attrs.items():
        name = key.removesuffix(_TOTAL)
        count = attrs.get(name + _COUNT)
        if name != key and count is not None:
            rows.append((name, int(count), float(secs)))
    return sorted(rows, key=lambda row: -row[2])


class SpanBatchWriter:
    """A tracer's ``on_close`` hook that writes spans a cycle at a time.

    Closed spans are kept; when an SCF cycle's span (:attr:`CYCLE`)
    closes, and on :meth:`flush` / :meth:`close`, they are serialized
    (:func:`~repro.obs.export.span_record`, absolute ``perf_counter``
    timestamps: the cross-process time base trace assembly aligns on)
    and go to ``path`` in one ``write``.  The file only ever holds
    complete lines, and a cycle's children are in it whenever the
    cycle's own line is.

    A span that closes inside an open :attr:`FOLD` span is not kept:
    its duration is added to that ancestor's attrs as
    ``<name>.count`` / ``<name>.total_s``, the build's phase totals.
    """

    #: The span whose close writes the kept spans.
    CYCLE = "scf/iteration"
    #: The span whose inner spans become totals on its own record.
    FOLD = "fock/build"

    def __init__(self, path: str | Path) -> None:
        self._out = NDJSONStreamWriter(path)
        self._spans: list[Span] = []

    def __call__(self, span: Span) -> None:
        node = span.parent
        while node is not None:
            if node.name == self.FOLD:
                attrs = node.attrs
                count, total = span.name + _COUNT, span.name + _TOTAL
                attrs[count] = attrs.get(count, 0) + 1
                attrs[total] = attrs.get(total, 0.0) + span.duration
                return
            node = node.parent
        self._spans.append(span)
        if span.name == self.CYCLE:
            self.flush()

    def flush(self) -> None:
        """Write the kept spans (one ``write``; none when there are none)."""
        self._out.write_lines(
            [json.dumps(span_record(s)) for s in self._spans])
        self._spans = []

    @property
    def writes(self) -> int:
        """``write`` calls made so far."""
        return self._out.writes

    def close(self) -> None:
        self.flush()
        self._out.close()


class ObsStreamer:
    """Stream a tracer's spans and an event log's events as they happen.

    Parameters
    ----------
    directory:
        Destination directory; ``spans.ndjson`` / ``events.ndjson`` are
        appended there (the per-worker obs layout).
    tracer, log:
        The instruments to hook.  Their existing callbacks (if any) are
        chained, not replaced.
    t0:
        Shared time base subtracted from every timestamp — the process
        backend passes one ``perf_counter`` reading to every worker so
        all streams land on one merged timeline.
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        tracer: Tracer | None = None,
        log: EventLog | None = None,
        t0: float = 0.0,
    ) -> None:
        self.directory = Path(directory)
        self.t0 = t0
        self.tracer = tracer
        self.log = log
        self._spans: NDJSONStreamWriter | None = None
        self._events: NDJSONStreamWriter | None = None
        self._prev_on_close = None
        self._prev_on_emit = None
        if tracer is not None:
            self._spans = NDJSONStreamWriter(self.directory / "spans.ndjson")
            self._prev_on_close = tracer.on_close
            tracer.on_close = self._span_closed
        if log is not None:
            self._events = NDJSONStreamWriter(self.directory / "events.ndjson")
            self._prev_on_emit = log.on_emit
            log.on_emit = self._event_emitted

    # -- hooks ---------------------------------------------------------------

    def _span_closed(self, span: Span) -> None:
        if self._spans is not None:
            self._spans.write(span_record(span, self.t0))
        if self._prev_on_close is not None:
            self._prev_on_close(span)

    def _event_emitted(self, event: Event) -> None:
        if self._events is not None:
            self._events.write(event_record(event, self.t0))
        if self._prev_on_emit is not None:
            self._prev_on_emit(event)

    # -- teardown ------------------------------------------------------------

    def close(self) -> None:
        """Unhook the instruments and close the files."""
        if self.tracer is not None:
            self.tracer.on_close = self._prev_on_close
            self.tracer = None
        if self.log is not None:
            self.log.on_emit = self._prev_on_emit
            self.log = None
        for writer in (self._spans, self._events):
            if writer is not None:
                writer.close()

    def __enter__(self) -> "ObsStreamer":
        return self

    def __exit__(self, *exc: object) -> bool:
        self.close()
        return False
