"""The long-lived event log: thread-safe, bounded, with subscribers.

Instrumented code reports every occurrence once, through the event log
(:func:`~repro.obs.events.get_event_log`).  One run's log keeps all its
events; a ``repro serve`` daemon runs for days and is reached from its
request threads and its dispatch loop at once.  It installs a
:class:`TelemetryChannel` as the process event log: an
:class:`~repro.obs.events.EventLog` that holds a bounded backlog behind
one lock and hands each event to in-process subscribers
(:meth:`TelemetryChannel.subscribe`) and to the ``on_emit`` hook, where
an :class:`~repro.obs.stream.ObsStreamer` writes the serve run's
``events.ndjson``.  That file is the one live view of a run:
``repro monitor`` follows it as it grows.  Times come from
``time.perf_counter``, the tracer's clock.
"""

from __future__ import annotations

import logging
import threading
import time
from typing import Any, Callable

from repro.obs.events import Event, EventLog

logger = logging.getLogger("repro.obs.telemetry")

#: Default in-memory backlog (records) a long-lived log keeps.
DEFAULT_BUFFER = 4096


class TelemetryChannel(EventLog):
    """A thread-safe event log with a bounded backlog and subscribers.

    The backlog, the subscriber list and the ``on_emit`` hook sit behind
    one lock, so the daemon's ``events.ndjson`` keeps backlog order and
    :meth:`close` never races a write.  A subscriber that raises is
    detached, never retried: it must not be able to stall the run.

    Parameters
    ----------
    clock:
        As for :class:`~repro.obs.events.EventLog`.
    buffer:
        Backlog length: the newest ``buffer`` events are kept.
    """

    def __init__(
        self,
        *,
        clock: Callable[[], float] = time.perf_counter,
        buffer: int = DEFAULT_BUFFER,
    ) -> None:
        super().__init__(clock=clock, maxlen=buffer)
        self._lock = threading.Lock()
        self._subscribers: list[Callable[[Event], None]] = []
        self._closed = False
        self.published = 0

    def record(self, ev: Event) -> None:
        """Keep ``ev`` in the backlog and fan it out."""
        with self._lock:
            if self._closed:
                return
            self.events.append(ev)
            self.published += 1
            subscribers = list(self._subscribers)
            # Under the lock: the file's line order is the backlog's,
            # and close() waits out a write already past the check.
            if self.on_emit is not None:
                self.on_emit(ev)
        for fn in subscribers:
            try:
                fn(ev)
            except Exception:  # pragma: no cover - subscriber bug guard
                logger.exception("event subscriber failed; detaching")
                self.unsubscribe(fn)

    def publish(self, kind: str, **fields: Any) -> Event:
        """:meth:`emit` under its name from before the channel was an
        event log; only the ledger's publish-cost probe still calls it."""
        return self.emit(kind, **fields)

    def subscribe(self, fn: Callable[[Event], None]) -> None:
        """Register ``fn`` to be called once per recorded event."""
        with self._lock:
            self._subscribers.append(fn)

    def unsubscribe(self, fn: Callable[[Event], None]) -> None:
        with self._lock:
            if fn in self._subscribers:
                self._subscribers.remove(fn)

    def close(self) -> None:
        """Refuse further events."""
        with self._lock:
            self._closed = True

    def __enter__(self) -> "TelemetryChannel":
        return self

    def __exit__(self, *exc: object) -> bool:
        self.close()
        return False
