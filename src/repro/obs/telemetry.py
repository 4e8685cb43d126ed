"""Live telemetry: the run's event log, streamed while the run is in flight.

Instrumented code reports every occurrence once, through the event log
(:func:`~repro.obs.events.get_event_log`).  :class:`TelemetryChannel`
is an :class:`~repro.obs.events.EventLog` with a bounded backlog that
also fans each event out as it is recorded:

* to a unix socket (:meth:`TelemetryChannel.serve`): a process may
  connect *mid-run*, gets the backlog, then the live stream — what
  ``repro monitor`` follows;
* to in-process subscribers (:meth:`TelemetryChannel.subscribe`) and
  the ``on_emit`` hook (an :class:`~repro.obs.stream.ObsStreamer` writes
  the ``repro serve`` daemon's ``events.ndjson`` through it).

A ``--telemetry`` run chains a channel behind its own event log
(:class:`~repro.obs.session.ObsSession`), whose ``events.ndjson`` stays
the run's one event file; the ``repro serve`` daemon installs its
channel *as* the process event log, holding a bounded backlog.  Times
come from ``time.perf_counter``, the tracer's clock.  The socket
carries the one event line (:func:`~repro.obs.events.event_record`),
which :func:`~repro.obs.events.events_from_ndjson` reads back, as it
does the ``kind`` / ``source`` lines of earlier builds' recordings.
"""

from __future__ import annotations

import json
import logging
import os
import socket
import threading
import time
from pathlib import Path
from typing import Any, Callable

from repro.obs.events import Event, EventLog, event_record, events_from_ndjson

logger = logging.getLogger("repro.obs.telemetry")

#: Default in-memory backlog (records) replayed to late subscribers.
DEFAULT_BUFFER = 4096

#: Per-socket-client pending-bytes cap before a slow subscriber is
#: dropped.  Sends are non-blocking (the publisher must never stall on
#: a reader); bytes the kernel buffer will not take queue here first.
CLIENT_BUFFER_CAP = 1 << 20


def close_listener(server: socket.socket,
                   thread: threading.Thread | None) -> None:
    """Close a listening socket whose ``accept()`` loop runs on ``thread``.

    ``close()`` alone leaves a thread parked in ``accept()`` asleep on
    Linux (joining it only ever timed out); ``shutdown()`` fails the
    pending accept, the loop returns, and the join is immediate.  The
    join's timeout is a guard for platforms that do not, not a sleep.
    """
    try:
        server.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    if thread is not None:
        thread.join(timeout=5)
    try:
        server.close()
    except OSError:  # pragma: no cover - teardown best effort
        pass


class TelemetryChannel(EventLog):
    """An event log that streams: bounded backlog, socket, subscribers.

    Thread-safe: the daemon's request threads, its dispatch loop and the
    socket server's accept thread all reach it; the backlog and the
    socket clients sit behind one lock.  Slow or dead socket
    subscribers are dropped, never waited on — telemetry must not be
    able to stall the SCF.

    Parameters
    ----------
    clock:
        As for :class:`~repro.obs.events.EventLog`.
    buffer:
        Backlog length: the newest ``buffer`` events are kept (and
        replayed to a socket client that connects late).
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
        self._clients: dict[socket.socket, bytearray] = {}
        self._server: socket.socket | None = None
        self._server_thread: threading.Thread | None = None
        self._flush_thread: threading.Thread | None = None
        self._socket_path: Path | None = None
        self._closed = False
        self._closing = threading.Event()  # ends the flush thread's nap
        self.published = 0

    # -- recording -----------------------------------------------------------

    def record(self, ev: Event) -> None:
        """Keep ``ev`` in the backlog and fan it out."""
        data = (json.dumps(event_record(ev)) + "\n").encode()
        with self._lock:
            if self._closed:
                return
            self.events.append(ev)
            self.published += 1
            subscribers = list(self._subscribers)
            for client in list(self._clients):
                self._send(client, data)
            # Under the lock: the file's line order is the backlog's,
            # and close() waits out a write already past the check.
            if self.on_emit is not None:
                self.on_emit(ev)
        for fn in subscribers:
            try:
                fn(ev)
            except Exception:  # pragma: no cover - subscriber bug guard
                logger.exception("telemetry subscriber failed; detaching")
                self.unsubscribe(fn)

    def publish(self, kind: str, **fields: Any) -> Event:
        """:meth:`emit` under its name from before the channel was an
        event log; only the ledger's publish-cost probe still calls it."""
        return self.emit(kind, **fields)

    # -- in-process subscription ---------------------------------------------

    def subscribe(self, fn: Callable[[Event], None]) -> None:
        """Register ``fn`` to be called once per recorded event."""
        with self._lock:
            self._subscribers.append(fn)

    def unsubscribe(self, fn: Callable[[Event], None]) -> None:
        with self._lock:
            if fn in self._subscribers:
                self._subscribers.remove(fn)

    # -- unix-socket subscription --------------------------------------------

    @property
    def socket_path(self) -> Path | None:
        """Where :meth:`serve` is listening, or ``None``."""
        return self._socket_path

    def server_fileno(self) -> int | None:
        """The listening socket's fd, or ``None`` when not serving.

        Exposed so daemons that fork worker processes can close the
        inherited listen fd in the child — a child holding it would
        keep the socket accepting connections after the parent dies,
        defeating stale-socket liveness probes.
        """
        with self._lock:
            return None if self._server is None else self._server.fileno()

    def serve(self, path: str | Path) -> Path | None:
        """Listen on a unix socket; subscribers may connect mid-run.

        Each accepted client first receives the buffered backlog, then
        every subsequent record as it is published.  Returns the socket
        path, or ``None`` when the socket could not be created (too-long
        path, unsupported platform) — telemetry degrades, never raises.
        """
        path = Path(path)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            if path.exists():
                path.unlink()
            server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            server.bind(str(path))
            server.listen(8)
        except OSError as exc:
            logger.warning("telemetry socket %s unavailable: %s", path, exc)
            return None
        self._server = server
        self._socket_path = path
        self._server_thread = threading.Thread(
            target=self._accept_loop, name="telemetry-accept", daemon=True
        )
        self._server_thread.start()
        self._flush_thread = threading.Thread(
            target=self._flush_loop, name="telemetry-flush", daemon=True
        )
        self._flush_thread.start()
        logger.info("telemetry socket listening at %s", path)
        return path

    def _accept_loop(self) -> None:
        assert self._server is not None
        while True:
            try:
                client, _ = self._server.accept()
            except OSError:
                return  # server closed
            client.setblocking(False)
            with self._lock:
                if self._closed:
                    client.close()
                    return
                self._clients[client] = bytearray()
                backlog = "".join(
                    json.dumps(event_record(ev)) + "\n" for ev in self.events
                ).encode()
                if backlog:
                    self._send(client, backlog)

    def _flush_loop(self) -> None:
        # Retry clients' queued bytes even when nothing new is being
        # published, so a reader that drains the kernel buffer between
        # publishes still receives the rest of the stream.
        while True:
            with self._lock:
                if self._closed:
                    return
                for client in list(self._clients):
                    if self._clients.get(client):
                        self._send(client, b"")
            self._closing.wait(0.05)

    def _send(self, client: socket.socket, data: bytes) -> None:
        # caller holds the lock.  Non-blocking: whatever the kernel
        # buffer refuses queues per-client and is retried on the next
        # publish; a subscriber more than CLIENT_BUFFER_CAP behind is
        # dropped rather than allowed to stall or bloat the run.
        pending = self._clients.get(client)
        if pending is None:
            return
        pending += data
        if not pending:
            return
        try:
            sent = client.send(pending)
            del pending[:sent]
        except (BlockingIOError, InterruptedError):
            pass
        except OSError:
            self._drop_client(client)
            return
        if len(pending) > CLIENT_BUFFER_CAP:
            logger.warning("dropping telemetry subscriber %d bytes behind",
                           len(pending))
            self._drop_client(client)

    def _drop_client(self, client: socket.socket) -> None:
        # caller holds the lock
        try:
            client.close()
        finally:
            self._clients.pop(client, None)

    # -- teardown ------------------------------------------------------------

    def close(self) -> None:
        """Stop serving, drop clients, refuse further events."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            clients = dict(self._clients)
            self._clients.clear()
            server, self._server = self._server, None
        for client, pending in clients.items():
            try:
                if pending:
                    # Bounded final flush so live monitors see the tail
                    # (run.end, the last heartbeats) before the hangup.
                    client.settimeout(1.0)
                    client.sendall(bytes(pending))
            except OSError:
                pass
            finally:
                try:
                    client.close()
                except OSError:  # pragma: no cover - teardown best effort
                    pass
        self._closing.set()
        if server is not None:
            close_listener(server, self._server_thread)
        if self._flush_thread is not None:
            self._flush_thread.join(timeout=5)
        self._server_thread = self._flush_thread = None
        if self._socket_path is not None:
            try:
                self._socket_path.unlink()
            except OSError:
                pass
            self._socket_path = None

    def __enter__(self) -> "TelemetryChannel":
        return self

    def __exit__(self, *exc: object) -> bool:
        self.close()
        return False


class TelemetryClient:
    """Line-buffered reader attached to a channel's unix socket.

    Used by ``repro monitor`` to follow a live run: :meth:`poll`
    returns whatever complete records arrived within ``max_wait``
    seconds (possibly none), so the dashboard can redraw on its own
    cadence.  ``eof`` turns true once the server hangs up.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.connect(str(self.path))
        self._buf = b""
        self.eof = False

    def poll(self, max_wait: float = 0.5) -> list[Event]:
        """Drain records available within ``max_wait`` seconds."""
        if self.eof:
            return []
        self._sock.settimeout(max_wait)
        try:
            chunk = self._sock.recv(65536)
            if not chunk:
                self.eof = True
            self._buf += chunk
        except socket.timeout:
            pass
        except OSError:
            self.eof = True
        lines, _, self._buf = self._buf.rpartition(b"\n")
        return events_from_ndjson(lines.decode())

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - teardown best effort
            pass

    def __enter__(self) -> "TelemetryClient":
        return self

    def __exit__(self, *exc: object) -> bool:
        self.close()
        return False


#: Worker-count guard for unix socket paths (sun_path is ~107 bytes).
_MAX_SOCKET_PATH = 100


def default_socket_path(run_dir: str | Path | None) -> Path:
    """A socket path for a run directory, short enough to bind.

    ``sun_path`` is limited to ~107 bytes; when the run directory is
    too deep (or there is none: an unregistered run) the socket falls
    back to an abstract-ish short name under the default temp
    directory, keyed by pid so concurrent runs do not collide.
    """
    if run_dir is not None:
        candidate = Path(run_dir) / "telemetry.sock"
        if len(str(candidate)) <= _MAX_SOCKET_PATH:
            return candidate
    import tempfile

    return Path(tempfile.gettempdir()) / f"repro-telemetry-{os.getpid()}.sock"
