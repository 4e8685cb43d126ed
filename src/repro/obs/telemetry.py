"""Live telemetry bus: push-based streaming records for running SCFs.

Everything else in :mod:`repro.obs` is *post-hoc* — spans, events, and
metric snapshots are exported after the run finishes.  The telemetry
channel is the *streaming* counterpart: instrumented code publishes
small sampled records (worker heartbeats, SCF cycle summaries, periodic
:class:`~repro.obs.metrics.MetricsRegistry` snapshots) while the run is
in flight, and consumers — the ``repro monitor`` dashboard, the run
registry's NDJSON sink, an external scraper — subscribe to the stream:

* **in-process** via :meth:`TelemetryChannel.subscribe` (a callable per
  record, used by the NDJSON sink and the tests);
* **out-of-process** via a local unix-domain socket
  (:meth:`TelemetryChannel.serve`): any process may connect *mid-run*,
  receives the channel's buffered backlog first, then the live stream,
  one JSON object per line.

Like the tracer / metrics registry / event log, the channel is
installed globally (:func:`use_telemetry`) and defaults to *off*:
publishers pay one :func:`get_telemetry` call and an ``is None`` test
per sample.  Timestamps come from ``time.perf_counter`` — the same
clock the tracer and the event log use, and the clock the process
backend shares across workers — so telemetry records line up with
spans and events on one time base.

Records transported over the worker pipe (heartbeats) are re-published
by the driver-side monitor onto this channel; workers never talk to
the socket directly.
"""

from __future__ import annotations

import json
import logging
import os
import socket
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

logger = logging.getLogger("repro.obs.telemetry")

#: Default in-memory backlog (records) replayed to late subscribers.
DEFAULT_BUFFER = 4096

#: Per-socket-client pending-bytes cap before a slow subscriber is
#: dropped.  Sends are non-blocking (the publisher must never stall on
#: a reader); bytes the kernel buffer will not take queue here first.
CLIENT_BUFFER_CAP = 1 << 20


def _json_safe(value: Any) -> Any:
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return str(value)


@dataclass(frozen=True)
class TelemetryRecord:
    """One published telemetry sample.

    Attributes
    ----------
    kind:
        Dotted record name (``"worker.heartbeat"``, ``"scf.cycle"``,
        ``"metrics.snapshot"``, ``"worker.hung"``, ...).
    t:
        Clock reading at publication (``perf_counter`` seconds).
    source:
        Who produced it: ``"driver"`` or ``"rank<N>"``.
    payload:
        Arbitrary JSON-able fields.
    """

    kind: str
    t: float
    source: str = "driver"
    payload: dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> str:
        rec = {"kind": self.kind, "t_s": self.t, "source": self.source}
        rec.update({k: _json_safe(v) for k, v in self.payload.items()})
        return json.dumps(rec)


def record_from_json(line: str) -> TelemetryRecord:
    """Parse one :meth:`TelemetryRecord.to_json` line back."""
    rec = json.loads(line)
    return TelemetryRecord(
        kind=rec.pop("kind"),
        t=float(rec.pop("t_s", 0.0)),
        source=rec.pop("source", "driver"),
        payload=rec,
    )


def records_from_ndjson(text: str) -> list[TelemetryRecord]:
    """Parse a telemetry NDJSON dump (e.g. the registry's sink file)."""
    return [
        record_from_json(line)
        for line in filter(None, (ln.strip() for ln in text.splitlines()))
    ]


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


class TelemetryChannel:
    """Publish/subscribe fan-out for live run telemetry.

    Thread-safe: the process backend's collector publishes from the
    driver thread while the socket server broadcasts from its accept
    thread; all shared state sits behind one lock.  Slow or dead socket
    subscribers are dropped, never waited on — telemetry must not be
    able to stall the SCF.
    """

    def __init__(
        self,
        *,
        clock: Callable[[], float] = time.perf_counter,
        buffer: int = DEFAULT_BUFFER,
    ) -> None:
        self.clock = clock
        self.records: deque[TelemetryRecord] = deque(maxlen=buffer)
        self._lock = threading.Lock()
        self._subscribers: list[Callable[[TelemetryRecord], None]] = []
        self._clients: dict[socket.socket, bytearray] = {}
        self._server: socket.socket | None = None
        self._server_thread: threading.Thread | None = None
        self._flush_thread: threading.Thread | None = None
        self._socket_path: Path | None = None
        self._closed = False
        self._closing = threading.Event()  # ends the flush thread's nap
        self.published = 0

    # -- publishing ----------------------------------------------------------

    def publish(
        self,
        kind: str,
        *,
        source: str = "driver",
        t: float | None = None,
        **payload: Any,
    ) -> TelemetryRecord:
        """Publish one record to every subscriber; returns the record."""
        rec = TelemetryRecord(
            kind=kind,
            t=self.clock() if t is None else t,
            source=source,
            payload=payload,
        )
        self.publish_record(rec)
        return rec

    def publish_record(self, rec: TelemetryRecord) -> None:
        """Publish an already-built record (heartbeat re-publication)."""
        line = (rec.to_json() + "\n").encode()
        with self._lock:
            if self._closed:
                return
            self.records.append(rec)
            self.published += 1
            subscribers = list(self._subscribers)
            for client in list(self._clients):
                self._send(client, line)
        for fn in subscribers:
            try:
                fn(rec)
            except Exception:  # pragma: no cover - subscriber bug guard
                logger.exception("telemetry subscriber failed; detaching")
                self.unsubscribe(fn)

    # -- in-process subscription ---------------------------------------------

    def subscribe(self, fn: Callable[[TelemetryRecord], None]) -> None:
        """Register ``fn`` to be called once per published record."""
        with self._lock:
            self._subscribers.append(fn)

    def unsubscribe(self, fn: Callable[[TelemetryRecord], None]) -> None:
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
                backlog = b"".join(
                    (r.to_json() + "\n").encode() for r in self.records
                )
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

    @property
    def nclients(self) -> int:
        with self._lock:
            return len(self._clients)

    def close(self) -> None:
        """Stop serving, drop clients, refuse further publishes."""
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

    def poll(self, max_wait: float = 0.5) -> list[TelemetryRecord]:
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
        out: list[TelemetryRecord] = []
        while b"\n" in self._buf:
            line, self._buf = self._buf.split(b"\n", 1)
            if line.strip():
                try:
                    out.append(record_from_json(line.decode()))
                except (json.JSONDecodeError, KeyError):
                    logger.debug("skipping malformed telemetry line")
        return out

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


def follow_telemetry(
    path: str | Path, *, poll_s: float = 0.5
) -> Iterator[TelemetryRecord]:
    """Generator over a live socket's records until the server closes."""
    with TelemetryClient(path) as client:
        while not client.eof:
            yield from client.poll(poll_s)


class NDJSONTelemetrySink:
    """Channel subscriber that appends every record to an NDJSON file.

    Line-buffered append: each record is durable as soon as it is
    published, so the file survives a crashed driver and can be
    replayed through ``repro monitor --replay`` or the run registry.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "a", buffering=1)
        self.written = 0

    def __call__(self, rec: TelemetryRecord) -> None:
        try:
            self._fh.write(rec.to_json() + "\n")
            self.written += 1
        except ValueError:  # pragma: no cover - closed-file race
            pass

    def close(self) -> None:
        try:
            self._fh.close()
        except OSError:  # pragma: no cover - teardown best effort
            pass


#: Worker-count guard for unix socket paths (sun_path is ~107 bytes).
_MAX_SOCKET_PATH = 100


def default_socket_path(run_dir: str | Path) -> Path:
    """A socket path for a run directory, short enough to bind.

    ``sun_path`` is limited to ~107 bytes; when the run directory is
    too deep the socket falls back to an abstract-ish short name under
    the default temp directory, keyed by pid so concurrent runs do not
    collide.
    """
    candidate = Path(run_dir) / "telemetry.sock"
    if len(str(candidate)) <= _MAX_SOCKET_PATH:
        return candidate
    import tempfile

    return Path(tempfile.gettempdir()) / f"repro-telemetry-{os.getpid()}.sock"


_current_channel: TelemetryChannel | None = None


def get_telemetry() -> TelemetryChannel | None:
    """The globally installed channel, or ``None`` (telemetry off)."""
    return _current_channel


def set_telemetry(channel: TelemetryChannel | None) -> None:
    """Install a global channel; ``None`` disables telemetry."""
    global _current_channel
    _current_channel = channel


@contextmanager
def use_telemetry(channel: TelemetryChannel) -> Iterator[TelemetryChannel]:
    """Install ``channel`` for the duration of a ``with`` block."""
    previous = _current_channel
    set_telemetry(channel)
    try:
        yield channel
    finally:
        set_telemetry(previous)
