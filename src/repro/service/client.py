"""Client side of the SCF service: socket helpers + :class:`JobClient`.

The wire protocol is deliberately minimal — one NDJSON request line,
one NDJSON response line, connection per request (the request rate of
a job service is tiny; connection reuse would buy nothing but state):

    -> {"cmd": "submit", "spec": {...}}
    <- {"ok": true, "job": {...}}

    -> {"cmd": "status", "id": "j000003"}
    <- {"ok": true, "job": {...}}

    -> {"cmd": "status", "id": "j000003", "wait_s": 5.0}   # long poll
    <- {"ok": true, "waited": true, "job": {...}}   # held until terminal

    -> {"cmd": "cancel", "id": "j0000"}       # prefixes resolve
    <- {"ok": false, "error": "...", "error_type": "JobNotFound"}

Failed responses carry ``error_type``; :func:`~repro.service.errors
.error_from_response` turns them back into typed exceptions, so
``ServiceOverloaded`` is catchable on the client exactly as the daemon
raised it.
"""

from __future__ import annotations

import json
import os
import socket
import time
from pathlib import Path
from typing import Any

from repro.obs.tracer import (
    TraceContext,
    format_traceparent,
    new_span_id,
    new_trace_id,
)
from repro.service.errors import (
    JobTimeoutError,
    ServiceError,
    ServiceUnavailable,
    error_from_response,
)
from repro.service.jobs import TERMINAL_STATES, JobSpec, sha256

#: Default service state directory, relative to the working directory.
DEFAULT_SERVICE_DIR = Path(".repro") / "service"

#: sun_path budget (~107 bytes on Linux, with room to spare).
_MAX_SOCKET_PATH = 100

#: Cap on one NDJSON reply (an XYZ geometry travels inline; 8 MiB is
#: orders of magnitude above any real job, small enough to bound abuse).
MAX_LINE = 8 << 20


def service_socket_path(service_dir: str | Path) -> Path:
    """The request socket of a service directory, short enough to bind.

    When the directory is nested too deep for ``sun_path``, fall back to
    a short name under the temp directory (shared by every user, not
    per-user), keyed by a hash of the directory's absolute path: a
    relative and an absolute spelling of one deep service dir share a
    socket, and one relative spelling used from two working directories
    does not.
    """
    candidate = Path(service_dir) / "service.sock"
    if len(str(candidate)) <= _MAX_SOCKET_PATH:
        return candidate
    import tempfile

    key = sha256(str(Path(service_dir).absolute()).encode()).hexdigest()[:12]
    return Path(tempfile.gettempdir()) / f"repro-service-{key}.sock"


def recv_line(sock: socket.socket, *, max_bytes: int = MAX_LINE) -> bytes:
    """Read one newline-terminated record (or until EOF)."""
    chunks = bytearray()
    while b"\n" not in chunks:
        chunk = sock.recv(65536)
        if not chunk:
            break
        chunks += chunk
        if len(chunks) > max_bytes:
            raise ServiceError("wire record exceeds the line cap")
    line, _, _ = bytes(chunks).partition(b"\n")
    return line


def long_poll_s(remaining_s: float, socket_timeout_s: float) -> float:
    """The ``wait_s`` to send with one ``status`` request: what is left
    of the caller's budget, capped at half the socket timeout so the
    reply always beats it."""
    return max(0.0, min(remaining_s, socket_timeout_s / 2))


class JobClient:
    """Typed client for a running ``repro serve`` daemon."""

    def __init__(
        self,
        service_dir: str | Path = DEFAULT_SERVICE_DIR,
        *,
        socket_path: str | Path | None = None,
        timeout_s: float = 10.0,
    ) -> None:
        self.service_dir = Path(service_dir)
        self.socket_path = (
            Path(socket_path) if socket_path is not None
            else service_socket_path(self.service_dir)
        )
        self.timeout_s = timeout_s

    # -- transport -----------------------------------------------------------

    def request(self, cmd: str, **fields: Any) -> dict[str, Any]:
        """One request/response round trip; raises typed service errors."""
        payload = json.dumps({"cmd": cmd, **fields}) + "\n"
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(self.timeout_s)
        try:
            try:
                sock.connect(str(self.socket_path))
            except (FileNotFoundError, ConnectionRefusedError) as exc:
                raise ServiceUnavailable(
                    f"no daemon listening at {self.socket_path} "
                    f"(start one with: repro serve)"
                ) from exc
            sock.sendall(payload.encode())
            line = recv_line(sock)
        except socket.timeout as exc:
            raise ServiceUnavailable(
                f"daemon at {self.socket_path} did not answer within "
                f"{self.timeout_s:g}s"
            ) from exc
        finally:
            sock.close()
        if not line:
            raise ServiceUnavailable(
                f"daemon at {self.socket_path} hung up without replying"
            )
        response = json.loads(line.decode())
        if not response.get("ok", False):
            raise error_from_response(response)
        return response

    # -- verbs ---------------------------------------------------------------

    def ping(self) -> dict[str, Any]:
        """Daemon liveness + queue/fleet statistics."""
        return self.request("ping")

    def submit(
        self,
        spec: JobSpec | dict[str, Any],
        *,
        context: TraceContext | None = None,
    ) -> dict[str, Any]:
        """Submit one job; returns its public record (with the new id).

        Every submit originates a distributed trace: a fresh W3C trace
        context (or the caller's ``context``, to join an existing
        trace) travels in the request's ``trace`` field alongside the
        client's ``perf_counter`` reading, and the returned record
        carries the job's adopted ``trace_id``.  perf_counter is
        CLOCK_MONOTONIC — shared with the daemon and its workers on
        one host — which is what lets trace assembly place the
        client-side submit on the merged timeline.
        """
        spec_dict = spec.to_dict() if isinstance(spec, JobSpec) else dict(spec)
        ctx = context or TraceContext(new_trace_id(), new_span_id())
        trace = {
            "traceparent": format_traceparent(ctx),
            "client_t": time.perf_counter(),
        }
        return self.request("submit", spec=spec_dict, trace=trace)["job"]

    def status(self, job_id: str | None = None) -> dict[str, Any]:
        """One job's record, or the full queue listing + service stats."""
        if job_id is None:
            return self.request("status")
        return self.request("status", id=job_id)["job"]

    def cancel(self, job_id: str) -> dict[str, Any]:
        return self.request("cancel", id=job_id)["job"]

    def result(
        self,
        job_id: str,
        *,
        wait: bool = True,
        timeout_s: float = 600.0,
        poll_s: float = 0.2,
    ) -> dict[str, Any]:
        """The job's record once terminal; waits for it while ``wait``.

        The wait is the daemon's: each ``status`` request carries a
        ``wait_s`` the daemon holds it open for, answering the moment
        the job settles.  A daemon that predates ``wait_s`` answers at
        once without ``waited``; only then does the client sleep
        ``poll_s`` between requests.

        Raises :class:`~repro.service.errors.JobTimeoutError` when the
        *client-side* wait budget runs out (the job itself keeps
        whatever state it has — this does not cancel it).
        """
        deadline = time.monotonic() + timeout_s
        while True:
            remaining = deadline - time.monotonic()
            reply = self.request(
                "status", id=job_id,
                **({"wait_s": long_poll_s(remaining, self.timeout_s)}
                   if wait else {}),
            )
            job = reply["job"]
            if job["state"] in TERMINAL_STATES or not wait:
                return job
            if time.monotonic() > deadline:
                raise JobTimeoutError(
                    f"job {job_id} still {job['state']} after "
                    f"{timeout_s:g}s of client-side waiting"
                )
            if not reply.get("waited"):
                time.sleep(poll_s)

    def shutdown_daemon(self) -> dict[str, Any]:
        """Ask the daemon to stop gracefully (drains nothing: running
        jobs are interrupted and journal-recovered on the next start)."""
        return self.request("shutdown")


def probe_socket(path: str | Path, *, timeout_s: float = 1.0) -> bool:
    """True when something accepts connections at ``path``.

    The stale-socket test: an AF_UNIX path whose owner died still
    exists on disk but refuses connects, so a failed probe means the
    path may be unlinked and re-bound.
    """
    if not os.path.exists(path):
        return False
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(timeout_s)
    try:
        sock.connect(str(path))
    except (ConnectionRefusedError, FileNotFoundError):
        return False
    except OSError:
        # EACCES, ETIMEDOUT, ...: someone owns it; treat as live rather
        # than yank a socket out from under a possibly-healthy daemon.
        return True
    else:
        return True
    finally:
        sock.close()
