"""The observability envelope of one run: registry record + telemetry."""

from __future__ import annotations

import contextlib
import logging
import os
import tempfile
from pathlib import Path

from repro.obs.events import EventLog, use_event_log
from repro.obs.export import write_prometheus
from repro.obs.logctl import quiet_enabled
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.obs.registry import RunRegistry
from repro.obs.stream import ObsStreamer
from repro.obs.telemetry import (
    NDJSONTelemetrySink,
    TelemetryChannel,
    default_socket_path,
    use_telemetry,
)

logger = logging.getLogger("repro.obs.session")


class ObsSession:
    """Run-registry record plus (optional) live telemetry for one run.

    Owns the whole observability envelope of a ``scf`` / ``profile``
    invocation: registers the run (unless ``registry=False``), streams
    the event log incrementally into the run directory, and — with
    ``telemetry=True`` — installs a global
    :class:`~repro.obs.telemetry.TelemetryChannel` with an NDJSON sink
    and a unix socket ``repro monitor`` can attach to mid-run.
    ``finalize`` writes the final metrics snapshot (JSON + Prometheus
    text) and closes the record; everything degrades to no-ops when the
    registry or telemetry is off.
    """

    def __init__(
        self,
        kind: str,
        config: dict,
        *,
        registry: bool = True,
        runs_dir: str | Path | None = None,
        telemetry: bool = False,
        log: EventLog | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.handle = (
            RunRegistry(runs_dir).register(kind, config=config)
            if registry else None
        )
        self.channel = None
        self._finalized = False
        # Everything opened below is undone by close(), newest first.
        self._stack = contextlib.ExitStack()
        enter = self._stack.enter_context

        # scf runs without instruments otherwise; install an event log
        # + metrics registry so heartbeat/recovery events have a home.
        self.log = log if log is not None else enter(use_event_log(EventLog()))
        self.metrics = (
            metrics if metrics is not None
            else enter(use_metrics(MetricsRegistry()))
        )
        if self.handle is not None:
            # Incremental: each event is durable the moment it is
            # emitted, so a crashed run still leaves its event trail.
            enter(ObsStreamer(self.handle.directory, log=self.log))

        if telemetry:
            self.channel = TelemetryChannel()
            if self.handle is not None:
                sink = NDJSONTelemetrySink(self.handle.path("telemetry.ndjson"))
                self._stack.callback(sink.close)
                self.channel.subscribe(sink)
                sock = self.channel.serve(
                    default_socket_path(self.handle.directory)
                )
            else:
                sock = self.channel.serve(
                    Path(tempfile.gettempdir())
                    / f"repro-telemetry-{os.getpid()}.sock"
                )
            enter(use_telemetry(self.channel))
            self._stack.callback(self.channel.close)
            if sock is not None:
                logger.info("telemetry socket: %s", sock)

    @property
    def run_dir(self) -> Path | None:
        return self.handle.directory if self.handle is not None else None

    def announce(self) -> None:
        """Print the run id / socket for interactive use (quiet-gated)."""
        if quiet_enabled():
            return
        if self.handle is not None:
            print(f"run id       : {self.handle.run_id}")
        if self.channel is not None and self.channel.socket_path is not None:
            print(f"telemetry    : repro monitor {self.channel.socket_path}")

    def finalize(self, *, status: str, summary: dict | None = None) -> None:
        """Write the final snapshot and close the run record."""
        if self._finalized:
            return
        self._finalized = True
        if self.handle is not None:
            counts: dict[str, int] = {}
            for ev in self.log:
                counts[ev.kind] = counts.get(ev.kind, 0) + 1
            snapshot = {
                k: v
                for k, v in self.metrics.snapshot().items()
                if isinstance(v, (int, float, dict, list))
            }
            if summary:
                snapshot.update(
                    {f"summary.{k}": v for k, v in summary.items()
                     if isinstance(v, (int, float))}
                )
            try:
                write_prometheus(
                    self.metrics, self.handle.path("metrics.prom")
                )
                self.handle.add_artifact(
                    "metrics.prom", self.handle.path("metrics.prom")
                )
            except OSError as exc:  # pragma: no cover - fs failure path
                logger.warning("prometheus export failed: %s", exc)
            for name in ("events.ndjson", "telemetry.ndjson"):
                if self.handle.path(name).exists():
                    self.handle.add_artifact(name, self.handle.path(name))
            self.handle.finalize(
                status=status, metrics=snapshot, summary=summary,
                event_counts=counts,
            )

    def close(self) -> None:
        """Tear down telemetry/streams and restore the global instruments."""
        if not self._finalized:
            self.finalize(status="failed")
        self._stack.close()
