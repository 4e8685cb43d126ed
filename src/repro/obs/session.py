"""The observability envelope of one run: registry record + event file."""

from __future__ import annotations

import contextlib
import logging
from pathlib import Path

from repro.obs.events import EventLog, use_event_log
from repro.obs.export import write_prometheus
from repro.obs.logctl import quiet_enabled
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.obs.registry import RunRegistry
from repro.obs.stream import ObsStreamer

logger = logging.getLogger("repro.obs.session")


class ObsSession:
    """Run-registry record plus event file for one run.

    Owns the whole observability envelope of a ``scf`` / ``profile``
    invocation: registers the run (unless ``registry=False``) and
    streams the event log incrementally into the run directory's
    ``events.ndjson`` — what ``repro monitor`` follows while the run is
    live.  ``finalize`` writes the final metrics snapshot (JSON +
    Prometheus text) and closes the record; everything degrades to
    no-ops when the registry is off.
    """

    def __init__(
        self,
        kind: str,
        config: dict,
        *,
        registry: bool = True,
        runs_dir: str | Path | None = None,
        log: EventLog | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.handle = (
            RunRegistry(runs_dir).register(kind, config=config)
            if registry else None
        )
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

    def announce(self) -> None:
        """Print the run id for interactive use (quiet-gated)."""
        if self.handle is not None and not quiet_enabled():
            print(f"run id       : {self.handle.run_id}")

    def finalize(self, *, status: str, summary: dict | None = None) -> None:
        """Write the final snapshot and close the run record."""
        if self._finalized:
            return
        self._finalized = True
        if self.handle is not None:
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
            if self.handle.path("events.ndjson").exists():
                self.handle.add_artifact(
                    "events.ndjson", self.handle.path("events.ndjson"))
            self.handle.finalize(
                status=status, metrics=snapshot, summary=summary,
                event_counts=self.log.kinds(),
            )

    def close(self) -> None:
        """Close the event file and restore the global instruments."""
        if not self._finalized:
            self.finalize(status="failed")
        self._stack.close()
