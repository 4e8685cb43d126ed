"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``scf``        Run RHF/UHF on an XYZ file with any of the parallel
               Fock algorithms.
``profile``    Run an SCF under the tracer and export a Chrome-trace
               timeline, a text profile, NDJSON spans/metrics/events —
               plus, with ``--timeline``, the per-rank busy/idle/wait
               and load-imbalance analysis.
``timeline``   Analyze saved ``spans.ndjson`` / ``events.ndjson`` dumps
               (one or several runs) and optionally merge them into a
               single multi-run Chrome trace.
``compare``    Diff two or more benchmark/metric records under a noise
               tolerance; exits nonzero on regressions (the CI
               ``bench-regress`` gate).
``monitor``    Attach to a running SCF's live telemetry socket (or
               replay a recorded ``telemetry.ndjson``) and render the
               per-rank activity / convergence / worker-health
               dashboard.
``runs``       Query the persistent run registry (``.repro/runs``):
               list runs, show one run's record, diff two runs'
               final metrics through the comparison engine, or prune
               old run directories under a retention policy.
``serve``      Run the SCF job service: a daemon with a durable
               (write-ahead-journaled) queue, a supervised worker
               fleet, retry/backoff, and graceful degradation.
``batch``      Run a workload manifest (many jobs, mixed systems)
               through the service under a pluggable batch-scheduling
               policy; report jobs/s, queue-wait p95, amortization.
``submit``     Submit an SCF job to a running service.
``status``     One job's record, or the whole queue + fleet health.
``result``     Wait for a job and print its result.
``cancel``     Cancel a queued or running job.
``trace``      Stitch one job's distributed trace (client, daemon,
               every worker attempt) into a single Chrome trace with
               synthetic queue-wait/backoff/resume segments and the
               cross-process critical path.
``slo``        Latency/SLO report: p50/p95/p99 queue-wait/run/total
               per job class, error-budget burn rates, and breach
               counts — live from a daemon or from recorded telemetry.
``dataset``    Describe one of the paper's graphene datasets (sizes,
               screening statistics).
``simulate``   Predict the Fock-build time of one run configuration.
``reproduce``  Regenerate a paper table or figure.

Every command accepts ``--log-level`` / ``--quiet`` (before or after
the subcommand name): diagnostics go to stderr via :mod:`logging`,
primary results stay on stdout, so piped output remains parseable.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

logger = logging.getLogger("repro.cli")

ALGORITHMS = ("mpi-only", "private-fock", "shared-fock")
BACKENDS = ("sim", "process")
SCHEDULES = ("dlb", "static")
BATCH_POLICIES = ("fifo", "binned", "sjf", "auto")
DATASETS = ("0.5nm", "1.0nm", "1.5nm", "2.0nm", "5.0nm")
TARGETS = (
    "table2", "table3", "table4",
    "fig3", "fig4", "fig5", "fig6", "fig7",
    "all",
)


def _positive_float(text: str) -> float:
    """argparse type: a strictly positive float (rejects 0 and negatives)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return value


def _positive_int(text: str) -> int:
    """argparse type: a strictly positive integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return value


def _nonneg_int(text: str) -> int:
    """argparse type: an integer >= 0 (0 legitimately disables retries)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return value


def _nonneg_float(text: str) -> float:
    """argparse type: a float >= 0 (tolerances may legitimately be 0)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return value


def _add_cache_args(sub: argparse.ArgumentParser) -> None:
    """Semi-direct SCF knobs shared by the ``scf`` and ``profile`` commands."""
    sub.add_argument(
        "--eri-cache-mb", type=_positive_float, default=64.0, metavar="MB",
        help="byte budget of the cross-cycle quartet ERI cache "
             "(default: 64 MB; LRU eviction once the budget is exceeded)",
    )
    sub.add_argument(
        "--no-eri-cache", action="store_true",
        help="disable the quartet cache (fully direct SCF: every cycle "
             "re-evaluates every surviving quartet)",
    )


def _add_resilience_args(
    sub: argparse.ArgumentParser, *, restartable: bool
) -> None:
    """Fault-tolerance knobs (``scf`` gets checkpoint/restart too)."""
    sub.add_argument(
        "--fault-plan", metavar="SPEC", default=None,
        help="deterministic fault-injection spec, ';'-separated events: "
             '"kill:rank=1:cycle=2:after=5;delay:rank=3:cycle=1:factor=4;'
             'corrupt:rank=0:cycle=2:payload=inf"',
    )
    sub.add_argument(
        "--scf-recovery", action="store_true",
        help="enable the convergence guard (staged density damping -> "
             "level shifting -> DIIS reset on divergence/oscillation)",
    )
    if restartable:
        sub.add_argument(
            "--checkpoint", type=Path, default=None, metavar="NPZ",
            help="write the SCF state (density, DIIS history, trace) to "
                 "this .npz every --checkpoint-every cycles",
        )
        sub.add_argument(
            "--checkpoint-every", type=_positive_int, default=5, metavar="N",
            help="checkpoint write interval in SCF cycles (default: 5)",
        )
        sub.add_argument(
            "--restart", type=Path, default=None, metavar="NPZ",
            help="resume from a checkpoint written by --checkpoint; the "
                 "restarted run converges bitwise identically",
        )


def _add_logging_args(p: argparse.ArgumentParser, *, top: bool = False) -> None:
    """``--log-level`` / ``--quiet``, accepted before or after the command.

    The root parser carries the defaults; subparsers use
    ``argparse.SUPPRESS`` so an unset subcommand-level flag leaves the
    root value in the namespace instead of clobbering it.
    """
    from repro.obs.logctl import LEVELS

    p.add_argument(
        "--log-level", choices=LEVELS,
        **({"default": "warning"} if top else {"default": argparse.SUPPRESS}),
        help="diagnostic verbosity on stderr (default: warning); stdout "
             "output is unaffected",
    )
    p.add_argument(
        "--quiet", "-q", action="store_true",
        **({} if top else {"default": argparse.SUPPRESS}),
        help="suppress informational output: only primary results on "
             "stdout, only errors on stderr",
    )


def _add_obs_args(sub: argparse.ArgumentParser) -> None:
    """Run-registry / live-telemetry knobs shared by ``scf``/``profile``."""
    sub.add_argument(
        "--telemetry", action="store_true",
        help="publish live telemetry (worker heartbeats, SCF cycles, "
             "metric snapshots) to the run directory's NDJSON sink and a "
             "unix socket 'repro monitor' can attach to mid-run",
    )
    sub.add_argument(
        "--no-registry", action="store_true",
        help="do not record this run in the persistent run registry",
    )
    sub.add_argument(
        "--runs-dir", type=Path, default=None, metavar="DIR",
        help="run registry root (default: $REPRO_RUNS_DIR or .repro/runs)",
    )


def _add_backend_args(sub: argparse.ArgumentParser) -> None:
    """Execution-backend knobs shared by ``scf`` and ``profile``."""
    sub.add_argument(
        "--schedule", choices=SCHEDULES, default="dlb",
        help="task-distribution strategy: 'dlb' is the paper's dynamic "
             "shared counter (default); 'static' pre-partitions with "
             "Schwarz work estimates (zero counter traffic)",
    )
    sub.add_argument(
        "--backend", choices=BACKENDS, default="sim",
        help="execution backend: 'sim' runs ranks on the deterministic "
             "in-process cooperative runtime (default); 'process' runs "
             "the same rank programs on real OS worker processes with "
             "shared-memory matrices and a lock-backed DLB counter",
    )
    sub.add_argument(
        "--workers", type=_positive_int, default=None, metavar="N",
        help="process-backend worker count (default: --ranks); must be "
             ">= 1 — ignored (with a warning) by the sim backend",
    )
    sub.add_argument(
        "--schedule-seed", type=int, default=None, metavar="SEED",
        help="process-backend scheduling-jitter seed: perturbs DLB "
             "claim arrival order for nondeterminism hunting (results "
             "must not change; the parity suite sweeps several seeds)",
    )
    sub.add_argument(
        "--heartbeat-interval", type=_positive_float, default=None,
        metavar="S",
        help="process-backend worker heartbeat rate limit in seconds "
             "(default: 0.25); workers beat in-band at DLB claim "
             "boundaries",
    )
    sub.add_argument(
        "--heartbeat-timeout", type=_positive_float, default=None,
        metavar="S",
        help="seconds of heartbeat silence before a pending worker is "
             "flagged suspect and a worker.hung event fires "
             "(default: 2.0)",
    )


def _backend_setup(args: argparse.Namespace) -> tuple[str, int, dict]:
    """Resolve (backend name, effective nranks, backend options).

    Under the process backend ``--workers`` *is* the rank count (one
    real process per rank); under the sim backend ``--workers`` has no
    meaning and earns a warning rather than silently steering nothing.
    """
    workers = getattr(args, "workers", None)
    if args.backend == "sim":
        if workers is not None:
            logger.warning(
                "--workers is ignored by the sim backend "
                "(use --ranks, or --backend process)"
            )
        return "sim", args.ranks, {}
    nranks = workers if workers is not None else args.ranks
    options: dict = {}
    if getattr(args, "schedule_seed", None) is not None:
        options["schedule_seed"] = args.schedule_seed
    if getattr(args, "heartbeat_interval", None) is not None:
        options["heartbeat_interval_s"] = args.heartbeat_interval
    if getattr(args, "heartbeat_timeout", None) is not None:
        options["heartbeat_timeout_s"] = args.heartbeat_timeout
    return "process", nranks, options


def _fault_plan(args: argparse.Namespace, nranks: int | None = None):
    """Parse --fault-plan against the run's rank count (None if unset)."""
    from repro.resilience import FaultPlan

    if not getattr(args, "fault_plan", None):
        return None
    return FaultPlan.from_spec(
        args.fault_plan, nranks=args.ranks if nranks is None else nranks
    )


def _cache_mb(args: argparse.Namespace) -> float | None:
    return None if args.no_eri_cache else args.eri_cache_mb


class _ObsSession:
    """Run-registry record plus (optional) live telemetry for one run.

    Owns the whole observability envelope of a ``scf`` / ``profile``
    invocation: registers the run (unless ``--no-registry``), streams
    the event log incrementally into the run directory, and — with
    ``--telemetry`` — installs a global
    :class:`~repro.obs.telemetry.TelemetryChannel` with an NDJSON sink
    and a unix socket ``repro monitor`` can attach to mid-run.
    ``finalize`` writes the final metrics snapshot (JSON + Prometheus
    text) and closes the record; everything degrades to no-ops when the
    registry or telemetry is off.
    """

    def __init__(
        self,
        args: argparse.Namespace,
        kind: str,
        config: dict,
        *,
        log=None,
        metrics=None,
    ) -> None:
        from repro.obs import (
            EventLog,
            MetricsRegistry,
            NDJSONTelemetrySink,
            ObsStreamer,
            RunRegistry,
            TelemetryChannel,
            default_socket_path,
        )
        from repro.obs.events import get_event_log, set_event_log
        from repro.obs.metrics import get_metrics, set_metrics
        from repro.obs.telemetry import get_telemetry, set_telemetry

        self.handle = None
        self.channel = None
        self._sink = None
        self._streamer = None
        self._finalized = False
        self._restore: list = []

        if not getattr(args, "no_registry", False):
            registry = RunRegistry(getattr(args, "runs_dir", None))
            self.handle = registry.register(kind, config=config)

        # scf runs without instruments otherwise; install an event log
        # + metrics registry so heartbeat/recovery events have a home.
        if log is None:
            log = EventLog()
            self._restore.append((set_event_log, get_event_log()))
            set_event_log(log)
        if metrics is None:
            metrics = MetricsRegistry()
            self._restore.append((set_metrics, get_metrics()))
            set_metrics(metrics)
        self.log = log
        self.metrics = metrics

        if self.handle is not None:
            # Incremental: each event is durable the moment it is
            # emitted, so a crashed run still leaves its event trail.
            self._streamer = ObsStreamer(self.handle.directory, log=log)

        if getattr(args, "telemetry", False):
            self.channel = TelemetryChannel()
            if self.handle is not None:
                self._sink = NDJSONTelemetrySink(
                    self.handle.path("telemetry.ndjson")
                )
                self.channel.subscribe(self._sink)
                sock = self.channel.serve(
                    default_socket_path(self.handle.directory)
                )
            else:
                import tempfile

                import os as _os

                sock = self.channel.serve(
                    Path(tempfile.gettempdir())
                    / f"repro-telemetry-{_os.getpid()}.sock"
                )
            self._restore.append((set_telemetry, get_telemetry()))
            set_telemetry(self.channel)
            if sock is not None:
                logger.info("telemetry socket: %s", sock)

    @property
    def run_dir(self) -> Path | None:
        return self.handle.directory if self.handle is not None else None

    def announce(self) -> None:
        """Print the run id / socket for interactive use (quiet-gated)."""
        from repro.obs.logctl import quiet_enabled

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
            from repro.obs import write_prometheus

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
        if self.channel is not None:
            self.channel.close()
            self.channel = None
        if self._sink is not None:
            self._sink.close()
            self._sink = None
        if self._streamer is not None:
            self._streamer.close()
            self._streamer = None
        for setter, previous in reversed(self._restore):
            setter(previous)
        self._restore.clear()


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="MPI/OpenMP parallel Hartree-Fock (SC'17 reproduction)",
    )
    _add_logging_args(p, top=True)
    sub = p.add_subparsers(dest="command", required=True)

    scf = sub.add_parser("scf", help="run an SCF calculation")
    scf.add_argument("xyz", type=Path, help="XYZ geometry file")
    scf.add_argument("--basis", default="sto-3g")
    scf.add_argument("--algorithm", choices=ALGORITHMS, default="shared-fock")
    scf.add_argument("--ranks", type=_positive_int, default=1)
    scf.add_argument("--threads", type=_positive_int, default=1)
    scf.add_argument("--charge", type=int, default=0)
    scf.add_argument("--uhf", action="store_true")
    scf.add_argument("--multiplicity", type=int, default=1)
    scf.add_argument(
        "--incremental", action="store_true",
        help="delta-density Fock builds after the first cycle, with "
             "density-aware screening (RHF only)",
    )
    scf.add_argument(
        "--rebuild-every", type=_positive_int, default=10, metavar="N",
        help="full-rebuild period of --incremental (default: 10)",
    )
    _add_backend_args(scf)
    _add_cache_args(scf)
    _add_resilience_args(scf, restartable=True)
    _add_obs_args(scf)

    prof = sub.add_parser(
        "profile",
        help="run an SCF under the tracer; emit Chrome trace + profile",
    )
    prof.add_argument(
        "xyz", nargs="?", type=Path, default=None,
        help="XYZ geometry file (default: built-in water)",
    )
    prof.add_argument("--basis", default="sto-3g")
    prof.add_argument("--algorithm", choices=ALGORITHMS, default="shared-fock")
    prof.add_argument("--ranks", type=_positive_int, default=2)
    prof.add_argument("--threads", type=_positive_int, default=4)
    prof.add_argument("--charge", type=int, default=0)
    prof.add_argument(
        "--output-dir", type=Path, default=Path("profile_out"),
        help="directory for trace.json / profile.txt / metrics.ndjson "
             "/ spans.ndjson / events.ndjson",
    )
    prof.add_argument(
        "--timeline", action="store_true",
        help="run the timeline analyzer: per-rank busy/idle/wait "
             "breakdown, load-imbalance decomposition, critical path, "
             "and DLB Gantt (writes timeline.txt + timeline.json)",
    )
    _add_backend_args(prof)
    _add_cache_args(prof)
    _add_resilience_args(prof, restartable=False)
    _add_obs_args(prof)

    mon = sub.add_parser(
        "monitor",
        help="live dashboard over a running SCF's telemetry socket, or "
             "a replay of a recorded telemetry.ndjson",
    )
    mon.add_argument(
        "source", nargs="?", default="latest", metavar="SOURCE",
        help="a telemetry socket path, a telemetry.ndjson file, a run-id "
             "prefix from the registry, or 'latest' (default)",
    )
    mon.add_argument(
        "--runs-dir", type=Path, default=None, metavar="DIR",
        help="run registry root used to resolve run ids "
             "(default: $REPRO_RUNS_DIR or .repro/runs)",
    )
    mon.add_argument(
        "--interval", type=_positive_float, default=0.5, metavar="S",
        help="refresh interval in seconds (default: 0.5)",
    )
    mon.add_argument(
        "--once", action="store_true",
        help="render a single frame and exit (no refresh loop)",
    )
    mon.add_argument(
        "--plain", action="store_true",
        help="append frames instead of clearing the screen (for logs "
             "and non-ANSI terminals)",
    )

    runs = sub.add_parser(
        "runs", help="query the persistent run registry",
    )
    runs.add_argument(
        "--runs-dir", type=Path, default=None, metavar="DIR",
        help="run registry root (default: $REPRO_RUNS_DIR or .repro/runs)",
    )
    runs_sub = runs.add_subparsers(dest="runs_command", required=True)
    runs_sub.add_parser("list", help="table of all registered runs")
    runs_show = runs_sub.add_parser(
        "show", help="full record of one run (id prefix or 'latest')",
    )
    runs_show.add_argument(
        "run", nargs="?", default="latest", metavar="RUN",
        help="run-id prefix, or 'latest' (default)",
    )
    runs_diff = runs_sub.add_parser(
        "diff",
        help="diff two runs' final metrics through the comparison "
             "engine; exits 1 on regressions",
    )
    runs_diff.add_argument(
        "baseline", metavar="BASELINE",
        help="baseline run-id prefix (or 'latest')",
    )
    runs_diff.add_argument(
        "candidate", metavar="CANDIDATE",
        help="candidate run-id prefix (or 'latest')",
    )
    runs_diff.add_argument(
        "--tolerance", type=_nonneg_float, default=0.05, metavar="REL",
        help="relative change treated as noise (default: 0.05 = ±5%%)",
    )
    runs_diff.add_argument(
        "--abs-tolerance", type=_nonneg_float, default=1e-9, metavar="ABS",
        help="absolute change treated as noise (default: 1e-9)",
    )
    runs_diff.add_argument(
        "--ignore", action="append", default=[], metavar="GLOB",
        help="skip keys matching this glob (repeatable), e.g. '*wall_s'",
    )
    runs_prune = runs_sub.add_parser(
        "prune",
        help="retention GC: delete old run directories (never runs "
             "still marked running)",
    )
    runs_prune.add_argument(
        "--keep-last", type=_nonneg_int, default=None, metavar="N",
        help="keep only the newest N runs",
    )
    runs_prune.add_argument(
        "--max-age", type=_positive_float, default=None, metavar="S",
        help="delete runs whose record is older than S seconds",
    )
    runs_prune.add_argument(
        "--max-bytes", type=_positive_float, default=None, metavar="B",
        help="delete oldest runs until the registry fits B bytes",
    )
    runs_prune.add_argument(
        "--dry-run", action="store_true",
        help="list what would be deleted without deleting anything",
    )

    tl = sub.add_parser(
        "timeline",
        help="analyze saved spans.ndjson dumps; optionally merge runs "
             "into one Chrome trace",
    )
    tl.add_argument(
        "spans", nargs="+", type=Path, metavar="SPANS_NDJSON",
        help="spans.ndjson file(s) written by 'repro profile', one per run",
    )
    tl.add_argument(
        "--events", action="append", type=Path, default=[], metavar="NDJSON",
        help="events.ndjson for the corresponding run (repeatable; "
             "matched positionally to the spans files)",
    )
    tl.add_argument(
        "--labels", default=None, metavar="A,B,...",
        help="comma-separated run labels (default: each file's parent "
             "directory name)",
    )
    tl.add_argument(
        "--merged-trace", type=Path, default=None, metavar="JSON",
        help="write all runs side by side as one Chrome trace document",
    )
    tl.add_argument(
        "--report", type=Path, default=None, metavar="TXT",
        help="also write the per-run timeline reports to this file",
    )

    cmp_ = sub.add_parser(
        "compare",
        help="diff benchmark/metric records under a noise tolerance; "
             "exits 1 on regressions",
    )
    cmp_.add_argument(
        "baseline", type=Path,
        help="baseline record: a BENCH_*.json or an NDJSON metrics dump",
    )
    cmp_.add_argument(
        "candidates", nargs="+", type=Path,
        help="candidate record(s) to gate against the baseline",
    )
    cmp_.add_argument(
        "--tolerance", type=_nonneg_float, default=0.05, metavar="REL",
        help="relative change treated as noise (default: 0.05 = ±5%%)",
    )
    cmp_.add_argument(
        "--abs-tolerance", type=_nonneg_float, default=1e-9, metavar="ABS",
        help="absolute change treated as noise (default: 1e-9)",
    )
    cmp_.add_argument(
        "--ignore", action="append", default=[], metavar="GLOB",
        help="skip keys matching this glob (repeatable), e.g. '*wall_s'",
    )
    cmp_.add_argument(
        "--only", action="append", default=[], metavar="GLOB",
        help="compare only keys matching this glob (repeatable)",
    )
    cmp_.add_argument(
        "--allow-missing", action="store_true",
        help="keys absent from a candidate are OK instead of 'removed'",
    )
    cmp_.add_argument(
        "--json", type=Path, default=None, metavar="OUT",
        help="write the machine-readable verdict(s) to this JSON file",
    )
    cmp_.add_argument(
        "--report", type=Path, default=None, metavar="OUT",
        help="also write the human-readable report to this file",
    )

    def _add_service_dir(parser: argparse.ArgumentParser) -> None:
        parser.add_argument(
            "--service-dir", type=Path,
            default=Path(".repro") / "service", metavar="DIR",
            help="service state directory: socket, journal, job "
                 "checkpoints (default: .repro/service)",
        )

    srv = sub.add_parser(
        "serve",
        help="run the SCF job service (durable queue + worker fleet)",
    )
    _add_service_dir(srv)
    srv.add_argument(
        "--fleet", type=_positive_int, default=2, metavar="N",
        help="persistent job-worker processes (default: 2)",
    )
    srv.add_argument(
        "--max-queue-depth", type=_positive_int, default=64, metavar="N",
        help="open-job admission bound; submissions beyond it are shed "
             "with a typed ServiceOverloaded error (default: 64)",
    )
    srv.add_argument(
        "--job-timeout", type=_positive_float, default=120.0, metavar="S",
        help="per-job wall-clock deadline; a job past it has its worker "
             "killed and is retried (default: 120)",
    )
    srv.add_argument(
        "--max-retries", type=_nonneg_int, default=3, metavar="N",
        help="retry budget per job after the first attempt; 0 disables "
             "retries (default: 3)",
    )
    srv.add_argument(
        "--backoff-base", type=_positive_float, default=0.25, metavar="S",
        help="delay before the first retry; doubles per attempt, "
             "capped by --backoff-cap (default: 0.25)",
    )
    srv.add_argument(
        "--backoff-cap", type=_positive_float, default=30.0, metavar="S",
        help="upper bound on any single retry delay (default: 30)",
    )
    srv.add_argument(
        "--retry-seed", type=int, default=0, metavar="SEED",
        help="backoff-jitter seed: the same seed reproduces the same "
             "retry schedule for every (job, attempt) (default: 0)",
    )
    srv.add_argument(
        "--process-budget", type=_nonneg_int, default=4, metavar="N",
        help="real process-backend workers the fleet may run at once; "
             "jobs beyond it degrade to the sim backend (default: 4)",
    )
    srv.add_argument(
        "--heartbeat-timeout", type=_positive_float, default=10.0,
        metavar="S",
        help="seconds of worker silence before a busy slot is flagged "
             "suspect (worker.hung) (default: 10)",
    )
    srv.add_argument(
        "--checkpoint-every", type=_positive_int, default=1, metavar="N",
        help="job checkpoint write interval in SCF cycles (default: 1; "
             "retries and daemon restarts resume from the checkpoint)",
    )
    srv.add_argument(
        "--idle-exit", type=_positive_float, default=None, metavar="S",
        help="exit after this many seconds with no open jobs "
             "(default: run until signalled; used by CI)",
    )
    srv.add_argument(
        "--runs-dir", type=Path, default=None, metavar="DIR",
        help="run registry root (default: $REPRO_RUNS_DIR or .repro/runs)",
    )
    srv.add_argument(
        "--keep", type=_positive_int, default=None, metavar="N",
        help="run-registry retention: after each job finishes, prune "
             "the registry down to the newest N runs (running jobs and "
             "the service's own run are never pruned; default: keep "
             "everything)",
    )
    srv.add_argument(
        "--slo", action="append", default=None, metavar="TARGET",
        help="SLO target, repeatable: 'total:p95<60', "
             "'queue_wait:p95<30', or 'error_rate<0.25' (defaults to "
             "exactly those three); drives slo.burn_rate/slo.breach "
             "telemetry and the 'repro slo' report",
    )
    srv.add_argument(
        "--manifest", type=Path, default=None, metavar="FILE",
        help="workload manifest (.ndjson/.toml) to enqueue at startup; "
             "intake is exactly-once across restarts (a plan-fingerprint "
             "marker in the service dir suppresses re-enqueueing)",
    )
    srv.add_argument(
        "--batch-policy", choices=BATCH_POLICIES, default="binned",
        metavar="POLICY",
        help="batch scheduling policy for --manifest intake: "
             f"{', '.join(BATCH_POLICIES)} (default: binned)",
    )
    srv.add_argument(
        "--batch-seed", type=int, default=0, metavar="SEED",
        help="batch-plan tie-break seed; the same seed reproduces the "
             "identical plan (default: 0)",
    )
    srv.add_argument(
        "--batch-window", type=_positive_int, default=None, metavar="N",
        help="batch reordering window: no job moves more than N "
             "positions from manifest order (default: 256)",
    )

    bat = sub.add_parser(
        "batch",
        help="run a workload manifest through the service and report "
             "fleet throughput (jobs/s, queue-wait p95, amortization)",
    )
    bat.add_argument(
        "manifest", type=Path, metavar="FILE",
        help="workload manifest: .ndjson/.jsonl/.json (one job object "
             "per line) or .toml ([defaults] + [[job]] tables)",
    )
    _add_service_dir(bat)
    bat.add_argument(
        "--policy", choices=BATCH_POLICIES, default="binned",
        help="batch scheduling policy (default: binned)",
    )
    bat.add_argument(
        "--seed", type=int, default=0, metavar="SEED",
        help="plan tie-break seed (default: 0)",
    )
    bat.add_argument(
        "--window", type=_positive_int, default=None, metavar="N",
        help="reordering window / starvation bound (default: 256)",
    )
    bat.add_argument(
        "--plan-only", action="store_true",
        help="print the deterministic batch plan as JSON and exit "
             "without contacting a daemon",
    )
    bat.add_argument(
        "--output", "-o", type=Path, default=None, metavar="JSON",
        help="throughput report path "
             "(default: BENCH_throughput.json in the CWD)",
    )
    bat.add_argument(
        "--timeout", type=_positive_float, default=600.0, metavar="S",
        help="client-side budget for the whole batch (default: 600)",
    )
    bat.add_argument(
        "--runs-dir", type=Path, default=None, metavar="DIR",
        help="run registry root for the batch record "
             "(default: $REPRO_RUNS_DIR or .repro/runs)",
    )
    bat.add_argument(
        "--json", action="store_true",
        help="print the machine-readable report instead of the table",
    )

    sbm = sub.add_parser("submit", help="submit an SCF job to the service")
    sbm.add_argument("xyz", type=Path, help="XYZ geometry file")
    _add_service_dir(sbm)
    sbm.add_argument("--basis", default="sto-3g")
    sbm.add_argument("--algorithm", choices=ALGORITHMS, default="shared-fock")
    sbm.add_argument("--ranks", type=_positive_int, default=1)
    sbm.add_argument("--threads", type=_positive_int, default=1)
    sbm.add_argument("--charge", type=int, default=0)
    sbm.add_argument(
        "--backend", choices=BACKENDS, default="sim",
        help="execution backend for this job; 'process' jobs beyond the "
             "service's --process-budget degrade to 'sim'",
    )
    sbm.add_argument("--schedule", choices=SCHEDULES, default="dlb")
    sbm.add_argument(
        "--incremental", action="store_true",
        help="delta-density Fock builds after the first cycle",
    )
    sbm.add_argument(
        "--max-iterations", type=_positive_int, default=None, metavar="N",
        help="SCF iteration cap for this job (convergence failure is "
             "terminal: it is never retried)",
    )
    _add_cache_args(sbm)
    sbm.add_argument(
        "--fault-plan", metavar="SPEC", default=None,
        help="deterministic intra-run fault-injection spec "
             "(see 'repro scf --help')",
    )
    sbm.add_argument(
        "--tag", default=None, metavar="NAME",
        help="free-form label shown in status listings",
    )
    sbm.add_argument(
        "--wait", action="store_true",
        help="block until the job finishes and print its result",
    )
    sbm.add_argument(
        "--timeout", type=_positive_float, default=600.0, metavar="S",
        help="client-side wait budget with --wait (default: 600)",
    )
    # Chaos knobs (used by the resilience suites; harmless elsewhere).
    sbm.add_argument(
        "--chaos-die-on-attempt", type=_positive_int, default=None,
        metavar="K", help="worker kills itself mid-job on attempt K "
                          "(tests worker-loss retry)",
    )
    sbm.add_argument(
        "--chaos-cycle-delay", type=_nonneg_float, default=0.0, metavar="S",
        help="sleep this long before every Fock build (slow-job chaos)",
    )
    sbm.add_argument(
        "--chaos-sleep", type=_nonneg_float, default=0.0, metavar="S",
        help="wedge the worker this long before starting (tests "
             "hung-job detection and deadline kills)",
    )

    sta = sub.add_parser(
        "status", help="job or queue status from a running service",
    )
    sta.add_argument(
        "job", nargs="?", default=None, metavar="JOB",
        help="job id or unambiguous prefix (default: list the queue)",
    )
    _add_service_dir(sta)

    rslt = sub.add_parser("result", help="wait for a job; print its result")
    rslt.add_argument("job", metavar="JOB", help="job id or prefix")
    _add_service_dir(rslt)
    rslt.add_argument(
        "--no-wait", action="store_true",
        help="print the current state instead of blocking until terminal",
    )
    rslt.add_argument(
        "--timeout", type=_positive_float, default=600.0, metavar="S",
        help="client-side wait budget (default: 600)",
    )

    cncl = sub.add_parser("cancel", help="cancel a queued or running job")
    cncl.add_argument("job", metavar="JOB", help="job id or prefix")
    _add_service_dir(cncl)

    trc = sub.add_parser(
        "trace",
        help="assemble one job's end-to-end distributed trace (client "
             "+ daemon + every worker attempt) into a Chrome trace",
    )
    trc.add_argument(
        "job", metavar="JOB",
        help="job id or unambiguous prefix (from 'repro submit')",
    )
    _add_service_dir(trc)
    trc.add_argument(
        "--runs-dir", type=Path, default=None, metavar="DIR",
        help="run registry root holding the job's worker span files "
             "(default: $REPRO_RUNS_DIR or .repro/runs)",
    )
    trc.add_argument(
        "--output", "-o", type=Path, default=None, metavar="JSON",
        help="Chrome trace output path "
             "(default: trace-<job>.json in the CWD)",
    )
    trc.add_argument(
        "--no-report", action="store_true",
        help="write the trace file only; skip the critical-path table",
    )

    slo_p = sub.add_parser(
        "slo",
        help="latency quantiles + SLO burn rates per job class, from a "
             "live service or recorded telemetry",
    )
    slo_p.add_argument(
        "source", nargs="?", default="live", metavar="SOURCE",
        help="'live' queries the running service daemon (default); "
             "otherwise a telemetry.ndjson path, a run-id prefix, or "
             "'latest'",
    )
    _add_service_dir(slo_p)
    slo_p.add_argument(
        "--runs-dir", type=Path, default=None, metavar="DIR",
        help="run registry root used to resolve run ids "
             "(default: $REPRO_RUNS_DIR or .repro/runs)",
    )
    slo_p.add_argument(
        "--slo", action="append", default=None, metavar="TARGET",
        dest="targets",
        help="SLO target to evaluate recorded telemetry against "
             "(repeatable; ignored for 'live' — the daemon's own "
             "targets apply there)",
    )
    slo_p.add_argument(
        "--json", action="store_true",
        help="print the machine-readable report instead of the table",
    )

    ds = sub.add_parser("dataset", help="describe a benchmark dataset")
    ds.add_argument("label", choices=DATASETS)

    sim = sub.add_parser("simulate", help="predict a run's Fock-build time")
    sim.add_argument("--dataset", choices=DATASETS, default="2.0nm")
    sim.add_argument("--algorithm", choices=ALGORITHMS, default="shared-fock")
    sim.add_argument("--nodes", type=int, default=4)
    sim.add_argument("--ranks-per-node", type=int, default=None)
    sim.add_argument("--threads", type=int, default=64)
    sim.add_argument("--system", choices=("theta", "jlse"), default="theta")
    sim.add_argument("--cluster-mode", default="quadrant")
    sim.add_argument("--memory-mode", default="cache")
    sim.add_argument(
        "--schedule", choices=SCHEDULES, default="dlb",
        help="task distribution strategy for the grant model",
    )

    rep = sub.add_parser("reproduce", help="regenerate a paper table/figure")
    rep.add_argument("target", choices=TARGETS)

    # --log-level/--quiet are accepted after the (sub)command too.
    for parser in [*sub.choices.values(), *runs_sub.choices.values()]:
        _add_logging_args(parser)
    return p


def cmd_scf(args: argparse.Namespace) -> int:
    from repro.chem.basis import BasisSet
    from repro.chem.molecule import Molecule
    from repro.resilience import (
        CheckpointManager,
        FaultSpecError,
        ResilienceError,
        SCFConvergenceError,
    )

    from repro.obs.logctl import quiet_enabled

    mol = Molecule.from_xyz(args.xyz.read_text(), charge=args.charge)
    basis = BasisSet(mol, args.basis)
    if not quiet_enabled():
        print(f"{mol.name}: {mol.natoms} atoms, {basis.nbf} basis "
              f"functions, {basis.nshells} shells ({args.basis})")

    backend, nranks, backend_options = _backend_setup(args)
    if args.uhf and args.incremental:
        print("error: --incremental is not supported with --uhf",
              file=sys.stderr)
        return 2
    if backend == "process" and not quiet_enabled():
        print(f"backend      : process ({nranks} worker process(es))")

    try:
        plan = _fault_plan(args, nranks)
    except FaultSpecError as exc:
        print(f"error: invalid --fault-plan: {exc}", file=sys.stderr)
        return 2
    manager = (
        CheckpointManager(args.checkpoint, every=args.checkpoint_every)
        if args.checkpoint is not None else None
    )
    run_kwargs = dict(
        restart=args.restart,
        checkpoint=manager,
        recovery=True if args.scf_recovery else None,
    )

    obs = _ObsSession(
        args, "scf",
        {
            "molecule": mol.name,
            "basis": args.basis,
            "algorithm": args.algorithm,
            "method": "uhf" if args.uhf else "rhf",
            "nranks": nranks,
            "nthreads": args.threads,
            "backend": backend,
            "fault_plan": args.fault_plan,
        },
    )
    if (
        backend == "process"
        and getattr(args, "telemetry", False)
        and obs.run_dir is not None
    ):
        # Worker spans/events stream into the run directory too, so the
        # registry's record of a chaos run includes the killed workers'
        # last completed spans.
        backend_options["obs_dir"] = obs.run_dir / "workers"
    obs.announce()
    try:
        if args.uhf:
            from repro.core.fock_uhf import UHFBuilderAdapter, UHFPrivateFockBuilder
            from repro.integrals.onee import kinetic_matrix, nuclear_matrix
            from repro.parallel.backend import make_backend
            from repro.scf.uhf import UHF

            h = kinetic_matrix(basis) + nuclear_matrix(basis)
            inner = UHFPrivateFockBuilder(
                basis, h, nranks=nranks, nthreads=args.threads,
                eri_cache_mb=_cache_mb(args), fault_plan=plan,
                schedule=args.schedule,
            )
            backend_obj = make_backend(
                backend, workers=nranks, **backend_options
            )
            fock_builder = backend_obj.wrap_builder(inner)
            if backend == "process":
                # The process backend speaks the stacked-density
                # single-argument protocol; adapt back to (da, db).
                fock_builder = UHFBuilderAdapter(fock_builder)
            try:
                res = UHF(basis, multiplicity=args.multiplicity,
                          fock_builder=fock_builder).run(**run_kwargs)
            except SCFConvergenceError as exc:
                print(f"SCF failed: {exc}", file=sys.stderr)
                return 1
            except ResilienceError as exc:
                print(f"unrecoverable fault: {exc}", file=sys.stderr)
                return 3
            finally:
                backend_obj.shutdown()
            print(f"UHF energy   : {res.energy:.10f} Eh "
                  f"(converged={res.converged}, {res.niterations} "
                  f"iterations)")
            print(f"<S^2>        : {res.s_squared:.6f}")
            if manager is not None and not quiet_enabled():
                print(f"checkpoints  : {manager.writes} written -> "
                      f"{args.checkpoint}")
            obs.finalize(
                status="done" if res.converged else "unconverged",
                summary={
                    "energy": res.energy,
                    "converged": res.converged,
                    "iterations": res.niterations,
                },
            )
            return 0 if res.converged else 1

        from repro.core.scf_driver import ParallelSCF

        try:
            with ParallelSCF(
                basis, args.algorithm, nranks=nranks, nthreads=args.threads,
                backend=backend, backend_options=backend_options,
                eri_cache_mb=_cache_mb(args), fault_plan=plan,
                schedule=args.schedule,
                incremental=args.incremental,
                rebuild_every=args.rebuild_every,
            ) as scf:
                res = scf.run(**run_kwargs)
        except SCFConvergenceError as exc:
            print(f"SCF failed: {exc}", file=sys.stderr)
            return 1
        except ResilienceError as exc:
            print(f"unrecoverable fault: {exc}", file=sys.stderr)
            return 3
        print(f"RHF energy   : {res.energy:.10f} Eh "
              f"(converged={res.converged}, {res.scf.niterations} "
              f"iterations)")
        stats = res.fock_stats[-1]
        if not quiet_enabled():
            print(f"Fock build   : {stats.quartets_computed} quartets, "
                  f"{stats.quartets_screened} screened, algorithm "
                  f"{stats.algorithm}, {stats.nranks} ranks x "
                  f"{stats.nthreads} threads")
            if not args.no_eri_cache:
                hits = sum(s.eri_cache_hits for s in res.fock_stats)
                misses = sum(s.eri_cache_misses for s in res.fock_stats)
                total = hits + misses
                rate = 100.0 * hits / total if total else 0.0
                print(f"ERI cache    : {hits} hits / {misses} misses "
                      f"({rate:.1f}% hit rate, last cycle "
                      f"{100.0 * stats.eri_cache_hit_rate:.1f}%)")
            if manager is not None:
                print(f"checkpoints  : {manager.writes} written -> "
                      f"{args.checkpoint}")
        obs.finalize(
            status="done" if res.converged else "unconverged",
            summary={
                "energy": res.energy,
                "converged": res.converged,
                "iterations": res.scf.niterations,
                "quartets_computed": res.total_quartets_computed,
                "rank_imbalance": res.rank_imbalance,
            },
        )
        return 0 if res.converged else 1
    finally:
        obs.close()


def cmd_profile(args: argparse.Namespace) -> int:
    from repro.chem.basis import BasisSet
    from repro.chem.molecule import Molecule, water
    from repro.core.scf_driver import ParallelSCF
    from repro.obs import EventLog, MetricsRegistry, Tracer
    from repro.obs.logctl import quiet_enabled

    if args.xyz is not None:
        mol = Molecule.from_xyz(args.xyz.read_text(), charge=args.charge)
    else:
        mol = water()
    basis = BasisSet(mol, args.basis)
    nthreads = 1 if args.algorithm == "mpi-only" else args.threads
    backend, nranks, backend_options = _backend_setup(args)
    if not quiet_enabled():
        print(f"{mol.name}: {mol.natoms} atoms, {basis.nbf} basis "
              f"functions, {basis.nshells} shells ({args.basis})")
        print(f"profiling {args.algorithm} on {nranks} rank(s) x "
              f"{nthreads} thread(s) [{backend} backend]")

    from repro.resilience import (
        FaultSpecError,
        ResilienceError,
        SCFConvergenceError,
    )

    try:
        plan = _fault_plan(args, nranks)
    except FaultSpecError as exc:
        print(f"error: invalid --fault-plan: {exc}", file=sys.stderr)
        return 2

    workers_dir = args.output_dir / "workers"
    if backend == "process":
        # Workers dump their own spans/events NDJSON here (one shared
        # time base), merged with the parent trace below.
        backend_options["obs_dir"] = workers_dir

    # Setup (integrals, Schwarz matrix) stays outside the measured
    # window so the traced span total is comparable to the SCF wall.
    scf = ParallelSCF(
        basis, args.algorithm, nranks=nranks, nthreads=nthreads,
        backend=backend, backend_options=backend_options,
        eri_cache_mb=_cache_mb(args), fault_plan=plan,
        schedule=args.schedule,
    )
    tracer = Tracer()
    registry = MetricsRegistry()
    elog = EventLog()
    obs = _ObsSession(
        args, "profile",
        {
            "molecule": mol.name,
            "basis": args.basis,
            "algorithm": args.algorithm,
            "nranks": nranks,
            "nthreads": nthreads,
            "backend": backend,
            "output_dir": str(args.output_dir),
        },
        log=elog, metrics=registry,
    )
    obs.announce()
    try:
        return _profile_run(args, scf, tracer, registry, elog, obs,
                            backend, workers_dir)
    finally:
        obs.close()


def _profile_run(args, scf, tracer, registry, elog, obs, backend,
                 workers_dir) -> int:
    import json
    import time

    from repro.obs import (
        events_ndjson,
        metrics_ndjson,
        profile_report,
        spans_ndjson,
        use_event_log,
        use_metrics,
        use_tracer,
        write_chrome_trace,
        write_text,
    )
    from repro.resilience import ResilienceError, SCFConvergenceError

    with use_tracer(tracer), use_metrics(registry), use_event_log(elog):
        t0 = time.perf_counter()
        try:
            res = scf.run(recovery=True if args.scf_recovery else None)
        except (SCFConvergenceError, ResilienceError) as exc:
            print(f"SCF failed under injected faults: {exc}", file=sys.stderr)
            return 3
        finally:
            scf.shutdown()  # flush and stop process-backend workers
        wall = time.perf_counter() - t0

    traced = tracer.total_seconds()
    coverage = 100.0 * traced / wall if wall > 0 else 0.0
    report = profile_report(
        tracer, title=f"SCF profile ({args.algorithm})"
    )

    out = args.output_dir
    # Events share the spans' relative time base (earliest span start).
    span_starts = [s.start for s in tracer.walk() if s.end is not None]
    events_t0 = min(span_starts) if span_starts else None
    trace_path = write_chrome_trace(tracer, out / "trace.json", events=elog)
    report_path = write_text(out / "profile.txt", report)
    spans_path = write_text(out / "spans.ndjson", spans_ndjson(tracer))
    events_path = write_text(
        out / "events.ndjson", events_ndjson(elog, t0=events_t0)
    )
    metrics_path = out / "metrics.ndjson"
    lines = [metrics_ndjson(registry)]
    lines += [
        json.dumps({"fock_build": i + 1, **s.as_dict()})
        for i, s in enumerate(res.fock_stats)
    ]
    write_text(metrics_path, "\n".join(lines))

    merged_path = None
    if backend == "process":
        from repro.obs.analysis import merged_chrome_trace, timeline_spans
        from repro.parallel.backend.process import worker_obs_run

        runs = [("driver", timeline_spans(tracer), list(elog))]
        worker_run = worker_obs_run(workers_dir, label="workers")
        if worker_run[1] or worker_run[2]:
            runs.append(worker_run)
        merged_path = write_text(
            out / "merged_trace.json",
            json.dumps(merged_chrome_trace(runs)),
        )

    print(f"\n{report}\n")
    if args.timeline:
        from repro.obs.analysis import analyze_tracer, timeline_report

        analysis = analyze_tracer(tracer, elog)
        tl_report = timeline_report(
            analysis, title=f"timeline ({args.algorithm})"
        )
        tl_path = write_text(out / "timeline.txt", tl_report)
        write_text(
            out / "timeline.json",
            json.dumps(analysis.to_dict(), indent=2),
        )
        print(f"{tl_report}\n")
        print(f"timeline     : {tl_path} (+ timeline.json)")
    print(f"RHF energy   : {res.energy:.10f} Eh "
          f"(converged={res.converged}, {res.scf.niterations} iterations)")
    print(f"load balance : rank imbalance {res.rank_imbalance:.3f}, "
          f"thread imbalance {res.thread_imbalance:.3f}")
    print(f"SCF wall     : {wall:.6f} s; traced {traced:.6f} s "
          f"({coverage:.1f}% of wall)")
    print(f"trace        : {trace_path} (open in chrome://tracing or "
          f"ui.perfetto.dev)")
    print(f"profile      : {report_path}")
    print(f"metrics      : {metrics_path}")
    print(f"spans        : {spans_path}")
    print(f"events       : {events_path} ({len(elog)} events)")
    if merged_path is not None:
        print(f"merged trace : {merged_path} (driver + per-worker spans "
              f"on one timeline)")
    obs.finalize(
        status="done" if res.converged else "unconverged",
        summary={
            "energy": res.energy,
            "converged": res.converged,
            "iterations": res.scf.niterations,
            "wall_s": wall,
            "traced_s": traced,
            "rank_imbalance": res.rank_imbalance,
            "thread_imbalance": res.thread_imbalance,
        },
    )
    if obs.handle is not None:
        for name, path in (
            ("trace.json", trace_path), ("profile.txt", report_path),
            ("spans.ndjson", spans_path), ("metrics.ndjson", metrics_path),
        ):
            obs.handle.add_artifact(name, path)
        obs.handle.save()
    return 0 if res.converged else 1


def cmd_monitor(args: argparse.Namespace) -> int:
    import stat

    from repro.obs.monitor import MonitorState
    from repro.obs.registry import RunRegistry
    from repro.obs.telemetry import TelemetryClient, records_from_ndjson

    sock: Path | None = None
    ndjson: Path | None = None
    src = Path(args.source)
    if src.exists():
        if stat.S_ISSOCK(src.stat().st_mode):
            sock = src
        else:
            ndjson = src
    else:
        registry = RunRegistry(args.runs_dir)
        try:
            run_id = registry.find(args.source)
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
        run_dir = registry.run_dir(run_id)
        live = run_dir / "telemetry.sock"
        recorded = run_dir / "telemetry.ndjson"
        if live.exists() and stat.S_ISSOCK(live.stat().st_mode):
            sock = live
        elif recorded.exists():
            ndjson = recorded
        else:
            print(
                f"error: run {run_id} has no telemetry "
                "(was it started with --telemetry?)",
                file=sys.stderr,
            )
            return 2

    state = MonitorState()
    if ndjson is not None:
        state.apply_all(records_from_ndjson(ndjson.read_text()))
        print(state.render())
        return 0

    assert sock is not None
    try:
        client = TelemetryClient(sock)
    except OSError as exc:
        # A stale socket from a finished run: fall back to the sink file.
        recorded = sock.parent / "telemetry.ndjson"
        if recorded.exists():
            logger.info("socket %s is stale (%s); replaying sink", sock, exc)
            state.apply_all(records_from_ndjson(recorded.read_text()))
            print(state.render())
            return 0
        print(f"error: cannot connect to {sock}: {exc}", file=sys.stderr)
        return 2
    try:
        while True:
            records = client.poll(args.interval)
            state.apply_all(records)
            if client.eof and state.nrecords == 0:
                # The run ended between resolving the socket and our
                # first read (hung up before the backlog arrived):
                # render from the recorded sink instead of an empty
                # frame.
                recorded = sock.parent / "telemetry.ndjson"
                if recorded.exists():
                    state.apply_all(
                        records_from_ndjson(recorded.read_text())
                    )
            frame = state.render()
            if not args.plain:
                sys.stdout.write("\x1b[2J\x1b[H")
            print(frame, flush=True)
            if args.once or client.eof:
                return 0
    except KeyboardInterrupt:
        return 0
    finally:
        client.close()


def cmd_runs(args: argparse.Namespace) -> int:
    from repro.obs.analysis.compare import compare_runs, load_run
    from repro.obs.registry import RunRegistry

    registry = RunRegistry(args.runs_dir)
    if args.runs_command == "list":
        print(registry.list_table())
        return 0

    if args.runs_command == "show":
        try:
            run_id = registry.find(args.run)
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
        print(registry.show(run_id))
        return 0

    if args.runs_command == "prune":
        if (args.keep_last is None and args.max_age is None
                and args.max_bytes is None):
            print(
                "error: give at least one of --keep-last / --max-age "
                "/ --max-bytes",
                file=sys.stderr,
            )
            return 2
        removed = registry.prune(
            keep_last=args.keep_last,
            max_age_s=args.max_age,
            max_bytes=(int(args.max_bytes)
                       if args.max_bytes is not None else None),
            dry_run=args.dry_run,
        )
        verb = "would remove" if args.dry_run else "removed"
        print(f"{verb} {len(removed)} run(s)")
        for run_id in removed:
            print(f"  {run_id}")
        return 0

    # diff: hand the two runs' final metrics snapshots to the PR-4
    # comparison engine — run-to-run diffs gate exactly like benchmarks.
    try:
        base_id = registry.find(args.baseline)
        cand_id = registry.find(args.candidate)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    for run_id in (base_id, cand_id):
        if not registry.metrics_path(run_id).exists():
            print(
                f"error: run {run_id} has no metrics.json "
                "(did it finish?)",
                file=sys.stderr,
            )
            return 2
    comparison = compare_runs(
        load_run(registry.metrics_path(base_id), label=base_id),
        load_run(registry.metrics_path(cand_id), label=cand_id),
        tolerance=args.tolerance,
        abs_tolerance=args.abs_tolerance,
        ignore=args.ignore,
    )
    print(comparison.report())
    return 1 if comparison.verdict == "fail" else 0


def cmd_timeline(args: argparse.Namespace) -> int:
    import json

    from repro.obs import events_from_ndjson, write_text
    from repro.obs.analysis import (
        analyze_timeline,
        merged_chrome_trace,
        spans_from_ndjson,
        timeline_report,
    )

    if args.events and len(args.events) != len(args.spans):
        print(
            f"error: {len(args.events)} --events file(s) for "
            f"{len(args.spans)} spans file(s); counts must match",
            file=sys.stderr,
        )
        return 2
    if args.labels is not None:
        labels = [s.strip() for s in args.labels.split(",")]
        if len(labels) != len(args.spans):
            print(
                f"error: {len(labels)} label(s) for {len(args.spans)} "
                f"spans file(s); counts must match",
                file=sys.stderr,
            )
            return 2
    else:
        labels = [p.resolve().parent.name or p.stem for p in args.spans]

    runs = []
    for i, spans_path in enumerate(args.spans):
        if not spans_path.exists():
            print(f"error: no such file: {spans_path}", file=sys.stderr)
            return 2
        spans = spans_from_ndjson(spans_path.read_text())
        events = (
            events_from_ndjson(args.events[i].read_text())
            if args.events else []
        )
        runs.append((labels[i], spans, events))

    reports = []
    for label, spans, events in runs:
        analysis = analyze_timeline(spans, events)
        reports.append(timeline_report(analysis, title=f"timeline ({label})"))
    body = "\n\n".join(reports)
    print(body)
    if args.report is not None:
        write_text(args.report, body)
        print(f"\nreport       : {args.report}")
    if args.merged_trace is not None:
        write_text(args.merged_trace, json.dumps(merged_chrome_trace(runs)))
        print(f"merged trace : {args.merged_trace} "
              f"({len(runs)} run(s); open in ui.perfetto.dev)")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    import json

    from repro.obs import write_text
    from repro.obs.analysis import compare_runs, load_run

    for path in [args.baseline, *args.candidates]:
        if not path.exists():
            print(f"error: no such file: {path}", file=sys.stderr)
            return 2

    baseline = load_run(args.baseline)
    comparisons = [
        compare_runs(
            baseline,
            load_run(candidate),
            tolerance=args.tolerance,
            abs_tolerance=args.abs_tolerance,
            ignore=args.ignore,
            only=args.only,
            allow_missing=args.allow_missing,
        )
        for candidate in args.candidates
    ]

    body = "\n\n".join(c.report() for c in comparisons)
    print(body)
    if args.report is not None:
        write_text(args.report, body)
    if args.json is not None:
        verdicts = [c.to_dict() for c in comparisons]
        payload = verdicts[0] if len(verdicts) == 1 else verdicts
        write_text(args.json, json.dumps(payload, indent=2))
    return 1 if any(c.verdict == "fail" for c in comparisons) else 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.obs.logctl import quiet_enabled
    from repro.service import (
        DaemonAlreadyRunning,
        ServiceConfig,
        ServiceDaemon,
        service_socket_path,
    )

    config = ServiceConfig(
        service_dir=str(args.service_dir),
        fleet=args.fleet,
        max_queue_depth=args.max_queue_depth,
        job_timeout_s=args.job_timeout,
        max_retries=args.max_retries,
        backoff_base_s=args.backoff_base,
        backoff_cap_s=args.backoff_cap,
        retry_seed=args.retry_seed,
        process_budget=args.process_budget,
        heartbeat_timeout_s=args.heartbeat_timeout,
        checkpoint_every=args.checkpoint_every,
        idle_exit_s=args.idle_exit,
        runs_dir=str(args.runs_dir) if args.runs_dir is not None else None,
        keep_runs=args.keep,
        manifest=(str(args.manifest) if args.manifest is not None
                  else None),
        batch_policy=args.batch_policy,
        batch_seed=args.batch_seed,
        batch_window=args.batch_window,
        **({"slo_targets": tuple(args.slo)} if args.slo else {}),
    )
    try:
        daemon = ServiceDaemon(config).start()
    except DaemonAlreadyRunning as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # bad flag combination (e.g. cap < base)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not quiet_enabled():
        print(f"service      : {service_socket_path(args.service_dir)}")
        print(f"journal      : {args.service_dir / 'journal.ndjson'}")
        print(f"telemetry    : repro monitor "
              f"{args.service_dir / 'telemetry.sock'}")
        if daemon.queue.recovered_jobs:
            print(f"recovered    : {len(daemon.queue.recovered_jobs)} "
                  f"interrupted job(s) re-queued from the journal")
    try:
        daemon.install_signal_handlers()
        daemon.run_forever()
    finally:
        daemon.close()
    return 0


def _job_client(args: argparse.Namespace):
    from repro.service import JobClient

    return JobClient(args.service_dir)


def _print_job(job: dict, *, verbose: bool = True) -> None:
    state = job["state"]
    line = f"job {job['id']}: {state}"
    if job.get("tag"):
        line += f" ({job['tag']})"
    if job.get("degraded"):
        line += " [degraded to sim backend]"
    print(line)
    if not verbose:
        return
    if state == "done" and job.get("result"):
        res = job["result"]
        print(f"RHF energy   : {res['energy']:.10f} Eh "
              f"(converged={res['converged']}, {res['iterations']} "
              f"iterations, attempt {job['attempt']})")
        if res.get("resumed"):
            print("resumed      : from checkpoint")
    elif state in ("failed", "cancelled") and job.get("error"):
        print(f"error        : [{job.get('error_type')}] {job['error']}")
    elif state == "retrying":
        import time as _time

        wait = max(0.0, job.get("not_before", 0.0) - _time.time())
        print(f"retry        : attempt {job['attempt']} failed "
              f"([{job.get('error_type')}]); next try in {wait:.2f}s")
    if job.get("run_id"):
        print(f"run id       : {job['run_id']}")


def _handle_service_errors(fn):
    """Map typed service errors to exit codes (3 unavailable, 4 shed)."""
    from repro.service import (
        JobNotFound,
        JobSpecError,
        ManifestError,
        ServiceOverloaded,
        ServiceUnavailable,
    )

    try:
        return fn()
    except ServiceOverloaded as exc:
        print(f"error: service overloaded: {exc}", file=sys.stderr)
        return 4
    except ServiceUnavailable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (JobNotFound, JobSpecError, ManifestError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def cmd_batch(args: argparse.Namespace) -> int:
    import json as _json

    from repro.obs.logctl import quiet_enabled
    from repro.obs.registry import RunRegistry
    from repro.workload import WorkloadManager, load_manifest

    def run() -> int:
        specs = load_manifest(args.manifest)
        manager = WorkloadManager(
            _job_client(args),
            policy=args.policy, seed=args.seed, window=args.window,
            registry=None if args.plan_only else RunRegistry(args.runs_dir),
        )
        if args.plan_only:
            plan = manager.plan(specs)
            print(_json.dumps(plan.to_dict(), indent=2, sort_keys=True))
            return 0
        output = args.output or Path("BENCH_throughput.json")
        try:
            report = manager.run(
                specs, manifest_path=str(args.manifest),
                timeout_s=args.timeout, output=output,
            )
        except TimeoutError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 5
        m = report.metrics
        if args.json:
            print(_json.dumps(report.to_dict(), indent=2, sort_keys=True))
        elif not quiet_enabled():
            print(f"manifest     : {args.manifest} "
                  f"({m['jobs_total']} jobs, {m['n_batches']} batches, "
                  f"policy {report.plan.policy})")
            print(f"completed    : {m['jobs_done']} done, "
                  f"{m['jobs_failed']} failed in {m['wall_s']:.2f}s "
                  f"({m['jobs_per_s']:.2f} jobs/s)")
            print(f"queue wait   : p50 {m['queue_wait_p50_s']*1e3:.1f} ms, "
                  f"p95 {m['queue_wait_p95_s']*1e3:.1f} ms")
            print(f"amortization : {m['cache_amortization_ratio']:.2f} "
                  f"jobs per cold setup ({m['warm_setups']} warm / "
                  f"{m['cold_setups']} cold; ERI hit rate "
                  f"{m['eri_cache_hit_rate']:.2f})")
            print(f"report       : {output}")
        return 0 if m["jobs_failed"] == 0 else 1

    return _handle_service_errors(run)


def cmd_submit(args: argparse.Namespace) -> int:
    from repro.obs.logctl import quiet_enabled

    spec = {
        "xyz": args.xyz.read_text(),
        "basis": args.basis,
        "algorithm": args.algorithm,
        "nranks": args.ranks,
        "nthreads": args.threads,
        "backend": args.backend,
        "schedule": args.schedule,
        "charge": args.charge,
        "eri_cache_mb": _cache_mb(args),
        "incremental": args.incremental,
        "max_iterations": args.max_iterations,
        "fault_plan": args.fault_plan,
        "tag": args.tag or args.xyz.stem,
        "sleep_s": args.chaos_sleep,
        "cycle_delay_s": args.chaos_cycle_delay,
        "die_on_attempt": args.chaos_die_on_attempt,
    }

    def run() -> int:
        client = _job_client(args)
        job = client.submit(spec)
        if not quiet_enabled():
            print(f"submitted    : {job['id']} "
                  f"({job['tag']}, {job['basis']}, {job['algorithm']})")
        else:
            print(job["id"])
        if not args.wait:
            return 0
        done = client.result(job["id"], timeout_s=args.timeout)
        _print_job(done)
        return 0 if done["state"] == "done" else 1

    return _handle_service_errors(run)


def cmd_status(args: argparse.Namespace) -> int:
    def run() -> int:
        client = _job_client(args)
        if args.job is not None:
            _print_job(client.status(args.job))
            return 0
        listing = client.status()
        depth, fleet = listing["depth"], listing["fleet"]
        print(f"queue        : {depth['open']} open "
              f"({depth['pending']} pending, {depth['running']} running, "
              f"{depth['retrying']} retrying) / {depth['done']} done, "
              f"{depth['failed']} failed, {depth['cancelled']} cancelled")
        print(f"fleet        : {fleet['busy']}/{fleet['size']} busy, "
              f"{fleet['lost_workers']} lost, {fleet['timeouts']} timed "
              f"out, {fleet['degraded_jobs']} degraded, "
              f"{fleet['respawns']} respawns")
        for job in listing["jobs"]:
            tag = f"  ({job['tag']})" if job.get("tag") else ""
            flags = " [degraded]" if job.get("degraded") else ""
            print(f"  {job['id']}  {job['state']:<9} "
                  f"attempt {job['attempt']}{flags}{tag}")
        return 0

    return _handle_service_errors(run)


def cmd_result(args: argparse.Namespace) -> int:
    def run() -> int:
        from repro.service import JobTimeoutError

        client = _job_client(args)
        try:
            job = client.result(
                args.job, wait=not args.no_wait, timeout_s=args.timeout,
            )
        except JobTimeoutError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 5
        _print_job(job)
        if job["state"] == "done":
            return 0
        return 1 if job["state"] in ("failed", "cancelled") else 5

    return _handle_service_errors(run)


def cmd_cancel(args: argparse.Namespace) -> int:
    def run() -> int:
        client = _job_client(args)
        _print_job(client.cancel(args.job), verbose=False)
        return 0

    return _handle_service_errors(run)


def cmd_trace(args: argparse.Namespace) -> int:
    import json

    from repro.obs.logctl import quiet_enabled
    from repro.obs.registry import RunRegistry
    from repro.obs.trace_assembly import TraceAssemblyError, assemble_job_trace

    journal = args.service_dir / "journal.ndjson"
    if not journal.exists():
        print(f"error: no service journal at {journal} "
              "(is --service-dir right?)", file=sys.stderr)
        return 2
    try:
        assembled = assemble_job_trace(
            journal, args.job,
            runs_root=RunRegistry(args.runs_dir).root,
        )
    except TraceAssemblyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    out = args.output
    if out is None:
        out = Path(f"trace-{assembled.job_id}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(assembled.to_chrome_trace()))

    problems = assembled.validate()
    if not args.no_report:
        print(f"job {assembled.job_id}  trace_id {assembled.trace_id}")
        print(f"{len(assembled.segments)} span(s) across "
              f"{len({s.pid for s in assembled.segments})} process track(s)"
              f"; {sum(1 for s in assembled.segments if s.synthetic)} "
              f"synthetic")
        print()
        print(assembled.critical_path_report())
    if not quiet_enabled():
        for warning in assembled.warnings:
            print(f"warning      : {warning}", file=sys.stderr)
    for problem in problems:
        print(f"invalid      : {problem}", file=sys.stderr)
    if not args.no_report or not quiet_enabled():
        print(f"\ntrace        : {out} (open in chrome://tracing or "
              f"ui.perfetto.dev)")
    return 1 if problems else 0


def cmd_slo(args: argparse.Namespace) -> int:
    import json

    from repro.obs.slo import (
        SLOTargetError,
        engine_from_telemetry,
        render_slo_report,
    )

    if args.source == "live":
        def run() -> int:
            client = _job_client(args)
            report = client.status().get("slo")
            if report is None:
                print("error: the service reports no SLO engine "
                      "(older daemon?)", file=sys.stderr)
                return 2
            print(json.dumps(report, indent=2) if args.json
                  else render_slo_report(report))
            return 0

        return _handle_service_errors(run)

    from repro.obs.registry import RunRegistry
    from repro.obs.telemetry import records_from_ndjson

    src = Path(args.source)
    if src.exists() and src.is_file():
        ndjson = src
    elif args.source == "latest":
        # The sink lives in the *serving* daemon's run directory, not
        # the per-job runs: take the newest run that recorded one.
        registry = RunRegistry(args.runs_dir)
        candidates = [
            registry.run_dir(run_id) / "telemetry.ndjson"
            for run_id in reversed(registry.run_ids())
        ]
        ndjson = next((p for p in candidates if p.exists()), None)
        if ndjson is None:
            print(f"error: no run under {registry.root} has a "
                  "telemetry.ndjson", file=sys.stderr)
            return 2
    else:
        registry = RunRegistry(args.runs_dir)
        try:
            run_id = registry.find(args.source)
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
        ndjson = registry.run_dir(run_id) / "telemetry.ndjson"
        if not ndjson.exists():
            print(f"error: run {run_id} has no telemetry.ndjson",
                  file=sys.stderr)
            return 2
    try:
        engine = engine_from_telemetry(
            records_from_ndjson(ndjson.read_text()), targets=args.targets,
        )
    except SLOTargetError as exc:
        print(f"error: invalid --slo target: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(engine.report(), indent=2) if args.json
          else engine.report_text())
    return 0


def cmd_dataset(args: argparse.Namespace) -> int:
    from repro.chem.graphene import PAPER_DATASETS
    from repro.perfsim.workload import Workload

    spec = PAPER_DATASETS[args.label]
    print(f"dataset {args.label}: {spec.natoms} atoms, {spec.nshells} "
          f"shells, {spec.nbf} basis functions (6-31G(d), bilayer graphene)")
    wl = Workload.for_dataset(args.label)
    print(f"bra (ij) tasks          : {wl.npair_tasks:,}")
    print(f"significant after prescr: {wl.n_significant_tasks:,}")
    print(f"surviving quartets      : {wl.total_quartets:.3e}")
    print(f"screened fraction       : {100 * wl.screening_fraction():.2f}%")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    from repro.machine.system import JLSE, THETA
    from repro.perfsim.cost_model import calibrated_cost_model
    from repro.perfsim.simulate import RunConfig, simulate_fock_build
    from repro.perfsim.workload import Workload

    system = THETA if args.system == "theta" else JLSE
    wl = Workload.for_dataset(args.dataset)
    if args.algorithm == "mpi-only":
        cfg = RunConfig.mpi_only(
            system=system, nodes=args.nodes,
            ranks_per_node=args.ranks_per_node,
            cluster_mode=args.cluster_mode, memory_mode=args.memory_mode,
            schedule=args.schedule,
        )
    else:
        cfg = RunConfig.hybrid(
            args.algorithm, system=system, nodes=args.nodes,
            ranks_per_node=args.ranks_per_node or 4,
            threads_per_rank=args.threads,
            cluster_mode=args.cluster_mode, memory_mode=args.memory_mode,
            schedule=args.schedule,
        )
    sim = simulate_fock_build(wl, cfg, calibrated_cost_model())
    if not sim.feasible:
        print(f"INFEASIBLE: {sim.infeasible_reason}")
        return 1
    print(f"{args.algorithm} on {args.nodes} {system.name} node(s): "
          f"{sim.ranks_per_node} ranks/node, "
          f"{sim.hardware_threads_per_node} hw threads/node")
    print(f"Fock-build time         : {sim.total_seconds:.1f} s "
          f"({sim.per_iteration_seconds:.2f} s/iteration)")
    print(f"node memory             : {sim.node_memory_gb:.1f} GB")
    print(f"effective bandwidth     : {sim.effective_bandwidth_gbs:.0f} GB/s")
    print(f"load imbalance          : {sim.imbalance:.2f}")
    for k, v in sorted(sim.breakdown.items()):
        print(f"  {k:<12s}: {v:10.2f} s")
    return 0


def cmd_reproduce(args: argparse.Namespace) -> int:
    from repro.analysis import figures, tables
    from repro.analysis.plots import ascii_loglog
    from repro.analysis.report import render_series
    from repro.perfsim.cost_model import calibrated_cost_model

    t = args.target
    if t == "all":
        import argparse as _ap

        rc = 0
        for target in ("table4", "table2", "table3", "fig3", "fig4",
                       "fig5", "fig6", "fig7"):
            print(f"\n========== {target} ==========")
            rc |= cmd_reproduce(_ap.Namespace(target=target))
        return rc
    if t == "table4":
        rows = tables.table4_system_sizes()
        print(tables.render_table(
            ["dataset", "atoms", "shells", "BFs"],
            [[r.dataset, str(r.natoms), str(r.nshells), str(r.nbf)]
             for r in rows],
        ))
        return 0
    if t == "table2":
        rows = tables.table2_memory_footprints()
        print(tables.render_table(
            ["dataset", "MPI GB", "Pr.F GB", "Sh.F GB",
             "paper MPI", "paper Pr.F", "paper Sh.F"],
            [[r.dataset, f"{r.mpi_gb:.2f}", f"{r.private_gb:.2f}",
              f"{r.shared_gb:.3f}", f"{r.paper_mpi_gb:g}",
              f"{r.paper_private_gb:g}", f"{r.paper_shared_gb:g}"]
             for r in rows],
        ))
        return 0

    cost = calibrated_cost_model()
    if t == "table3":
        rows = tables.table3_multinode(cost)
        print(tables.render_table(
            ["nodes", "MPI s", "Pr.F s", "Sh.F s",
             "MPI eff%", "Pr.F eff%", "Sh.F eff%"],
            [[str(r.nodes)]
             + [f"{r.times[a]:.0f}" for a in ALGORITHMS]
             + [f"{r.efficiencies[a]:.0f}" for a in ALGORITHMS]
             for r in rows],
        ))
        return 0
    if t == "fig3":
        series = figures.figure3_affinity(cost)
        print(render_series(series, "Figure 3: affinity sweep (seconds)"))
        return 0
    if t == "fig4":
        series = figures.figure4_single_node(cost)
        print(ascii_loglog(series, title="Figure 4: single-node scaling "
                                         "(1.0 nm)", xlabel="hw threads"))
        return 0
    if t == "fig5":
        out = figures.figure5_modes(cost)
        for label, recs in out.items():
            print(f"\n{label}:")
            print(tables.render_table(
                ["cluster", "memory", "algorithm", "seconds"],
                [[r["cluster"], r["memory"], r["algorithm"],
                  f"{r['seconds']:.0f}" if r["feasible"] else "(mem)"]
                 for r in recs],
            ))
        return 0
    if t == "fig6":
        series = figures.figure6_scaling_curves(cost)
        print(ascii_loglog(series, title="Figure 6: multi-node scaling "
                                         "(2.0 nm, Theta)", xlabel="nodes"))
        return 0
    if t == "fig7":
        series = figures.figure7_5nm_scaling(cost)
        print(ascii_loglog([series], title="Figure 7: 5.0 nm shared-Fock "
                                           "scaling", xlabel="nodes"))
        return 0
    raise AssertionError(f"unhandled target {t}")


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    from repro.obs.logctl import setup_logging

    args = build_parser().parse_args(argv)
    setup_logging(
        getattr(args, "log_level", "warning"),
        quiet=getattr(args, "quiet", False),
    )
    handlers = {
        "scf": cmd_scf,
        "profile": cmd_profile,
        "monitor": cmd_monitor,
        "runs": cmd_runs,
        "serve": cmd_serve,
        "batch": cmd_batch,
        "submit": cmd_submit,
        "status": cmd_status,
        "result": cmd_result,
        "cancel": cmd_cancel,
        "trace": cmd_trace,
        "slo": cmd_slo,
        "timeline": cmd_timeline,
        "compare": cmd_compare,
        "dataset": cmd_dataset,
        "simulate": cmd_simulate,
        "reproduce": cmd_reproduce,
    }
    try:
        return handlers[args.command](args)
    except BrokenPipeError:
        # stdout consumer (head, less, ...) hung up mid-print; standard
        # CLI etiquette is a quiet exit, not a traceback.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
