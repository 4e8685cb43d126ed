"""SLO engine: latency quantile digests, targets, and error-budget burn.

The service-level layer on top of the distributed trace: every job the
daemon completes contributes one observation of its **queue-wait**,
**run**, and **total** latency (seconds, on the shared ``perf_counter``
time base) to a streaming quantile digest per *job class* (algorithm ×
backend — the axes the paper's benchmarks vary).  Against those digests
the engine evaluates declarative :class:`SLOTarget` rules::

    total:p95<30        # 95% of jobs finish within 30 s
    queue_wait:p99<5    # 99% wait under 5 s before a worker picks them up
    error_rate<0.1      # at most 10% of jobs may fail

Each rule carries an implicit *error budget* — the fraction of jobs
allowed to violate it (``1 - q`` for a latency rule, the threshold for
an error-rate rule).  The **burn rate** is the observed violating
fraction divided by that budget: 1.0 means the budget is being consumed
exactly as fast as it accrues; above 1.0 the SLO is being breached.
The engine emits an ``slo.burn_rate`` event on every evaluation and an
edge-triggered ``slo.breach`` when a (class, target) pair first crosses
1.0 — the signals ``repro monitor`` surfaces live.

Everything is streaming and O(buckets): the digests are the
fixed-boundary :class:`~repro.obs.metrics.Histogram` quantile
estimators, so a month of traffic costs the same memory as a minute.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Any, Iterable

from repro.obs.metrics import Histogram

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.events import Event, EventLog

#: Latency metrics every job observation carries.
LATENCY_METRICS = ("queue_wait", "run", "total")

#: Quantiles the reports table (the paper-style p50/p95/p99 columns).
REPORT_QUANTILES = (0.5, 0.95, 0.99)

#: Bucket ladder for service latencies (10 ms … 10 min).
SERVICE_LATENCY_BUCKETS: tuple[float, ...] = (
    0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
    20.0, 30.0, 60.0, 120.0, 300.0, 600.0,
)

#: Default SLO targets a daemon enforces when the CLI passes none.
DEFAULT_SLO_TARGETS = (
    "total:p95<60",
    "queue_wait:p95<30",
    "error_rate<0.25",
)

_LATENCY_RE = re.compile(
    r"^(?P<metric>queue_wait|run|total)\s*:\s*p(?P<q>\d{1,2}(?:\.\d+)?)\s*"
    r"<\s*(?P<threshold>\d+(?:\.\d+)?)$"
)
_ERROR_RE = re.compile(
    r"^error_rate\s*<\s*(?P<threshold>0?\.\d+|0|1(?:\.0*)?)$"
)


class SLOTargetError(ValueError):
    """A malformed SLO target spec string."""


class SLOTarget:
    """One declarative SLO rule, parsed from its spec string."""

    __slots__ = ("spec", "metric", "quantile", "threshold")

    def __init__(self, spec: str, metric: str,
                 quantile: float | None, threshold: float) -> None:
        self.spec = spec
        self.metric = metric  # a latency metric, or "error_rate"
        self.quantile = quantile  # None for error-rate rules
        self.threshold = threshold

    @classmethod
    def parse(cls, spec: str) -> "SLOTarget":
        text = spec.strip()
        m = _LATENCY_RE.match(text)
        if m:
            q = float(m.group("q")) / 100.0
            if not 0.0 < q < 1.0:
                raise SLOTargetError(
                    f"quantile p{m.group('q')} out of range in {spec!r}")
            return cls(text, m.group("metric"), q,
                       float(m.group("threshold")))
        m = _ERROR_RE.match(text)
        if m:
            threshold = float(m.group("threshold"))
            if not 0.0 < threshold <= 1.0:
                raise SLOTargetError(
                    f"error-rate threshold must be in (0, 1] in {spec!r}")
            return cls(text, "error_rate", None, threshold)
        raise SLOTargetError(
            f"cannot parse SLO target {spec!r}; expected forms like "
            "'total:p95<30', 'queue_wait:p99<5', or 'error_rate<0.1'")

    @property
    def budget(self) -> float:
        """Allowed violating fraction (the error budget per observation)."""
        if self.quantile is not None:
            return 1.0 - self.quantile
        return self.threshold

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SLOTarget({self.spec!r})"


def job_class(spec: Any) -> str:
    """The SLO aggregation class of a job spec (dict or JobSpec-like)."""
    if isinstance(spec, dict):
        algorithm = spec.get("algorithm", "?")
        backend = spec.get("backend", "?")
    else:
        algorithm = getattr(spec, "algorithm", "?")
        backend = getattr(spec, "backend", "?")
    return f"{algorithm}/{backend}"


class ClassStats:
    """Streaming latency + outcome digests for one job class."""

    __slots__ = ("job_class", "hists", "done", "failed", "violations")

    def __init__(self, name: str) -> None:
        self.job_class = name
        self.hists = {
            metric: Histogram(f"slo.{metric}", (("job_class", name),),
                              buckets=SERVICE_LATENCY_BUCKETS)
            for metric in LATENCY_METRICS
        }
        self.done = 0
        self.failed = 0
        self.violations: dict[str, int] = {}

    @property
    def total(self) -> int:
        return self.done + self.failed

    def observe(self, latencies: dict[str, float], *, failed: bool,
                targets: Iterable[SLOTarget]) -> None:
        if failed:
            self.failed += 1
        else:
            self.done += 1
        for metric, hist in self.hists.items():
            value = latencies.get(metric)
            if value is not None:
                hist.observe(max(float(value), 0.0))
        for target in targets:
            if target.metric == "error_rate":
                continue
            value = latencies.get(target.metric)
            if value is not None and float(value) > target.threshold:
                self.violations[target.spec] = (
                    self.violations.get(target.spec, 0) + 1)

    def burn_rate(self, target: SLOTarget) -> float | None:
        """Observed violating fraction over the allowed fraction."""
        if not self.total:
            return None
        if target.metric == "error_rate":
            observed = self.failed / self.total
        else:
            observed = self.violations.get(target.spec, 0) / self.total
        return observed / target.budget

    def quantiles(self) -> dict[str, dict[str, float | None]]:
        return {
            metric: {
                f"p{round(q * 100):d}": hist.quantile(q)
                for q in REPORT_QUANTILES
            }
            for metric, hist in self.hists.items()
        }


class SLOEngine:
    """Evaluate SLO targets over a stream of terminal job observations."""

    def __init__(
        self,
        targets: Iterable[str | SLOTarget] | None = None,
        *,
        log: "EventLog | None" = None,
    ) -> None:
        specs = DEFAULT_SLO_TARGETS if targets is None else targets
        self.targets = [
            t if isinstance(t, SLOTarget) else SLOTarget.parse(t)
            for t in specs
        ]
        self.log = log
        self.classes: dict[str, ClassStats] = {}
        self.breaches = 0
        self._breached: set[tuple[str, str]] = set()

    def observe_job(
        self,
        cls: str,
        *,
        queue_wait_s: float | None,
        run_s: float | None,
        total_s: float | None,
        failed: bool = False,
        job_id: str | None = None,
    ) -> list[dict[str, Any]]:
        """Fold one terminal job in; returns the per-target evaluations.

        Emits one ``slo.burn_rate`` event per evaluated target on
        ``log`` and an ``slo.breach`` the first time a (class, target)
        pair's burn rate crosses 1.0 (re-armed when it recovers).
        """
        stats = self.classes.get(cls)
        if stats is None:
            stats = self.classes[cls] = ClassStats(cls)
        stats.observe(
            {"queue_wait": queue_wait_s, "run": run_s, "total": total_s},
            failed=failed, targets=self.targets,
        )
        evaluations: list[dict[str, Any]] = []
        for target in self.targets:
            burn = stats.burn_rate(target)
            if burn is None:
                continue
            evaluations.append({
                "job_class": cls,
                "target": target.spec,
                "burn_rate": burn,
                "budget": target.budget,
                "observations": stats.total,
            })
            key = (cls, target.spec)
            breached = burn >= 1.0
            if self.log is not None:
                self.log.emit(
                    "slo.burn_rate",
                    job_class=cls, target=target.spec,
                    burn_rate=round(burn, 4), breached=breached,
                    observations=stats.total,
                )
            if breached and key not in self._breached:
                self._breached.add(key)
                self.breaches += 1
                if self.log is not None:
                    self.log.emit(
                        "slo.breach",
                        job_class=cls, target=target.spec,
                        burn_rate=round(burn, 4),
                        observations=stats.total,
                        job=job_id,
                    )
            elif not breached:
                self._breached.discard(key)
        return evaluations

    # -- reporting -----------------------------------------------------------

    def report(self) -> dict[str, Any]:
        """JSON-ready report: per-class quantiles + per-target burn."""
        classes: dict[str, Any] = {}
        for name in sorted(self.classes):
            stats = self.classes[name]
            classes[name] = {
                "done": stats.done,
                "failed": stats.failed,
                "error_rate": (stats.failed / stats.total
                               if stats.total else None),
                "latency": stats.quantiles(),
                "targets": [
                    {
                        "target": t.spec,
                        "burn_rate": stats.burn_rate(t),
                        "breached": (stats.burn_rate(t) or 0.0) >= 1.0,
                    }
                    for t in self.targets
                ],
            }
        return {
            "targets": [t.spec for t in self.targets],
            "classes": classes,
            "breaches": self.breaches,
        }

    def report_text(self) -> str:
        """Human-readable SLO report table."""
        return render_slo_report(self.report())


def render_slo_report(rep: dict[str, Any]) -> str:
    """Render a :meth:`SLOEngine.report` dict (local or from a live
    daemon's status response) as the ``repro slo`` text table."""
    lines = [f"SLO targets: {', '.join(rep['targets']) or '(none)'}"]
    if not rep["classes"]:
        lines.append("(no terminal jobs observed)")
        return "\n".join(lines)
    header = (f"{'class':<24s} {'jobs':>5s} {'fail':>5s} "
              f"{'metric':<10s} {'p50':>9s} {'p95':>9s} {'p99':>9s}")
    lines.append(header)
    for name, cls in rep["classes"].items():
        first = True
        for metric in LATENCY_METRICS:
            qs = cls["latency"][metric]
            cells = [
                f"{qs[f'p{round(q * 100):d}']:>9.3f}"
                if qs[f"p{round(q * 100):d}"] is not None else f"{'-':>9s}"
                for q in REPORT_QUANTILES
            ]
            prefix = (f"{name:<24s} {cls['done'] + cls['failed']:>5d} "
                      f"{cls['failed']:>5d}" if first
                      else f"{'':<24s} {'':>5s} {'':>5s}")
            lines.append(f"{prefix} {metric:<10s} {' '.join(cells)}")
            first = False
        for target in cls["targets"]:
            burn = target["burn_rate"]
            if burn is None:
                continue
            flag = "  << BREACH" if target["breached"] else ""
            lines.append(
                f"{'':<24s} {'':>5s} {'':>5s} "
                f"{target['target']:<28s} burn={burn:.2f}{flag}")
    lines.append(f"breaches fired: {rep['breaches']}")
    return "\n".join(lines)


def engine_from_telemetry(
    records: Iterable["Event"],
    targets: Iterable[str | SLOTarget] | None = None,
) -> SLOEngine:
    """Replay ``job.done`` / ``job.failed`` telemetry into a fresh engine.

    The offline half of ``repro slo``: the daemon emits terminal job
    records with ``queue_wait_s`` / ``run_s`` / ``total_s`` /
    ``job_class`` fields, and this folds a recorded stream (a serve
    run's ``events.ndjson``, read by
    :func:`~repro.obs.events.events_from_ndjson`) back through the same
    evaluation logic.
    """
    engine = SLOEngine(targets)
    for rec in records:
        fields = rec.fields
        if rec.kind not in ("job.done", "job.failed") or (
            fields.get("job_class") is None
        ):
            continue
        engine.observe_job(
            fields["job_class"],
            queue_wait_s=fields.get("queue_wait_s"),
            run_s=fields.get("run_s"),
            total_s=fields.get("total_s"),
            failed=rec.kind == "job.failed",
            job_id=fields.get("job"),
        )
    return engine
