"""WorkloadManager: drive a batch plan through a live service fleet.

The manager owns the *client side* of a batch run: plan the manifest
with a :class:`~repro.workload.scheduler.BatchScheduler`, submit the
jobs in plan order (the durable queue dispatches FIFO over submission
order, so plan order *is* execution order), follow the fleet via bulk
status requests the daemon holds until the jobs settle, and distil the
finished run into a
:class:`ThroughputReport` — per-job records plus the fleet-level
figures the paper's scaling story is judged by: jobs/s, queue-wait
p95, and the cache amortization the batch plan existed to create.

The report lands in three places: ``BENCH_throughput.json`` (the
``repro compare``-gated benchmark artifact), the PR-6 run registry
(kind ``batch``), and the returned object for the CLI to render.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

from repro.service.client import JobClient, long_poll_s
from repro.service.errors import ServiceOverloaded
from repro.service.jobs import TERMINAL_STATES, JobSpec
from repro.workload.scheduler import (
    PLAN_SEED,
    BatchPlan,
    make_batch_scheduler,
)

#: Between bulk status polls while following a daemon that predates
#: ``wait_s`` (a current one holds each request until the jobs settle).
DEFAULT_POLL_S = 0.2

#: Backoff while the admission bound sheds our submissions.
_OVERLOAD_RETRY_S = 0.2


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (no numpy needed for a report)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1,
                      int(round(q / 100.0 * (len(ordered) - 1)))))
    return ordered[rank]


@dataclass
class ThroughputReport:
    """Everything a finished batch run produced, JSON-serializable."""

    plan: BatchPlan
    manifest_path: str | None
    jobs: list[dict[str, Any]]  # per-job records, plan order
    wall_s: float
    submit_wall_s: float
    metrics: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.metrics:
            self.metrics = self._compute_metrics()

    def _compute_metrics(self) -> dict[str, Any]:
        done = [j for j in self.jobs if j["state"] == "done"]
        waits = [j["queue_wait_s"] for j in done
                 if j.get("queue_wait_s") is not None]
        runs = [j["run_s"] for j in done if j.get("run_s") is not None]
        warm = sum(1 for j in done if j.get("warm_setup"))
        cold = len(done) - warm
        eri_hits = sum(j.get("eri_cache_hits") or 0 for j in done)
        eri_misses = sum(j.get("eri_cache_misses") or 0 for j in done)
        jobs_per_s = (len(done) / self.wall_s) if self.wall_s > 0 else 0.0
        return {
            "jobs_total": len(self.jobs),
            "jobs_done": len(done),
            "jobs_failed": sum(1 for j in self.jobs
                               if j["state"] == "failed"),
            "n_batches": len(self.plan.batches),
            "wall_s": self.wall_s,
            "submit_wall_s": self.submit_wall_s,
            "jobs_per_s": jobs_per_s,
            "queue_wait_p50_s": _percentile(waits, 50.0),
            "queue_wait_p95_s": _percentile(waits, 95.0),
            "run_total_s": sum(runs),
            "warm_setups": warm,
            "cold_setups": cold,
            # Jobs served per expensive (cold) setup: 1.0 means every
            # job paid full price; N same-system jobs batched together
            # push it toward N.  The headline amortization figure.
            "cache_amortization_ratio": (len(done) / cold if cold
                                         else float(len(done))),
            "eri_cache_hits": eri_hits,
            "eri_cache_misses": eri_misses,
            "eri_cache_hit_rate": (eri_hits / (eri_hits + eri_misses)
                                   if (eri_hits + eri_misses) else 0.0),
        }

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": "batch-throughput",
            "manifest": self.manifest_path,
            "policy": self.plan.policy,
            "seed": PLAN_SEED,
            "window": self.plan.window,
            "plan_fingerprint": self.plan.fingerprint,
            "metrics": self.metrics,
            "jobs": self.jobs,
        }

    def write(self, path: str | Path) -> Path:
        """Write ``BENCH_throughput.json``-style output."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2,
                                   sort_keys=True) + "\n",
                        encoding="utf-8")
        return path


def _job_record(job: dict[str, Any], *, index: int, key: str,
                batch: int) -> dict[str, Any]:
    """Distil one terminal public job dict into a per-job report row."""
    result = job.get("result") or {}
    return {
        "manifest_index": index,
        "batch": batch,
        "setup_key": key,
        "id": job["id"],
        "tag": job.get("tag"),
        "state": job["state"],
        "attempt": job.get("attempt"),
        "error_type": job.get("error_type"),
        "energy": result.get("energy"),
        "iterations": result.get("iterations"),
        "converged": result.get("converged"),
        "warm_setup": result.get("warm_setup"),
        "eri_cache_preloaded": result.get("eri_cache_preloaded"),
        "eri_cache_hits": result.get("eri_cache_hits"),
        "eri_cache_misses": result.get("eri_cache_misses"),
        "queue_wait_s": result.get("queue_wait_s"),
        "run_s": result.get("run_s"),
        "total_s": result.get("total_s"),
        "run_id": job.get("run_id"),
        "trace_id": job.get("trace_id"),
    }


class WorkloadManager:
    """Plan a manifest, run it through the fleet, report throughput."""

    def __init__(
        self,
        client: JobClient,
        *,
        policy: str = "binned",
        window: int | None = None,
        poll_s: float = DEFAULT_POLL_S,
        registry: Any | None = None,
    ) -> None:
        self.client = client
        self.scheduler = make_batch_scheduler(policy, window=window)
        self.poll_s = poll_s
        self.registry = registry

    # -- planning -------------------------------------------------------------

    def plan(self, specs: Sequence[JobSpec]) -> BatchPlan:
        return self.scheduler.plan(specs)

    # -- submission -----------------------------------------------------------

    def submit_plan(self, specs: Sequence[JobSpec], plan: BatchPlan,
                    *, timeout_s: float = 600.0) -> list[str]:
        """Submit every job in plan order; returns job ids, plan order.

        :class:`~repro.service.errors.ServiceOverloaded` rejections are
        retried with a fixed backoff until ``timeout_s`` — admission
        control pushing back on a big manifest is flow control, not
        failure.  Order is preserved: a shed job is resubmitted before
        any later job, so the FIFO queue still sees plan order.
        """
        deadline = time.monotonic() + timeout_s
        ids: list[str] = []
        for index in plan.order:
            while True:
                try:
                    ids.append(self.client.submit(specs[index])["id"])
                    break
                except ServiceOverloaded:
                    if time.monotonic() > deadline:
                        raise
                    time.sleep(_OVERLOAD_RETRY_S)
        return ids

    # -- following ------------------------------------------------------------

    def follow(self, job_ids: Sequence[str], *,
               timeout_s: float = 600.0) -> dict[str, dict[str, Any]]:
        """Wait until every job is terminal; id -> record.

        Each bulk ``status`` request names the jobs and carries a
        ``wait_s`` the daemon holds it open for; ``poll_s`` paces the
        requests only against a daemon that ignores the field.
        """
        want = set(job_ids)
        deadline = time.monotonic() + timeout_s
        while True:
            listing = self.client.request(
                "status", ids=list(job_ids),
                wait_s=long_poll_s(deadline - time.monotonic(),
                                   self.client.timeout_s),
            )
            seen = {j["id"]: j for j in listing.get("jobs", [])
                    if j["id"] in want}
            if (len(seen) == len(want)
                    and all(j["state"] in TERMINAL_STATES
                            for j in seen.values())):
                return seen
            if time.monotonic() > deadline:
                pending = sorted(
                    want - {i for i, j in seen.items()
                            if j["state"] in TERMINAL_STATES})
                raise TimeoutError(
                    f"{len(pending)} batch job(s) not terminal after "
                    f"{timeout_s:g}s: {', '.join(pending[:5])}"
                )
            if not listing.get("waited"):
                time.sleep(self.poll_s)

    # -- the whole pipeline ---------------------------------------------------

    def run(self, specs: Sequence[JobSpec], *,
            manifest_path: str | None = None,
            timeout_s: float = 600.0,
            output: str | Path | None = None) -> ThroughputReport:
        """Plan, submit, follow, and report one manifest."""
        specs = list(specs)
        plan = self.plan(specs)
        started = time.perf_counter()
        ids = self.submit_plan(specs, plan, timeout_s=timeout_s)
        submit_wall = time.perf_counter() - started
        records = self.follow(ids, timeout_s=timeout_s)
        wall = time.perf_counter() - started

        index_to_batch = {}
        for b, batch in enumerate(plan.batches):
            for i in batch.jobs:
                index_to_batch[i] = b
        jobs = [
            _job_record(records[job_id], index=index,
                        key=specs[index].setup_key(),
                        batch=index_to_batch[index])
            for index, job_id in zip(plan.order, ids)
        ]
        report = ThroughputReport(plan=plan, manifest_path=manifest_path,
                                  jobs=jobs, wall_s=wall,
                                  submit_wall_s=submit_wall)
        if output is not None:
            report.write(output)
        self._register(report)
        return report

    def _register(self, report: ThroughputReport) -> None:
        """Record the batch run in the PR-6 registry, when given one."""
        if self.registry is None:
            return
        handle = self.registry.register(
            "batch",
            config={
                "manifest": report.manifest_path,
                "policy": report.plan.policy,
                "window": report.plan.window,
                "plan_fingerprint": report.plan.fingerprint,
                "n_jobs": len(report.jobs),
                "n_batches": len(report.plan.batches),
            },
        )
        m = report.metrics
        failed = m["jobs_failed"]
        handle.finalize(
            status="completed" if not failed else "failed",
            metrics={k: v for k, v in m.items()
                     if isinstance(v, (int, float))},
            summary={
                "policy": report.plan.policy,
                "jobs_done": m["jobs_done"],
                "jobs_total": m["jobs_total"],
                "wall_s": m["wall_s"],
                "jobs_per_s": m["jobs_per_s"],
                "cache_amortization_ratio":
                    m["cache_amortization_ratio"],
            },
        )
