"""Many-molecule throughput pipeline: manifests, batch plans, manager.

The paper benchmarks one big molecule per run; the service north-star
is the opposite regime — heavy traffic of many mixed-size jobs, where
the win comes from *amortization*: jobs sharing a molecule/basis reuse
the worker's warm setup cache and its cross-job ERI quartet pool, so a
bin of N same-system jobs computes its integrals roughly once instead
of N times.  This package turns a manifest of hundreds–thousands of
jobs into an execution plan that maximizes exactly that reuse:

* :mod:`repro.workload.manifest` — NDJSON/TOML manifest parsing into
  validated :class:`~repro.service.jobs.JobSpec` lists, with typed
  :class:`~repro.service.errors.ManifestError` diagnostics;
* :mod:`repro.workload.scheduler` — pluggable :class:`BatchScheduler`
  policies (``fifo`` / ``binned``) producing
  deterministic, starvation-bounded :class:`BatchPlan` objects —
  the batch-level mirror of the per-run task-distribution strategies
  in :mod:`repro.perfsim.workload`;
* :mod:`repro.workload.manager` — :class:`WorkloadManager`: drive a
  plan through a live service fleet and report fleet-level throughput
  (jobs/s, queue-wait p95, cache amortization) as
  ``BENCH_throughput.json`` plus a run-registry record.

Surfaced as ``repro batch <manifest>`` and ``repro serve --manifest``.
"""

from repro.workload.manager import ThroughputReport, WorkloadManager
from repro.workload.manifest import (
    MOLECULES,
    ManifestError,
    load_manifest,
    manifest_fingerprint,
    parse_manifest,
)
from repro.workload.scheduler import (
    BATCH_POLICIES,
    DEFAULT_WINDOW,
    Batch,
    BatchPlan,
    BatchScheduler,
    make_batch_scheduler,
)

__all__ = [
    "BATCH_POLICIES",
    "Batch",
    "BatchPlan",
    "BatchScheduler",
    "DEFAULT_WINDOW",
    "ManifestError",
    "MOLECULES",
    "ThroughputReport",
    "WorkloadManager",
    "load_manifest",
    "make_batch_scheduler",
    "manifest_fingerprint",
    "parse_manifest",
]
