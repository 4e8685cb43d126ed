"""repro.obs.analysis — turn raw telemetry into the paper's analyses.

PR 1's observability layer *exports* spans and metrics; this package
*consumes* them:

* :mod:`repro.obs.analysis.timeline` — per-rank/per-thread
  busy/idle/wait breakdowns, DLB-grant Gantt, critical path and
  load-imbalance decomposition (the paper's Figures 3–6 discussion,
  from the span records of :mod:`repro.obs.spans`).
* :mod:`repro.obs.analysis.compare` — a diff engine over benchmark
  records and NDJSON metric dumps with configurable noise tolerance;
  the ``repro compare`` CLI and the CI ``bench-regress`` gate sit on
  top of it.
"""

from repro.obs.analysis.compare import (
    KeyDelta,
    RunComparison,
    RunRecord,
    compare_runs,
    flatten_record,
    load_run,
)
from repro.obs.analysis.timeline import (
    RankBreakdown,
    ThreadBreakdown,
    TimelineAnalysis,
    analyze_timeline,
    analyze_tracer,
    ascii_gantt,
    timeline_report,
)

__all__ = [
    "KeyDelta",
    "RankBreakdown",
    "RunComparison",
    "RunRecord",
    "ThreadBreakdown",
    "TimelineAnalysis",
    "analyze_timeline",
    "analyze_tracer",
    "ascii_gantt",
    "compare_runs",
    "flatten_record",
    "load_run",
    "timeline_report",
]
