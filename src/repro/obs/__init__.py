"""repro.obs — observability for the simulated MPI/OpenMP SCF.

Instrumented code needs three handles, and importing this package loads
only the modules that hold them: the hierarchical wall-clock tracer
(:mod:`repro.obs.tracer`), the named-metric registry
(:mod:`repro.obs.metrics`) and the event log (:mod:`repro.obs.events`).
Code reads the process-global instruments through :func:`get_tracer` /
:func:`get_metrics` / :func:`get_event_log`; all three default to
disabled and cost almost nothing until :func:`use_tracer` /
:func:`use_metrics` / :func:`use_event_log` (or a CLI verb) installs
live ones.  Every occurrence is reported once, as an event.

Everything else reads or ships what those instruments record, and is
loaded on first access of one of its names: the flat span record, its
reader, critical path and the one Chrome ``trace_event`` builder
(:mod:`repro.obs.spans`), GAMESS-style text profiles, NDJSON and
Prometheus text (:mod:`repro.obs.export`), incremental NDJSON streaming
(:mod:`repro.obs.stream`), the persistent run registry
(:mod:`repro.obs.registry`) and a run's envelope
(:class:`~repro.obs.session.ObsSession`), the thread-safe bounded event
log a long-lived daemon installs (:mod:`repro.obs.telemetry`), the SLO
report read off a serve run's job records (:mod:`repro.obs.slo`) and
the distributed-trace assembler (:mod:`repro.obs.trace_assembly`).
"""

from importlib import import_module

from repro.obs.events import (
    Event,
    EventLog,
    events_from_ndjson,
    events_ndjson,
    get_event_log,
    set_event_log,
    use_event_log,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Series,
    get_metrics,
    set_metrics,
    use_metrics,
)
from repro.obs.tracer import (
    NULL_TRACER,
    Span,
    TraceContext,
    Tracer,
    format_traceparent,
    get_tracer,
    new_span_id,
    new_trace_id,
    parse_traceparent,
    set_tracer,
    use_tracer,
)

#: Names loaded on first access, by the submodule that defines them.
_LAZY = {
    "export": (
        "metrics_ndjson", "profile_report", "prometheus_text",
        "spans_ndjson", "write_prometheus", "write_text",
    ),
    "registry": ("RunHandle", "RunRegistry", "runs_root"),
    "session": ("ObsSession",),
    "spans": (
        "SpanRecord", "chrome_trace", "spans_from_ndjson", "to_chrome_trace",
        "write_chrome_trace",
    ),
    "slo": (
        "DEFAULT_SLO_TARGETS", "SLOEngine", "SLOTarget",
        "engine_from_telemetry", "render_slo_report",
    ),
    "stream": ("ObsStreamer",),
    "trace_assembly": (
        "AssembledTrace", "TraceAssemblyError", "assemble_job_trace",
        "load_job_journal",
    ),
    "telemetry": ("TelemetryChannel",),
}
_LAZY_NAMES = {name: mod for mod, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    module = _LAZY_NAMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


__all__ = [
    "NULL_TRACER",
    "Counter",
    "Event",
    "EventLog",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Series",
    "Span",
    "TraceContext",
    "Tracer",
    "events_from_ndjson",
    "events_ndjson",
    "format_traceparent",
    "get_event_log",
    "get_metrics",
    "get_tracer",
    "new_span_id",
    "new_trace_id",
    "parse_traceparent",
    "set_event_log",
    "set_metrics",
    "set_tracer",
    "use_event_log",
    "use_metrics",
    "use_tracer",
    *_LAZY_NAMES,
]
