"""repro.obs — observability for the simulated MPI/OpenMP SCF.

The measurement layer the paper's evaluation is built on: hierarchical
wall-clock tracing (:mod:`repro.obs.tracer`), a named-metric registry
(:mod:`repro.obs.metrics`), and exporters for Chrome ``trace_event``
timelines, GAMESS-style text profiles, and NDJSON
(:mod:`repro.obs.export`).

Instrumented code reads the process-global tracer/registry through
:func:`get_tracer` / :func:`get_metrics`; both default to disabled and
cost almost nothing until :func:`use_tracer` / :func:`use_metrics`
(or the ``repro profile`` CLI) installs live ones.

On top of the post-hoc layer sit the *live* pieces: the push-based
telemetry bus (:mod:`repro.obs.telemetry`, installed via
:func:`use_telemetry`), incremental NDJSON streaming
(:mod:`repro.obs.stream`), the ``repro monitor`` dashboard state
(:mod:`repro.obs.monitor`), the persistent run registry
(:mod:`repro.obs.registry`), and a Prometheus text exporter
(:func:`write_prometheus`).
"""

from repro.obs.events import (
    Event,
    EventLog,
    events_from_ndjson,
    events_ndjson,
    get_event_log,
    set_event_log,
    use_event_log,
)
from repro.obs.export import (
    chrome_trace_events,
    event_instants,
    metrics_ndjson,
    profile_report,
    prometheus_text,
    spans_ndjson,
    to_chrome_trace,
    write_chrome_trace,
    write_metrics_ndjson,
    write_prometheus,
    write_spans_ndjson,
    write_text,
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
from repro.obs.registry import RunHandle, RunRegistry, runs_root
from repro.obs.session import ObsSession
from repro.obs.slo import (
    DEFAULT_SLO_TARGETS,
    SLOEngine,
    SLOTarget,
    engine_from_telemetry,
    job_class,
    render_slo_report,
)
from repro.obs.stream import ObsStreamer
from repro.obs.trace_assembly import (
    AssembledTrace,
    TraceAssemblyError,
    assemble_job_trace,
    load_job_journal,
)
from repro.obs.telemetry import (
    NDJSONTelemetrySink,
    TelemetryChannel,
    TelemetryClient,
    TelemetryRecord,
    default_socket_path,
    follow_telemetry,
    get_telemetry,
    records_from_ndjson,
    set_telemetry,
    use_telemetry,
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

__all__ = [
    "NULL_TRACER",
    "AssembledTrace",
    "Counter",
    "DEFAULT_SLO_TARGETS",
    "SLOEngine",
    "SLOTarget",
    "TraceAssemblyError",
    "TraceContext",
    "Event",
    "EventLog",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NDJSONTelemetrySink",
    "ObsSession",
    "ObsStreamer",
    "RunHandle",
    "RunRegistry",
    "Series",
    "Span",
    "TelemetryChannel",
    "TelemetryClient",
    "TelemetryRecord",
    "Tracer",
    "assemble_job_trace",
    "chrome_trace_events",
    "default_socket_path",
    "engine_from_telemetry",
    "event_instants",
    "events_from_ndjson",
    "events_ndjson",
    "follow_telemetry",
    "format_traceparent",
    "get_event_log",
    "get_metrics",
    "get_telemetry",
    "get_tracer",
    "job_class",
    "load_job_journal",
    "metrics_ndjson",
    "new_span_id",
    "new_trace_id",
    "parse_traceparent",
    "profile_report",
    "prometheus_text",
    "records_from_ndjson",
    "render_slo_report",
    "runs_root",
    "set_event_log",
    "set_metrics",
    "set_telemetry",
    "set_tracer",
    "spans_ndjson",
    "to_chrome_trace",
    "use_event_log",
    "use_metrics",
    "use_telemetry",
    "use_tracer",
    "write_chrome_trace",
    "write_metrics_ndjson",
    "write_prometheus",
    "write_spans_ndjson",
    "write_text",
]
