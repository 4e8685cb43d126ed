"""Writers: text profile, NDJSON, Prometheus text.

The views of one traced run other than its Chrome trace (that one is
:func:`repro.obs.spans.chrome_trace`):

* :func:`profile_report` — a GAMESS-style hierarchical percentage
  breakdown of where the wall time went.
* :func:`spans_ndjson` / :func:`metrics_ndjson` — newline-delimited
  JSON for the benchmark trajectory tooling; ``json.dumps`` of
  :func:`span_record` is the one span line format, the streamed files
  of :mod:`repro.obs.stream` included.
* :func:`prometheus_text` — the metrics registry for external scrapers.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Any, Iterable

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Span, Tracer


def write_text(path: str | Path, text: str) -> Path:
    """Write ``text`` to ``path``, creating parent directories first.

    The common exit of every exporter: a trailing newline is ensured so
    NDJSON files concatenate cleanly.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text if text.endswith("\n") or not text else text + "\n")
    return path


def _json_safe(value: Any) -> Any:
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return str(value)


# -- text profile ------------------------------------------------------------


class _ProfileNode:
    __slots__ = ("name", "calls", "total", "children")

    def __init__(self, name: str) -> None:
        self.name = name
        self.calls = 0
        self.total = 0.0
        self.children: dict[str, _ProfileNode] = {}

    def child(self, name: str) -> "_ProfileNode":
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = _ProfileNode(name)
        return node

    @property
    def self_seconds(self) -> float:
        return self.total - sum(c.total for c in self.children.values())


def _aggregate(spans: list[Span], node: _ProfileNode) -> None:
    for s in spans:
        if s.end is None:
            continue
        child = node.child(s.name)
        child.calls += 1
        child.total += s.duration
        _aggregate(s.children, child)


def profile_report(tracer: Tracer, *, title: str = "profile") -> str:
    """Hierarchical percentage breakdown of the traced wall time.

    Spans are aggregated by their position in the call tree (same name
    under the same parent chain = one row); percentages are of the
    total traced time, GAMESS timing-summary style.
    """
    root = _ProfileNode("")
    _aggregate(tracer.roots, root)
    total = tracer.total_seconds()
    lines = [
        f"{title} — traced total {total:.6f} s",
        f"{'span':<44s} {'calls':>7s} {'total(s)':>10s} "
        f"{'self(s)':>10s} {'%total':>7s}",
    ]
    if not root.children:
        lines.append("(no completed spans)")
        return "\n".join(lines)

    def emit(node: _ProfileNode, depth: int) -> None:
        pct = 100.0 * node.total / total if total > 0 else 0.0
        label = "  " * depth + node.name
        lines.append(
            f"{label:<44s} {node.calls:>7d} {node.total:>10.6f} "
            f"{node.self_seconds:>10.6f} {pct:>6.1f}%"
        )
        for child in sorted(
            node.children.values(), key=lambda c: -c.total
        ):
            emit(child, depth + 1)

    for top in sorted(root.children.values(), key=lambda c: -c.total):
        emit(top, 0)
    return "\n".join(lines)


# -- NDJSON ------------------------------------------------------------------


def span_record(s: Span, t0: float = 0.0) -> dict[str, Any]:
    """The JSON-ready dict for one completed span (the NDJSON unit).

    Shared by the batch exporter below and the incremental writers of
    :mod:`repro.obs.stream`, so streamed and batch files are
    byte-compatible.  Spans recorded under a
    :class:`~repro.obs.tracer.TraceContext` additionally carry their
    W3C ``trace_id``/``span_id``/``parent_span_id`` (absent otherwise,
    keeping pre-trace files unchanged).
    """
    rec = {
        "span": s.name,
        "start_s": s.start - t0,
        "dur_s": s.duration,
        "depth": s.depth,
        "rank": _json_safe(s.effective_attr("rank", 0)),
        "thread": _json_safe(s.effective_attr("thread", 0)),
        "attrs": {k: _json_safe(v) for k, v in s.attrs.items()},
    }
    if s.trace_id is not None:
        rec["trace_id"] = s.trace_id
        rec["span_id"] = s.span_id
        rec["parent_span_id"] = s.parent_span_id
    return rec


def spans_ndjson(tracer: Tracer, *, t0: float | None = None) -> str:
    """One JSON line per completed span (name, start, dur, depth, attrs).

    ``t0`` pins the zero of the relative timestamps; it defaults to the
    earliest recorded span.  The real-process backend passes one shared
    ``perf_counter`` reading to every worker (the clock is
    ``CLOCK_MONOTONIC``, common across processes on one host), so the
    per-worker dumps land on a single merged timeline.
    """
    spans = [s for s in tracer.walk() if s.end is not None]
    if t0 is None:
        t0 = min((s.start for s in spans), default=0.0)
    return "\n".join(json.dumps(span_record(s, t0)) for s in spans)


def metrics_ndjson(registry: MetricsRegistry) -> str:
    """One JSON line per metric in the registry, key-sorted."""
    return "\n".join(json.dumps(rec) for rec in registry.records())


# -- Prometheus text exposition ----------------------------------------------

_PROM_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")
_PROM_LABEL_RE = re.compile(r"[^a-zA-Z0-9_]")


def _prom_name(name: str) -> str:
    """Sanitize a dotted metric name into a Prometheus metric name."""
    out = _PROM_NAME_RE.sub("_", name)
    if out and out[0].isdigit():
        out = "_" + out
    return out


def _prom_labels(labels: Iterable[tuple[str, Any]]) -> str:
    pairs = [
        f'{_PROM_LABEL_RE.sub("_", str(k))}="{v}"' for k, v in labels
    ]
    return "{" + ",".join(pairs) + "}" if pairs else ""


def prometheus_text(registry: MetricsRegistry) -> str:
    """Prometheus text-format exposition of a metrics registry.

    Counters and gauges map directly; histograms expand to a proper
    Prometheus histogram family — cumulative ``<name>_bucket{le="…"}``
    lines (``+Inf`` last) plus ``<name>_count`` and ``<name>_sum`` —
    with ``_min`` / ``_max`` / ``_mean`` / ``_std`` kept as companion
    gauges; series become one gauge per element with an ``idx`` label.
    ``None`` values (unset gauges, empty histograms) are skipped.  The
    output is key-sorted and deterministic, so external scrapers
    consume exactly the registry the dashboard and the NDJSON exporter
    read.
    """
    by_family: dict[str, tuple[str, list[str]]] = {}

    def add(family: str, prom_kind: str, line: str) -> None:
        kind, lines = by_family.setdefault(family, (prom_kind, []))
        lines.append(line)

    for rec in registry.records():
        name = _prom_name(rec["metric"])
        labels = sorted(rec["labels"].items())
        kind = rec["kind"]
        value = rec["value"]
        if kind in ("counter", "gauge"):
            if value is None:
                continue
            suffix = "_total" if kind == "counter" else ""
            prom_kind = "counter" if kind == "counter" else "gauge"
            add(
                name + suffix, prom_kind,
                f"{name}{suffix}{_prom_labels(labels)} {float(value):g}",
            )
        elif kind == "histogram":
            for le, cum in value.get("buckets") or []:
                le_str = "+Inf" if le == "+Inf" else f"{float(le):g}"
                add(
                    name, "histogram",
                    f"{name}_bucket"
                    f"{_prom_labels(labels + [('le', le_str)])} {cum:d}",
                )
            add(
                name, "histogram",
                f"{name}_count{_prom_labels(labels)} {value['count']:d}",
            )
            add(
                name, "histogram",
                f"{name}_sum{_prom_labels(labels)} {float(value['sum']):g}",
            )
            for stat in ("min", "max", "mean", "std"):
                v = value.get(stat)
                if v is None:
                    continue
                add(
                    f"{name}_{stat}", "gauge",
                    f"{name}_{stat}{_prom_labels(labels)} {float(v):g}",
                )
        elif kind == "series":
            for i, v in enumerate(value):
                if not isinstance(v, (int, float)) or isinstance(v, bool):
                    continue
                add(
                    name, "gauge",
                    f"{name}{_prom_labels(labels + [('idx', i)])} "
                    f"{float(v):g}",
                )
    lines: list[str] = []
    for family in sorted(by_family):
        prom_kind, samples = by_family[family]
        lines.append(f"# TYPE {family} {prom_kind}")
        lines.extend(samples)
    return "\n".join(lines)


def write_prometheus(registry: MetricsRegistry, path: str | Path) -> Path:
    """Write :func:`prometheus_text` to ``path`` (parent dirs created)."""
    return write_text(path, prometheus_text(registry))
