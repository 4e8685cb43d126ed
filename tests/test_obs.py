"""The repro.obs layer: tracer, metrics registry, exporters."""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    MetricsRegistry,
    Tracer,
    get_metrics,
    get_tracer,
    metrics_ndjson,
    profile_report,
    spans_ndjson,
    to_chrome_trace,
    use_metrics,
    use_tracer,
)
from repro.obs.tracer import NULL_TRACER, _NULL_SPAN


class FakeClock:
    """Deterministic clock: each read advances by ``step`` seconds."""

    def __init__(self, step: float = 1.0) -> None:
        self.t = 0.0
        self.step = step

    def __call__(self) -> float:
        self.t += self.step
        return self.t


# -- tracer ------------------------------------------------------------------


def test_span_nesting_and_timing():
    tracer = Tracer(clock=FakeClock())
    with tracer.span("outer", rank=1):
        with tracer.span("inner", thread=2):
            pass
        with tracer.span("inner", thread=3):
            pass
    assert len(tracer.roots) == 1
    outer = tracer.roots[0]
    assert outer.name == "outer"
    assert [c.name for c in outer.children] == ["inner", "inner"]
    # Clock ticks: outer open=1, inner1 2..3, inner2 4..5, outer close=6.
    assert outer.start == 1.0 and outer.end == 6.0
    assert outer.duration == pytest.approx(5.0)
    assert outer.children[0].duration == pytest.approx(1.0)
    # Children lie strictly inside the parent interval.
    for child in outer.children:
        assert outer.start <= child.start <= child.end <= outer.end
    assert outer.depth == 0 and outer.children[0].depth == 1


def test_span_attribute_inheritance():
    tracer = Tracer(clock=FakeClock())
    with tracer.span("a", rank=3):
        with tracer.span("b"):
            with tracer.span("c", thread=1) as c:
                assert c.effective_attr("rank") == 3
                assert c.effective_attr("thread") == 1
                assert c.effective_attr("missing", "dflt") == "dflt"


def test_disabled_tracer_is_noop():
    tracer = Tracer(enabled=False)
    ctx1 = tracer.span("anything", rank=9)
    ctx2 = tracer.span("else")
    assert ctx1 is _NULL_SPAN and ctx2 is _NULL_SPAN  # shared singleton
    with ctx1:
        pass
    assert tracer.roots == [] and tracer.nspans == 0
    assert tracer.total_seconds() == 0.0


def test_global_tracer_install_and_restore():
    assert get_tracer() is NULL_TRACER
    t = Tracer(clock=FakeClock())
    with use_tracer(t):
        assert get_tracer() is t
        with get_tracer().span("x"):
            pass
    assert get_tracer() is NULL_TRACER
    assert [s.name for s in t.walk()] == ["x"]


def test_tracer_clear():
    t = Tracer(clock=FakeClock())
    with t.span("x"):
        pass
    t.clear()
    assert t.roots == [] and t.current is None


# -- metrics -----------------------------------------------------------------


def test_counter_gauge_histogram_series():
    reg = MetricsRegistry()
    reg.counter("c").inc()
    reg.counter("c").inc(4)
    reg.gauge("g").set(2.5)
    h = reg.histogram("h")
    for v in (1.0, 3.0, 2.0):
        h.observe(v)
    s = reg.series("s")
    s.extend([10, 20])
    assert reg.counter("c").value == 5
    assert reg.gauge("g").value == 2.5
    assert h.count == 3 and h.min == 1.0 and h.max == 3.0
    assert h.mean == pytest.approx(2.0)
    assert list(reg.series("s")) == [10, 20]
    assert len(reg) == 4


def test_labelled_metrics_are_distinct():
    reg = MetricsRegistry()
    reg.counter("dlb.grants", rank=0).inc(3)
    reg.counter("dlb.grants", rank=1).inc(7)
    snap = reg.snapshot()
    assert snap["dlb.grants{rank=0}"] == 3
    assert snap["dlb.grants{rank=1}"] == 7


def test_metric_kind_conflict_raises():
    reg = MetricsRegistry()
    reg.counter("x")
    with pytest.raises(TypeError, match="already registered"):
        reg.gauge("x")


def test_global_metrics_install_and_restore():
    assert get_metrics() is None
    reg = MetricsRegistry()
    with use_metrics(reg):
        assert get_metrics() is reg
    assert get_metrics() is None


# -- exporters ---------------------------------------------------------------


@pytest.fixture()
def traced():
    tracer = Tracer(clock=FakeClock(0.5))
    with tracer.span("scf/run", algorithm="shared-fock"):
        with tracer.span("fock/build", rank=0):
            with tracer.span("fock/kl", rank=0, thread=1):
                pass
        with tracer.span("fock/build", rank=1):
            pass
    return tracer


def test_chrome_trace_schema(traced):
    doc = to_chrome_trace(traced)
    text = json.dumps(doc)  # must be JSON-serializable
    assert json.loads(text) == doc
    events = doc["traceEvents"]
    complete = [e for e in events if e["ph"] == "X"]
    meta = [e for e in events if e["ph"] == "M"]
    assert len(complete) == 4
    for e in complete:
        assert {"name", "cat", "ph", "ts", "dur", "pid", "tid", "args"} <= set(e)
        assert e["ts"] >= 0 and e["dur"] >= 0
    # rank -> pid, thread -> tid, inherited down the tree.
    kl = next(e for e in complete if e["name"] == "fock/kl")
    assert kl["pid"] == 0 and kl["tid"] == 1
    build1 = [e for e in complete if e["name"] == "fock/build"]
    assert sorted(e["pid"] for e in build1) == [0, 1]
    # Track-naming metadata for every (pid, tid) used.
    names = {(e["name"], e["pid"], e["tid"]) for e in meta}
    assert ("process_name", 0, 0) in names
    assert ("thread_name", 0, 1) in names


def test_chrome_trace_empty_tracer():
    assert to_chrome_trace(Tracer())["traceEvents"] == []


def test_profile_report_structure(traced):
    report = profile_report(traced, title="test")
    assert "traced total" in report
    assert "scf/run" in report and "fock/kl" in report
    # The root row accounts for 100% of the traced time.
    root_line = next(ln for ln in report.splitlines() if "scf/run" in ln)
    assert "100.0%" in root_line
    # Children are indented under their parent.
    kl_line = next(ln for ln in report.splitlines() if "fock/kl" in ln)
    assert kl_line.startswith("    ")


def test_spans_ndjson(traced):
    lines = spans_ndjson(traced).splitlines()
    assert len(lines) == 4
    recs = [json.loads(ln) for ln in lines]
    assert {r["span"] for r in recs} == {"scf/run", "fock/build", "fock/kl"}
    for r in recs:
        assert r["dur_s"] > 0 and r["start_s"] >= 0


def test_metrics_ndjson_roundtrip():
    reg = MetricsRegistry()
    reg.counter("a", rank=0).inc(2)
    reg.histogram("b").observe(1.5)
    recs = [json.loads(ln) for ln in metrics_ndjson(reg).splitlines()]
    assert recs[0] == {
        "metric": "a", "kind": "counter", "labels": {"rank": 0}, "value": 2,
    }
    assert recs[1]["value"]["count"] == 1


# -- satellite edge cases ----------------------------------------------------


def test_snapshot_sorts_mixed_type_label_values():
    reg = MetricsRegistry()
    reg.counter("dlb.grants", rank=3).inc()
    reg.counter("dlb.grants", rank="io").inc(2)  # str vs int label values
    snap = reg.snapshot()  # must not raise TypeError
    assert list(snap) == ["dlb.grants{rank=3}", "dlb.grants{rank=io}"]
    recs = list(reg.records())
    assert [r["labels"] for r in recs] == [{"rank": 3}, {"rank": "io"}]


def test_histogram_welford_std():
    reg = MetricsRegistry()
    h = reg.histogram("h")
    for v in (2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0):
        h.observe(v)
    assert h.mean == pytest.approx(5.0)
    assert h.variance == pytest.approx(4.0)  # textbook population variance
    assert h.std == pytest.approx(2.0)
    snap = h.snapshot()
    assert snap["std"] == pytest.approx(2.0)
    assert snap["mean"] == pytest.approx(5.0)


def test_histogram_std_empty_and_single():
    reg = MetricsRegistry()
    h = reg.histogram("h")
    assert h.mean == 0.0 and h.variance == 0.0 and h.std == 0.0
    h.observe(3.5)
    assert h.mean == pytest.approx(3.5)
    assert h.std == 0.0


def test_histogram_welford_matches_two_pass():
    import math

    values = [1e9 + i * 0.1 for i in range(100)]  # large offset stresses
    reg = MetricsRegistry()
    h = reg.histogram("h")
    for v in values:
        h.observe(v)
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / len(values)
    assert h.mean == pytest.approx(mean)
    assert h.std == pytest.approx(math.sqrt(var), rel=1e-6)


def test_histogram_snapshot_is_independent_of_observation_order():
    """Integer observations (batch sizes, row counts) give the same
    snapshot bits, mean and std included, in any order."""
    import random

    values = [81, 2349, 96, 300, 1, 17, 1200, 81, 5, 640] * 7
    snaps = []
    for seed in range(5):
        random.Random(seed).shuffle(values)
        h = MetricsRegistry().histogram("h")
        for v in values:
            h.observe(v)
        snaps.append(h.snapshot())
    assert all(snap == snaps[0] for snap in snaps[1:])
    assert snaps[0]["mean"] == sum(values) / len(values)


def test_write_chrome_trace_creates_parent_dirs(tmp_path, traced):
    from repro.obs import write_chrome_trace

    path = tmp_path / "deep" / "nested" / "trace.json"
    out = write_chrome_trace(traced, path)
    assert out == path and path.exists()
    doc = json.loads(path.read_text())
    assert any(e["ph"] == "X" for e in doc["traceEvents"])


def test_write_ndjson_exporters_create_parent_dirs(tmp_path, traced):
    from repro.obs import write_text

    spans_path = write_text(tmp_path / "a" / "spans.ndjson",
                            spans_ndjson(traced))
    assert spans_path.exists()
    assert spans_path.read_text().endswith("\n")
    reg = MetricsRegistry()
    reg.counter("c").inc()
    metrics_path = write_text(tmp_path / "b" / "m.ndjson",
                              metrics_ndjson(reg))
    assert json.loads(metrics_path.read_text())["metric"] == "c"


def test_profile_report_zero_traced_total():
    report = profile_report(Tracer(), title="empty")
    assert "traced total 0.000000 s" in report
    assert "(no completed spans)" in report
    # No ZeroDivisionError, and the header row is still present.
    assert "span" in report.splitlines()[1]


def test_open_spans_are_excluded_from_exports():
    tracer = Tracer(clock=FakeClock())
    with tracer.span("done"):
        pass
    ctx = tracer.span("still-open")
    ctx.__enter__()  # never closed
    assert [e["name"] for e in to_chrome_trace(tracer)["traceEvents"]
            if e["ph"] == "X"] == ["done"]
    recs = [json.loads(ln) for ln in spans_ndjson(tracer).splitlines()]
    assert [r["span"] for r in recs] == ["done"]


def test_chrome_trace_mixed_type_attrs_json_safe():
    from pathlib import PurePosixPath

    tracer = Tracer(clock=FakeClock())
    with tracer.span("s", path=PurePosixPath("/x/y"), n=3, flag=True):
        pass
    doc = to_chrome_trace(tracer)
    args = next(e for e in doc["traceEvents"] if e["ph"] == "X")["args"]
    assert args == {"path": "/x/y", "n": 3, "flag": True}
    json.dumps(doc)  # round-trippable


def test_chrome_trace_event_overlay():
    from repro.obs import EventLog, to_chrome_trace

    clock = FakeClock()
    tracer = Tracer(clock=clock)
    log = EventLog(clock=clock)  # shared clock = shared time base
    with tracer.span("scf/run", rank=0):
        log.emit("fault.kill", rank=1, cycle=2)
    doc = to_chrome_trace(tracer, events=log)
    instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
    assert len(instants) == 1
    inst = instants[0]
    assert inst["name"] == "fault.kill" and inst["pid"] == 1
    assert inst["s"] == "p"  # rank-scoped
    assert inst["ts"] == pytest.approx(1e6)  # 1 tick after span start


# -- histogram buckets + quantiles -------------------------------------------


def test_histogram_bucket_counts_and_cumulative():
    import math

    from repro.obs.metrics import Histogram

    h = Histogram("h", (), buckets=(1.0, 5.0, 10.0))
    for v in (0.5, 0.9, 3.0, 7.0, 100.0):
        h.observe(v)
    cum = h.cumulative_buckets()
    assert cum == [(1.0, 2), (5.0, 3), (10.0, 4), (math.inf, 5)]
    # Boundary values land in their own (le-inclusive) bucket.
    h2 = Histogram("h2", (), buckets=(1.0, 5.0))
    h2.observe(1.0)
    assert h2.cumulative_buckets()[0] == (1.0, 1)


def test_histogram_quantile_interpolation():
    from repro.obs.metrics import Histogram

    h = Histogram("h", (), buckets=(1.0, 2.0, 4.0, 8.0))
    for v in (0.5, 1.5, 1.5, 3.0):
        h.observe(v)
    assert h.quantile(0.0) is not None
    # p50 falls inside the (1, 2] bucket; interpolated, clamped sane.
    assert 1.0 <= h.quantile(0.5) <= 2.0
    assert h.quantile(1.0) == pytest.approx(3.0)  # clamped to observed max
    assert Histogram("e", (), buckets=(1.0,)).quantile(0.5) is None  # empty


def test_histogram_quantile_clamps_to_observed_range():
    from repro.obs.metrics import Histogram

    h = Histogram("h", (), buckets=(10.0, 100.0))
    h.observe(2.0)
    h.observe(3.0)
    # Both fall in (0, 10]; interpolation must not dip below min=2.
    assert h.quantile(0.01) >= 2.0
    assert h.quantile(0.99) <= 3.0


def test_histogram_snapshot_includes_buckets():
    from repro.obs.metrics import Histogram

    h = Histogram("h", (), buckets=(1.0, 5.0))
    h.observe(0.5)
    snap = h.snapshot()
    assert snap["buckets"] == [[1.0, 1], [5.0, 1], ["+Inf", 1]]
    json.dumps(snap)


def test_registry_histogram_buckets_once():
    reg = MetricsRegistry()
    h = reg.histogram("h", buckets=(1.0, 2.0))
    h.observe(1.5)
    again = reg.histogram("h", buckets=(9.0,))  # ignored once populated
    assert again is h
    assert [le for le, _ in h.cumulative_buckets()][:2] == [1.0, 2.0]


def test_prometheus_histogram_bucket_export():
    from repro.obs import prometheus_text

    reg = MetricsRegistry()
    h = reg.histogram("repro_lat", buckets=(0.1, 1.0), job="a")
    for v in (0.05, 0.5, 2.0):
        h.observe(v)
    text = prometheus_text(reg)
    assert '# TYPE repro_lat histogram' in text
    assert 'repro_lat_bucket{job="a",le="0.1"} 1' in text
    assert 'repro_lat_bucket{job="a",le="1"} 2' in text
    assert 'repro_lat_bucket{job="a",le="+Inf"} 3' in text
    assert 'repro_lat_count{job="a"} 3' in text
    assert 'repro_lat_sum{job="a"} 2.55' in text


# -- W3C trace context --------------------------------------------------------


def test_traceparent_roundtrip():
    from repro.obs.tracer import (
        TraceContext,
        format_traceparent,
        new_span_id,
        new_trace_id,
        parse_traceparent,
    )

    ctx = TraceContext(new_trace_id(), new_span_id())
    header = format_traceparent(ctx)
    assert header == f"00-{ctx.trace_id}-{ctx.span_id}-01"
    parsed = parse_traceparent(header)
    assert parsed is not None
    assert parsed.trace_id == ctx.trace_id
    assert parsed.span_id == ctx.span_id


def test_trace_ids_are_w3c_and_drawn_again_on_zero(monkeypatch):
    """32 lowercase hex chars from the kernel source; an all-zero draw
    (which ``parse_traceparent`` would reject) is thrown away."""
    import os

    from repro.obs import tracer
    from repro.obs.tracer import (
        TraceContext,
        format_traceparent,
        parse_traceparent,
    )

    real = os.urandom
    draws = []

    def urandom(n):
        draws.append(n)
        return bytes(n) if len(draws) == 1 else real(n)

    monkeypatch.setattr(tracer.os, "urandom", urandom)
    trace_id = tracer.new_trace_id()
    assert draws == [16, 16]
    assert len(trace_id) == 32 and set(trace_id) <= set("0123456789abcdef")
    assert set(trace_id) != {"0"}
    header = format_traceparent(TraceContext(trace_id, tracer.new_span_id()))
    assert parse_traceparent(header) is not None


@pytest.mark.parametrize("bad", [
    "",
    "junk",
    "01-" + "a" * 32 + "-" + "b" * 16 + "-01",  # wrong version
    "00-" + "a" * 31 + "-" + "b" * 16 + "-01",  # short trace id
    "00-" + "a" * 32 + "-" + "b" * 15 + "-01",  # short span id
    "00-" + "g" * 32 + "-" + "b" * 16 + "-01",  # non-hex
    "00-" + "0" * 32 + "-" + "0" * 16 + "-01",  # all-zero ids
    "00-" + "a" * 32 + "-" + "b" * 16,          # missing flags
])
def test_traceparent_malformed(bad):
    from repro.obs.tracer import parse_traceparent

    assert parse_traceparent(bad) is None


def test_context_tracer_stamps_spans():
    from repro.obs.tracer import TraceContext

    ctx = TraceContext("a" * 32, "b" * 16)
    tracer = Tracer(clock=FakeClock(), context=ctx)
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    outer = tracer.roots[0]
    inner = outer.children[0]
    assert outer.trace_id == ctx.trace_id
    assert outer.parent_span_id == ctx.span_id  # roots hang off the ctx
    assert inner.trace_id == ctx.trace_id
    assert inner.parent_span_id == outer.span_id
    assert len({outer.span_id, inner.span_id}) == 2


def test_contextless_tracer_spans_have_no_trace_fields():
    from repro.obs.export import span_record

    tracer = Tracer(clock=FakeClock())
    with tracer.span("x"):
        pass
    s = tracer.roots[0]
    assert s.trace_id is None
    rec = span_record(s)
    assert "trace_id" not in rec and "span_id" not in rec


# -- log correlation ----------------------------------------------------------


def test_correlation_filter_stamps_records():
    import logging

    from repro.obs.logctl import (
        CorrelationFilter,
        set_log_context,
    )

    filt = CorrelationFilter()
    rec = logging.LogRecord("n", logging.INFO, "p", 1, "msg", (), None)
    set_log_context(run_id=None, job_id=None, trace_id=None)
    try:
        filt.filter(rec)
        assert rec.corr == ""  # nothing set: format stays clean

        set_log_context(run_id="r1", job_id="j000001", trace_id="t" * 32)
        rec2 = logging.LogRecord("n", logging.INFO, "p", 1, "msg", (), None)
        filt.filter(rec2)
        assert rec2.run_id == "r1"
        assert rec2.job_id == "j000001"
        assert "run=r1" in rec2.corr
        assert "job=j000001" in rec2.corr
        assert "trace=" in rec2.corr

        # Partial update: only the passed keys change; None clears.
        set_log_context(job_id=None)
        rec3 = logging.LogRecord("n", logging.INFO, "p", 1, "msg", (), None)
        filt.filter(rec3)
        assert "job=" not in rec3.corr and "run=r1" in rec3.corr
    finally:
        set_log_context(run_id=None, job_id=None, trace_id=None)


def test_log_context_isolated_per_thread():
    import threading

    from repro.obs.logctl import log_context, set_log_context

    set_log_context(run_id=None, job_id=None, trace_id=None)
    try:
        set_log_context(job_id="main-job")
        seen = {}

        def worker():
            seen["before"] = log_context().get("job_id")
            set_log_context(job_id="worker-job")
            seen["after"] = log_context().get("job_id")

        t = threading.Thread(target=worker)
        t.start()
        t.join()
        assert seen["after"] == "worker-job"
        assert log_context()["job_id"] == "main-job"  # unpolluted
    finally:
        set_log_context(run_id=None, job_id=None, trace_id=None)


def test_span_ids_are_w3c_and_unique_per_process():
    import os

    from repro.obs.tracer import new_span_id

    ids = [new_span_id() for _ in range(5000)]
    assert len(set(ids)) == len(ids)
    for span_id in ids[:50]:
        assert len(span_id) == 16 and set(span_id) <= set("0123456789abcdef")
        assert set(span_id) != {"0"}
        assert 0 < int(span_id[:8], 16) < 0x80000000  # random 31-bit prefix
    # A forked child mints from a prefix of its own, not its parent's.
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # pragma: no cover - child
        os.write(write, new_span_id().encode())
        os._exit(0)
    os.close(write)
    child = os.read(read, 16).decode()
    os.close(read)
    os.waitpid(pid, 0)
    assert len(child) == 16 and child[:8] != ids[-1][:8]
    assert child not in ids
