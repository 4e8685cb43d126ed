"""Timeline analytics (repro.obs.timeline)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.obs import EventLog, Tracer, events_from_ndjson, spans_ndjson
from repro.obs.timeline import (
    analyze_timeline,
    ascii_gantt,
    merge_intervals,
    timeline_report,
    union_seconds,
)
from repro.obs.spans import (
    critical_path,
    merged_chrome_trace,
    spans_from_ndjson,
    spans_from_tracer,
)

GOLDEN = Path(__file__).parent / "golden"


class FakeClock:
    """Deterministic clock: each read advances by ``step`` seconds."""

    def __init__(self, step: float = 1.0) -> None:
        self.t = 0.0
        self.step = step

    def __call__(self) -> float:
        self.t += self.step
        return self.t


def span(name, start, end, *, depth=0, rank=0, thread=None, attrs=None):
    """One id-less ``spans.ndjson`` line, as ``repro profile`` writes."""
    rec = {"span": name, "start_s": start, "dur_s": end - start,
           "depth": depth, "rank": rank, "attrs": attrs or {}}
    if thread is not None:
        rec["thread"] = thread
    return json.dumps(rec)


def records(*lines):
    """Span records read back (parent links derived from depth)."""
    return spans_from_ndjson("\n".join(lines))


@pytest.fixture()
def two_rank_spans():
    """A hand-built two-rank trace with nested work and wait spans."""
    return records(
        span("scf/run", 0.0, 10.0, depth=0, rank=0),
        # rank 0: work [1, 4) with a nested batch [2, 3) — must not
        # double count — then wait [4, 5).
        span("fock/kl", 1.0, 4.0, depth=1, rank=0, thread=0),
        span("eri/quartet_batch", 2.0, 3.0, depth=2, rank=0, thread=0),
        span("fock/gsumf", 4.0, 5.0, depth=1, rank=0),
        # rank 1: work [1, 3) and [5, 9) -> busy 6s, no waits.
        span("fock/kl", 1.0, 3.0, depth=1, rank=1, thread=0),
        span("fock/kl", 5.0, 9.0, depth=1, rank=1, thread=1),
    )


# -- interval arithmetic -----------------------------------------------------


def test_merge_intervals_unions_overlaps():
    merged = merge_intervals([(1, 4), (2, 3), (5, 6), (6, 7), (9, 9)])
    assert merged == [(1, 4), (5, 7)]
    assert union_seconds([(1, 4), (2, 3)]) == pytest.approx(3.0)
    assert union_seconds([]) == 0.0


# -- breakdowns --------------------------------------------------------------


def test_rank_breakdown_no_double_counting(two_rank_spans):
    analysis = analyze_timeline(two_rank_spans)
    r0, r1 = analysis.ranks
    # Nested eri/quartet_batch inside fock/kl counts once: busy = 3 s.
    assert r0.rank == 0
    assert r0.busy_s == pytest.approx(3.0)
    assert r0.wait_s == pytest.approx(1.0)
    # Window [0, 10) minus 4 s covered -> 6 s idle (scf/run is neither).
    assert r0.active_s == pytest.approx(10.0)
    assert r0.idle_s == pytest.approx(6.0)
    assert r0.busy_fraction == pytest.approx(0.3)
    assert r1.busy_s == pytest.approx(6.0)
    assert r1.wait_s == 0.0
    assert r1.active_s == pytest.approx(8.0)  # window [1, 9)


def test_imbalance_and_dlb_efficiency(two_rank_spans):
    analysis = analyze_timeline(two_rank_spans)
    # busy = [3, 6]: mean 4.5, max 6.
    assert analysis.rank_imbalance == pytest.approx(6 / 4.5)
    assert analysis.dlb_efficiency == pytest.approx(4.5 / 6)
    assert analysis.imbalance_loss_s == pytest.approx(1.5)


def test_thread_breakdown(two_rank_spans):
    analysis = analyze_timeline(two_rank_spans)
    lanes = {(t.rank, t.thread): t.busy_s for t in analysis.threads}
    assert lanes == {
        (0, 0): pytest.approx(3.0),
        (1, 0): pytest.approx(2.0),
        (1, 1): pytest.approx(4.0),
    }
    # max 4 / mean 3
    assert analysis.thread_imbalance == pytest.approx(4 / 3)


def test_empty_timeline():
    analysis = analyze_timeline([])
    assert analysis.nspans == 0
    assert analysis.ranks == [] and analysis.threads == []
    assert analysis.rank_imbalance == 1.0
    assert analysis.dlb_efficiency == 1.0
    assert ascii_gantt(analysis) == "(no timeline data)"
    assert "0 spans" in timeline_report(analysis)


def test_timestamps_are_renormalized():
    shifted = records(span("fock/kl", 100.0, 103.0, rank=0))
    analysis = analyze_timeline(shifted)
    assert analysis.t_end == pytest.approx(3.0)
    assert analysis.ranks[0].first == pytest.approx(0.0)


# -- critical path -----------------------------------------------------------


def test_critical_path_descends_longest_children(two_rank_spans):
    path = critical_path(two_rank_spans)
    # Root scf/run -> its longest direct child: rank 1's 4 s fock/kl.
    assert [(r.name, r.rank) for r, _ in path] == [
        ("scf/run", 0), ("fock/kl", 1),
    ]
    root, root_self = path[0]
    assert root.duration == pytest.approx(10.0)
    # self = 10 - (3 + 1 + 2 + 4) direct children.
    assert root_self == pytest.approx(0.0)
    kl, kl_self = path[1]
    assert kl.duration == pytest.approx(4.0)
    assert kl_self == pytest.approx(4.0)
    # The analysis reports the same chain.
    assert [(r.name, r.rank, r.duration) for r, _ in
            analyze_timeline(two_rank_spans).path] == [
        ("scf/run", 0, pytest.approx(10.0)),
        ("fock/kl", 1, pytest.approx(4.0)),
    ]


def test_critical_path_nested_attach_prefers_same_rank():
    spans = records(
        span("fock/build", 0.0, 10.0, depth=0, rank=0),
        span("fock/kl", 1.0, 8.0, depth=1, rank=0, thread=0),
        # Rank 1's kl also contains [2, 3); the batch belongs to rank 0.
        span("fock/kl", 1.0, 4.0, depth=1, rank=1, thread=0),
        span("eri/quartet_batch", 2.0, 3.0, depth=2, rank=0, thread=0),
    )
    path = critical_path(spans)
    assert [(r.name, r.rank) for r, _ in path] == [
        ("fock/build", 0), ("fock/kl", 0), ("eri/quartet_batch", 0),
    ]


def test_critical_path_empty():
    assert critical_path([]) == []


# -- tracer / NDJSON sources -------------------------------------------------


def test_timeline_spans_from_tracer_resolves_attrs():
    tracer = Tracer(clock=FakeClock())
    with tracer.span("fock/build", rank=2):
        with tracer.span("fock/kl", thread=1):
            pass
    with tracer.span("open-span"):
        spans = spans_from_tracer(tracer)
    # The still-open span is excluded; rank is inherited downward.
    assert [s.name for s in spans] == ["fock/build", "fock/kl"]
    build, kl = spans
    assert kl.rank == 2 and kl.thread == 1
    # No trace context: fresh ids still link the child to its parent.
    assert kl.parent_span_id == build.span_id is not None
    assert build.parent_span_id is None


def test_spans_ndjson_roundtrip_matches_tracer_analysis():
    tracer = Tracer(clock=FakeClock(0.5))
    with tracer.span("scf/run"):
        with tracer.span("fock/kl", rank=0, thread=0):
            pass
        with tracer.span("fock/gsumf", rank=1):
            pass
    direct = analyze_timeline(spans_from_tracer(tracer))
    parsed = analyze_timeline(spans_from_ndjson(spans_ndjson(tracer)))
    assert timeline_report(direct) == timeline_report(parsed)
    assert direct.rank_busy == parsed.rank_busy
    assert [(r.wait_s, r.idle_s) for r in direct.ranks] == \
        [(r.wait_s, r.idle_s) for r in parsed.ranks]


# -- events on the timeline --------------------------------------------------


def test_recovery_events_and_gantt_markers(two_rank_spans):
    log = EventLog(clock=FakeClock(2.0))
    log.emit("fault.kill", rank=1, cycle=2, requeued=2)   # t=2
    log.emit("scf.recovery", rank=0, cycle=3, stage="damping")  # t=4
    log.emit("scf.cycle", cycle=3)                        # t=6, not recovery
    log.emit("scf.converged", cycle=4)                    # t=8, global row
    analysis = analyze_timeline(two_rank_spans, list(log))
    kinds = [ev.kind for ev in analysis.recovery_events]
    assert kinds == ["fault.kill", "scf.recovery"]
    gantt = ascii_gantt(analysis, width=10)
    rows = {" ".join(ln.split("|")[0].split()): ln.split("|")[1]
            for ln in gantt.splitlines() if "|" in ln}
    assert rows["rank 1"][2] == "K"   # t=2 of 10 -> column 2
    assert rows["rank 0"][4] == "R"
    assert rows["events"][8] == "*"   # global scf.converged
    report = timeline_report(analysis)
    assert "resilience events (2):" in report
    assert "fault.kill" in report and "stage=damping" in report


def test_events_roundtrip_through_ndjson(two_rank_spans):
    log = EventLog(clock=FakeClock(1.0))
    log.emit("fault.kill", rank=1, cycle=2)
    from repro.obs import events_ndjson

    events = events_from_ndjson(events_ndjson(log, t0=0.0))
    analysis = analyze_timeline(two_rank_spans, events)
    assert [ev.kind for ev in analysis.recovery_events] == ["fault.kill"]


# -- merged Chrome trace -----------------------------------------------------


def test_merged_chrome_trace_pid_blocks(two_rank_spans):
    run_b = records(span("fock/kl", 0.0, 1.0, rank=0, thread=0))
    log = EventLog(clock=FakeClock())
    log.emit("scf.converged", cycle=1)
    doc = merged_chrome_trace(
        [("alg-a", two_rank_spans, []), ("alg-b", run_b, list(log))]
    )
    events = doc["traceEvents"]
    assert json.loads(json.dumps(doc)) == doc
    pids = {e["pid"] for e in events if e["ph"] == "X"}
    assert pids == {0, 1, 1000}
    names = {e["args"]["name"] for e in events if e["ph"] == "M"}
    assert names == {"alg-a rank 0", "alg-a rank 1", "alg-b rank 0"}
    instants = [e for e in events if e["ph"] == "i"]
    assert len(instants) == 1 and instants[0]["pid"] == 1000


# -- golden report -----------------------------------------------------------


def test_timeline_report_golden(two_rank_spans):
    log = EventLog(clock=FakeClock(2.0))
    log.emit("fault.kill", rank=1, cycle=2, requeued=2)
    log.emit("scf.recovery", rank=0, cycle=3, stage="damping")
    analysis = analyze_timeline(two_rank_spans, list(log))
    report = timeline_report(analysis, title="timeline (golden)")
    golden = (GOLDEN / "timeline_report.txt").read_text()
    assert report + "\n" == golden


def test_analysis_fields(two_rank_spans):
    analysis = analyze_timeline(two_rank_spans)
    assert analysis.nspans == 6
    assert [r.rank for r in analysis.ranks] == [0, 1]
    assert analysis.path[0][0].name == "scf/run"
