"""Cross-process trace stitching from synthetic journals + span files.

These tests hand-author the two evidence sources ``repro explain`` works
from — the service's write-ahead journal and the per-attempt span
NDJSON a worker streams — and assert the assembled trace is
well-formed: one trace_id, synthetic queue.wait / retry.backoff /
checkpoint.resume segments, attempts as siblings under the job root,
orphans re-parented, and a critical path covering the whole latency.
"""

import json

import pytest

from repro.obs.trace_assembly import (
    PID_CLIENT,
    PID_SERVICE,
    TraceAssemblyError,
    assemble_job_trace,
    load_attempt_spans,
    load_job_journal,
)

TRACE_ID = "a" * 32
CLIENT_SPAN = "c" * 16
ROOT_SPAN = "d" * 16


def _submit(job_id="j000000", pt=100.0, client_t=99.9):
    return {
        "op": "submit", "t": 1000.0 + pt, "pt": pt,
        "job": {
            "id": job_id, "trace_id": TRACE_ID,
            "parent_span_id": CLIENT_SPAN, "root_span_id": ROOT_SPAN,
            "client_t": client_t, "state": "pending", "attempt": 0,
            "spec": {"algorithm": "shared-fock", "backend": "sim"},
        },
    }


def _state(job_id="j000000", state="running", pt=0.0, **extra):
    return {"op": "state", "id": job_id, "state": state,
            "t": 1000.0 + pt, "pt": pt, **extra}


def _span(name, span_id, parent, start, dur, **attrs):
    return {"span": name, "start_s": start, "dur_s": dur, "depth": 0,
            "rank": 0, "thread": attrs.pop("thread", 0), "attrs": attrs,
            "trace_id": TRACE_ID, "span_id": span_id,
            "parent_span_id": parent}


def _write_journal(tmp_path, records):
    path = tmp_path / "journal.ndjson"
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
    return path


def _write_spans(trace_dir, attempt, records, torn=False):
    trace_dir.mkdir(parents=True, exist_ok=True)
    text = "\n".join(json.dumps(r) for r in records) + "\n"
    if torn:
        text += '{"span": "eri/quartet_ba'  # killed mid-write
    (trace_dir / f"attempt-{attempt:03d}.spans.ndjson").write_text(text)


class TestJournalLoading:
    def test_fold_submit_and_transitions(self, tmp_path):
        journal = _write_journal(tmp_path, [
            _submit(pt=100.0),
            _state(pt=100.5, attempt=1),
            _state(pt=100.6, run_id="r1", resumed=False),
            _state(state="done", pt=101.0),
        ])
        jj = load_job_journal(journal, "j000000")
        assert jj.trace_id == TRACE_ID
        assert jj.root_span_id == ROOT_SPAN
        assert jj.submit_pt == pytest.approx(100.0)
        assert jj.run_id == "r1"
        assert jj.terminal["state"] == "done"
        assert jj.end_pt == pytest.approx(101.0)

    def test_prefix_resolution_and_errors(self, tmp_path):
        journal = _write_journal(tmp_path, [
            _submit("j000000"), _submit("j000001"),
        ])
        assert load_job_journal(journal, "j000001").job_id == "j000001"
        assert load_job_journal(journal, "j000000").job_id == "j000000"
        with pytest.raises(TraceAssemblyError, match="ambiguous"):
            load_job_journal(journal, "j0000")
        with pytest.raises(TraceAssemblyError, match="no job matches"):
            load_job_journal(journal, "zzz")

    def test_torn_journal_lines_tolerated(self, tmp_path):
        path = tmp_path / "journal.ndjson"
        path.write_text(
            json.dumps(_submit()) + "\n" + '{"op": "sta'  # torn tail
        )
        assert load_job_journal(path, "j000000").job_id == "j000000"


class TestSpanLoading:
    def test_attempt_files_parsed_and_torn_tails_skipped(self, tmp_path):
        trace_dir = tmp_path / "trace"
        _write_spans(trace_dir, 1,
                     [_span("x", "1" * 16, None, 0.0, 1.0)], torn=True)
        _write_spans(trace_dir, 2, [_span("y", "2" * 16, None, 0.0, 1.0)])
        spans = load_attempt_spans(trace_dir)
        assert set(spans) == {1, 2}
        assert len(spans[1]) == 1  # torn line dropped
        assert spans[2][0].name == "y"

    def test_missing_dir_is_empty(self, tmp_path):
        assert load_attempt_spans(tmp_path / "nope") == {}


def _plain_job(tmp_path):
    """One clean attempt: dispatch at 100.5, done at 101.0."""
    journal = _write_journal(tmp_path, [
        _submit(pt=100.0, client_t=99.9),
        _state(pt=100.5, attempt=1),
        _state(pt=100.51, run_id="r1"),
        _state(state="done", pt=101.0),
    ])
    a1 = "1" * 16
    scf = "2" * 16
    trace_dir = tmp_path / "trace"
    _write_spans(trace_dir, 1, [
        # Closed innermost-first, like a real streaming tracer.
        _span("scf/run", scf, a1, 100.55, 0.4),
        _span("job/attempt", a1, ROOT_SPAN, 100.52, 0.45, attempt=1),
    ])
    return journal, trace_dir


class TestPlainJobAssembly:
    def test_single_attempt_trace(self, tmp_path):
        journal, trace_dir = _plain_job(tmp_path)
        trace = assemble_job_trace(journal, "j000000", trace_dir=trace_dir)
        assert trace.trace_id == TRACE_ID
        assert trace.validate() == []
        names = [s.name for s in trace.segments]
        assert names.count("service/job") == 1
        assert names.count("client/submit") == 1
        assert names.count("queue.wait") == 1
        assert names.count("job/attempt") == 1
        assert "scf/run" in names

        by_name = {s.name: s for s in trace.segments}
        assert by_name["client/submit"].rank == PID_CLIENT
        assert by_name["service/job"].rank == PID_SERVICE
        assert by_name["queue.wait"].synthetic
        # queue.wait covers submit -> dispatch on the daemon track.
        assert by_name["queue.wait"].start == pytest.approx(100.0)
        assert by_name["queue.wait"].end == pytest.approx(100.5)
        # The attempt is a sibling child of the job root span.
        assert by_name["job/attempt"].parent_span_id == ROOT_SPAN
        assert by_name["scf/run"].parent_span_id \
            == by_name["job/attempt"].span_id
        assert trace.warnings == []

    def test_critical_path_spans_the_latency(self, tmp_path):
        journal, trace_dir = _plain_job(tmp_path)
        trace = assemble_job_trace(journal, "j000000", trace_dir=trace_dir)
        names = [s.name for s in trace.critical_path]
        assert names[0] == "client/submit"
        assert "queue.wait" in names and "job/attempt" in names
        assert names[-1] == "scf/run"  # descended into the dominant child
        report = trace.critical_path_report()
        assert "client/submit" in report and "%" in report

    def test_chrome_trace_document(self, tmp_path):
        journal, trace_dir = _plain_job(tmp_path)
        trace = assemble_job_trace(journal, "j000000", trace_dir=trace_dir)
        doc = trace.to_chrome_trace()
        assert doc["otherData"]["trace_id"] == TRACE_ID
        assert doc["otherData"]["job_id"] == "j000000"
        events = doc["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        labels = {e["args"]["name"] for e in meta
                  if e["name"] == "process_name"}
        assert {"client", "service daemon", "worker attempt 1"} <= labels
        xs = [e for e in events if e["ph"] == "X"]
        assert all(e["ts"] >= 0 and e["dur"] >= 0 for e in xs)
        crit = [e for e in xs if e["name"].startswith("critical:")]
        assert crit and all(e["tid"] == 99 for e in crit)
        json.dumps(doc)  # serializable as-is


class TestRetriedJobAssembly:
    def _retried_job(self, tmp_path):
        """Attempt 1 dies (worker SIGKILL: root span never closed),
        backoff gates retry, attempt 2 resumes from checkpoint."""
        journal = _write_journal(tmp_path, [
            _submit(pt=100.0),
            _state(pt=100.2, attempt=1),
            _state(pt=100.21, run_id="r1"),
            # retrying at pt 100.6; gate opens 0.4 s later (wall).
            _state(state="retrying", pt=100.6,
                   not_before=1000.0 + 100.6 + 0.4,
                   error_type="WorkerLostError"),
            _state(pt=101.1, attempt=2),
            _state(pt=101.11, resumed=True),
            _state(state="done", pt=101.6),
        ])
        trace_dir = tmp_path / "trace"
        orphan_parent = "9" * 16  # parent span never written (killed)
        _write_spans(trace_dir, 1, [
            _span("fock/build", "3" * 16, orphan_parent, 100.3, 0.1),
        ], torn=True)
        a2 = "4" * 16
        _write_spans(trace_dir, 2, [
            _span("scf/run", "5" * 16, a2, 101.2, 0.3),
            _span("job/attempt", a2, ROOT_SPAN, 101.15, 0.4, attempt=2),
        ])
        return journal, trace_dir

    def test_merged_trace_is_well_formed(self, tmp_path):
        journal, trace_dir = self._retried_job(tmp_path)
        trace = assemble_job_trace(journal, "j000000", trace_dir=trace_dir)
        assert trace.validate() == []  # no orphans, attempts are siblings
        names = [s.name for s in trace.segments]
        assert names.count("job/attempt") == 2
        assert names.count("queue.wait") == 2
        assert names.count("retry.backoff") == 1
        assert names.count("checkpoint.resume") == 1

        attempts = [s for s in trace.segments if s.name == "job/attempt"]
        assert {s.parent_span_id for s in attempts} == {ROOT_SPAN}
        assert attempts[0].rank != attempts[1].rank  # own process tracks

        # Attempt 1's container is synthesized from journal bounds.
        a1 = attempts[0]
        assert a1.synthetic and a1.attrs.get("interrupted")
        assert a1.start == pytest.approx(100.2)
        assert a1.end == pytest.approx(100.6)
        assert any("synthesized" in w for w in trace.warnings)

        # The orphan child re-parents onto the synthesized container.
        fock = next(s for s in trace.segments if s.name == "fock/build")
        assert fock.parent_span_id == a1.span_id

    def test_backoff_and_second_wait_windows(self, tmp_path):
        journal, trace_dir = self._retried_job(tmp_path)
        trace = assemble_job_trace(journal, "j000000", trace_dir=trace_dir)
        backoff = next(s for s in trace.segments
                       if s.name == "retry.backoff")
        assert backoff.start == pytest.approx(100.6)
        assert backoff.end == pytest.approx(101.0)  # pt + (not_before - t)
        assert backoff.rank == PID_SERVICE and backoff.synthetic

        waits = sorted((s for s in trace.segments if s.name == "queue.wait"),
                       key=lambda s: s.start)
        # Second wait runs from the backoff gate to the re-dispatch:
        # backoff time is its own segment, not queue time.
        assert waits[1].start == pytest.approx(101.0)
        assert waits[1].end == pytest.approx(101.1)

        resume = next(s for s in trace.segments
                      if s.name == "checkpoint.resume")
        a2 = [s for s in trace.segments if s.name == "job/attempt"][1]
        assert resume.parent_span_id == a2.span_id
        assert resume.start == pytest.approx(101.1)
        assert resume.end == pytest.approx(101.2)  # first child span start

    def test_critical_path_orders_by_timeline(self, tmp_path):
        journal, trace_dir = self._retried_job(tmp_path)
        trace = assemble_job_trace(journal, "j000000", trace_dir=trace_dir)
        names = [s.name for s in trace.critical_path]
        # Both attempts appear, separated by the backoff gate.
        first = names.index("job/attempt")
        second = names.index("job/attempt", first + 1)
        assert names.index("retry.backoff") in range(first, second)
        starts = [s.start for s in trace.critical_path
                  if s.name in ("queue.wait", "retry.backoff",
                                "job/attempt")]
        assert starts == sorted(starts)


class TestAssemblyEdges:
    def test_journal_only_trace_warns(self, tmp_path):
        journal = _write_journal(tmp_path, [
            _submit(pt=100.0),
            _state(pt=100.5, attempt=1),
            _state(state="done", pt=101.0),
        ])
        trace = assemble_job_trace(journal, "j000000")
        assert any("journal-only" in w for w in trace.warnings)
        attempt = next(s for s in trace.segments
                       if s.name == "job/attempt")
        assert attempt.synthetic
        assert trace.validate() == []

    def test_pre_trace_job_raises(self, tmp_path):
        rec = _submit()
        del rec["job"]["trace_id"]
        del rec["job"]["root_span_id"]
        journal = _write_journal(tmp_path, [rec])
        with pytest.raises(TraceAssemblyError, match="predates"):
            assemble_job_trace(journal, "j000000")

    def test_trace_dir_derived_from_runs_root(self, tmp_path):
        journal = _write_journal(tmp_path, [
            _submit(pt=100.0),
            _state(pt=100.5, attempt=1),
            _state(pt=100.51, run_id="r1"),
            _state(state="done", pt=101.0),
        ])
        a1 = "1" * 16
        _write_spans(tmp_path / "runs" / "r1" / "trace", 1, [
            _span("job/attempt", a1, ROOT_SPAN, 100.52, 0.45, attempt=1),
        ])
        trace = assemble_job_trace(
            journal, "j000000", runs_root=tmp_path / "runs")
        attempt = next(s for s in trace.segments
                       if s.name == "job/attempt")
        assert not attempt.synthetic and attempt.span_id == a1

    def test_daemon_crash_interrupted_attempt(self, tmp_path):
        # Attempt 2 begins with no terminal record for attempt 1: the
        # daemon died and journal replay re-dispatched.  Attempt 1 must
        # close as interrupted at attempt 2's start.
        journal = _write_journal(tmp_path, [
            _submit(pt=100.0),
            _state(pt=100.2, attempt=1),
            _state(pt=101.0, attempt=2),
            _state(state="done", pt=101.5),
        ])
        trace = assemble_job_trace(journal, "j000000")
        attempts = [s for s in trace.segments if s.name == "job/attempt"]
        assert len(attempts) == 2
        assert attempts[0].end == pytest.approx(101.0)
        assert attempts[0].attrs.get("interrupted")
        assert trace.validate() == []
