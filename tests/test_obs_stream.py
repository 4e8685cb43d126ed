"""Incremental NDJSON streaming: durability, chaining, concurrency."""

import json
import os
import time

import pytest

from repro.obs.events import EventLog, events_from_ndjson
from repro.obs.stream import NDJSONStreamWriter, ObsStreamer
from repro.obs.tracer import Tracer


def _lines(path):
    return [
        json.loads(line)
        for line in filter(None, path.read_text().splitlines())
    ]


def test_writer_records_visible_before_close(tmp_path):
    path = tmp_path / "out.ndjson"
    writer = NDJSONStreamWriter(path)
    writer.write({"a": 1})
    writer.write({"a": 2})
    # Line-buffered: already on disk, no close/flush needed.
    assert [r["a"] for r in _lines(path)] == [1, 2]
    assert writer.writes == 2
    writer.close()


def test_writer_appends_to_existing_file(tmp_path):
    path = tmp_path / "out.ndjson"
    with NDJSONStreamWriter(path) as w:
        w.write({"run": 1})
    with NDJSONStreamWriter(path) as w:
        w.write({"run": 2})
    assert [r["run"] for r in _lines(path)] == [1, 2]


def test_streamer_streams_spans_and_events_incrementally(tmp_path):
    tracer = Tracer()
    log = EventLog()
    streamer = ObsStreamer(tmp_path, tracer=tracer, log=log)
    with tracer.span("scf/run"):
        with tracer.span("scf/fock_build", iteration=1):
            pass
        log.emit("scf.cycle", cycle=1, energy=-1.0)
        # Inner span + event are durable while the outer span is open.
        spans = _lines(tmp_path / "spans.ndjson")
        assert [s["span"] for s in spans] == ["scf/fock_build"]
        events = _lines(tmp_path / "events.ndjson")
        assert events[0]["event"] == "scf.cycle"
    assert len(_lines(tmp_path / "spans.ndjson")) == 2
    assert len(_lines(tmp_path / "events.ndjson")) == 1
    streamer.close()
    # The streamed file parses through the standard NDJSON readers.
    parsed = events_from_ndjson((tmp_path / "events.ndjson").read_text())
    assert parsed[0].fields["cycle"] == 1


def test_streamer_chains_existing_callbacks(tmp_path):
    closed, emitted = [], []
    tracer = Tracer(on_close=lambda s: closed.append(s.name))
    log = EventLog(on_emit=lambda e: emitted.append(e.kind))
    streamer = ObsStreamer(tmp_path, tracer=tracer, log=log)
    with tracer.span("a"):
        pass
    log.emit("ev.one")
    assert closed == ["a"] and emitted == ["ev.one"]
    streamer.close()
    # close() restores the original hooks.
    with tracer.span("b"):
        pass
    log.emit("ev.two")
    assert closed == ["a", "b"] and emitted == ["ev.one", "ev.two"]
    assert [s["span"] for s in _lines(tmp_path / "spans.ndjson")] == ["a"]


@pytest.mark.process
def test_streamed_records_survive_os_exit(tmp_path):
    """A worker killed via os._exit leaves its completed records on disk."""
    pid = os.fork()
    if pid == 0:  # child: write, then die without any teardown
        try:
            tracer = Tracer()
            log = EventLog()
            ObsStreamer(tmp_path, tracer=tracer, log=log)
            with tracer.span("worker/fock_build", rank=0):
                log.emit("dlb.claim", rank=0, quartets=128)
        finally:
            os._exit(0)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    spans = _lines(tmp_path / "spans.ndjson")
    assert spans and spans[0]["span"] == "worker/fock_build"
    events = _lines(tmp_path / "events.ndjson")
    assert events and events[0]["event"] == "dlb.claim"


@pytest.mark.process
def test_concurrent_event_writes_from_forked_workers(tmp_path):
    """Satellite: concurrent NDJSON event streams from real processes.

    Each worker streams into its own per-rank directory (the process
    backend's layout) on one shared ``perf_counter`` time base; the
    merged result must be complete, valid line-JSON, and per-writer
    time-ordered.
    """
    nworkers, nevents = 4, 50
    t0 = time.perf_counter()
    pids = []
    for rank in range(nworkers):
        pid = os.fork()
        if pid == 0:
            try:
                log = EventLog()
                ObsStreamer(tmp_path / f"rank{rank}", log=log, t0=t0)
                for i in range(nevents):
                    log.emit("dlb.claim", rank=rank, i=i)
            finally:
                os._exit(0)
        pids.append(pid)
    for pid in pids:
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0

    for rank in range(nworkers):
        records = _lines(tmp_path / f"rank{rank}" / "events.ndjson")
        assert len(records) == nevents
        assert [r["i"] for r in records] == list(range(nevents))
        stamps = [r["t_s"] for r in records]
        assert all(b >= a for a, b in zip(stamps, stamps[1:]))
        assert all(s >= 0.0 for s in stamps)  # shared t0 base


@pytest.mark.process
def test_concurrent_appends_to_one_shared_file(tmp_path):
    """Whole-line appends from many processes never tear each other."""
    path = tmp_path / "shared.ndjson"
    nworkers, nrecords = 4, 100
    pids = []
    for rank in range(nworkers):
        pid = os.fork()
        if pid == 0:
            try:
                writer = NDJSONStreamWriter(path)
                for i in range(nrecords):
                    writer.write({"rank": rank, "i": i})
            finally:
                os._exit(0)
        pids.append(pid)
    for pid in pids:
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0

    records = _lines(path)  # every line must parse — no torn writes
    assert len(records) == nworkers * nrecords
    for rank in range(nworkers):
        seq = [r["i"] for r in records if r["rank"] == rank]
        assert seq == list(range(nrecords))
