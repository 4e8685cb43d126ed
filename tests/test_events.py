"""The structured run-event log (repro.obs.events)."""

from __future__ import annotations

import json

from repro.obs import (
    Event,
    EventLog,
    events_from_ndjson,
    events_ndjson,
    get_event_log,
    set_event_log,
    use_event_log,
)


class FakeClock:
    """Deterministic clock: each read advances by ``step`` seconds."""

    def __init__(self, step: float = 1.0) -> None:
        self.t = 0.0
        self.step = step

    def __call__(self) -> float:
        self.t += self.step
        return self.t


def test_emit_records_clock_rank_and_fields():
    log = EventLog(clock=FakeClock(0.5))
    ev = log.emit("fault.kill", rank=1, cycle=2, requeued=3)
    assert ev.kind == "fault.kill"
    assert ev.t == 0.5
    assert ev.rank == 1
    assert ev.fields == {"cycle": 2, "requeued": 3}
    global_ev = log.emit("dlb.reset", ntasks=10)
    assert global_ev.rank is None
    assert len(log) == 2
    assert list(log) == [ev, global_ev]


def test_kinds_and_clear():
    log = EventLog(clock=FakeClock())
    log.emit("scf.cycle", cycle=1)
    log.emit("scf.cycle", cycle=2)
    log.emit("scf.converged", cycle=2)
    assert log.kinds() == {"scf.cycle": 2, "scf.converged": 1}
    log.clear()
    assert len(log) == 0 and log.kinds() == {}


def test_ndjson_roundtrip():
    log = EventLog(clock=FakeClock(1.0))
    log.emit("scf.checkpoint", cycle=5, path="ck.npz")
    log.emit("fault.delay", rank=3, cycle=1, factor=4.0)
    text = events_ndjson(log)
    recs = [json.loads(ln) for ln in text.splitlines()]
    # Default t0 is the first event's clock reading.
    assert recs[0] == {
        "event": "scf.checkpoint", "t_s": 0.0, "rank": None,
        "cycle": 5, "path": "ck.npz",
    }
    assert recs[1]["t_s"] == 1.0 and recs[1]["rank"] == 3
    back = events_from_ndjson(text)
    assert [ev.kind for ev in back] == ["scf.checkpoint", "fault.delay"]
    assert back[1].fields == {"cycle": 1, "factor": 4.0}
    assert back[0].rank is None and back[1].rank == 3


def test_ndjson_explicit_t0_aligns_with_spans():
    log = EventLog(clock=FakeClock(1.0))
    log.emit("scf.cycle", cycle=1)
    recs = [json.loads(ln) for ln in events_ndjson(log, t0=0.25).splitlines()]
    assert recs[0]["t_s"] == 0.75


def test_ndjson_fields_are_json_safe():
    from pathlib import Path

    log = EventLog(clock=FakeClock())
    log.emit("scf.checkpoint", path=Path("/tmp/ck.npz"))
    rec = json.loads(events_ndjson(log))
    assert rec["path"] == "/tmp/ck.npz"  # Path stringified, not crashed


def test_events_from_ndjson_skips_blank_lines():
    assert events_from_ndjson("\n\n") == []
    evs = events_from_ndjson('{"event": "x", "t_s": 1.5}\n\n')
    assert evs == [Event(kind="x", t=1.5, rank=None, fields={})]


def test_global_install_and_restore():
    assert get_event_log() is None
    log = EventLog()
    with use_event_log(log):
        assert get_event_log() is log
        inner = EventLog()
        with use_event_log(inner):
            assert get_event_log() is inner
        assert get_event_log() is log
    assert get_event_log() is None


def test_set_event_log_explicit():
    log = EventLog()
    set_event_log(log)
    try:
        assert get_event_log() is log
    finally:
        set_event_log(None)
    assert get_event_log() is None


def test_instrumented_code_is_silent_without_log():
    # The DLB emits events only when a log is installed.
    from repro.parallel.scheduler import make_scheduler

    dlb = make_scheduler("dlb", ntasks=4, nranks=2)
    while dlb.next(0) is not None:
        pass
    # No log installed: nothing to assert beyond "did not crash".
    log = EventLog()
    with use_event_log(log):
        dlb = make_scheduler("dlb", ntasks=4, nranks=2)
        while dlb.next(0) is not None:
            pass
    kinds = log.kinds()
    assert kinds["dlb.reset"] == 1
    assert kinds["dlb.rank_done"] == 1


