"""Worker heartbeat liveness: beat folding, deadlines, state machine."""

import json

import pytest

from repro.obs.events import EventLog, use_event_log
from repro.obs.metrics import MetricsRegistry, use_metrics
from repro.obs.events import event_record
from repro.obs.telemetry import TelemetryChannel
from repro.parallel.backend.heartbeat import (
    DEFAULT_INTERVAL_S,
    DEFAULT_TIMEOUT_S,
    HeartbeatMonitor,
    make_beat,
)


class FakeClock:
    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


@pytest.fixture()
def clock():
    return FakeClock()


@pytest.fixture()
def monitor(clock):
    return HeartbeatMonitor(2, timeout_s=1.0, clock=clock)


def beat(rank, *, t, phase="claim", claimed=0, cycle=1, pid=100):
    return make_beat(rank, pid + rank, cycle, phase, t=t, claimed=claimed)


def test_defaults_are_sane():
    assert 0 < DEFAULT_INTERVAL_S < DEFAULT_TIMEOUT_S


def test_timeout_must_be_positive():
    with pytest.raises(ValueError):
        HeartbeatMonitor(1, timeout_s=0.0)


def test_start_build_arms_every_rank(monitor, clock):
    monitor.start_build(cycle=3)
    for h in monitor.health:
        assert h.state == "ok"
        assert h.cycle == 3
        assert h.last_beat == clock.t
        assert h.last_phase == "dispatched"


def test_record_folds_beat_fields(monitor, clock):
    monitor.start_build(1)
    h = monitor.record(beat(0, t=0.1, phase="start"))
    assert h.rank == 0 and h.pid == 100
    assert h.beats == 1 and h.state == "ok"
    assert h.last_phase == "start"
    assert h.last_t == pytest.approx(0.1)


def test_silent_pending_rank_turns_suspect(monitor, clock):
    monitor.start_build(1)
    monitor.record(beat(0, t=0.0, phase="start"))
    monitor.record(beat(1, t=0.0, phase="start"))
    clock.advance(0.5)
    assert monitor.check({0, 1}) == []  # under the deadline
    clock.advance(0.8)
    monitor.record(beat(0, t=1.3, claimed=2))  # rank 0 keeps beating
    newly = monitor.check({0, 1})
    assert newly == [1]
    assert monitor.suspects() == [1]
    assert monitor.states() == {"ok": 1, "suspect": 1}
    # Already-suspect ranks are not re-reported.
    clock.advance(0.1)
    assert monitor.check({0, 1}) == []
    assert monitor.hung_total == 1


def test_non_pending_ranks_are_not_flagged(monitor, clock):
    monitor.start_build(1)
    clock.advance(5.0)
    assert monitor.check(pending={1}) == [1]
    assert monitor.health[0].state == "ok"


def test_suspect_rank_recovers_on_next_beat(monitor, clock):
    log = EventLog()
    with use_event_log(log):
        monitor.start_build(1)
        clock.advance(2.0)
        assert monitor.check({0, 1}) == [0, 1]
        monitor.record(beat(0, t=2.0))
    assert monitor.health[0].state == "ok"
    assert monitor.health[0].suspect_count == 1
    kinds = log.kinds()
    assert kinds.get("worker.hung") == 2
    assert kinds.get("worker.recovered") == 1


def test_hung_emits_event_metric_and_telemetry(monitor, clock):
    # One occurrence, one event: the channel installed as the log is what
    # a telemetry stream is, and its line names the rank.
    chan = TelemetryChannel(clock=clock)
    registry = MetricsRegistry()
    with use_event_log(chan), use_metrics(registry):
        monitor.start_build(cycle=2)
        monitor.record(beat(1, t=0.0, phase="start", claimed=3, cycle=2))
        clock.advance(1.5)
        assert monitor.check({1}) == [1]
    ev = [e for e in chan if e.kind == "worker.hung"]
    assert len(ev) == 1 and ev[0].rank == 1
    assert ev[0].fields["cycle"] == 2
    assert ev[0].fields["silent_s"] == pytest.approx(1.5)
    assert ev[0].fields["claimed"] == 3
    assert ev[0].fields["state"] == "suspect"
    snap = registry.snapshot()
    assert snap.get("process.workers_suspect") == 1
    assert snap.get("process.workers_suspect{rank=1}") == 1
    assert chan.kinds() == {"worker.heartbeat": 1, "worker.hung": 1}
    line = json.loads(json.dumps(event_record(ev[0])))
    assert line["rank"] == 1 and line["state"] == "suspect"


def test_heartbeat_republished_on_channel_clock(monitor, clock):
    log = EventLog(clock=lambda: 99.0)
    with use_event_log(log):
        monitor.start_build(1)
        monitor.record(beat(0, t=0.25, claimed=1))
    recs = [e for e in log if e.kind == "worker.heartbeat"]
    assert len(recs) == 1
    # The event rides the log's clock; the worker-relative stamp stays
    # available in its fields.
    assert recs[0].t == 99.0 and recs[0].rank == 0
    assert recs[0].fields["worker_t"] == pytest.approx(0.25)


def test_claim_rate_uses_worker_timestamps(monitor, clock):
    monitor.start_build(1)
    monitor.record(beat(0, t=0.0, phase="start", claimed=0))
    # Parent drains this burst instantly (clock does not move), but the
    # rate must come from the worker-side stamps: 10 claims over 1 s.
    monitor.record(beat(0, t=1.0, claimed=10))
    assert monitor.health[0].claim_rate == pytest.approx(10.0)
    # EWMA folds the next interval in: 10 claims over 0.5 s -> 20/s.
    monitor.record(beat(0, t=1.5, claimed=20))
    assert monitor.health[0].claim_rate == pytest.approx(
        0.7 * 10.0 + 0.3 * 20.0
    )


def test_mark_done_and_mark_lost(monitor, clock):
    log = EventLog(clock=clock)
    with use_event_log(log):
        monitor.start_build(1)
        clock.advance(2.0)
        monitor.check({0, 1})
        monitor.mark_done(0)
        monitor.mark_lost(1)
    assert monitor.health[0].state == "idle"
    assert monitor.health[0].last_phase == "done"
    assert monitor.health[1].state == "lost"
    lost = [e for e in log if e.kind == "worker.lost"]
    assert lost and lost[0].fields["was_suspect"] is True


def test_no_side_effects_without_instruments(monitor, clock):
    # No event log / metrics installed: pure state machine.
    monitor.start_build(1)
    clock.advance(5.0)
    assert monitor.check({0, 1}) == [0, 1]
    assert monitor.states()["suspect"] == 2
