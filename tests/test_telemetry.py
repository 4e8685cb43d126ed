"""The event line, and the daemon's thread-safe bounded event log."""

import json
import threading
import time

from repro.obs.events import (
    Event,
    EventLog,
    event_from_record,
    event_record,
    events_from_ndjson,
    get_event_log,
    use_event_log,
)
from repro.obs.stream import ObsStreamer
from repro.obs.telemetry import TelemetryChannel


def _line(ev):
    return json.dumps(event_record(ev))


# -- line format --------------------------------------------------------------


def test_record_json_round_trip():
    """events.ndjson carries the one event line."""
    ev = Event(kind="scf.cycle", t=1.25,
               fields={"cycle": 3, "energy": -74.96, "delta_e": 1e-3})
    line = json.loads(_line(ev))
    assert list(line)[:3] == ["event", "t_s", "rank"]
    assert line["rank"] is None
    assert event_from_record(line) == ev

    ranked = Event(kind="worker.hung", t=2.0, rank=1, fields={"cycle": 2})
    line = json.loads(_line(ranked))
    assert line["rank"] == 1
    assert event_from_record(line) == ranked


def test_record_json_coerces_unsafe_payload():
    ev = Event(kind="x", t=0.0, fields={"path": object(), "d": {1: (2, 3)}})
    parsed = json.loads(_line(ev))
    assert isinstance(parsed["path"], str)
    assert parsed["d"] == {"1": [2, 3]}


def test_records_from_ndjson_skips_blank_lines():
    text = (
        _line(Event(kind="a", t=0.0))
        + "\n\n"
        + _line(Event(kind="b", t=1.0, rank=0))
        + "\n"
    )
    recs = events_from_ndjson(text)
    assert [r.kind for r in recs] == ["a", "b"]
    assert [r.rank for r in recs] == [None, 0]


def test_earlier_sources_parse_as_ranks_or_run_global():
    """Older recordings spelled the kind ``kind``, named a rank only in
    ``source``, and the service tagged its records ``service`` /
    ``worker<N>``."""
    recs = events_from_ndjson(
        '{"kind": "worker.heartbeat", "t_s": 1.0, "source": "rank3"}\n'
        '{"kind": "job.done", "t_s": 2.0, "source": "service", "job": "j1"}\n'
        '{"kind": "job.log", "t_s": 3.0, "source": "worker0"}\n'
    )
    assert [r.rank for r in recs] == [3, None, None]
    assert recs[1].fields == {"job": "j1"}


# -- channel fan-out ----------------------------------------------------------


def test_channel_publish_reaches_subscribers():
    chan = TelemetryChannel()
    seen = []
    chan.subscribe(seen.append)
    ev = chan.emit("worker.heartbeat", rank=1, claimed=4)
    assert chan.published == 1
    assert seen == [ev]
    assert seen[0].fields["claimed"] == 4
    chan.unsubscribe(seen.append)
    chan.publish("worker.heartbeat", rank=1)  # the older spelling of emit
    assert len(seen) == 1
    assert chan.published == 2


def test_channel_keeps_bounded_backlog():
    chan = TelemetryChannel(buffer=3)
    for i in range(5):
        chan.emit("tick", i=i)
    assert [ev.fields["i"] for ev in chan] == [2, 3, 4]
    assert len(chan) == 3 and chan.published == 5


def test_channel_explicit_timestamp_and_clock():
    chan = TelemetryChannel(clock=lambda: 42.0)
    assert chan.emit("a").t == 42.0
    # An event another log stamped keeps its own timestamp.
    chan.record(Event(kind="b", t=7.5))
    assert [ev.t for ev in chan] == [42.0, 7.5]


def test_channel_refuses_publish_after_close():
    chan = TelemetryChannel()
    chan.emit("a")
    chan.close()
    chan.emit("b")
    assert chan.published == 1
    assert [ev.kind for ev in chan] == ["a"]


def test_failing_subscriber_is_detached():
    chan = TelemetryChannel()

    def bad(ev):
        raise RuntimeError("boom")

    good = []
    chan.subscribe(bad)
    chan.subscribe(good.append)
    chan.emit("a")
    chan.emit("b")
    assert [ev.kind for ev in good] == ["a", "b"]


# -- global install -----------------------------------------------------------


def test_global_channel_defaults_off_and_restores():
    """A channel is an event log: installed as the process log, it is
    what instrumented code emits into (the service daemon's wiring)."""
    assert get_event_log() is None
    chan = TelemetryChannel()
    with use_event_log(chan) as active:
        assert active is chan and get_event_log() is chan
        inner = EventLog()
        with use_event_log(inner):
            get_event_log().emit("inner")
        get_event_log().emit("outer", rank=0)
    assert get_event_log() is None
    assert [ev.kind for ev in chan] == ["outer"]
    assert [ev.kind for ev in inner] == ["inner"]


def test_run_log_tap_feeds_the_channel_once_per_event():
    """A channel chained behind a run's own log gets each emit once,
    with the run log's timestamp."""
    log = EventLog(clock=iter([1.0, 2.0, 3.0, 4.0]).__next__)
    chan = TelemetryChannel(clock=lambda: 99.0)
    log.emit("before")
    with log.tap(chan.record):
        log.emit("scf.cycle", cycle=1, delta_e=0.5)
        log.emit("worker.hung", rank=1, cycle=1)
    log.emit("after")
    assert [ev.kind for ev in log] == [
        "before", "scf.cycle", "worker.hung", "after"]
    assert list(chan) == list(log)[1:3]
    assert [ev.t for ev in chan] == [2.0, 3.0]
    assert log.on_emit is None


# -- NDJSON sink --------------------------------------------------------------


def test_ndjson_sink_is_durable_per_record(tmp_path):
    """The daemon's wiring: a streamer on the channel's ``on_emit``
    writes its events.ndjson."""
    path = tmp_path / "events.ndjson"
    chan = TelemetryChannel(buffer=1)
    streamer = ObsStreamer(tmp_path, log=chan)
    chan.emit("scf.cycle", cycle=1, energy=-1.0)
    chan.emit("scf.cycle", cycle=2, energy=-2.0)
    # Unbuffered: visible on disk before close(), and the file keeps
    # what the bounded backlog has already dropped.
    recs = events_from_ndjson(path.read_text())
    assert [ev.fields["cycle"] for ev in recs] == [1, 2]
    assert len(chan) == 1
    chan.close()
    chan.emit("scf.cycle", cycle=3)
    streamer.close()
    assert len(events_from_ndjson(path.read_text())) == 2


def test_ndjson_sink_survives_emitters_racing_close(tmp_path):
    """Many threads emit while the daemon's teardown closes the channel
    and then the streamer: no emitter raises, and the file holds every
    published event whole, in backlog order."""
    chan = TelemetryChannel()
    streamer = ObsStreamer(tmp_path, log=chan)
    errors = []
    started = threading.Barrier(5)

    def pump(rank):
        started.wait()
        try:
            for i in range(2000):
                chan.emit("tick", rank=rank, i=i)
        except Exception as exc:  # pragma: no cover - the failure mode
            errors.append(exc)

    threads = [threading.Thread(target=pump, args=(r,)) for r in range(4)]
    for t in threads:
        t.start()
    started.wait()
    time.sleep(0.005)
    chan.close()
    streamer.close()
    for t in threads:
        t.join()
    assert errors == []
    recs = events_from_ndjson((tmp_path / "events.ndjson").read_text())
    assert len(recs) == chan.published
    assert [(ev.rank, ev.fields["i"]) for ev in recs] == [
        (ev.rank, ev.fields["i"]) for ev in chan.events]
