"""Live telemetry: the event line, channel fan-out, unix-socket streaming."""

import json
import threading
import time

import pytest

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
from repro.obs.telemetry import (
    TelemetryChannel,
    TelemetryClient,
    default_socket_path,
)


def _line(ev):
    return json.dumps(event_record(ev))


# -- line format --------------------------------------------------------------


def test_record_json_round_trip():
    """The socket and events.ndjson carry the one event line."""
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
    """A ``--telemetry`` run chains the channel behind its own log: each
    emit lands in both, with the run log's timestamp, exactly once."""
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


# -- unix-socket streaming ----------------------------------------------------


def test_socket_backlog_then_live_stream(tmp_path):
    chan = TelemetryChannel()
    sock = chan.serve(tmp_path / "telemetry.sock")
    assert sock is not None and chan.socket_path == sock
    chan.emit("early", i=0)
    chan.emit("early", i=1)

    with TelemetryClient(sock) as client:
        # Backlog replay: a mid-run subscriber first sees history.
        got = _poll_until(client, 2)
        assert [ev.fields["i"] for ev in got] == [0, 1]

        chan.emit("live", i=2)
        got += _poll_until(client, 1)
        assert got[-1].kind == "live"
        chan.close()
        deadline = time.time() + 5
        while not client.eof and time.time() < deadline:
            client.poll(0.05)
        assert client.eof
    assert not sock.exists()  # close() unlinks the socket


def test_close_wakes_the_accept_thread(tmp_path):
    """``close()`` used to ``join(timeout=2)`` a thread that closing the
    listening socket never woke: every channel cost 2 s to tear down."""
    chan = TelemetryChannel()
    assert chan.serve(tmp_path / "telemetry.sock") is not None
    threads = [chan._server_thread, chan._flush_thread]
    time.sleep(0.05)  # both parked: one in accept(), one in its nap
    started = time.perf_counter()
    chan.close()
    assert time.perf_counter() - started < 0.2
    assert not any(t.is_alive() for t in threads)


def test_socket_serve_degrades_on_bad_path(tmp_path):
    chan = TelemetryChannel()
    too_deep = tmp_path / ("x" * 120) / "telemetry.sock"
    assert chan.serve(too_deep) is None
    # Emitting still works with no socket.
    chan.emit("a")
    assert chan.published == 1
    chan.close()


def test_concurrent_publishers_one_socket_client(tmp_path):
    chan = TelemetryChannel()
    sock = chan.serve(tmp_path / "t.sock")
    assert sock is not None
    client = TelemetryClient(sock)
    _poll_until(client, 0, quiet_ok=True)

    def pump(rank):
        for i in range(50):
            chan.emit("tick", rank=rank, i=i)

    threads = [threading.Thread(target=pump, args=(r,)) for r in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    got = _poll_until(client, 200)
    assert len(got) == 200
    # Per-rank ordering is preserved even under interleaving.
    for r in range(4):
        seq = [g.fields["i"] for g in got if g.rank == r]
        assert seq == list(range(50))
    client.close()
    chan.close()


def _poll_until(client, n, *, quiet_ok=False, timeout=10.0):
    got = []
    deadline = time.time() + timeout
    while len(got) < n and time.time() < deadline:
        got += client.poll(0.05)
    if not quiet_ok:
        assert len(got) >= n, f"only {len(got)}/{n} records arrived"
    return got


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


# -- socket path guard --------------------------------------------------------


def test_default_socket_path_length_guard(tmp_path):
    short = default_socket_path(tmp_path)
    assert short == tmp_path / "telemetry.sock"
    deep = tmp_path / ("d" * 150)
    fallback = default_socket_path(deep)
    assert len(str(fallback)) <= 100
    assert fallback.name.endswith(".sock")
