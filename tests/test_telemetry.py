"""Live telemetry bus: records, channel fan-out, unix-socket streaming."""

import json
import threading
import time

import pytest

from repro.obs.telemetry import (
    NDJSONTelemetrySink,
    TelemetryChannel,
    TelemetryClient,
    TelemetryRecord,
    default_socket_path,
    get_telemetry,
    record_from_json,
    records_from_ndjson,
    set_telemetry,
    use_telemetry,
)


# -- records ------------------------------------------------------------------


def test_record_json_round_trip():
    rec = TelemetryRecord(
        kind="scf.cycle", t=1.25, source="driver",
        payload={"cycle": 3, "energy": -74.96, "converged": False},
    )
    back = record_from_json(rec.to_json())
    assert back.kind == "scf.cycle"
    assert back.t == pytest.approx(1.25)
    assert back.source == "driver"
    assert back.payload == rec.payload


def test_record_json_coerces_unsafe_payload():
    rec = TelemetryRecord(kind="x", t=0.0, payload={"path": object()})
    parsed = json.loads(rec.to_json())
    assert isinstance(parsed["path"], str)


def test_records_from_ndjson_skips_blank_lines():
    text = (
        TelemetryRecord(kind="a", t=0.0).to_json()
        + "\n\n"
        + TelemetryRecord(kind="b", t=1.0, source="rank0").to_json()
        + "\n"
    )
    recs = records_from_ndjson(text)
    assert [r.kind for r in recs] == ["a", "b"]
    assert recs[1].source == "rank0"


# -- channel fan-out ----------------------------------------------------------


def test_channel_publish_reaches_subscribers():
    chan = TelemetryChannel()
    seen = []
    chan.subscribe(seen.append)
    rec = chan.publish("worker.heartbeat", source="rank1", rank=1, claimed=4)
    assert chan.published == 1
    assert seen == [rec]
    assert seen[0].payload["claimed"] == 4
    chan.unsubscribe(seen.append)
    chan.publish("worker.heartbeat", rank=1)
    assert len(seen) == 1


def test_channel_keeps_bounded_backlog():
    chan = TelemetryChannel(buffer=3)
    for i in range(5):
        chan.publish("tick", i=i)
    assert [r.payload["i"] for r in chan.records] == [2, 3, 4]


def test_channel_explicit_timestamp_and_clock():
    chan = TelemetryChannel(clock=lambda: 42.0)
    assert chan.publish("a").t == 42.0
    assert chan.publish("b", t=7.5).t == 7.5


def test_channel_refuses_publish_after_close():
    chan = TelemetryChannel()
    chan.publish("a")
    chan.close()
    chan.publish("b")
    assert chan.published == 1


def test_failing_subscriber_is_detached():
    chan = TelemetryChannel()

    def bad(rec):
        raise RuntimeError("boom")

    good = []
    chan.subscribe(bad)
    chan.subscribe(good.append)
    chan.publish("a")
    chan.publish("b")
    assert [r.kind for r in good] == ["a", "b"]


# -- global install -----------------------------------------------------------


def test_global_channel_defaults_off_and_restores():
    assert get_telemetry() is None
    chan = TelemetryChannel()
    with use_telemetry(chan) as active:
        assert active is chan
        assert get_telemetry() is chan
        inner = TelemetryChannel()
        with use_telemetry(inner):
            assert get_telemetry() is inner
        assert get_telemetry() is chan
    assert get_telemetry() is None
    set_telemetry(chan)
    try:
        assert get_telemetry() is chan
    finally:
        set_telemetry(None)


# -- unix-socket streaming ----------------------------------------------------


def test_socket_backlog_then_live_stream(tmp_path):
    chan = TelemetryChannel()
    sock = chan.serve(tmp_path / "telemetry.sock")
    assert sock is not None and chan.socket_path == sock
    chan.publish("early", i=0)
    chan.publish("early", i=1)

    with TelemetryClient(sock) as client:
        # Backlog replay: a mid-run subscriber first sees history.
        got = _poll_until(client, 2)
        assert [r.payload["i"] for r in got] == [0, 1]

        chan.publish("live", i=2)
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
    # Publishing still works with no socket.
    chan.publish("a")
    assert chan.published == 1
    chan.close()


def test_concurrent_publishers_one_socket_client(tmp_path):
    chan = TelemetryChannel()
    sock = chan.serve(tmp_path / "t.sock")
    assert sock is not None
    client = TelemetryClient(sock)
    _poll_until(client, 0, quiet_ok=True)

    def pump(src):
        for i in range(50):
            chan.publish("tick", source=src, i=i)

    threads = [
        threading.Thread(target=pump, args=(f"rank{r}",)) for r in range(4)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    got = _poll_until(client, 200)
    assert len(got) == 200
    # Per-source ordering is preserved even under interleaving.
    for r in range(4):
        seq = [g.payload["i"] for g in got if g.source == f"rank{r}"]
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
    path = tmp_path / "telemetry.ndjson"
    chan = TelemetryChannel()
    sink = NDJSONTelemetrySink(path)
    chan.subscribe(sink)
    chan.publish("scf.cycle", cycle=1, energy=-1.0)
    chan.publish("scf.cycle", cycle=2, energy=-2.0)
    # Line-buffered: visible on disk before close().
    recs = records_from_ndjson(path.read_text())
    assert [r.payload["cycle"] for r in recs] == [1, 2]
    assert sink.written == 2
    sink.close()
    chan.close()


# -- socket path guard --------------------------------------------------------


def test_default_socket_path_length_guard(tmp_path):
    short = default_socket_path(tmp_path)
    assert short == tmp_path / "telemetry.sock"
    deep = tmp_path / ("d" * 150)
    fallback = default_socket_path(deep)
    assert len(str(fallback)) <= 100
    assert fallback.name.endswith(".sock")
