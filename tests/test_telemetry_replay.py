"""Recorded ``telemetry.ndjson`` files keep replaying.

``tests/golden/telemetry_straggler.ndjson`` is the telemetry sink of the
CI ``monitor-smoke`` run (water, ``--backend process --workers 2
--fault-plan delay:rank=1:cycle=2:factor=100``, a 20 ms heartbeat
deadline) and ``telemetry_service.ndjson`` the sink of a ``repro serve
--fleet 1`` daemon that ran three jobs, both written by the build
before the telemetry channel became an event log.
``telemetry_replay.json`` holds what the dashboard and the SLO replay
read off them at that build: rank lanes, SCF cycles, notable events,
latency digests.  Old recordings must keep reading the same, and a file
the channel writes today (the one event line) must go through the same
reader.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.obs.monitor import MonitorState
from repro.obs.slo import engine_from_telemetry
from repro.obs.events import events_from_ndjson

GOLDEN = Path(__file__).resolve().parent / "golden"
RECORDINGS = ("telemetry_straggler.ndjson", "telemetry_service.ndjson")


def replay_summary(text: str) -> dict:
    """What ``repro monitor`` and ``repro slo`` read off one recording."""
    records = events_from_ndjson(text)
    state = MonitorState()
    state.apply_all(records)
    t0 = state.t_first or 0.0
    t1 = max(state.t_last or 0.0, t0 + 1e-6)
    return {
        "nrecords": state.nrecords,
        "lanes": {
            str(rank): view.lane(t0, t1, width=28)
            for rank, view in sorted(state.ranks.items())
        },
        "health": {
            str(rank): [view.state, view.claimed, view.beats,
                        view.suspect_count, view.claim_rate]
            for rank, view in sorted(state.ranks.items())
        },
        "dlb_rate": state.dlb_rate,
        "cycles": [[c.cycle, c.energy, c.delta_e, c.t] for c in state.cycles],
        "converged": state.converged,
        "notable": [[ev.kind, ev.t] for ev in state.events],
        "latency": {
            cls: {
                metric: [hist.count, *(hist.quantile(q)
                                       for q in (0.5, 0.95, 0.99))]
                for metric, hist in sorted(stats.hists.items())
            }
            for cls, stats in sorted(state.latency.items())
        },
        "slo_burn": sorted([*key, burn] for key, burn in state.slo_burn.items()),
        "slo_report": engine_from_telemetry(records).report(),
    }


def _expected(name: str) -> dict:
    return json.loads((GOLDEN / "telemetry_replay.json").read_text())[name]


@pytest.mark.parametrize("name", RECORDINGS)
def test_recordings_of_an_earlier_build_replay_the_same(name):
    got = replay_summary((GOLDEN / name).read_text())
    assert json.loads(json.dumps(got)) == _expected(name)


def test_straggler_recording_holds_what_the_smoke_run_asserts():
    got = _expected("telemetry_straggler.ndjson")
    kinds = [kind for kind, _ in got["notable"]]
    assert "worker.hung" in kinds and "worker.recovered" in kinds
    assert got["converged"] is True and len(got["cycles"]) == 9


@pytest.mark.parametrize("name", RECORDINGS)
def test_a_file_the_channel_writes_replays_the_same(name, tmp_path):
    """Every event of an old recording, re-published through today's
    channel into the serve run's events.ndjson (the daemon's wiring),
    reads back to the same dashboard."""
    from repro.obs.stream import ObsStreamer
    from repro.obs.telemetry import TelemetryChannel

    with TelemetryChannel() as channel, ObsStreamer(tmp_path, log=channel):
        for ev in events_from_ndjson((GOLDEN / name).read_text()):
            channel.record(ev)
    got = replay_summary((tmp_path / "events.ndjson").read_text())
    assert json.loads(json.dumps(got)) == _expected(name)
