"""Monitor dashboard: event folding, lanes, sparkline, rendering."""

import pytest

from repro.obs.monitor import (
    MonitorState,
    RankView,
    replay_dashboard,
    sparkline,
)
from repro.obs.events import Event
from repro.obs.stream import ObsStreamer
from repro.obs.telemetry import TelemetryChannel


def rec(kind, t, rank=None, **fields):
    return Event(kind=kind, t=t, rank=rank, fields=fields)


def hb(rank, t, *, phase="claim", state="ok", claimed=0, **extra):
    return rec(
        "worker.heartbeat", t, rank=rank, phase=phase,
        state=state, claimed=claimed, pid=1000 + rank, **extra,
    )


# -- sparkline ----------------------------------------------------------------


def test_sparkline_shapes():
    assert sparkline([]) == ""
    assert sparkline([1.0, 1.0, 1.0]) == "▁▁▁"
    ramp = sparkline([0, 1, 2, 3])
    assert ramp[0] == "▁" and ramp[-1] == "█"
    assert len(sparkline(range(100), width=32)) == 32


# -- rank lanes ---------------------------------------------------------------


def test_lane_lights_up_only_while_beating():
    view = RankView(rank=0)
    for t in (0.0, 0.1, 0.2):
        view.observe_beat(t, "claim")
    lane = view.lane(0.0, 1.0, width=10)
    assert len(lane) == 10
    assert lane[0] == "█"  # busy while beats arrive (plus glow)
    assert lane[-1] == "·"  # dark long after the last beat
    assert view.lane(0.0, 0.0, width=4) == "····"  # degenerate window


def test_lane_goes_dark_during_hang_then_relights():
    view = RankView(rank=1)
    view.observe_beat(0.0, "start")
    view.observe_beat(0.1, "claim")
    # Silence (a hang) until t=5, then recovery beats.
    view.observe_beat(5.0, "claim")
    view.observe_beat(5.1, "done")
    lane = view.lane(0.0, 5.2, width=26)
    middle = lane[len(lane) // 3: 2 * len(lane) // 3]
    assert set(middle) == {"·"}
    assert lane[0] != "·" and lane[-1] != "·"


# -- folding ------------------------------------------------------------------


def test_heartbeats_build_rank_views_and_dlb_samples():
    state = MonitorState()
    state.apply(hb(0, 0.0, phase="start", claimed=0))
    state.apply(hb(1, 0.1, phase="start", claimed=0))
    state.apply(hb(0, 1.0, claimed=6))
    state.apply(hb(1, 1.0, claimed=4, claim_rate=4.0))
    assert sorted(state.ranks) == [0, 1]
    assert state.ranks[0].claimed == 6
    assert state.ranks[1].claim_rate == pytest.approx(4.0)
    # 10 claims over the 1 s sample window.
    assert state.dlb_rate == pytest.approx(10.0)
    assert state.t_first == 0.0 and state.t_last == 1.0


def test_hung_and_recovered_fold_into_health_and_events():
    state = MonitorState()
    state.apply(hb(0, 0.0))
    state.apply(rec("worker.hung", 1.0, rank=0,
                    state="suspect", suspect_count=1, silent_s=0.8))
    assert state.ranks[0].state == "suspect"
    assert state.health_counts == {"suspect": 1}
    state.apply(rec("worker.recovered", 1.2, rank=0,
                    state="ok", suspect_count=1))
    assert state.ranks[0].state == "ok"
    assert [e.kind for e in state.events] == [
        "worker.hung", "worker.recovered",
    ]


def test_scf_cycles_feed_convergence_series():
    state = MonitorState()
    for i, de in enumerate((1.0, 1e-3, 1e-8), start=1):
        state.apply(rec("scf.cycle", float(i), cycle=i,
                        energy=-74.0 - i, delta_e=de))
    assert [c.cycle for c in state.cycles] == [1, 2, 3]
    assert state.convergence_series() == pytest.approx([0.0, -3.0, -8.0])
    assert state.last_energy == pytest.approx(-77.0)
    assert state.converged is None
    state.apply(rec("scf.converged", 4.0, cycle=3, energy=-77.0))
    assert "scf.converged" in [e.kind for e in state.events]


def test_zero_delta_e_clamps_to_minus_sixteen():
    state = MonitorState()
    state.apply(rec("scf.cycle", 1.0, cycle=1, energy=-1.0, delta_e=0.0))
    assert state.convergence_series() == [-16.0]


def test_run_records_and_metrics_snapshots():
    state = MonitorState()
    state.apply(rec("run.start", 0.0, run_kind="scf",
                    algorithm="shared-fock", nranks=4))
    # Earlier recordings carry per-build samples nothing reads: counted,
    # otherwise ignored.
    state.apply(rec("metrics.snapshot", 1.0, build=1,
                    counters={"dlb.grants": 12, "bad": "str"}))
    state.apply(rec("fock.build", 1.0, build=1, quartets=55))
    state.apply(rec("run.end", 2.0, status="done", converged=True,
                    energy=-74.96, builds=9))
    assert state.run_info["algorithm"] == "shared-fock"
    assert state.converged is True
    assert state.nrecords == 4
    assert [e.kind for e in state.events] == ["run.start", "run.end"]


# -- rendering ----------------------------------------------------------------


def _fed_state():
    state = MonitorState()
    state.apply(rec("run.start", 0.0, run_kind="scf",
                    algorithm="shared-fock", nranks=2))
    state.apply(hb(0, 0.1, phase="start"))
    state.apply(hb(1, 0.1, phase="start"))
    state.apply(rec("scf.cycle", 0.5, cycle=1, energy=-74.0, delta_e=1.0))
    state.apply(hb(0, 0.9, claimed=8, claim_rate=10.0))
    state.apply(rec("worker.hung", 1.4, rank=1,
                    state="suspect", suspect_count=1, silent_s=1.3))
    state.apply(rec("scf.cycle", 1.5, cycle=2, energy=-74.9, delta_e=1e-4))
    return state


def test_render_frame_contents():
    frame = _fed_state().render()
    assert "repro monitor" in frame
    assert "[shared-fock]" in frame
    assert "cycle   2" in frame
    assert "E = -74.9" in frame
    assert "log10|dE|" in frame
    assert "DLB: 8 claims" in frame
    assert "rank" in frame and "activity" in frame
    assert "suspect" in frame
    assert "worker.hung" in frame
    # Event tail times are run-relative, not absolute perf_counter.
    assert "t=    1.400s" in frame
    assert "health: ok=1, suspect=1" in frame


def test_render_empty_state():
    frame = MonitorState().render()
    assert "0 records" in frame


def test_replay_dashboard_round_trip(tmp_path):
    sink = tmp_path / "events.ndjson"
    with TelemetryChannel(clock=iter([0.0, 0.2, 0.4, 0.6]).__next__) as chan, \
            ObsStreamer(tmp_path, log=chan):
        chan.emit("run.start", run_kind="scf", algorithm="mpi-only")
        chan.emit("worker.heartbeat", rank=0, phase="start",
                  state="ok", claimed=0)
        chan.emit("scf.cycle", cycle=1, energy=-1.0, delta_e=0.5)
        chan.emit("run.end", status="done", converged=True, energy=-1.0)
    frame = replay_dashboard(sink.read_text())
    assert "[mpi-only]" in frame
    assert "converged" in frame
    assert "run.end" in frame


# -- service latency panel ----------------------------------------------------


def test_latency_panel_folds_terminal_jobs_and_burn():
    state = MonitorState()
    for i in range(4):
        state.apply(rec("job.done", 1.0 + i, job=f"j{i:06d}", job_class="shared-fock/sim",
                        queue_wait_s=0.1 * (i + 1), run_s=0.5,
                        total_s=0.5 + 0.1 * (i + 1)))
    state.apply(rec("job.failed", 9.0, job="j000099",
                    job_class="shared-fock/sim", queue_wait_s=40.0,
                    run_s=30.0, total_s=70.0, error_type="ScfFailed"))
    state.apply(rec("slo.burn_rate", 9.1,
                    job_class="shared-fock/sim", target="total:p95<60",
                    burn_rate=4.0))
    state.apply(rec("slo.breach", 9.1,
                    job_class="shared-fock/sim", target="total:p95<60",
                    burn_rate=4.0))

    hists = state.latency["shared-fock/sim"].hists
    assert hists["total"].count == 5
    assert hists["queue_wait"].count == 5
    assert state.slo_burn[("shared-fock/sim", "total:p95<60")] == 4.0
    assert state.slo_breaches == 1

    frame = state.render()
    assert "latency (s)" in frame
    assert "shared-fock/sim" in frame
    assert "qwait p50/p95/p99" in frame
    assert "SLO: 1 breach(es)" in frame
    assert "slo.breach" in frame  # surfaced in the event tail too
