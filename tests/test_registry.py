"""Persistent run registry: registration, lookup, listing, records."""

import json
import re

import pytest

from repro.obs.registry import (
    DEFAULT_ROOT,
    RUNS_DIR_ENV,
    RunRegistry,
    new_run_id,
    runs_root,
)


@pytest.fixture()
def registry(tmp_path):
    return RunRegistry(tmp_path / "runs")


def test_runs_root_resolution(tmp_path, monkeypatch):
    assert runs_root(tmp_path) == tmp_path
    monkeypatch.setenv(RUNS_DIR_ENV, str(tmp_path / "env"))
    assert runs_root() == tmp_path / "env"
    # Explicit argument beats the environment.
    assert runs_root(tmp_path / "arg") == tmp_path / "arg"
    monkeypatch.delenv(RUNS_DIR_ENV)
    assert runs_root() == DEFAULT_ROOT


def test_run_ids_are_unique_and_sortable():
    ids = {new_run_id() for _ in range(32)}
    assert len(ids) == 32
    for run_id in ids:
        stamp = run_id.split("-")[0]
        assert len(stamp) == 8 and stamp.isdigit()
        assert re.fullmatch(r"\d{8}-\d{6}-\d+-[0-9a-f]{4}", run_id)


def test_register_creates_run_record(registry):
    handle = registry.register("scf", config={"algorithm": "shared-fock"})
    assert handle is not None and handle.ok
    rec = json.loads(handle.path("run.json").read_text())
    assert rec["run_id"] == handle.run_id
    assert rec["kind"] == "scf"
    assert rec["status"] == "running"
    assert rec["config"]["algorithm"] == "shared-fock"
    assert registry.run_ids() == [handle.run_id]


def test_finalize_writes_metrics_and_summary(registry):
    handle = registry.register("scf", config={})
    handle.add_artifact("trace", "/tmp/trace.json")
    handle.finalize(
        status="done",
        metrics={"scf.cycles": 8, "dlb.grants{rank=0}": 12},
        summary={"energy": -74.9631772614, "converged": True},
        event_counts={"scf.cycle": 8},
    )
    rec = registry.load(handle.run_id)
    assert rec["status"] == "done"
    assert rec["finished_at"]
    assert rec["summary"]["energy"] == pytest.approx(-74.9631772614)
    assert rec["event_counts"] == {"scf.cycle": 8}
    assert rec["artifacts"]["trace"] == "/tmp/trace.json"
    metrics = json.loads(
        (registry.run_dir(handle.run_id) / "metrics.json").read_text())
    assert metrics["scf.cycles"] == 8


def test_find_prefix_latest_and_errors(registry):
    with pytest.raises(KeyError, match="no runs registered"):
        registry.find("latest")
    a = registry.register("scf", config={})
    b = registry.register("bench", config={})
    assert registry.find("latest") == max(a.run_id, b.run_id)
    assert registry.find(a.run_id[:-1]) == a.run_id  # unique prefix
    with pytest.raises(KeyError, match="no run matches"):
        registry.find("zzz")
    with pytest.raises(KeyError, match="ambiguous"):
        # The UTC-stamp prefix is shared by both runs.
        registry.find(a.run_id[:4])


def test_list_table_shows_summary_energy(registry):
    assert "no runs registered" in registry.list_table()
    handle = registry.register("scf", config={"algorithm": "mpi-only"})
    handle.finalize(status="done", summary={"energy": -1.5})
    other = registry.register("bench", config={})
    other.finalize(status="failed")
    table = registry.list_table()
    assert handle.run_id in table and other.run_id in table
    assert "mpi-only" in table
    assert "-1.500000" in table
    lines = table.splitlines()
    assert lines[0].split() == ["run", "kind", "status", "algorithm",
                                "energy/Eh"]


def test_show_counts_events_from_ndjson(registry):
    handle = registry.register("scf", config={})
    handle.finalize(status="done")
    events = registry.run_dir(handle.run_id) / "events.ndjson"
    events.write_text(
        '{"event": "worker.hung", "t_s": 0.1}\n'
        '{"event": "worker.hung", "t_s": 0.2}\n'
        '{"event": "scf.cycle", "t_s": 0.3}\n'
        "not json\n"
    )
    shown = registry.show(handle.run_id)
    assert f"run {handle.run_id}" in shown
    assert "worker.hung: 2" in shown
    assert "scf.cycle: 1" in shown


def test_register_degrades_when_root_is_unwritable(tmp_path):
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    registry = RunRegistry(blocker / "runs")
    assert registry.register("scf", config={}) is None


# -- retention GC ------------------------------------------------------------


def _seed_runs(registry, n, *, status="done"):
    handles = []
    for i in range(n):
        h = registry.register("job", config={"i": i})
        if status is not None:
            h.finalize(status=status)
        handles.append(h)
    # Same-second registrations tie on the timestamp and fall back to
    # the random id suffix: "oldest" means registry id order.
    handles.sort(key=lambda h: h.run_id)
    return handles


def test_prune_keep_last(registry):
    handles = _seed_runs(registry, 5)
    removed = registry.prune(keep_last=2)
    assert removed == [h.run_id for h in handles[:3]]  # oldest first
    assert registry.run_ids() == [h.run_id for h in handles[3:]]
    for run_id in removed:
        assert not registry.run_dir(run_id).exists()


def test_prune_never_touches_running_or_protected(registry):
    live = registry.register("serve", config={})  # status stays "running"
    done = _seed_runs(registry, 3)
    removed = registry.prune(
        keep_last=0, protect={done[2].run_id})
    assert live.run_id not in removed
    assert done[2].run_id not in removed
    assert set(removed) == {done[0].run_id, done[1].run_id}
    # keep_last counts retained runs including the protected ones.
    assert len(registry.run_ids()) == 2


def test_prune_max_age(registry):
    import time

    old, new = _seed_runs(registry, 2)
    record = registry.run_dir(old.run_id) / "run.json"
    past = time.time() - 3600
    import os

    os.utime(record, (past, past))
    removed = registry.prune(max_age_s=60)
    assert removed == [old.run_id]
    assert registry.run_ids() == [new.run_id]


def test_prune_max_bytes(registry):
    handles = _seed_runs(registry, 3)
    for h in handles:
        (registry.run_dir(h.run_id) / "blob.bin").write_bytes(b"x" * 4096)
    total = sum(
        p.stat().st_size
        for h in handles
        for p in registry.run_dir(h.run_id).rglob("*") if p.is_file()
    )
    # Budget for roughly two runs: the oldest one must go.
    removed = registry.prune(max_bytes=int(total * 2 / 3))
    assert handles[0].run_id in removed
    assert handles[2].run_id not in removed


def test_prune_dry_run_deletes_nothing(registry):
    handles = _seed_runs(registry, 3)
    preview = registry.prune(keep_last=1, dry_run=True)
    assert preview == [h.run_id for h in handles[:2]]
    assert registry.run_ids() == [h.run_id for h in handles]  # intact
    assert registry.prune(keep_last=1) == preview  # same victims for real


def test_prune_policies_compose(registry):
    handles = _seed_runs(registry, 4)
    # keep_last=3 alone would drop 1; with the oldest two also aged
    # out, the union drops 2 (any violated policy removes the run).
    import os
    import time

    past = time.time() - 7200
    for h in handles[:2]:
        record = registry.run_dir(h.run_id) / "run.json"
        os.utime(record, (past, past))
    removed = registry.prune(keep_last=3, max_age_s=3600)
    assert set(removed) == {handles[0].run_id, handles[1].run_id}


def test_prune_no_policy_is_noop(registry):
    _seed_runs(registry, 2)
    assert registry.prune() == []
    assert len(registry.run_ids()) == 2
