"""Run comparison / regression gating (repro.obs.compare)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.obs.compare import (
    RunRecord,
    compare_runs,
    flatten_record,
    key_direction,
    load_run,
)

GOLDEN = Path(__file__).parent / "golden"

BENCH = {
    "name": "bench_eri_micro",
    "fixture": "water/sto-3g",
    "quartets": 528,
    "scalar_wall_s": 3.9,
    "batched_quartets_per_s": 910.0,
    "speedup": 6.7,
    "boys_calls_per_quartet": 1.0,
    "cache_hit_rate_cycle2": 1.0,
}


# -- direction inference -----------------------------------------------------


@pytest.mark.parametrize(
    ("key", "direction"),
    [
        ("batched_quartets_per_s", "higher"),     # *_per_s beats *_s
        ("speedup", "higher"),
        ("cache_hit_rate_cycle2", "higher"),
        ("dlb_efficiency", "higher"),
        ("scalar_wall_s", "lower"),
        ("total_seconds", "lower"),
        ("reduce.bytes", "lower"),
        ("rank_imbalance", "lower"),
        ("eri_cache.misses", "lower"),
        ("resilience.rank_failures", "lower"),
        ("dlb.grants{rank=0}", "neutral"),
        ("quartets", "neutral"),
        ("boys_calls_per_quartet", "neutral"),
    ],
)
def test_key_direction(key, direction):
    assert key_direction(key) == direction


# -- flattening / loading ----------------------------------------------------


def test_flatten_record_numbers_only():
    flat = flatten_record(
        {
            "a": 1,
            "b": {"c": 2.5, "d": "text", "e": True, "f": None},
            "g": [10, {"h": 20}],
        }
    )
    assert flat == {"a": 1.0, "b.c": 2.5, "g[0]": 10.0, "g[1].h": 20.0}


def test_load_bench_record(tmp_path):
    p = tmp_path / "BENCH_eri.json"
    p.write_text(json.dumps(BENCH))
    run = load_run(p)
    assert run.label == "BENCH_eri.json"
    assert run.values["quartets"] == 528.0
    assert "fixture" not in run.values  # strings dropped
    assert len(run) == 6


def test_load_ndjson_metrics(tmp_path):
    p = tmp_path / "metrics.ndjson"
    p.write_text(
        "\n".join(
            [
                json.dumps({"metric": "dlb.grants", "kind": "counter",
                            "labels": {"rank": 0}, "value": 3}),
                json.dumps({"metric": "fock.kl_seconds", "kind": "histogram",
                            "labels": {},
                            "value": {"count": 2, "sum": 1.5}}),
                json.dumps({"fock_build": 1, "quartets_computed": 100,
                            "algorithm": "shared-fock"}),
                json.dumps({"event": "fault.kill", "t_s": 0.5, "rank": 1}),
            ]
        )
    )
    run = load_run(p, label="runA")
    assert run.label == "runA"
    assert run.values["dlb.grants{rank=0}"] == 3.0
    assert run.values["fock.kl_seconds.count"] == 2.0
    assert run.values["fock_build[1].quartets_computed"] == 100.0
    # Event records carry no comparable numbers.
    assert not any("fault" in k for k in run.values)


# -- diff engine -------------------------------------------------------------


def rec(label, **values):
    return RunRecord(label=label, values={k: float(v) for k, v in values.items()})


def test_identical_runs_pass():
    a = rec("a", quartets=528, wall_s=3.9)
    cmp_ = compare_runs(a, rec("b", quartets=528, wall_s=3.9))
    assert cmp_.verdict == "pass"
    assert all(d.status == "ok" for d in cmp_.deltas)


def test_within_tolerance_is_ok():
    a = rec("a", wall_s=1.0)
    assert compare_runs(a, rec("b", wall_s=1.04)).verdict == "pass"
    assert compare_runs(a, rec("b", wall_s=1.06)).verdict == "fail"
    assert compare_runs(
        a, rec("b", wall_s=1.06), tolerance=0.10
    ).verdict == "pass"


def test_direction_decides_improved_vs_regressed():
    a = rec("a", wall_s=1.0, quartets_per_s=100.0)
    c = compare_runs(a, rec("b", wall_s=0.5, quartets_per_s=200.0))
    assert c.verdict == "pass"
    assert {d.status for d in c.deltas} == {"improved"}
    c = compare_runs(a, rec("b", wall_s=2.0, quartets_per_s=50.0))
    assert [d.status for d in c.deltas] == ["regressed", "regressed"]


def test_neutral_contract_change_fails():
    a = rec("a", quartets=528)
    c = compare_runs(a, rec("b", quartets=700))
    assert c.deltas[0].status == "changed"
    assert c.verdict == "fail"


def test_zero_baseline_uses_abs_tolerance():
    a = rec("a", evictions=0)
    assert compare_runs(
        a, rec("b", evictions=0.0)
    ).verdict == "pass"
    c = compare_runs(a, rec("b", evictions=5), abs_tolerance=10.0)
    assert c.verdict == "pass"
    c = compare_runs(a, rec("b", evictions=5))
    assert c.deltas[0].status == "regressed"
    assert c.deltas[0].rel_change == pytest.approx(float("inf"))


def test_added_and_removed_keys():
    a = rec("a", old=1.0, shared=2.0)
    b = rec("b", new=1.0, shared=2.0)
    c = compare_runs(a, b)
    statuses = {d.key: d.status for d in c.deltas}
    assert statuses == {"old": "removed", "new": "added", "shared": "ok"}
    assert c.verdict == "fail"  # removed keys gate
    assert compare_runs(a, b, allow_missing=True).verdict == "pass"


def test_ignore_and_only_globs():
    a = rec("a", wall_s=1.0, quartets=528)
    b = rec("b", wall_s=9.0, quartets=528)
    c = compare_runs(a, b, ignore=["*wall_s"])
    assert c.verdict == "pass"
    assert c.ignored == ["wall_s"]
    c = compare_runs(a, b, only=["quartets"])
    assert c.verdict == "pass" and len(c.deltas) == 1


def test_to_dict_verdict_schema():
    a = rec("a", wall_s=1.0)
    doc = compare_runs(a, rec("b", wall_s=2.0)).to_dict()
    assert json.loads(json.dumps(doc)) == doc
    assert doc["verdict"] == "fail"
    assert doc["counts"] == {"regressed": 1}
    assert doc["deltas"][0]["rel_change"] == pytest.approx(1.0)


def test_report_golden():
    a = rec(
        "baseline.json",
        quartets=528, scalar_wall_s=3.9, batched_quartets_per_s=910.0,
        cache_hit_rate_cycle2=1.0,
    )
    b = rec(
        "candidate.json",
        quartets=700, scalar_wall_s=3.9, batched_quartets_per_s=1200.0,
        cache_hit_rate_cycle2=0.4,
    )
    report = compare_runs(a, b, tolerance=0.25).report()
    golden = (GOLDEN / "compare_report.txt").read_text()
    assert report + "\n" == golden


# -- CLI gate ----------------------------------------------------------------


def bench_file(tmp_path, name, **overrides):
    p = tmp_path / name
    p.write_text(json.dumps({**BENCH, **overrides}))
    return p


def test_cli_identical_runs_exit_zero(tmp_path, capsys):
    from repro.cli import main

    base = bench_file(tmp_path, "base.json")
    rc = main(["compare", str(base), str(base)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "verdict: PASS" in out
    assert "(all keys within tolerance)" in out


def test_cli_injected_regression_exits_nonzero(tmp_path, capsys):
    from repro.cli import main

    base = bench_file(tmp_path, "base.json")
    bad = bench_file(tmp_path, "bad.json", cache_hit_rate_cycle2=0.4)
    verdict_path = tmp_path / "verdict.json"
    report_path = tmp_path / "report.txt"
    rc = main([
        "compare", str(base), str(bad),
        "--tolerance", "0.25",
        "--ignore", "*wall_s", "--ignore", "*_per_s", "--ignore", "speedup",
        "--json", str(verdict_path), "--report", str(report_path),
    ])
    out = capsys.readouterr().out
    assert rc == 1
    assert "verdict: FAIL" in out
    assert "cache_hit_rate_cycle2" in out
    verdict = json.loads(verdict_path.read_text())
    assert verdict["verdict"] == "fail"
    assert verdict["counts"]["regressed"] == 1
    assert "FAIL" in report_path.read_text()


def test_cli_multiple_candidates_any_failure_gates(tmp_path, capsys):
    from repro.cli import main

    base = bench_file(tmp_path, "base.json")
    good = bench_file(tmp_path, "good.json")
    bad = bench_file(tmp_path, "bad.json", quartets=9999)
    rc = main(["compare", str(base), str(good), str(bad)])
    out = capsys.readouterr().out
    assert rc == 1
    assert out.count("verdict:") == 2


def test_cli_missing_file_exits_two(tmp_path, capsys):
    from repro.cli import main

    base = bench_file(tmp_path, "base.json")
    rc = main(["compare", str(base), str(tmp_path / "nope.json")])
    assert rc == 2
    assert "no such file" in capsys.readouterr().err


@pytest.mark.parametrize("body", ["", "not json\n"])
def test_cli_unreadable_baseline_exits_two(tmp_path, capsys, body):
    """A baseline from which no JSON record parses is not an empty
    record: every candidate key would read 'added' and the gate pass."""
    from repro.cli import main

    bad = tmp_path / "bad.json"
    bad.write_text(body)
    rc = main(["compare", str(bad), str(bench_file(tmp_path, "good.json"))])
    captured = capsys.readouterr()
    assert rc == 2 and "verdict" not in captured.out
    assert captured.err.startswith("error: ")
    assert len(captured.err.splitlines()) == 1


def test_event_only_ndjson_still_loads(tmp_path):
    events = tmp_path / "events.ndjson"
    events.write_text('{"event": "scf.cycle", "t_s": 0.1}\n'
                      '{"event": "scf.converged", "t_s": 0.2}\n')
    assert load_run(events).values == {}
