"""Smoke test of the e2e ledger (not in the tier-1 ``testpaths``).

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_smoke.py -q

Runs every pass in the 2-repetition ``--smoke`` mode, which exists for
this file only and is never used for a reported number.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
#: Metrics that must read exactly the same on every traced pass.
EXACT = ("integrals.eri_quartets", "scf.iterations", "core.fi_flushes",
         "core.fj_flushes", "core.screening_survivors", "parallel.dlb_grants",
         "workload.cold_setups", "workload.warm_setups")


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "30", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(payload) == {"correct", "attempted", "failed", "metrics"}
    return payload


@pytest.fixture(scope="module", params=["allene_semidirect",
                                        "service_small_jobs"])
def traced_twice(request) -> tuple[str, dict, dict, dict]:
    name = request.param
    first, second = _run(name, 1), _run(name, 1)
    detail = json.loads(
        (ROOT / "benchmarks/results/e2e" / f"trace_{name}.json").read_text())
    return name, first, second, detail


def test_benchmark_json_matches_the_code():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert doc["workloads"] == [{"name": w.name, "why": w.why}
                                for w in workloads.WORKLOADS.values()]
    assert doc["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bound}
        for n, u, b, bound in workloads.END_TO_END]
    assert doc["per_layer"] == [{"name": n, "unit": u, "better": b}
                                for n, u, b in workloads.PER_LAYER]


def test_names_units_and_limits():
    names = ([w.name for w in workloads.WORKLOADS.values()]
             + [m[0] for m in workloads.END_TO_END]
             + [m[0] for m in workloads.PER_LAYER])
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m[1]) for m in
               workloads.END_TO_END + workloads.PER_LAYER)
    assert all(len(w.why) <= 200 and "\n" not in w.why
               for w in workloads.WORKLOADS.values())
    assert 2 <= len(workloads.WORKLOADS) <= 8
    assert len(workloads.PER_LAYER) <= 128
    assert "setup_s" in [m[0] for m in workloads.END_TO_END]
    assert all(0 < m[3] <= 0.25 for m in workloads.END_TO_END)


def test_manifest_is_a_function_of_the_seed():
    assert workloads.service_jobs(3) == workloads.service_jobs(3)
    assert workloads.service_jobs(3) != workloads.service_jobs(4)
    for seed in range(8):
        jobs = workloads.service_jobs(seed)
        cold = [j for j in jobs if j["tag"].endswith(":cold")]
        # Every seed does the same work: same cold set, one H2 and one
        # water job repeated WARM_ROUNDS times.
        assert sorted(j["tag"] for j in cold) == sorted(
            workloads.job_key(*c) + ":cold" for c in workloads.COLD_JOBS)
        warm = [j for j in jobs if not j["tag"].endswith(":cold")]
        assert len(warm) == 2 * workloads.WARM_ROUNDS
        assert {j["basis"] for j in warm} == {"6-31g", "sto-3g"}
        refs = workloads.references()["service"]
        assert all(j["tag"].rsplit(":", 1)[0] in refs for j in jobs)


#: Run as a script (it changes process-wide state): start the two kinds
#: of straggler a run can have, sweep, and say what the sweep found.
_SWEEP_SCRIPT = """
import json, subprocess, sys
sys.path.insert(0, {here!r})
import harness
harness.adopt_orphans()
from multiprocessing import shared_memory
block = shared_memory.SharedMemory(create=True, size=64)  # starts the tracker
block.close(); block.unlink()
# A sleeper in its own session whose parent exits at once: an orphan.
subprocess.run([sys.executable, "-c",
    "import subprocess, sys; subprocess.Popen([sys.executable, '-c', "
    "'import time; time.sleep(60)'], start_new_session=True)"], check=True)
before = len(harness._children())
leaked = harness.stop_everything()
print(json.dumps({{"before": before, "leaked": leaked,
                  "after": len(harness._children())}}))
"""


def test_sweep_stops_tracker_and_orphans():
    proc = subprocess.run(
        [sys.executable, "-c", _SWEEP_SCRIPT.format(here=str(HERE))],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout.strip().splitlines()[-1])
    assert seen["before"] == 2  # resource tracker + adopted sleeper
    # The tracker is stopped in the ordinary way; only the sleeper is a leak.
    assert len(seen["leaked"]) == 1 and "time.sleep(60)" in seen["leaked"][0]
    assert seen["after"] == 0


def test_end_to_end_smoke_has_no_failed_operation():
    payload = _run("ethyl_uhf_private", 0)
    assert payload["correct"] and payload["failed"] == 0
    assert payload["attempted"] == (
        workloads.SMOKE_REPS + workloads.SMOKE_PROBES)
    assert set(payload["metrics"]) == {m[0] for m in workloads.END_TO_END}
    assert all(v["value"] > 0 for v in payload["metrics"].values())


def test_traced_pass_reports_every_layer_metric(traced_twice):
    _name, first, second, _detail = traced_twice
    for payload in (first, second):
        assert payload["correct"] and payload["failed"] == 0
        assert list(payload["metrics"]) == [m[0] for m in workloads.PER_LAYER]
        for (name, unit, _), entry in zip(workloads.PER_LAYER,
                                          payload["metrics"].values()):
            assert entry["unit"] == unit, name


def test_counts_repeat_exactly(traced_twice):
    _name, first, second, _detail = traced_twice
    for metric in EXACT:
        assert (first["metrics"][metric]["value"]
                == second["metrics"][metric]["value"]), metric


def test_every_span_has_a_parent_or_is_the_root(traced_twice):
    name, _first, _second, detail = traced_twice
    spans = detail["spans"]
    roots = [s for s in spans if s["parent"] is None]
    assert [s["name"] for s in roots] == ["trace"]
    for span in spans:
        assert span["end"] >= span["start"], span
        assert span["unit"].startswith(name)
        if span["parent"] is not None:
            assert 0 <= span["parent"] < len(spans)
            assert span["parent"] != span["id"]


def test_layer_spans_cover_the_unit(traced_twice):
    _name, first, _second, _detail = traced_twice
    assert first["metrics"]["trace.coverage_frac"]["value"] >= 0.95
