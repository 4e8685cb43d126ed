"""End-to-end performance ledger of the ``repro`` CLI and job service.

    # one run of one workload (the BENCHMARK.json contract):
    python3 benchmarks/e2e/run.py --workload allene_semidirect --seed 1 \\
        --seconds 30 --trace 0      # end-to-end metrics
    python3 benchmarks/e2e/run.py --workload allene_semidirect --seed 1 \\
        --seconds 30 --trace 1      # per-layer metrics, spans written out

    python3 benchmarks/e2e/run.py               # the whole ledger
    python3 benchmarks/e2e/run.py --selfcheck   # do two sets of runs agree?

A single run prints, as the last line of stdout, one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Everything else (raw samples, quartiles, spans) lands under
``benchmarks/results/e2e/``.  See README.md for the metric glossary.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
_MAIN_PID = os.getpid()
sys.path.insert(0, str(HERE))

import harness  # noqa: E402

harness.pin_threads()

import workloads  # noqa: E402
from workloads import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402


def _require_program() -> None:
    """The benchmark measures the repository's CLI; without it, refuse."""
    if not (harness.SRC / "repro" / "cli.py").is_file():
        sys.exit(f"error: {harness.SRC}/repro is missing; this benchmark "
                 "runs from the root of a checkout of the repository")


# -- one run ------------------------------------------------------------------


def run_once(name: str, seed: int, seconds: float, trace: bool,
             smoke: bool) -> int:
    w = WORKLOADS[name]
    if trace:
        import layers

        sys.path.insert(0, str(harness.SRC))
        payload, detail = layers.run_traced(w, seed, smoke=smoke)
    else:
        result, measured = workloads.run_end_to_end(w, seed, smoke=smoke)
        if not result.time_to_energy or not result.setup:
            print("\n".join(result.problems), file=sys.stderr)
            return 1
        detail = result.report(seconds, measured)
        payload = {
            "correct": result.failed == 0,
            "attempted": result.attempted,
            "failed": result.failed,
            "metrics": result.metrics(),
        }
        for problem in result.problems:
            print(f"FAILED: {problem}", file=sys.stderr)
    # Nothing this run started may outlive it; a straggler is a failed
    # operation, reported before the result line rather than after.
    for left in harness.stop_everything():
        print(f"FAILED: process left running: {left}", file=sys.stderr)
        payload["failed"] += 1
        payload["correct"] = False
    detail["attempted"], detail["failed"] = payload["attempted"], payload["failed"]
    suffix = "trace" if trace else "e2e"
    harness.write_json(
        harness.RESULTS / f"run_{name}_seed{seed}_{suffix}.json", detail)
    for metric, entry in payload["metrics"].items():
        print(f"{metric:36s} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(payload))
    return 0


# -- many runs ----------------------------------------------------------------


def _child_run(name: str, seed: int, seconds: int, trace: int) -> dict:
    """One run in a fresh interpreter (the traced pass times its imports)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.exit(f"run of {name} (trace={trace}) failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def ledger(seed: int, seconds: int, rounds: int) -> int:
    """Every end-to-end and per-layer metric of every workload, by name."""
    e2e: dict[str, list[dict]] = {name: [] for name in WORKLOADS}
    # Interleave: a round visits every workload once, so no workload
    # runs back to back across rounds and host drift hits all alike.
    for r in range(rounds):
        for name in WORKLOADS:
            e2e[name].append(_child_run(name, seed + r, seconds, 0))
    traced = {name: _child_run(name, seed, seconds, 1) for name in WORKLOADS}

    record: dict = {"seed": seed, "rounds": rounds, "workloads": {}}
    failed = 0
    for name in WORKLOADS:
        runs = e2e[name]
        failed += sum(r["failed"] for r in runs) + traced[name]["failed"]
        print(f"\n== {name} ==")
        end_to_end = {}
        for metric, unit, _better, bound in END_TO_END:
            values = [r["metrics"][metric]["value"] for r in runs]
            end_to_end[metric] = {"unit": unit, "bound": bound,
                                  "median": statistics.median(values),
                                  "runs": values}
            print(f"  {metric:36s} {statistics.median(values):12.6g} {unit}")
        per_layer = {}
        for metric, unit, _better in PER_LAYER:
            value = traced[name]["metrics"][metric]["value"]
            per_layer[metric] = {"unit": unit, "value": value}
            print(f"  {metric:36s} {value:12.6g} {unit}")
        record["workloads"][name] = {
            "end_to_end": end_to_end, "per_layer": per_layer,
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
        }
    path = harness.write_json(harness.RESULTS / "BENCH_e2e.json", record)
    print(f"\nledger written to {path}; failed operations: {failed}")
    return 0 if failed == 0 else 1


def selfcheck(seed: int, seconds: int, runs: int) -> int:
    """Two interleaved sets of runs of the same checkout must agree."""
    sets: dict[str, dict[str, list[dict]]] = {
        s: {name: [] for name in WORKLOADS} for s in ("a", "b")}
    for i in range(runs):
        for s in ("a", "b"):
            for name in WORKLOADS:
                sets[s][name].append(_child_run(name, seed + i, seconds, 0))
    rows = []
    for name in WORKLOADS:
        for metric, unit, better, bound in END_TO_END:
            values = {s: [r["metrics"][metric]["value"]
                          for r in sets[s][name]] for s in ("a", "b")}
            med = {s: statistics.median(v) for s, v in values.items()}
            sign = 1.0 if better == "lower" else -1.0
            gap = sign * (med["b"] - med["a"]) / med["a"]
            worst = max(abs(v - med[s]) / med[s]
                        for s in values for v in values[s])
            failed = sum(r["failed"] for s in sets for r in sets[s][name])
            rows.append({
                "workload": name, "metric": metric, "unit": unit,
                "median_a": med["a"], "median_b": med["b"], "gap": gap,
                "bound": bound, "worst_off_own_median": worst,
                "failed_operations": failed,
                "ok": abs(gap) <= bound and worst <= bound and failed == 0,
            })
            print(f"{name:22s} {metric:18s} a={med['a']:.4f} b={med['b']:.4f} "
                  f"gap={gap:+.4f} worst={worst:.4f} bound={bound} "
                  f"{'ok' if rows[-1]['ok'] else 'DISAGREE'}")
    path = harness.write_json(harness.RESULTS / "agreement.json",
                              {"runs_per_set": runs, "rows": rows})
    print(f"agreement written to {path}")
    return 0 if all(row["ok"] for row in rows) else 1


def _on_sigterm(*_: object) -> None:
    """Unwind through ``main``'s sweep; a forked worker just dies."""
    if os.getpid() == _MAIN_PID:
        sys.exit(143)
    os._exit(143)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=30,
                   help="run budget; the work per run is fixed (README.md)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="2 repetitions; for the smoke test, never for numbers")
    p.add_argument("--selfcheck", action="store_true")
    p.add_argument("--runs", type=int, default=3,
                   help="runs per set (--selfcheck) or rounds (ledger)")
    args = p.parse_args(argv)
    _require_program()
    # Every way out (return, exception, SIGTERM) passes the sweep below.
    harness.adopt_orphans()
    signal.signal(signal.SIGTERM, _on_sigterm)
    try:
        if args.workload is not None:
            return run_once(args.workload, args.seed, args.seconds,
                            bool(args.trace), args.smoke)
        if args.selfcheck:
            return selfcheck(args.seed, args.seconds, max(3, args.runs))
        return ledger(args.seed, args.seconds, args.runs)
    finally:
        for left in harness.stop_everything():
            print(f"killed on the way out: {left}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
