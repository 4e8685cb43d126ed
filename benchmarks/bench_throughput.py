"""Batch-throughput benchmark: FIFO vs size-binned on a skewed manifest.

The scenario the workload layer exists for: a manifest whose jobs cycle
through more distinct systems than a worker's warm caches can hold.
Here that is ``--systems`` distinct geometries (scaled water variants
plus light H2 variants — a *skewed* size mix) interleaved ``--repeats``
times, so manifest (FIFO) order revisits each system only after all the
others have evicted it from the worker's setup cache and ERI pool
(capacity 8 of each).  The size-binned policy reorders the same jobs so
each system's repeats run back-to-back: one cold setup per system, warm
``setup_cache`` and preloaded ERI quartets for every repeat after the
first.

Both policies run the identical job set through an identical in-process
single-worker daemon (fresh service dir each, so no cross-policy cache
leakage) and the record holds their two
:class:`~repro.workload.manager.ThroughputReport` summaries plus the
headline ratios::

    {
      "fifo":   {"metrics": {...}, "energies": [...]},
      "binned": {"metrics": {...}, "energies": [...]},
      "binned_speedup": ...,          # binned jobs/s over fifo jobs/s
      "amortization_gain": ...,       # binned ratio over fifo ratio
      ...
    }

``--check`` enforces the contract: size-binned beats FIFO on jobs/s,
its cache-amortization ratio is > 1 (FIFO's is 1.0 by construction),
and — the correctness half — every job's energy is bitwise identical
under both policies (batching reorders and reuses read-only caches; it
must never change numbers).

Deterministic keys (job counts, batch counts, warm/cold splits,
amortization, energies) are gated in CI against
``benchmarks/baselines/BENCH_throughput.json``; wall-clock keys
(``*_s``, ``*_per_s``, ``*speedup*``) are machine-dependent and
excluded there.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import threading
from pathlib import Path


def water_variant(scale: float) -> str:
    """A water geometry uniformly scaled by ``scale`` (distinct system)."""
    from repro.chem.molecule import water

    lines = water().to_xyz().strip().split("\n")
    out = []
    for line in lines:
        parts = line.split()
        if len(parts) >= 4:
            try:
                x, y, z = (float(p) for p in parts[1:4])
            except ValueError:
                out.append(line)
                continue
            out.append(f"{parts[0]} {x * scale:.8f} {y * scale:.8f} "
                       f"{z * scale:.8f}")
        else:
            out.append(line)
    return "\n".join(out) + "\n"


def h2_variant(scale: float) -> str:
    """An H2 geometry with a scaled bond length (distinct system)."""
    from repro.chem.molecule import hydrogen_molecule

    return hydrogen_molecule(r_bohr=1.4 * scale).to_xyz()


def build_specs(n_systems: int, repeats: int):
    """The skewed, interleaved manifest: heavy waters + light H2s.

    Interleaving is the worst case for FIFO: with ``n_systems`` > the
    worker cache capacity (8), every FIFO job is a cold start, while
    binning gets ``repeats - 1`` warm jobs per system.
    """
    from dataclasses import replace

    from repro.service.jobs import JobSpec

    n_h2 = max(1, n_systems // 5)  # the skew: a few cheap systems
    systems = []
    for k in range(n_systems - n_h2):
        systems.append(JobSpec(xyz=water_variant(1.0 + 0.02 * k),
                               tag=f"water-{k}"))
    for k in range(n_h2):
        systems.append(JobSpec(xyz=h2_variant(1.0 + 0.05 * k),
                               tag=f"h2-{k}"))
    specs = []
    for r in range(repeats):
        for s, spec in enumerate(systems):
            specs.append(replace(spec, tag=f"{spec.tag}-r{r}"))
    return specs


def run_policy(policy: str, specs, *, root: Path, fleet: int,
               timeout_s: float):
    """One full batch run on a fresh in-process daemon."""
    from repro.service import JobClient, ServiceConfig, ServiceDaemon
    from repro.workload import WorkloadManager

    service_dir = root / f"svc-{policy}"
    config = ServiceConfig(
        service_dir=str(service_dir), fleet=fleet,
        runs_dir=str(root / f"runs-{policy}"),
        backoff_base_s=0.05, backoff_cap_s=0.5,
    )
    daemon = ServiceDaemon(config).start()
    thread = threading.Thread(target=daemon.run_forever, daemon=True)
    thread.start()
    try:
        manager = WorkloadManager(JobClient(service_dir), policy=policy)
        return manager.run(specs, timeout_s=timeout_s)
    finally:
        daemon.request_stop()
        thread.join(timeout=10.0)
        daemon.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--systems", type=int, default=10,
                        help="distinct geometries (> 8 defeats FIFO's "
                             "caches; default: 10)")
    parser.add_argument("--repeats", type=int, default=4,
                        help="jobs per system, interleaved (default: 4)")
    parser.add_argument("--fleet", type=int, default=1,
                        help="worker processes (default: 1, so cache "
                             "placement is deterministic)")
    parser.add_argument("--timeout", type=float, default=600.0)
    parser.add_argument("--output", type=Path, default=None,
                        help="write the JSON record here")
    parser.add_argument("--check", action="store_true",
                        help="enforce the throughput + parity contract")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

    specs = build_specs(args.systems, args.repeats)
    print(f"manifest: {len(specs)} jobs "
          f"({args.systems} systems x {args.repeats} repeats, interleaved)")

    reports = {}
    with tempfile.TemporaryDirectory(prefix="bench-throughput-") as tmp:
        for policy in ("fifo", "binned"):
            print(f"running policy {policy} ...")
            reports[policy] = run_policy(
                policy, specs, root=Path(tmp), fleet=args.fleet,
                timeout_s=args.timeout,
            )

    def energies(report):
        by_index = {j["manifest_index"]: j["energy"] for j in report.jobs}
        return [by_index[i] for i in range(len(specs))]

    record = {
        "kind": "batch-throughput-bench",
        "n_jobs": len(specs),
        "n_systems": args.systems,
        "repeats": args.repeats,
        "fleet": args.fleet,
        "energies": energies(reports["binned"]),
    }
    for policy, report in reports.items():
        record[policy] = {
            "metrics": report.metrics,
            "n_batches": len(report.plan.batches),
        }
    fifo_m = reports["fifo"].metrics
    binned_m = reports["binned"].metrics
    record["binned_speedup"] = (binned_m["jobs_per_s"]
                                / max(fifo_m["jobs_per_s"], 1e-12))
    record["amortization_gain"] = (
        binned_m["cache_amortization_ratio"]
        / max(fifo_m["cache_amortization_ratio"], 1e-12)
    )

    print(f"fifo   : {fifo_m['jobs_per_s']:.2f} jobs/s, "
          f"amortization {fifo_m['cache_amortization_ratio']:.2f} "
          f"({fifo_m['warm_setups']} warm / {fifo_m['cold_setups']} cold)")
    print(f"binned : {binned_m['jobs_per_s']:.2f} jobs/s, "
          f"amortization {binned_m['cache_amortization_ratio']:.2f} "
          f"({binned_m['warm_setups']} warm / {binned_m['cold_setups']} "
          f"cold)")
    print(f"binned speedup: {record['binned_speedup']:.2f}x")

    if args.output is not None:
        args.output.parent.mkdir(parents=True, exist_ok=True)
        args.output.write_text(
            json.dumps(record, indent=2, sort_keys=True) + "\n"
        )
        print(f"record: {args.output}")

    if args.check:
        failures = []
        if not (binned_m["jobs_per_s"] > fifo_m["jobs_per_s"]):
            failures.append(
                f"size-binned did not beat FIFO: "
                f"{binned_m['jobs_per_s']:.2f} <= "
                f"{fifo_m['jobs_per_s']:.2f} jobs/s"
            )
        if not binned_m["cache_amortization_ratio"] > 1.0:
            failures.append(
                "binned cache_amortization_ratio "
                f"{binned_m['cache_amortization_ratio']:.2f} is not > 1"
            )
        if fifo_m["jobs_done"] != len(specs):
            failures.append(f"fifo completed {fifo_m['jobs_done']}"
                            f"/{len(specs)} jobs")
        if binned_m["jobs_done"] != len(specs):
            failures.append(f"binned completed {binned_m['jobs_done']}"
                            f"/{len(specs)} jobs")
        if energies(reports["fifo"]) != energies(reports["binned"]):
            failures.append(
                "energies differ between fifo and binned runs — "
                "batching changed the numbers"
            )
        if failures:
            for failure in failures:
                print(f"CHECK FAILED: {failure}", file=sys.stderr)
            return 1
        print("checks passed: binned > fifo jobs/s, amortization > 1, "
              "energies bitwise identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
