"""Regenerate the noise-study table of README.md.

    python3 benchmarks/e2e/noise_study.py allene_semidirect 60

Runs N back-to-back cold ``repro scf`` children of one direct workload
and prints, for a single unit and for the min / median over every
window of consecutive units, how far the worst window lies from the
median window and how wide the windows range — the evidence for
reporting the minimum of ``REPS`` short units.
"""

from __future__ import annotations

import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import workloads  # noqa: E402


def window_stats(samples: list[float], k: int, stat) -> tuple[float, float]:
    """(worst window off the median window, range) of ``stat`` over windows."""
    values = [stat(samples[i:i + k]) for i in range(len(samples) - k + 1)]
    mid = statistics.median(values)
    return (max(abs(v - mid) for v in values) / mid,
            (max(values) - min(values)) / mid)


def main(argv: list[str]) -> int:
    name, n = argv[0], int(argv[1])
    w = workloads.WORKLOADS[name]
    if w.kind != "direct" or not (harness.SRC / "repro").is_dir():
        sys.exit("usage: noise_study.py <direct workload> <n>, from a checkout")
    sandbox = harness.Sandbox(f"noise-{name}")
    try:
        children = [sandbox.run(workloads.scf_argv(w), "scf") for _ in range(n)]
    finally:
        sandbox.close()
    wall = [c.wall_s for c in children]
    cpu = [c.cpu_s for c in children]
    print(f"{name}: n={n} median {statistics.median(wall):.3f} s, "
          f"min {min(wall):.3f} s, max {max(wall):.3f} s")
    for label, series in (("wall", wall), ("cpu", cpu)):
        worst, _ = window_stats(series, 1, min)
        print(f"  single unit ({label}), worst off median: {worst:.3f}")
    reps = workloads.REPS
    rows = [("min of 3", 3, min), ("min of 6", 6, min),
            (f"median of {reps}", reps, statistics.median),
            (f"min of {reps}", reps, min)]
    for label, k, stat in rows:
        worst, spread = window_stats(wall, k, stat)
        print(f"  {label:14s} worst window off median / range: "
              f"{worst:.3f} / {spread:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
