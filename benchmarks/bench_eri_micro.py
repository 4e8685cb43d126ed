"""ERI micro-benchmark: class-batched shares vs. one ket at a time vs.
the scalar oracle, and the cache hit rate.

Standalone (CI-runnable) benchmark of the integral hot path on the
d-shell graphene fixture — ``bilayer_graphene(1)`` in 6-31G(d), the
smallest system exercising S, L (fused SP), and Cartesian d shells.
The surviving quartets are swept the way a Fock build sweeps them, one
bra share at a time through ``QuartetEngine.composite_blocks``, then one
quartet at a time (the batch-of-one path of the same kernel), then
through the scalar oracle of ``tests/oracles.py``.  A quartet is a
*composite* quartet throughout — the kernel's own unit, an ``(LL|LL)``
being one — so the one-ket sweep reads exactly one Boys call per
quartet.  Emits a machine-readable ``BENCH_eri.json`` record::

    {
      "quartets": ...,                  # surviving quartets measured
      "shares": ...,                    # bra shares they arrive in
      "scalar_quartets_per_s": ...,     # oracle: primitive loops
      "single_quartets_per_s": ...,     # kernel, one ket per call
      "batched_quartets_per_s": ...,    # kernel, one share per call
      "speedup": ...,                   # batched / scalar
      "speedup_vs_single": ...,         # batched / single
      "boys_calls": ...,                # == shares: one per share
      "boys_calls_per_quartet": ...,    # < 1 on the share sweep
      "boys_calls_per_quartet_single": 1.0,
      "max_abs_diff_vs_single": 0.0,    # the independence invariant
      "max_abs_diff_vs_scalar": ...,    # <= 1e-12
      "cache_hit_rate_cycle2": 1.0,     # semi-direct repeat cycle
      ...
    }

Run directly (``python benchmarks/bench_eri_micro.py``) or via the CI
benchmark smoke step, which uploads the JSON as an artifact so the
repository's performance trajectory has data points.

``--backend process`` switches to the execution-backend benchmark: one
shared-fock Fock build on ``bilayer_graphene(2)``/STO-3G, sim runtime
vs. ``--workers`` real worker processes, emitting ``BENCH_backend.json``
(structural parity keys gated in CI; wall-clock keys ignored).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path


def _surviving_shares(basis, tau=1e-10):
    """``(i, j, kls)`` per bra with a surviving ket, Algorithm 1's order."""
    from repro.core.indexing import decode_pair, npairs
    from repro.core.screening import Screening
    from repro.integrals.schwarz import schwarz_matrix

    screening = Screening(schwarz_matrix(basis), tau)
    shares = []
    for ij in range(npairs(basis.nshells)):
        kls = screening.surviving_kl_pairs(ij)
        if kls.size:
            shares.append((*decode_pair(ij), kls))
    return shares


def _share(engine, share, batched):
    """Every block of one share, the share or a quartet per call."""
    from repro.core.indexing import decode_pair

    i, j, kls = share
    if batched:
        return engine.composite_blocks(i, j, kls)
    return [engine.composite_block(i, j, *decode_pair(kl)) for kl in kls.tolist()]


def _sweep(engine, shares, batched):
    """Every block of every share."""
    return [_share(engine, share, batched) for share in shares]


#: The tracing-overhead gate: a ``--trace`` run fails when a sweep's
#: median paired traced/bare ratio exceeds 1 + this tolerance and its
#: median paired difference exceeds the absolute floor, so kernels of a
#: few milliseconds don't trip on noise.
TRACE_TOLERANCE = 0.05
TRACE_ABS_FLOOR_S = 0.02


def _time(engine, shares, batched, repeats, tracer=None):
    """Wall seconds of one sweep: best of ``repeats``, and with a tracer
    the median over them of the traced/bare ratio and difference.

    With a tracer each share of every sweep is timed twice back to
    back, bare and traced, alternating in ABBA order from share to share
    and from sweep to sweep, so a swing of the host's speed lands on
    both sides of a pair; the best sweep is the traced one.
    """
    import statistics

    from repro.obs.tracer import set_tracer

    bare, traced = [], []
    for r in range(repeats):
        wall = {None: 0.0, tracer: 0.0}
        for k, share in enumerate(shares):
            order = ((None, tracer), (tracer, None))[(r + k) % 2]
            for side in order if tracer else (None,):
                set_tracer(side)
                t0 = time.perf_counter()
                _share(engine, share, batched)
                wall[side] += time.perf_counter() - t0
                set_tracer(None)
        bare.append(wall[None])
        traced.append(wall[tracer])
    if tracer is None:
        return min(bare), None, None
    return (
        min(traced),
        statistics.median(t / b for t, b in zip(traced, bare)),
        statistics.median(t - b for t, b in zip(traced, bare)),
    )


def _max_abs_diff(blocks, reference):
    import numpy as np

    return max(
        float(np.max(np.abs(a - b)))
        for share, ref_share in zip(blocks, reference)
        for a, b in zip(share, ref_share)
    )


def run(output: Path, repeats: int = 3, tracer=None) -> dict:
    """The kernel benchmark; ``tracer`` pairs every timed sweep with a
    traced one (see :func:`_time`)."""
    import repro.core.quartets as quartets_mod
    from repro.chem.basis import BasisSet
    from repro.chem.graphene import bilayer_graphene
    from repro.core.quartets import QuartetEngine
    from repro.integrals.cache import QuartetCache
    from repro.obs.metrics import MetricsRegistry, use_metrics

    # The scalar oracle lives in the test tree.
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    from tests.oracles import eri_bra_slab_scalar

    basis = BasisSet(bilayer_graphene(1), "6-31g(d)")
    shares = _surviving_shares(basis)
    nquartets = sum(kls.size for _, _, kls in shares)

    # The production path: one share per call.  Instrumented to show
    # fewer than one Boys call per (composite) quartet.
    def counted(batched):
        registry = MetricsRegistry()
        with use_metrics(registry):
            _sweep(QuartetEngine(basis), shares, batched)
        return (
            registry.counter("eri.boys_calls").value,
            registry.counter("eri.quartets").value,
            registry.histogram("eri.batch_size"),
        )

    boys_calls, counted_quartets, batch_hist = counted(batched=True)
    boys_per_quartet = boys_calls / counted_quartets
    boys_calls_single, counted_quartets, _ = counted(batched=False)
    boys_per_quartet_single = boys_calls_single / counted_quartets

    # Pair E-tensor preparation is amortized across an SCF run; each
    # engine sweeps once untimed so the timings are the quartet kernel's.
    engine = QuartetEngine(basis)
    blocks = _sweep(engine, shares, batched=True)
    singles = _sweep(engine, shares, batched=False)
    walls = {
        "batched": _time(engine, shares, True, repeats, tracer),
        "single": _time(engine, shares, False, repeats, tracer),
    }

    # The scalar oracle (the seed's primitive loops) under the same sweep.
    kernel = quartets_mod.eri_bra_slab
    quartets_mod.eri_bra_slab = eri_bra_slab_scalar
    try:
        engine = QuartetEngine(basis)
        scalars = _sweep(engine, shares, batched=True)
        walls["scalar"] = _time(engine, shares, True, repeats, tracer)
    finally:
        quartets_mod.eri_bra_slab = kernel

    # Semi-direct repeat cycle: everything served from the cache.
    cache = QuartetCache.from_mb(256)
    engine = QuartetEngine(basis, cache=cache)
    _sweep(engine, shares, batched=True)
    h0, m0 = cache.hits, cache.misses
    walls["cached_cycle2"] = _time(engine, shares, True, repeats, tracer)
    cycle2_hits = cache.hits - h0  # every timed sweep is one more cycle 2
    cycle2_misses = cache.misses - m0

    scalar_s, single_s, batched_s = (
        walls[k][0] for k in ("scalar", "single", "batched"))
    cached_s = walls["cached_cycle2"][0]
    record = {
        "name": "bench_eri_micro",
        "fixture": "bilayer_graphene(1)/6-31g(d)",
        "nshells": basis.nshells,
        "nbf": basis.nbf,
        "quartets": nquartets,
        "shares": len(shares),
        "scalar_wall_s": scalar_s,
        "single_wall_s": single_s,
        "batched_wall_s": batched_s,
        "cached_cycle2_wall_s": cached_s,
        "scalar_quartets_per_s": nquartets / scalar_s,
        "single_quartets_per_s": nquartets / single_s,
        "batched_quartets_per_s": nquartets / batched_s,
        "cached_quartets_per_s": nquartets / cached_s if cached_s > 0 else None,
        "speedup": scalar_s / batched_s,
        "speedup_vs_single": single_s / batched_s,
        "boys_calls": boys_calls,
        "boys_calls_per_quartet": boys_per_quartet,
        "boys_calls_per_quartet_single": boys_per_quartet_single,
        "mean_primitive_batch_size": batch_hist.mean,
        "max_primitive_batch_size": batch_hist.max,
        "max_abs_diff_vs_single": _max_abs_diff(blocks, singles),
        "max_abs_diff_vs_scalar": _max_abs_diff(blocks, scalars),
        "cache_hit_rate_cycle2": cycle2_hits / (cycle2_hits + cycle2_misses),
        "cycle2_quartets_evaluated": cycle2_misses,
    }
    if tracer is not None:
        for name, (_, ratio, diff) in walls.items():
            record[f"{name}_trace_ratio"] = ratio
            record[f"{name}_trace_diff_s"] = diff
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return record


def run_backend(output: Path, workers: int = 4, repeats: int = 3) -> dict:
    """Sim vs. process-backend Fock-build micro-benchmark.

    One shared-fock Fock build on the small bilayer-graphene patch
    (``bilayer_graphene(2)``/STO-3G), best of ``repeats``: once on the
    deterministic single-process sim runtime, once on ``workers`` real
    worker processes.  Emits ``BENCH_backend.json`` with the structural
    contract keys (quartet counts, parity delta) `repro compare` gates
    on, plus machine-dependent wall/speedup keys the gate ignores.
    """
    import os

    import numpy as np

    from repro.chem.basis import BasisSet
    from repro.chem.graphene import bilayer_graphene
    from repro.core.scf_driver import make_fock_builder
    from repro.integrals.onee import core_hamiltonian
    from repro.parallel.backend import make_backend

    basis = BasisSet(bilayer_graphene(2), "sto-3g")
    hcore = core_hamiltonian(basis)
    rng = np.random.default_rng(7)
    density = rng.standard_normal((basis.nbf, basis.nbf)) * 0.1
    density = density + density.T
    geometry = dict(nranks=workers, nthreads=1)

    def best_of(builder):
        best, result = float("inf"), None
        for _ in range(repeats):
            t0 = time.perf_counter()
            F, stats = builder(density)
            best = min(best, time.perf_counter() - t0)
            result = (F, stats)
        return best, result

    sim_builder = make_fock_builder("shared-fock", basis, hcore, **geometry)
    sim_s, (F_sim, sim_stats) = best_of(sim_builder)

    inner = make_fock_builder("shared-fock", basis, hcore, **geometry)
    with make_backend("process", workers=workers) as backend:
        proc_s, (F_proc, proc_stats) = best_of(backend.wrap_builder(inner))

    delta = float(np.max(np.abs(F_proc - F_sim)))
    record = {
        "name": "bench_backend_micro",
        "fixture": "bilayer_graphene(2)/sto-3g",
        "nshells": basis.nshells,
        "nbf": basis.nbf,
        "workers": workers,
        "cpu_count": os.cpu_count(),
        "quartets_computed": sim_stats.quartets_computed,
        "process_quartets_computed": proc_stats.quartets_computed,
        "max_abs_fock_delta": delta,
        "parity_ok": delta <= 1.0e-12,
        "sim_build_wall_s": sim_s,
        "process_build_wall_s": proc_s,
        "speedup_process": sim_s / proc_s if proc_s > 0 else None,
    }
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return record


def run_schedule(output: Path, nranks: int = 8) -> dict:
    """Distribution-strategy matrix: imbalance vs. counter traffic.

    Drains every scheduler strategy over two quartet-cost workloads —
    uniform (every ``ij`` task equally expensive) and skewed (the real
    Schwarz-surviving ket-pair counts of the graphene fixture) — with a
    deterministic cost clock: at each step the rank with the smallest
    accumulated cost draws next, and every counter/queue RPC the
    strategy incurs is charged at 5% of the mean task cost.  Emits
    ``BENCH_sched.json`` with flat, machine-independent keys (pure
    arithmetic, no wall timing) so CI can gate on them exactly.
    """
    import numpy as np

    from repro.chem.basis import BasisSet
    from repro.chem.graphene import bilayer_graphene
    from repro.core.screening import Screening
    from repro.integrals.schwarz import schwarz_matrix
    from repro.config import SCHEDULES
    from repro.parallel.scheduler import make_scheduler

    basis = BasisSet(bilayer_graphene(2), "sto-3g")
    screening = Screening(schwarz_matrix(basis), 1e-10)
    skewed = screening.pair_survivor_counts().astype(float)
    ntasks = int(skewed.size)
    workloads = {"uniform": np.ones(ntasks), "skewed": skewed}

    def drain(schedule: str, costs) -> dict:
        sch = make_scheduler(schedule, ntasks, nranks, costs=costs)
        fetch = 0.05 * float(costs.mean())
        clock = [0.0] * nranks
        done = [False] * nranks
        traffic = 0
        while not all(done):
            r = min(
                (c, i) for i, (c, d) in enumerate(zip(clock, done)) if not d
            )[1]
            task = sch.next(r)
            after = sch.counter_traffic()
            if task is None:
                done[r] = True
            else:
                clock[r] += float(costs[task]) + (after - traffic) * fetch
            traffic = after
        loads = [
            float(sum(costs[t] for t in tasks))
            for tasks in sch.assignment()
        ]
        mean = sum(loads) / len(loads)
        return {
            "imbalance": max(loads) / mean if mean > 0 else 1.0,
            "counter_ops": sch.counter_traffic(),
            "makespan_units": max(clock),
        }

    record = {
        "name": "bench_schedule_matrix",
        "fixture": "bilayer_graphene(2)/sto-3g",
        "nranks": nranks,
        "ntasks": ntasks,
    }
    for label, costs in workloads.items():
        best_sched, best_span = None, float("inf")
        for sched in SCHEDULES:
            cell = drain(sched, costs)
            record[f"{label}_{sched}_imbalance"] = cell["imbalance"]
            record[f"{label}_{sched}_counter_ops"] = cell["counter_ops"]
            record[f"{label}_{sched}_makespan_units"] = cell["makespan_units"]
            if cell["makespan_units"] < best_span:
                best_sched, best_span = sched, cell["makespan_units"]
        record[f"winner_{label}"] = best_sched
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return record


def _default_output(mode: str) -> Path:
    name = {
        "process": "BENCH_backend.json",
        "schedule": "BENCH_sched.json",
    }.get(mode, "BENCH_eri.json")
    return Path(__file__).parent / "results" / name


def _bench_obs_setup(args, output: Path):
    """Register the bench run and (optionally) set up live instruments.

    Returns ``(handle, channel, span_writer, tracer)``; any may be
    ``None``.
    The registry record makes benchmark runs diffable like any SCF:
    ``repro compare`` on their ``metrics.json``.  ``--telemetry``
    installs a telemetry channel as the process event log (as the
    service daemon does) and measures its overhead on the hot path.
    ``--trace`` builds a distributed tracer (context-stamped spans, each
    serialized and written to NDJSON as it closes: the kernel has no SCF
    cycle to batch on, so this is a stricter sink than a service
    worker's) that :func:`run` installs for one side of each timed pair.
    """
    from repro.obs.registry import RunRegistry

    handle = None
    if not args.no_registry:
        handle = RunRegistry(args.runs_dir).register(
            "bench",
            config={
                "name": "bench_eri_micro",
                "backend": args.backend,
                "workers": args.workers,
                "repeats": args.repeats,
                "telemetry": args.telemetry,
                "trace": args.trace,
                "output": str(output),
            },
        )
    channel = None
    if args.telemetry:
        from repro.obs.events import set_event_log
        from repro.obs.stream import ObsStreamer
        from repro.obs.telemetry import TelemetryChannel

        channel = TelemetryChannel()
        if handle is not None:
            # Closed at exit: the file is unbuffered, every line durable.
            ObsStreamer(handle.directory, log=channel)
        set_event_log(channel)
    span_writer = tracer = None
    if args.trace:
        from repro.obs.export import span_record
        from repro.obs.stream import NDJSONStreamWriter
        from repro.obs.tracer import (
            TraceContext,
            Tracer,
            new_span_id,
            new_trace_id,
        )

        spans_path = (handle.path("spans.ndjson") if handle is not None
                      else output.parent / f"{output.stem}.spans.ndjson")
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        span_writer = NDJSONStreamWriter(spans_path)
        writer = span_writer
        tracer = Tracer(
            context=TraceContext(new_trace_id(), new_span_id()),
            on_close=lambda s: writer.write(span_record(s, 0.0)),
        )
    return handle, channel, span_writer, tracer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", type=Path, default=None)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--telemetry", action="store_true",
        help="install a live telemetry channel for the measured section "
             "(the overhead benchmark: results must stay within the "
             "compare gate's tolerance of a bare run)",
    )
    parser.add_argument(
        "--trace", action="store_true",
        help="the tracing-overhead gate: time each share of --repeats "
             "kernel sweeps twice back to back, bare and under a tracer "
             "(context-stamped spans streamed to NDJSON), alternating in "
             "ABBA order, and fail (exit 1) when a sweep's median "
             "traced/bare ratio exceeds 1.05 and its median difference "
             "0.02 s",
    )
    parser.add_argument(
        "--no-registry", action="store_true",
        help="do not record this benchmark in the persistent run registry",
    )
    parser.add_argument(
        "--runs-dir", type=Path, default=None,
        help="run registry root (default: $REPRO_RUNS_DIR or .repro/runs)",
    )
    parser.add_argument(
        "--backend", choices=("kernel", "process"), default="kernel",
        help="'kernel' (default) benchmarks the ERI hot path; 'process' "
             "benchmarks one Fock build on the real-process execution "
             "backend against the single-process sim runtime and emits "
             "BENCH_backend.json",
    )
    parser.add_argument(
        "--workers", type=int, default=4,
        help="worker process count for --backend process (default: 4)",
    )
    parser.add_argument(
        "--schedule", action="store_true",
        help="run the distribution-strategy matrix instead: drain both "
             "schedulers (dlb/static) over uniform "
             "and skewed quartet-cost workloads and emit "
             "BENCH_sched.json (deterministic; CI gates on it exactly)",
    )
    parser.add_argument(
        "--ranks", type=int, default=8,
        help="rank count for the --schedule matrix (default: 8)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="kernel mode: fail (exit 1) unless the share sweep is >= 2x "
             "the scalar oracle, records one Boys call per share (fewer "
             "than one per quartet; exactly one on the one-ket sweep), is bitwise "
             "equal to the one-ket sweep and within 1e-12 of the oracle, "
             "and the cycle-2 cache hit rate is 100%%. process "
             "mode: fail unless sim<->process parity holds, plus — only "
             "on machines with >= 2 CPUs — a >= 1.5x speedup at 4+ workers",
    )
    args = parser.parse_args(argv)
    mode = "schedule" if args.schedule else args.backend
    output = args.output or _default_output(mode)
    handle, channel, span_writer, tracer = _bench_obs_setup(args, output)
    try:
        rc, record = _bench_run(args, output, tracer)
    finally:
        if channel is not None:
            from repro.obs.events import set_event_log

            set_event_log(None)
            channel.close()
        if span_writer is not None:
            span_writer.close()
    if handle is not None:
        handle.add_artifact("record", output)
        handle.finalize(
            status="done" if rc == 0 else "failed",
            metrics={
                k: v for k, v in record.items()
                if isinstance(v, (int, float)) and not isinstance(v, bool)
            },
            summary={"name": record.get("name"), "check_ok": rc == 0},
        )
    return rc


def _bench_run(args, output: Path, tracer=None) -> tuple[int, dict]:
    if args.schedule:
        from repro.config import SCHEDULES

        record = run_schedule(output, nranks=args.ranks)
        print(f"fixture                : {record['fixture']}")
        print(f"ranks x tasks          : {record['nranks']} x "
              f"{record['ntasks']}")
        for label in ("uniform", "skewed"):
            for sched in SCHEDULES:
                print(f"{label:>8s} {sched:<7s}: "
                      f"imb {record[f'{label}_{sched}_imbalance']:.4f}  "
                      f"rpcs {record[f'{label}_{sched}_counter_ops']:>5d}  "
                      f"makespan {record[f'{label}_{sched}_makespan_units']:.1f}")
            print(f"{label:>8s} winner : {record[f'winner_{label}']}")
        print(f"wrote {output}")
        if args.check:
            ok = (
                record["uniform_static_counter_ops"] == 0
                and record["skewed_static_counter_ops"] == 0
                and all(
                    record[f"{w}_{s}_imbalance"] >= 1.0
                    for w in ("uniform", "skewed")
                    for s in SCHEDULES
                )
            )
            if not ok:
                print("CHECK FAILED", file=sys.stderr)
                return 1, record
        return 0, record

    if args.backend == "process":
        import os

        record = run_backend(output, workers=args.workers, repeats=args.repeats)
        print(f"fixture                : {record['fixture']}")
        print(f"workers                : {record['workers']} "
              f"(host cpus: {record['cpu_count']})")
        print(f"sim build              : {record['sim_build_wall_s'] * 1e3:.1f} ms")
        print(f"process build          : {record['process_build_wall_s'] * 1e3:.1f} ms")
        print(f"speedup (process)      : {record['speedup_process']:.2f}x")
        print(f"max |F_proc - F_sim|   : {record['max_abs_fock_delta']:.3e}")
        print(f"wrote {output}")
        if args.check:
            ok = record["parity_ok"] and (
                record["quartets_computed"]
                == record["process_quartets_computed"]
            )
            # The scaling gate only means something with real cores to
            # scale onto; single-CPU hosts measure pure overhead.
            if (record["cpu_count"] or 1) < 2:
                print("(cpu_count < 2: speedup gate skipped)")
            elif record["workers"] < 4:
                print(f"(workers = {record['workers']} < 4: speedup gate skipped)")
            else:
                ok = ok and record["speedup_process"] >= 1.5
            if not ok:
                print("CHECK FAILED", file=sys.stderr)
                return 1, record
        return 0, record

    record = run(output, repeats=args.repeats, tracer=tracer)
    print(f"fixture                : {record['fixture']}")
    print(f"surviving quartets     : {record['quartets']} "
          f"in {record['shares']} shares")
    print(f"scalar oracle          : {record['scalar_quartets_per_s']:.1f} quartets/s")
    print(f"one ket per call       : {record['single_quartets_per_s']:.1f} quartets/s")
    print(f"one share per call     : {record['batched_quartets_per_s']:.1f} quartets/s")
    print(f"cached (cycle 2)       : {record['cached_quartets_per_s']:.1f} quartets/s")
    print(f"speedup vs oracle      : {record['speedup']:.2f}x")
    print(f"speedup vs one ket     : {record['speedup_vs_single']:.2f}x")
    print(f"boys calls / quartet   : {record['boys_calls_per_quartet']:.3f} "
          f"(one ket: {record['boys_calls_per_quartet_single']:.3f})")
    print(f"max |diff| vs one ket  : {record['max_abs_diff_vs_single']:.1e}")
    print(f"max |diff| vs oracle   : {record['max_abs_diff_vs_scalar']:.1e}")
    print(f"cycle-2 cache hit rate : {100 * record['cache_hit_rate_cycle2']:.1f}%")
    print(f"wrote {output}")

    if tracer is not None:
        failed = []
        for name in ("scalar", "single", "batched", "cached_cycle2"):
            ratio = record[f"{name}_trace_ratio"]
            diff = record[f"{name}_trace_diff_s"]
            ok = ratio <= 1.0 + TRACE_TOLERANCE or diff <= TRACE_ABS_FLOOR_S
            print(f"traced/bare {name:<13s}: {ratio:.4f} "
                  f"({diff * 1e3:+.2f} ms) {'ok' if ok else 'FAIL'}")
            if not ok:
                failed.append(name)
        if failed:
            print(f"TRACE OVERHEAD GATE FAILED: {failed}", file=sys.stderr)
            return 1, record

    if args.check:
        ok = (
            record["speedup"] >= 2.0
            and record["boys_calls_per_quartet"] < 1.0
            and record["boys_calls"] == record["shares"]
            and record["boys_calls_per_quartet_single"] == 1.0
            and record["max_abs_diff_vs_single"] == 0.0
            and record["max_abs_diff_vs_scalar"] <= 1.0e-12
            and record["cache_hit_rate_cycle2"] == 1.0
            and record["cycle2_quartets_evaluated"] == 0
        )
        if not ok:
            print("CHECK FAILED", file=sys.stderr)
            return 1, record
    return 0, record


if __name__ == "__main__":
    sys.exit(main())
