"""The traced pass: per-layer metrics from spans around public calls.

``--trace 1`` replays one unit of a workload under the benchmark's own
:class:`~harness.SpanRecorder` — no span is added inside the program.

Direct workloads are replayed in this process: the set-up calls
``cmd_scf`` makes, then the SCF through the public ``RHF``/``UHF``
``fock_builder`` argument so that every Fock build is one span.  What
happens *inside* a Fock build is then measured by sweeping each layer's
kernel once over the same inputs (``QuartetEngine.composite_block`` over
the survivors, ``scatter_*`` over the cached blocks,
``ColumnBlockBuffer.add/flush``, ``QuartetCache.put/get``,
``Scheduler.next``, the reductions): one span per sweep, so the span
cost never sits inside the number.

The service workload is not replayed — the daemon journals every
transition on the shared ``perf_counter`` base and its workers already
stream their spans to disk, so one ordinary unit is run and the spans
are assembled from those records.

All ``*_s`` metrics are seconds of one unit (or one sweep = one Fock
build's worth of that kernel); counts repeat exactly from pass to pass.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import multiprocessing
import os
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Callable

import harness
import workloads
from harness import Sandbox, SpanRecorder
from workloads import PER_LAYER, Workload

CALIB_SAMPLES = 20


# -- host ---------------------------------------------------------------------


def calibrate() -> tuple[float, float]:
    """(min seconds of a fixed interpreter + NumPy loop, disturbed fraction).

    The loop never changes, so a slower ``host.calib_s`` means a slower
    or busier host, not a slower program; ``host.disturbed_frac`` is the
    share of samples more than 10 % above the minimum.
    """
    import numpy as np

    a = np.linspace(0.0, 1.0, 64 * 64).reshape(64, 64)
    samples = []
    for _ in range(CALIB_SAMPLES):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(4000):
            acc += (i * 0.5) % 3.0
        for _ in range(40):
            acc += float(np.einsum("ij,jk->ik", a, a)[0, 0])
        samples.append(time.perf_counter() - t0)
    floor = min(samples)
    return floor, sum(s > 1.10 * floor for s in samples) / len(samples)


def cli_floor(sandbox: Sandbox, n: int) -> float:
    """Interpreter + ``import repro.cli`` + parser: no SCF change moves it."""
    argv = [sys.executable, "-m", "repro", "scf", "--help"]
    return min(sandbox.run(argv, "floor").wall_s for _ in range(n))


def _best(rec: SpanRecorder, name: str, fn: Callable[[], Any],
          repeats: int = 3) -> float:
    """Minimum seconds of ``fn()`` over ``repeats`` spans called ``name``.

    The host's disturbance is additive, so the minimum is the cost of
    the kernel itself — the same reasoning as for the end-to-end times.
    """
    for _ in range(repeats):
        with rec.span(name):
            fn()
    return min(s.duration for s in rec.named(name)[-repeats:])


# -- kernels shared by both kinds of workload ----------------------------------


def obs_kernels(rec: SpanRecorder, runs_dir: Path) -> dict[str, float]:
    """Registry record, program-tracer span and telemetry publish costs."""
    from repro.obs import RunRegistry, TelemetryChannel, Tracer

    n = 1000

    def registry_run() -> None:
        handle = RunRegistry(runs_dir).register("scf", config={"probe": True})
        handle.finalize(status="done", metrics={"x": 1.0}, summary={"x": 1.0})

    def program_spans() -> None:
        tracer = Tracer()
        for _ in range(n):
            with tracer.span("probe"):
                pass

    channel = TelemetryChannel()
    channel.subscribe(lambda record: None)

    def publishes() -> None:
        for i in range(n):
            channel.publish("probe", i=i)

    try:
        return {
            "obs.registry_run_s": _best(rec, "obs.registry_run", registry_run),
            "obs.span_cost_us":
                _best(rec, "obs.span_cost", program_spans) / n * 1e6,
            "obs.telemetry_publish_us":
                _best(rec, "obs.telemetry_publish", publishes) / n * 1e6,
        }
    finally:
        channel.close()


def checkpoint_write_s(rec: SpanRecorder, path: Path, kind: str,
                       densities: tuple, nelectrons: int) -> float:
    """One per-cycle checkpoint write of a state this size (6 DIIS vectors)."""
    import numpy as np
    from repro.resilience import CheckpointManager
    from repro.resilience.checkpoint import SCFCheckpoint

    nbf = densities[0].shape[0]
    vectors = [np.full((nbf, nbf), 0.25 * k) for k in range(6)]
    state = SCFCheckpoint(
        kind=kind, cycle=6, energy=-1.0, densities=densities,
        diis_focks=vectors, diis_errors=vectors,
        history=np.zeros((6, 4)), nbf=nbf, nelectrons=nelectrons,
    )
    manager = CheckpointManager(path, every=1)
    return _best(rec, "resilience.checkpoint_write",
                 lambda: manager.maybe_save(state))


# -- direct workloads: the replayed unit ---------------------------------------


class _Unit:
    """Everything the replayed unit leaves for the kernel sweeps."""

    args: Any
    basis: Any
    hcore: Any
    Q: Any
    builder: Any
    driver: Any
    result: Any
    fock_stats: list
    uhf: bool


def replay_unit(w: Workload, rec: SpanRecorder, runs_dir: Path) -> _Unit:
    """What ``repro scf`` does, call by call, each call inside a span.

    That includes the observability envelope ``cmd_scf`` wraps around
    the SCF — a run-registry record, a process-wide event log and
    metrics registry, events streamed to the run directory — because an
    installed registry makes every instrumented call in the layers
    below count, which is a measurable part of the real unit.
    """
    u = _Unit()
    u.fock_stats = []
    with contextlib.ExitStack() as obs, rec.span("unit", workload=w.name):
        with rec.span("cli.import"):
            from repro import cli
            from repro.chem.basis import BasisSet
            from repro.chem.molecule import Molecule
            from repro.core.fock_uhf import UHFPrivateFockBuilder
            from repro.core.scf_driver import make_fock_builder
            from repro.core.screening import DEFAULT_TAU, Screening
            from repro.integrals.onee import kinetic_matrix, nuclear_matrix
            from repro.integrals.schwarz import schwarz_matrix
            from repro.obs import (
                EventLog, MetricsRegistry, ObsStreamer, RunRegistry,
                use_event_log, use_metrics, write_prometheus)
            from repro.scf.rhf import RHF
            from repro.scf.uhf import UHF
            import repro.resilience  # noqa: F401  (cmd_scf imports it too)
        with rec.span("cli.parse"):
            args = cli.build_parser().parse_args(workloads.scf_argv(w)[3:])
        u.args, u.uhf = args, bool(args.uhf)
        with rec.span("chem.setup"):
            mol = Molecule.from_xyz(args.xyz.read_text(), charge=args.charge)
            u.basis = BasisSet(mol, args.basis)
        with rec.span("obs.session", phase="open"):
            handle = RunRegistry(runs_dir).register(
                "scf", config={"molecule": mol.name, "basis": args.basis,
                               "algorithm": args.algorithm})
            log = obs.enter_context(use_event_log(EventLog()))
            metrics = obs.enter_context(use_metrics(MetricsRegistry()))
            obs.enter_context(ObsStreamer(handle.directory, log=log))
        with rec.span("integrals.onee", via="hcore"):
            u.hcore = kinetic_matrix(u.basis) + nuclear_matrix(u.basis)
        with rec.span("integrals.schwarz"):
            u.Q = schwarz_matrix(u.basis)
        with rec.span("core.setup"):
            kwargs = dict(
                nranks=args.ranks, nthreads=args.threads,
                screening=Screening(u.Q, DEFAULT_TAU),
                eri_cache_mb=None if args.no_eri_cache else args.eri_cache_mb,
                schedule=args.schedule,
            )
            if u.uhf:
                u.builder = UHFPrivateFockBuilder(u.basis, u.hcore, **kwargs)
            else:
                u.builder = make_fock_builder(
                    args.algorithm, u.basis, u.hcore, **kwargs)

        def rhf_build(D):
            with rec.span("core.fock_build", cycle=len(u.fock_stats) + 1):
                F, stats = u.builder(D)
            u.fock_stats.append(stats)
            return F, {"fock": stats}

        def uhf_build(da, db):
            with rec.span("core.fock_build", cycle=len(u.fock_stats) + 1):
                fa, fb, stats = u.builder(da, db)
            u.fock_stats.append(stats)
            return fa, fb, stats

        with rec.span("integrals.onee", via="driver.__init__"):
            if u.uhf:
                u.driver = UHF(u.basis, multiplicity=args.multiplicity,
                               fock_builder=uhf_build)
            else:
                u.driver = RHF(u.basis, rhf_build)
        with rec.span("scf.run"):
            u.result = u.driver.run()
        with rec.span("obs.session", phase="finalize"):
            write_prometheus(metrics, handle.path("metrics.prom"))
            handle.finalize(
                status="done",
                metrics={k: v for k, v in metrics.snapshot().items()
                         if isinstance(v, (int, float))},
                summary={"energy": u.result.energy,
                         "converged": u.result.converged,
                         "iterations": u.result.niterations},
                event_counts={"scf.cycle": u.result.niterations},
            )
            obs.close()
    return u


# -- direct workloads: one Fock build's worth of each kernel ---------------------


def _tasks(u: _Unit) -> tuple[list[tuple[int, int, list]], int]:
    """Surviving quartets in the builder's own loop order, grouped by task.

    One ``(rank, task, quartets)`` group per MPI task that passes the
    bra prescreen, in the order the build's scheduler grants them to
    each rank — which is what lets the buffer sweep flush exactly as
    often as the real build.  Returns (groups, screened count).
    """
    from repro.core.indexing import decode_pair, decode_pairs, lmax_for

    b = u.builder
    scr = b.screening
    groups, screened = [], 0
    for rank, rank_tasks in enumerate(b.make_scheduler().assignment()):
        for task in rank_tasks:
            group = []
            if b.algorithm_name == "shared-fock":
                i, j = decode_pair(task)
                if not scr.prescreen_ij(i, j):
                    screened += task + 1
                    continue
                kl = scr.surviving_kl_pairs(task)
                screened += task + 1 - kl.size
                ks, ls = decode_pairs(kl)
                group = [(i, j, int(k), int(l)) for k, l in zip(ks, ls)]
            else:
                if b.algorithm_name == "mpi-only":
                    i, j = decode_pair(task)
                    bras = [(i, j)]
                else:  # private-fock, uhf-private-fock: task = shell i
                    bras = [(task, j) for j in range(task + 1)]
                for i, j in bras:
                    for k in range(i + 1):
                        for l in range(lmax_for(i, j, k) + 1):
                            if scr.survives(i, j, k, l):
                                group.append((i, j, k, l))
                            else:
                                screened += 1
            groups.append((rank, task, group))
    return groups, screened


def kernel_sweeps(u: _Unit, rec: SpanRecorder) -> dict[str, float]:
    """Sweep every in-build kernel over the converged unit's inputs.

    Each ``*_s`` is the best of three sweeps; one sweep is one Fock
    build's worth of that kernel.
    """
    import numpy as np
    from repro.core.buffers import ColumnBlockBuffer
    from repro.core.indexing import decode_pair
    from repro.core.quartets import QuartetEngine
    from repro.integrals.cache import QuartetCache
    from repro.integrals.eri import make_shell_pairs
    from repro.obs import MetricsRegistry, use_metrics
    from repro.parallel.comm import SimWorld
    from repro.parallel.reduction import padded_rows, tree_reduce_columns
    from repro.scf.diis import DIIS
    from repro.scf.guess import core_guess_density, diagonalize_fock

    b, res, drv = u.builder, u.result, u.driver
    nbf = u.basis.nbf
    m: dict[str, float] = {}

    m["core.screening_s"] = _best(rec, "core.screening", lambda: _tasks(u))
    groups, screened = _tasks(u)
    quartets = [q for _rank, _task, group in groups for q in group]
    m["core.screening_survivors"] = len(quartets)
    m["core.screening_screened"] = screened

    m["integrals.pair_prep_s"] = _best(
        rec, "integrals.pair_prep", lambda: make_shell_pairs(u.basis.shells))

    # A counting sweep first (it also builds the engine's pair data and
    # keeps the blocks), then the timed ones.
    engine = QuartetEngine(u.basis)
    counters = MetricsRegistry()
    with rec.span("integrals.eri_count"), use_metrics(counters):
        blocks = {q: engine.composite_block(*q) for q in quartets}
    m["integrals.eri_sweep_s"] = _best(
        rec, "integrals.eri_sweep",
        lambda: [engine.composite_block(*q) for q in quartets])
    m["integrals.eri_quartets_per_s"] = (
        len(quartets) / m["integrals.eri_sweep_s"])
    m["integrals.boys_calls_per_quartet"] = (
        counters.counter("eri.boys_calls").value / len(quartets))

    if b.eri_cache is not None:
        def cache_put() -> QuartetCache:
            cache = QuartetCache(b.eri_cache.max_bytes)
            for q, X in blocks.items():
                cache.put(q, X)
            return cache

        m["integrals.cache_put_s"] = _best(rec, "integrals.cache_put", cache_put)
        cache = cache_put()
        m["integrals.cache_get_s"] = _best(
            rec, "integrals.cache_get", lambda: [cache.get(q) for q in quartets])
        m["integrals.cache_bytes"] = b.eri_cache.bytes
        m["integrals.cache_hit_rate_cycle2"] = (
            u.fock_stats[1].eri_cache_hit_rate)

    # Digestion: the contractions plus the accumulation each algorithm
    # does itself (Algorithm 3 routes five of its six families via FI/FJ,
    # which the buffer sweep below times).
    W = np.zeros(b.accumulator_shape)
    contribs: list[dict] = []
    if u.uhf:
        da, db = res.densities
        dt = da + db

        def digest() -> None:
            for q, X in blocks.items():
                for spin, d in ((0, da), (1, db)):
                    for dest, val in engine.scatter_general(
                            X, dt, d, 2.0, -1.0, *q).values():
                        W[spin][dest] += val
    elif b.algorithm_name == "shared-fock":
        def digest() -> None:
            contribs.clear()
            for q, X in blocks.items():
                c = engine.scatter_contributions(X, res.density, *q)
                (rows, cols), val = c["kl"]
                W[rows, cols] += val
                contribs.append(c)
    else:
        def digest() -> None:
            for q, X in blocks.items():
                for dest, val in engine.scatter_contributions(
                        X, res.density, *q).values():
                    W[dest] += val
    m["core.digest_sweep_s"] = _best(rec, "core.digest_sweep", digest)

    if b.algorithm_name == "shared-fock":
        offsets, widths = u.basis.shell_bf_offsets(), u.basis.shell_nfuncs()
        width = u.basis.max_shell_nfunc()

        def buffers() -> int:
            """One FI/FJ pair per rank, flushed where rank_program flushes."""
            pending = iter(contribs)
            flushes = 0
            for _rank, rank_groups in itertools.groupby(
                    groups, key=lambda g: g[0]):
                FI = ColumnBlockBuffer(nbf, width, b.nthreads)
                FJ = ColumnBlockBuffer(nbf, width, b.nthreads)
                iold = -1
                for _, task, group in rank_groups:
                    i, j = decode_pair(task)
                    if i != iold and iold >= 0:
                        FI.flush(W, int(offsets[iold]), int(widths[iold]))
                    wi, wj = int(widths[i]), int(widths[j])
                    for n in range(len(group)):
                        c = next(pending)
                        t = n % b.nthreads
                        for key in ("ji", "ki", "li"):
                            (rows, _), val = c[key]
                            FI.add(t, rows, slice(0, wi), val)
                        for key in ("kj", "lj"):
                            (rows, _), val = c[key]
                            FJ.add(t, rows, slice(0, wj), val)
                    FJ.flush(W, int(offsets[j]), wj)
                    iold = i
                if iold >= 0:
                    FI.flush(W, int(offsets[iold]), int(widths[iold]))
                flushes += FI.flushes + FJ.flushes
            return flushes

        m["core.buffer_add_flush_s"] = _best(
            rec, "core.buffer_add_flush", buffers)
        last = u.fock_stats[-1]
        if buffers() != last.fi_flushes + last.fj_flushes:
            raise AssertionError("the buffer sweep does not flush as often "
                                 "as the build it replays")

    def drain() -> int:
        sched = b.make_scheduler()
        grants = 0
        for rank in range(b.nranks):
            while sched.next(rank) is not None:
                grants += 1
        return grants

    m["parallel.scheduler_drain_s"] = _best(
        rec, "parallel.scheduler_drain", drain)
    m["parallel.dlb_grants"] = drain()

    def reduce() -> None:
        world = SimWorld(b.nranks)
        world.execute(lambda comm: comm.gsumf(np.ones(b.accumulator_shape)))
        rows = nbf * u.basis.max_shell_nfunc()
        tree_reduce_columns(np.ones((padded_rows(rows), b.nthreads)), rows)

    m["parallel.reduce_s"] = _best(rec, "parallel.reduce", reduce)

    # SCF-loop kernels, one call each, scaled to the unit's cycle count.
    spins = 2 if u.uhf else 1
    F = res.focks[0] if u.uhf else res.fock
    D = res.densities[0] if u.uhf else res.density
    nocc = drv.nalpha if u.uhf else drv.nocc
    m["scf.guess_s"] = _best(
        rec, "scf.guess", lambda: core_guess_density(drv.hcore, drv.S, nocc))
    m["scf.diag_s"] = spins * res.niterations * _best(
        rec, "scf.diag", lambda: diagonalize_fock(F, drv.X))

    def diis_cycle() -> None:
        diis = DIIS()
        for _ in range(3):
            diis.push(F, DIIS.error_vector(F, D, drv.S, drv.X))
            diis.extrapolate()

    m["scf.diis_s"] = spins * res.niterations / 3 * _best(
        rec, "scf.diis", diis_cycle)
    return m


def process_diagnostics(u: _Unit, rec: SpanRecorder) -> tuple[dict, list[str]]:
    """One Fock build on 2 real worker processes — diagnostics, never gated.

    2 workers + this parent on 2 shared cores is the setting that ran
    77 % off its median as a wall-clock workload (PR 11); here it only
    says what the process backend's moving parts cost.
    """
    import numpy as np
    from repro.core.scf_driver import make_fock_builder
    from repro.core.screening import DEFAULT_TAU, Screening
    from repro.parallel.backend import make_backend
    from repro.parallel.backend.counter import SharedTaskCounter

    D = u.result.density
    shm_before = harness.shm_segments()
    inner = make_fock_builder(
        u.args.algorithm, u.basis, u.hcore, nranks=2,
        screening=Screening(u.Q.copy(), DEFAULT_TAU), eri_cache_mb=None)
    with rec.span("parallel.sim_build") as sim:
        F_sim, _ = inner(D)
    backend = make_backend("process", workers=2)
    try:
        with rec.span("parallel.backend_start") as start:
            builder = backend.wrap_builder(inner)
        with rec.span("parallel.process_build", first=True) as first:
            builder(D)
        with rec.span("parallel.process_build", first=False) as warm:
            F_proc, _ = builder(D)
        rss = max([harness.vm_hwm_mb(p.pid)
                   for p in multiprocessing.active_children()] or [0.0])
    finally:
        with rec.span("parallel.backend_shutdown") as stop:
            backend.shutdown()
    ntasks = inner.dlb_ntasks()
    counter = SharedTaskCounter(ntasks)
    counter.reset(ntasks)
    with rec.span("parallel.counter_claim") as claim:
        while counter.next(0) is not None:
            pass
    counter.close()
    leaked = sorted(harness.shm_segments() - shm_before)
    problems = [f"process backend leaked {seg}" for seg in leaked]
    if float(np.max(np.abs(F_proc - F_sim))) > 1e-10:
        problems.append("process-backend Fock differs from the sim build")
    return {
        # Workers fork lazily inside the first build: charge the excess
        # of the first build over a warm one to start-up.
        "parallel.backend_start_s":
            start.duration + max(0.0, first.duration - warm.duration),
        "parallel.backend_shutdown_s": stop.duration,
        "parallel.process_build_s": warm.duration,
        "parallel.build_speedup_2w": sim.duration / warm.duration,
        "parallel.counter_claim_us": claim.duration / ntasks * 1e6,
        "parallel.worker_peak_rss_mb": rss,
        "parallel.shm_leaked": len(leaked),
    }, problems


def trace_direct(w: Workload, sandbox: Sandbox, rec: SpanRecorder,
                 smoke: bool) -> tuple[dict, dict, int, list[str]]:
    """Metrics, detail, operations attempted and problems of a direct pass."""
    m: dict[str, float] = {}
    problems: list[str] = []
    ref = workloads.references()["direct"][w.name]

    # Untraced reference: the same unit as a plain child, for the overhead.
    untraced = []
    for _ in range(1 if smoke else 2):
        child = sandbox.run(workloads.scf_argv(w), "scf")
        problems += workloads.check_scf_child(child, ref)
        untraced.append(child.wall_s)
    attempted = len(untraced) + 1

    u = replay_unit(w, rec, sandbox.dir / "runs")
    unit = rec.index("unit")
    res = u.result
    if not res.converged or res.niterations != ref["iterations"] \
            or abs(res.energy - ref["energy"]) > workloads.ENERGY_TOL_EH:
        problems.append(
            f"replayed unit: E={res.energy:.10f} in {res.niterations} "
            f"iterations, converged={res.converged}; reference {ref}")

    from repro.obs import EventLog, MetricsRegistry, use_event_log, use_metrics

    with rec.span("replay"):
        # The kernels count into an installed registry, as in the unit.
        with use_event_log(EventLog()), use_metrics(MetricsRegistry()):
            m.update(kernel_sweeps(u, rec))
        m.update(obs_kernels(rec, sandbox.dir / "runs"))
        densities = res.densities if u.uhf else (res.density,)
        m["resilience.checkpoint_write_s"] = checkpoint_write_s(
            rec, sandbox.dir / "probe.npz", "uhf" if u.uhf else "rhf",
            densities, u.basis.molecule.nelectrons)
        if w.process_diagnostics:
            diag, diag_problems = process_diagnostics(u, rec)
            m.update(diag)
            problems += diag_problems
            attempted += 1

    builds = [s.duration for s in rec.named("core.fock_build")]
    stats = u.fock_stats
    last = stats[-1]
    wall = rec.spans[unit].duration
    warm = min(builds[1:])
    evaluations = sum(s.quartets_computed - s.eri_cache_hits for s in stats)
    eri_per_warm_build = (m["integrals.eri_sweep_s"]
                          if u.builder.eri_cache is None else 0.0)
    m.update({
        "cli.import_s": rec.total("cli.import"),
        "chem.setup_s": rec.total("chem.setup"),
        "integrals.onee_s": rec.total("integrals.onee"),
        "integrals.schwarz_s": rec.total("integrals.schwarz"),
        "integrals.eri_quartets": evaluations,
        "core.fock_build_cold_s": builds[0],
        "core.fock_build_warm_s": warm,
        "core.fock_bookkeeping_s": (
            warm - m["core.digest_sweep_s"] - eri_per_warm_build
            - m.get("integrals.cache_get_s", 0.0)),
        "core.fi_flushes": last.fi_flushes,
        "core.fj_flushes": last.fj_flushes,
        "core.reduce_bytes": last.reduce_bytes,
        "core.rank_imbalance": last.rank_imbalance,
        "core.thread_imbalance": last.thread_imbalance,
        "scf.iterations": res.niterations,
        "scf.non_fock_s": rec.total("scf.run") - sum(builds),
        "trace.coverage_frac": rec.children_cover(unit),
        "trace.overhead_frac": wall / min(untraced) - 1.0,
    })
    if last.quartets_computed != m["core.screening_survivors"] or \
            last.quartets_screened != m["core.screening_screened"]:
        problems.append(
            f"screening sweep found {m['core.screening_survivors']} survivors"
            f" / {m['core.screening_screened']} screened, the build "
            f"{last.quartets_computed} / {last.quartets_screened}")

    # Where one unit's wall went, from the spans and the per-build sweeps.
    eri_cycles = res.niterations if u.builder.eri_cache is None else 1
    shares = {
        "cli": (rec.total("cli.import") + rec.total("cli.parse")) / wall,
        "setup": (m["chem.setup_s"] + m["integrals.onee_s"]
                  + m["integrals.schwarz_s"] + rec.total("core.setup")) / wall,
        "fock_builds": sum(builds) / wall,
        "eri": m["integrals.eri_sweep_s"] * eri_cycles / wall,
        "scf_non_fock": m["scf.non_fock_s"] / wall,
        "obs": rec.total("obs.session") / wall,
    }
    shares["core_digest_bookkeeping"] = shares["fock_builds"] - shares["eri"]
    detail = {"unit_wall_s": wall, "untraced_child_s": untraced,
              "fock_builds_s": builds, "shares": shares}
    return m, detail, attempted, problems


# -- the service workload -------------------------------------------------------


def _worker_compute(runs_dir: Path, run_id: str) -> tuple[float, float, float]:
    """(start, end, seconds) of the ``scf/run`` span a job's worker wrote."""
    total, start, end = 0.0, 0.0, 0.0
    for path in sorted((runs_dir / run_id / "trace").glob("*.spans.ndjson")):
        for line in path.read_text().splitlines():
            span = json.loads(line)
            if span["span"] == "scf/run":
                total += span["dur_s"]
                start, end = span["start_s"], span["start_s"] + span["dur_s"]
    return start, end, total


def trace_service(sandbox: Sandbox, rec: SpanRecorder, seed: int
                  ) -> tuple[dict, dict, int, list[str]]:
    """One ordinary service unit; spans from the journal and worker files."""
    from repro.service.jobs import JobSpec
    from repro.service.queue import DurableJobQueue
    from repro.workload import load_manifest
    from repro.workload.scheduler import make_batch_scheduler

    result = workloads.RunResult("service_small_jobs", seed)
    manifest = sandbox.dir / "manifest.ndjson"
    jobs = workloads.write_manifest(manifest, seed)
    rep = workloads.run_service_rep(sandbox, 0, manifest, result)
    if rep is None:
        return {}, {}, result.attempted, result.problems
    teardown = workloads.reap_daemons(sandbox, [rep], result)[0]

    # Spans on the journal's clock: perf_counter is shared host-wide.
    by_id: dict[str, dict[str, float]] = {}
    for record in rep.journal:
        if record["op"] == "submit":
            job = record["job"]
            by_id[job["id"]] = {"client": job["client_t"], "submit": record["pt"]}
        elif record["op"] == "state" and record["state"] in ("running", "done"):
            # "running" is journalled twice (claim, then run id): keep the first.
            by_id[record["id"]].setdefault(record["state"], record["pt"])
    t_first = min(t["client"] for t in by_id.values())
    t_last = max(t["done"] for t in by_id.values())
    unit = rec.add("unit", t_first, t_last, workload="service_small_jobs")
    compute, fixed, acks = 0.0, [], []
    for row in rep.report["jobs"]:
        t = by_id[row["id"]]
        acks.append(t["submit"] - t["client"])
        rec.add("service.submit", t["client"], t["submit"], unit, job=row["id"])
        rec.add("service.queue_wait", t["submit"], t["running"], unit,
                job=row["id"])
        run = rec.add("service.run", t["running"], t["done"], unit,
                      job=row["id"], warm=bool(row["warm_setup"]))
        start, end, seconds = _worker_compute(
            sandbox.dir / "runs", row["run_id"])
        rec.add("scf.run", start, end, run, job=row["id"])
        compute += seconds
        fixed.append(row["run_s"] - seconds)

    tte = rep.time_to_energy_s
    waits = [row["queue_wait_s"] for row in rep.report["jobs"]]
    runs = [row["run_s"] for row in rep.report["jobs"]]
    bm = rep.report["metrics"]
    m = {
        "service.daemon_start_s": rep.daemon_start_s,
        "service.teardown_s": teardown,
        "service.submit_ack_p50_s": harness.percentile(acks, 50),
        "service.submit_ack_p95_s": harness.percentile(acks, 95),
        "service.queue_wait_p50_s": harness.percentile(waits, 50),
        "service.run_p50_s": harness.percentile(runs, 50),
        "service.worker_fixed_cost_s": statistics.median(fixed),
        "service.overhead_per_job_s": (tte - compute) / len(jobs),
        "service.compute_share": compute / tte,
        "service.jobs_per_s": len(jobs) / tte,
        "workload.cold_setups": bm["cold_setups"],
        "workload.warm_setups": bm["warm_setups"],
        "workload.cache_amortization_ratio": bm["cache_amortization_ratio"],
        # Union of the jobs' submit and run intervals over the unit: the
        # rest is the dispatch tick between a result and the next hand-off.
        "trace.coverage_frac": rec.children_cover(
            unit, skip=("service.queue_wait",)),
        # Nothing is instrumented: the journal and the worker span files
        # are written on every run, traced or not.
        "trace.overhead_frac": 0.0,
    }

    with rec.span("replay"):
        with rec.span("workload.manifest_parse") as s:
            specs = load_manifest(manifest)
        m["workload.manifest_parse_s"] = s.duration
        with rec.span("workload.plan") as s:
            make_batch_scheduler("binned").plan(specs)
        m["workload.plan_s"] = s.duration
        queue = DurableJobQueue(sandbox.dir / "probe-journal.ndjson")
        spec = JobSpec.from_dict(jobs[0])
        m["service.journal_append_s"] = _best(
            rec, "service.journal_append", lambda: queue.submit(spec),
            repeats=10)
        queue.close()
        m.update(obs_kernels(rec, sandbox.dir / "runs"))
        m["resilience.checkpoint_write_s"] = _water_checkpoint(
            rec, sandbox, jobs)
    detail = {"unit_wall_s": tte, "batch_child_s": rep.batch.wall_s,
              "compute_s": compute,
              "shares": {"scf_compute": compute / tte,
                         "service_overhead": 1.0 - compute / tte}}
    return m, detail, result.attempted, result.problems


def _water_checkpoint(rec: SpanRecorder, sandbox: Sandbox,
                      jobs: list[dict]) -> float:
    """The per-cycle checkpoint a water/STO-3G job writes (7 functions)."""
    import numpy as np
    from repro.chem.basis import BasisSet
    from repro.chem.molecule import Molecule

    job = next(j for j in jobs if j["basis"] == "sto-3g")
    basis = BasisSet(Molecule.from_xyz(job["xyz"]), job["basis"])
    return checkpoint_write_s(
        rec, sandbox.dir / "probe.npz", "rhf",
        (np.eye(basis.nbf),), basis.molecule.nelectrons)


# -- one traced run -------------------------------------------------------------


def run_traced(w: Workload, seed: int, *, smoke: bool = False
               ) -> tuple[dict, dict]:
    """The contract payload and the detail (spans included) of one pass."""
    sandbox = Sandbox(f"{w.name}-trace")
    rec = SpanRecorder(f"{w.name}:seed{seed}")
    try:
        calib_s, disturbed = calibrate()
        floor = cli_floor(sandbox, 1 if smoke else 3)
        with rec.span("trace", workload=w.name, seed=seed):
            if w.kind == "direct":
                m, detail, attempted, problems = trace_direct(
                    w, sandbox, rec, smoke)
            else:
                m, detail, attempted, problems = trace_service(
                    sandbox, rec, seed)
        problems += sandbox.census("traced pass")
    finally:
        sandbox.close()
    m.update({"cli.floor_s": floor, "host.calib_s": calib_s,
              "host.disturbed_frac": disturbed,
              "host.nproc": os.cpu_count() or 1})
    metrics = {name: {"value": float(m.get(name, 0.0)), "unit": unit}
               for name, unit, _better in PER_LAYER}
    for problem in problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    payload = {"correct": not problems, "attempted": attempted,
               "failed": min(len(problems), attempted), "metrics": metrics}
    detail.update({"workload": w.name, "seed": seed, "problems": problems,
                   "metrics": metrics, "spans": rec.to_json()})
    harness.write_json(harness.RESULTS / f"trace_{w.name}.json", detail)
    return payload, detail
