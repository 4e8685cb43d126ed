"""``repro scf`` and ``repro profile``: one SCF run in this process.

Both verbs take the run flags of :func:`repro.config.add_run_arguments`
(shared with ``repro submit`` and manifest entries), turn them into one
:class:`~repro.config.SCFConfig` and construct their SCF through
:func:`repro.core.scf_driver.build_scf`.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

from repro.commands import add_runs_dir, add_verb, energy_lines, read_input
from repro.config import ConfigError, SCFConfig, add_run_arguments, bounded

logger = logging.getLogger("repro.cli")

#: Process-backend tuning flags -> ``make_backend`` keywords.
_BACKEND_OPTIONS = {
    "schedule_seed": "schedule_seed",
    "heartbeat_interval": "heartbeat_interval_s",
    "heartbeat_timeout": "heartbeat_timeout_s",
}


def _add_host_args(sub: argparse.ArgumentParser) -> None:
    """What is about this host and this invocation rather than the run:
    process-backend tuning and the run registry."""
    positive = bounded(float, 0, strict=True)
    sub.add_argument(
        "--workers", type=bounded(int, 1), default=None, metavar="N",
        help="process-backend worker count (default: --ranks); must be "
             ">= 1 — ignored (with a warning) by the sim backend",
    )
    sub.add_argument(
        "--schedule-seed", type=int, default=None, metavar="SEED",
        help="process-backend scheduling-jitter seed: perturbs DLB "
             "claim arrival order for nondeterminism hunting (results "
             "must not change; the parity suite sweeps several seeds)",
    )
    sub.add_argument(
        "--heartbeat-interval", type=positive, default=None, metavar="S",
        help="process-backend worker heartbeat rate limit in seconds "
             "(default: 0.25); workers beat in-band at DLB claim "
             "boundaries",
    )
    sub.add_argument(
        "--heartbeat-timeout", type=positive, default=None, metavar="S",
        help="seconds of heartbeat silence before a pending worker is "
             "flagged suspect and a worker.hung event fires "
             "(default: 2.0)",
    )
    sub.add_argument(
        "--no-registry", action="store_true",
        help="do not record this run in the persistent run registry",
    )
    add_runs_dir(sub)


def register(sub) -> None:
    scf = add_verb(
        sub, "scf", cmd_scf, help="run an SCF calculation",
        description="Run RHF/UHF on an XYZ file.  The run flags are the "
                    "ones 'repro profile', 'repro submit' and manifest "
                    "entries take.",
    )
    scf.add_argument("xyz", type=Path, help="XYZ geometry file")
    add_run_arguments(scf)
    scf.add_argument(
        "--checkpoint", type=Path, default=None, metavar="FILE",
        help="write the SCF state (density, DIIS history, trace) to "
             "this file every --checkpoint-every cycles",
    )
    scf.add_argument(
        "--checkpoint-every", type=bounded(int, 1), default=5, metavar="N",
        help="checkpoint write interval in SCF cycles (default: 5)",
    )
    scf.add_argument(
        "--restart", type=Path, default=None, metavar="FILE",
        help="resume from a checkpoint written by --checkpoint; the "
             "restarted run converges bitwise identically",
    )
    _add_host_args(scf)

    prof = add_verb(
        sub, "profile", cmd_profile,
        help="run an SCF under the tracer; emit Chrome trace + profile",
        description="Run flags as for 'repro scf'; defaults here are "
                    "2 ranks x 4 threads (1 thread for mpi-only).",
    )
    prof.add_argument(
        "xyz", nargs="?", type=Path, default=None,
        help="XYZ geometry file (default: built-in water)",
    )
    # --threads defaults to None so "not given" can mean 1 for mpi-only.
    add_run_arguments(prof, nranks=2, nthreads=None)
    prof.add_argument(
        "--output-dir", type=Path, default=Path("profile_out"),
        help="directory for trace.json / profile.txt / metrics.ndjson "
             "/ spans.ndjson / events.ndjson",
    )
    _add_host_args(prof)


# -- shared set-up -------------------------------------------------------------


def _run_config(args: argparse.Namespace) -> tuple[SCFConfig, dict]:
    """The validated config of this invocation + its backend options.

    Under the process backend ``--workers`` *is* the rank count (one
    real process per rank); under the sim backend it has no meaning and
    earns a warning rather than silently steering nothing.
    """
    config = SCFConfig.from_args(args)
    options: dict = {}
    if config.backend == "process":
        if args.workers is not None:
            config = replace(config, nranks=args.workers)
        options = {
            key: getattr(args, flag)
            for flag, key in _BACKEND_OPTIONS.items()
            if getattr(args, flag) is not None
        }
    elif args.workers is not None:
        logger.warning("--workers is ignored by the sim backend "
                       "(use --ranks, or --backend process)")
    config.validate()
    return config, options


def _system(args: argparse.Namespace, config: SCFConfig):
    """Molecule and basis of the run, announced on stdout.

    Geometry and basis name come from outside the program: anything
    wrong with them is one ``error:`` line, not a traceback.
    """
    from repro.chem.basis import BasisSet
    from repro.chem.molecule import Molecule, water
    from repro.obs.logctl import quiet_enabled

    if args.xyz is None:
        mol = water()
    else:
        text = read_input(args.xyz)
        try:
            mol = Molecule.from_xyz(text, charge=config.charge)
        except (ValueError, KeyError, IndexError) as exc:
            raise ConfigError(
                f"{args.xyz} is not a usable XYZ geometry: {exc.args[0]}"
            ) from None
    try:
        basis = BasisSet(mol, config.basis)
    except KeyError as exc:
        raise ConfigError(exc.args[0]) from None
    if not quiet_enabled():
        print(f"{mol.name}: {mol.natoms} atoms, {basis.nbf} basis "
              f"functions, {basis.nshells} shells ({config.basis})")
    return mol, basis


def _build(config: SCFConfig, basis, backend_options: dict):
    from repro.core.scf_driver import build_scf
    from repro.resilience import FaultSpecError

    try:
        return build_scf(config, basis, backend_options=backend_options)
    except FaultSpecError as exc:
        raise ConfigError(f"invalid --fault-plan: {exc}") from None


def _thread_env() -> dict[str, str | None]:
    """The BLAS / OpenMP thread-pool sizes this process runs with."""
    from repro.cli import THREAD_ENV_VARS

    return {name: os.environ.get(name) for name in THREAD_ENV_VARS}


def _session(args: argparse.Namespace, kind: str, mol, config: SCFConfig,
             **kwargs):
    from repro.obs.session import ObsSession

    return ObsSession(
        kind,
        {"molecule": mol.name, **asdict(config), "thread_env": _thread_env()},
        registry=not args.no_registry, runs_dir=args.runs_dir,
        **kwargs,
    )


def _energy_lines(res) -> str:
    return energy_lines(res.energy, res.converged, res.scf.niterations,
                        getattr(res.scf, "s_squared", None))


# -- scf -----------------------------------------------------------------------


def cmd_scf(args: argparse.Namespace) -> int:
    from repro.obs.logctl import quiet_enabled
    from repro.resilience import (
        CheckpointManager,
        ResilienceError,
        SCFConvergenceError,
    )

    config, backend_options = _run_config(args)
    mol, basis = _system(args, config)
    if config.backend == "process" and not quiet_enabled():
        print(f"backend      : process ({config.nranks} worker process(es))")
    manager = (
        CheckpointManager(args.checkpoint, every=args.checkpoint_every)
        if args.checkpoint is not None else None
    )

    obs = _session(args, "scf", mol, config)
    obs.announce()
    try:
        try:
            with _build(config, basis, backend_options) as scf:
                res = scf.run(restart=args.restart, checkpoint=manager)
        except SCFConvergenceError as exc:
            print(f"SCF failed: {exc}", file=sys.stderr)
            return 1
        except ResilienceError as exc:
            print(f"unrecoverable fault: {exc}", file=sys.stderr)
            return 3
        print(_energy_lines(res))
        stats = res.fock_stats[-1]
        if not quiet_enabled():
            print(f"Fock build   : {stats.quartets_computed} quartets, "
                  f"{stats.quartets_screened} screened, algorithm "
                  f"{stats.algorithm}, {stats.nranks} ranks x "
                  f"{stats.nthreads} threads")
            print("BLAS threads : " + " ".join(
                f"{name}={value}" for name, value in _thread_env().items()))
            if config.eri_cache_mb is not None:
                hits = sum(s.eri_cache_hits for s in res.fock_stats)
                misses = sum(s.eri_cache_misses for s in res.fock_stats)
                total = hits + misses
                rate = 100.0 * hits / total if total else 0.0
                print(f"ERI cache    : {hits} hits / {misses} misses "
                      f"({rate:.1f}% hit rate, last cycle "
                      f"{100.0 * stats.eri_cache_hit_rate:.1f}%)")
            if manager is not None:
                print(f"checkpoints  : {manager.writes} written -> "
                      f"{args.checkpoint}")
        obs.finalize(
            status="done" if res.converged else "unconverged",
            summary={
                "energy": res.energy,
                "converged": res.converged,
                "iterations": res.scf.niterations,
                "quartets_computed": res.total_quartets_computed,
                "rank_imbalance": res.rank_imbalance,
            },
        )
        return 0 if res.converged else 1
    finally:
        obs.close()


# -- profile -------------------------------------------------------------------


def cmd_profile(args: argparse.Namespace) -> int:
    from repro.obs import EventLog, MetricsRegistry, Tracer
    from repro.obs.logctl import quiet_enabled

    if args.threads is None:
        args.threads = 1 if args.algorithm == "mpi-only" else 4
    config, backend_options = _run_config(args)
    mol, basis = _system(args, config)
    if not quiet_enabled():
        print(f"profiling {config.algorithm} on {config.nranks} rank(s) x "
              f"{config.nthreads} thread(s) [{config.backend} backend]")

    workers_dir = args.output_dir / "workers"
    if config.backend == "process":
        # Workers dump their own spans/events NDJSON here (one shared
        # time base), merged with the parent trace below.
        backend_options["obs_dir"] = workers_dir

    # Setup (integrals, Schwarz matrix) stays outside the measured
    # window so the traced span total is comparable to the SCF wall.
    scf = _build(config, basis, backend_options)
    tracer = Tracer()
    registry = MetricsRegistry()
    elog = EventLog()
    obs = _session(args, "profile", mol, config, log=elog, metrics=registry)
    obs.announce()
    try:
        return _profile_run(args, config, scf, tracer, registry, elog, obs,
                            workers_dir)
    finally:
        obs.close()


def _profile_run(args, config, scf, tracer, registry, elog, obs,
                 workers_dir) -> int:
    import json
    import time

    from repro.obs import (
        events_ndjson,
        metrics_ndjson,
        profile_report,
        spans_ndjson,
        use_event_log,
        use_metrics,
        use_tracer,
        write_text,
    )
    from repro.obs.spans import write_chrome_trace
    from repro.resilience import ResilienceError, SCFConvergenceError

    with use_tracer(tracer), use_metrics(registry), use_event_log(elog):
        t0 = time.perf_counter()
        try:
            res = scf.run()
        except (SCFConvergenceError, ResilienceError) as exc:
            print(f"SCF failed under injected faults: {exc}", file=sys.stderr)
            return 3
        finally:
            scf.shutdown()  # flush and stop process-backend workers
        wall = time.perf_counter() - t0

    traced = tracer.total_seconds()
    coverage = 100.0 * traced / wall if wall > 0 else 0.0
    report = profile_report(
        tracer, title=f"SCF profile ({config.algorithm})"
    )

    out = args.output_dir
    # Events share the spans' relative time base (earliest span start).
    span_starts = [s.start for s in tracer.walk() if s.end is not None]
    events_t0 = min(span_starts) if span_starts else None
    trace_path = write_chrome_trace(tracer, out / "trace.json", events=elog)
    report_path = write_text(out / "profile.txt", report)
    spans_path = write_text(out / "spans.ndjson", spans_ndjson(tracer))
    events_path = write_text(
        out / "events.ndjson", events_ndjson(elog, t0=events_t0)
    )
    metrics_path = out / "metrics.ndjson"
    lines = [metrics_ndjson(registry)]
    lines += [
        json.dumps({"fock_build": i + 1, **s.as_dict()})
        for i, s in enumerate(res.fock_stats)
    ]
    write_text(metrics_path, "\n".join(lines))

    merged_path = None
    if config.backend == "process":
        from repro.obs.spans import merged_chrome_trace, spans_from_tracer
        from repro.parallel.backend.process import worker_obs_run

        runs = [("driver", spans_from_tracer(tracer), list(elog))]
        worker_run = worker_obs_run(workers_dir, label="workers")
        if worker_run[1] or worker_run[2]:
            runs.append(worker_run)
        merged_path = write_text(
            out / "merged_trace.json",
            json.dumps(merged_chrome_trace(runs)),
        )

    print(f"\n{report}\n")
    print(_energy_lines(res))
    print(f"load balance : rank imbalance {res.rank_imbalance:.3f}, "
          f"thread imbalance {res.thread_imbalance:.3f}")
    print(f"SCF wall     : {wall:.6f} s; traced {traced:.6f} s "
          f"({coverage:.1f}% of wall)")
    print(f"trace        : {trace_path} (open in chrome://tracing or "
          f"ui.perfetto.dev)")
    print(f"profile      : {report_path}")
    print(f"metrics      : {metrics_path}")
    print(f"spans        : {spans_path}")
    print(f"events       : {events_path} ({len(elog)} events)")
    if merged_path is not None:
        print(f"merged trace : {merged_path} (driver + per-worker spans "
              f"on one timeline)")
    obs.finalize(
        status="done" if res.converged else "unconverged",
        summary={
            "energy": res.energy,
            "converged": res.converged,
            "iterations": res.scf.niterations,
            "wall_s": wall,
            "traced_s": traced,
            "rank_imbalance": res.rank_imbalance,
            "thread_imbalance": res.thread_imbalance,
        },
    )
    if obs.handle is not None:
        for name, path in (
            ("trace.json", trace_path), ("profile.txt", report_path),
            ("spans.ndjson", spans_path), ("metrics.ndjson", metrics_path),
        ):
            obs.handle.add_artifact(name, path)
        obs.handle.save()
    return 0 if res.converged else 1
