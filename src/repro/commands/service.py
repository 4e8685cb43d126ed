"""The job-service verbs: ``serve``, ``submit``, ``status``, ``result``,
``cancel``, ``batch``, ``slo``.

``submit`` takes the run flags of :func:`repro.config.add_run_arguments`
— the ones ``repro scf`` takes — and a manifest entry takes the same
fields by name, so a job means the same run on every surface.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import asdict
from pathlib import Path

from repro.commands import (
    add_runs_dir,
    add_service_dir,
    add_verb,
    energy_lines,
    fail,
    read_input,
)
from repro.config import BATCH_POLICIES, SCFConfig, add_run_arguments, bounded

_positive_int = bounded(int, 1)
_nonneg_int = bounded(int, 0)
_positive = bounded(float, 0, strict=True)
_nonneg = bounded(float, 0)


def _add_timeout(parser: argparse.ArgumentParser, what: str) -> None:
    parser.add_argument(
        "--timeout", type=_positive, default=600.0, metavar="S",
        help=f"client-side {what} (default: 600)",
    )


def _add_json(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--json", action="store_true",
        help="print the machine-readable report instead of the table",
    )


def register(sub) -> None:
    srv = add_verb(
        sub, "serve", cmd_serve,
        help="run the SCF job service (durable queue + worker fleet)",
    )
    add_service_dir(srv)
    srv.add_argument(
        "--fleet", type=_positive_int, default=2, metavar="N",
        help="persistent job-worker processes (default: 2)",
    )
    srv.add_argument(
        "--max-queue-depth", type=_positive_int, default=64, metavar="N",
        help="open-job admission bound; submissions beyond it are shed "
             "with a typed ServiceOverloaded error (default: 64)",
    )
    srv.add_argument(
        "--job-timeout", type=_positive, default=120.0, metavar="S",
        help="per-job wall-clock deadline; a job past it has its worker "
             "killed and is retried (default: 120)",
    )
    srv.add_argument(
        "--max-retries", type=_nonneg_int, default=3, metavar="N",
        help="retry budget per job after the first attempt; 0 disables "
             "retries (default: 3)",
    )
    srv.add_argument(
        "--backoff-base", type=_positive, default=0.25, metavar="S",
        help="delay before the first retry; doubles per attempt, "
             "capped by --backoff-cap (default: 0.25)",
    )
    srv.add_argument(
        "--backoff-cap", type=_positive, default=30.0, metavar="S",
        help="upper bound on any single retry delay (default: 30)",
    )
    srv.add_argument(
        "--retry-seed", type=int, default=0, metavar="SEED",
        help="backoff-jitter seed: the same seed reproduces the same "
             "retry schedule for every (job, attempt) (default: 0)",
    )
    srv.add_argument(
        "--process-budget", type=_nonneg_int, default=4, metavar="N",
        help="real process-backend workers the fleet may run at once; "
             "jobs beyond it degrade to the sim backend (default: 4)",
    )
    srv.add_argument(
        "--heartbeat-timeout", type=_positive, default=10.0, metavar="S",
        help="seconds of worker silence before a busy slot is flagged "
             "suspect (worker.hung) (default: 10)",
    )
    srv.add_argument(
        "--idle-exit", type=_positive, default=None, metavar="S",
        help="exit after this many seconds with no open jobs "
             "(default: run until signalled; used by CI)",
    )
    add_runs_dir(srv)
    srv.add_argument(
        "--keep", type=_positive_int, default=None, metavar="N",
        help="run-registry retention: after each job finishes, prune "
             "the registry down to the newest N runs (running jobs and "
             "the service's own run are never pruned; default: keep "
             "everything)",
    )
    srv.add_argument(
        "--manifest", type=Path, default=None, metavar="FILE",
        help="workload manifest (.ndjson/.toml) to enqueue at startup; "
             "intake is exactly-once across restarts (a plan-fingerprint "
             "marker in the service dir suppresses re-enqueueing)",
    )
    srv.add_argument(
        "--batch-policy", choices=BATCH_POLICIES, default="binned",
        metavar="POLICY",
        help="batch scheduling policy for --manifest intake: "
             f"{', '.join(BATCH_POLICIES)} (default: binned)",
    )
    srv.add_argument(
        "--batch-window", type=_positive_int, default=None, metavar="N",
        help="batch reordering window: no job moves more than N "
             "positions from manifest order (default: 256)",
    )

    bat = add_verb(
        sub, "batch", cmd_batch,
        help="run a workload manifest through the service and report "
             "fleet throughput (jobs/s, queue-wait p95, amortization)",
    )
    bat.add_argument(
        "manifest", type=Path, metavar="FILE",
        help="workload manifest: .ndjson/.jsonl/.json (one job object "
             "per line) or .toml ([defaults] + [[job]] tables)",
    )
    add_service_dir(bat)
    bat.add_argument(
        "--policy", choices=BATCH_POLICIES, default="binned",
        help="batch scheduling policy (default: binned)",
    )
    bat.add_argument(
        "--window", type=_positive_int, default=None, metavar="N",
        help="reordering window / starvation bound (default: 256)",
    )
    bat.add_argument(
        "--plan-only", action="store_true",
        help="print the deterministic batch plan as JSON and exit "
             "without contacting a daemon",
    )
    bat.add_argument(
        "--output", "-o", type=Path, default=None, metavar="JSON",
        help="throughput report path "
             "(default: BENCH_throughput.json in the CWD)",
    )
    _add_timeout(bat, "budget for the whole batch")
    add_runs_dir(bat, " for the batch record")
    _add_json(bat)

    sbm = add_verb(
        sub, "submit", cmd_submit, help="submit an SCF job to the service",
        description="The run flags are the ones 'repro scf' takes; "
                    "'process' jobs beyond the service's --process-budget "
                    "degrade to 'sim', and a convergence failure is "
                    "terminal (never retried).",
    )
    sbm.add_argument("xyz", type=Path, help="XYZ geometry file")
    add_service_dir(sbm)
    add_run_arguments(sbm)
    sbm.add_argument(
        "--tag", default=None, metavar="NAME",
        help="free-form label shown in status listings",
    )
    sbm.add_argument(
        "--wait", action="store_true",
        help="block until the job finishes and print its result",
    )
    _add_timeout(sbm, "wait budget with --wait")
    # Chaos knobs (used by the resilience suites; harmless elsewhere).
    sbm.add_argument(
        "--chaos-die-on-attempt", type=_positive_int, default=None,
        metavar="K", help="worker kills itself mid-job on attempt K "
                          "(tests worker-loss retry)",
    )
    sbm.add_argument(
        "--chaos-cycle-delay", type=_nonneg, default=0.0, metavar="S",
        help="sleep this long before every Fock build (slow-job chaos)",
    )
    sbm.add_argument(
        "--chaos-sleep", type=_nonneg, default=0.0, metavar="S",
        help="wedge the worker this long before starting (tests "
             "hung-job detection and deadline kills)",
    )

    sta = add_verb(
        sub, "status", cmd_status,
        help="job or queue status from a running service",
    )
    sta.add_argument(
        "job", nargs="?", default=None, metavar="JOB",
        help="job id or unambiguous prefix (default: list the queue)",
    )
    add_service_dir(sta)

    rslt = add_verb(sub, "result", cmd_result,
                    help="wait for a job; print its result")
    rslt.add_argument("job", metavar="JOB", help="job id or prefix")
    add_service_dir(rslt)
    rslt.add_argument(
        "--no-wait", action="store_true",
        help="print the current state instead of blocking until terminal",
    )
    _add_timeout(rslt, "wait budget")

    cncl = add_verb(sub, "cancel", cmd_cancel,
                    help="cancel a queued or running job")
    cncl.add_argument("job", metavar="JOB", help="job id or prefix")
    add_service_dir(cncl)

    slo_p = add_verb(
        sub, "slo", cmd_slo,
        help="latency quantiles + SLO burn rates per job class, read "
             "off a serve run's event file",
    )
    slo_p.add_argument(
        "source", nargs="?", default="live", metavar="SOURCE",
        help="'live' reads the event file of the running service daemon "
             "(default); otherwise an events.ndjson (or earlier "
             "telemetry.ndjson) path, a run-id prefix, or 'latest' (the "
             "newest serve run with an event file)",
    )
    add_service_dir(slo_p)
    add_runs_dir(slo_p, " used to resolve run ids")
    slo_p.add_argument(
        "--slo", action="append", default=None, metavar="TARGET",
        dest="targets",
        help="SLO target, repeatable: 'total:p95<60', "
             "'queue_wait:p95<30', or 'error_rate<0.25' (defaults to "
             "exactly those three)",
    )
    _add_json(slo_p)


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.obs.logctl import quiet_enabled
    from repro.service import (
        DaemonAlreadyRunning,
        ServiceConfig,
        ServiceDaemon,
        service_socket_path,
    )

    config = ServiceConfig(
        service_dir=str(args.service_dir),
        fleet=args.fleet,
        max_queue_depth=args.max_queue_depth,
        job_timeout_s=args.job_timeout,
        max_retries=args.max_retries,
        backoff_base_s=args.backoff_base,
        backoff_cap_s=args.backoff_cap,
        retry_seed=args.retry_seed,
        process_budget=args.process_budget,
        heartbeat_timeout_s=args.heartbeat_timeout,
        idle_exit_s=args.idle_exit,
        runs_dir=str(args.runs_dir) if args.runs_dir is not None else None,
        keep_runs=args.keep,
        manifest=(str(args.manifest) if args.manifest is not None
                  else None),
        batch_policy=args.batch_policy,
        batch_window=args.batch_window,
    )
    try:
        daemon = ServiceDaemon(config).start()
    except (DaemonAlreadyRunning, ValueError) as exc:
        # ValueError: a bad flag combination (e.g. cap < base) or manifest.
        return fail(str(exc))
    if not quiet_enabled():
        print(f"service      : {service_socket_path(args.service_dir)}")
        print(f"journal      : {args.service_dir / 'journal.ndjson'}")
        if daemon.serve_run is not None:
            print(f"monitor      : repro monitor {daemon.serve_run.run_id}")
        if daemon.queue.recovered_jobs:
            print(f"recovered    : {len(daemon.queue.recovered_jobs)} "
                  f"interrupted job(s) re-queued from the journal")
    try:
        daemon.install_signal_handlers()
        daemon.run_forever()
    finally:
        daemon.close()
    return 0


def _job_client(args: argparse.Namespace):
    from repro.service import JobClient

    return JobClient(args.service_dir)


def _print_job(job: dict, *, verbose: bool = True) -> None:
    state = job["state"]
    line = f"job {job['id']}: {state}"
    if job.get("tag"):
        line += f" ({job['tag']})"
    if job.get("degraded"):
        line += " [degraded to sim backend]"
    print(line)
    if not verbose:
        return
    if state == "done" and job.get("result"):
        res = job["result"]
        print(energy_lines(res["energy"], res["converged"],
                           res["iterations"], res.get("s_squared"),
                           note=f", attempt {job['attempt']}"))
        if res.get("resumed"):
            print("resumed      : from checkpoint")
    elif state in ("failed", "cancelled") and job.get("error"):
        print(f"error        : [{job.get('error_type')}] {job['error']}")
    elif state == "retrying":
        import time

        wait = max(0.0, job.get("not_before", 0.0) - time.time())
        print(f"retry        : attempt {job['attempt']} failed "
              f"([{job.get('error_type')}]); next try in {wait:.2f}s")
    if job.get("run_id"):
        print(f"run id       : {job['run_id']}")


def _service_errors(cmd):
    """Map a verb's typed service errors to exit codes (3 unavailable,
    4 shed, 2 the caller's mistake)."""

    def wrapper(args: argparse.Namespace) -> int:
        from repro.service import (
            JobNotFound,
            JobSpecError,
            ManifestError,
            ServiceOverloaded,
            ServiceUnavailable,
        )

        try:
            return cmd(args)
        except ServiceOverloaded as exc:
            return fail(f"service overloaded: {exc}", 4)
        except ServiceUnavailable as exc:
            return fail(str(exc), 3)
        except (JobNotFound, JobSpecError, ManifestError) as exc:
            return fail(str(exc))

    return wrapper


@_service_errors
def cmd_batch(args: argparse.Namespace) -> int:
    from repro.obs.logctl import quiet_enabled
    from repro.obs.registry import RunRegistry
    from repro.workload import WorkloadManager, load_manifest

    specs = load_manifest(args.manifest)
    manager = WorkloadManager(
        _job_client(args),
        policy=args.policy, window=args.window,
        registry=None if args.plan_only else RunRegistry(args.runs_dir),
    )
    if args.plan_only:
        plan = manager.plan(specs)
        print(json.dumps(plan.to_dict(), indent=2, sort_keys=True))
        return 0
    output = args.output or Path("BENCH_throughput.json")
    try:
        report = manager.run(
            specs, manifest_path=str(args.manifest),
            timeout_s=args.timeout, output=output,
        )
    except TimeoutError as exc:
        return fail(str(exc), 5)
    m = report.metrics
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    elif not quiet_enabled():
        print(f"manifest     : {args.manifest} "
              f"({m['jobs_total']} jobs, {m['n_batches']} batches, "
              f"policy {report.plan.policy})")
        print(f"completed    : {m['jobs_done']} done, "
              f"{m['jobs_failed']} failed in {m['wall_s']:.2f}s "
              f"({m['jobs_per_s']:.2f} jobs/s)")
        print(f"queue wait   : p50 {m['queue_wait_p50_s']*1e3:.1f} ms, "
              f"p95 {m['queue_wait_p95_s']*1e3:.1f} ms")
        print(f"amortization : {m['cache_amortization_ratio']:.2f} "
              f"jobs per cold setup ({m['warm_setups']} warm / "
              f"{m['cold_setups']} cold; ERI hit rate "
              f"{m['eri_cache_hit_rate']:.2f})")
        print(f"report       : {output}")
    return 0 if m["jobs_failed"] == 0 else 1


@_service_errors
def cmd_submit(args: argparse.Namespace) -> int:
    from repro.obs.logctl import quiet_enabled
    from repro.service import JobSpec

    spec = JobSpec(
        **asdict(SCFConfig.from_args(args)),
        xyz=read_input(args.xyz),
        tag=args.tag or args.xyz.stem,
        sleep_s=args.chaos_sleep,
        cycle_delay_s=args.chaos_cycle_delay,
        die_on_attempt=args.chaos_die_on_attempt,
    )
    # The daemon runs the same check at intake; doing it here first
    # turns a bad flag into exit 2 whether or not a daemon is up.
    spec.validate()
    client = _job_client(args)
    job = client.submit(spec)
    if not quiet_enabled():
        print(f"submitted    : {job['id']} "
              f"({job['tag']}, {job['basis']}, {job['algorithm']})")
    else:
        print(job["id"])
    if not args.wait:
        return 0
    done = client.result(job["id"], timeout_s=args.timeout)
    _print_job(done)
    return 0 if done["state"] == "done" else 1


@_service_errors
def cmd_status(args: argparse.Namespace) -> int:
    client = _job_client(args)
    if args.job is not None:
        _print_job(client.status(args.job))
        return 0
    listing = client.status()
    depth, fleet = listing["depth"], listing["fleet"]
    print(f"queue        : {depth['open']} open "
          f"({depth['pending']} pending, {depth['running']} running, "
          f"{depth['retrying']} retrying) / {depth['done']} done, "
          f"{depth['failed']} failed, {depth['cancelled']} cancelled")
    print(f"fleet        : {fleet['busy']}/{fleet['size']} busy, "
          f"{fleet['lost_workers']} lost, {fleet['timeouts']} timed "
          f"out, {fleet['degraded_jobs']} degraded, "
          f"{fleet['respawns']} respawns")
    for job in listing["jobs"]:
        tag = f"  ({job['tag']})" if job.get("tag") else ""
        flags = " [degraded]" if job.get("degraded") else ""
        print(f"  {job['id']}  {job['state']:<9} "
              f"attempt {job['attempt']}{flags}{tag}")
    return 0


@_service_errors
def cmd_result(args: argparse.Namespace) -> int:
    from repro.service import JobTimeoutError

    try:
        job = _job_client(args).result(
            args.job, wait=not args.no_wait, timeout_s=args.timeout,
        )
    except JobTimeoutError as exc:
        return fail(str(exc), 5)
    _print_job(job)
    if job["state"] == "done":
        return 0
    return 1 if job["state"] in ("failed", "cancelled") else 5


@_service_errors
def cmd_cancel(args: argparse.Namespace) -> int:
    _print_job(_job_client(args).cancel(args.job), verbose=False)
    return 0


@_service_errors
def cmd_slo(args: argparse.Namespace) -> int:
    from repro.obs.events import events_from_ndjson
    from repro.obs.registry import RunRegistry
    from repro.obs.slo import SLOTargetError, engine_from_telemetry

    if args.source == "live":
        path = _job_client(args).status().get("events")
        if path is None:
            return fail("the service names no event file (its run "
                        "registry refused the serve run)")
        path = Path(path)
    else:
        try:
            path = RunRegistry(args.runs_dir).event_file(args.source,
                                                         kind="serve")
        except KeyError as exc:
            return fail(exc.args[0])
    try:
        engine = engine_from_telemetry(
            events_from_ndjson(path.read_text()), targets=args.targets,
        )
    except SLOTargetError as exc:
        return fail(f"invalid --slo target: {exc}")
    print(json.dumps(engine.report(), indent=2) if args.json
          else engine.report_text())
    return 0
