"""The observability verbs: ``monitor``, ``runs``, ``explain``,
``compare`` — everything that reads what a run or a job left behind."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.commands import (
    add_runs_dir,
    add_service_dir,
    add_verb,
    fail,
    read_input,
)
from repro.config import ConfigError, bounded

_positive = bounded(float, 0, strict=True)
_nonneg = bounded(float, 0)


def register(sub) -> None:
    mon = add_verb(
        sub, "monitor", cmd_monitor,
        help="live dashboard that follows a run's events.ndjson while "
             "the run is going, or replays it once it is done",
    )
    mon.add_argument(
        "source", nargs="?", default="latest", metavar="SOURCE",
        help="an events.ndjson (or earlier telemetry.ndjson) file, a "
             "run-id prefix from the registry, or 'latest' (default: "
             "the newest run with an event file)",
    )
    add_runs_dir(mon, " used to resolve run ids")
    mon.add_argument(
        "--interval", type=_positive, default=0.5, metavar="S",
        help="refresh interval in seconds (default: 0.5)",
    )
    mon.add_argument(
        "--once", action="store_true",
        help="render a single frame and exit (no refresh loop)",
    )
    mon.add_argument(
        "--plain", action="store_true",
        help="append frames instead of clearing the screen (for logs "
             "and non-ANSI terminals)",
    )

    runs = add_verb(sub, "runs", cmd_runs,
                    help="query the persistent run registry")
    add_runs_dir(runs)
    runs_sub = runs.add_subparsers(dest="runs_command", required=True)
    add_verb(runs_sub, "list", cmd_runs, help="table of all registered runs")
    runs_show = add_verb(
        runs_sub, "show", cmd_runs,
        help="full record of one run (id prefix or 'latest')",
    )
    runs_show.add_argument(
        "run", nargs="?", default="latest", metavar="RUN",
        help="run-id prefix, or 'latest' (default)",
    )
    runs_prune = add_verb(
        runs_sub, "prune", cmd_runs,
        help="retention GC: delete old run directories (never runs "
             "still marked running)",
    )
    runs_prune.add_argument(
        "--keep-last", type=bounded(int, 0), default=None, metavar="N",
        help="keep only the newest N runs",
    )
    runs_prune.add_argument(
        "--max-age", type=_positive, default=None, metavar="S",
        help="delete runs whose record is older than S seconds",
    )
    runs_prune.add_argument(
        "--max-bytes", type=_positive, default=None, metavar="B",
        help="delete oldest runs until the registry fits B bytes",
    )
    runs_prune.add_argument(
        "--dry-run", action="store_true",
        help="list what would be deleted without deleting anything",
    )

    exp = add_verb(
        sub, "explain", cmd_explain,
        help="where the time went: per-rank timelines of runs, or the "
             "critical path of one service job",
    )
    exp.add_argument(
        "sources", nargs="+", metavar="SOURCE",
        help="a spans.ndjson file or a directory holding one (its "
             "events.ndjson is read too), a run-id prefix or 'latest' "
             "from the registry, or a job id from the service journal",
    )
    exp.add_argument(
        "--chrome", type=Path, default=None, metavar="OUT",
        help="write the runs side by side, or the job's assembled "
             "trace, as one Chrome trace document",
    )
    add_service_dir(exp)
    add_runs_dir(exp, " used to resolve run ids and a job's span files")

    cmp_ = add_verb(
        sub, "compare", cmd_compare,
        help="diff benchmark/metric records under a noise tolerance; "
             "exits 1 on regressions",
    )
    cmp_.add_argument(
        "baseline", type=Path,
        help="baseline record: a BENCH_*.json or an NDJSON metrics dump",
    )
    cmp_.add_argument(
        "candidates", nargs="+", type=Path,
        help="candidate record(s) to gate against the baseline",
    )
    cmp_.add_argument(
        "--tolerance", type=_nonneg, default=0.05, metavar="REL",
        help="relative change treated as noise (default: 0.05 = ±5%%)",
    )
    cmp_.add_argument(
        "--abs-tolerance", type=_nonneg, default=1e-9, metavar="ABS",
        help="absolute change treated as noise (default: 1e-9)",
    )
    cmp_.add_argument(
        "--ignore", action="append", default=[], metavar="GLOB",
        help="skip keys matching this glob (repeatable), e.g. '*wall_s'",
    )
    cmp_.add_argument(
        "--only", action="append", default=[], metavar="GLOB",
        help="compare only keys matching this glob (repeatable)",
    )
    cmp_.add_argument(
        "--allow-missing", action="store_true",
        help="keys absent from a candidate are OK instead of 'removed'",
    )
    cmp_.add_argument(
        "--json", type=Path, default=None, metavar="OUT",
        help="write the machine-readable verdict(s) to this JSON file",
    )
    cmp_.add_argument(
        "--report", type=Path, default=None, metavar="OUT",
        help="also write the human-readable report to this file",
    )


def cmd_monitor(args: argparse.Namespace) -> int:
    import time

    from repro.obs.events import events_from_ndjson
    from repro.obs.monitor import MonitorState
    from repro.obs.registry import RunRegistry

    try:
        path = RunRegistry(args.runs_dir).event_file(args.source).resolve()
    except KeyError as exc:
        return fail(exc.args[0])
    registry, run_id = RunRegistry(path.parent.parent), path.parent.name

    # Follow the file the way `tail -f` does while its run is live: read
    # the complete lines past `offset`; a partial last line waits.  A
    # file with no run.json beside it is replayed once.
    following = live = registry.is_live(run_id)
    state = MonitorState()
    offset, partial = 0, b""
    try:
        while True:
            with open(path, "rb") as fh:
                fh.seek(offset)
                chunk = fh.read()
            offset += len(chunk)
            lines, _, partial = (partial + chunk).rpartition(b"\n")
            if not following:
                lines, partial = lines + b"\n" + partial, b""
            state.apply_all(events_from_ndjson(
                lines.decode(errors="replace")))
            if live and not args.plain:
                sys.stdout.write("\x1b[2J\x1b[H")
            print(state.render(), flush=True)
            if args.once or not following:
                return 0
            time.sleep(args.interval)
            following = registry.is_live(run_id)
    except KeyboardInterrupt:
        return 0


def cmd_runs(args: argparse.Namespace) -> int:
    from repro.obs.registry import RunRegistry

    registry = RunRegistry(args.runs_dir)
    if args.runs_command == "list":
        print(registry.list_table())
        return 0

    if args.runs_command == "prune":
        if (args.keep_last is None and args.max_age is None
                and args.max_bytes is None):
            return fail("give at least one of --keep-last / --max-age "
                        "/ --max-bytes")
        removed = registry.prune(
            keep_last=args.keep_last,
            max_age_s=args.max_age,
            max_bytes=(int(args.max_bytes)
                       if args.max_bytes is not None else None),
            dry_run=args.dry_run,
        )
        verb = "would remove" if args.dry_run else "removed"
        print(f"{verb} {len(removed)} run(s)")
        for run_id in removed:
            print(f"  {run_id}")
        return 0

    try:
        print(registry.show(registry.find(args.run)))
    except KeyError as exc:
        return fail(exc.args[0])
    return 0


def _spans_file(source: str, registry) -> Path | None:
    """The ``spans.ndjson`` a SOURCE names as a path or as a registered
    run's artifact; ``None`` when it is neither."""
    path = Path(source)
    if not path.exists():
        try:
            run_id = registry.find(source)
        except KeyError:
            return None
        recorded = registry.load(run_id).get("artifacts", {}).get(
            "spans.ndjson")
        if recorded is None:
            raise ConfigError(f"run {run_id} recorded no spans.ndjson "
                              "(a 'repro profile' run does)")
        path = Path(recorded)
    return path / "spans.ndjson" if path.is_dir() else path


def _read_run(spans_path: Path):
    """``(label, spans, events)`` of one run's span file; the label is
    the file's directory name, its events the ``events.ndjson`` beside
    it."""
    from repro.obs.events import events_from_ndjson
    from repro.obs.spans import spans_from_ndjson

    spans = spans_from_ndjson(read_input(spans_path))
    events_path = spans_path.with_name("events.ndjson")
    events = (events_from_ndjson(read_input(events_path))
              if events_path.is_file() else [])
    if not spans:
        raise ConfigError(f"{spans_path}: no span record in the file")
    return spans_path.resolve().parent.name or spans_path.stem, spans, events


def cmd_explain(args: argparse.Namespace) -> int:
    from repro.obs import write_text
    from repro.obs.logctl import quiet_enabled
    from repro.obs.registry import RunRegistry
    from repro.obs.timeline import analyze_timeline, timeline_report
    from repro.obs.trace_assembly import TraceAssemblyError, assemble_job_trace

    registry = RunRegistry(args.runs_dir)
    journal = args.service_dir / "journal.ndjson"
    runs, jobs = [], []
    try:
        for source in args.sources:
            spans_path = _spans_file(source, registry)
            if spans_path is not None:
                runs.append(_read_run(spans_path))
            elif not journal.exists():
                return fail(f"{source!r} is not a path, a run under "
                            f"{registry.root}, or a job: no service "
                            f"journal at {journal}")
            else:
                jobs.append(assemble_job_trace(journal, source,
                                               runs_root=registry.root))
    except TraceAssemblyError as exc:
        return fail(str(exc))
    if jobs and len(args.sources) > 1:
        return fail("a job is explained alone, not with other sources")

    if runs:
        from repro.obs.spans import merged_chrome_trace

        if args.chrome is not None:
            write_text(args.chrome, json.dumps(merged_chrome_trace(runs)))
        print("\n\n".join(
            timeline_report(analyze_timeline(spans, events),
                            title=f"timeline ({label})")
            for label, spans, events in runs))
        return 0

    job = jobs[0]
    if args.chrome is not None:
        write_text(args.chrome, json.dumps(job.to_chrome_trace()))
    print(f"job {job.job_id}  trace_id {job.trace_id}")
    print(f"{len(job.segments)} span(s) across "
          f"{len({s.rank for s in job.segments})} process track(s)"
          f"; {sum(1 for s in job.segments if s.synthetic)} synthetic")
    print()
    print(job.critical_path_report())
    if not quiet_enabled():
        for warning in job.warnings:
            print(f"warning      : {warning}", file=sys.stderr)
    problems = job.validate()
    for problem in problems:
        print(f"invalid      : {problem}", file=sys.stderr)
    return 1 if problems else 0


def cmd_compare(args: argparse.Namespace) -> int:
    from repro.obs import write_text
    from repro.obs.compare import compare_runs, load_run

    for path in [args.baseline, *args.candidates]:
        if not path.exists():
            return fail(f"no such file: {path}")

    try:
        baseline, *candidates = map(load_run,
                                    [args.baseline, *args.candidates])
    except ValueError as exc:  # no JSON record; undecodable bytes
        return fail(str(exc))
    comparisons = [
        compare_runs(
            baseline,
            candidate,
            tolerance=args.tolerance,
            abs_tolerance=args.abs_tolerance,
            ignore=args.ignore,
            only=args.only,
            allow_missing=args.allow_missing,
        )
        for candidate in candidates
    ]

    body = "\n\n".join(c.report() for c in comparisons)
    print(body)
    if args.report is not None:
        write_text(args.report, body)
    if args.json is not None:
        verdicts = [c.to_dict() for c in comparisons]
        payload = verdicts[0] if len(verdicts) == 1 else verdicts
        write_text(args.json, json.dumps(payload, indent=2))
    return 1 if any(c.verdict == "fail" for c in comparisons) else 0
