"""The observability verbs: ``monitor``, ``runs``, ``timeline``,
``compare`` — everything that reads what a run left behind."""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from repro.commands import add_runs_dir, add_verb, fail
from repro.config import bounded

logger = logging.getLogger("repro.cli")

_positive = bounded(float, 0, strict=True)
_nonneg = bounded(float, 0)


def _add_tolerance_args(parser: argparse.ArgumentParser) -> None:
    """The comparison engine's noise model (``compare``, ``runs diff``)."""
    parser.add_argument(
        "--tolerance", type=_nonneg, default=0.05, metavar="REL",
        help="relative change treated as noise (default: 0.05 = ±5%%)",
    )
    parser.add_argument(
        "--abs-tolerance", type=_nonneg, default=1e-9, metavar="ABS",
        help="absolute change treated as noise (default: 1e-9)",
    )
    parser.add_argument(
        "--ignore", action="append", default=[], metavar="GLOB",
        help="skip keys matching this glob (repeatable), e.g. '*wall_s'",
    )


def register(sub) -> None:
    mon = add_verb(
        sub, "monitor", cmd_monitor,
        help="live dashboard over a running SCF's telemetry socket, or "
             "a replay of a recorded telemetry.ndjson",
    )
    mon.add_argument(
        "source", nargs="?", default="latest", metavar="SOURCE",
        help="a telemetry socket path, a telemetry.ndjson file, a run-id "
             "prefix from the registry, or 'latest' (default)",
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
    runs_diff = add_verb(
        runs_sub, "diff", cmd_runs,
        help="diff two runs' final metrics through the comparison "
             "engine; exits 1 on regressions",
    )
    runs_diff.add_argument(
        "baseline", metavar="BASELINE",
        help="baseline run-id prefix (or 'latest')",
    )
    runs_diff.add_argument(
        "candidate", metavar="CANDIDATE",
        help="candidate run-id prefix (or 'latest')",
    )
    _add_tolerance_args(runs_diff)
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

    tl = add_verb(
        sub, "timeline", cmd_timeline,
        help="analyze saved spans.ndjson dumps; optionally merge runs "
             "into one Chrome trace",
    )
    tl.add_argument(
        "spans", nargs="+", type=Path, metavar="SPANS_NDJSON",
        help="spans.ndjson file(s) written by 'repro profile', one per run",
    )
    tl.add_argument(
        "--events", action="append", type=Path, default=[], metavar="NDJSON",
        help="events.ndjson for the corresponding run (repeatable; "
             "matched positionally to the spans files)",
    )
    tl.add_argument(
        "--labels", default=None, metavar="A,B,...",
        help="comma-separated run labels (default: each file's parent "
             "directory name)",
    )
    tl.add_argument(
        "--merged-trace", type=Path, default=None, metavar="JSON",
        help="write all runs side by side as one Chrome trace document",
    )
    tl.add_argument(
        "--report", type=Path, default=None, metavar="TXT",
        help="also write the per-run timeline reports to this file",
    )

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
    _add_tolerance_args(cmp_)
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
    import stat

    from repro.obs.monitor import MonitorState
    from repro.obs.registry import RunRegistry
    from repro.obs.telemetry import TelemetryClient, records_from_ndjson

    sock: Path | None = None
    ndjson: Path | None = None
    src = Path(args.source)
    if src.exists():
        if stat.S_ISSOCK(src.stat().st_mode):
            sock = src
        else:
            ndjson = src
    else:
        registry = RunRegistry(args.runs_dir)
        try:
            run_id = registry.find(args.source)
        except KeyError as exc:
            return fail(exc.args[0])
        run_dir = registry.run_dir(run_id)
        live = run_dir / "telemetry.sock"
        recorded = run_dir / "telemetry.ndjson"
        if live.exists() and stat.S_ISSOCK(live.stat().st_mode):
            sock = live
        elif recorded.exists():
            ndjson = recorded
        else:
            return fail(f"run {run_id} has no telemetry "
                        "(was it started with --telemetry?)")

    state = MonitorState()

    def replay(recorded: Path) -> int:
        state.apply_all(records_from_ndjson(recorded.read_text()))
        print(state.render())
        return 0

    if ndjson is not None:
        return replay(ndjson)

    assert sock is not None
    try:
        client = TelemetryClient(sock)
    except OSError as exc:
        # A stale socket from a finished run: fall back to the sink file.
        recorded = sock.parent / "telemetry.ndjson"
        if recorded.exists():
            logger.info("socket %s is stale (%s); replaying sink", sock, exc)
            return replay(recorded)
        return fail(f"cannot connect to {sock}: {exc}")
    try:
        while True:
            records = client.poll(args.interval)
            state.apply_all(records)
            if client.eof and state.nrecords == 0:
                # The run ended between resolving the socket and our
                # first read (hung up before the backlog arrived):
                # render from the recorded sink instead of an empty
                # frame.
                recorded = sock.parent / "telemetry.ndjson"
                if recorded.exists():
                    state.apply_all(
                        records_from_ndjson(recorded.read_text())
                    )
            frame = state.render()
            if not args.plain:
                sys.stdout.write("\x1b[2J\x1b[H")
            print(frame, flush=True)
            if args.once or client.eof:
                return 0
    except KeyboardInterrupt:
        return 0
    finally:
        client.close()


def cmd_runs(args: argparse.Namespace) -> int:
    from repro.obs.analysis.compare import compare_runs, load_run
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
        if args.runs_command == "show":
            print(registry.show(registry.find(args.run)))
            return 0
        base_id = registry.find(args.baseline)
        cand_id = registry.find(args.candidate)
    except KeyError as exc:
        return fail(exc.args[0])

    # diff: hand the two runs' final metrics snapshots to the PR-4
    # comparison engine — run-to-run diffs gate exactly like benchmarks.
    for run_id in (base_id, cand_id):
        if not registry.metrics_path(run_id).exists():
            return fail(f"run {run_id} has no metrics.json (did it finish?)")
    comparison = compare_runs(
        load_run(registry.metrics_path(base_id), label=base_id),
        load_run(registry.metrics_path(cand_id), label=cand_id),
        tolerance=args.tolerance,
        abs_tolerance=args.abs_tolerance,
        ignore=args.ignore,
    )
    print(comparison.report())
    return 1 if comparison.verdict == "fail" else 0


def cmd_timeline(args: argparse.Namespace) -> int:
    from repro.obs import events_from_ndjson, write_text
    from repro.obs.analysis import (
        analyze_timeline,
        merged_chrome_trace,
        spans_from_ndjson,
        timeline_report,
    )

    if args.events and len(args.events) != len(args.spans):
        return fail(f"{len(args.events)} --events file(s) for "
                    f"{len(args.spans)} spans file(s); counts must match")
    if args.labels is not None:
        labels = [s.strip() for s in args.labels.split(",")]
        if len(labels) != len(args.spans):
            return fail(f"{len(labels)} label(s) for {len(args.spans)} "
                        f"spans file(s); counts must match")
    else:
        labels = [p.resolve().parent.name or p.stem for p in args.spans]

    runs = []
    for i, spans_path in enumerate(args.spans):
        if not spans_path.exists():
            return fail(f"no such file: {spans_path}")
        spans = spans_from_ndjson(spans_path.read_text())
        events = (
            events_from_ndjson(args.events[i].read_text())
            if args.events else []
        )
        runs.append((labels[i], spans, events))

    reports = []
    for label, spans, events in runs:
        analysis = analyze_timeline(spans, events)
        reports.append(timeline_report(analysis, title=f"timeline ({label})"))
    body = "\n\n".join(reports)
    print(body)
    if args.report is not None:
        write_text(args.report, body)
        print(f"\nreport       : {args.report}")
    if args.merged_trace is not None:
        write_text(args.merged_trace, json.dumps(merged_chrome_trace(runs)))
        print(f"merged trace : {args.merged_trace} "
              f"({len(runs)} run(s); open in ui.perfetto.dev)")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from repro.obs import write_text
    from repro.obs.analysis import compare_runs, load_run

    for path in [args.baseline, *args.candidates]:
        if not path.exists():
            return fail(f"no such file: {path}")

    baseline = load_run(args.baseline)
    comparisons = [
        compare_runs(
            baseline,
            load_run(candidate),
            tolerance=args.tolerance,
            abs_tolerance=args.abs_tolerance,
            ignore=args.ignore,
            only=args.only,
            allow_missing=args.allow_missing,
        )
        for candidate in args.candidates
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
