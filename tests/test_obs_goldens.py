"""The trace readers reproduce, on committed inputs, what an earlier
build read off them.

``tests/golden/obs`` holds files an earlier build wrote — a ``repro
profile --backend process --workers 2`` output directory (an id-less
``spans.ndjson``, ``events.ndjson`` and ``workers/``) and a retried
service job (its journal and attempt span files, the killed attempt's
last line cut in half) — and, under ``expected/``, what that build's
``repro timeline``, ``--merged-trace``, ``assemble_job_trace``,
``repro monitor --once`` and ``repro slo --json`` made of them and of
the two telemetry recordings beside them.  ``repro explain`` now reads
the profile directory; its output must still be that build's.
"""

from __future__ import annotations

import json
import shutil
from collections import Counter
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs.spans import spans_from_ndjson
from repro.obs.trace_assembly import assemble_job_trace

GOLDEN = Path(__file__).resolve().parent / "golden"
OBS = GOLDEN / "obs"
EXPECTED = OBS / "expected"
PROFILE = OBS / "profile_process"
CHAOS = OBS / "chaos_job"


def _events_multiset(doc: dict) -> Counter:
    """``traceEvents`` as a multiset, with the random ids of synthetic
    segments replaced by their rank in a stable order."""
    events = doc["traceEvents"]
    synthetic = sorted(
        (e for e in events if e["ph"] == "X" and e["args"].get("synthetic")),
        key=lambda e: (e["name"], e["ts"], e["pid"]))
    names = {e["args"]["span_id"]: f"synthetic-{i}"
             for i, e in enumerate(synthetic)}
    out = Counter()
    for e in events:
        args = dict(e.get("args", {}))
        for key in ("span_id", "parent_span_id"):
            if args.get(key) in names:
                args[key] = names[args[key]]
        out[json.dumps({**e, "args": args}, sort_keys=True)] += 1
    return out


def test_timeline_report_and_merged_trace(tmp_path, capsys):
    # explain labels a run by its directory: lay the three span/event
    # pairs out under the labels the golden output carries.
    dirs = []
    for label, src in (("driver", PROFILE),
                       ("worker0", PROFILE / "workers" / "worker0"),
                       ("worker1", PROFILE / "workers" / "worker1")):
        dirs.append(tmp_path / label)
        dirs[-1].mkdir()
        for name in ("spans.ndjson", "events.ndjson"):
            shutil.copy(src / name, dirs[-1] / name)
    merged = tmp_path / "merged.json"
    rc = main(["explain", *map(str, dirs), "--chrome", str(merged)])
    report = capsys.readouterr().out
    assert rc == 0
    assert report == (EXPECTED / "timeline_report.txt").read_text()
    got = json.loads(merged.read_text())
    want = json.loads((EXPECTED / "merged_trace.json").read_text())
    assert _events_multiset(got) == _events_multiset(want)


def test_id_less_span_file_is_linked_once():
    records = spans_from_ndjson((PROFILE / "spans.ndjson").read_text())
    ids = {r.span_id for r in records}
    assert len(ids) == len(records) and None not in ids
    roots = [r for r in records if r.parent_span_id not in ids]
    assert [r.name for r in roots] == ["scf/run"]


def test_killed_attempt_torn_line_is_skipped():
    text = (CHAOS / "trace" / "attempt-001.spans.ndjson").read_text()
    assert not text.endswith("\n")  # cut mid-line
    assert len(spans_from_ndjson(text)) == len(text.splitlines()) - 1


def test_job_trace_report_and_chrome_trace():
    job = (CHAOS / "job_id").read_text().strip()
    trace = assemble_job_trace(CHAOS / "journal.ndjson", job,
                               trace_dir=CHAOS / "trace")
    report = "\n".join([trace.critical_path_report(), *trace.warnings,
                        *trace.validate()])
    assert report + "\n" == (EXPECTED / "job_trace_report.txt").read_text()
    got = trace.to_chrome_trace()
    want = json.loads((EXPECTED / "job_trace.json").read_text())
    assert _events_multiset(got) == _events_multiset(want)
    for key in ("job_id", "trace_id"):
        assert got["otherData"][key] == want["otherData"][key]


def test_explain_job_prints_and_writes_the_job_trace(tmp_path, capsys):
    # The layout a service leaves: the journal under the service dir,
    # the attempts' span files under the job's run directory.
    job = (CHAOS / "job_id").read_text().strip()
    svc, runs = tmp_path / "svc", tmp_path / "runs"
    svc.mkdir()
    shutil.copy(CHAOS / "journal.ndjson", svc / "journal.ndjson")
    shutil.copytree(CHAOS / "trace", runs / "20261016-065506-4520-0019"
                    / "trace")
    chrome = tmp_path / "job.json"
    rc = main(["explain", job, "--service-dir", str(svc),
               "--runs-dir", str(runs), "--chrome", str(chrome)])
    captured = capsys.readouterr()
    assert rc == 0
    want = json.loads((EXPECTED / "job_trace.json").read_text())
    lines = captured.out.splitlines()
    # The header lines the earlier build's `repro trace` printed.
    assert lines[:3] == [
        f"job {job}  trace_id {want['otherData']['trace_id']}",
        "300 span(s) across 4 process track(s); 5 synthetic",
        "",
    ]
    expected = (EXPECTED / "job_trace_report.txt").read_text().splitlines()
    assert lines[3:] == expected[:-1]
    assert expected[-1] in captured.err  # the warning
    assert _events_multiset(json.loads(chrome.read_text())) == \
        _events_multiset(want)
    # A job is explained alone: mixed with a run it is a usage error.
    rc = main(["explain", job, str(PROFILE), "--service-dir", str(svc),
               "--runs-dir", str(runs)])
    assert rc == 2 and "alone" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["telemetry_straggler", "telemetry_service"])
def test_monitor_and_slo_replay_the_recordings(name, capsys):
    src = str(GOLDEN / f"{name}.ndjson")
    assert main(["monitor", src, "--once"]) == 0
    frame = capsys.readouterr().out
    assert frame == (EXPECTED / f"{name}.monitor.txt").read_text()
    assert main(["slo", src, "--json"]) == 0
    report = capsys.readouterr().out
    assert report == (EXPECTED / f"{name}.slo.json").read_text()
