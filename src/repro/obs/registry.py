"""Persistent run registry: every run leaves a queryable record.

Before this module, a finished ``repro scf`` left nothing behind but
stdout; profile output landed wherever ``--output-dir`` pointed and
benchmark JSON wherever ``--output`` said.  The registry gives all of
them one home::

    .repro/runs/<run_id>/
        run.json          # id, kind, config, status, timings, summary
        metrics.json      # final metrics snapshot (flat, diffable)
        events.ndjson     # the run's event log, one line per event

``events.ndjson`` is written a whole line per ``write`` as each event
happens: ``repro monitor`` follows it while ``run.json`` says
``running`` and replays it afterwards, and ``repro slo`` reads a serve
run's job records into its latency report (both resolve their source
through :meth:`RunRegistry.event_file`).  An earlier build's copy of
the events, ``telemetry.ndjson``, still replays
(:meth:`RunRegistry.telemetry_path`).

``run_id`` is ``<UTC stamp>-<pid>-<entropy>`` — sortable by start time
and collision-free across concurrent runs.  ``repro runs list`` /
``show`` read this layout, ``repro explain`` finds a run's
``spans.ndjson`` through its artifact record, and ``repro compare``
diffs two runs' ``metrics.json`` like benchmark baselines.

The registry root resolves from (in order) an explicit argument, the
``REPRO_RUNS_DIR`` environment variable, then ``.repro/runs`` under
the current directory.  Writes are best-effort: a read-only filesystem
degrades registration to a warning, never a crashed SCF.
"""

from __future__ import annotations

import datetime as _dt
import itertools
import json
import logging
import os
import shutil
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.obs.events import _json_safe, events_from_ndjson

logger = logging.getLogger("repro.obs.registry")

#: Environment override for the registry root (tests point it at tmp).
RUNS_DIR_ENV = "REPRO_RUNS_DIR"

#: Default registry root, relative to the working directory.
DEFAULT_ROOT = Path(".repro") / "runs"

_RUN_FILE = "run.json"
_METRICS_FILE = "metrics.json"


def runs_root(root: str | Path | None = None) -> Path:
    """Resolve the registry root: argument > env var > default."""
    if root is not None:
        return Path(root)
    env = os.environ.get(RUNS_DIR_ENV)
    return Path(env) if env else DEFAULT_ROOT


_run_id_counter = itertools.count()


def new_run_id(clock: _dt.datetime | None = None) -> str:
    """Sortable, collision-free run id: UTC stamp + pid + entropy.

    A per-process counter folds into the entropy so ids minted in the
    same second by the same process can never collide (two random hex
    chars alone have ~1/65k pair odds — too flaky for a busy daemon).
    """
    now = clock or _dt.datetime.now(_dt.timezone.utc)
    seq = next(_run_id_counter) & 0xFFF
    entropy = os.urandom(1).hex()[0]
    return (
        f"{now.strftime('%Y%m%d-%H%M%S')}-{os.getpid()}-{seq:03x}{entropy}"
    )


@dataclass
class RunHandle:
    """One registered run: its id, directory, and mutable record."""

    run_id: str
    directory: Path
    record: dict[str, Any]

    @property
    def ok(self) -> bool:
        """Whether the registry write path is usable."""
        return self.directory is not None

    def path(self, name: str) -> Path:
        """A file path inside the run directory."""
        return self.directory / name

    def save(self) -> None:
        """Persist ``run.json`` (best effort)."""
        try:
            self.path(_RUN_FILE).write_text(
                json.dumps(_json_safe(self.record), indent=2, sort_keys=True)
                + "\n"
            )
        except OSError as exc:  # pragma: no cover - fs failure path
            logger.warning("run registry write failed: %s", exc)

    def add_artifact(self, name: str, path: str | Path) -> None:
        """Record an artifact path produced by this run (made absolute,
        so the record resolves from any working directory)."""
        self.record.setdefault("artifacts", {})[name] = os.path.abspath(path)

    def finalize(
        self,
        *,
        status: str,
        metrics: dict[str, Any] | None = None,
        summary: dict[str, Any] | None = None,
        event_counts: dict[str, int] | None = None,
    ) -> None:
        """Close the record: status, wall time, final metrics snapshot."""
        now = _dt.datetime.now(_dt.timezone.utc)
        self.record["status"] = status
        self.record["finished_at"] = now.isoformat()
        if summary:
            self.record.setdefault("summary", {}).update(_json_safe(summary))
        if event_counts is not None:
            self.record["event_counts"] = dict(event_counts)
        if metrics is not None:
            try:
                self.path(_METRICS_FILE).write_text(
                    json.dumps(_json_safe(metrics), indent=2, sort_keys=True)
                    + "\n"
                )
            except OSError as exc:  # pragma: no cover - fs failure path
                logger.warning("metrics snapshot write failed: %s", exc)
        self.save()


class RunRegistry:
    """Registry over one root directory of run records."""

    def __init__(self, root: str | Path | None = None) -> None:
        self.root = runs_root(root)

    # -- writing -------------------------------------------------------------

    def register(
        self, kind: str, *, config: dict[str, Any] | None = None,
        run_id: str | None = None,
    ) -> RunHandle | None:
        """Open a new run record; returns ``None`` when the fs refuses.

        ``run_id`` adopts an id minted earlier with :func:`new_run_id`
        (whose directory may already exist): the service daemon journals
        a job's run id and hands the job to a worker — which streams its
        spans under the run's directory — before it registers the run.
        """
        adopted = run_id is not None
        run_id = run_id if adopted else new_run_id()
        directory = self.root / run_id
        try:
            directory.mkdir(parents=True, exist_ok=adopted)
        except OSError as exc:
            logger.warning("cannot register run under %s: %s", self.root, exc)
            return None
        record = {
            "run_id": run_id,
            "kind": kind,
            "config": _json_safe(config or {}),
            "status": "running",
            "started_at": _dt.datetime.now(_dt.timezone.utc).isoformat(),
            "artifacts": {},
        }
        handle = RunHandle(run_id=run_id, directory=directory, record=record)
        handle.save()
        logger.info("registered %s run %s", kind, run_id)
        return handle

    # -- reading -------------------------------------------------------------

    def run_ids(self) -> list[str]:
        """All registered run ids, oldest first (ids sort by start time)."""
        if not self.root.is_dir():
            return []
        return sorted(
            d.name for d in self.root.iterdir()
            if d.is_dir() and (d / _RUN_FILE).exists()
        )

    def load(self, run_id: str) -> dict[str, Any]:
        """The ``run.json`` record of one run (exact id)."""
        return json.loads((self.root / run_id / _RUN_FILE).read_text())

    def find(self, needle: str) -> str:
        """Resolve an id prefix or ``"latest"`` to an exact run id.

        Raises ``KeyError`` with a helpful message when the needle
        matches zero or several runs.
        """
        ids = self.run_ids()
        if not ids:
            raise KeyError(f"no runs registered under {self.root}")
        if needle in ("latest", ""):
            return ids[-1]
        matches = [i for i in ids if i.startswith(needle)]
        if len(matches) == 1:
            return matches[0]
        if not matches:
            raise KeyError(f"no run matches {needle!r} under {self.root}")
        raise KeyError(
            f"{needle!r} is ambiguous: matches {', '.join(matches[-5:])}"
        )

    def run_dir(self, run_id: str) -> Path:
        return self.root / run_id

    def telemetry_path(self, run_id: str) -> Path | None:
        """The run's event file: its ``events.ndjson``, else an earlier
        build's ``telemetry.ndjson``; ``None`` when neither is on disk."""
        for name in ("events.ndjson", "telemetry.ndjson"):
            path = self.run_dir(run_id) / name
            if path.exists():
                return path
        return None

    def latest_with_events(self, kind: str | None = None) -> str | None:
        """The newest run (of ``kind``, when given) with an event file."""
        for run_id in reversed(self.run_ids()):
            if self.telemetry_path(run_id) is None:
                continue
            try:
                if kind is None or self.load(run_id).get("kind") == kind:
                    return run_id
            except (OSError, json.JSONDecodeError):
                continue
        return None

    def event_file(self, source: str, kind: str | None = None) -> Path:
        """Resolve an event-file path, a run-id prefix or ``"latest"``
        to an event file (:meth:`telemetry_path`).

        ``latest`` is the newest run with one, of ``kind`` when given;
        with no ``kind``, the newest run when none has one.  Raises
        ``KeyError`` with the reason when there is no file to read.
        """
        if Path(source).is_file():
            return Path(source)
        if source == "latest" and kind is not None:
            run_id = self.latest_with_events(kind)
            if run_id is None:
                raise KeyError(f"no {kind} run under {self.root} has a "
                               "telemetry recording")
        else:
            run_id = self.find(source)
            if source == "latest":
                run_id = self.latest_with_events() or run_id
        path = self.telemetry_path(run_id)
        if path is None:
            raise KeyError(f"run {run_id} has no events.ndjson")
        return path

    def is_live(self, run_id: str) -> bool:
        """Whether the run is still going: its ``run.json`` says
        ``running`` and the pid in its id is alive.  A record caught
        mid-rewrite reads as running."""
        try:
            if self.load(run_id).get("status") != "running":
                return False
        except json.JSONDecodeError:
            pass
        except OSError:
            return False
        try:
            os.kill(int(run_id.split("-")[2]), 0)
        except (IndexError, ValueError, ProcessLookupError):
            return False
        except PermissionError:  # alive, owned by another user
            pass
        return True

    # -- retention -----------------------------------------------------------

    def _dir_bytes(self, run_id: str) -> int:
        total = 0
        for p in self.run_dir(run_id).rglob("*"):
            try:
                if p.is_file():
                    total += p.stat().st_size
            except OSError:  # pragma: no cover - races with deletion
                continue
        return total

    def prune(
        self,
        *,
        keep_last: int | None = None,
        max_age_s: float | None = None,
        max_bytes: int | None = None,
        protect: set[str] | frozenset[str] | None = None,
        now: float | None = None,
        dry_run: bool = False,
    ) -> list[str]:
        """Retention GC: delete old run directories, oldest first.

        Three independent policies compose (a run violating any one is
        removed): ``keep_last`` keeps only the newest N runs,
        ``max_age_s`` drops runs whose ``run.json`` is older than the
        cutoff, and ``max_bytes`` deletes oldest-first until the
        registry fits the byte budget.  Runs whose record still says
        ``status: "running"`` and ids in ``protect`` are never
        touched (the serving daemon protects its own live jobs this
        way).  Returns the removed ids, oldest first; deletion is
        best-effort and a failed ``rmtree`` is logged, not raised.
        With ``dry_run`` nothing is deleted — the victim list is
        returned for preview.
        """
        ids = self.run_ids()  # oldest first
        protected = set(protect or ())
        candidates = []
        for run_id in ids:
            if run_id in protected:
                continue
            try:
                if self.load(run_id).get("status") == "running":
                    continue
            except (OSError, json.JSONDecodeError):
                pass  # unreadable record: still eligible
            candidates.append(run_id)

        victims: set[str] = set()
        if max_age_s is not None:
            cutoff = (time.time() if now is None else now) - max_age_s
            for run_id in candidates:
                try:
                    mtime = (self.run_dir(run_id) / _RUN_FILE).stat().st_mtime
                except OSError:
                    mtime = 0.0
                if mtime < cutoff:
                    victims.add(run_id)
        if keep_last is not None and keep_last >= 0:
            survivors = [i for i in candidates if i not in victims]
            # keep_last counts *all* retained runs, protected included.
            retained = len(ids) - len(victims)
            excess = retained - keep_last
            for run_id in survivors:
                if excess <= 0:
                    break
                victims.add(run_id)
                excess -= 1
        if max_bytes is not None:
            survivors = [i for i in ids if i not in victims]
            sizes = {i: self._dir_bytes(i) for i in survivors}
            total = sum(sizes.values())
            for run_id in survivors:
                if total <= max_bytes:
                    break
                if run_id not in candidates:
                    continue
                victims.add(run_id)
                total -= sizes[run_id]

        removed = [i for i in ids if i in victims]
        if dry_run:
            return removed
        for run_id in removed:
            try:
                shutil.rmtree(self.run_dir(run_id))
            except OSError as exc:  # pragma: no cover - fs failure path
                logger.warning("prune failed for %s: %s", run_id, exc)
        if removed:
            logger.info("pruned %d run(s) under %s", len(removed), self.root)
        return removed

    # -- rendering -----------------------------------------------------------

    def list_table(self) -> str:
        """Human-readable table of all runs, newest last."""
        rows = []
        for run_id in self.run_ids():
            try:
                rec = self.load(run_id)
            except (OSError, json.JSONDecodeError):
                continue
            summary = rec.get("summary", {})
            energy = summary.get("energy")
            rows.append(
                (
                    run_id,
                    rec.get("kind", "?"),
                    rec.get("status", "?"),
                    rec.get("config", {}).get("algorithm", "-"),
                    f"{energy:.6f}" if isinstance(energy, float) else "-",
                )
            )
        if not rows:
            return f"(no runs registered under {self.root})"
        header = ("run", "kind", "status", "algorithm", "energy/Eh")
        widths = [
            max(len(header[c]), *(len(r[c]) for r in rows))
            for c in range(len(header))
        ]
        fmt = "  ".join(f"{{:<{w}}}" for w in widths)
        lines = [fmt.format(*header)]
        lines += [fmt.format(*row) for row in rows]
        return "\n".join(lines)

    def show(self, run_id: str) -> str:
        """Full dump of one run: record, event counts, artifact paths."""
        rec = self.load(run_id)
        lines = [f"run {run_id} ({rec.get('kind', '?')})"]
        lines.append(json.dumps(rec, indent=2, sort_keys=True))
        events = self.run_dir(run_id) / "events.ndjson"
        if "event_counts" not in rec and events.exists():
            counts = Counter(ev.kind for ev in
                             events_from_ndjson(events.read_text()))
            if counts:
                lines.append("events:")
                for kind in sorted(counts):
                    lines.append(f"  {kind}: {counts[kind]}")
        return "\n".join(lines)
