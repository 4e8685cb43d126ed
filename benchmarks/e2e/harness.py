"""Process sandbox, leak census, statistics and span recorder of the e2e ledger.

Nothing here knows a workload.  The pieces:

* :class:`Sandbox` — a private work directory per run (children run
  with it as CWD, so every service/registry/temp path is relative and
  short), a scrubbed environment (one BLAS thread, private
  ``REPRO_RUNS_DIR`` and ``TMPDIR``), children in their own process
  group, and a before/after census of processes, ``/dev/shm/psm_*``
  segments and sockets.  Whatever a unit leaves behind is counted as a
  failed operation and then killed.
* :func:`adopt_orphans` / :func:`stop_everything` — the last line of
  defence: ``run.py`` reaps all its descendants and leaves none running,
  ``multiprocessing``'s resource tracker included.
* :func:`summarize` — min / median / quartiles of a sample list.
* :class:`SpanRecorder` — the benchmark's own in-memory spans (name,
  start, end, parent, one id per unit) with self-time accounting.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import json
import os
import shutil
import signal
import stat
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
RESULTS = ROOT / "benchmarks" / "results" / "e2e"

#: A child that runs longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 120.0

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads() -> None:
    """One BLAS/OpenMP thread in this process (call before importing numpy)."""
    for name in _THREAD_VARS:
        os.environ[name] = "1"


# -- statistics ---------------------------------------------------------------


def summarize(samples: list[float]) -> dict[str, Any]:
    """Raw samples with their min, median and quartiles."""
    out: dict[str, Any] = {
        "n": len(samples),
        "samples": samples,
        "min": min(samples),
        "median": statistics.median(samples),
        "max": max(samples),
    }
    if len(samples) >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4)
        out["q1"], out["q3"] = q1, q3
    return out


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[round(q / 100.0 * (len(ordered) - 1))]


# -- process helpers ----------------------------------------------------------


def group_pids(pgid: int) -> list[int]:
    """Live (non-zombie) pids whose process group is ``pgid``."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                # comm may contain spaces/parens: fields start after the last ')'.
                rest = fh.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # exited while we were looking
        if rest[0] != "Z" and int(rest[2]) == pgid:
            pids.append(int(entry))
    return pids


def vm_hwm_mb(pid: int) -> float:
    """High-water RSS of a live process in MB (0.0 when it is gone)."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def shm_segments() -> set[str]:
    """``multiprocessing.shared_memory`` segments currently on the host."""
    return set(glob.glob("/dev/shm/psm_*"))


@dataclass
class ChildResult:
    """One finished child process."""

    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str
    leaked_pids: list[int] = field(default_factory=list)


class Sandbox:
    """Private directories, environment and leak census of one benchmark run."""

    def __init__(self, label: str) -> None:
        self.dir = RESULTS / "work" / f"{label}-{os.getpid()}"
        if self.dir.exists():
            shutil.rmtree(self.dir)
        (self.dir / "tmp").mkdir(parents=True)
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith(("REPRO_", "PYTHON"))}
        self.env.update({v: "1" for v in _THREAD_VARS})
        self.env["PYTHONPATH"] = str(SRC)
        self.env["REPRO_RUNS_DIR"] = str(self.dir / "runs")
        self.env["TMPDIR"] = str(self.dir / "tmp")
        self._shm_before = shm_segments()
        self._serial = 0

    # -- children -------------------------------------------------------------

    def spawn(self, argv: list[str], tag: str) -> "tuple[int, Path, Path]":
        """Start ``argv`` in its own process group; returns (pid, out, err)."""
        self._serial += 1
        out = self.dir / f"{tag}-{self._serial}.out"
        err = self.dir / f"{tag}-{self._serial}.err"
        with open(out, "wb") as fo, open(err, "wb") as fe:
            proc = subprocess.Popen(
                argv, cwd=self.dir, env=self.env, stdin=subprocess.DEVNULL,
                stdout=fo, stderr=fe, start_new_session=True,
            )
        # reap() collects the child with wait4 (for its rusage); stop
        # Popen from waiting on the same pid again at garbage collection.
        proc.returncode = 0
        return proc.pid, out, err

    def reap(self, pid: int, timeout_s: float = CHILD_TIMEOUT_S
             ) -> "tuple[int, float, float]":
        """Block until ``pid`` exits; returns (returncode, cpu_s, peak_rss_mb).

        A watchdog kills the child's whole group at ``timeout_s`` so the
        blocking ``wait4`` (which is what yields the rusage) always
        returns.
        """
        watchdog = threading.Timer(timeout_s, _kill_group, args=(pid,))
        watchdog.daemon = True
        watchdog.start()
        try:
            _, status, usage = os.wait4(pid, 0)
        finally:
            watchdog.cancel()
        return (
            os.waitstatus_to_exitcode(status),
            usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0,
        )

    def run(self, argv: list[str], tag: str) -> ChildResult:
        """Run one child to completion: wall from spawn to exit, census after."""
        t0 = time.perf_counter()
        pid, out, err = self.spawn(argv, tag)
        returncode, cpu_s, rss_mb = self.reap(pid)
        wall = time.perf_counter() - t0
        return ChildResult(
            returncode=returncode, wall_s=wall, cpu_s=cpu_s,
            peak_rss_mb=rss_mb,
            stdout=out.read_text(errors="replace"),
            stderr=err.read_text(errors="replace"),
            leaked_pids=self.sweep_group(pid),
        )

    # -- census ---------------------------------------------------------------

    def sweep_group(self, pgid: int) -> list[int]:
        """Processes still alive in a finished child's group: list, kill."""
        left = group_pids(pgid)
        if left:
            _kill_group(pgid)
        return left

    def census(self, tag: str) -> list[str]:
        """New ``/dev/shm`` segments and sockets under the sandbox: list, remove."""
        found = []
        for seg in sorted(shm_segments() - self._shm_before):
            found.append(f"{tag}: shared-memory segment {seg} left behind")
            with contextlib.suppress(OSError):
                os.unlink(seg)
        for dirpath, _dirs, files in os.walk(self.dir):
            for name in files:
                path = os.path.join(dirpath, name)
                with contextlib.suppress(OSError):
                    if stat.S_ISSOCK(os.lstat(path).st_mode):
                        found.append(f"{tag}: socket {path} left behind")
                        os.unlink(path)
        return found

    def close(self, *, keep: bool = False) -> None:
        if keep:
            print(f"sandbox kept for inspection: {self.dir}", file=sys.stderr)
        else:
            shutil.rmtree(self.dir, ignore_errors=True)


def _kill_group(pgid: int) -> None:
    with contextlib.suppress(ProcessLookupError, PermissionError):
        os.killpg(pgid, signal.SIGKILL)


# -- nothing outlives the run -------------------------------------------------

_PR_SET_CHILD_SUBREAPER = 36  # <linux/prctl.h>


def adopt_orphans() -> None:
    """Make this process the reaper of all its descendants.

    A grandchild whose parent exits (a daemon's worker, a double fork)
    is then reparented to this process instead of init, so
    :func:`stop_everything` finds it however it was started.
    """
    with contextlib.suppress(OSError, AttributeError):
        ctypes.CDLL(None, use_errno=True).prctl(
            _PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def _children() -> list[tuple[int, str]]:
    """(pid, state) of every process, zombies included, whose parent is us."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                rest = fh.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(rest[1]) == me:
            found.append((int(entry), rest[0]))
    return found


def _cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as fh:
            return fh.read().replace(b"\0", b" ").decode(errors="replace").strip()
    except OSError:
        return "?"


def stop_everything(timeout_s: float = 20.0) -> list[str]:
    """Stop every process this run started and wait until each has ended.

    Called on every path out of ``run.py``.  ``multiprocessing``'s
    resource tracker (started by the process backend's shared-memory
    blocks) normally exits only *after* its parent has: it is stopped
    and waited for here.  Whatever else is still alive below this
    process is a leak: it is killed, waited for, and returned by name so
    the caller can count it as a failed operation.
    """
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        with contextlib.suppress(Exception):
            tracker._resource_tracker._stop()
    leaked: dict[int, str] = {}
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        children = _children()
        if not children:
            break
        for pid, state in children:
            if state != "Z":
                leaked.setdefault(pid, _cmdline(pid))
                with contextlib.suppress(ProcessLookupError, PermissionError):
                    os.kill(pid, signal.SIGKILL)
        try:
            os.waitpid(-1, 0)  # killing a parent hands us its children next
        except ChildProcessError:
            break
    return [f"{pid} {cmd}" for pid, cmd in leaked.items()]


# -- spans --------------------------------------------------------------------


@dataclass
class SpanRec:
    """One recorded span; ``parent`` indexes into the recorder's list."""

    name: str
    start: float
    end: float
    parent: int | None
    unit: str
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """In-memory spans around calls into the layers' public functions."""

    def __init__(self, unit: str) -> None:
        self.unit = unit
        self.spans: list[SpanRec] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[SpanRec]:
        rec = SpanRec(name, 0.0, 0.0, self._stack[-1] if self._stack else None,
                      self.unit, attrs)
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        rec.start = time.perf_counter()
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, start: float, end: float,
            parent: int | None = None, **attrs: Any) -> int:
        """Record a span timed elsewhere (journal, worker span file).

        ``parent`` defaults to the span currently open; returns the new
        span's index.
        """
        if parent is None and self._stack:
            parent = self._stack[-1]
        self.spans.append(SpanRec(name, start, end, parent, self.unit, attrs))
        return len(self.spans) - 1

    def index(self, name: str) -> int:
        """Index of the first span called ``name``."""
        return next(i for i, s in enumerate(self.spans) if s.name == name)

    def children_cover(self, index: int, skip: tuple[str, ...] = ()) -> float:
        """Share of span ``index`` covered by the union of its children."""
        span = self.spans[index]
        covered, edge = 0.0, span.start
        for child in sorted((s for s in self.spans if s.parent == index
                             and s.name not in skip), key=lambda s: s.start):
            lo, hi = max(child.start, edge), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                edge = hi
        return covered / span.duration

    def named(self, name: str) -> list[SpanRec]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(s.duration for s in self.named(name))

    def to_json(self) -> list[dict[str, Any]]:
        return [
            {"id": i, "name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent, "unit": s.unit, "attrs": s.attrs}
            for i, s in enumerate(self.spans)
        ]


def write_json(path: Path, payload: Any) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
