"""Run comparison and benchmark-regression gating.

The diff engine behind ``repro compare`` and the CI ``bench-regress``
job: load two or more machine-readable run records — ``BENCH_*.json``
benchmark records or NDJSON metric dumps (``metrics.ndjson`` from
``repro profile``) — flatten them to ``{key: number}`` mappings, and
diff them under a configurable noise tolerance.

Every key gets a *direction* inferred from its name (``*_per_s`` and
``*hit_rate*`` are higher-better; ``*wall_s``, ``*bytes*`` and
``*imbalance*`` are lower-better; everything else is a neutral
contract value whose change in either direction beyond tolerance is a
regression).  The overall verdict is ``pass`` only when no non-ignored
key regressed, changed, or disappeared — which is what lets CI fail
the build on a real regression while tolerating shared-runner noise
via ``--tolerance`` / ``--ignore``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fnmatch import fnmatch
from pathlib import Path
from typing import Any, Iterable, Sequence

from repro.obs.events import ndjson_records
from repro.obs.metrics import _format_key

#: Name patterns → direction, first match wins (order matters:
#: ``*_per_s`` must shadow the lower-better ``*_s`` suffix).
_DIRECTION_PATTERNS: tuple[tuple[str, str], ...] = (
    ("*_per_s", "higher"),
    ("*speedup*", "higher"),
    ("*hit_rate*", "higher"),
    ("*efficiency*", "higher"),
    ("*_s", "lower"),
    ("*wall*", "lower"),
    ("*seconds*", "lower"),
    ("*bytes*", "lower"),
    ("*imbalance*", "lower"),
    ("*misses*", "lower"),
    ("*evictions*", "lower"),
    ("*races*", "lower"),
    ("*failures*", "lower"),
)


def key_direction(key: str) -> str:
    """``higher`` / ``lower`` / ``neutral`` preference for a metric key."""
    for pattern, direction in _DIRECTION_PATTERNS:
        if fnmatch(key, pattern):
            return direction
    return "neutral"


# -- loading -----------------------------------------------------------------


def flatten_record(obj: Any, prefix: str = "") -> dict[str, float]:
    """Recursively flatten JSON into ``{dotted.key[i]: number}``.

    Strings, booleans, and nulls are dropped — the diff engine compares
    numbers only.
    """
    out: dict[str, float] = {}
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return out
    if isinstance(obj, (int, float)):
        out[prefix or "value"] = float(obj)
        return out
    if isinstance(obj, dict):
        for k, v in obj.items():
            key = f"{prefix}.{k}" if prefix else str(k)
            out.update(flatten_record(v, key))
        return out
    if isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            out.update(flatten_record(v, f"{prefix}[{i}]"))
        return out
    return out


@dataclass
class RunRecord:
    """A loaded run: a label plus its flat numeric metric mapping."""

    label: str
    values: dict[str, float]

    def __len__(self) -> int:
        return len(self.values)


def _flatten_ndjson_line(rec: dict[str, Any]) -> dict[str, float]:
    if "metric" in rec and "value" in rec:
        base = _format_key(
            rec["metric"], tuple(sorted(rec.get("labels", {}).items()))
        )
        return flatten_record(rec["value"], base)
    if "fock_build" in rec:
        build = rec["fock_build"]
        return flatten_record(
            {k: v for k, v in rec.items() if k != "fock_build"},
            f"fock_build[{build}]",
        )
    if "event" in rec:
        return {}  # event logs are not comparable metrics
    return flatten_record(rec)


def load_run(path: str | Path, *, label: str | None = None) -> RunRecord:
    """Load a ``BENCH_*.json`` record or an NDJSON metrics dump.

    A file whose whole body parses as one JSON object is treated as a
    benchmark record; otherwise each line is parsed as one NDJSON
    metric / fock-build record.  A file from which no JSON record
    parses raises ``ValueError``: read as an empty record, it would
    pass any gate.
    """
    path = Path(path)
    text = path.read_text()
    label = label if label is not None else path.name
    try:
        whole = json.loads(text)
    except json.JSONDecodeError:
        whole = None
    if isinstance(whole, dict) and "metric" not in whole:
        return RunRecord(label=label, values=flatten_record(whole))
    records = list(ndjson_records(text))
    if not records:
        raise ValueError(f"{path}: no JSON record in the file")
    values: dict[str, float] = {}
    for rec in records:
        values.update(_flatten_ndjson_line(rec))
    return RunRecord(label=label, values=values)


# -- diffing -----------------------------------------------------------------

#: Statuses that fail the gate.
_FAILING = ("regressed", "changed", "removed")


@dataclass
class KeyDelta:
    """The comparison outcome of one metric key."""

    key: str
    baseline: float | None
    candidate: float | None
    direction: str
    status: str  # ok | improved | regressed | changed | added | removed

    @property
    def rel_change(self) -> float | None:
        """(candidate - baseline) / |baseline|, None when undefined."""
        if self.baseline is None or self.candidate is None:
            return None
        if self.baseline == 0:
            return 0.0 if self.candidate == 0 else math.inf
        return (self.candidate - self.baseline) / abs(self.baseline)


@dataclass
class RunComparison:
    """Baseline-vs-candidate diff with a pass/fail verdict."""

    baseline_label: str
    candidate_label: str
    deltas: list[KeyDelta]
    tolerance: float
    abs_tolerance: float
    ignored: list[str] = field(default_factory=list)

    @property
    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for d in self.deltas:
            out[d.status] = out.get(d.status, 0) + 1
        return out

    @property
    def failures(self) -> list[KeyDelta]:
        return [d for d in self.deltas if d.status in _FAILING]

    @property
    def verdict(self) -> str:
        return "fail" if self.failures else "pass"

    def to_dict(self) -> dict[str, Any]:
        """Machine-readable verdict (the ``--json`` output unit)."""
        return {
            "baseline": self.baseline_label,
            "candidate": self.candidate_label,
            "tolerance": self.tolerance,
            "abs_tolerance": self.abs_tolerance,
            "ignored_keys": len(self.ignored),
            "verdict": self.verdict,
            "counts": self.counts,
            "deltas": [
                {
                    "key": d.key,
                    "baseline": d.baseline,
                    "candidate": d.candidate,
                    "rel_change": (
                        None
                        if d.rel_change is None or math.isinf(d.rel_change)
                        else d.rel_change
                    ),
                    "direction": d.direction,
                    "status": d.status,
                }
                for d in self.deltas
            ],
        }

    def report(self) -> str:
        """Human-readable comparison report."""
        lines = [
            f"run comparison — baseline: {self.baseline_label}, "
            f"candidate: {self.candidate_label}",
            f"tolerance: ±{100 * self.tolerance:.1f}% relative "
            f"(abs {self.abs_tolerance:g}); "
            f"{len(self.ignored)} key(s) ignored",
            "",
            f"  {'status':<10s} {'key':<44s} {'baseline':>14s} "
            f"{'candidate':>14s} {'Δ%':>8s}",
        ]
        interesting = [d for d in self.deltas if d.status != "ok"]
        shown = interesting if interesting else self.deltas
        for d in sorted(shown, key=lambda d: (d.status, d.key)):
            base = "-" if d.baseline is None else f"{d.baseline:.6g}"
            cand = "-" if d.candidate is None else f"{d.candidate:.6g}"
            rel = d.rel_change
            pct = (
                "-" if rel is None
                else "inf" if math.isinf(rel)
                else f"{100 * rel:+.1f}%"
            )
            lines.append(
                f"  {d.status:<10s} {d.key:<44s} {base:>14s} "
                f"{cand:>14s} {pct:>8s}"
            )
        if not interesting:
            lines.append("  (all keys within tolerance)")
        counts = self.counts
        summary = ", ".join(
            f"{counts.get(k, 0)} {k}"
            for k in ("ok", "improved", "regressed", "changed", "added",
                      "removed")
            if counts.get(k, 0) or k in ("ok", "regressed")
        )
        lines += ["", f"summary: {summary}",
                  f"verdict: {self.verdict.upper()}"]
        return "\n".join(lines)


def _status(
    base: float, cand: float, direction: str, tol: float, abs_tol: float
) -> str:
    delta = cand - base
    if abs(delta) <= abs_tol:
        return "ok"
    rel = abs(delta) / abs(base) if base != 0 else math.inf
    if rel <= tol:
        return "ok"
    if direction == "neutral":
        return "changed"
    better = cand > base if direction == "higher" else cand < base
    return "improved" if better else "regressed"


def compare_runs(
    baseline: RunRecord,
    candidate: RunRecord,
    *,
    tolerance: float = 0.05,
    abs_tolerance: float = 1e-9,
    ignore: Iterable[str] = (),
    only: Iterable[str] = (),
    allow_missing: bool = False,
) -> RunComparison:
    """Diff ``candidate`` against ``baseline`` under a noise tolerance.

    Parameters
    ----------
    tolerance:
        Relative change treated as noise (0.05 = ±5%).
    abs_tolerance:
        Absolute change treated as noise (guards zero baselines).
    ignore / only:
        Glob patterns selecting the keys to skip / to keep.
    allow_missing:
        Downgrade keys missing from the candidate from ``removed``
        (a gate failure) to ``ok``.
    """
    ignore = tuple(ignore)
    only = tuple(only)

    def selected(key: str) -> bool:
        if only and not any(fnmatch(key, pat) for pat in only):
            return False
        return not any(fnmatch(key, pat) for pat in ignore)

    ignored = sorted(
        k
        for k in set(baseline.values) | set(candidate.values)
        if not selected(k)
    )
    deltas: list[KeyDelta] = []
    for key in sorted(set(baseline.values) | set(candidate.values)):
        if not selected(key):
            continue
        base = baseline.values.get(key)
        cand = candidate.values.get(key)
        direction = key_direction(key)
        if base is None:
            status = "added"
        elif cand is None:
            status = "ok" if allow_missing else "removed"
        else:
            status = _status(base, cand, direction, tolerance, abs_tolerance)
        deltas.append(
            KeyDelta(
                key=key, baseline=base, candidate=cand,
                direction=direction, status=status,
            )
        )
    return RunComparison(
        baseline_label=baseline.label,
        candidate_label=candidate.label,
        deltas=deltas,
        tolerance=tolerance,
        abs_tolerance=abs_tolerance,
        ignored=ignored,
    )
