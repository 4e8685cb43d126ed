"""Workload manifests: NDJSON / TOML files describing many SCF jobs.

A manifest is the unit of *throughput* work: hundreds–thousands of job
entries (mixed molecules, bases, algorithms, backends) that the batch
scheduler turns into a plan and the service fleet executes.  Two
formats share one entry schema:

``*.ndjson`` / ``*.jsonl`` / ``*.json``
    One JSON object per line; blank lines and ``#`` comment lines are
    skipped.  Errors carry ``<file>:<line>`` locators.

``*.toml``
    An optional ``[defaults]`` table merged under every entry, plus one
    ``[[job]]`` table per job.  Errors carry ``<file>: job[<k>]``
    locators.

Entry schema = :class:`~repro.service.jobs.JobSpec` fields, except the
geometry, which is exactly one of:

``xyz``        inline XYZ text (as on the wire);
``molecule``   a named built-in (``water``, ``h2``, ``methane``);
``xyz_file``   a path to an ``.xyz`` file, relative to the manifest.

Plus ``repeat = N`` to expand one entry into N identical jobs — the
idiom for throughput manifests, where reuse across identical jobs is
the whole point.  Entries without a ``tag`` get ``batch-%04d`` so every
job in a thousand-job run is addressable in ``repro jobs`` output.

All malformations raise :class:`~repro.service.errors.ManifestError`
(a typed wire error) with a locator pinpointing the offending entry.
"""

from __future__ import annotations

import json
import tomllib
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable

from repro.chem.molecule import Molecule, hydrogen_molecule, methane, water
from repro.service.errors import JobSpecError, ManifestError
from repro.service.jobs import JobSpec, sha256

#: Named geometries a manifest entry may reference via ``molecule = ...``.
MOLECULES: dict[str, Callable[[], Molecule]] = {
    "water": water,
    "h2": hydrogen_molecule,
    "methane": methane,
}

#: Entry keys that are manifest syntax, not JobSpec fields.
_ENTRY_ONLY = ("molecule", "xyz_file", "repeat")

_NDJSON_SUFFIXES = {".ndjson", ".jsonl", ".json"}
_TOML_SUFFIXES = {".toml"}


def _entry_to_specs(entry: dict[str, Any], *, where: str,
                    base_dir: Path | None) -> list[JobSpec]:
    """Validate one manifest entry and expand it into its JobSpecs."""
    if not isinstance(entry, dict):
        raise ManifestError(f"{where}: entry must be an object/table, "
                            f"got {type(entry).__name__}")
    entry = dict(entry)
    geometry = [k for k in ("xyz", "molecule", "xyz_file") if k in entry]
    if len(geometry) != 1:
        raise ManifestError(
            f"{where}: exactly one of xyz / molecule / xyz_file is "
            f"required, got {geometry or 'none'}"
        )
    repeat = entry.pop("repeat", 1)
    if not isinstance(repeat, int) or isinstance(repeat, bool) or repeat < 1:
        raise ManifestError(f"{where}: repeat must be an integer >= 1, "
                            f"got {repeat!r}")
    name = entry.pop("molecule", None)
    if name is not None:
        if name not in MOLECULES:
            raise ManifestError(
                f"{where}: unknown molecule {name!r}; "
                f"choose from {sorted(MOLECULES)}"
            )
        entry["xyz"] = MOLECULES[name]().to_xyz()
    xyz_file = entry.pop("xyz_file", None)
    if xyz_file is not None:
        path = Path(xyz_file)
        if not path.is_absolute() and base_dir is not None:
            path = base_dir / path
        try:
            entry["xyz"] = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise ManifestError(f"{where}: cannot read xyz_file "
                                f"{str(path)!r}: {exc}") from exc
    try:
        spec = JobSpec.from_dict(entry)
        spec.validate()
    except JobSpecError as exc:
        raise ManifestError(f"{where}: {exc}") from exc
    return [spec] * repeat


def _parse_ndjson(text: str, *, source: str,
                  base_dir: Path | None) -> list[JobSpec]:
    specs: list[JobSpec] = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        where = f"{source}:{lineno}"
        try:
            entry = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ManifestError(f"{where}: invalid JSON: {exc}") from exc
        specs.extend(_entry_to_specs(entry, where=where, base_dir=base_dir))
    return specs


def _parse_toml(text: str, *, source: str,
                base_dir: Path | None) -> list[JobSpec]:
    try:
        doc = tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise ManifestError(f"{source}: invalid TOML: {exc}") from exc
    defaults = doc.pop("defaults", {})
    if not isinstance(defaults, dict):
        raise ManifestError(f"{source}: [defaults] must be a table")
    jobs = doc.pop("job", None)
    if doc:
        raise ManifestError(
            f"{source}: unknown top-level key(s): {sorted(doc)} "
            "(a manifest holds [defaults] and [[job]] tables only)"
        )
    if not isinstance(jobs, list) or not jobs:
        raise ManifestError(f"{source}: no [[job]] tables found")
    specs: list[JobSpec] = []
    for k, entry in enumerate(jobs):
        where = f"{source}: job[{k}]"
        if not isinstance(entry, dict):
            raise ManifestError(f"{where}: must be a table")
        merged = {**defaults, **entry}
        specs.extend(_entry_to_specs(merged, where=where, base_dir=base_dir))
    return specs


def _autotag(specs: list[JobSpec]) -> list[JobSpec]:
    """Give untagged jobs a stable ``batch-%04d`` position tag."""
    return [
        spec if spec.tag is not None
        else replace(spec, tag=f"batch-{i:04d}")
        for i, spec in enumerate(specs)
    ]


def parse_manifest(text: str, *, fmt: str = "ndjson", source: str =
                   "<manifest>", base_dir: str | Path | None = None,
                   ) -> list[JobSpec]:
    """Parse manifest *text* into validated, auto-tagged JobSpecs.

    ``fmt`` is ``"ndjson"`` or ``"toml"``; ``source`` labels error
    locators; ``base_dir`` anchors relative ``xyz_file`` paths.
    """
    base = Path(base_dir) if base_dir is not None else None
    if fmt == "ndjson":
        specs = _parse_ndjson(text, source=source, base_dir=base)
    elif fmt == "toml":
        specs = _parse_toml(text, source=source, base_dir=base)
    else:
        raise ManifestError(f"unknown manifest format {fmt!r}; "
                            "choose ndjson or toml")
    if not specs:
        raise ManifestError(f"{source}: manifest holds no jobs")
    return _autotag(specs)


def load_manifest(path: str | Path) -> list[JobSpec]:
    """Read and parse a manifest file, inferring the format by suffix."""
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix in _NDJSON_SUFFIXES:
        fmt = "ndjson"
    elif suffix in _TOML_SUFFIXES:
        fmt = "toml"
    else:
        raise ManifestError(
            f"{path}: unknown manifest suffix {suffix!r}; use one of "
            f"{sorted(_NDJSON_SUFFIXES | _TOML_SUFFIXES)}"
        )
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ManifestError(f"cannot read manifest {path}: {exc}") from exc
    return parse_manifest(text, fmt=fmt, source=path.name,
                          base_dir=path.parent)


def manifest_fingerprint(specs: list[JobSpec]) -> str:
    """16-hex digest of the expanded job list, order included.

    Two manifests that expand to the same jobs in the same order get
    the same fingerprint regardless of format (NDJSON vs TOML) or how
    ``repeat`` / ``[defaults]`` spelled them — this is what batch plans
    and the daemon's exactly-once intake marker key on.
    """
    h = sha256()
    for spec in specs:
        h.update(json.dumps(spec.to_dict(), sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]
