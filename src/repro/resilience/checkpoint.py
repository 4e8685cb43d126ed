"""SCF checkpoint/restart: serialize the iteration state to ``.npz``.

A checkpoint captures *exactly* the state the SCF loop carries from one
cycle to the next — current density (or spin densities), the DIIS
Fock/error history, the electronic energy of the last cycle, the cycle
counter, and the convergence trace — all as float64 binary, so a
restarted run replays the remaining cycles bit-for-bit: same energies,
same iterate count, same final wavefunction.  Metadata (format version,
driver kind, basis size, electron count) guards against resuming with a
mismatched run; there is deliberately no RNG state because the whole
stack is RNG-free.

Per-cycle Fock-build statistics are *not* serialized (they describe the
completed builds of the interrupted process, not SCF state); restored
history entries carry empty stats dicts.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.obs.events import get_event_log
from repro.obs.metrics import get_metrics
from repro.obs.tracer import get_tracer
from repro.resilience.errors import CheckpointError

#: On-disk format version; bump on incompatible layout changes.
FORMAT_VERSION = 1

_KINDS = ("rhf", "uhf")


@dataclass
class SCFCheckpoint:
    """One SCF cycle boundary, ready to serialize.

    Attributes
    ----------
    kind:
        ``"rhf"`` or ``"uhf"``.
    cycle:
        1-based index of the last completed SCF cycle.
    energy:
        Electronic energy of that cycle (the loop's ``e_old``).
    densities:
        ``(D,)`` for RHF, ``(D_alpha, D_beta)`` for UHF.
    diis_focks / diis_errors:
        The DIIS subspace in push order (possibly empty).
    history:
        ``(cycle, 4)`` array of per-cycle records
        ``[iteration, total_energy, density_rms, energy_change]``.
    nbf / nelectrons:
        Consistency guards checked on restart.
    label:
        Free-form run label (molecule/basis), informational only.
    """

    kind: str
    cycle: int
    energy: float
    densities: tuple[np.ndarray, ...]
    diis_focks: list[np.ndarray] = field(default_factory=list)
    diis_errors: list[np.ndarray] = field(default_factory=list)
    history: np.ndarray = field(
        default_factory=lambda: np.zeros((0, 4), dtype=np.float64)
    )
    nbf: int = 0
    nelectrons: int = 0
    label: str = ""

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise CheckpointError(
                f"checkpoint kind must be one of {_KINDS}, got {self.kind!r}"
            )
        if self.cycle < 1:
            raise CheckpointError(
                f"checkpoint cycle must be >= 1, got {self.cycle}"
            )
        if len(self.diis_focks) != len(self.diis_errors):
            raise CheckpointError(
                f"DIIS history mismatch: {len(self.diis_focks)} Fock vs "
                f"{len(self.diis_errors)} error vectors"
            )

    # -- serialization ------------------------------------------------------

    def save(self, path: str | Path) -> Path:
        """Write the checkpoint as an ``.npz`` archive; returns the path.

        The file appears under ``path`` complete or not at all (a
        temporary file in the same directory, renamed into place); it is
        not ``fsync``'d — the failure this guards against is a killed
        process, not a lost disk cache.
        """
        path = Path(path)
        payload: dict[str, np.ndarray] = {
            "version": np.array(FORMAT_VERSION),
            "kind": np.array(self.kind),
            "cycle": np.array(self.cycle),
            "energy": np.array(self.energy, dtype=np.float64),
            "ndensities": np.array(len(self.densities)),
            "ndiis": np.array(len(self.diis_focks)),
            "history": np.asarray(self.history, dtype=np.float64),
            "nbf": np.array(self.nbf),
            "nelectrons": np.array(self.nelectrons),
            "label": np.array(self.label),
        }
        for i, d in enumerate(self.densities):
            payload[f"density_{i}"] = np.asarray(d, dtype=np.float64)
        for i, (f, e) in enumerate(zip(self.diis_focks, self.diis_errors)):
            payload[f"diis_fock_{i}"] = np.asarray(f, dtype=np.float64)
            payload[f"diis_error_{i}"] = np.asarray(e, dtype=np.float64)
        # A worker killed mid-write must leave the previous checkpoint
        # readable: write beside it, then rename over it.
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            with tmp.open("wb") as fh:
                np.savez(fh, **payload)
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
        return path

    @classmethod
    def load(cls, path: str | Path) -> "SCFCheckpoint":
        """Read a checkpoint written by :meth:`save`.

        Raises :class:`CheckpointError` for a file that is missing,
        truncated, not an archive, or of another format version.
        """
        import zipfile  # ``np.load`` needs it anyway; a cold SCF does not

        path = Path(path)
        if not path.exists():
            raise CheckpointError(f"checkpoint file not found: {path}")
        try:
            with np.load(path, allow_pickle=False) as z:
                version = int(z["version"])
                if version != FORMAT_VERSION:
                    raise CheckpointError(
                        f"checkpoint {path} has format version {version}; "
                        f"this build reads version {FORMAT_VERSION}"
                    )
                ndens = int(z["ndensities"])
                ndiis = int(z["ndiis"])
                return cls(
                    kind=str(z["kind"]),
                    cycle=int(z["cycle"]),
                    energy=float(z["energy"]),
                    densities=tuple(
                        z[f"density_{i}"] for i in range(ndens)
                    ),
                    diis_focks=[z[f"diis_fock_{i}"] for i in range(ndiis)],
                    diis_errors=[z[f"diis_error_{i}"] for i in range(ndiis)],
                    history=z["history"],
                    nbf=int(z["nbf"]),
                    nelectrons=int(z["nelectrons"]),
                    label=str(z["label"]),
                )
        except CheckpointError:
            raise
        except (
            KeyError, ValueError, OSError, EOFError, zipfile.BadZipFile
        ) as exc:
            raise CheckpointError(
                f"checkpoint {path} is malformed: {exc}"
            ) from exc

    # -- restart validation -------------------------------------------------

    def check_compatible(self, *, kind: str, nbf: int, nelectrons: int) -> None:
        """Raise :class:`CheckpointError` if this checkpoint cannot seed
        a run with the given driver kind and system size."""
        if self.kind != kind:
            raise CheckpointError(
                f"checkpoint was written by a {self.kind.upper()} run; "
                f"cannot restart a {kind.upper()} run from it"
            )
        if self.nbf != nbf:
            raise CheckpointError(
                f"checkpoint has {self.nbf} basis functions, run has {nbf}"
            )
        if self.nelectrons != nelectrons:
            raise CheckpointError(
                f"checkpoint has {self.nelectrons} electrons, "
                f"run has {nelectrons}"
            )

    def history_rows(self) -> list[tuple[int, float, float, float]]:
        """Convergence trace as ``(iteration, energy, d_rms, de)`` rows."""
        return [
            (int(row[0]), float(row[1]), float(row[2]), float(row[3]))
            for row in np.asarray(self.history)
        ]


def load_checkpoint(source: "SCFCheckpoint | str | Path") -> SCFCheckpoint:
    """Coerce a checkpoint object or an ``.npz`` path to a checkpoint."""
    if isinstance(source, SCFCheckpoint):
        return source
    return SCFCheckpoint.load(source)


class CheckpointManager:
    """Writes a checkpoint every ``every`` completed SCF cycles.

    The manager always writes to the same path (the latest checkpoint
    supersedes older ones — restart wants the most recent cycle) and
    meters each write as ``resilience.checkpoints_written``.
    """

    def __init__(self, path: str | Path, every: int = 5) -> None:
        if every < 1:
            raise CheckpointError(
                f"checkpoint interval must be >= 1, got {every}"
            )
        self.path = Path(path)
        self.every = every
        self.writes = 0

    def maybe_save(self, checkpoint: SCFCheckpoint) -> bool:
        """Persist ``checkpoint`` if its cycle hits the interval."""
        if checkpoint.cycle % self.every != 0:
            return False
        with get_tracer().span(
            "scf/checkpoint", cycle=checkpoint.cycle, path=str(self.path)
        ):
            checkpoint.save(self.path)
        self.writes += 1
        registry = get_metrics()
        if registry is not None:
            registry.counter("resilience.checkpoints_written").inc()
            registry.gauge("resilience.last_checkpoint_cycle").set(
                checkpoint.cycle
            )
        log = get_event_log()
        if log is not None:
            log.emit(
                "scf.checkpoint", cycle=checkpoint.cycle, path=str(self.path)
            )
        return True
