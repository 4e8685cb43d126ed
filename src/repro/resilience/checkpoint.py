"""SCF checkpoint/restart: serialize the iteration state to one record.

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

On disk (format version 2) a checkpoint is one contiguous record, built
in memory and handed to the kernel in a single ``write``::

    MAGIC (8 bytes) | header length (uint32 LE) | JSON header | float64 payload

The header — space-padded so the payload starts 8-byte aligned — holds
``version``, ``kind``, ``cycle``, ``energy`` (``repr`` round-trips a
float64 exactly), ``nbf``, ``nelectrons``, ``label``, the counts
``ndensities`` / ``ndiis`` and the ``shapes`` of every array; the
payload is those arrays back to back in little-endian float64: history,
densities, DIIS Fock stack, DIIS error stack.  The header fixes the
file's exact length, which :meth:`SCFCheckpoint.load` insists on.
Version 1 was an ``.npz`` archive of 21 members; it is refused by name,
not read.
"""

from __future__ import annotations

import json
import math
import os
import struct
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from repro.obs.events import get_event_log
from repro.obs.metrics import get_metrics
from repro.obs.tracer import get_tracer
from repro.resilience.errors import CheckpointError

#: On-disk format version; bump on incompatible layout changes.
FORMAT_VERSION = 2

#: First bytes of every checkpoint file.
MAGIC = b"REPROCKP"

_HEADER_LEN = struct.Struct("<I")
_FLOAT = np.dtype("<f8")
_PAYLOAD_START = len(MAGIC) + _HEADER_LEN.size

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
        The DIIS subspace in push order (possibly empty); each vector
        is the spin channels stacked, ``(len(densities), nbf, nbf)``
        (earlier version-2 writers stored the same numbers flat or as
        one matrix, which a restart reshapes).
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
        """Write the checkpoint as one version-2 record; returns the path.

        The file appears under ``path`` complete or not at all (a
        temporary file in the same directory, one ``write``, renamed
        into place); it is not ``fsync``'d — the failure this guards
        against is a killed process, not a lost disk cache.
        """
        path = Path(path)
        arrays = [
            np.ascontiguousarray(a, dtype=_FLOAT)
            for a in (self.history, *self.densities,
                      *self.diis_focks, *self.diis_errors)
        ]
        header = json.dumps({
            "version": FORMAT_VERSION,
            "kind": self.kind,
            "cycle": int(self.cycle),
            "energy": float(self.energy),
            "nbf": int(self.nbf),
            "nelectrons": int(self.nelectrons),
            "label": self.label,
            "ndensities": len(self.densities),
            "ndiis": len(self.diis_focks),
            "shapes": [a.shape for a in arrays],
        }).encode()
        header += b" " * (-(_PAYLOAD_START + len(header)) % 8)
        record = b"".join(
            [MAGIC, _HEADER_LEN.pack(len(header)), header]
            + [a.tobytes() for a in arrays]
        )
        # A worker killed mid-write must leave the previous checkpoint
        # readable: write beside it, then rename over it.
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            tmp.write_bytes(record)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        return path

    @classmethod
    def load(cls, path: str | Path) -> "SCFCheckpoint":
        """Read a checkpoint written by :meth:`save`.

        Raises :class:`CheckpointError` for a file that is missing, not
        a checkpoint, of another format version (a version-1 ``.npz``
        archive included), or whose length is not *exactly* what its
        header announces — a file torn at any offset never loads.
        """
        path = Path(path)
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            raise CheckpointError(
                f"checkpoint file not found: {path}") from None
        except OSError as exc:
            raise CheckpointError(
                f"checkpoint {path} is unreadable: {exc}") from exc
        if raw[:4] == b"PK\x03\x04":
            raise CheckpointError(
                f"checkpoint {path} is a version-1 .npz archive; this "
                f"build reads version {FORMAT_VERSION} only"
            )
        if len(raw) < _PAYLOAD_START or not raw.startswith(MAGIC):
            raise CheckpointError(f"checkpoint {path} is malformed: bad magic")
        (header_len,) = _HEADER_LEN.unpack_from(raw, len(MAGIC))
        body = _PAYLOAD_START + header_len
        try:
            meta = json.loads(raw[_PAYLOAD_START:body])
            version = int(meta["version"])
            if version != FORMAT_VERSION:
                raise CheckpointError(
                    f"checkpoint {path} has format version {version}; "
                    f"this build reads version {FORMAT_VERSION}"
                )
            ndens, ndiis = int(meta["ndensities"]), int(meta["ndiis"])
            shapes = [tuple(int(n) for n in shape)
                      for shape in meta["shapes"]]
            if len(shapes) != 1 + ndens + 2 * ndiis:
                raise ValueError(f"{len(shapes)} arrays for {ndens} "
                                 f"densities and {ndiis} DIIS vectors")
            if any(n < 0 for shape in shapes for n in shape):
                raise ValueError("negative array dimension")
            sizes = [math.prod(shape) for shape in shapes]
            expected = body + _FLOAT.itemsize * sum(sizes)
            if len(raw) != expected:
                raise ValueError(f"{len(raw)} bytes on disk, header "
                                 f"announces {expected}")
            flat = np.frombuffer(raw, dtype=_FLOAT, count=sum(sizes),
                                 offset=body)
            # Copies: ``frombuffer`` views are read-only.
            arrays = [
                part.reshape(shape).astype(np.float64)
                for part, shape
                in zip(np.split(flat, np.cumsum(sizes)[:-1]), shapes)
            ]
            return cls(
                kind=str(meta["kind"]),
                cycle=int(meta["cycle"]),
                energy=float(meta["energy"]),
                densities=tuple(arrays[1:1 + ndens]),
                diis_focks=arrays[1 + ndens:1 + ndens + ndiis],
                diis_errors=arrays[1 + ndens + ndiis:],
                history=arrays[0],
                nbf=int(meta["nbf"]),
                nelectrons=int(meta["nelectrons"]),
                label=str(meta["label"]),
            )
        except CheckpointError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
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
    """Coerce a checkpoint object or a checkpoint path to a checkpoint."""
    if isinstance(source, SCFCheckpoint):
        return source
    return SCFCheckpoint.load(source)


#: The cost rule's ratio K: the cycles since the last write must have
#: taken K times the cheapest write's wall time before the next one is
#: due, which holds checkpointing to about 1/(K + 1) ≈ 2.5 % of the run.
COST_RATIO = 40


class CheckpointManager:
    """Decides after each SCF cycle whether to write the loop's state.

    ``every=N`` writes after every N-th cycle (``cycle % N == 0``).
    ``every=None`` is the *cost rule*: it writes after the first cycle
    it sees — cycle 1 of a fresh run — and after that once the wall time
    of the cycles since the last write reaches :data:`COST_RATIO` times
    the cheapest write it has measured.  The first write comes after
    cycle 1 because it measures the cost the rule needs, and because a
    run killed at any later point then always resumes instead of
    starting over.  Cycles are deterministic, so a resume from an older
    write replays the cycles since it to the same bits; the rule trades
    a few milliseconds of replay for not paying a write per cycle.  With
    0.25 ms writes, 1 ms cycles write every ≈ 10 cycles and 50 ms cycles
    every cycle.

    The manager always writes to the same path (the latest checkpoint
    supersedes older ones — restart wants the most recent cycle) and
    meters each write as ``resilience.checkpoints_written``.  ``clock``
    is the rule's wall clock (tests pass a fake one).
    """

    def __init__(
        self,
        path: str | Path,
        every: int | None = 5,
        *,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        if every is not None and every < 1:
            raise CheckpointError(
                f"checkpoint interval must be >= 1, got {every}"
            )
        self.path = Path(path)
        self.every = every
        self.clock = clock
        self.writes = 0
        # Cost rule state: when the last write ended, and the cheapest
        # write so far (a write the host stalled must not stretch the
        # interval).
        self._written_at: float | None = None
        self._cost = math.inf

    def after_cycle(
        self, cycle: int, snapshot: Callable[[], SCFCheckpoint]
    ) -> bool:
        """Write ``snapshot()`` if cycle ``cycle`` is due; True if written.

        ``snapshot`` is called only when a write is due, so a cycle that
        does not write builds no :class:`SCFCheckpoint`.
        """
        if self.every is not None:
            due = cycle % self.every == 0
        else:
            due = (self._written_at is None or self.clock() - self._written_at
                   >= COST_RATIO * self._cost)
        if not due:
            return False
        start = self.clock()
        checkpoint = snapshot()
        with get_tracer().span(
            "scf/checkpoint", cycle=checkpoint.cycle, path=str(self.path)
        ):
            checkpoint.save(self.path)
        self._written_at = self.clock()
        self._cost = min(self._cost, self._written_at - start)
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

    def maybe_save(self, checkpoint: SCFCheckpoint) -> bool:
        """Persist a ready ``checkpoint`` if its cycle is due."""
        return self.after_cycle(checkpoint.cycle, lambda: checkpoint)
