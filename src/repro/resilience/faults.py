"""Deterministic fault injection for the Fock build, on either backend.

At the paper's headline scale (3,000 KNL nodes / 192,000 cores) rank
failures, stragglers, and corrupted messages are routine, so the
simulated runtime grows a first-class fault model.  A :class:`FaultPlan`
is a *seeded, deterministic* schedule of :class:`FaultEvent`\\ s — no
wall-clock randomness — so every chaos experiment is exactly
reproducible:

``kill``
    The rank dies during Fock build ``cycle`` after completing ``after``
    DLB tasks (a process-backend worker really exits).  The build driver
    zeroes the rank's reduction slot and replays its grants into it, in
    grant order: its whole share under ``static``, its claims under the
    process backend's live counter.  Every quartet evaluation is
    deterministic, so the reduced Fock matrix (and hence the SCF energy)
    is *bitwise identical* to the fault-free run.
``delay``
    A straggler: the rank runs ``factor`` times slower (a process-backend
    worker sleeps before it claims, up to 0.2 s).  Results are
    timing-independent, so a delay surfaces only in the metrics
    (``resilience.stragglers``, ``resilience.straggler_factor``), in a
    ``fault.delay`` event and in the perfsim-style cost accounting.
``corrupt``
    The rank's reduction contribution is corrupted on the wire with
    NaN/Inf: :func:`corrupt_copy` of it goes to the validating
    ``gsumf``, which rejects the non-finite payload before merging; the
    pristine buffer (the sender still holds it) is sent again, keeping
    results bitwise identical.

The plan is a pure schedule; the parent decides every fault.  On both
backends the build head
(:meth:`~repro.core.fock_base.ParallelFockBuilderBase._start_build`)
takes a build's events once and the build driver meters and logs them;
a process worker is sent its kill point and delay and only carries
them out.

Fault cycles are 1-based Fock-build indices within the current process
(a restarted run counts its builds from 1 again).  Events are one-shot:
each fires at most once per plan instance (:meth:`FaultPlan.take`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.resilience.errors import FaultSpecError


class FaultKind(str, enum.Enum):
    """Injectable fault categories."""

    KILL = "kill"
    DELAY = "delay"
    CORRUPT = "corrupt"


#: Corruption payloads: the value written over the wire copy.
_PAYLOADS = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf}


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    Attributes
    ----------
    kind:
        ``kill`` / ``delay`` / ``corrupt``.
    rank:
        Target rank (0-based).
    cycle:
        1-based Fock-build index the fault strikes in.
    after:
        (``kill``) DLB tasks the rank completes before dying.
    factor:
        (``delay``) slowdown multiplier, > 1.
    payload:
        (``corrupt``) ``nan`` / ``inf`` / ``-inf``.
    """

    kind: FaultKind
    rank: int
    cycle: int = 1
    after: int = 0
    factor: float = 2.0
    payload: str = "nan"

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise FaultSpecError(f"fault rank must be >= 0, got {self.rank}")
        if self.cycle < 1:
            raise FaultSpecError(f"fault cycle must be >= 1, got {self.cycle}")
        if self.after < 0:
            raise FaultSpecError(f"'after' must be >= 0, got {self.after}")
        if self.kind is FaultKind.DELAY and self.factor <= 1.0:
            raise FaultSpecError(
                f"delay factor must be > 1, got {self.factor}"
            )
        if self.kind is FaultKind.CORRUPT and self.payload not in _PAYLOADS:
            raise FaultSpecError(
                f"corrupt payload must be one of {sorted(_PAYLOADS)}, "
                f"got {self.payload!r}"
            )

    def to_spec(self) -> str:
        """The single-event spec string (inverse of :meth:`FaultPlan.from_spec`)."""
        parts = [self.kind.value, f"rank={self.rank}", f"cycle={self.cycle}"]
        if self.kind is FaultKind.KILL:
            parts.append(f"after={self.after}")
        elif self.kind is FaultKind.DELAY:
            parts.append(f"factor={self.factor:g}")
        else:
            parts.append(f"payload={self.payload}")
        return ":".join(parts)


class FaultPlan:
    """A deterministic, one-shot schedule of fault events.

    Parameters
    ----------
    events:
        The :class:`FaultEvent` schedule.
    nranks:
        When given, every event's rank is validated against the run
        geometry at construction time (reject early, not mid-build).
    """

    def __init__(
        self,
        events: Sequence[FaultEvent] = (),
        *,
        nranks: int | None = None,
    ) -> None:
        self.events = tuple(events)
        self._fired: set[int] = set()
        if nranks is not None:
            self.validate_for(nranks)

    # -- construction -------------------------------------------------------

    @classmethod
    def from_spec(cls, spec: str, *, nranks: int | None = None) -> "FaultPlan":
        """Parse a plan from its CLI syntax.

        Events are ``;``-separated; each event is ``kind:key=value:...``,
        e.g. ``"kill:rank=1:cycle=2:after=5;delay:rank=3:cycle=1:factor=4"``.
        """
        events: list[FaultEvent] = []
        for chunk in filter(None, (c.strip() for c in spec.split(";"))):
            fields = chunk.split(":")
            try:
                kind = FaultKind(fields[0].strip().lower())
            except ValueError:
                raise FaultSpecError(
                    f"unknown fault kind {fields[0]!r}; choose from "
                    f"{[k.value for k in FaultKind]}"
                ) from None
            kwargs: dict = {}
            for item in fields[1:]:
                if "=" not in item:
                    raise FaultSpecError(
                        f"malformed fault field {item!r} in {chunk!r} "
                        "(expected key=value)"
                    )
                key, _, value = item.partition("=")
                key = key.strip()
                if key in ("rank", "cycle", "after"):
                    try:
                        kwargs[key] = int(value)
                    except ValueError:
                        raise FaultSpecError(
                            f"fault field {key!r} must be an integer, "
                            f"got {value!r}"
                        ) from None
                elif key == "factor":
                    kwargs[key] = float(value)
                elif key == "payload":
                    kwargs[key] = value.strip()
                else:
                    raise FaultSpecError(
                        f"unknown fault field {key!r} in {chunk!r}"
                    )
            if "rank" not in kwargs:
                raise FaultSpecError(f"fault event {chunk!r} needs rank=N")
            events.append(FaultEvent(kind=kind, **kwargs))
        return cls(events, nranks=nranks)

    @classmethod
    def seeded(
        cls,
        seed: int,
        *,
        nranks: int,
        ncycles: int = 5,
        nevents: int = 1,
        kinds: Sequence[FaultKind | str] = (FaultKind.KILL,),
        max_after: int = 20,
    ) -> "FaultPlan":
        """Generate a random-but-reproducible plan from an integer seed.

        Uses :class:`numpy.random.default_rng` — never the wall clock —
        so the same seed always produces the same chaos schedule.
        """
        if nranks < 1:
            raise FaultSpecError("seeded plan needs nranks >= 1")
        rng = np.random.default_rng(seed)
        kinds = tuple(FaultKind(k) for k in kinds)
        events = []
        for _ in range(nevents):
            kind = kinds[int(rng.integers(len(kinds)))]
            events.append(
                FaultEvent(
                    kind=kind,
                    rank=int(rng.integers(nranks)),
                    cycle=int(rng.integers(1, ncycles + 1)),
                    after=int(rng.integers(max_after + 1)),
                    factor=float(2 + int(rng.integers(7))),
                    payload=("nan", "inf")[int(rng.integers(2))],
                )
            )
        return cls(events, nranks=nranks)

    def to_spec(self) -> str:
        """Round-trippable spec string for the whole plan."""
        return ";".join(ev.to_spec() for ev in self.events)

    # -- validation ---------------------------------------------------------

    def validate_for(self, nranks: int) -> None:
        """Reject events whose target rank is outside ``[0, nranks)``."""
        if nranks < 1:
            raise FaultSpecError(f"nranks must be >= 1, got {nranks}")
        for ev in self.events:
            if ev.rank >= nranks:
                raise FaultSpecError(
                    f"fault event {ev.to_spec()!r} targets rank {ev.rank} "
                    f"but the run has only {nranks} rank(s) (0..{nranks - 1})"
                )
            if ev.kind is FaultKind.KILL and nranks == 1:
                raise FaultSpecError(
                    f"fault event {ev.to_spec()!r} would kill the only "
                    "rank; kill faults need nranks >= 2"
                )

    # -- the one lookup (one-shot) -------------------------------------------

    def take(self, cycle: int) -> dict[tuple[FaultKind, int], FaultEvent]:
        """Fire the events striking Fock build ``cycle`` — the first not
        yet fired of each kind and rank — keyed on ``(kind, rank)``."""
        taken: dict[tuple[FaultKind, int], FaultEvent] = {}
        for idx, ev in enumerate(self.events):
            key = (ev.kind, ev.rank)
            if ev.cycle != cycle or idx in self._fired or key in taken:
                continue
            self._fired.add(idx)
            taken[key] = ev
        return taken

    @property
    def fired(self) -> tuple[FaultEvent, ...]:
        """Events that have already struck, in schedule order."""
        return tuple(self.events[i] for i in sorted(self._fired))

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:
        return f"FaultPlan({self.to_spec()!r})"


def corrupt_copy(buf: np.ndarray, payload: str = "nan") -> np.ndarray:
    """The wire image of ``buf`` after a corruption fault.

    A deterministic single-element corruption — element 0 in flat order
    is overwritten — modelling a flipped payload in one packet.
    """
    wire = np.array(buf, copy=True)
    wire.flat[0] = _PAYLOADS[payload]
    return wire
