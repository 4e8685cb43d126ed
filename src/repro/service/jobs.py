"""Job model of the SCF service: specs, states, and wire serialization.

A *job* is one SCF request — geometry, basis, algorithm, execution
knobs — plus the mutable bookkeeping the durable queue journals: state,
attempt count, scheduling gate, last error, result summary.  Both
halves are plain-dict serializable because they cross two boundaries:
the NDJSON client socket and the write-ahead journal.

State machine (every transition is journaled by
:class:`~repro.service.queue.DurableJobQueue`)::

    submitted (pending) -> running -> done
                              |-> retrying -> (pending again, after backoff)
                              |-> failed        (terminal classification
                              |                  or retry budget exhausted)
                              '-> cancelled
"""

from __future__ import annotations

import logging
import time
from dataclasses import asdict, dataclass, field, fields
from typing import Any

# CPython's built-in SHA-256 gives hashlib's digest bytes without
# importing ``_hashlib``, which maps OpenSSL's libcrypto (~3 MB of RSS)
# into the client, the daemon and every worker that fingerprints a job.
try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:  # an interpreter built without the built-in hashes
        from hashlib import sha256

from repro.config import ConfigError, SCFConfig
from repro.service.errors import JobSpecError

logger = logging.getLogger("repro.service.jobs")

#: All job states, in lifecycle order.
JOB_STATES = ("pending", "running", "retrying", "done", "failed", "cancelled")

#: States a job never leaves.  ``done`` is the *acknowledged* state:
#: the result summary is journaled (fsync'd) in the same record, so a
#: daemon SIGKILL after the transition can never lose or re-run it.
TERMINAL_STATES = frozenset({"done", "failed", "cancelled"})

#: Fields newer than the first wire format.  ``to_dict`` leaves them out
#: at their defaults, so a spec that does not use them serialises — and
#: therefore fingerprints — exactly as it did before they existed.
_OMITTED_AT_DEFAULT = ("method", "multiplicity")

_FULL_BUILDS = "incremental SCF was removed; the job runs full Fock builds"
#: Keys of removed features -> what the job runs instead.  ``from_dict``
#: drops them, so an old journal or manifest still runs, and ``to_dict``
#: keeps writing ``"incremental": false``, so job, manifest and plan
#: fingerprints keep their bytes (``scf_recovery`` was written only
#: when set).
RETIRED_SPEC_KEYS = {
    "incremental": _FULL_BUILDS,
    "rebuild_every": _FULL_BUILDS,
    "scf_recovery": "the convergence guard was removed; the job runs "
                    "plain DIIS",
}


@dataclass(frozen=True, kw_only=True)
class JobSpec(SCFConfig):
    """One SCF request, self-contained (the XYZ text travels inline):
    a :class:`~repro.config.SCFConfig` plus its geometry, a label and
    the chaos knobs.  The wire/journal/manifest format is the flat dict
    of all of them.

    The chaos knobs (``fault_plan``, ``sleep_s``, ``cycle_delay_s``,
    ``die_on_attempt`` / ``die_after_builds``) exist for the same
    reason :class:`~repro.resilience.faults.FaultPlan` does: crash
    recovery that is only exercised by real crashes is untested crash
    recovery.  ``fault_plan`` injects *intra-run* faults (the PR-3
    machinery); ``die_on_attempt`` makes the *service worker process*
    itself ``os._exit`` mid-job on that attempt; ``sleep_s`` wedges the
    worker before any heartbeat so deadline kill-and-respawn fires.
    """

    xyz: str
    tag: str | None = None
    # -- chaos/testing knobs -------------------------------------------------
    sleep_s: float = 0.0
    cycle_delay_s: float = 0.0
    die_on_attempt: int | None = None
    die_after_builds: int = 1

    def validate(self) -> None:
        """Raise :class:`JobSpecError` on any out-of-range field."""
        if not self.xyz or not self.xyz.strip():
            raise JobSpecError("spec.xyz is empty")
        try:
            super().validate()
        except ConfigError as exc:
            raise JobSpecError(str(exc)) from None
        for name in ("sleep_s", "cycle_delay_s"):
            if float(getattr(self, name)) < 0:
                raise JobSpecError(f"spec.{name} must be >= 0")
        if self.die_on_attempt is not None and self.die_on_attempt < 1:
            raise JobSpecError("spec.die_on_attempt must be >= 1")
        if self.die_after_builds < 0:
            raise JobSpecError("spec.die_after_builds must be >= 0")

    def setup_key(self) -> str:
        """Cache key of the expensive setup (molecule + basis + charge).

        Two jobs with the same key share integrals/Schwarz setup, which
        is what keeps a persistent worker "warm" across a stream of
        requests for the same system.
        """
        h = sha256()
        h.update(self.xyz.encode())
        h.update(f"|{self.basis}|{self.charge}".encode())
        return h.hexdigest()[:16]

    def to_dict(self) -> dict[str, Any]:
        out = asdict(self)
        for f in fields(self):
            if f.name in _OMITTED_AT_DEFAULT and out[f.name] == f.default:
                del out[f.name]
        out["incremental"] = False
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "JobSpec":
        retired = {k: data[k] for k in RETIRED_SPEC_KEYS if k in data}
        for why in dict.fromkeys(RETIRED_SPEC_KEYS.values()):
            keys = [k for k in retired if RETIRED_SPEC_KEYS[k] == why]
            if any(retired[k] for k in keys):
                logger.info("ignoring retired spec key(s) %s: %s",
                            ", ".join(keys), why)
        unknown = set(data) - set(cls.__dataclass_fields__) - set(retired)
        if unknown:
            raise JobSpecError(f"unknown spec field(s): {sorted(unknown)}")
        if "xyz" not in data:
            raise JobSpecError("spec.xyz is required")
        return cls(**{k: v for k, v in data.items() if k not in retired})


def job_class(spec: Any) -> str:
    """The latency-report class of a job spec (dict or JobSpec-like):
    ``algorithm/backend``, carried by every terminal ``job.*`` record."""
    if isinstance(spec, dict):
        algorithm = spec.get("algorithm", "?")
        backend = spec.get("backend", "?")
    else:
        algorithm = getattr(spec, "algorithm", "?")
        backend = getattr(spec, "backend", "?")
    return f"{algorithm}/{backend}"


@dataclass
class Job:
    """One queued job: the spec plus journaled mutable state."""

    id: str
    spec: JobSpec
    state: str = "pending"
    attempt: int = 0  # attempts *started* so far
    submitted_at: float = field(default_factory=time.time)
    not_before: float = 0.0  # wall-clock gate for retry backoff
    interrupted: bool = False  # was running when a daemon died/stopped
    degraded: bool = False  # ran (or will run) on the sim fallback
    error: str | None = None
    error_type: str | None = None
    result: dict[str, Any] | None = None
    run_id: str | None = None  # registry record of the latest attempt
    # -- distributed trace context (W3C-style, journaled at submit) ----------
    trace_id: str | None = None  # 32-hex id shared by every span of the job
    parent_span_id: str | None = None  # client-side submit span, if any
    root_span_id: str | None = None  # the job root span all attempts parent on
    client_t: float | None = None  # client's perf_counter at submit

    @property
    def open(self) -> bool:
        """True while the job still occupies queue capacity."""
        return self.state not in TERMINAL_STATES

    def to_dict(self) -> dict[str, Any]:
        out = asdict(self)
        out["spec"] = self.spec.to_dict()
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Job":
        data = dict(data)
        spec = JobSpec.from_dict(data.pop("spec"))
        return cls(spec=spec, **data)

    def public_dict(self) -> dict[str, Any]:
        """The client-facing view (spec reduced to its headline fields)."""
        return {
            "id": self.id,
            "state": self.state,
            "attempt": self.attempt,
            "submitted_at": self.submitted_at,
            "not_before": self.not_before,
            "interrupted": self.interrupted,
            "degraded": self.degraded,
            "error": self.error,
            "error_type": self.error_type,
            "result": self.result,
            "run_id": self.run_id,
            "trace_id": self.trace_id,
            "tag": self.spec.tag,
            "basis": self.spec.basis,
            "algorithm": self.spec.algorithm,
            "backend": self.spec.backend,
            "nranks": self.spec.nranks,
            "nthreads": self.spec.nthreads,
        }
