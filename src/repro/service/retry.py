"""Seeded-deterministic retry policy: classification + capped backoff.

Two decisions live here, both pure functions of their inputs so the
whole retry behavior of a service is reproducible from its
configuration:

* **Classification** — is a failure *terminal* (retrying cannot help:
  the SCF genuinely did not converge, the spec is malformed) or
  *retryable* (infrastructure died underneath a healthy job: a worker
  process was killed, a build timed out, shared memory ran out)?
  Unknown failure types default to retryable — the crash-safe bias —
  because the retry cap bounds the damage of a wrong guess, whereas
  wrongly calling an infrastructure hiccup terminal loses the job.
* **Backoff** — capped exponential delay with *seeded* jitter: the
  jitter factor is drawn from ``default_rng([seed, crc32(job_id),
  attempt])``, so the same (seed, job, attempt) always produces the
  same delay.  Same seed => same retry schedule, which is what makes
  chaos tests assert timing-dependent behavior exactly.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

#: Classification labels.
TERMINAL = "terminal"
RETRYABLE = "retryable"

#: Exception type names that retrying cannot fix.  Convergence failures
#: are the canonical case: the same molecule will fail the same way on
#: every attempt.  Spec/validation errors are caller bugs.  An unreadable
#: checkpoint *file* never gets here: the worker discards it and starts
#: the job over (``run_job``), so a ``CheckpointError`` is a bad interval
#: or an inconsistent state object — the same on every attempt.
TERMINAL_TYPES = frozenset({
    "SCFConvergenceError",
    "JobSpecError",
    "FaultSpecError",
    "CheckpointError",
    "NonFiniteDensityError",
    "ValueError",
    "TypeError",
    "KeyError",
    "JobCancelled",
})

#: Exception type names that are infrastructure failures by definition.
RETRYABLE_TYPES = frozenset({
    "WorkerLostError",
    "JobTimeoutError",
    "BuildTimeoutError",
    "RankLostError",
    "CorruptContributionError",
    "OSError",
    "MemoryError",
    "ConnectionError",
    "BrokenPipeError",
    "EOFError",
})


def classify(error_type: str | BaseException | None) -> str:
    """``TERMINAL`` or ``RETRYABLE`` for an exception (or its type name).

    Accepts either a live exception — classified by its MRO so
    subclasses of known types inherit the verdict — or the bare class
    name string a worker shipped across the process boundary.
    """
    if error_type is None:
        return RETRYABLE
    if isinstance(error_type, BaseException):
        names = [cls.__name__ for cls in type(error_type).__mro__]
    else:
        names = [str(error_type)]
    for name in names:
        if name in TERMINAL_TYPES:
            return TERMINAL
        if name in RETRYABLE_TYPES:
            return RETRYABLE
    return RETRYABLE


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with deterministic jitter.

    Attributes
    ----------
    max_retries:
        Re-run budget *after* the first attempt (0 disables retries).
    backoff_base_s:
        Delay before the first retry; attempt ``k`` waits
        ``base * 2**(k-1)``, capped.
    backoff_cap_s:
        Upper bound on any single delay.
    jitter:
        Half-width of the multiplicative jitter band: the delay is
        scaled by a factor in ``[1 - jitter, 1 + jitter]``.
    seed:
        Jitter seed.  The same seed reproduces the same schedule for
        every (job, attempt) — seeded determinism, like ``FaultPlan``.
    """

    max_retries: int = 3
    backoff_base_s: float = 0.25
    backoff_cap_s: float = 30.0
    jitter: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got "
                             f"{self.max_retries}")
        if self.backoff_base_s <= 0:
            raise ValueError(f"backoff_base_s must be > 0, got "
                             f"{self.backoff_base_s}")
        if self.backoff_cap_s < self.backoff_base_s:
            raise ValueError("backoff_cap_s must be >= backoff_base_s")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")

    def delay_s(self, job_id: str, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1-based) of a job."""
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        base = min(self.backoff_cap_s,
                   self.backoff_base_s * (2.0 ** (attempt - 1)))
        if self.jitter == 0.0:
            return base
        key = zlib.crc32(job_id.encode())
        rng = np.random.default_rng([self.seed, key, attempt])
        factor = 1.0 + self.jitter * (2.0 * float(rng.random()) - 1.0)
        return base * factor

    def schedule(self, job_id: str) -> list[float]:
        """The job's full retry-delay schedule (length ``max_retries``)."""
        return [self.delay_s(job_id, k)
                for k in range(1, self.max_retries + 1)]

    def should_retry(self, attempt: int,
                     error_type: str | BaseException | None) -> bool:
        """Whether attempt number ``attempt`` (1-based, just failed)
        earns another try."""
        if classify(error_type) == TERMINAL:
            return False
        return attempt <= self.max_retries
