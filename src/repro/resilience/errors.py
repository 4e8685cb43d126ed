"""Typed errors of the resilience subsystem.

Every failure mode the fault-tolerant SCF stack can surface has its own
exception class so callers can react programmatically: restart from a
checkpoint on :class:`SCFConvergenceError`, or reject a bad fault plan
at construction time via :class:`FaultSpecError`.
"""

from __future__ import annotations


class ResilienceError(RuntimeError):
    """Base class of all resilience-layer errors."""


class FaultSpecError(ValueError, ResilienceError):
    """A fault-plan specification is malformed or out of range."""


class CorruptContributionError(ResilienceError):
    """A reduction contribution contained NaN/Inf; the validating
    ``gsumf`` rejects it before it joins the sum."""


class NonFiniteDensityError(ResilienceError):
    """A density (or Fock) matrix went NaN/Inf; the diagnostic names the
    first offending SCF cycle or Fock build."""


class CheckpointError(ResilienceError):
    """A checkpoint file is missing, malformed, or inconsistent with the
    run trying to restart from it."""


class SCFConvergenceError(ResilienceError):
    """The SCF failed to converge within its cycle cap.

    Attributes
    ----------
    result:
        The partial :class:`~repro.scf.rhf.SCFResult` (or
        :class:`~repro.scf.uhf.UHFResult`) at the point of failure —
        iterations so far, last energy, last density — so callers can
        inspect the trace or restart instead of losing the run.
    """

    def __init__(self, message: str, result=None) -> None:
        super().__init__(message)
        self.result = result
