"""Fault tolerance for the simulated parallel SCF stack.

Three cooperating pieces, motivated by the paper's at-scale runs (3,000
nodes / 192,000 cores — a regime where rank failures, stragglers, and
SCF divergence are routine):

* :mod:`repro.resilience.faults` — seeded, deterministic fault
  injection (:class:`FaultPlan`): kill a rank mid-Fock-build, delay it,
  or corrupt its reduction contribution.  The build driver replays a
  dead rank's grants into its own slot and validates reduction
  payloads, keeping recovered results bitwise identical to fault-free
  runs.
* :mod:`repro.resilience.checkpoint` — single-record SCF checkpoints
  (:class:`SCFCheckpoint`, :class:`CheckpointManager`); a restarted run
  resumes at the saved cycle and converges bit-for-bit.
* :mod:`repro.resilience.recovery` — :class:`ConvergenceGuard`, a
  divergence/oscillation detector with a staged fallback (density
  damping → level shifting → DIIS reset) and the typed
  :class:`SCFConvergenceError` carrying the partial result.
"""

from repro.resilience.checkpoint import (
    FORMAT_VERSION,
    CheckpointManager,
    SCFCheckpoint,
    load_checkpoint,
)
from repro.resilience.errors import (
    CheckpointError,
    CorruptContributionError,
    FaultSpecError,
    NonFiniteDensityError,
    ResilienceError,
    SCFConvergenceError,
)
from repro.resilience.faults import (
    FaultEvent,
    FaultKind,
    FaultPlan,
    corrupt_copy,
)
from repro.resilience.recovery import (
    RECOVERY_STAGES,
    ConvergenceGuard,
    RecoveryAction,
    level_shifted,
)

__all__ = [
    "FORMAT_VERSION",
    "RECOVERY_STAGES",
    "CheckpointError",
    "CheckpointManager",
    "ConvergenceGuard",
    "CorruptContributionError",
    "FaultEvent",
    "FaultKind",
    "FaultPlan",
    "FaultSpecError",
    "NonFiniteDensityError",
    "RecoveryAction",
    "ResilienceError",
    "SCFCheckpoint",
    "SCFConvergenceError",
    "corrupt_copy",
    "level_shifted",
    "load_checkpoint",
]
