"""Fault tolerance for the simulated parallel SCF stack.

Two cooperating pieces, motivated by the paper's at-scale runs (3,000
nodes / 192,000 cores — a regime where rank failures and stragglers are
routine), plus the typed errors they raise:

* :mod:`repro.resilience.faults` — seeded, deterministic fault
  injection (:class:`FaultPlan`): kill a rank mid-Fock-build, delay it,
  or corrupt its reduction contribution.  The build driver replays a
  dead rank's grants into its own slot and validates reduction
  payloads, keeping recovered results bitwise identical to fault-free
  runs.
* :mod:`repro.resilience.checkpoint` — single-record SCF checkpoints
  (:class:`SCFCheckpoint`, :class:`CheckpointManager`); a restarted run
  resumes at the saved cycle and converges bit-for-bit.
* :mod:`repro.resilience.errors` — one exception class per failure
  mode; :class:`SCFConvergenceError` carries the partial result of a
  run that hit its cycle cap.

The SCF has no divergence guard: like the paper's SCF it runs plain
DIIS to the cycle cap (EXPERIMENTS.md, "Convergence guard — verdict",
measures why).
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

__all__ = [
    "FORMAT_VERSION",
    "CheckpointError",
    "CheckpointManager",
    "CorruptContributionError",
    "FaultEvent",
    "FaultKind",
    "FaultPlan",
    "FaultSpecError",
    "NonFiniteDensityError",
    "ResilienceError",
    "SCFCheckpoint",
    "SCFConvergenceError",
    "corrupt_copy",
    "load_checkpoint",
]
