"""Deterministic simulated MPI/OpenMP runtime.

The paper's algorithms are SPMD programs whose only inter-rank
communication is (a) a DDI-style global dynamic-load-balancing counter
and (b) a final global sum of the Fock matrix.  Within a rank, OpenMP
threads share read-only matrices and coordinate through barriers and
per-thread buffers.

This package reproduces those semantics in a single Python process,
deterministically:

* :class:`~repro.parallel.comm.SimWorld` — a simulated MPI world;
  ranks execute sequentially, collectives (``gsumf`` = allreduce-sum,
  broadcast, barrier) have real data semantics and are metered for the
  performance model.
* :func:`~repro.parallel.scheduler.least_loaded` — the one list
  scheduler: each item to the first least-loaded worker.  Every
  least-loaded decision (static LPT ranks, dynamic threads, perfsim's
  exact makespans) goes through it.
* :func:`~repro.parallel.scheduler.make_scheduler` — a distribution
  strategy by name (:data:`repro.config.SCHEDULES`) as the per-rank
  queues of one :class:`~repro.parallel.scheduler.Scheduler`:
  ``dlb``, the paper's shared global task counter (``ddi_dlbnext``),
  or ``static``, a cost-weighted pre-partition.  Both serve the same
  ``next(rank)`` grants.
* :class:`~repro.parallel.threads.ThreadTeam` — OpenMP-style thread
  scheduling: ``static`` / ``dynamic`` partitions, per-thread private
  storage.
* :class:`~repro.parallel.shared_array.WriteTracker` — records which
  thread wrote which elements in which synchronization phase and
  detects write-write races, turning the paper's data-race argument
  for the shared-Fock algorithm into a testable invariant.
* :mod:`repro.parallel.reduction` — the padded, chunked tree reduction
  of per-thread buffer columns (paper Figure 1 B).
"""

from repro.parallel.comm import CollectiveStats, SimComm, SimWorld
from repro.parallel.scheduler import Scheduler, least_loaded, make_scheduler
from repro.parallel.threads import ThreadTeam
from repro.parallel.shared_array import RaceError, WriteTracker
from repro.parallel.reduction import tree_reduce_columns

__all__ = [
    "SimWorld",
    "SimComm",
    "CollectiveStats",
    "Scheduler",
    "least_loaded",
    "make_scheduler",
    "ThreadTeam",
    "WriteTracker",
    "RaceError",
    "tree_reduce_columns",
]
