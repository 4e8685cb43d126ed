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
* :class:`~repro.parallel.dlb.DynamicLoadBalancer` — the shared global
  task counter (``ddi_dlbnext``), the paper's task distribution
  (``schedule="dlb"``); :class:`~repro.parallel.scheduler.StaticScheduler`
  is the one alternative, a cost-weighted pre-partition
  (``schedule="static"``).  Both serve the same ``next(rank)`` grants.
* :class:`~repro.parallel.threads.ThreadTeam` — OpenMP-style thread
  scheduling: ``static`` / ``dynamic`` chunked partitions, loop
  collapsing, per-thread private storage.
* :class:`~repro.parallel.shared_array.WriteTracker` — records which
  thread wrote which elements in which synchronization phase and
  detects write-write races, turning the paper's data-race argument
  for the shared-Fock algorithm into a testable invariant.
* :mod:`repro.parallel.reduction` — the padded, chunked tree reduction
  of per-thread buffer columns (paper Figure 1 B).
"""

from repro.parallel.comm import CollectiveStats, SimComm, SimWorld
from repro.parallel.dlb import DynamicLoadBalancer
from repro.parallel.scheduler import (
    SCHEDULE_NAMES,
    Scheduler,
    StaticScheduler,
    make_scheduler,
)
from repro.parallel.threads import ThreadTeam, split_chunks
from repro.parallel.shared_array import RaceError, WriteTracker
from repro.parallel.reduction import tree_reduce_columns
from repro.parallel.ddi import DDIArray, DDIMode, DDIRuntime

__all__ = [
    "SimWorld",
    "SimComm",
    "CollectiveStats",
    "DynamicLoadBalancer",
    "Scheduler",
    "SCHEDULE_NAMES",
    "StaticScheduler",
    "make_scheduler",
    "ThreadTeam",
    "split_chunks",
    "WriteTracker",
    "RaceError",
    "tree_reduce_columns",
    "DDIRuntime",
    "DDIArray",
    "DDIMode",
]
