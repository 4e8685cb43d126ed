"""The paper's contribution: parallel Fock-matrix construction.

Three algorithms, exactly following the paper's pseudocode:

* :class:`~repro.core.fock_mpi.MPIOnlyFockBuilder` — Algorithm 1, the
  stock GAMESS MPI-only code: everything replicated per rank, DLB over
  the combined ``(i, j)`` shell pair index.
* :class:`~repro.core.fock_private.PrivateFockBuilder` — Algorithm 2,
  hybrid MPI/OpenMP with shared density and thread-private Fock
  matrices; MPI DLB over ``i``, OpenMP ``collapse(2) dynamic`` over
  ``(j, k)``.
* :class:`~repro.core.fock_shared.SharedFockBuilder` — Algorithm 3,
  shared density *and* Fock; MPI DLB over ``(i, j)``, OpenMP dynamic
  over ``(k, l)``; per-thread ``FI``/``FJ`` column buffers with
  flush-on-``i``-change and a race-free cooperative tree reduction.

Plus the supporting pieces: symmetry-unique quartet indexing
(:mod:`~repro.core.indexing`), the block ERI/Fock-scatter engine
(:mod:`~repro.core.quartets`), screening statistics
(:mod:`~repro.core.screening`), the paper's Figure-1 buffer structure
(:mod:`~repro.core.buffers`), a parallel SCF driver
(:mod:`~repro.core.scf_driver`) and the memory-footprint model of
eqs. (3a)-(3c) (:mod:`~repro.core.memory_model`).
"""

from repro.core.indexing import (
    decode_pair,
    pair_index,
    npairs,
    quartet_degeneracy_factor,
    unique_quartets,
)
from repro.core.quartets import QuartetEngine, symmetrize_two_electron
from repro.core.fock_mpi import MPIOnlyFockBuilder
from repro.core.fock_private import PrivateFockBuilder
from repro.core.fock_shared import SharedFockBuilder
from repro.core.fock_uhf import UHFPrivateFockBuilder
from repro.core.scf_driver import ParallelSCF, make_fock_builder
from repro.core.memory_model import MemoryModel, AlgorithmKind

__all__ = [
    "pair_index",
    "decode_pair",
    "npairs",
    "quartet_degeneracy_factor",
    "unique_quartets",
    "QuartetEngine",
    "symmetrize_two_electron",
    "MPIOnlyFockBuilder",
    "PrivateFockBuilder",
    "SharedFockBuilder",
    "UHFPrivateFockBuilder",
    "ParallelSCF",
    "make_fock_builder",
    "MemoryModel",
    "AlgorithmKind",
]
