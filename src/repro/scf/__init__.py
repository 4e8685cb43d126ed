"""Self-consistent-field substrate: one SCF loop, RHF and UHF front-ends.

:mod:`repro.scf.loop` holds the cycle (guess, build, DIIS, diagonalize,
damping, checkpoint/restart, instrumentation) once, over a tuple of
spin channels; :class:`~repro.scf.rhf.RHF` and :class:`~repro.scf.uhf.UHF`
supply the channels, the energy expression and the result type.  The
dense, einsum-based Fock constructions here are the ground truth
everything else is validated against: the parallel algorithms of
:mod:`repro.core` plug into the same front-ends through the
``fock_builder`` hook and must produce identical Fock matrices.
"""

from repro.scf.fock_dense import DenseFockBuilder, eri_tensor, fock_from_eri
from repro.scf.rhf import RHF, SCFResult
from repro.scf.uhf import UHF, UHFResult
from repro.scf.diis import DIIS
from repro.scf.guess import core_guess_density
from repro.scf.convergence import ConvergenceCriteria, density_rms_change

__all__ = [
    "RHF",
    "SCFResult",
    "UHF",
    "UHFResult",
    "DIIS",
    "DenseFockBuilder",
    "eri_tensor",
    "fock_from_eri",
    "core_guess_density",
    "ConvergenceCriteria",
    "density_rms_change",
]
