"""Restricted Hartree-Fock: the one-channel front-end of the SCF loop.

Any Fock builder satisfying ``builder(density) -> (fock, stats)`` can be
plugged in: the dense reference (:class:`~repro.scf.fock_dense.DenseFockBuilder`)
or any of the three parallel algorithms from :mod:`repro.core`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.chem.basis.basisset import BasisSet
from repro.config import ConfigError
from repro.scf.fock_dense import DenseFockBuilder
from repro.scf.loop import FockBuilder, SCFLoop, SCFOutcome


@dataclass
class SCFResult(SCFOutcome):
    """Outcome of an RHF run: :class:`~repro.scf.loop.SCFOutcome` plus
    the final wavefunction quantities."""

    orbital_energies: np.ndarray
    coefficients: np.ndarray
    density: np.ndarray
    fock: np.ndarray


class RHF(SCFLoop):
    """Restricted (closed-shell) Hartree-Fock.

    Parameters
    ----------
    basis:
        The AO basis (carries the molecule).
    fock_builder:
        Optional two-electron Fock construction; defaults to the dense
        reference builder.  The builder receives the density and must
        return the *full* Fock matrix (core Hamiltonian included) plus a
        stats dict.
    criteria, use_diis, damping:
        As on :class:`~repro.scf.loop.SCFLoop`.
    """

    kind = "rhf"
    occupation = 2.0
    dense_builder = DenseFockBuilder

    def __init__(
        self,
        basis: BasisSet,
        fock_builder: FockBuilder | None = None,
        **options,
    ) -> None:
        nelec = basis.molecule.nelectrons
        if nelec % 2 != 0:
            raise ConfigError(
                f"RHF needs an even electron count; got {nelec} "
                f"(use charge to close the shell)"
            )
        self.nocc = nelec // 2
        super().__init__(basis, (self.nocc,), fock_builder, **options)

    def electronic_energy(self, density: np.ndarray, fock: np.ndarray) -> float:
        """Closed-shell electronic energy ``1/2 Tr[D (H + F)]``."""
        return 0.5 * float(np.sum(density * (self.hcore + fock)))

    def _result(self, outcome, eps, C, densities, focks) -> SCFResult:
        return SCFResult(
            **outcome,
            orbital_energies=eps[0],
            coefficients=C[0],
            density=densities[0],
            fock=focks[0],
        )

    def run(
        self, *, initial_density: np.ndarray | None = None, **kwargs
    ) -> SCFResult:
        """:meth:`SCFLoop.run <repro.scf.loop.SCFLoop.run>`, the one
        optional starting density passed bare as ``initial_density``."""
        if initial_density is not None:
            kwargs["initial_densities"] = (initial_density,)
        return super().run(**kwargs)
