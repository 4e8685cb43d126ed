"""Unrestricted Hartree-Fock (UHF).

The paper's conclusion names UHF as a method whose implementation
"can directly benefit from this work" because its Fock construction has
the identical structure: two Fock matrices assembled from the same ERI
sweep,

.. math::

   F^\\alpha = h + J(D^\\alpha + D^\\beta) - K(D^\\alpha), \\qquad
   F^\\beta  = h + J(D^\\alpha + D^\\beta) - K(D^\\beta),

with spin densities :math:`D^\\sigma = C^\\sigma_{occ} C^{\\sigma T}_{occ}`
(no factor of two).  This module provides the dense reference build and
the two-channel front-end of the SCF loop (:mod:`repro.scf.loop`);
:mod:`repro.core.fock_uhf` provides the hybrid MPI/OpenMP construction
using the paper's machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.chem.basis.basisset import BasisSet
from repro.config import ConfigError
from repro.scf.fock_dense import eri_tensor
from repro.scf.loop import FockBuilder, SCFLoop, SCFOutcome


def uhf_fock_from_eri(
    hcore: np.ndarray,
    eri: np.ndarray,
    d_alpha: np.ndarray,
    d_beta: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Dense reference spin Fock matrices from a full ERI tensor."""
    d_total = d_alpha + d_beta
    J = np.einsum("mnls,ls->mn", eri, d_total, optimize=True)
    Ka = np.einsum("mlns,ls->mn", eri, d_alpha, optimize=True)
    Kb = np.einsum("mlns,ls->mn", eri, d_beta, optimize=True)
    return hcore + J - Ka, hcore + J - Kb


class DenseUHFFockBuilder:
    """Dense-ERI UHF Fock builder (ground truth for the parallel one)."""

    def __init__(self, basis: BasisSet, hcore: np.ndarray) -> None:
        self.hcore = hcore
        self.eri = eri_tensor(basis)

    def __call__(self, d_alpha, d_beta):
        fa, fb = uhf_fock_from_eri(self.hcore, self.eri, d_alpha, d_beta)
        return fa, fb, {}


@dataclass
class UHFResult(SCFOutcome):
    """Outcome of a UHF run: :class:`~repro.scf.loop.SCFOutcome` plus
    the final (alpha, beta) wavefunction quantities and ``<S^2>``."""

    orbital_energies: tuple[np.ndarray, np.ndarray]
    coefficients: tuple[np.ndarray, np.ndarray]
    densities: tuple[np.ndarray, np.ndarray]
    focks: tuple[np.ndarray, np.ndarray]
    s_squared: float
    nalpha: int
    nbeta: int

    @property
    def spin_contamination(self) -> float:
        """Deviation of <S^2> from the exact Sz(Sz + 1) value."""
        sz = 0.5 * (self.nalpha - self.nbeta)
        return self.s_squared - sz * (sz + 1.0)


class UHF(SCFLoop):
    """Unrestricted Hartree-Fock driver.

    Parameters
    ----------
    basis:
        The AO basis (the molecule's charge fixes the electron count).
    multiplicity:
        Spin multiplicity ``2S + 1``; must be consistent with the
        electron count's parity.
    fock_builder:
        Optional spin-Fock construction, ``builder(d_alpha, d_beta) ->
        (F_alpha, F_beta, stats)``; defaults to the dense builder.
    criteria, use_diis, damping, hcore:
        As on :class:`~repro.scf.loop.SCFLoop`.
    """

    kind = "uhf"
    occupation = 1.0
    dense_builder = DenseUHFFockBuilder

    def __init__(
        self,
        basis: BasisSet,
        *,
        multiplicity: int = 1,
        fock_builder: FockBuilder | None = None,
        **options,
    ) -> None:
        nelec = basis.molecule.nelectrons
        nunpaired = multiplicity - 1
        if nunpaired < 0 or (nelec - nunpaired) % 2 != 0:
            raise ConfigError(
                f"multiplicity {multiplicity} inconsistent with "
                f"{nelec} electrons"
            )
        self.nalpha = (nelec + nunpaired) // 2
        self.nbeta = (nelec - nunpaired) // 2
        super().__init__(
            basis, (self.nalpha, self.nbeta), fock_builder, **options
        )

    def electronic_energy(
        self, da: np.ndarray, db: np.ndarray, fa: np.ndarray, fb: np.ndarray
    ) -> float:
        """``E = 1/2 [ (Da + Db) . h + Da . Fa + Db . Fb ]``."""
        return 0.5 * float(
            np.sum((da + db) * self.hcore) + np.sum(da * fa) + np.sum(db * fb)
        )

    def s_squared(self, ca: np.ndarray, cb: np.ndarray) -> float:
        """UHF <S^2> expectation value.

        ``Sz(Sz + 1) + N_beta - sum |<alpha_i|S|beta_j>|^2`` over the
        occupied blocks.
        """
        sz = 0.5 * (self.nalpha - self.nbeta)
        if self.nbeta == 0:
            return sz * (sz + 1.0)
        ov = ca[:, : self.nalpha].T @ self.S @ cb[:, : self.nbeta]
        return sz * (sz + 1.0) + self.nbeta - float(np.sum(ov * ov))

    def _result(self, outcome, eps, C, densities, focks) -> UHFResult:
        return UHFResult(
            **outcome,
            orbital_energies=eps,
            coefficients=C,
            densities=densities,
            focks=focks,
            s_squared=self.s_squared(*C),
            nalpha=self.nalpha,
            nbeta=self.nbeta,
        )
