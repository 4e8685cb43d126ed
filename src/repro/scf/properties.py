"""Molecular properties from a converged SCF density.

Covers the standard post-SCF analyses a downstream user expects:
dipole moment, Mulliken populations/charges, and orbital-based
quantities (HOMO-LUMO gap, Koopmans ionization potential).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.chem.basis.basisset import BasisSet
from repro.integrals.basis_setup import basis_setup
from repro.integrals.multipole import dipole_matrices

#: 1 atomic unit of electric dipole in Debye.
AU_TO_DEBYE: float = 2.541746473


def dipole_moment(
    basis: BasisSet, density: np.ndarray, *, origin: np.ndarray | None = None
) -> np.ndarray:
    """Total (electronic + nuclear) dipole moment in atomic units.

    Parameters
    ----------
    basis:
        The AO basis (carries the molecule for the nuclear part).
    density:
        Converged closed-shell density (factor-2 convention).
    origin:
        Expansion origin; irrelevant for neutral molecules.
    """
    if origin is None:
        origin = np.zeros(3)
    mu_ints = dipole_matrices(basis, origin)
    electronic = -np.einsum("dmn,mn->d", mu_ints, density)
    mol = basis.molecule
    nuclear = np.einsum(
        "a,ad->d", mol.charges, mol.coords - origin[None, :]
    )
    return electronic + nuclear


@dataclass
class MullikenAnalysis:
    """Mulliken population analysis result."""

    populations: np.ndarray   # gross electron population per atom
    charges: np.ndarray       # partial charge per atom

    def total_electrons(self) -> float:
        """Sum of atomic populations (= electron count)."""
        return float(self.populations.sum())


def mulliken_populations(
    basis: BasisSet, density: np.ndarray, overlap: np.ndarray | None = None
) -> MullikenAnalysis:
    """Mulliken gross populations and partial charges.

    ``q_A = Z_A - sum_{mu in A} (D S)_{mu mu}``.
    """
    S = overlap if overlap is not None else basis_setup(basis).S
    ds_diag = np.einsum("mn,nm->m", density, S)
    natoms = basis.molecule.natoms
    pops = np.zeros(natoms)
    for sh in basis.shells:
        sl = slice(sh.bf_offset, sh.bf_offset + sh.nfunc)
        pops[sh.atom_index] += float(ds_diag[sl].sum())
    charges = basis.molecule.charges - pops
    return MullikenAnalysis(populations=pops, charges=charges)


def homo_lumo_gap(orbital_energies: np.ndarray, nocc: int) -> float:
    """HOMO-LUMO gap in Hartree."""
    if nocc < 1 or nocc >= orbital_energies.size:
        raise ValueError("occupation out of range for the orbital set")
    return float(orbital_energies[nocc] - orbital_energies[nocc - 1])


def koopmans_ionization_potential(
    orbital_energies: np.ndarray, nocc: int
) -> float:
    """Koopmans' theorem IP: minus the HOMO energy (Hartree)."""
    if nocc < 1:
        raise ValueError("no occupied orbitals")
    return float(-orbital_energies[nocc - 1])
