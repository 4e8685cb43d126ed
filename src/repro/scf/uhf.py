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
the UHF SCF driver; :mod:`repro.core.fock_uhf` provides the hybrid
MPI/OpenMP construction using the paper's machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Protocol

import numpy as np

from repro.chem.basis.basisset import BasisSet
from repro.config import ConfigError
from repro.integrals.onee import kinetic_matrix, nuclear_matrix, overlap_matrix
from repro.resilience.checkpoint import (
    CheckpointManager,
    SCFCheckpoint,
    load_checkpoint,
)
from repro.resilience.errors import NonFiniteDensityError, SCFConvergenceError
from repro.resilience.recovery import ConvergenceGuard, level_shifted
from repro.scf.convergence import ConvergenceCriteria, density_rms_change
from repro.scf.diis import DIIS
from repro.scf.guess import diagonalize_fock, orthogonalizer


class UHFFockBuilder(Protocol):
    """Protocol for UHF Fock constructions."""

    def __call__(
        self, d_alpha: np.ndarray, d_beta: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, dict]:
        """Return ``(F_alpha, F_beta, stats)``."""
        ...


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
        from repro.scf.fock_dense import eri_tensor

        self.hcore = hcore
        self.eri = eri_tensor(basis)

    def __call__(self, d_alpha, d_beta):
        fa, fb = uhf_fock_from_eri(self.hcore, self.eri, d_alpha, d_beta)
        return fa, fb, {}


@dataclass
class UHFResult:
    """Outcome of a UHF run."""

    energy: float
    electronic_energy: float
    nuclear_repulsion: float
    converged: bool
    niterations: int
    orbital_energies: tuple[np.ndarray, np.ndarray]
    coefficients: tuple[np.ndarray, np.ndarray]
    densities: tuple[np.ndarray, np.ndarray]
    focks: tuple[np.ndarray, np.ndarray]
    s_squared: float

    @property
    def spin_contamination(self) -> float:
        """Deviation of <S^2> from the exact Sz(Sz + 1) value."""
        return self.s_squared - self._exact_s2

    _exact_s2: float = 0.0


class UHF:
    """Unrestricted Hartree-Fock driver.

    Parameters
    ----------
    basis:
        The AO basis (the molecule's charge fixes the electron count).
    multiplicity:
        Spin multiplicity ``2S + 1``; must be consistent with the
        electron count's parity.
    fock_builder:
        Optional spin-Fock construction; defaults to the dense builder.
    hcore:
        The core Hamiltonian when the caller already has it; evaluated
        here otherwise.
    """

    def __init__(
        self,
        basis: BasisSet,
        *,
        multiplicity: int = 1,
        fock_builder: UHFFockBuilder | None = None,
        criteria: ConvergenceCriteria | None = None,
        use_diis: bool = True,
        hcore: np.ndarray | None = None,
    ) -> None:
        nelec = basis.molecule.nelectrons
        nunpaired = multiplicity - 1
        if nunpaired < 0 or (nelec - nunpaired) % 2 != 0:
            raise ConfigError(
                f"multiplicity {multiplicity} inconsistent with "
                f"{nelec} electrons"
            )
        self.basis = basis
        self.nalpha = (nelec + nunpaired) // 2
        self.nbeta = (nelec - nunpaired) // 2
        self.criteria = criteria or ConvergenceCriteria()
        self.use_diis = use_diis

        self.S = overlap_matrix(basis)
        self.hcore = (
            hcore if hcore is not None
            else kinetic_matrix(basis) + nuclear_matrix(basis)
        )
        self.X = orthogonalizer(self.S)
        self.enuc = basis.molecule.nuclear_repulsion()
        self.fock_builder = fock_builder or DenseUHFFockBuilder(
            basis, self.hcore
        )

    # -- pieces ------------------------------------------------------------

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

    def _initial_densities(self) -> tuple[np.ndarray, np.ndarray]:
        _, c = diagonalize_fock(self.hcore, self.X)
        da = c[:, : self.nalpha] @ c[:, : self.nalpha].T
        db = c[:, : self.nbeta] @ c[:, : self.nbeta].T
        # Tiny symmetry-breaking perturbation so open shells can relax
        # away from the spin-restricted core guess.
        if self.nalpha != self.nbeta:
            da = da * 1.0  # alpha already differs via occupation
        return da, db

    # -- driver ------------------------------------------------------------

    def _checkpoint_state(
        self,
        cycle: int,
        e_old: float,
        da: np.ndarray,
        db: np.ndarray,
        diis: DIIS | None,
        history: list[tuple[int, float, float, float]],
    ) -> SCFCheckpoint:
        """Snapshot the UHF loop state at the end of ``cycle``."""
        return SCFCheckpoint(
            kind="uhf",
            cycle=cycle,
            energy=e_old,
            densities=(da, db),
            diis_focks=diis.focks if diis is not None else [],
            diis_errors=diis.errors if diis is not None else [],
            history=np.array(history, dtype=np.float64).reshape(-1, 4),
            nbf=self.basis.nbf,
            nelectrons=self.basis.molecule.nelectrons,
            label=self.basis.molecule.name,
        )

    def run(
        self,
        *,
        restart: SCFCheckpoint | str | Path | None = None,
        checkpoint: CheckpointManager | str | Path | None = None,
        recovery: ConvergenceGuard | bool | None = None,
        strict: bool = True,
    ) -> UHFResult:
        """Iterate to self-consistency.

        ``restart`` / ``checkpoint`` / ``recovery`` / ``strict`` behave
        as in :meth:`repro.scf.rhf.RHF.run` (checkpoint round-trips are
        bitwise exact; non-convergence raises a typed
        :class:`~repro.resilience.errors.SCFConvergenceError` carrying
        the partial result unless ``strict=False``).
        """
        history: list[tuple[int, float, float, float]] = []
        diis = DIIS() if self.use_diis else None
        e_old = 0.0
        start_cycle = 1
        if restart is not None:
            ck = load_checkpoint(restart)
            ck.check_compatible(
                kind="uhf",
                nbf=self.basis.nbf,
                nelectrons=self.basis.molecule.nelectrons,
            )
            da, db = (d.copy() for d in ck.densities)
            e_old = ck.energy
            if diis is not None:
                for f, err in zip(ck.diis_focks, ck.diis_errors):
                    diis.push(f, err)
            history = ck.history_rows()
            start_cycle = ck.cycle + 1
        else:
            da, db = self._initial_densities()
        if isinstance(checkpoint, (str, Path)):
            checkpoint = CheckpointManager(checkpoint)
        guard: ConvergenceGuard | None
        guard = ConvergenceGuard() if recovery is True else (recovery or None)
        recovery_damping: float | None = None
        level_shift: float | None = None

        converged = False
        it = start_cycle - 1
        drms = de = float("inf")
        eps_a = eps_b = np.zeros(self.basis.nbf)
        ca = cb = np.zeros((self.basis.nbf, self.basis.nbf))
        fa = fb = self.hcore

        def make_result() -> UHFResult:
            sz = 0.5 * (self.nalpha - self.nbeta)
            result = UHFResult(
                energy=e_old + self.enuc,
                electronic_energy=e_old,
                nuclear_repulsion=self.enuc,
                converged=converged,
                niterations=it,
                orbital_energies=(eps_a, eps_b),
                coefficients=(ca, cb),
                densities=(da, db),
                focks=(fa, fb),
                s_squared=self.s_squared(ca, cb),
            )
            object.__setattr__(result, "_exact_s2", sz * (sz + 1.0))
            return result

        for it in range(start_cycle, self.criteria.max_iterations + 1):
            fa, fb, _stats = self.fock_builder(da, db)
            for spin, f in (("alpha", fa), ("beta", fb)):
                if not np.all(np.isfinite(f)):
                    raise NonFiniteDensityError(
                        f"SCF cycle {it}: {spin} Fock matrix contains "
                        f"{int(np.sum(~np.isfinite(f)))} non-finite value(s) "
                        f"(first bad cycle: {it}); a reduction contribution "
                        "was likely corrupted"
                    )
            e_elec = self.electronic_energy(da, db, fa, fb)

            fa_eff, fb_eff = fa, fb
            if diis is not None:
                # Stacked-spin DIIS: one extrapolation space for both
                # Fock matrices with the combined commutator error.
                err = np.concatenate(
                    (
                        DIIS.error_vector(fa, da, self.S, self.X).ravel(),
                        DIIS.error_vector(fb, db, self.S, self.X).ravel(),
                    )
                )
                stacked = np.concatenate((fa.ravel(), fb.ravel()))
                diis.push(stacked, err)
                ext = diis.extrapolate()
                n2 = self.basis.nbf * self.basis.nbf
                fa_eff = ext[:n2].reshape(fa.shape)
                fb_eff = ext[n2:].reshape(fb.shape)
            if level_shift is not None:
                # Spin densities are idempotent occupied projectors.
                fa_eff = level_shifted(fa_eff, self.S, da, level_shift)
                fb_eff = level_shifted(fb_eff, self.S, db, level_shift)

            eps_a, ca = diagonalize_fock(fa_eff, self.X)
            eps_b, cb = diagonalize_fock(fb_eff, self.X)
            da_new = ca[:, : self.nalpha] @ ca[:, : self.nalpha].T
            db_new = cb[:, : self.nbeta] @ cb[:, : self.nbeta].T
            if recovery_damping is not None:
                da_new = (
                    1.0 - recovery_damping
                ) * da_new + recovery_damping * da
                db_new = (
                    1.0 - recovery_damping
                ) * db_new + recovery_damping * db

            if not (np.all(np.isfinite(da_new)) and np.all(np.isfinite(db_new))):
                raise NonFiniteDensityError(
                    f"UHF cycle {it} produced a non-finite spin density; "
                    f"aborting (first bad cycle: {it})"
                )
            drms = max(
                density_rms_change(da_new, da),
                density_rms_change(db_new, db),
            )
            de = e_elec - e_old
            da, db, e_old = da_new, db_new, e_elec
            history.append((it, e_elec + self.enuc, drms, de))

            if checkpoint is not None:
                checkpoint.maybe_save(
                    self._checkpoint_state(it, e_old, da, db, diis, history)
                )

            if guard is not None:
                action = guard.observe(it, e_elec + self.enuc, drms)
                if action is not None:
                    if action.stage == "damping":
                        recovery_damping = guard.damping
                    elif action.stage == "level_shift":
                        level_shift = guard.level_shift
                    elif action.stage == "diis_reset":
                        diis = DIIS() if self.use_diis else None
                elif guard.exhausted:
                    raise SCFConvergenceError(
                        guard.failure_message(),
                        result=make_result(),
                        stages_applied=guard.stages_applied,
                    )

            if self.criteria.converged(drms, de) and it > 1:
                converged = True
                break

        if not converged and strict:
            raise SCFConvergenceError(
                f"UHF did not converge in {self.criteria.max_iterations} "
                f"cycles (last E = {e_old + self.enuc:.10f} Eh, "
                f"dE = {de:.3e}, dRMS = {drms:.3e})",
                result=make_result(),
                stages_applied=guard.stages_applied if guard else (),
            )
        return make_result()
