"""Restricted Hartree-Fock driver with a pluggable Fock builder.

The driver implements exactly the SCF structure the paper describes
(section 3): core-Hamiltonian guess, Fock construction from the current
density, diagonalization via a symmetric-orthogonalization transform,
density update, and RMS-density convergence — accelerated by DIIS.

Any Fock builder satisfying ``builder(density) -> (fock, stats)`` can be
plugged in: the dense reference (:class:`~repro.scf.fock_dense.DenseFockBuilder`)
or any of the three parallel algorithms from :mod:`repro.core`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Protocol

import numpy as np

from repro.chem.basis.basisset import BasisSet
from repro.config import ConfigError
from repro.integrals.onee import kinetic_matrix, nuclear_matrix, overlap_matrix
from repro.obs.events import get_event_log
from repro.obs.telemetry import get_telemetry
from repro.obs.tracer import get_tracer
from repro.resilience.checkpoint import (
    CheckpointManager,
    SCFCheckpoint,
    load_checkpoint,
)
from repro.resilience.errors import NonFiniteDensityError, SCFConvergenceError
from repro.resilience.recovery import ConvergenceGuard, level_shifted
from repro.scf.convergence import ConvergenceCriteria, density_rms_change
from repro.scf.diis import DIIS
from repro.scf.guess import (
    core_guess_density,
    density_from_coefficients,
    diagonalize_fock,
    orthogonalizer,
)


class FockBuilder(Protocol):
    """Protocol for pluggable Fock constructions."""

    def __call__(self, density: np.ndarray) -> tuple[np.ndarray, dict]:
        """Return ``(fock, stats)`` for a given closed-shell density."""
        ...


@dataclass
class SCFIteration:
    """Record of one SCF cycle."""

    iteration: int
    energy: float
    density_rms: float
    energy_change: float
    fock_stats: dict = field(default_factory=dict)


@dataclass
class SCFResult:
    """Outcome of an SCF run.

    Attributes
    ----------
    energy:
        Total RHF energy (electronic + nuclear repulsion), Hartree.
    electronic_energy:
        Electronic part only.
    nuclear_repulsion:
        Nuclear repulsion energy.
    converged:
        Whether the convergence criteria were met.
    iterations:
        Per-cycle records.
    orbital_energies / coefficients / density / fock:
        Final wavefunction quantities.
    """

    energy: float
    electronic_energy: float
    nuclear_repulsion: float
    converged: bool
    iterations: list[SCFIteration]
    orbital_energies: np.ndarray
    coefficients: np.ndarray
    density: np.ndarray
    fock: np.ndarray

    @property
    def niterations(self) -> int:
        """Number of SCF cycles performed."""
        return len(self.iterations)


class RHF:
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
    criteria:
        SCF convergence thresholds.
    use_diis:
        Enable Pulay DIIS (on by default).
    damping:
        Optional static density damping factor in (0, 1): the next
        density is ``(1 - damping) * D_new + damping * D_old``.  A
        robustness aid for hard cases; applied only while DIIS has not
        yet accumulated two iterates (or throughout, without DIIS).
    hcore:
        The core Hamiltonian ``T + V`` when the caller already has it
        (the parallel driver builds it once for the Fock builder too);
        evaluated here otherwise.
    """

    def __init__(
        self,
        basis: BasisSet,
        fock_builder: FockBuilder | None = None,
        *,
        criteria: ConvergenceCriteria | None = None,
        use_diis: bool = True,
        damping: float | None = None,
        hcore: np.ndarray | None = None,
    ) -> None:
        nelec = basis.molecule.nelectrons
        if nelec % 2 != 0:
            raise ConfigError(
                f"RHF needs an even electron count; got {nelec} "
                f"(use charge to close the shell)"
            )
        if damping is not None and not (0.0 < damping < 1.0):
            raise ValueError("damping must be in (0, 1)")
        self.basis = basis
        self.nocc = nelec // 2
        self.criteria = criteria or ConvergenceCriteria()
        self.use_diis = use_diis
        self.damping = damping

        self.S = overlap_matrix(basis)
        self.hcore = (
            hcore if hcore is not None
            else kinetic_matrix(basis) + nuclear_matrix(basis)
        )
        self.X = orthogonalizer(self.S)
        self.enuc = basis.molecule.nuclear_repulsion()

        if fock_builder is None:
            from repro.scf.fock_dense import DenseFockBuilder

            fock_builder = DenseFockBuilder(basis, self.hcore)
        self.fock_builder = fock_builder

    def electronic_energy(self, density: np.ndarray, fock: np.ndarray) -> float:
        """Closed-shell electronic energy ``1/2 Tr[D (H + F)]``."""
        return 0.5 * float(np.sum(density * (self.hcore + fock)))

    def _checkpoint_state(
        self,
        cycle: int,
        e_old: float,
        D: np.ndarray,
        diis: DIIS | None,
        history: list[SCFIteration],
    ) -> SCFCheckpoint:
        """Snapshot the loop state at the end of ``cycle``."""
        return SCFCheckpoint(
            kind="rhf",
            cycle=cycle,
            energy=e_old,
            densities=(D,),
            diis_focks=diis.focks if diis is not None else [],
            diis_errors=diis.errors if diis is not None else [],
            history=np.array(
                [
                    [h.iteration, h.energy, h.density_rms, h.energy_change]
                    for h in history
                ],
                dtype=np.float64,
            ),
            nbf=self.basis.nbf,
            nelectrons=self.basis.molecule.nelectrons,
            label=self.basis.molecule.name,
        )

    def run(
        self,
        *,
        initial_density: np.ndarray | None = None,
        restart: SCFCheckpoint | str | Path | None = None,
        checkpoint: CheckpointManager | str | Path | None = None,
        recovery: ConvergenceGuard | bool | None = None,
        strict: bool = True,
    ) -> SCFResult:
        """Iterate the SCF to convergence.

        Parameters
        ----------
        initial_density:
            Optional starting density; defaults to the core guess.
        restart:
            An :class:`~repro.resilience.checkpoint.SCFCheckpoint` (or
            a path to one) to resume from: the run restores the saved
            density, energy, DIIS subspace, and convergence trace, and
            continues at the saved cycle + 1 — bitwise identical to the
            uninterrupted run.
        checkpoint:
            A :class:`~repro.resilience.checkpoint.CheckpointManager`
            (or a path, giving the default write interval) that
            persists the loop state every N completed cycles.
        recovery:
            ``True`` (default guard) or a configured
            :class:`~repro.resilience.recovery.ConvergenceGuard`:
            detects divergence/oscillation and applies the staged
            fallback (damping → level shift → DIIS reset).  A healthy
            run never triggers it, so enabling it is bitwise-neutral.
        strict:
            Raise :class:`~repro.resilience.errors.SCFConvergenceError`
            (carrying the partial result) when the cycle cap is reached
            without convergence, instead of returning a result with
            ``converged=False``.
        """
        if restart is not None and initial_density is not None:
            raise ValueError("pass either restart or initial_density, not both")
        diis = DIIS() if self.use_diis else None
        history: list[SCFIteration] = []
        e_old = 0.0
        start_cycle = 1
        if restart is not None:
            ck = load_checkpoint(restart)
            ck.check_compatible(
                kind="rhf",
                nbf=self.basis.nbf,
                nelectrons=self.basis.molecule.nelectrons,
            )
            D = ck.densities[0].copy()
            e_old = ck.energy
            if diis is not None:
                for f, err in zip(ck.diis_focks, ck.diis_errors):
                    diis.push(f, err)
            history = [
                SCFIteration(c, en, dr, de) for c, en, dr, de in ck.history_rows()
            ]
            start_cycle = ck.cycle + 1
            log = get_event_log()
            if log is not None:
                log.emit("scf.restart", cycle=start_cycle, energy=ck.energy)
        else:
            D = (
                initial_density.copy()
                if initial_density is not None
                else core_guess_density(self.hcore, self.S, self.nocc)
            )
        if isinstance(checkpoint, (str, Path)):
            checkpoint = CheckpointManager(checkpoint)
        guard: ConvergenceGuard | None
        guard = ConvergenceGuard() if recovery is True else (recovery or None)
        recovery_damping: float | None = None
        level_shift: float | None = None

        eps = np.zeros(self.basis.nbf)
        C = np.zeros((self.basis.nbf, self.basis.nbf))
        F = self.hcore.copy()
        converged = False
        d_rms = de = float("inf")

        def make_result() -> SCFResult:
            return SCFResult(
                energy=e_old + self.enuc,
                electronic_energy=e_old,
                nuclear_repulsion=self.enuc,
                converged=converged,
                iterations=history,
                orbital_energies=eps,
                coefficients=C,
                density=D,
                fock=F,
            )

        tracer = get_tracer()
        for it in range(start_cycle, self.criteria.max_iterations + 1):
            with tracer.span("scf/iteration", iteration=it):
                F, stats = self.fock_builder(D)
                if not np.all(np.isfinite(F)):
                    raise NonFiniteDensityError(
                        f"SCF cycle {it}: Fock matrix contains "
                        f"{int(np.sum(~np.isfinite(F)))} non-finite value(s) "
                        f"(first bad cycle: {it}); a reduction contribution "
                        "was likely corrupted"
                    )
                e_elec = self.electronic_energy(D, F)

                F_eff = F
                if diis is not None:
                    with tracer.span("scf/diis", iteration=it):
                        err = DIIS.error_vector(F, D, self.S, self.X)
                        diis.push(F, err)
                        F_eff = diis.extrapolate()
                if level_shift is not None:
                    # Closed-shell density carries occupation 2; the
                    # occupied projector is D / 2.
                    F_eff = level_shifted(F_eff, self.S, 0.5 * D, level_shift)

                with tracer.span("scf/diagonalize", iteration=it):
                    eps, C = diagonalize_fock(F_eff, self.X)
                D_new = density_from_coefficients(C, self.nocc)
                damp = recovery_damping
                if damp is None and self.damping is not None and (
                    diis is None or diis.nvectors < 2
                ):
                    damp = self.damping
                if damp is not None:
                    D_new = (1.0 - damp) * D_new + damp * D

                if not np.all(np.isfinite(D_new)):
                    raise NonFiniteDensityError(
                        f"SCF cycle {it} produced a density with "
                        f"{int(np.sum(~np.isfinite(D_new)))} non-finite "
                        "value(s); aborting instead of iterating on garbage "
                        f"(first bad cycle: {it})"
                    )
                d_rms = density_rms_change(D_new, D)
                de = e_elec - e_old
                history.append(
                    SCFIteration(it, e_elec + self.enuc, d_rms, de, stats)
                )
                log = get_event_log()
                if log is not None:
                    log.emit(
                        "scf.cycle", cycle=it, energy=e_elec + self.enuc,
                        d_rms=d_rms, de=de,
                    )
                channel = get_telemetry()
                if channel is not None:
                    # The monitor's convergence sparkline is drawn from
                    # these per-cycle samples.
                    channel.publish(
                        "scf.cycle", cycle=it, energy=e_elec + self.enuc,
                        delta_e=de, d_rms=d_rms,
                    )

                D = D_new
                e_old = e_elec

                if checkpoint is not None:
                    checkpoint.maybe_save(
                        self._checkpoint_state(it, e_old, D, diis, history)
                    )

                if guard is not None:
                    action = guard.observe(it, e_elec + self.enuc, d_rms)
                    if action is not None:
                        if log is not None:
                            log.emit(
                                "scf.recovery", cycle=it, stage=action.stage
                            )
                        with tracer.span(
                            "scf/recovery", stage=action.stage, iteration=it
                        ):
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
            if self.criteria.converged(d_rms, de) and it > 1:
                converged = True
                log = get_event_log()
                if log is not None:
                    log.emit(
                        "scf.converged", cycle=it, energy=e_old + self.enuc
                    )
                channel = get_telemetry()
                if channel is not None:
                    channel.publish(
                        "scf.converged", cycle=it,
                        energy=e_old + self.enuc, converged=True,
                    )
                break

        if not converged and strict:
            raise SCFConvergenceError(
                f"SCF did not converge in {self.criteria.max_iterations} "
                f"cycles (last E = {e_old + self.enuc:.10f} Eh, "
                f"dE = {de:.3e}, dRMS = {d_rms:.3e})",
                result=make_result(),
                stages_applied=guard.stages_applied if guard else (),
            )
        return make_result()
