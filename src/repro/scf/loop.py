"""The SCF cycle loop, written once, over a tuple of spin channels.

The loop implements exactly the SCF structure the paper describes
(section 3): core-Hamiltonian guess, Fock construction from the current
density, diagonalization via a symmetric-orthogonalization transform,
density update, and RMS-density convergence — accelerated by DIIS.

A *channel* is one density / Fock / orbital set: RHF runs one channel
whose occupied orbitals hold two electrons, UHF runs two (alpha, beta)
holding one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Protocol, Sequence

import numpy as np

from repro.chem.basis.basisset import BasisSet
from repro.integrals.basis_setup import basis_setup
from repro.obs.events import get_event_log
from repro.obs.telemetry import get_telemetry
from repro.obs.tracer import get_tracer
from repro.resilience.checkpoint import (
    CheckpointManager, SCFCheckpoint, load_checkpoint)
from repro.resilience.errors import NonFiniteDensityError, SCFConvergenceError
from repro.resilience.recovery import ConvergenceGuard, level_shifted
from repro.scf.convergence import ConvergenceCriteria, density_rms_change
from repro.scf.diis import DIIS
from repro.scf.guess import density_from_coefficients, diagonalize_fock


@dataclass
class SCFIteration:
    """Record of one SCF cycle."""

    iteration: int
    energy: float
    density_rms: float
    energy_change: float
    fock_stats: Any = field(default_factory=dict)


@dataclass
class SCFOutcome:
    """What every SCF result carries, whatever the method.

    Attributes
    ----------
    energy:
        Total energy (electronic + nuclear repulsion), Hartree.
    electronic_energy:
        Electronic part only.
    nuclear_repulsion:
        Nuclear repulsion energy.
    converged:
        Whether the convergence criteria were met.
    iterations:
        Per-cycle records (cycles restored from a checkpoint included,
        with empty Fock-build statistics).
    """

    energy: float
    electronic_energy: float
    nuclear_repulsion: float
    converged: bool
    iterations: list[SCFIteration]

    @property
    def niterations(self) -> int:
        """Number of SCF cycles performed."""
        return len(self.iterations)


class FockBuilder(Protocol):
    """Protocol for pluggable Fock constructions: ``builder(D) -> (F,
    stats)`` for RHF, ``builder(Da, Db) -> (Fa, Fb, stats)`` for UHF."""

    def __call__(self, *densities: np.ndarray) -> tuple:
        """Return one *full* Fock matrix (core Hamiltonian included) per
        density, then a stats object."""
        ...


def _require_finite(
    matrices: Sequence[np.ndarray], cycle: int, what: str, hint: str
) -> None:
    """Fail fast on NaN/Inf instead of iterating on garbage until the cap."""
    for M in matrices:
        if not np.all(np.isfinite(M)):
            raise NonFiniteDensityError(
                f"SCF cycle {cycle}: {what} contains "
                f"{int(np.sum(~np.isfinite(M)))} non-finite value(s) "
                f"(first bad cycle: {cycle}); {hint}"
            )


class SCFLoop:
    """One SCF driver; a front-end fixes the channels and the energy.

    A front-end (:class:`~repro.scf.rhf.RHF`, :class:`~repro.scf.uhf.UHF`)
    sets :attr:`kind` and :attr:`occupation`, passes the occupied-orbital
    count of each channel, and implements ``electronic_energy(*densities,
    *focks)``, ``_result`` and :attr:`dense_builder` — nothing of the
    cycle itself.

    Parameters
    ----------
    basis:
        The AO basis (carries the molecule).
    noccs:
        Occupied orbitals per channel.
    fock_builder:
        A :class:`FockBuilder`, one density and one Fock matrix per
        channel; ``None`` selects the front-end's dense reference builder.
    criteria:
        SCF convergence thresholds.
    use_diis:
        Enable Pulay DIIS (on by default).
    damping:
        Optional static density damping factor in (0, 1): the next
        density is ``(1 - damping) * D_new + damping * D_old``.  A
        robustness aid for hard cases; applied only while DIIS has not
        yet accumulated two iterates (or throughout, without DIIS).

    ``S``, ``hcore`` and ``X`` are the basis' read-only set-up memo
    (:func:`~repro.integrals.basis_setup.basis_setup`): a second loop
    on a live basis evaluates no one-electron integral.
    """

    #: Checkpoint ``kind``: a run resumes only from its own method's file.
    kind: str
    #: Electrons in each occupied orbital of a channel.
    occupation: float
    #: The dense reference builder, ``dense_builder(basis, hcore)``.
    dense_builder: Any

    def __init__(
        self,
        basis: BasisSet,
        noccs: Sequence[int],
        fock_builder: FockBuilder | None = None,
        *,
        criteria: ConvergenceCriteria | None = None,
        use_diis: bool = True,
        damping: float | None = None,
    ) -> None:
        if damping is not None and not (0.0 < damping < 1.0):
            raise ValueError("damping must be in (0, 1)")
        self.basis = basis
        self.noccs = tuple(noccs)
        self.criteria = criteria or ConvergenceCriteria()
        self.use_diis = use_diis
        self.damping = damping

        setup = basis_setup(basis)
        self.S, self.hcore, self.X = setup.S, setup.hcore, setup.X
        self.enuc = basis.molecule.nuclear_repulsion()
        if fock_builder is None:
            fock_builder = self.dense_builder(basis, self.hcore)
        self.fock_builder = fock_builder

    def run(
        self,
        *,
        initial_densities: Sequence[np.ndarray] | None = None,
        restart: SCFCheckpoint | str | Path | None = None,
        checkpoint: CheckpointManager | str | Path | None = None,
        recovery: ConvergenceGuard | bool | None = None,
        strict: bool = True,
    ):
        """Iterate the SCF to convergence.

        Parameters
        ----------
        initial_densities:
            Optional starting density per channel; defaults to the core
            guess.
        restart:
            An :class:`~repro.resilience.checkpoint.SCFCheckpoint` (or
            a path to one) to resume from: the run restores the saved
            densities, energy, DIIS subspace, and convergence trace, and
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
        if restart is not None and initial_densities is not None:
            raise ValueError(
                "pass either restart or initial densities, not both"
            )
        nbf, nelectrons = self.basis.nbf, self.basis.molecule.nelectrons
        # DIIS sees the channels stacked: one extrapolation space for
        # all Fock matrices, with the combined commutator error.
        stack_shape = (len(self.noccs), nbf, nbf)
        diis = DIIS() if self.use_diis else None
        history: list[SCFIteration] = []
        e_old = 0.0
        start_cycle = 1
        tracer, log, channel = get_tracer(), get_event_log(), get_telemetry()
        if restart is not None:
            ck = load_checkpoint(restart)
            ck.check_compatible(kind=self.kind, nbf=nbf, nelectrons=nelectrons)
            densities = tuple(d.copy() for d in ck.densities)
            e_old = ck.energy
            if diis is not None:
                # A version-2 file may hold the same numbers flat or as
                # one matrix per vector: earlier writers did.
                for f, err in zip(ck.diis_focks, ck.diis_errors):
                    diis.push(f.reshape(stack_shape), err.reshape(stack_shape))
            history = [SCFIteration(*row) for row in ck.history_rows()]
            start_cycle = ck.cycle + 1
            if log is not None:
                log.emit("scf.restart", cycle=start_cycle, energy=ck.energy)
        elif initial_densities is not None:
            densities = tuple(d.copy() for d in initial_densities)
        else:
            # Core-Hamiltonian guess, the one the paper's SCF uses; the
            # channels differ by how many of its orbitals they occupy.
            _, C0 = diagonalize_fock(self.hcore, self.X)
            densities = tuple(
                density_from_coefficients(C0, n, self.occupation)
                for n in self.noccs
            )
        if isinstance(checkpoint, (str, Path)):
            checkpoint = CheckpointManager(checkpoint)
        guard = ConvergenceGuard() if recovery is True else (recovery or None)
        recovery_damping: float | None = None
        level_shift: float | None = None

        eps = tuple(np.zeros(nbf) for _ in self.noccs)
        C = tuple(np.zeros((nbf, nbf)) for _ in self.noccs)
        focks = tuple(self.hcore.copy() for _ in self.noccs)
        converged = False
        d_rms = de = float("inf")

        def make_result():
            return self._result(
                dict(energy=e_old + self.enuc, electronic_energy=e_old,
                     nuclear_repulsion=self.enuc, converged=converged,
                     iterations=history),
                eps, C, densities, focks,
            )

        for it in range(start_cycle, self.criteria.max_iterations + 1):
            with tracer.span("scf/iteration", iteration=it):
                *built, stats = self.fock_builder(*densities)
                focks = tuple(built)
                _require_finite(
                    focks, it, "Fock matrix",
                    "a reduction contribution was likely corrupted",
                )
                e_elec = self.electronic_energy(*densities, *focks)

                effective: Sequence[np.ndarray] = focks
                if diis is not None:
                    with tracer.span("scf/diis", iteration=it):
                        errors = [DIIS.error_vector(F, D, self.S, self.X)
                                  for F, D in zip(focks, densities)]
                        diis.push(np.stack(focks), np.stack(errors))
                        effective = diis.extrapolate()
                if level_shift is not None:
                    # A channel's occupied projector is its density over
                    # its occupation.
                    effective = [
                        level_shifted(
                            F, self.S, D / self.occupation, level_shift
                        )
                        for F, D in zip(effective, densities)
                    ]

                with tracer.span("scf/diagonalize", iteration=it):
                    eps, C = zip(*(
                        diagonalize_fock(F, self.X) for F in effective
                    ))
                new = tuple(
                    density_from_coefficients(c, n, self.occupation)
                    for c, n in zip(C, self.noccs)
                )
                damp = recovery_damping
                if damp is None and self.damping is not None and (
                    diis is None or diis.nvectors < 2
                ):
                    damp = self.damping
                if damp is not None:
                    new = tuple(
                        (1.0 - damp) * D_new + damp * D
                        for D_new, D in zip(new, densities)
                    )

                _require_finite(
                    new, it, "new density",
                    "aborting instead of iterating on garbage",
                )
                d_rms = max(
                    density_rms_change(D_new, D)
                    for D_new, D in zip(new, densities)
                )
                de = e_elec - e_old
                history.append(
                    SCFIteration(it, e_elec + self.enuc, d_rms, de, stats)
                )
                if log is not None:
                    log.emit(
                        "scf.cycle", cycle=it, energy=e_elec + self.enuc,
                        d_rms=d_rms, de=de,
                    )
                if channel is not None:
                    # The monitor's convergence sparkline is drawn from
                    # these per-cycle samples.
                    channel.publish(
                        "scf.cycle", cycle=it, energy=e_elec + self.enuc,
                        delta_e=de, d_rms=d_rms,
                    )

                densities = new
                e_old = e_elec

                if checkpoint is not None:
                    checkpoint.maybe_save(SCFCheckpoint(
                        kind=self.kind, cycle=it, energy=e_old,
                        densities=densities,
                        diis_focks=diis.focks if diis is not None else [],
                        diis_errors=diis.errors if diis is not None else [],
                        history=np.array(
                            [[h.iteration, h.energy, h.density_rms,
                              h.energy_change] for h in history],
                            dtype=np.float64,
                        ),
                        nbf=nbf, nelectrons=nelectrons,
                        label=self.basis.molecule.name,
                    ))

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
                if log is not None:
                    log.emit(
                        "scf.converged", cycle=it, energy=e_old + self.enuc
                    )
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
