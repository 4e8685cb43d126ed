"""Parallel SCF driver: run RHF or UHF on a parallel Fock construction.

A thin composition layer: reads the basis' one-electron set-up from its
memo (:func:`~repro.integrals.basis_setup.basis_setup`), picks a
front-end of the SCF loop (:class:`repro.scf.rhf.RHF` /
:class:`repro.scf.uhf.UHF`) and the parallel Fock builder it drives.
Collects the per-iteration Fock-build statistics that the
memory/performance analyses consume.  :func:`build_scf` is the one path
from a :class:`~repro.config.SCFConfig` to a driver.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from repro.chem.basis.basisset import BasisSet
from repro.config import ALGORITHMS, SCFConfig
from repro.core.fock_base import FockBuildStats, ParallelFockBuilderBase
from repro.core.fock_mpi import MPIOnlyFockBuilder
from repro.core.fock_private import PrivateFockBuilder
from repro.core.fock_shared import SharedFockBuilder
from repro.core.fock_uhf import UHFPrivateFockBuilder
from repro.integrals.basis_setup import basis_setup
from repro.integrals.cache import QuartetCache
from repro.obs.events import get_event_log
from repro.obs.tracer import get_tracer
from repro.parallel.backend import ExecutionBackend, make_backend
from repro.resilience.errors import SCFConvergenceError
from repro.resilience.faults import FaultPlan
from repro.scf.convergence import ConvergenceCriteria
from repro.scf.rhf import RHF, SCFResult
from repro.scf.uhf import UHF, UHFResult

_BUILDERS: dict[str, type[ParallelFockBuilderBase]] = dict(zip(
    ALGORITHMS, (MPIOnlyFockBuilder, PrivateFockBuilder, SharedFockBuilder)
))


def make_fock_builder(
    algorithm: str,
    basis: BasisSet,
    hcore: np.ndarray,
    **kwargs,
) -> ParallelFockBuilderBase:
    """Instantiate one of the three paper algorithms by name."""
    try:
        cls = _BUILDERS[algorithm]
    except KeyError:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; choose from {sorted(_BUILDERS)}"
        ) from None
    return cls(basis, hcore, **kwargs)


@dataclass
class ParallelSCFResult:
    """SCF result bundled with the parallel execution statistics."""

    scf: SCFResult | UHFResult
    fock_stats: list[FockBuildStats]

    @property
    def energy(self) -> float:
        """Total SCF energy in Hartree."""
        return self.scf.energy

    @property
    def converged(self) -> bool:
        return self.scf.converged

    @property
    def total_quartets_computed(self) -> int:
        """Quartets evaluated across all SCF iterations."""
        return sum(s.quartets_computed for s in self.fock_stats)

    @property
    def rank_imbalance(self) -> float:
        """Worst per-iteration MPI load imbalance (max/mean, >= 1.0)."""
        return max((s.rank_imbalance for s in self.fock_stats), default=1.0)

    @property
    def thread_imbalance(self) -> float:
        """Worst per-iteration OpenMP load imbalance (max/mean, >= 1.0)."""
        return max((s.thread_imbalance for s in self.fock_stats), default=1.0)


class ParallelSCF:
    """RHF or UHF driven by a parallel Fock construction.

    Parameters
    ----------
    basis:
        The AO basis.
    algorithm:
        ``"mpi-only"`` / ``"private-fock"`` / ``"shared-fock"``.
        Ignored by ``method="uhf"``, whose one builder is the
        private-Fock :class:`~repro.core.fock_uhf.UHFPrivateFockBuilder`.
    method, multiplicity:
        ``"rhf"`` (default) or ``"uhf"`` with its spin multiplicity.
    nranks, nthreads:
        Simulated geometry (the MPI-only algorithm requires
        ``nthreads == 1``).  Under the process backend, ``nranks`` is
        the number of real worker processes.
    criteria:
        SCF convergence settings.
    backend:
        Execution backend: ``"sim"`` (default, the deterministic
        cooperative runtime), ``"process"`` (real OS worker processes,
        shared-memory matrices), or a ready
        :class:`~repro.parallel.backend.ExecutionBackend` instance.
    backend_options:
        Extra keyword arguments for
        :func:`~repro.parallel.backend.make_backend`
        (``schedule_seed``, ``obs_dir``).
    **builder_kwargs:
        Forwarded to the Fock builder (``tau``, ``schedule``,
        ``thread_schedule``, ``track_races``, ...).
    """

    def __init__(
        self,
        basis: BasisSet,
        algorithm: str = "shared-fock",
        *,
        method: str = "rhf",
        multiplicity: int = 1,
        nranks: int = 1,
        nthreads: int = 1,
        criteria: ConvergenceCriteria | None = None,
        backend: "str | ExecutionBackend" = "sim",
        backend_options: dict | None = None,
        **builder_kwargs,
    ) -> None:
        self.basis = basis
        hcore = basis_setup(basis).hcore
        self._fock_stats: list[FockBuildStats] = []

        def recording_builder(*densities: np.ndarray):
            with get_tracer().span(
                "scf/fock_build", iteration=len(self._fock_stats) + 1
            ):
                *focks, stats = self.builder(*densities)
            self._fock_stats.append(stats)
            return (*focks, stats)

        # The front-ends check the electron count against the method
        # first: a molecule that cannot run fails before any worker
        # starts.
        if method == "uhf":
            self.algorithm = "private-fock"
            self.driver: RHF | UHF = UHF(
                basis, multiplicity=multiplicity,
                fock_builder=recording_builder, criteria=criteria,
            )
            make_inner = UHFPrivateFockBuilder
        else:
            self.algorithm = algorithm
            self.driver = RHF(basis, recording_builder, criteria=criteria)
            make_inner = partial(make_fock_builder, algorithm)

        self.backend = make_backend(
            backend, workers=nranks, **(backend_options or {})
        )
        self.builder = self.backend.wrap_builder(make_inner(
            basis, hcore, nranks=nranks, nthreads=nthreads, **builder_kwargs
        ))

    def shutdown(self) -> None:
        """Release backend resources (worker processes, shared memory)."""
        self.backend.shutdown()

    def __enter__(self) -> "ParallelSCF":
        return self

    def __exit__(self, *exc: object) -> bool:
        self.shutdown()
        return False

    def run(self, **kwargs) -> ParallelSCFResult:
        """Run the SCF; returns energy plus per-iteration Fock stats.

        Keyword arguments (``restart``, ``checkpoint``, ``strict``,
        ...) are forwarded to
        :meth:`repro.scf.loop.SCFLoop.run`.  A propagating
        :class:`~repro.resilience.errors.SCFConvergenceError` has its
        partial result re-wrapped as a :class:`ParallelSCFResult` so
        callers keep the per-build statistics too.
        """
        self._fock_stats.clear()
        log = get_event_log()
        if log is not None:
            log.emit(
                "run.start",
                run_kind="scf",
                algorithm=self.algorithm,
                nranks=self.builder.nranks,
                nthreads=self.builder.nthreads,
                backend=self.backend.name,
            )
        status = "failed"
        result = None
        try:
            with get_tracer().span(
                "scf/run",
                algorithm=self.algorithm,
                nranks=self.builder.nranks,
                nthreads=self.builder.nthreads,
            ):
                try:
                    result = self.driver.run(**kwargs)
                except SCFConvergenceError as exc:
                    if exc.result is not None:
                        exc.result = ParallelSCFResult(
                            scf=exc.result, fock_stats=list(self._fock_stats)
                        )
                    raise
            status = "done"
        finally:
            if log is not None:
                log.emit(
                    "run.end",
                    status=status,
                    converged=(
                        result.converged if result is not None else False
                    ),
                    energy=result.energy if result is not None else None,
                    builds=len(self._fock_stats),
                )
        return ParallelSCFResult(scf=result, fock_stats=list(self._fock_stats))


def build_scf(
    config: SCFConfig,
    basis: BasisSet,
    *,
    eri_cache: QuartetCache | None = None,
    backend_options: dict | None = None,
) -> ParallelSCF:
    """The driver a validated :class:`~repro.config.SCFConfig` describes.

    The only config -> driver path: ``repro scf``, ``repro profile`` and
    the service's ``run_job`` all construct their SCF here.
    ``eri_cache`` substitutes a ready (pooled) quartet cache for the
    config's byte budget; ``backend_options`` carries what is about the
    host rather than the run (``obs_dir``, heartbeat tuning,
    ``schedule_seed``).  Raises :class:`~repro.config.ConfigError` /
    :class:`~repro.resilience.errors.FaultSpecError` when the config
    does not fit itself, the rank count or the molecule.
    """
    config.validate()
    return ParallelSCF(
        basis, config.algorithm,
        method=config.method, multiplicity=config.multiplicity,
        nranks=config.nranks, nthreads=config.nthreads,
        criteria=(
            ConvergenceCriteria(max_iterations=config.max_iterations)
            if config.max_iterations is not None else None
        ),
        backend=config.backend, backend_options=backend_options,
        fault_plan=(
            FaultPlan.from_spec(config.fault_plan, nranks=config.nranks)
            if config.fault_plan else None
        ),
        schedule=config.schedule,
        **({"eri_cache": eri_cache} if eri_cache is not None
           else {"eri_cache_mb": config.eri_cache_mb}),
    )
