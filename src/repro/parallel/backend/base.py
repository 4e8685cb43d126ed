"""Pluggable execution backends for the parallel Fock build.

Every Fock algorithm in :mod:`repro.core` is expressed as a *rank
program* (``builder.rank_program(rank, blocks, density, W)``, its
grants handed over in blocks of task indices): the SPMD body one MPI
rank executes between the DLB counter and the terminal reduction.  It
accumulates into ``W`` and returns the rank's partial
:class:`~repro.core.fock_base.FockBuildStats`; the builder's one build
head and tail (density guard, then the partials merged in rank order
and published) frame it the same way on every backend.  An
:class:`ExecutionBackend` decides *how* those rank programs run:

* :class:`~repro.parallel.backend.sim.SimBackend` — the deterministic
  single-process cooperative runtime the reproduction was built on.
  Ranks run sequentially through :class:`~repro.parallel.comm.SimWorld`;
  results are bitwise reproducible, which makes this backend the
  reference the differential test suite measures everything against.
* :class:`~repro.parallel.backend.process.ProcessBackend` — the same
  rank programs on real OS processes (``multiprocessing`` fork
  workers), with the density/Schwarz/Fock matrices in
  ``multiprocessing.shared_memory`` blocks and the paper's DLB counter
  served by a lock-backed shared counter.  Real concurrency, real
  nondeterminism in grant interleaving — but the reduced Fock matrix is
  partition-independent, so energies agree with the sim backend to
  reduction rounding (the parity suite enforces <= 1e-10 Hartree).

Backends wrap an already-constructed sim builder
(:func:`repro.core.scf_driver.make_fock_builder` product) rather than
constructing one, which keeps this package import-light: nothing here
imports :mod:`repro.core`.
"""

from __future__ import annotations

from typing import Any

from repro.config import BACKENDS

BACKEND_NAMES = BACKENDS


class ExecutionBackend:
    """How rank programs execute: simulated cooperatively or on real processes."""

    name = "base"

    def wrap_builder(self, builder: Any) -> Any:
        """Adapt a sim Fock builder to this backend.

        The returned object satisfies the same
        ``builder(density) -> (fock, stats)`` protocol the SCF drivers
        consume (``builder(d_alpha, d_beta) -> (F_alpha, F_beta,
        stats)`` around a UHF builder).
        """
        raise NotImplementedError

    def shutdown(self) -> None:
        """Release backend resources (workers, shared memory). Idempotent."""

    # Context-manager sugar so scripts can scope worker lifetimes.
    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc: object) -> bool:
        self.shutdown()
        return False


def make_backend(
    spec: "str | ExecutionBackend",
    *,
    workers: int | None = None,
    schedule_seed: int | None = None,
    obs_dir: Any = None,
    **process_options: Any,
) -> ExecutionBackend:
    """Resolve a backend name (or pass an instance through).

    Parameters
    ----------
    spec:
        ``"sim"``, ``"process"``, or a ready :class:`ExecutionBackend`.
    workers:
        Process-backend worker count (ignored by ``sim``).
    schedule_seed:
        Process-backend scheduling-jitter seed for nondeterminism
        hunting (ignored by ``sim``).
    obs_dir:
        Directory for per-worker spans/events NDJSON (ignored by
        ``sim``).
    **process_options:
        Further :class:`~repro.parallel.backend.process.ProcessBackend`
        keywords (``heartbeat_interval_s``, ``heartbeat_timeout_s``);
        rejected for the sim backend so typos do not pass silently.
    """
    if isinstance(spec, ExecutionBackend):
        return spec
    if spec == "sim":
        from repro.parallel.backend.sim import SimBackend

        if process_options:
            raise TypeError(
                f"sim backend takes no options {sorted(process_options)!r}"
            )
        return SimBackend()
    if spec == "process":
        from repro.parallel.backend.process import ProcessBackend

        return ProcessBackend(
            workers=4 if workers is None else workers,
            schedule_seed=schedule_seed,
            obs_dir=obs_dir,
            **process_options,
        )
    raise ValueError(
        f"unknown execution backend {spec!r}; choose from {BACKEND_NAMES}"
    )
