"""Incremental (delta-density) direct-SCF Fock construction.

A standard direct-SCF refinement GAMESS also implements: after the
first cycle, build only the *change* of the two-electron part,

.. math:: F_{n} = F_{n-1} + G(D_{n} - D_{n-1}),

which is exact by linearity of ``G``.  Its payoff is density-aware
screening: with the Cauchy-Schwarz bound
``|contribution| <= Q_ij Q_kl max|dD|``, a shrinking density change
raises the effective screening threshold ``tau / max|dD|``, so late SCF
cycles evaluate far fewer shell quartets.  Periodic full rebuilds bound
the accumulated numerical noise.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    # Annotation only: ``repro.scf`` has no runtime dependency on
    # ``repro.core`` (which imports this module), so either package
    # imports alone.
    from repro.core.fock_base import ParallelFockBuilderBase


class IncrementalFockBuilder:
    """Wrap a parallel Fock builder with delta-density construction.

    Parameters
    ----------
    inner:
        Any of the three algorithm builders (it must expose ``hcore``
        and ``screening`` as :class:`ParallelFockBuilderBase` does).
    rebuild_every:
        Force a full (non-incremental) rebuild every N cycles.
    density_screening:
        Scale the screening threshold by ``1 / max|dD|`` on incremental
        cycles (the point of the exercise); disable for A/B testing.
    """

    def __init__(
        self,
        inner: ParallelFockBuilderBase,
        *,
        rebuild_every: int = 10,
        density_screening: bool = True,
    ) -> None:
        if rebuild_every < 1:
            raise ValueError("rebuild_every must be >= 1")
        self.inner = inner
        self.rebuild_every = rebuild_every
        self.density_screening = density_screening
        self._last_density: np.ndarray | None = None
        self._last_fock: np.ndarray | None = None
        self._cycle = 0
        self.incremental_cycles = 0
        self.full_cycles = 0

    def __getattr__(self, name: str):
        # Geometry/metadata reads (nranks, nthreads, screening, ...)
        # delegate to the wrapped builder.
        return getattr(self.inner, name)

    def reset(self) -> None:
        """Drop state; the next call performs a full build."""
        self._last_density = None
        self._last_fock = None
        self._cycle = 0
        self.incremental_cycles = 0
        self.full_cycles = 0

    def __call__(self, density: np.ndarray):
        self._cycle += 1
        full = (
            self._last_density is None
            or (self._cycle - 1) % self.rebuild_every == 0
        )
        if full:
            fock, stats = self.inner(density)
            self.full_cycles += 1
        else:
            delta = density - self._last_density
            dmax = float(np.max(np.abs(delta)))
            saved_screening = self.inner.screening
            try:
                if self.density_screening and dmax > 0:
                    # Clamp at the base threshold: with max|dD| > 1
                    # (e.g. the first cycles after a restart) the
                    # unclamped ratio would *lower* tau and make the
                    # incremental build screen less than a full one.
                    self.inner.screening = saved_screening.with_tau(
                        max(saved_screening.tau, saved_screening.tau / dmax)
                    )
                f_delta, stats = self.inner(delta)
            finally:
                self.inner.screening = saved_screening
            # The inner builder returns h + G(delta); strip the core term.
            fock = self._last_fock + (f_delta - self.inner.hcore)
            self.incremental_cycles += 1

        self._last_density = density.copy()
        self._last_fock = fock.copy()
        return fock, stats
