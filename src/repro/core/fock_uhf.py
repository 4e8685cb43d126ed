"""Hybrid MPI/OpenMP *unrestricted* Fock construction.

Applies the paper's Algorithm-2 structure (shared read-only densities,
thread-private Fock replicas, MPI DLB over ``i``, OpenMP ``collapse(2)``
over ``(j, k)``) to the UHF case: each thread keeps private
:math:`W^\\alpha / W^\\beta` accumulators, both fed from a *single* ERI
sweep: one bra slab, one Coulomb contraction against the total density,
one exchange channel per spin.  This demonstrates the paper's closing
claim that the hybrid scheme transfers directly to UHF (and, by the
same token, GVB/DFT/CPHF).

The builder follows the same backend-facing rank-program protocol as
the RHF algorithms — the build head stacks the spin pair it is called
with into one ``(2, nbf, nbf)`` density, beside a ``(2, nbf, nbf)``
accumulator, so both the deterministic sim runtime and the
real-process backend execute it unchanged.
"""

from __future__ import annotations

import numpy as np

from repro.core.fock_private import PrivateFockBuilder


class UHFPrivateFockBuilder(PrivateFockBuilder):
    """Private-Fock (Algorithm 2) construction of the two spin Focks.

    The rank program is :class:`PrivateFockBuilder`'s, with the total
    density as the Coulomb channel and the two spin densities as
    exchange channels.  Satisfies the UHF builder protocol:
    ``builder(d_alpha, d_beta) -> (F_alpha, F_beta, stats)``.
    """

    algorithm_name = "uhf-private-fock"
    density_labels = ("alpha density", "beta density")

    @property
    def accumulator_shape(self) -> tuple[int, ...]:
        # Stacked spin channels: W[0] = alpha, W[1] = beta.
        return (2, self.nbf, self.nbf)

    def _channels(
        self, density: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, float]:
        # One ERI slab and one Coulomb contraction feed both spin Focks.
        return density[0] + density[1], density, -1.0

    def _jk_costs(self, i: int) -> None:
        # Uniform costs: the collapsed (j, k) space is dealt cyclically.
        return None

    def assemble(self, W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Spin Fock matrices from the stacked reduced accumulator."""
        fa = self.hcore + W[0] + W[0].T
        fb = self.hcore + W[1] + W[1].T
        return fa, fb
