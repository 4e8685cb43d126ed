"""Gaussian integral engine (McMurchie-Davidson scheme).

All integrals the Hartree-Fock method needs, implemented from scratch
over contracted Cartesian Gaussian shells:

* :mod:`repro.integrals.boys` — the Boys function :math:`F_m(x)`.
* :mod:`repro.integrals.hermite` — Hermite expansion coefficients
  :math:`E_t^{ij}` and Hermite Coulomb tensors :math:`R_{tuv}`, both
  over arrays.
* :mod:`repro.integrals.eri` — the pair layer (one ragged stack of
  composite shell-pair data per pair class, built once per basis:
  :func:`~repro.integrals.eri.pair_stacks`) and the two-electron
  kernel, one bra against a share of kets per call
  (:func:`~repro.integrals.eri.eri_bra_slab`).
* :mod:`repro.integrals.onee` — S, T, V from the same stacks.
* :mod:`repro.integrals.schwarz` — exact Cauchy-Schwarz bounds
  :math:`Q_{ij} = \\sqrt{(ij|ij)}` over composite shells, from the same
  stacks and kernel.
* :mod:`repro.integrals.basis_setup` — S, H, X and Q of a basis, each
  computed once per basis instance and read-only
  (:func:`~repro.integrals.basis_setup.basis_setup`).
* :mod:`repro.integrals.cache` — memory-bounded LRU cache of ERI slabs,
  one entry per bra (semi-direct SCF).
* :mod:`repro.integrals.multipole` — dipole integrals (post-SCF).
"""

from repro.integrals.basis_setup import basis_setup
from repro.integrals.boys import boys
from repro.integrals.cache import QuartetCache
from repro.integrals.eri import (
    PairStack,
    ShellPair,
    eri_bra_slab,
    eri_class_batch,
    eri_shell_quartet,
    make_shell_pairs,
    pair_stacks,
)
from repro.integrals.onee import kinetic_matrix, nuclear_matrix, overlap_matrix
from repro.integrals.schwarz import schwarz_matrix

__all__ = [
    "basis_setup",
    "boys",
    "QuartetCache",
    "PairStack",
    "ShellPair",
    "eri_bra_slab",
    "eri_class_batch",
    "eri_shell_quartet",
    "make_shell_pairs",
    "pair_stacks",
    "overlap_matrix",
    "kinetic_matrix",
    "nuclear_matrix",
    "schwarz_matrix",
]
