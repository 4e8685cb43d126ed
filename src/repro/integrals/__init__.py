"""Gaussian integral engine (McMurchie-Davidson scheme).

All integrals the Hartree-Fock method needs, implemented from scratch
over contracted Cartesian Gaussian shells:

* :mod:`repro.integrals.boys` — the Boys function :math:`F_m(x)`.
* :mod:`repro.integrals.hermite` — Hermite expansion coefficients
  :math:`E_t^{ij}` and Hermite Coulomb tensors :math:`R_{tuv}`.
* :mod:`repro.integrals.overlap` / ``kinetic`` / ``nuclear`` —
  one-electron shell-pair kernels.
* :mod:`repro.integrals.eri` — two-electron repulsion integrals, one
  class of shell quartets per kernel call over ragged stacks of
  precomputed contracted-shell pair data.
* :mod:`repro.integrals.cache` — memory-bounded LRU cache of quartet
  ERI blocks (semi-direct SCF).
* :mod:`repro.integrals.schwarz` — exact Cauchy-Schwarz bounds
  :math:`Q_{ij} = \\sqrt{(ij|ij)}` over composite shells.
* :mod:`repro.integrals.onee` — full S, T, V matrix drivers.
"""

from repro.integrals.boys import boys
from repro.integrals.cache import QuartetCache
from repro.integrals.eri import (
    PairStack,
    ShellPair,
    eri_class_batch,
    eri_shell_quartet,
    make_shell_pairs,
)
from repro.integrals.onee import kinetic_matrix, nuclear_matrix, overlap_matrix
from repro.integrals.schwarz import schwarz_matrix

__all__ = [
    "boys",
    "QuartetCache",
    "PairStack",
    "ShellPair",
    "eri_class_batch",
    "eri_shell_quartet",
    "make_shell_pairs",
    "overlap_matrix",
    "kinetic_matrix",
    "nuclear_matrix",
    "schwarz_matrix",
]
