"""The per-basis set-up of an SCF: S, H = T + V, X = S^-1/2 and Q.

Everything here is a function of the basis alone, so it is computed at
most once per :class:`~repro.chem.basis.basisset.BasisSet` instance and
kept beside the pair data (:func:`~repro.integrals.eri.pair_stacks`)
under the same lifetime rule: a weak memo keyed by the instance, whose
values hold no strong reference back, so it all dies with the basis.

The SCF loop, the parallel driver and the Fock builders read the memo
instead of recomputing, which is what makes a job on a basis that is
already alive — a warm service worker's — do no integral set-up at all.
Each matrix is computed on first use (a dense run never needs ``Q``),
and every one is read-only: a caller that wants to change one works on
a copy, so no run can leak into the next.
"""

from __future__ import annotations

import functools
import weakref

import numpy as np

from repro.chem.basis.basisset import BasisSet
from repro.integrals.onee import core_hamiltonian, overlap_matrix
from repro.integrals.schwarz import schwarz_matrix


def _frozen(matrix: np.ndarray) -> np.ndarray:
    matrix.flags.writeable = False
    return matrix


class BasisSetup:
    """The matrices one basis determines, each computed on first use.

    Holds a weak reference to its basis only: the memo below would keep
    a basis alive forever otherwise.
    """

    def __init__(self, basis: BasisSet) -> None:
        self._basis = weakref.ref(basis)

    @property
    def basis(self) -> BasisSet:
        basis = self._basis()
        if basis is None:
            raise ReferenceError(
                "basis_setup(...) outlived its basis: keep the BasisSet "
                "alive while its matrices are computed")
        return basis

    @functools.cached_property
    def S(self) -> np.ndarray:
        """Overlap matrix."""
        return _frozen(overlap_matrix(self.basis))

    @functools.cached_property
    def hcore(self) -> np.ndarray:
        """Core Hamiltonian ``T + V``."""
        return _frozen(core_hamiltonian(self.basis))

    @functools.cached_property
    def X(self) -> np.ndarray:
        """Symmetric orthogonaliser ``S^-1/2``."""
        from repro.scf.guess import orthogonalizer

        return _frozen(orthogonalizer(self.S))

    @functools.cached_property
    def Q(self) -> np.ndarray:
        """Schwarz bounds over composite shells."""
        return _frozen(schwarz_matrix(self.basis))


_SETUPS: "weakref.WeakKeyDictionary[BasisSet, BasisSetup]" = (
    weakref.WeakKeyDictionary()
)


def basis_setup(basis: BasisSet) -> BasisSetup:
    """The (lazily filled) set-up memo of ``basis``."""
    setup = _SETUPS.get(basis)
    if setup is None:
        setup = _SETUPS[basis] = BasisSetup(basis)
    return setup
