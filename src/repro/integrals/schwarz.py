"""Exact Cauchy-Schwarz screening bounds over composite shells.

The bound used by GAMESS (and this reproduction) is

.. math:: |(ij|kl)| \\le Q_{ij} Q_{kl}, \\qquad
          Q_{ij} = \\max_{\\mu \\in i, \\nu \\in j} \\sqrt{(\\mu\\nu|\\mu\\nu)},

evaluated at *composite* (GAMESS) shell granularity — the same
granularity at which the parallel algorithms make their screening
decisions (Algorithm 1 line 7, Algorithm 3 lines 13/22).
"""

from __future__ import annotations

import numpy as np

from repro.chem.basis.basisset import BasisSet
from repro.integrals.eri import eri_class_batch, pair_stacks


def schwarz_matrix(basis: BasisSet) -> np.ndarray:
    """Exact Schwarz bound matrix over composite shells.

    Per composite pair class, the diagonal quartets :math:`(ab|ab)` of
    all its pairs are one :func:`~repro.integrals.eri.eri_class_batch`
    call of the class stack (:func:`~repro.integrals.eri.pair_stacks`)
    against itself; a pair's bound is the largest diagonal element
    :math:`(\\mu\\nu|\\mu\\nu)` of its block.

    Returns
    -------
    numpy.ndarray
        Symmetric ``(nshells, nshells)`` matrix of :math:`Q_{ij}`.
    """
    Q = np.zeros((basis.nshells, basis.nshells))
    for cls in pair_stacks(basis).classes:
        blocks = eri_class_batch(cls.stack, cls.stack)
        largest = np.abs(np.diagonal(blocks, axis1=1, axis2=2)).max(axis=1)
        Q[cls.ia, cls.ib] = Q[cls.ib, cls.ia] = np.sqrt(largest)
    return Q
