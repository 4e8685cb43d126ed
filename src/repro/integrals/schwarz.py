"""Exact Cauchy-Schwarz screening bounds over composite shells.

The bound used by GAMESS (and this reproduction) is

.. math:: |(ij|kl)| \\le Q_{ij} Q_{kl}, \\qquad
          Q_{ij} = \\max_{\\mu \\in i, \\nu \\in j} \\sqrt{(\\mu\\nu|\\mu\\nu)},

evaluated at *composite* (GAMESS) shell granularity — the same
granularity at which the parallel algorithms make their screening
decisions (Algorithm 1 line 7, Algorithm 3 lines 13/22).
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro.chem.basis.basisset import BasisSet
from repro.integrals.eri import PairStack, ShellPair, eri_class_batch


def schwarz_matrix(basis: BasisSet) -> np.ndarray:
    """Exact Schwarz bound matrix over composite shells.

    The diagonal quartets :math:`(ab|ab)` of all pure sub-shell pairs of
    one ``(l_a, l_b)`` class go through one
    :func:`~repro.integrals.eri.eri_class_batch` call.

    Returns
    -------
    numpy.ndarray
        Symmetric ``(nshells, nshells)`` matrix of :math:`Q_{ij}`.
    """
    comps = basis.composite_shells
    # Per pair class: the pure pairs and the composite (i, j) of each.
    pairs: dict[tuple[int, int], list[ShellPair]] = defaultdict(list)
    owners: dict[tuple[int, int], list[tuple[int, int]]] = defaultdict(list)
    for i, csa in enumerate(comps):
        for j, csb in enumerate(comps[: i + 1]):
            for sa in csa.subshells:
                for sb in csb.subshells:
                    pairs[sa.l, sb.l].append(ShellPair(sa, sb))
                    owners[sa.l, sb.l].append((i, j))

    Q2 = np.zeros((len(comps), len(comps)))
    for cls, members in pairs.items():
        stack = PairStack.concat(members)
        blocks = eri_class_batch(stack, stack)
        # Diagonal elements (mu nu | mu nu), largest per pure pair.
        largest = np.abs(np.diagonal(blocks, axis1=1, axis2=2)).max(axis=1)
        i, j = np.array(owners[cls]).T
        np.maximum.at(Q2, (i, j), largest)
    Q = np.sqrt(Q2)
    return np.maximum(Q, Q.T)
