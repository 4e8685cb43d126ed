"""Symmetry-unique shell-quartet indexing.

All three algorithms traverse the same set of symmetry-unique quartets
``(i >= j, k, l)`` with ``k <= i`` and ``l <= (j if k == i else k)`` —
equivalently, canonical pairs ``(k, l)`` whose combined pair index does
not exceed that of ``(i, j)``.  (The paper's Algorithm 1 line 5 prints
the ``lmax`` branch with the two outcomes swapped; the text, the
combined-index formulation of Algorithm 3, and the stock GAMESS code
all correspond to the rule implemented here.)

Indices are 0-based throughout the library.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

# Defined beside the ragged pair stacks it serves; the quartet and
# screening code reach it through this module.
from repro.integrals.eri import ragged_arange  # noqa: F401


def npairs(n: int) -> int:
    """Number of canonical pairs ``(i >= j)`` over ``n`` shells."""
    return n * (n + 1) // 2


def pair_index(i: int, j: int) -> int:
    """Canonical combined pair index of ``(i, j)`` with ``i >= j``."""
    if j > i:
        raise ValueError(f"pair_index requires i >= j; got ({i}, {j})")
    return i * (i + 1) // 2 + j


def decode_pair(p: int) -> tuple[int, int]:
    """Invert :func:`pair_index`: combined index -> ``(i, j)``."""
    i = int((math.isqrt(8 * p + 1) - 1) // 2)
    j = p - i * (i + 1) // 2
    # Guard against isqrt edge rounding.
    if j > i:
        i += 1
        j = p - i * (i + 1) // 2
    elif j < 0:
        i -= 1
        j = p - i * (i + 1) // 2
    return i, j


def decode_pairs(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized :func:`decode_pair` for index arrays."""
    p = np.asarray(p, dtype=np.int64)
    i = ((np.sqrt(8.0 * p + 1.0) - 1.0) / 2.0).astype(np.int64)
    # Fix floating-point boundary cases in either direction.
    base = i * (i + 1) // 2
    too_big = base > p
    i[too_big] -= 1
    base = i * (i + 1) // 2
    too_small = p - base > i
    i[too_small] += 1
    base = i * (i + 1) // 2
    j = p - base
    return i, j


def lmax_for(i: int, j: int, k: int) -> int:
    """Upper bound (inclusive) of the ``l`` loop for quartet ``(i,j,k,*)``."""
    return j if k == i else k


def unique_quartets(nshells: int) -> Iterator[tuple[int, int, int, int]]:
    """Iterate all symmetry-unique quartets in stock-GAMESS loop order."""
    for i in range(nshells):
        for j in range(i + 1):
            for k in range(i + 1):
                for l in range(lmax_for(i, j, k) + 1):
                    yield (i, j, k, l)


def quartet_degeneracy_factor(i: int, j: int, k: int, l: int) -> float:
    """Symmetry de-duplication factor for a unique quartet.

    The unique sweep visits each quartet once; the factor
    ``(1/2)^[i==j] * (1/2)^[k==l] * (1/2)^[(i,j)==(k,l)]`` makes the
    six-way Fock scatter equivalent to the full 8-fold permutation sum.
    """
    fac = 1.0
    if i == j:
        fac *= 0.5
    if k == l:
        fac *= 0.5
    if i == k and j == l:
        fac *= 0.5
    return fac
