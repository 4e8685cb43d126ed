"""One-electron matrices: overlap S, kinetic T, nuclear attraction V.

All three read the pair data of the basis
(:func:`~repro.integrals.eri.pair_stacks`) and work a composite pair
class at a time: S and T from the 1-D overlap tables :math:`E_0^{ij}`,

.. math::

   T = T_x S_y S_z + S_x T_y S_z + S_x S_y T_z, \\qquad
   T^{ij}_x = -2 b^2 s^{i,j+2} + b (2j + 1) s^{ij}
              - \\tfrac{1}{2} j (j - 1) s^{i,j-2},

and V from the pairs' E-product tensors and one
:func:`~repro.integrals.hermite.hermite_coulomb_batch` call over
primitive pairs x nuclei.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from repro.chem.basis.basisset import BasisSet
from repro.integrals.eri import (
    MAX_BATCH_DOUBLES,
    PairClass,
    class_rows,
    pair_stacks,
)
from repro.integrals.hermite import hermite_coulomb_batch


def _from_pair_classes(
    basis: BasisSet, kernel: Callable[[PairClass], np.ndarray]
) -> np.ndarray:
    """A symmetric matrix from per-class kernels.

    ``kernel(cls)`` returns the contribution of every primitive pair of
    the class to every function pair, shape ``(nfunc_pair, nprim)``;
    the primitives of a pair are summed and the blocks of a class land
    in the lower triangle with one assignment, mirrored at the end.
    """
    out = np.zeros((basis.nbf, basis.nbf))
    offsets = basis.shell_bf_offsets()
    for cls in pair_stacks(basis).classes:
        stack = cls.stack
        rows = class_rows(stack.las, stack.lbs)
        out[
            offsets[cls.ia] + rows.fa[:, None],
            offsets[cls.ib] + rows.fb[:, None],
        ] = np.add.reduceat(kernel(cls), stack.ptr[:-1], axis=1)
    upper = np.triu_indices(basis.nbf, 1)
    out[upper] = out.T[upper]
    return out


def _axis_products(cls: PairClass, *tables: np.ndarray) -> list[np.ndarray]:
    """Per 1-D table ``[i, j, axis, n]`` its x, y, z factors of every
    function pair of the class, each ``(nfunc_pair, nprim)``."""
    rows = class_rows(cls.stack.las, cls.stack.lbs)
    return [
        table[rows.powa[:, axis], rows.powb[:, axis], axis]
        for table in tables
        for axis in range(3)
    ]


def _overlap_class(cls: PairClass) -> np.ndarray:
    sx, sy, sz = _axis_products(cls, cls.s1d)
    return cls.coef * (math.pi / cls.stack.p) ** 1.5 * (sx * sy * sz)


def _kinetic_class(cls: PairClass) -> np.ndarray:
    s, b = cls.s1d, cls.b
    t = np.empty_like(s[:, :-2])
    for j in range(t.shape[1]):
        t[:, j] = -2.0 * b * b * s[:, j + 2] + b * (2 * j + 1) * s[:, j]
        if j >= 2:
            t[:, j] -= 0.5 * j * (j - 1) * s[:, j - 2]
    sx, sy, sz, tx, ty, tz = _axis_products(cls, s, t)
    return cls.coef * (math.pi / cls.stack.p) ** 1.5 * (
        tx * sy * sz + sx * ty * sz + sx * sy * tz
    )


def overlap_matrix(basis: BasisSet) -> np.ndarray:
    """Full overlap matrix ``S`` of shape ``(nbf, nbf)``."""
    return _from_pair_classes(basis, _overlap_class)


def kinetic_matrix(basis: BasisSet) -> np.ndarray:
    """Full kinetic-energy matrix ``T`` of shape ``(nbf, nbf)``."""
    return _from_pair_classes(basis, _kinetic_class)


def nuclear_matrix(basis: BasisSet) -> np.ndarray:
    """Full nuclear-attraction matrix ``V`` of shape ``(nbf, nbf)``."""
    charges = np.asarray(basis.molecule.charges, dtype=np.float64)
    centers = np.asarray(basis.molecule.coords, dtype=np.float64)

    def kernel(cls: PairClass) -> np.ndarray:
        stack = cls.stack
        ncomp = stack.ebra.shape[2]
        out = np.empty((stack.nfunc_pair, stack.p.size))
        # One Hermite-Coulomb point per (primitive pair, nucleus), a
        # bounded number of primitive pairs at a time.
        per_prim = charges.size * (math.comb(stack.ltot + 4, 4) + ncomp)
        step = max(1, MAX_BATCH_DOUBLES // per_prim)
        for lo in range(0, stack.p.size, step):
            p, P = stack.p[lo : lo + step], stack.P[lo : lo + step]
            R = hermite_coulomb_batch(
                stack.ltot,
                np.repeat(p, charges.size),
                (P[:, None, :] - centers[None, :, :]).reshape(-1, 3),
            )
            # Sum over nuclei first; the E contraction is charge-independent.
            Rsum = -charges @ R.reshape(p.size, charges.size, ncomp)
            Rsum *= (2.0 * math.pi / p)[:, None]
            out[:, lo : lo + step] = np.matmul(
                stack.ebra[lo : lo + step], Rsum[:, :, None]
            )[:, :, 0].T
        return out

    return _from_pair_classes(basis, kernel)


def core_hamiltonian(basis: BasisSet) -> np.ndarray:
    """Core Hamiltonian ``H = T + V``."""
    return kinetic_matrix(basis) + nuclear_matrix(basis)
