"""Multipole (dipole) integrals over contracted Cartesian Gaussian shells.

The Cartesian moment integrals :math:`\\langle a | (x - C_x)^e | b \\rangle`
follow from the same Hermite expansion as the overlap: a 1-D moment of
order *e* about point *C* is obtained by raising the ket angular
momentum, since :math:`x - C_x = (x - B_x) + (B_x - C_x)`.
"""

from __future__ import annotations

import math

import numpy as np

from repro.chem.basis.basisset import BasisSet
from repro.chem.basis.shell import Shell
from repro.integrals.hermite import e_coefficients_1d


def dipole_shell_pair(
    sha: Shell, shb: Shell, origin: np.ndarray
) -> np.ndarray:
    """Dipole-moment block :math:`\\langle a | r - C | b \\rangle`.

    Returns
    -------
    numpy.ndarray
        Shape ``(3, nfa, nfb)``: x, y, z components about ``origin``.
    """
    A, B = sha.center, shb.center
    origin = np.asarray(origin, dtype=np.float64)
    comps_a, comps_b = sha.components, shb.components
    out = np.zeros((3, sha.nfunc, shb.nfunc))

    for a, ca in zip(sha.exps, sha.coefs):
        for b, cb in zip(shb.exps, shb.coefs):
            p = a + b
            # Raise the ket by one so the first moment is reachable; the
            # three axes are one array call, Es[d] = E[i, j, t] of axis d.
            P = (a * A + b * B) / p
            Es = np.moveaxis(
                e_coefficients_1d(
                    sha.l, shb.l + 1, P - A, P - B, p, a * b / p * (A - B) ** 2
                ),
                -1, 0,
            )
            pref = ca * cb * (math.pi / p) ** 1.5

            def s1d(E: np.ndarray, i: int, j: int) -> float:
                return E[i, j, 0] if j >= 0 else 0.0

            def m1d(E: np.ndarray, i: int, j: int, shift: float) -> float:
                # <i| x - C |j> = S^{i, j+1} + (B - C) S^{ij}.
                return E[i, j + 1, 0] + shift * E[i, j, 0]

            shifts = B - origin
            for ia, la in enumerate(comps_a):
                for ib, lb in enumerate(comps_b):
                    s = [s1d(Es[d], la[d], lb[d]) for d in range(3)]
                    for d in range(3):
                        m = m1d(Es[d], la[d], lb[d], shifts[d])
                        others = [s[e] for e in range(3) if e != d]
                        out[d, ia, ib] += pref * m * others[0] * others[1]
    return out


def dipole_matrices(
    basis: BasisSet, origin: np.ndarray | None = None
) -> np.ndarray:
    """Full dipole-integral matrices, shape ``(3, nbf, nbf)``.

    ``origin`` defaults to the coordinate origin; molecular dipole
    moments of neutral molecules are origin-independent.
    """
    if origin is None:
        origin = np.zeros(3)
    n = basis.nbf
    out = np.zeros((3, n, n))
    shells = basis.shells
    for i, sa in enumerate(shells):
        ia = sa.bf_offset
        for sb in shells[: i + 1]:
            ib = sb.bf_offset
            block = dipole_shell_pair(sa, sb, origin)
            out[:, ia : ia + sa.nfunc, ib : ib + sb.nfunc] = block
            if sa is not sb:
                out[:, ib : ib + sb.nfunc, ia : ia + sa.nfunc] = (
                    block.transpose(0, 2, 1)
                )
    return out
