"""Nuclear-attraction integrals over contracted Cartesian Gaussian shells."""

from __future__ import annotations

import math

import numpy as np

from repro.chem.basis.shell import Shell
from repro.integrals.eri import ShellPair
from repro.integrals.hermite import hermite_coulomb_batch


def nuclear_shell_pair(
    sha: Shell, shb: Shell, charges: np.ndarray, centers: np.ndarray
) -> np.ndarray:
    """Nuclear-attraction block :math:`\\langle a | \\sum_C -Z_C/r_C | b \\rangle`.

    Parameters
    ----------
    sha, shb:
        Bra and ket shells.
    charges:
        Nuclear charges, shape ``(natoms,)``.
    centers:
        Nuclear positions in Bohr, shape ``(natoms, 3)``.

    Returns
    -------
    numpy.ndarray
        Shape ``(sha.nfunc, shb.nfunc)``.
    """
    pair = ShellPair(sha, shb)
    charges = np.asarray(charges, dtype=np.float64)
    centers = np.asarray(centers, dtype=np.float64)
    # One Hermite-Coulomb point per (primitive pair, nucleus).
    R = hermite_coulomb_batch(
        pair.ltot,
        np.repeat(pair.p, charges.size),
        (pair.P[:, None, :] - centers[None, :, :]).reshape(-1, 3),
    )
    # Sum over nuclei first; the E contraction is charge-independent.
    Rsum = np.einsum(
        "c,pct->pt", -charges, R.reshape(pair.p.size, charges.size, -1)
    )
    weight = pair.coef * (2.0 * math.pi) / pair.p
    out = np.einsum("p,pft,pt->f", weight, pair.ebra, Rsum)
    return out.reshape(sha.nfunc, shb.nfunc)
