"""Dense reference Fock construction from the full ERI tensor.

This is the ground truth for every parallel Fock algorithm in
:mod:`repro.core`: small enough systems afford the full
``(nbf, nbf, nbf, nbf)`` tensor, and the Coulomb/exchange contractions
become two einsums.
"""

from __future__ import annotations

import numpy as np

from repro.chem.basis.basisset import BasisSet
from repro.integrals.eri import eri_shell_quartet, make_shell_pairs


def eri_tensor(basis: BasisSet) -> np.ndarray:
    """Full two-electron integral tensor ``(mu nu | lam sig)``.

    Exploits the 8-fold permutational symmetry at shell level: unique
    quartets ``(i >= j, k >= l, ij >= kl)`` are computed once and
    scattered to all equivalent index positions.

    Warning: ``O(nbf^4)`` memory — intended for the small validation
    systems only.
    """
    shells = basis.shells
    n = basis.nbf
    pairs = make_shell_pairs(shells)
    out = np.zeros((n, n, n, n))

    nsh = len(shells)
    for i in range(nsh):
        for j in range(i + 1):
            bra = pairs[(i, j)]
            for k in range(i + 1):
                lmax = k if k < i else j
                for l in range(lmax + 1):
                    ket = pairs[(k, l)]
                    block = eri_shell_quartet(bra, ket)
                    _scatter_quartet(out, shells, i, j, k, l, block)
    return out


def _scatter_quartet(out, shells, i, j, k, l, block) -> None:
    """Write one unique quartet block to all 8 symmetry positions."""
    oi, ni = shells[i].bf_offset, shells[i].nfunc
    oj, nj = shells[j].bf_offset, shells[j].nfunc
    ok, nk = shells[k].bf_offset, shells[k].nfunc
    ol, nl = shells[l].bf_offset, shells[l].nfunc
    si = slice(oi, oi + ni)
    sj = slice(oj, oj + nj)
    sk = slice(ok, ok + nk)
    sl = slice(ol, ol + nl)

    out[si, sj, sk, sl] = block
    out[sj, si, sk, sl] = block.transpose(1, 0, 2, 3)
    out[si, sj, sl, sk] = block.transpose(0, 1, 3, 2)
    out[sj, si, sl, sk] = block.transpose(1, 0, 3, 2)
    out[sk, sl, si, sj] = block.transpose(2, 3, 0, 1)
    out[sl, sk, si, sj] = block.transpose(3, 2, 0, 1)
    out[sk, sl, sj, si] = block.transpose(2, 3, 1, 0)
    out[sl, sk, sj, si] = block.transpose(3, 2, 1, 0)


def fock_from_eri(hcore: np.ndarray, eri: np.ndarray, density: np.ndarray) -> np.ndarray:
    """Reference closed-shell Fock matrix.

    Parameters
    ----------
    hcore:
        Core Hamiltonian ``T + V``.
    eri:
        Full ERI tensor from :func:`eri_tensor`.
    density:
        Closed-shell density ``D = 2 C_occ C_occ^T`` (factor of two
        included, GAMESS convention).

    Returns
    -------
    numpy.ndarray
        ``F = H + J - K/2`` with ``J = (mn|ls) D_ls`` and
        ``K = (ml|ns) D_ls``.
    """
    J = np.einsum("mnls,ls->mn", eri, density, optimize=True)
    K = np.einsum("mlns,ls->mn", eri, density, optimize=True)
    return hcore + J - 0.5 * K


class DenseFockBuilder:
    """Callable Fock builder backed by a precomputed dense ERI tensor.

    Satisfies the ``fock_builder(density) -> (fock, stats)`` protocol of
    the :class:`~repro.scf.rhf.RHF` driver.
    """

    def __init__(self, basis: BasisSet, hcore: np.ndarray) -> None:
        self.hcore = hcore
        self.eri = eri_tensor(basis)

    def __call__(self, density: np.ndarray):
        return fock_from_eri(self.hcore, self.eri, density), {}
