"""Initial-guess density matrices for the SCF procedure."""

from __future__ import annotations

import numpy as np
from numpy.linalg import eigh


def orthogonalizer(S: np.ndarray, *, threshold: float = 1.0e-9) -> np.ndarray:
    """Symmetric (Lowdin) orthogonalization matrix :math:`X = S^{-1/2}`.

    Eigenvalues of ``S`` below ``threshold`` are projected out
    (canonical orthogonalization fallback for near-linear-dependent
    bases).
    """
    evals, evecs = eigh(S)
    keep = evals > threshold
    inv_sqrt = np.zeros_like(evals)
    inv_sqrt[keep] = 1.0 / np.sqrt(evals[keep])
    return (evecs * inv_sqrt[None, :]) @ evecs.T


def density_from_coefficients(C: np.ndarray, nocc: int) -> np.ndarray:
    """Closed-shell density ``D = 2 C_occ C_occ^T`` from MO coefficients."""
    Cocc = C[:, :nocc]
    return 2.0 * (Cocc @ Cocc.T)


def diagonalize_fock(F: np.ndarray, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve the Roothaan equations for one Fock matrix.

    Returns ``(orbital_energies, C)`` where ``C`` are MO coefficients in
    the original AO basis.
    """
    Fp = X.T @ F @ X
    eps, Cp = eigh(Fp)
    return eps, X @ Cp


def core_guess_density(hcore: np.ndarray, S: np.ndarray, nocc: int) -> np.ndarray:
    """Core-Hamiltonian guess: diagonalize ``H`` in the orthogonal basis.

    This is the guess the paper's SCF description uses ("An initial Fock
    matrix is constructed from terms of the core Hamiltonian and a
    symmetric orthogonalization matrix").
    """
    X = orthogonalizer(S)
    _, C = diagonalize_fock(hcore, X)
    return density_from_coefficients(C, nocc)
