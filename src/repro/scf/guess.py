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


def density_from_coefficients(
    C: np.ndarray, nocc: int, occupation: float = 2.0
) -> np.ndarray:
    """Density ``D = occupation * C_occ C_occ^T`` of one spin channel.

    The default is the closed-shell density (two electrons per orbital);
    a spin density has ``occupation=1``.
    """
    Cocc = C[:, :nocc]
    return occupation * (Cocc @ Cocc.T)


#: Eigenvalues closer than this (Hartree) form one degenerate subspace.
#: Symmetry-exact degeneracies split by ~1e-15; merely close levels of
#: the molecules we run are 1e-4 and more apart.
DEGENERACY_TOL = 1.0e-9


def _first_largest(values: np.ndarray) -> int:
    """Index of the largest value, ties (to 1e-10) going to the lowest
    index — symmetry-equivalent entries differ only by round-off, and an
    ``argmax`` over those would itself be a coin flip."""
    return int(np.argmax(np.round(values, 10)))


def _pin_subspace(V: np.ndarray) -> np.ndarray:
    """The canonical orthonormal basis of the span of ``V``'s columns.

    Successive pivots: the row of largest norm takes all of its weight
    in the first vector (a Householder reflection of the columns), the
    remaining columns span what is left and are treated the same way;
    finally every vector has its largest component positive.  The result
    depends on the subspace only, not on the basis LAPACK returned.
    """
    V = V.copy()
    for k in range(V.shape[1] - 1):
        sub = V[:, k:]
        w = sub[_first_largest(np.einsum("ij,ij->i", sub, sub))]
        u = w / np.linalg.norm(w)
        # Reflect u onto -+e_0 (the sign that avoids cancellation; signs
        # are fixed below): column k becomes +-(sub @ u).
        u[0] += np.copysign(1.0, u[0])
        sub -= np.outer(sub @ u, (2.0 / (u @ u)) * u)
    for col in V.T:
        if col[_first_largest(np.abs(col))] < 0.0:
            col *= -1.0
    return V


def diagonalize_fock(F: np.ndarray, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve the Roothaan equations for one Fock matrix.

    Returns ``(orbital_energies, C)`` where ``C`` are MO coefficients in
    the original AO basis.  Inside a degenerate eigenvalue (closer than
    :data:`DEGENERACY_TOL`) LAPACK returns an arbitrary rotation decided
    by round-off in ``F``; when the Fermi level cuts such a level the
    next density — and the iteration count — would depend on it, so
    every degenerate subspace is rotated to a canonical basis
    (:func:`_pin_subspace`).
    """
    Fp = X.T @ F @ X
    eps, Cp = eigh(Fp)
    # tight[n]: eps[n + 1] is degenerate with eps[n]; a run of
    # consecutive entries is one subspace.
    tight = np.flatnonzero(np.diff(eps) <= DEGENERACY_TOL).tolist()
    while tight:
        lo = hi = tight.pop(0)
        while tight and tight[0] == hi + 1:
            hi = tight.pop(0)
        Cp[:, lo : hi + 2] = _pin_subspace(Cp[:, lo : hi + 2])
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
