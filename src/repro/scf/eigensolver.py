"""Self-contained symmetric eigensolver (cyclic Jacobi).

GAMESS carries its own Fortran diagonalizers rather than depending on a
vendor LAPACK; in the same spirit this module provides a dependency-free
symmetric eigensolver the SCF driver can use instead of LAPACK's
(``repro.scf.guess.eigh``).  The classic cyclic Jacobi method: sweep all
off-diagonal pairs, rotating each to zero, until the off-diagonal norm
is negligible.  Quadratically convergent once sweeps get close;
``O(n^3)`` per sweep with a handful of sweeps in practice.
"""

from __future__ import annotations

import numpy as np


def jacobi_eigh(
    A: np.ndarray,
    *,
    tol: float = 1.0e-12,
    max_sweeps: int = 60,
) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a real symmetric matrix by cyclic Jacobi.

    Parameters
    ----------
    A:
        Real symmetric matrix (validated).
    tol:
        Convergence threshold on the off-diagonal Frobenius norm
        relative to the matrix norm.
    max_sweeps:
        Hard sweep cap; exceeding it raises.

    Returns
    -------
    (eigenvalues, eigenvectors)
        Ascending eigenvalues and the matching orthonormal column
        eigenvectors, same convention as ``numpy.linalg.eigh``.
    """
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    if not np.allclose(A, A.T, atol=1e-10):
        raise ValueError("matrix must be symmetric")
    n = A.shape[0]
    a = A.copy()
    v = np.eye(n)
    if n == 1:
        return a.diagonal().copy(), v

    norm = np.linalg.norm(A)
    if norm == 0.0:
        return np.zeros(n), v

    for _sweep in range(max_sweeps):
        off = np.linalg.norm(a - np.diag(a.diagonal()))
        if off <= tol * norm:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= tol * norm / n:
                    continue
                # Rotation angle zeroing a[p, q] (overflow-safe form).
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                if abs(theta) > 1.0e150:
                    t = 0.5 / theta  # asymptotic small-angle limit
                elif theta == 0.0:
                    t = 1.0
                else:
                    t = np.sign(theta) / (
                        abs(theta) + np.sqrt(theta * theta + 1.0)
                    )
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c

                # Apply the rotation to rows/columns p and q.
                ap = a[:, p].copy()
                aq = a[:, q].copy()
                a[:, p] = c * ap - s * aq
                a[:, q] = s * ap + c * aq
                ap = a[p, :].copy()
                aq = a[q, :].copy()
                a[p, :] = c * ap - s * aq
                a[q, :] = s * ap + c * aq

                vp = v[:, p].copy()
                vq = v[:, q].copy()
                v[:, p] = c * vp - s * vq
                v[:, q] = s * vp + c * vq
    else:
        raise RuntimeError(
            f"Jacobi failed to converge in {max_sweeps} sweeps"
        )

    evals = a.diagonal().copy()
    order = np.argsort(evals, kind="stable")
    return evals[order], v[:, order]
