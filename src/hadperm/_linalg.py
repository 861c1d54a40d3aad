"""Small dense linear-algebra helpers shared across modules.

Every verdict on a defect at a tolerance goes through :func:`within`, so a
NaN or infinite defect, or a NaN bound, fails it.
"""

from __future__ import annotations

import numpy as np

DEFAULT_TOL = 1e-9


def within(defect, bound):
    """``defect <= bound``: a Python bool for scalars, elementwise for arrays."""
    ok = defect <= bound
    return ok if isinstance(ok, np.ndarray) else bool(ok)


def hermitize(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.conj().swapaxes(-1, -2))


def spectral_norm(a: np.ndarray) -> float:
    """Largest singular value of a single matrix."""
    if a.size == 0:
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False)[0])


def spectral_norms(batch: np.ndarray) -> np.ndarray:
    """Largest singular values over a (..., d, d) stack of matrices."""
    if batch.size == 0:
        return np.zeros(batch.shape[:-2])
    return np.linalg.svd(batch, compute_uv=False)[..., 0]


def random_projection(dim: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    """Orthogonal projection onto a Haar-random rank-dimensional subspace."""
    if not 0 <= rank <= dim:
        raise ValueError(f"rank {rank} out of range for dimension {dim}")
    if rank == 0:
        return np.zeros((dim, dim), dtype=complex)
    if rank == dim:
        return np.eye(dim, dtype=complex)
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    q, _ = np.linalg.qr(g)
    return q @ q.conj().T


def kernel_basis(a: np.ndarray, tol: float) -> np.ndarray:
    """Orthonormal basis (as columns) of the numerical null space of a PSD
    Hermitian matrix: eigenvectors whose eigenvalues fall below ``tol``."""
    w, v = np.linalg.eigh(hermitize(a))
    return v[:, w < tol]
