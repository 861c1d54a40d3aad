"""Small dense linear-algebra helpers shared across modules."""

from __future__ import annotations

import ctypes
import functools
import threading
from contextlib import contextmanager
from pathlib import Path

import numpy as np

DEFAULT_TOL = 1e-9


@functools.cache
def _openblas_threads():
    """The (get, set) thread-count functions of the OpenBLAS that numpy
    bundles, or None for another BLAS build; looked up on the first call."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.restype, get.argtypes = ctypes.c_int, []
        set_.restype, set_.argtypes = None, [ctypes.c_int]
        return get, set_
    return None


_pin_lock = threading.Lock()
_pins = 0  # open one_blas_thread blocks
_saved_threads = 0


@contextmanager
def one_blas_thread():
    """Run the block on one BLAS thread, so that LAPACK results do not
    depend on the thread count the process was started with.

    The setting is process-wide: while any thread is inside such a block, a
    BLAS call from another Python thread runs on one thread too.  The count
    is restored when the last open block exits.  Where numpy's bundled
    OpenBLAS is not found, the block runs unchanged.
    """
    global _pins, _saved_threads
    threads = _openblas_threads()
    if threads is None:
        yield
        return
    get, set_ = threads
    with _pin_lock:
        if _pins == 0:
            _saved_threads = get()
            set_(1)
        _pins += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pins -= 1
            if _pins == 0:
                set_(_saved_threads)


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
