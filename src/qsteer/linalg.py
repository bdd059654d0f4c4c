"""Small fixed-size linear algebra: Hermitian eigensolves, PSD roots, kron,
partial traces.

Dimensions are capped at 4 on purpose; everything in this package is a qubit
pair.  The eigensolves defer to LAPACK.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionUnsupported, NotHermitian, NotPSD

HERMITIAN_RTOL = 1e-9
PSD_CLAMP = 1e-10


def frobenius(m: np.ndarray) -> float:
    return float(np.sqrt((m * m.conj()).real.sum()))


def _as_square(m: np.ndarray, dims: tuple[int, ...]) -> np.ndarray:
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] not in dims:
        raise DimensionUnsupported(
            f"expected a square matrix with dimension in {sorted(dims)}, got shape {m.shape}"
        )
    return m


def _check_hermitian(m: np.ndarray) -> np.ndarray:
    dev = frobenius(m - m.conj().T)
    if not dev <= HERMITIAN_RTOL * max(1.0, frobenius(m)):
        raise NotHermitian(f"matrix is not Hermitian (deviation {dev:.3e})")
    return (m + m.conj().T) / 2.0


def hermitian_eigenvalues(m: np.ndarray, vectors: bool = False):
    """Descending real eigenvalues of a Hermitian matrix (dim 2..4).

    With ``vectors=True`` also returns the unitary whose columns are the
    matching eigenvectors.
    """
    m = _as_square(m, (2, 3, 4))
    w, v = np.linalg.eigh(_check_hermitian(m))
    w = w[::-1].copy()
    v = v[:, ::-1].copy()
    if vectors:
        return w, v
    return w


def psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Principal square root of a positive semidefinite Hermitian matrix.

    Eigenvalues in [-1e-10, 0) are clamped to zero; anything below raises
    NotPSD.
    """
    w, v = hermitian_eigenvalues(m, vectors=True)
    if w.min() < -PSD_CLAMP:
        raise NotPSD(f"matrix is not positive semidefinite (min eigenvalue {w.min():.3e})")
    r = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    return (r + r.conj().T) / 2.0


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two 2x2 matrices; the left factor is qubit A."""
    a = _as_square(a, (2,))
    b = _as_square(b, (2,))
    return np.kron(a, b)


def partial_trace(rho: np.ndarray, keep: str) -> np.ndarray:
    """Reduced 2x2 matrix of a 4x4 two-qubit operator.

    ``keep`` is 'A' (left factor) or 'B' (right factor).
    """
    rho = _as_square(rho, (4,))
    r4 = rho.reshape(2, 2, 2, 2)
    if keep == "A":
        return np.einsum("abcb->ac", r4)
    if keep == "B":
        return np.einsum("abac->bc", r4)
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")


def sym3_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Descending eigenvalues of a real symmetric 3x3 matrix."""
    m = np.asarray(m, dtype=np.float64)
    if m.shape != (3, 3):
        raise DimensionUnsupported(f"expected a 3x3 matrix, got shape {m.shape}")
    dev = float(np.abs(m - m.T).max())
    if not dev <= 1e-12 * max(1.0, float(np.abs(m).max())):
        raise NotHermitian(f"matrix is not symmetric (deviation {dev:.3e})")
    sym = (m + m.T) / 2.0
    return hermitian_eigenvalues(sym.astype(np.complex128))
