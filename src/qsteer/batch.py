"""Batched evaluation of every per-state scalar.

One kernel measures every state: _measure(x, rhos) takes a stack of
factors x, each with rhos = x x^dag, and returns an (n, 13) float64 table
with the column layout below, vectorized over the whole stack with LAPACK.
Purity, the correlation matrix T and the marginals are read from rhos; C
and the flip-product eigenvalues come from the singular values of the
symmetric matrices x^T (sigma_y x sigma_y) x (Wootters, PRL 80, 2245
(1998)), which stay accurate at zero, at each factor's own width k: one
k x k SVD per width present, none at k = 1.

measure_factors() is the entry point for every state the program makes,
drawn or built, which comes with its factor: it checks only that each
factor is finite with ||x||_F^2 = 1, since x x^dag is Hermitian and PSD by
construction.  measure_rows() is the entry point for density matrices
given as input: it measures the factors V sqrt(w) that states.validate_stack
returns from the one eigh of its checks.  F needs only the Frobenius sum
of T, so the singular values of T are not a column:
correlation_singular_values() gives them.
"""

from __future__ import annotations

import numpy as np

from .errors import TraceNotOne, ValidationError
from .states import TRACE_TOL, _complex_array, _raise_first, gram, validate_stack

# column layout of the measure table
COL_PURITY = 0
COL_C = 1
COL_F = 2
COL_S = 3
COL_Q = 4
COL_DA = 5
COL_DB = 6
COL_LOWER = 7
COL_UPPER = 8
COL_L1, COL_L2, COL_L3, COL_L4 = 9, 10, 11, 12
N_COLS = 13

SIGMA = np.zeros((3, 2, 2), np.complex128)
SIGMA[0] = [[0.0, 1.0], [1.0, 0.0]]
SIGMA[1] = [[0.0, -1.0j], [1.0j, 0.0]]
SIGMA[2] = [[1.0, 0.0], [0.0, -1.0]]

# the nine two-qubit Pauli products sigma_m x sigma_l, row-major in (m, l)
PAULI_PAIRS = np.stack(
    [np.kron(SIGMA[m], SIGMA[l]) for m in range(3) for l in range(3)]
)

# sigma_y x sigma_y is anti-diagonal: entry j of (sigma_y x sigma_y) a is
# FLIP_SIGN[j] a[3 - j], for a vector a or (row-wise) a 4-row matrix
FLIP_SIGN = np.array([-1.0, 1.0, 1.0, -1.0])


def correlation_matrices(rhos: np.ndarray) -> np.ndarray:
    """T[k, m, n] = Re tr(rho_k (sigma_m x sigma_n)) for an (n, 4, 4) stack.

    An einsum, not one (n, 16) x (16, 9) BLAS product: that product is big
    enough for OpenBLAS to start its threads, which then spin in every forked
    worker of the chunk pool; on two CPUs verify ran 1.2 s against 0.75 s."""
    return np.einsum("kab,pba->kp", rhos, PAULI_PAIRS).real.reshape(-1, 3, 3)


def correlation_singular_values(tmats: np.ndarray) -> np.ndarray:
    """Descending singular values t1 >= t2 >= t3 of each matrix of an
    (n, 3, 3) correlation_matrices stack, as square roots of the
    eigenvalues of T^T T."""
    tw = np.linalg.eigvalsh(tmats.transpose(0, 2, 1) @ tmats)[:, ::-1]
    return np.sqrt(np.clip(tw, 0.0, None))


def measure_factors(x) -> np.ndarray:
    """Measure table for the states x x^dag of a stack of factors.

    Parameters
    ----------
    x : (n, 4, m) complex array
        Factors, m >= 1.  A wrong shape raises ValidationError; the first
        factor with a non-finite entry raises ValidationError, and the first
        with | ||x||_F^2 - 1 | > TRACE_TOL raises TraceNotOne, each naming
        its index.
    """
    x = _complex_array(x, "factors")
    if x.ndim != 3 or x.shape[1] != 4 or x.shape[2] < 1:
        raise ValidationError(f"factors must have shape (n, 4, m), got {x.shape}")
    with np.errstate(over="ignore"):  # an inf norm fails the check below
        norm_dev = np.abs((x.real * x.real + x.imag * x.imag).sum(axis=(1, 2)) - 1.0)
    if not (norm_dev <= TRACE_TOL).all():  # a non-finite factor fails this too
        finite = np.isfinite(x).all(axis=(1, 2))
        _raise_first((
            (~finite, lambda i: ValidationError(
                f"factor contains non-finite entries at index {i}")),
            (~(norm_dev <= TRACE_TOL), lambda i: TraceNotOne(
                f"squared norm of the factor deviates from 1 by {norm_dev[i]:.3e} "
                f"at index {i}")),
        ))
    return _measure(x, gram(x))


def measure_rows(rhos) -> np.ndarray:
    """Measure table for a stack of density matrices.

    Parameters
    ----------
    rhos : (n, 4, 4) complex array
        Density matrices.  A wrong shape, or the first invalid matrix,
        raises the ValidationError that names the broken invariant.
    """
    rhos, x = validate_stack(rhos)
    return _measure(x, rhos)


def _measure(x: np.ndarray, rhos: np.ndarray) -> np.ndarray:
    """The measure table of the (n, 4, 4) stack rhos = x x^dag, given its
    (n, 4, m) factors x."""
    n = rhos.shape[0]
    out = np.empty((n, N_COLS))
    pur = np.einsum("kij,kij->k", rhos, rhos.conj()).real
    sig = _flip_singular_values(x)
    conc = np.maximum(0.0, 2.0 * sig[:, 0] - sig.sum(axis=1))
    tmat = correlation_matrices(rhos)
    f2 = np.einsum("kij,kij->k", tmat, tmat)
    # F^2 - 1 without the cancellation at F = 1: T_zz^2 - (tr rho)^2 is
    # -4 (rho00 + rho33)(rho11 + rho22), so the (z, z) term drops out
    tflat = tmat.reshape(n, 9)[:, :8]
    diag = np.einsum("kii->ki", rhos).real
    f2m1 = (np.einsum("ki,ki->k", tflat, tflat)
            - 4.0 * (diag[:, 0] + diag[:, 3]) * (diag[:, 1] + diag[:, 2]))
    r5 = rhos.reshape(n, 2, 2, 2, 2)
    out[:, COL_PURITY] = pur
    out[:, COL_C] = conc
    out[:, COL_F] = np.sqrt(f2)
    out[:, COL_S] = np.sqrt(0.5 * np.maximum(0.0, f2m1))
    out[:, COL_Q] = np.sqrt(conc * conc + pur)
    # the coherences are Bloch-vector lengths, exact 0 at a maximally mixed qubit
    out[:, COL_DA] = _bloch_length(np.einsum("kabcb->kac", r5))
    out[:, COL_DB] = _bloch_length(np.einsum("kabac->kbc", r5))
    out[:, COL_LOWER] = np.sqrt(np.maximum(0.0, conc * conc + pur - 1.0))
    out[:, COL_UPPER] = np.minimum(conc, np.sqrt(np.maximum(0.0, 2.0 * pur - 1.0)))
    out[:, COL_L1 : COL_L4 + 1] = sig * sig
    return out


def _flip_singular_values(x: np.ndarray) -> np.ndarray:
    """(n, 4) descending singular values of tau = x^T (sigma_y x sigma_y) x,
    the square roots of the eigenvalues of rho flip(rho), for each factor of
    an (n, 4, m) stack, taken at its width k (its last nonzero column plus
    one; zero columns add nothing to x x^dag): k x k, or |tau| at k = 1."""
    n, _, m = x.shape
    width = m - np.argmax((x != 0).any(axis=1)[:, ::-1], axis=1)  # m where x = 0
    sig = np.zeros((n, max(m, 4)))
    for k in np.flatnonzero(np.bincount(width)):  # the widths present
        idx = np.flatnonzero(width == k)
        xk = x[idx, :, :k]
        tau = xk.transpose(0, 2, 1) @ (FLIP_SIGN[:, None] * xk[:, ::-1, :])
        sig[idx, :k] = np.abs(tau[:, 0]) if k == 1 else np.linalg.svd(tau, compute_uv=False)
    return sig[:, :4]  # tau has rank at most 4


def _bloch_length(red: np.ndarray) -> np.ndarray:
    """sqrt((r00 - r11)^2 + 4 |r01|^2) for each 2x2 matrix of a stack."""
    z = (red[:, 0, 0] - red[:, 1, 1]).real
    off = red[:, 0, 1]
    return np.sqrt(z * z + 4.0 * (off.real * off.real + off.imag * off.imag))
