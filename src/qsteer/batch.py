"""Batched evaluation of every per-state scalar.

measure_rows() is the entry point for a stack of states and the single
route to every per-state scalar but the correlation singular values;
measures.report() reads one of its rows for a single state, and the harness
reads whole tables.  It returns an (n, 13) float64 table with the column
layout below, vectorized over the whole stack with LAPACK.  It validates the
stack with states.validate_stack, taking the PSD check from the eigenvalues
it computes anyway.  F needs only the Frobenius sum of T, so the singular
values are not a column: correlation_singular_values() gives them, and only
report() asks for them, passing the correlation matrices that _measure()
formed for the table.
"""

from __future__ import annotations

import numpy as np

from .states import validate_stack

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
    """T[k, m, n] = Re tr(rho_k (sigma_m x sigma_n)) for an (n, 4, 4) stack."""
    return np.einsum("kab,pba->kp", rhos, PAULI_PAIRS).real.reshape(-1, 3, 3)


def correlation_singular_values(tmats: np.ndarray) -> np.ndarray:
    """Descending singular values t1 >= t2 >= t3 of each matrix of an
    (n, 3, 3) correlation_matrices stack, as square roots of the
    eigenvalues of T^T T."""
    tw = np.linalg.eigvalsh(tmats.transpose(0, 2, 1) @ tmats)[:, ::-1]
    return np.sqrt(np.clip(tw, 0.0, None))


def measure_rows(rhos: np.ndarray) -> np.ndarray:
    """Measure table for a stack of density matrices.

    Parameters
    ----------
    rhos : (n, 4, 4) complex array
        Density matrices.  A wrong shape, or the first invalid matrix,
        raises the ValidationError that names the broken invariant.
    """
    return _measure(rhos)[0]


def _measure(rhos) -> tuple[np.ndarray, np.ndarray]:
    """measure_rows' table, and the correlation matrices it forms for F."""
    rhos = np.ascontiguousarray(rhos, dtype=np.complex128)
    if (rhos.ndim != 3 or rhos.shape[1:] != (4, 4)
            or not np.isfinite(rhos.view(np.float64)).all()):
        validate_stack(rhos)  # raises; eigh needs a finite stack
    w, v = np.linalg.eigh(rhos)
    validate_stack(rhos, eigenvalues=w)
    n = rhos.shape[0]
    out = np.empty((n, N_COLS))
    pur = np.einsum("kij,kij->k", rhos, rhos.conj()).real
    np.clip(w, 0.0, None, out=w)
    root = (v * np.sqrt(w)[:, None, :]) @ v.conj().transpose(0, 2, 1)
    # sqrt(rho) flip(rho) sqrt(rho) = W W^dag; its sqrt-eigenvalues are the
    # singular values of W, which stay accurate at zero
    yc = FLIP_SIGN[:, None] * root[:, ::-1, :].conj()
    sig = np.linalg.svd(root @ yc, compute_uv=False)
    lam = sig * sig
    conc = np.maximum(0.0, 2.0 * sig[:, 0] - sig.sum(axis=1))
    tmat = correlation_matrices(rhos)
    f2 = np.einsum("kij,kij->k", tmat, tmat)
    r5 = rhos.reshape(n, 2, 2, 2, 2)
    rho_a = np.einsum("kabcb->kac", r5)
    rho_b = np.einsum("kabac->kbc", r5)
    pa = np.einsum("kij,kij->k", rho_a, rho_a.conj()).real
    pb = np.einsum("kij,kij->k", rho_b, rho_b.conj()).real
    out[:, COL_PURITY] = pur
    out[:, COL_C] = conc
    out[:, COL_F] = np.sqrt(f2)
    out[:, COL_S] = np.sqrt(0.5 * np.maximum(0.0, f2 - 1.0))
    out[:, COL_Q] = np.sqrt(conc * conc + pur)
    out[:, COL_DA] = np.sqrt(np.maximum(0.0, 2.0 * pa - 1.0))
    out[:, COL_DB] = np.sqrt(np.maximum(0.0, 2.0 * pb - 1.0))
    out[:, COL_LOWER] = np.sqrt(np.maximum(0.0, conc * conc + pur - 1.0))
    out[:, COL_UPPER] = np.minimum(conc, np.sqrt(np.maximum(0.0, 2.0 * pur - 1.0)))
    out[:, COL_L1 : COL_L4 + 1] = lam
    return out, tmat

