"""Batched evaluation of every per-state scalar.

measure_rows() is the single route to every per-state scalar, shared by the
scalar functions in measures and by the harness.  It returns an (n, 16)
float64 table with the column layout below, vectorized over the whole stack
with LAPACK.
"""

from __future__ import annotations

import numpy as np

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
COL_T1, COL_T2, COL_T3 = 9, 10, 11
COL_L1, COL_L2, COL_L3, COL_L4 = 12, 13, 14, 15
N_COLS = 16

SIGMA = np.zeros((3, 2, 2), np.complex128)
SIGMA[0] = [[0.0, 1.0], [1.0, 0.0]]
SIGMA[1] = [[0.0, -1.0j], [1.0j, 0.0]]
SIGMA[2] = [[1.0, 0.0], [0.0, -1.0]]

# the nine two-qubit Pauli products sigma_m x sigma_l, row-major in (m, l)
PAULI_PAIRS = np.stack(
    [np.kron(SIGMA[m], SIGMA[l]) for m in range(3) for l in range(3)]
)

_FLIP_SIGN = np.array([-1.0, 1.0, 1.0, -1.0])


def spin_flip_matrices(rhos: np.ndarray) -> np.ndarray:
    """(sigma_y x sigma_y) conj(rho) (sigma_y x sigma_y) for a (n,4,4) stack."""
    signs = _FLIP_SIGN[:, None] * _FLIP_SIGN[None, :]
    return signs * rhos[..., ::-1, ::-1].conj()


def measure_rows(rhos: np.ndarray) -> np.ndarray:
    """Measure table for a stack of density matrices.

    Parameters
    ----------
    rhos : (n, 4, 4) or (4, 4) complex array
        Density matrices; assumed already validated.
    """
    rhos = np.ascontiguousarray(rhos, dtype=np.complex128)
    if rhos.ndim == 2:
        rhos = rhos[None]
    if rhos.ndim != 3 or rhos.shape[1:] != (4, 4):
        raise ValueError(f"expected a (n, 4, 4) stack, got {rhos.shape}")
    n = rhos.shape[0]
    out = np.empty((n, N_COLS))
    pur = np.einsum("kij,kij->k", rhos, rhos.conj()).real
    w, v = np.linalg.eigh(rhos)
    np.clip(w, 0.0, None, out=w)
    root = (v * np.sqrt(w)[:, None, :]) @ v.conj().transpose(0, 2, 1)
    # sqrt(rho) flip(rho) sqrt(rho) = W W^dag; its sqrt-eigenvalues are the
    # singular values of W, which stay accurate at zero
    yc = _FLIP_SIGN[:, None] * root[:, ::-1, :].conj()
    sig = np.linalg.svd(root @ yc, compute_uv=False)
    lam = sig * sig
    conc = np.maximum(0.0, 2.0 * sig[:, 0] - sig.sum(axis=1))
    tmat = np.einsum("kab,pba->kp", rhos, PAULI_PAIRS).real.reshape(n, 3, 3)
    f2 = np.einsum("kij,kij->k", tmat, tmat)
    tw = np.linalg.eigvalsh(tmat.transpose(0, 2, 1) @ tmat)[:, ::-1]
    tsv = np.sqrt(np.clip(tw, 0.0, None))
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
    out[:, COL_T1 : COL_T3 + 1] = tsv
    out[:, COL_L1 : COL_L4 + 1] = lam
    return out

