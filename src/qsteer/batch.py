"""Batched evaluation of every per-state scalar.

One kernel measures every state: _measure(x, rhos) takes a stack of
factors x, each with rhos = x x^dag, and returns an (n, 13) float64 table
with the column layout below, vectorized over the whole stack.  Purity,
the correlation matrix T and the marginals are read from the entries of
rhos; C and the flip-product eigenvalues come from the singular values of
the symmetric matrices tau = x^T (sigma_y x sigma_y) x (Wootters, PRL 80,
2245 (1998)), which stay accurate at zero, at each factor's own width k:
|tau| at k = 1, a closed form at k = 2, and one LAPACK k x k SVD per width
k > 2 present.  Nothing else calls BLAS or LAPACK: tau and T are sums of
elementwise products, where a stacked matmul of tiny matrices would make
one BLAS call per matrix.  Each row depends only on its own state, summed
in the same order at any stack size, so a state gets the same bits alone
as in a chunk.

measure_factors() is the entry point for every state the program makes,
drawn or built, which comes with its factor: it checks only that each
factor is finite with ||x||_F^2 = 1, since x x^dag is Hermitian and PSD by
construction.  measure_rows() is the entry point for density matrices
given as input: it measures the factors V sqrt(w) that states.validate_stack
returns from the one eigh of its checks.  F needs only the Frobenius sum
of T, so the singular values of T are not a column.
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


def _pauli_gather():
    """T as a gather: each sigma_m x sigma_l has four nonzero entries P[b, a],
    each +-1 or +-i, and Re(rho[a, b] P[b, a]) is P[b, a] Re rho[a, b] for a
    real entry and -Im(P[b, a]) Im rho[a, b] for an imaginary one.  Column p
    of the (4, 9) index holds the positions of those parts in the float view
    of rho (re, im of each entry, row-major), in (a, b) order, and the signs
    their signs, so T[:, p] = sum_j sign[j, p] view[:, index[j, p]]."""
    p, a, b = np.nonzero(PAULI_PAIRS.transpose(0, 2, 1))  # P[b, a] != 0
    entries = PAULI_PAIRS[p, b, a]
    index = 2 * (4 * a + b) + (entries.imag != 0.0)
    return index.reshape(9, 4).T, (entries.real - entries.imag).reshape(9, 4).T


PAULI_INDEX, PAULI_SIGN = _pauli_gather()


def _float_view(rhos: np.ndarray) -> np.ndarray:
    """The (n, 32) re, im parts of each entry of an (n, 4, 4) stack, row-major."""
    rhos = np.ascontiguousarray(rhos, dtype=np.complex128)
    return rhos.view(np.float64).reshape(rhos.shape[0], 32)


def _correlations(parts: np.ndarray) -> np.ndarray:
    """(n, 9) T entries, row-major in (m, l), of the _float_view parts of a stack."""
    terms = parts[:, PAULI_INDEX]
    terms *= PAULI_SIGN
    return terms.sum(axis=1)


def correlation_matrices(rhos) -> np.ndarray:
    """T[k, m, n] = Re tr(rho_k (sigma_m x sigma_n)) for an (n, 4, 4) stack.

    A fixed gather of the 36 nonzero terms, not an (n, 16) x (16, 9) BLAS
    product: that product is big enough for OpenBLAS to start its threads,
    which then spin in every forked worker of the chunk pool; on two CPUs
    verify ran 1.2 s against 0.75 s."""
    return _correlations(_float_view(rhos)).reshape(-1, 3, 3)


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
    x = np.ascontiguousarray(x)
    parts = x.view(np.float64).reshape(x.shape[0], 8 * x.shape[2])
    with np.errstate(over="ignore"):  # an inf norm fails the check below
        norm_dev = np.abs(np.einsum("ij,ij->i", parts, parts) - 1.0)
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
    parts = _float_view(rhos)
    # running sums of T's squares, each row summed in its own fixed order:
    # entry 8 is F^2, entry 7 leaves out the (z, z) term
    t2 = np.cumsum(np.square(_correlations(parts)), axis=1)
    # F^2 - 1 without the cancellation at F = 1: T_zz^2 - (tr rho)^2 is
    # -4 (rho00 + rho33)(rho11 + rho22), so the (z, z) term drops out
    d0, d1, d2, d3 = parts[:, 0:32:10].T  # Re rho_ii
    f2m1 = t2[:, 7] - 4.0 * (d0 + d3) * (d1 + d2)
    out[:, COL_PURITY] = pur
    out[:, COL_C] = conc
    out[:, COL_F] = np.sqrt(t2[:, 8])
    out[:, COL_S] = np.sqrt(0.5 * np.maximum(0.0, f2m1))
    out[:, COL_Q] = np.sqrt(conc * conc + pur)
    # the coherences are Bloch-vector lengths, exact 0 at a maximally mixed
    # qubit, from the entries of each reduced state: rho_A = tr_B rho has
    # diagonal (rho00 + rho11, rho22 + rho33) and off-diagonal rho02 + rho13,
    # rho_B = tr_A rho has (rho00 + rho22, rho11 + rho33) and rho01 + rho23
    out[:, COL_DA] = _bloch_length((d0 + d1) - (d2 + d3), parts[:, 4:6] + parts[:, 14:16])
    out[:, COL_DB] = _bloch_length((d0 + d2) - (d1 + d3), parts[:, 2:4] + parts[:, 22:24])
    out[:, COL_LOWER] = np.sqrt(np.maximum(0.0, conc * conc + pur - 1.0))
    out[:, COL_UPPER] = np.minimum(conc, np.sqrt(np.maximum(0.0, 2.0 * pur - 1.0)))
    out[:, COL_L1 : COL_L4 + 1] = sig * sig
    return out


def _flip_singular_values(x: np.ndarray) -> np.ndarray:
    """(n, 4) descending singular values of tau = x^T (sigma_y x sigma_y) x,
    the square roots of the eigenvalues of rho flip(rho), for each factor of
    an (n, 4, m) stack, taken at its width k (its last nonzero column plus
    one; zero columns add nothing to x x^dag): |tau| at k = 1, the closed
    form of _symmetric_2x2_singular_values at k = 2, one k x k SVD above.

    With x_a the row a of x, tau = a + a^T for a = x_1 (x) x_2 - x_0 (x) x_3,
    outer products taken elementwise: a stacked (n, k, 4) @ (n, 4, k) product
    would make one tiny BLAS call per factor."""
    n, _, m = x.shape
    width = m - np.argmax((x != 0).any(axis=1)[:, ::-1], axis=1)  # m where x = 0
    sig = np.zeros((n, max(m, 4)))
    for k in np.flatnonzero(np.bincount(width)):  # the widths present
        idx = np.flatnonzero(width == k)
        xk = x[idx, :, :k]
        a = xk[:, 1, :, None] * xk[:, 2, None, :] - xk[:, 0, :, None] * xk[:, 3, None, :]
        tau = a + a.transpose(0, 2, 1)
        if k == 1:
            sig[idx, 0] = np.abs(tau[:, 0, 0])
        elif k == 2:
            sig[idx, :2] = _symmetric_2x2_singular_values(tau)
        else:
            sig[idx, :k] = np.linalg.svd(tau, compute_uv=False)
    return sig[:, :4]  # tau has rank at most 4


def _symmetric_2x2_singular_values(tau: np.ndarray) -> np.ndarray:
    """(n, 2) descending singular values s1 >= s2 of each complex symmetric
    tau = [[a, b], [b, d]] of an (n, 2, 2) stack, in closed form:
    (s1 + s2)^2 = ||tau||_F^2 + 2 |det tau|, and s1 - s2 is the eigenvalue
    gap hypot(|a|^2 - |d|^2, 2 |conj(a) b + conj(b) d|) of tau^dag tau over
    s1 + s2, so both keep an absolute error of a few eps ||tau||, as an SVD
    does; s1 - s2 is 0 where tau = 0."""
    a, b, d = tau[:, 0, 0], tau[:, 0, 1], tau[:, 1, 1]
    aa, bb, dd = (z.real * z.real + z.imag * z.imag for z in (a, b, d))
    total = np.sqrt(aa + 2.0 * bb + dd + 2.0 * np.abs(a * d - b * b))
    gap = np.hypot(aa - dd, 2.0 * np.abs(a.conj() * b + b.conj() * d))
    diff = gap / np.where(total > 0.0, total, 1.0)  # the gap is 0 where the total is
    return np.column_stack((total + diff, np.maximum(0.0, total - diff))) / 2.0


def _bloch_length(z: np.ndarray, off: np.ndarray) -> np.ndarray:
    """sqrt(z^2 + 4 |off|^2) of a 2x2 Hermitian matrix's diagonal difference
    z = r00 - r11 and (n, 2) re, im parts of its off-diagonal entry r01."""
    re, im = off.T
    return np.sqrt(z * z + 4.0 * (re * re + im * im))
