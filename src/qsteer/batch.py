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
construction.  bound_columns() makes the same checks and returns only the
S, lower and upper columns, as verify needs them; its docstring states
where its upper differs from the table's.
measure_rows() is the entry point for density matrices given as input: it
measures the factors V sqrt(w) that states.validate_stack returns from
the one eigh of its checks.  Purity, S and the bounds each have one
formula, which both kernels call.  F needs only the Frobenius sum of T,
so the singular values of T are not a column.
"""

from __future__ import annotations

import numpy as np

from .errors import TraceNotOne, ValidationError
from .states import GATE, TRACE_TOL, _complex_array, _raise_first, gram, validate_stack

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
    x = _checked_factors(x)
    return _measure(x, gram(x))


def bound_columns(x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(S, lower, upper) of the states x x^dag of a stack of factors, with
    the checks and errors of measure_factors(x).  S and lower are its COL_S
    and COL_LOWER columns, bit for bit; upper is its COL_UPPER column, bit
    for bit, except where the stack holds a row below the purity gate, as
    below.

    C enters only the bounds.  Both are +0.0 wherever 2P - 1 <= -GATE, and
    S and lower are +0.0 wherever F^2 - 1 <= -GATE (see states.GATE): such
    an F-gated row has both margins >= +0.0, and a row below the purity
    gate, F-gated too, has upper - S = +0.0.  So the flip singular values
    are never taken below the purity gate, and, in a stack that holds such
    a row, not on the F-gated rows either: their upper reads +0.0, which
    changes neither the stack's least margins nor its violations."""
    x = _checked_factors(x)
    rhos = gram(x)
    pur = _purity(rhos)
    _, f2m1, s = _correlation_sums(_float_view(rhos))
    lower, upper = np.zeros(len(pur)), np.zeros(len(pur))
    live = 2.0 * pur - 1.0 > -GATE
    if not live.all():
        live &= f2m1 > -GATE
    live = np.flatnonzero(live)
    conc = _concurrence(_flip_singular_values(x[live]))
    lower[live], upper[live] = _bounds(conc, pur[live])
    return s, lower, upper


def _checked_factors(x) -> np.ndarray:
    """x as a C-contiguous complex128 stack of factors, checked as
    measure_factors documents."""
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
    return x


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
    pur = _purity(rhos)
    sig = _flip_singular_values(x)
    conc = _concurrence(sig)
    parts = _float_view(rhos)
    f2, _, out[:, COL_S] = _correlation_sums(parts)
    d0, d1, d2, d3 = parts[:, 0:32:10].T  # Re rho_ii
    out[:, COL_PURITY] = pur
    out[:, COL_C] = conc
    out[:, COL_F] = np.sqrt(f2)
    out[:, COL_Q] = np.sqrt(conc * conc + pur)
    # the coherences are Bloch-vector lengths, exact 0 at a maximally mixed
    # qubit, from the entries of each reduced state: rho_A = tr_B rho has
    # diagonal (rho00 + rho11, rho22 + rho33) and off-diagonal rho02 + rho13,
    # rho_B = tr_A rho has (rho00 + rho22, rho11 + rho33) and rho01 + rho23
    out[:, COL_DA] = _bloch_length((d0 + d1) - (d2 + d3), parts[:, 4:6] + parts[:, 14:16])
    out[:, COL_DB] = _bloch_length((d0 + d2) - (d1 + d3), parts[:, 2:4] + parts[:, 22:24])
    out[:, COL_LOWER], out[:, COL_UPPER] = _bounds(conc, pur)
    out[:, COL_L1 : COL_L4 + 1] = sig * sig
    return out


def _purity(rhos: np.ndarray) -> np.ndarray:
    """tr(rho^2) of each matrix of an (n, 4, 4) stack."""
    return np.einsum("kij,kij->k", rhos, rhos.conj()).real


def _concurrence(sig: np.ndarray) -> np.ndarray:
    """C = max(0, s1 - s2 - s3 - s4) of each row of descending flip singular values."""
    return np.maximum(0.0, 2.0 * sig[:, 0] - sig.sum(axis=1))


def _correlation_sums(parts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(F^2, F^2 - 1, S) of each state, from the _float_view parts of its
    matrix: F^2 = ||T||_F^2 and S = sqrt(max(0, (F^2 - 1) / 2))."""
    # running sums of T's squares, each row summed in its own fixed order:
    # entry 8 is F^2, entry 7 leaves out the (z, z) term
    t2 = np.cumsum(np.square(_correlations(parts)), axis=1)
    # F^2 - 1 without the cancellation at F = 1: T_zz^2 - (tr rho)^2 is
    # -4 (rho00 + rho33)(rho11 + rho22), so the (z, z) term drops out
    d0, d1, d2, d3 = parts[:, 0:32:10].T  # Re rho_ii
    f2m1 = t2[:, 7] - 4.0 * (d0 + d3) * (d1 + d2)
    return t2[:, 8], f2m1, np.sqrt(0.5 * np.maximum(0.0, f2m1))


def _bounds(conc: np.ndarray, pur: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The steerability bounds (lower, upper) of each (C, purity) pair:
    sqrt(max(0, C^2 + P - 1)) and min(C, sqrt(max(0, 2P - 1)))."""
    return (np.sqrt(np.maximum(0.0, conc * conc + pur - 1.0)),
            np.minimum(conc, np.sqrt(np.maximum(0.0, 2.0 * pur - 1.0))))


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
    width = _widths(x)
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


def _widths(x: np.ndarray) -> np.ndarray:
    """Each factor's width in a C-contiguous (n, 4, m) stack: its last
    column with a nonzero entry, plus one, and m where x = 0.

    A column is nonzero where the OR of the bits of its four rows, re and
    im, is nonzero with the sign bit shifted out (-0.0 is zero): on the
    uint64 view, about half the time of (x != 0).any(axis=1) on the complex
    stack."""
    bits = x.view(np.uint64)
    rows = bits[:, 0] | bits[:, 1]
    rows |= bits[:, 2]
    rows |= bits[:, 3]
    parts = rows[:, 0::2] | rows[:, 1::2]
    parts <<= 1
    return x.shape[2] - np.argmax(parts[:, ::-1] != 0, axis=1)


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
