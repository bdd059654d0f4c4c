"""Properties of the measure table that random Ginibre sampling does not pin.

Hypothesis draws states of every rank, exact zeros and product states
included, as 4 x k factors X with rho = X X^dag, and local unitaries from
their angles.  Runs are deterministic: derandomize=True and no example
database.  The steerability bounds hold within SLACK, as verify checks
them.  The tolerance is the table's rounding, 1e-12, where the quantity is
well conditioned:
- S and the coherences are square roots, so near F = 1 (or a maximally
  mixed qubit) a rounding error of F^2 moves them far more; the tests
  compare their squares.
- measure_factors reads C from the singular values of X^T (sigma_y x
  sigma_y) X, accurate at every rank.  measure_rows has no factor: it takes
  V sqrt(w) from eigh, which returns an eigenvalue at 0 as a few eps of
  either sign; its clipped square root, up to about 3e-8, enters the factor.
  Where rho flip(rho) has a lower rank than rho, for example
  (2/3)|Psi+><Psi+| + (1/3)|11><11| turned by a local unitary, C moves by
  that much (3.1e-8 at most over 200k such states).  So a matrix with an
  eigenvalue below 1e-4 gets ROOT_TOL for C; above it the square root moves
  by at most 4 eps / (2 sqrt(1e-4)), well inside TOL.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qsteer import batch  # noqa: E402
from qsteer.states import SLACK  # noqa: E402

TOL = 1e-12
ROOT_TOL = 4.0 * np.sqrt(4.0 * np.finfo(float).eps)  # 1.2e-7: four times sqrt(4 eps)
PROPERTIES = settings(derandomize=True, database=None, deadline=None, max_examples=200)

# the qubit swap |ab> -> |ba>
SWAP = np.eye(4)[[0, 2, 1, 3]]

# the quantities U_A x U_B leaves alone, as functions of a measure table
INVARIANTS = {
    "C": lambda rows: rows[:, batch.COL_C],
    "purity": lambda rows: rows[:, batch.COL_PURITY],
    "F^2": lambda rows: rows[:, batch.COL_F] ** 2,
    "S^2": lambda rows: rows[:, batch.COL_S] ** 2,
    "D_A^2": lambda rows: rows[:, batch.COL_DA] ** 2,
    "D_B^2": lambda rows: rows[:, batch.COL_DB] ** 2,
}


@st.composite
def factors(draw):
    """G / ||G||_F for a 4 x k complex G, k = 1..4."""
    k = draw(st.integers(1, 4))
    parts = draw(st.lists(st.floats(-1.0, 1.0, allow_subnormal=False),
                          min_size=8 * k, max_size=8 * k))
    g = (np.array(parts[: 4 * k]) + 1j * np.array(parts[4 * k :])).reshape(4, k)
    norm = np.sqrt((np.abs(g) ** 2).sum())
    assume(norm > 1e-3)
    return g / norm


@st.composite
def density_matrices(draw):
    """X X^dag for a factors() draw X."""
    x = draw(factors())
    return x @ x.conj().T


@st.composite
def local_unitaries(draw):
    """U_A x U_B, each e^{ia} [[e^{ib} cos c, e^{id} sin c], [-e^{-id} sin c, e^{-ib} cos c]]."""
    def qubit():
        a, b, c, d = (draw(st.floats(0.0, 2.0 * np.pi)) for _ in range(4))
        return np.exp(1j * a) * np.array([
            [np.exp(1j * b) * np.cos(c), np.exp(1j * d) * np.sin(c)],
            [-np.exp(-1j * d) * np.sin(c), np.exp(-1j * b) * np.cos(c)],
        ])

    return np.kron(qubit(), qubit())


@PROPERTIES
@given(x=factors(), u=local_unitaries())
def test_local_unitaries_leave_the_factor_measures_alone(x, u):
    # every rank at the table's rounding: the factor needs no eigensolver
    rows = batch.measure_factors(np.stack([x, u @ x]))
    for name, value in INVARIANTS.items():
        before, after = value(rows)
        assert abs(after - before) <= TOL, (name, x.shape[1], before, after)


@PROPERTIES
@given(x=factors())
def test_purity_is_one_quarter_of_the_bloch_sum(x):
    # 4 P = 1 + D_A^2 + D_B^2 + F^2 ties four columns: a wrong T, rho_A,
    # rho_B or purity breaks it.  Each term is a sum of squares of entries
    # of size at most 1, rounded to a few eps of its own size.
    rows = batch.measure_factors(x[None])[0]
    terms = (1.0, rows[batch.COL_DA] ** 2, rows[batch.COL_DB] ** 2, rows[batch.COL_F] ** 2)
    tol = 8.0 * np.finfo(float).eps * sum(terms)
    assert abs(4.0 * rows[batch.COL_PURITY] - sum(terms)) <= tol, (rows, tol)


@PROPERTIES
@given(u=local_unitaries())
def test_the_exact_factor_measures_c_at_a_rank_drop(u):
    # (2/3)|Psi+><Psi+| + (1/3)|11><11| has C = 2/3, and rho flip(rho) has
    # rank 1 where rho has rank 2: through its factor C keeps TOL, where the
    # matrix route needs ROOT_TOL
    x = np.zeros((4, 2))
    x[[1, 2], 0] = np.sqrt(1.0 / 3.0)
    x[3, 1] = np.sqrt(1.0 / 3.0)
    rows = batch.measure_factors((u @ x)[None])
    assert abs(rows[0, batch.COL_C] - 2.0 / 3.0) <= TOL, rows[0, batch.COL_C]


@PROPERTIES
@given(x=factors(), pad=st.integers(1, 4))
def test_zero_columns_leave_the_row_bit_identical(x, pad):
    # a zero column adds nothing to x x^dag, and tau is taken at the width
    # of the nonzero columns, so every column keeps its bits
    padded = np.hstack([x, np.zeros((4, pad))])
    rows = batch.measure_factors(x[None])
    assert rows.tobytes() == batch.measure_factors(padded[None]).tobytes()


@PROPERTIES
@given(x=factors())
def test_steerability_lies_between_its_bounds(x):
    # sqrt(max(0, C^2 + P - 1)) <= S <= min(C, sqrt(2P - 1)) at every rank
    row = batch.measure_factors(x[None])[0]
    lower, upper = row[batch.COL_LOWER], row[batch.COL_UPPER]
    assert lower - SLACK <= row[batch.COL_S] <= upper + SLACK, (x.shape[1], row)


@PROPERTIES
@given(x1=factors(), x2=factors(), lam=st.floats(0.0, 1.0))
def test_concurrence_is_convex_under_mixing(x1, x2, lam):
    # lam rho1 + (1 - lam) rho2 has the 4 x (k1 + k2) factor
    # [sqrt(lam) X1, sqrt(1 - lam) X2]
    mix = np.hstack([np.sqrt(lam) * x1, np.sqrt(1.0 - lam) * x2])
    c1, c2, c_mix = (batch.measure_factors(x[None])[0, batch.COL_C] for x in (x1, x2, mix))
    assert c_mix <= lam * c1 + (1.0 - lam) * c2 + TOL, (lam, c1, c2, c_mix)


@PROPERTIES
@given(rho=density_matrices(), u=local_unitaries())
def test_local_unitaries_leave_the_measures_alone(rho, u):
    rows = batch.measure_rows(np.stack([rho, u @ rho @ u.conj().T]))
    full_rank = np.linalg.eigvalsh(rho)[0] > 1e-4
    for name, value in INVARIANTS.items():
        before, after = value(rows)
        tol = ROOT_TOL if name == "C" and not full_rank else TOL
        assert abs(after - before) <= tol, (name, before, after)


@PROPERTIES
@given(rho=density_matrices())
def test_the_qubit_swap_exchanges_the_coherences(rho):
    rows = batch.measure_rows(np.stack([rho, SWAP @ rho @ SWAP]))
    da, db = INVARIANTS["D_A^2"](rows), INVARIANTS["D_B^2"](rows)
    assert abs(da[1] - db[0]) <= TOL and abs(db[1] - da[0]) <= TOL, (da, db)
