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

import functools
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qsteer import batch, harness  # noqa: E402
from qsteer.states import SLACK, SamplerConfig  # noqa: E402

from conftest import SIGMA_YY  # noqa: E402

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
def factors(draw, widths=(1, 4)):
    """G / ||G||_F for a 4 x k complex G, k = 1..4 or in the range widths."""
    k = draw(st.integers(*widths))
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


def _assert_two_singular_values(x):
    """The closed-form singular values of the 2 x 2 tau of each factor of an
    (n, 4, 2) stack match an SVD, ||tau||_F^2 as a sum of squares and
    |det tau| as a product, each within 8 eps of ||tau||_F or its square."""
    tau = x.transpose(0, 2, 1) @ (SIGMA_YY @ x)
    sig = batch._symmetric_2x2_singular_values(tau)
    norm = np.linalg.norm(tau, axis=(1, 2))
    tol = 8.0 * np.finfo(float).eps
    assert (sig[:, 0] >= sig[:, 1]).all() and (sig[:, 1] >= 0.0).all(), sig
    svd = np.linalg.svd(tau, compute_uv=False)
    assert (np.abs(sig - svd) <= tol * norm[:, None]).all(), (sig, svd)
    assert (np.abs((sig * sig).sum(axis=1) - norm**2) <= tol * norm**2).all(), (sig, norm)
    det = np.abs(np.linalg.det(tau))
    assert (np.abs(sig[:, 0] * sig[:, 1] - det) <= tol * norm**2).all(), (sig, det)
    return sig


@PROPERTIES
@given(x=factors(widths=(2, 2)))
def test_the_closed_form_takes_the_two_singular_values(x):
    _assert_two_singular_values(x[None])


PHI_PLUS, PHI_MINUS = np.array([[1.0, 0.0, 0.0, 1.0], [1.0, 0.0, 0.0, -1.0]]) / np.sqrt(2.0)


@pytest.mark.parametrize("columns, conc", [
    ((np.eye(4)[0], np.eye(4)[1]), 0.0),  # |00>, |01>: a product state, tau = 0
    ((np.eye(4)[0], np.eye(4)[3]), 0.0),  # (|00><00| + |11><11|) / 2
    ((PHI_PLUS, PHI_MINUS), 0.0),  # the Bell-diagonal state at w = 1/2
], ids=["tau-zero", "00-11", "bell-diagonal"])
def test_the_closed_form_at_a_zero_or_double_singular_value(columns, conc):
    # both columns nonzero, so the factor has width 2 and takes the closed
    # form; equal singular values give C = 0 exactly
    x = np.stack(columns, axis=1)[None] / np.sqrt(2.0)
    sig = _assert_two_singular_values(x)
    assert sig[0, 0] == sig[0, 1]
    assert batch.measure_factors(x)[0, batch.COL_C] == conc


@pytest.mark.parametrize("delta", [1e-4, 1e-8, 1e-12, 1e-150])
def test_the_closed_form_of_a_pure_state_plus_a_tiny_column(delta):
    # s2 is of order delta^2 / s1, at most a few eps past delta = 1e-8:
    # both keep an absolute error of a few eps, and so does C = s1 - s2
    rng = np.random.default_rng(5)
    g = rng.standard_normal((50, 4, 2)) + 1j * rng.standard_normal((50, 4, 2))
    g[:, :, 1] *= delta
    x = g / np.sqrt((np.abs(g) ** 2).sum(axis=(1, 2)))[:, None, None]
    sig = _assert_two_singular_values(x)
    conc = batch.measure_factors(x)[:, batch.COL_C]
    assert np.abs(conc - (sig[:, 0] - sig[:, 1])).max() <= 4.0 * np.finfo(float).eps


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


@st.composite
def split_plans(draw):
    """A plan of at most 64 records, and the bounds of the pieces of a split
    of it, empty pieces included."""
    count = draw(st.integers(1, 64))
    cuts = sorted(draw(st.lists(st.integers(0, count), max_size=8)))
    cfg = SamplerConfig(ranks=draw(st.sampled_from(["uniform", 1, 2, 3, 4])),
                        seed=draw(st.integers(0, 2**64 - 1)), count=count)
    return cfg, [0, *cuts, count]


# at SLACK = -1 every margin, which is at most 1, lies below -SLACK, so every
# record violates both theorems and the merge must keep their order
@pytest.mark.parametrize("slack", [SLACK, -1.0], ids=["slack", "every-record-violates"])
@PROPERTIES
@given(plan=split_plans())
def test_merged_folds_of_a_split_equal_the_fold_of_the_whole(slack, plan):
    cfg, bounds = plan
    with mock.patch.object(harness, "SLACK", slack):
        pieces = [harness._fold_chunk(cfg, a, b) for a, b in zip(bounds, bounds[1:])]
        whole = harness._fold_chunk(cfg, 0, cfg.count)
    merged = functools.reduce(harness._merge, pieces)
    assert merged.as_dict() == whole.as_dict()
    if slack < 0:
        assert len(whole.violations) == 2 * cfg.count
