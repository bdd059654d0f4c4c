"""Properties of the measure table that random Ginibre sampling does not pin.

Hypothesis draws states of every rank, exact zeros and product states
included, and local unitaries from their angles.  Runs are deterministic:
derandomize=True and no example database.  The tolerance is the table's
rounding, 1e-12, where the quantity is well conditioned:
- S and the coherences are square roots, so near F = 1 (or a maximally
  mixed qubit) a rounding error of F^2 moves them far more; the tests
  compare their squares.
- C reads sqrt(rho) from eigh, which returns an eigenvalue at 0 as a few
  eps of either sign; its clipped square root, up to about 3e-8, enters
  sqrt(rho).  Where sqrt(rho) flip(rho) sqrt(rho) has a lower rank than rho,
  for example (2/3)|Psi+><Psi+| + (1/3)|11><11| turned by a local unitary,
  C moves by that much (3.1e-8 at most over 200k such states).  So a state
  with an eigenvalue below 1e-4 gets ROOT_TOL for C; above it the square
  root moves by at most 4 eps / (2 sqrt(1e-4)), well inside TOL.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from qsteer import batch  # noqa: E402

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
def density_matrices(draw):
    """G G^dag / tr(G G^dag) for a 4 x k complex G, k = 1..4."""
    k = draw(st.integers(1, 4))
    parts = draw(st.lists(st.floats(-1.0, 1.0, allow_subnormal=False),
                          min_size=8 * k, max_size=8 * k))
    g = (np.array(parts[: 4 * k]) + 1j * np.array(parts[4 * k :])).reshape(4, k)
    rho = g @ g.conj().T
    trace = np.trace(rho).real
    assume(trace > 1e-6)
    return rho / trace


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
