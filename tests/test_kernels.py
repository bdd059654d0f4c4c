import numpy as np
import pytest

from qsteer import batch, measures
from qsteer.errors import NotHermitian, NotPSD, TraceNotOne, ValidationError

from conftest import FORMS


def random_rhos(seed, n):
    rng = np.random.default_rng(seed)
    rhos = np.empty((n, 4, 4), np.complex128)
    for i in range(n):
        k = 1 + int(rng.integers(4))
        g = rng.standard_normal((4, k)) + 1j * rng.standard_normal((4, k))
        m = g @ g.conj().T
        rhos[i] = m / m.trace().real
    return rhos


@pytest.mark.parametrize("form", ["numpy", "list"])
def test_measure_rows_accepts_single_matrix(form):
    rho = FORMS[form](np.eye(4, dtype=np.complex128)[None] / 4.0)
    rows = batch.measure_rows(rho)
    assert rows.shape == (1, batch.N_COLS)
    assert rows[0, batch.COL_PURITY] == pytest.approx(0.25, abs=1e-15)
    assert rows[0, batch.COL_C] == 0.0
    assert rows[0, batch.COL_S] == 0.0


def test_measure_rows_rejects_bad_shapes():
    # a bare (4, 4) matrix is not a stack either
    for bad in (np.eye(3), np.zeros((2, 4, 5)), np.eye(4) / 4.0):
        with pytest.raises(ValidationError, match="shape"):
            batch.measure_rows(bad)
    with pytest.raises(ValueError):  # not convertible to complex at all
        batch.measure_rows("not a matrix")


def test_spin_flip_matrices_matches_kron_form():
    sy = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    y = np.kron(sy, sy)
    rhos = random_rhos(5, 8)
    flipped = batch.spin_flip_matrices(rhos)
    for i in range(8):
        assert np.array_equal(flipped[i], y @ rhos[i].conj() @ y)


@pytest.mark.parametrize("bad, error", [
    (np.diag([np.nan, 0.5, 0.25, 0.25]), ValidationError),
    # upper-triangular with trace 1: was measured as C = S = 0
    (np.triu(np.ones((4, 4))) / 4.0, NotHermitian),
    # I/2: was measured as purity 1.0
    (np.eye(4) / 2.0, TraceNotOne),
    (np.diag([1.5, -0.5, 0.0, 0.0]), NotPSD),
], ids=["nan", "upper-triangular", "half-identity", "negative-eigenvalue"])
def test_measure_rows_rejects_invalid_matrices(bad, error):
    rhos = random_rhos(9, 6)
    rhos[4] = bad
    with pytest.raises(error, match="at index 4$") as err:
        batch.measure_rows(rhos)
    assert type(err.value) is error


def _solves(monkeypatch, call):
    """The (solver, matrix size) of each eigh/eigvalsh call that call() makes."""
    solves = []
    for name in ("eigh", "eigvalsh"):
        orig = getattr(np.linalg, name)

        def counted(a, *args, _name=name, _orig=orig, **kwargs):
            solves.append((_name, a.shape[-1]))
            return _orig(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    call()
    return solves


def test_measure_rows_takes_psd_from_its_own_eigh(monkeypatch):
    solves = _solves(monkeypatch, lambda: batch.measure_rows(random_rhos(10, 50)))
    # one 4x4 eigh for the whole stack; the only eigvalsh is the 3x3 T^T T
    assert sorted(solves) == [("eigh", 4), ("eigvalsh", 3)]


def test_scalar_on_raw_array_validates_once(monkeypatch):
    # the raw array goes straight to measure_rows, with no 4x4 eigvalsh before it
    solves = _solves(monkeypatch, lambda: measures.purity(random_rhos(12, 1)[0]))
    assert solves == [("eigh", 4), ("eigvalsh", 3)]
