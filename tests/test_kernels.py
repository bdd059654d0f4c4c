import numpy as np
import pytest

from qsteer import batch

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
    rho = FORMS[form](np.eye(4, dtype=np.complex128) / 4.0)
    rows = batch.measure_rows(rho)
    assert rows.shape == (1, batch.N_COLS)
    assert rows[0, batch.COL_PURITY] == pytest.approx(0.25, abs=1e-15)
    assert rows[0, batch.COL_C] == 0.0
    assert rows[0, batch.COL_S] == 0.0


def test_measure_rows_rejects_bad_shapes():
    with pytest.raises(ValueError):
        batch.measure_rows(np.eye(3, dtype=np.complex128))
    with pytest.raises(ValueError):
        batch.measure_rows(np.zeros((2, 4, 5), np.complex128))
    with pytest.raises(ValueError):
        batch.measure_rows("not a matrix")


def test_spin_flip_matrices_matches_kron_form():
    sy = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    y = np.kron(sy, sy)
    rhos = random_rhos(5, 8)
    flipped = batch.spin_flip_matrices(rhos)
    for i in range(8):
        assert np.array_equal(flipped[i], y @ rhos[i].conj() @ y)
