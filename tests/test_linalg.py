import numpy as np
import pytest

from qsteer import linalg
from qsteer.errors import DimensionUnsupported, NotHermitian, NotPSD

from conftest import FORMS


def random_hermitian(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (z + z.conj().T) / 2.0


def random_psd(rng, n, rank=None):
    k = rank or n
    g = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    return g @ g.conj().T


def test_frobenius():
    m = np.array([[3.0, 0.0], [0.0, 4.0j]])
    assert linalg.frobenius(m) == pytest.approx(5.0, abs=1e-15)


@pytest.mark.parametrize("form", ["numpy", "list"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_hermitian_eigenvalues_match_lapack(form, n):
    rng = np.random.default_rng(42)
    for _ in range(50):
        h = random_hermitian(rng, n)
        w = linalg.hermitian_eigenvalues(FORMS[form](h))
        ref = np.linalg.eigvalsh(h)[::-1]
        assert np.all(np.diff(w) <= 1e-12)
        assert np.abs(w - ref).max() < 1e-12


@pytest.mark.parametrize("form", ["numpy", "list"])
def test_hermitian_eigenvectors_reconstruct(form):
    rng = np.random.default_rng(7)
    for _ in range(50):
        h = random_hermitian(rng, 4)
        w, v = linalg.hermitian_eigenvalues(FORMS[form](h), vectors=True)
        assert np.abs(v.conj().T @ v - np.eye(4)).max() < 1e-12
        assert np.abs((v * w) @ v.conj().T - h).max() < 1e-12


def test_hermitian_eigenvalues_rejects_non_hermitian():
    m = np.array([[0.0, 1.0], [0.0, 0.0]], np.complex128)
    with pytest.raises(NotHermitian):
        linalg.hermitian_eigenvalues(m)


def test_dimension_checks():
    with pytest.raises(DimensionUnsupported):
        linalg.hermitian_eigenvalues(np.eye(5))
    with pytest.raises(DimensionUnsupported):
        linalg.hermitian_eigenvalues(np.ones((2, 3)))
    with pytest.raises(DimensionUnsupported):
        linalg.hermitian_eigenvalues(np.eye(1))


@pytest.mark.parametrize("form", ["numpy", "list"])
def test_psd_sqrt_squares_back(form):
    rng = np.random.default_rng(3)
    for rank in (1, 2, 3, 4):
        m = random_psd(rng, 4, rank)
        r = linalg.psd_sqrt(FORMS[form](m))
        assert np.abs(r - r.conj().T).max() < 1e-13
        assert np.abs(r @ r - m).max() < 1e-11
        assert np.linalg.eigvalsh(r)[0] > -1e-12


def test_psd_sqrt_clamps_small_negatives():
    m = np.diag([1.0, 0.5, 0.0, -5e-11]).astype(np.complex128)
    r = linalg.psd_sqrt(m)
    assert np.abs(r @ r - np.diag([1.0, 0.5, 0.0, 0.0])).max() < 1e-10


def test_psd_sqrt_rejects_indefinite():
    m = np.diag([1.0, 0.5, 0.0, -1e-3]).astype(np.complex128)
    with pytest.raises(NotPSD):
        linalg.psd_sqrt(m)


def test_kron_matches_numpy():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    assert np.array_equal(linalg.kron(a, b), np.kron(a, b))
    with pytest.raises(DimensionUnsupported):
        linalg.kron(np.eye(3), np.eye(2))


def test_partial_trace_of_product_state():
    a = np.array([[0.7, 0.1j], [-0.1j, 0.3]], np.complex128)
    b = np.array([[0.4, 0.2], [0.2, 0.6]], np.complex128)
    rho = np.kron(a, b)
    assert np.abs(linalg.partial_trace(rho, "A") - a).max() < 1e-15
    assert np.abs(linalg.partial_trace(rho, "B") - b).max() < 1e-15


def test_partial_trace_of_bell_state():
    psi = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    rho = np.outer(psi, psi)
    for keep in ("A", "B"):
        assert np.abs(linalg.partial_trace(rho, keep) - np.eye(2) / 2.0).max() < 1e-15
    with pytest.raises(ValueError):
        linalg.partial_trace(rho, "C")


@pytest.mark.parametrize("form", ["numpy", "list"])
def test_sym3_eigenvalues(form):
    rng = np.random.default_rng(17)
    for _ in range(20):
        t = rng.standard_normal((3, 3))
        m = t.T @ t
        w = linalg.sym3_eigenvalues(FORMS[form](m))
        assert np.abs(w - np.linalg.eigvalsh(m)[::-1]).max() < 1e-11


def test_sym3_rejects_asymmetric():
    m = np.arange(9.0).reshape(3, 3)
    with pytest.raises(NotHermitian):
        linalg.sym3_eigenvalues(m)
