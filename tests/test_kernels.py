import numpy as np
import pytest

from qsteer import batch, harness, measures, states
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
    with pytest.raises(ValidationError, match="numbers"):  # not convertible at all
        batch.measure_rows("not a matrix")


# each public array entry and the shape it takes
ARRAY_ENTRIES = {
    "measure_rows": (batch.measure_rows, (1, 4, 4)),
    "measure_factors": (batch.measure_factors, (1, 4, 4)),
    "validate_stack": (states.validate_stack, (1, 4, 4)),
    "validate_amplitudes": (states.validate_amplitudes, (1, 4)),
    "report": (measures.report, (4, 4)),
    "concurrence_pure": (measures.concurrence_pure, (1, 4)),
    "PureState": (states.PureState, (4,)),
    "DensityMatrix": (states.DensityMatrix, (4, 4)),
    "KrausChannel": (lambda k: states.KrausChannel((k,)), (2, 2)),
}


def _ragged(shape):
    rows = np.zeros(shape).tolist()
    if len(shape) == 1:
        return rows[:-1] + [[0.0, 0.0]]  # a pair where a number belongs
    return rows + [rows[-1][:-1]]  # one more item, one entry short


def _huge_integer(shape):
    rows = np.zeros(shape, int).tolist()
    first = rows
    while isinstance(first[0], list):
        first = first[0]
    first[0] = 10**400
    return rows


NOT_NUMBERS = {
    "strings": lambda shape: np.full(shape, "a"),
    "numeric-strings": lambda shape: np.full(shape, "0.25"),
    "ragged": _ragged,
    "huge-integer": _huge_integer,
}


@pytest.mark.parametrize("make", NOT_NUMBERS.values(), ids=NOT_NUMBERS.keys())
@pytest.mark.parametrize("entry", ARRAY_ENTRIES)
def test_array_entries_reject_input_that_is_not_numbers(entry, make):
    # not numpy's own ValueError or OverflowError
    fn, shape = ARRAY_ENTRIES[entry]
    with pytest.raises(ValidationError, match="must be an array of numbers"):
        fn(make(shape))


def test_report_names_the_shape_it_was_given():
    # the caller's shape, not that of the stack of one report builds
    with pytest.raises(ValidationError, match=r"got \(2, 4, 4\)$"):
        measures.report(np.zeros((2, 4, 4)))


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


def test_correlation_singular_values_match_svd():
    tmats = batch.correlation_matrices(random_rhos(11, 40))
    tsv = batch.correlation_singular_values(tmats)
    assert tsv.shape == (40, 3)
    assert (np.diff(tsv, axis=1) <= 0.0).all()
    assert np.allclose(tsv, np.linalg.svd(tmats, compute_uv=False), atol=1e-12)


def test_measure_rows_validates_then_solves_the_stack_once(monkeypatch):
    solves = _solves(monkeypatch, lambda: batch.measure_rows(random_rhos(10, 50)))
    # validate_stack's 4x4 eigvalsh, then one 4x4 eigh for the factors V sqrt(w);
    # F needs no singular values
    assert solves == [("eigvalsh", 4), ("eigh", 4)]


def test_scalar_on_raw_array_validates_once(monkeypatch):
    # the raw array goes straight to measure_rows, which validates and solves
    # it; the 3x3 eigvalsh gives the report's correlation singular values
    solves = _solves(monkeypatch, lambda: measures.report(random_rhos(12, 1)[0]).purity)
    assert solves == [("eigvalsh", 4), ("eigh", 4), ("eigvalsh", 3)]


def random_factors(seed, n, m=4):
    """n random (4, m) factors with ||x||_F = 1."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 4, m)) + 1j * rng.standard_normal((n, 4, m))
    return x / np.sqrt((np.abs(x) ** 2).sum(axis=(1, 2)))[:, None, None]


@pytest.mark.parametrize("bad, error", [
    (np.inf, ValidationError),
    (np.nan, ValidationError),
    (2.0, TraceNotOne),
    (1.0 + 1e-9, TraceNotOne),
], ids=["inf", "nan", "doubled", "just-too-long"])
def test_measure_factors_rejects_invalid_factors(bad, error):
    x = random_factors(3, 6)
    x[4] *= bad  # scales the whole factor, or fills it with inf or nan
    x[5] *= bad
    with pytest.raises(error, match="at index 4$") as err:
        batch.measure_factors(x)
    assert type(err.value) is error


def test_measure_factors_rejects_bad_shapes():
    for bad in (np.zeros((2, 3, 4)), np.zeros((2, 4, 0)), np.zeros((4, 4))):
        with pytest.raises(ValidationError, match="shape"):
            batch.measure_factors(bad)


@pytest.mark.parametrize("m", [1, 4, 5])
def test_measure_factors_takes_any_width(m):
    x = random_factors(4, 30, m)
    rows = batch.measure_factors(x)
    assert rows.shape == (30, batch.N_COLS)
    assert np.abs(rows - batch.measure_rows(states.gram(x))).max() <= 1e-12
    if m == 1:  # a pure state: C = |x^T (sigma_y x sigma_y) x| and S = C
        assert np.abs(rows[:, batch.COL_C] - measures.concurrence_pure(x[:, :, 0])).max() <= 1e-14
        assert not rows[:, batch.COL_L2 : batch.COL_L4 + 1].any()


def test_measure_rows_matches_the_factor_route_on_full_rank_draws():
    x, ranks = states.draw_matrices(states.SamplerConfig(ranks=4, seed=8, count=2000), 0, 2000)
    assert (ranks == 4).all()
    assert np.abs(batch.measure_rows(states.gram(x)) - batch.measure_factors(x)).max() <= 1e-12


@pytest.mark.parametrize("command", ["verify", "sample"])
def test_drawn_states_are_measured_with_no_eigensolver(command, monkeypatch, tmp_path):
    cfg = states.SamplerConfig(seed=9, count=2 * harness.CHUNK + 5)
    if command == "verify":
        solves = _solves(monkeypatch, lambda: harness.run_falsification(cfg, workers=1))
    else:
        solves = _solves(monkeypatch, lambda: harness.write_scatter_csv(
            tmp_path / "scatter.csv", cfg, workers=1))
    assert solves == []
