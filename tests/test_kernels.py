import numpy as np
import pytest

from qsteer import batch, cli, harness, measures, states
from qsteer.errors import (
    ChannelIncomplete,
    NotHermitian,
    NotNormalized,
    NotPSD,
    TraceNotOne,
    ValidationError,
)

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


# a state for apply_channel, whose Kraus operators are the array entry
BELL = states.density_from_pure(states.bell_like(np.pi / 4))

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
    "apply_channel": (lambda k: states.apply_channel(BELL, (k,)), (2, 2)),
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


# each entry that validates one density matrix, as it takes the matrix
MATRIX_ENTRIES = {
    "validate_stack": lambda m: states.validate_stack(m[None]),
    "DensityMatrix": states.DensityMatrix,
    "measure_rows": lambda m: batch.measure_rows(m[None]),
}


# trace-1 diagonal plus off-diagonal entries of 1e308, Hermitian or not
PURE_00 = np.diag([1.0, 0.0, 0.0, 0.0])
UPPER = 1e308 * np.eye(4, k=1)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad, error, named", [
    # the trace is 0, but a plain sum of the diagonal overflows to NaN
    (np.diag([1e308, 1e308, -1e308, -1e308]), TraceNotOne, "trace deviates"),
    # (m + m^dag) / 2 would overflow; m / 2 + m^dag / 2 has eigenvalues near -1e308
    (PURE_00 + UPPER + UPPER.T, NotPSD, "positive semidefinite"),
    # m - m^dag overflows
    (PURE_00 + UPPER - UPPER.T, NotHermitian, "not Hermitian"),
], ids=["trace-nan", "hermitian-part", "hermitian-dev"])
@pytest.mark.parametrize("entry", MATRIX_ENTRIES)
def test_finite_matrices_that_overflow_name_their_invariant(entry, bad, error, named):
    # finite input: never numpy's ValueError, LinAlgError or a RuntimeWarning
    with pytest.raises(error, match=named) as err:
        MATRIX_ENTRIES[entry](bad)
    assert type(err.value) is error


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("entry", MATRIX_ENTRIES)
def test_an_overflowing_trace_reports_its_true_deviation(entry):
    # the diagonal's quarters sum to 0 where the diagonal itself overflows
    with pytest.raises(TraceNotOne, match=r"trace deviates from 1 by 1\.000e\+00 at index 0$"):
        MATRIX_ENTRIES[entry](np.diag([1e308, 1e308, -1e308, -1e308]))


def _edge(invariant, scale):
    """A matrix that breaks ``invariant`` by ``scale`` times its tolerance."""
    m = np.eye(4, dtype=complex) / 4.0
    if invariant == "psd":
        e = scale * states.EIG_TOL
        m = np.diag([0.5 + e, 0.5, 0.0, -e]).astype(complex)
    elif invariant == "hermitian":
        m[0, 1] += scale * states.HERM_TOL
    else:
        m[0, 0] += scale * states.TRACE_TOL
    return m


@pytest.mark.parametrize("invariant, error", [
    ("psd", NotPSD), ("hermitian", NotHermitian), ("trace", TraceNotOne)])
@pytest.mark.parametrize("entry", MATRIX_ENTRIES)
def test_tolerance_edges(entry, invariant, error):
    # half the tolerance inside passes, twice it outside fails
    MATRIX_ENTRIES[entry](_edge(invariant, 0.5))
    with pytest.raises(error) as err:
        MATRIX_ENTRIES[entry](_edge(invariant, 2.0))
    assert type(err.value) is error


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("fn, arg, error", [
    (states.validate_amplitudes, np.full((1, 4), 1e200), NotNormalized),
    (measures.concurrence_pure, np.full(4, 1e200), NotNormalized),
    (lambda a: states.werner_factors(0.5, a), np.full((1, 4), 1e200), NotNormalized),
    (batch.measure_factors, np.full((1, 4, 4), 1e200), TraceNotOne),
    (lambda k: states.apply_channel(BELL, (k,)), np.full((2, 2), 1e200), ChannelIncomplete),
], ids=["validate_amplitudes", "concurrence_pure", "werner_factors", "measure_factors",
        "apply_channel"])
def test_huge_finite_entries_fail_their_check_without_a_warning(fn, arg, error):
    # the norm or completeness sum overflows to inf, which the check rejects
    with pytest.raises(error) as err:
        fn(arg)
    assert type(err.value) is error


def _solves(monkeypatch, call, names=("eigh", "eigvalsh", "svd")):
    """The (solver, matrix size) of each call that call() makes to the
    np.linalg solvers ``names``, each on a stack of square matrices."""
    solves = []
    for name in names:
        orig = getattr(np.linalg, name)

        def counted(a, *args, _name=name, _orig=orig, **kwargs):
            assert a.shape[-2] == a.shape[-1], (_name, a.shape)
            solves.append((_name, a.shape[-1]))
            return _orig(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    call()
    return solves


def test_measure_rows_validates_then_solves_the_stack_once(monkeypatch):
    solves = _solves(monkeypatch, lambda: batch.measure_rows(random_rhos(10, 50)))
    # validate_stack's one 4x4 eigh gives both the PSD check and the factors
    # V sqrt(w); their eigenvalues ascend, so every factor has width 4 and
    # C takes one 4x4 SVD; F needs no singular values
    assert solves == [("eigh", 4), ("svd", 4)]


def test_scalar_on_raw_array_validates_once(monkeypatch):
    # the raw array goes straight to measure_rows, which validates and solves
    # it in one eigh and takes C from one 4x4 SVD; one 3x3 SVD of T gives the
    # report's correlation singular values
    solves = _solves(monkeypatch, lambda: measures.report(random_rhos(12, 1)[0]).purity)
    assert solves == [("eigh", 4), ("svd", 4), ("svd", 3)]


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
    # the flip SVDs are counted by test_each_width_takes_one_svd_of_its_own_size
    cfg = states.SamplerConfig(seed=9, count=2 * harness.CHUNK + 5)
    eigensolvers = ("eigh", "eigvalsh")
    if command == "verify":
        solves = _solves(monkeypatch, lambda: harness.run_falsification(cfg, workers=1),
                         eigensolvers)
    else:
        solves = _solves(monkeypatch, lambda: harness.write_scatter_csv(
            tmp_path / "scatter.csv", cfg, workers=1), eigensolvers)
    assert solves == []


def mixed_width_factors(seed, n, m):
    """n random (4, m) factors of unit norm whose widths run through 1..m:
    row i keeps its first i % m + 1 columns."""
    x = random_factors(seed, n, m)
    x = np.where(np.arange(m) > (np.arange(n) % m)[:, None, None], 0.0, x)
    return x / np.sqrt((np.abs(x) ** 2).sum(axis=(1, 2)))[:, None, None]


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_each_row_depends_only_on_its_own_state(m):
    # a record measured in a chunk, on its own (analyze, report) or in any
    # other chunk gets the same bits: a kernel whose sums change order with
    # the stack's size or layout would move F and S of a lone record
    x = mixed_width_factors(13, 11, m)
    rhos = states.gram(x)
    stacked = (batch.measure_factors(x), batch.measure_rows(rhos), batch.correlation_matrices(rhos))
    for i in range(len(x)):
        alone = (batch.measure_factors(x[i : i + 1]), batch.measure_rows(rhos[i : i + 1]),
                 batch.correlation_matrices(rhos[i : i + 1]))
        for whole, one in zip(stacked, alone):
            assert np.array_equal(whole[i], one[0]), (i, whole[i], one[0])


def test_correlation_matrices_take_any_stack_layout():
    # a real stack and views that are not C-contiguous give T of the
    # Pauli-product einsum to the bit
    rhos = random_rhos(14, 12)
    for stack in (rhos, rhos.real, rhos[::2], rhos.transpose(0, 2, 1), np.asfortranarray(rhos)):
        want = np.einsum("kab,pba->kp", stack, batch.PAULI_PAIRS).real.reshape(-1, 3, 3)
        assert np.array_equal(batch.correlation_matrices(stack), want)


@pytest.mark.parametrize("ranks, widths", [
    ("uniform", [3, 4]), (1, []), (2, []), (4, [4]),
], ids=["uniform", "rank-1", "rank-2", "rank-4"])
def test_each_width_takes_one_svd_of_its_own_size(ranks, widths, monkeypatch):
    # two chunks: |tau| needs no SVD at width 1 nor the closed form at
    # width 2, and each width k > 2 present in a chunk takes one k x k SVD
    cfg = states.SamplerConfig(ranks=ranks, seed=9, count=2 * harness.CHUNK)
    svds = _solves(monkeypatch, lambda: harness.run_falsification(cfg, workers=1), ("svd",))
    assert svds == [("svd", k) for k in widths] * 2


def test_the_width_scan_reads_zeros_as_the_complex_comparison_does():
    # _widths ORs the float bits of each column: it must see a column that
    # is nonzero only in the imaginary part of one row, read -0.0 in either
    # part as zero and find the width k with zero columns after it, at every
    # k; k = 0 is a factor of zeros, which reads as width m
    m = 5
    signed_zeros = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]
    x, want = [], []
    for k in range(m + 1):
        for row in range(4):
            for zero in signed_zeros:
                for last in (5e-324j, 1j, complex(-0.0, -2.0)):
                    f = np.full((4, m), zero)
                    if k > 1:
                        f[:, : k - 1] = random_factors(k + row, 1, k - 1)[0]
                    if k:
                        f[row, k - 1] = last
                    x.append(f)
                    want.append(k or m)
    x = np.array(x)
    old = m - np.argmax((x != 0).any(axis=1)[:, ::-1], axis=1)
    assert batch._widths(x).tolist() == old.tolist() == want


PHI_PLUS = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
PHI_MINUS = np.array([1.0, 0.0, 0.0, -1.0]) / np.sqrt(2.0)


@pytest.mark.parametrize("eps", [1e-3, 1e-6, 1e-9, 1e-12, 0.0])
def test_concurrence_of_a_near_degenerate_bell_mixture(eps):
    # (1/2 + eps)|Phi+><Phi+| + (1/2 - eps)|Phi-><Phi-| has C = 2 eps: the
    # two flip-product singular values differ by 2 eps
    x = np.stack([np.sqrt(0.5 + eps) * PHI_PLUS, np.sqrt(0.5 - eps) * PHI_MINUS], axis=1)
    conc = batch.measure_factors(x[None])[0, batch.COL_C]
    assert abs(conc - 2.0 * eps) <= 1e-15, conc
    if eps == 0.0:
        assert conc == 0.0


@pytest.mark.parametrize("p", [1.0 / 3.0, 1.0 / np.sqrt(3.0)], ids=["C", "S"])
def test_werner_states_at_the_thresholds_match_the_closed_forms(p):
    # C turns on at p = 1/3 and S at p = 1/sqrt(3) for a Bell state; other
    # pure states shift the thresholds.  The 4 x 5 factors take a 5 x 5
    # SVD, but at p = 1 only column 0 is left: width 1, |tau|
    phis = np.vstack([PHI_PLUS, states.random_unitaries(5, 0, 20) @ PHI_PLUS])
    ps = np.array([p] * 21 + [0.0, 1.0])
    phis = np.vstack([phis, phis[:2]])
    rows = batch.measure_factors(states.werner_factors(ps, phis))
    closed = np.column_stack(measures.wu_closed_forms(ps, phis))
    num = rows[:, [batch.COL_C, batch.COL_S, batch.COL_F, batch.COL_PURITY]]
    # criterion 6's limits: 1e-8 for C, S and F, 1e-10 for the purity.  At
    # F = 1 the square root in S = sqrt((F^2 - 1) / 2) turns an eps of F^2
    # into 1e-8 of S, so S is compared through its square, as the property
    # tests compare it
    num[:, 1], closed[:, 1] = num[:, 1] ** 2, closed[:, 1] ** 2
    assert np.abs(num[:, :3] - closed[:, :3]).max() <= 1e-8
    assert np.abs(num[:, 3] - closed[:, 3]).max() <= 1e-10


BOUND_COLS = [batch.COL_S, batch.COL_LOWER, batch.COL_UPPER]


def _assert_bound_columns_are_the_table_columns(x):
    """bound_columns(x) holds the S, lower and upper bits of measure_factors(x):
    compared through int64 views, so that a zero of the other sign counts."""
    want = batch.measure_factors(x)[:, BOUND_COLS]
    got = np.column_stack(batch.bound_columns(x))
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _gap(x):
    """2P - 1 of each factor's state, as the measure table computes P."""
    return 2.0 * batch.measure_factors(x)[:, batch.COL_PURITY] - 1.0


@pytest.mark.parametrize("seed", [7, 11])
@pytest.mark.parametrize("ranks", ["uniform", 1, 2, 3, 4])
def test_bound_columns_equal_the_measure_table_at_each_rank(ranks, seed):
    x, _ = states.draw_matrices(states.SamplerConfig(ranks=ranks, seed=seed, count=4096), 0, 4096)
    _assert_bound_columns_are_the_table_columns(x)
    # rank-1 and rank-2 draws have purity >= 1/2; about a third of rank-3
    # and most rank-4 draws lie below the gate
    below = _gap(x) <= -states.GATE
    assert below.any() == (ranks not in (1, 2))


def test_bound_columns_at_the_werner_threshold():
    # at p = 1/sqrt(3) a Werner state of a Bell state has P = 1/2 and F = 1:
    # a few ulps of p either way cross both, inside the gate
    p = np.array([1.0 / np.sqrt(3.0)])
    for _ in range(4):
        p = np.concatenate([[np.nextafter(p[0], 0.0)], p, [np.nextafter(p[-1], 1.0)]])
    phis = np.vstack([PHI_PLUS, states.random_unitaries(6, 0, 3) @ PHI_PLUS])
    x = states.werner_factors(np.tile(p, len(phis)), np.repeat(phis, len(p), axis=0))
    gap = _gap(x)
    assert (gap < 0.0).any() and (gap > 0.0).any() and (np.abs(gap) < states.GATE).all()
    s = batch.measure_factors(x)[:, batch.COL_S]
    assert (s == 0.0).any() and (s > 0.0).any()
    _assert_bound_columns_are_the_table_columns(x)


def test_bound_columns_on_both_sides_of_the_gate():
    # Werner states of random pure states with 2P - 1 = delta for delta up to
    # a few GATE either side of 0: P = (1 + 3p^2) / 4
    deltas = np.array([-4.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]) * states.GATE
    phis = states.random_unitaries(8, 0, 10) @ PHI_PLUS
    p = np.sqrt((1.0 + 2.0 * deltas) / 3.0)
    x = states.werner_factors(np.repeat(p, len(phis)), np.tile(phis, (len(p), 1)))
    gap = _gap(x)
    assert (gap <= -states.GATE).any() and (gap > -states.GATE).any()
    _assert_bound_columns_are_the_table_columns(x)


def test_a_chunk_below_the_gate_takes_no_svd(monkeypatch):
    # stacks of I/4 (P = 1/4) and of Werner states with P = 7/16 have every
    # row below the gate, so the stack of flip SVDs is empty, as it is for
    # no rows at all
    mixed = np.tile(np.eye(4, dtype=complex) / 2.0, (3, 1, 1))
    werner = states.werner_factors(0.5, np.tile(PHI_PLUS, (3, 1)))
    for stack in (mixed, werner, mixed[:0]):
        assert (_gap(stack) <= -states.GATE).all()
        _assert_bound_columns_are_the_table_columns(stack)
        assert _solves(monkeypatch, lambda: batch.bound_columns(stack), ("svd",)) == []
        _, lower, upper = batch.bound_columns(stack)
        assert not lower.any() and not upper.any()


def test_verify_takes_the_4x4_svd_on_the_rows_above_the_gate_only(monkeypatch, capsys):
    # a --ranks 4 verify pass in this process: each chunk's one 4x4 SVD gets
    # exactly the rows with 2P - 1 > -GATE
    cfg = states.SamplerConfig(ranks=4, seed=7, count=2 * harness.CHUNK + 5)
    want = []
    for start in range(0, cfg.count, harness.CHUNK):
        x, _ = states.draw_matrices(cfg, start, min(start + harness.CHUNK, cfg.count))
        want.append(int((_gap(x) > -states.GATE).sum()))
    sizes = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        sizes.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    assert cli.main(["verify", "--count", str(cfg.count), "--seed", "7", "--ranks", "4",
                     "--workers", "1"]) == 0
    capsys.readouterr()
    # the last chunk's five rows all lie below the gate: it takes no SVD
    assert want[-1] == 0 and 0 < sum(want) < cfg.count / 2
    assert sizes == [(n, 4, 4) for n in want if n]
