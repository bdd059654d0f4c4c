import itertools

import numpy as np
import pytest

from qsteer import batch, measures, states
from qsteer.errors import (
    NotHermitian,
    NotNormalized,
    NotPSD,
    NotRealizable,
    ParameterOutOfRange,
    TraceNotOne,
    ValidationError,
)

from conftest import FORMS

SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
YY = np.kron(SY, SY)

# frozen spot values
SQRT3_OVER_2 = 0.8660254037844386
WERNER_08_S = 0.6782329983125268
WERNER_08_F = 1.3856406460551018
WERNER_08_Q = 1.104536101718726
WERNER_08_LOWER = 0.469041575982343


def random_mixed(rng, rank=None):
    k = rank or (1 + int(rng.integers(4)))
    g = rng.standard_normal((4, k)) + 1j * rng.standard_normal((4, k))
    m = g @ g.conj().T
    return m / m.trace().real


def haar_pure(rng):
    z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    return z / np.sqrt((z * z.conj()).real.sum())


def concurrence_oracle(rho):
    # direct non-Hermitian route: eigenvalues of rho * flip(rho)
    flip = YY @ rho.conj() @ YY
    lam = np.linalg.eigvals(rho @ flip).real
    lam = np.sqrt(np.clip(lam, 0.0, None))[np.argsort(-lam)]
    return max(0.0, 2.0 * lam[0] - lam.sum())


def test_concurrence_pure_spot_values():
    assert measures.concurrence_pure(states.bell_like(np.pi / 4)) == pytest.approx(1.0, abs=1e-15)
    assert measures.concurrence_pure(states.bell_like(np.pi / 6)) == pytest.approx(
        SQRT3_OVER_2, abs=1e-15
    )
    product = np.array([0.0, 1.0, 0.0, 0.0])
    assert measures.concurrence_pure(product) == 0.0
    with pytest.raises(NotNormalized):
        measures.concurrence_pure(np.array([1.0, 1.0, 0.0, 0.0]))


@pytest.mark.parametrize("fn", [measures.concurrence_pure,
                                lambda a: measures.wu_closed_forms(0.5, a)],
                         ids=["concurrence_pure", "wu_closed_forms"])
def test_raw_vectors_name_the_failed_invariant(fn):
    # a NaN vector used to give nan, a length-3 one a bare numpy ValueError
    with pytest.raises(ValidationError, match="non-finite"):
        fn(np.array([np.nan, 0.0, 0.0, 1.0]))
    with pytest.raises(ValidationError, match="shape"):
        fn(np.array([1.0, 0.0, 0.0]))
    with pytest.raises(NotNormalized):
        fn(np.array([1.0, 1.0, 0.0, 0.0]))


def test_concurrence_pure_matches_density_route():
    rng = np.random.default_rng(1)
    for _ in range(20):
        psi = haar_pure(rng)
        rho = np.outer(psi, psi.conj())
        assert measures.report(rho).concurrence == pytest.approx(
            measures.concurrence_pure(psi), abs=1e-12
        )


@pytest.mark.parametrize("form", ["numpy", "DensityMatrix"])
def test_concurrence_against_non_hermitian_oracle(form):
    rng = np.random.default_rng(2)
    for _ in range(30):
        rho = random_mixed(rng)
        c = measures.report(FORMS[form](rho)).concurrence
        assert c == pytest.approx(concurrence_oracle(rho), abs=1e-7)


def test_concurrence_werner_threshold_values():
    phi = states.bell_like(np.pi / 4)
    half = measures.report(states.werner_like(0.5, phi))
    assert half.concurrence == pytest.approx(0.25, abs=1e-12)
    assert measures.report(states.werner_like(0.2, phi)).concurrence == 0.0
    assert measures.report(np.eye(4) / 4.0).concurrence == 0.0


def correlation_matrix(rho):
    """T[m, n] = Re tr(rho (sigma_m x sigma_n)) of one state, by the stack
    route on a validated stack of one."""
    m = rho.matrix if isinstance(rho, states.DensityMatrix) else rho
    return batch.correlation_matrices(states.validate_stack(np.asarray(m)[None])[0])[0]


def test_correlation_matrix_against_trace_loops():
    rng = np.random.default_rng(3)
    rho = random_mixed(rng)
    t = correlation_matrix(rho)
    for m, n in itertools.product(range(3), range(3)):
        direct = np.trace(rho @ np.kron(batch.SIGMA[m], batch.SIGMA[n])).real
        assert t[m, n] == pytest.approx(direct, abs=1e-13)


def test_correlation_matrix_of_bell_state():
    psi = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    t = correlation_matrix(np.outer(psi, psi))
    assert np.abs(t - np.diag([1.0, -1.0, 1.0])).max() < 1e-14


def test_correlation_matrix_of_product_state():
    rho = np.diag([0.0, 1.0, 0.0, 0.0]).astype(complex)  # |01><01|
    t = correlation_matrix(rho)
    assert np.abs(t - np.diag([0.0, 0.0, -1.0])).max() < 1e-14
    rep = measures.report(rho)
    assert rep.f_value == pytest.approx(1.0, abs=1e-14)
    assert rep.steerability == 0.0


@pytest.mark.parametrize("form", ["numpy", "DensityMatrix"])
def test_f_value_equals_singular_value_route(form):
    rng = np.random.default_rng(4)
    for _ in range(25):
        rep = measures.report(FORMS[form](random_mixed(rng)))
        sv = np.array(rep.singular_values)
        assert np.all(np.diff(sv) <= 1e-12)
        assert rep.f_value == pytest.approx(
            float(np.sqrt((sv * sv).sum())), abs=1e-10
        )


@pytest.mark.parametrize("weights, exact", [
    ((0.0, 0.0, 1.0), (1.0, 0.0, 0.0)),  # (|00><00| + |11><11|)/2
    ((0.5, 0.3, 0.0), (0.5, 0.3, 0.0)),
], ids=["rank-1-T", "rank-2-T"])
def test_report_singular_values_are_eps_accurate_at_zero(weights, exact):
    # rho = (I + sum_m w_m sigma_m x sigma_m)/4 has T = diag(w); a local
    # unitary rotates T and keeps its singular values.  One SVD of T gives
    # each t within a few eps, also a zero one, whose square root of an
    # eigenvalue of T^T T would be off by about sqrt(eps)
    rng = np.random.default_rng(10)
    ua, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    ub, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    u = np.kron(ua, ub)
    rho = (np.eye(4) + sum(w * np.kron(s, s) for w, s in zip(weights, batch.SIGMA))) / 4.0
    tsv = np.array(measures.report(u @ rho @ u.conj().T).singular_values)
    assert np.abs(tsv - exact).max() <= 4.0 * np.finfo(float).eps


def test_purity_and_coherence_spot_values():
    assert measures.report(np.eye(4) / 4.0).purity == pytest.approx(0.25, abs=1e-15)

    def coherence_a(diag):  # D of qubit A in diag(...) x I/2
        return measures.report(np.kron(np.diag(diag), np.eye(2) / 2.0)).coherence_a

    assert coherence_a([0.75, 0.25]) == pytest.approx(0.5, abs=1e-15)
    assert coherence_a([0.5, 0.5]) == 0.0
    assert coherence_a([1.0, 0.0]) == pytest.approx(1.0, abs=1e-15)


def test_coherence_matches_bloch_vector_length():
    rng = np.random.default_rng(5)
    rho = random_mixed(rng)
    ra = np.einsum("abcb->ac", rho.reshape(2, 2, 2, 2))
    from qsteer.batch import SIGMA

    bloch = np.array([np.trace(ra @ SIGMA[i]).real for i in range(3)])
    assert measures.report(rho).coherence_a == pytest.approx(
        float(np.linalg.norm(bloch)), abs=1e-12
    )


# the Bell basis Phi+, Phi-, Psi+, Psi-, one state per row
BELL = np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]]) / np.sqrt(2.0)


def test_bell_diagonal_states_have_no_coherence():
    # both marginals of a Bell-diagonal state are I/2; the coherences once
    # read up to 2.1e-8 here, the square root of a rounding error of 2 tr(rho_A^2) - 1
    weights = np.random.default_rng(21).dirichlet(np.ones(4), size=20_000)
    factors = BELL.T[None] * np.sqrt(weights)[:, None, :]
    for rows in (batch.measure_rows(states.gram(factors)), batch.measure_factors(factors)):
        worst = rows[:, [batch.COL_DA, batch.COL_DB]].max()
        assert worst <= 1e-14, worst


@pytest.mark.parametrize("form", ["numpy", "DensityMatrix"])
def test_pure_state_identities(form):
    # S = C, F^2 = 1 + 2C^2, C^2 + D^2 = 1, D_A = D_B
    rng = np.random.default_rng(6)
    for _ in range(20):
        psi = haar_pure(rng)
        rep = measures.report(FORMS[form](np.outer(psi, psi.conj())))
        assert rep.steerability == pytest.approx(rep.concurrence, abs=1e-12)
        assert rep.f_value**2 == pytest.approx(1.0 + 2.0 * rep.concurrence**2, abs=1e-12)
        assert rep.concurrence**2 + rep.coherence_a**2 == pytest.approx(1.0, abs=1e-12)
        assert rep.coherence_a == pytest.approx(rep.coherence_b, abs=1e-12)


@pytest.mark.parametrize("form", ["numpy", "DensityMatrix"])
def test_mixed_state_identities(form):
    # (1 + D_A^2 + D_B^2 + F^2)/4 = purity, (D_A^2 + D_B^2)/2 + C^2 <= purity,
    # F^2 <= 4 purity - 1
    rng = np.random.default_rng(7)
    for _ in range(40):
        rep = measures.report(FORMS[form](random_mixed(rng)))
        lhs = (1.0 + rep.coherence_a**2 + rep.coherence_b**2 + rep.f_value**2) / 4.0
        assert lhs == pytest.approx(rep.purity, abs=1e-12)
        assert (rep.coherence_a**2 + rep.coherence_b**2) / 2.0 + rep.concurrence**2 \
            <= rep.purity + 1e-12
        assert rep.f_value**2 <= 4.0 * rep.purity - 1.0 + 1e-12


def test_t_state_saturates_f_bound():
    # Bell-diagonal states have zero Bloch vectors and F^2 = 4 purity - 1
    rng = np.random.default_rng(8)
    bells = np.array(
        [
            [1.0, 0.0, 0.0, 1.0],
            [1.0, 0.0, 0.0, -1.0],
            [0.0, 1.0, 1.0, 0.0],
            [0.0, 1.0, -1.0, 0.0],
        ]
    ) / np.sqrt(2.0)
    for _ in range(10):
        w = rng.dirichlet(np.ones(4))
        rho = sum(w[i] * np.outer(bells[i], bells[i]) for i in range(4))
        rep = measures.report(rho)
        assert rep.coherence_a == 0.0 and rep.coherence_b == 0.0
        assert rep.f_value**2 == pytest.approx(4.0 * rep.purity - 1.0, abs=1e-12)


def test_local_unitaries_leave_measures_alone():
    rng = np.random.default_rng(9)
    rho = random_mixed(rng, rank=3)
    base = measures.report(rho)
    for _ in range(5):
        za = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        zb = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        ua, _ = np.linalg.qr(za)
        ub, _ = np.linalg.qr(zb)
        u = np.kron(ua, ub)
        rep = measures.report(u @ rho @ u.conj().T)
        for name in ("concurrence", "f_value", "steerability", "purity",
                      "coherence_a", "coherence_b"):
            assert getattr(rep, name) == pytest.approx(getattr(base, name), abs=1e-9)


def test_werner_08_report_spot_values():
    rho = states.werner_like(0.8, states.bell_like(np.pi / 4))
    rep = measures.report(rho)
    assert rep.concurrence == pytest.approx(0.7, abs=1e-12)
    assert rep.steerability == pytest.approx(WERNER_08_S, abs=1e-12)
    assert rep.f_value == pytest.approx(WERNER_08_F, abs=1e-12)
    assert rep.purity == pytest.approx(0.73, abs=1e-12)
    assert rep.q_value == pytest.approx(WERNER_08_Q, abs=1e-12)
    # cos(pi/4)^2 and sin(pi/4)^2 differ in the last bit, so the stored
    # marginals sit that far from I/2: D is that difference, exactly
    m = rho.matrix
    gap = abs(((m[0, 0] + m[1, 1]) - (m[2, 2] + m[3, 3])).real)
    assert 0.0 < gap <= np.finfo(float).eps
    assert rep.coherence_a == rep.coherence_b == gap
    assert rep.lower_bound == pytest.approx(WERNER_08_LOWER, abs=1e-12)
    # this family sits exactly on the upper bound
    assert rep.upper_bound == pytest.approx(rep.steerability, abs=1e-12)
    assert rep.classification == "steerable"


def test_classification_of_unsteerable_entangled_state():
    rho = states.werner_like(0.5, states.bell_like(np.pi / 4))
    rep = measures.report(rho)
    assert rep.concurrence == pytest.approx(0.25, abs=1e-12)
    assert rep.steerability == 0.0
    assert rep.classification == "entangled-unsteerable-by-F"
    assert measures.report(np.eye(4) / 4.0).classification == "separable-candidate"


INVALID_MATRICES = [
    (np.triu(np.ones((4, 4))) / 4.0, NotHermitian),
    (np.eye(4) / 2.0, TraceNotOne),
    (np.diag([0.5, 0.5, 0.5, -0.5]), NotPSD),
    (np.full((4, 4), np.nan), ValidationError),
    # stacks of states: measure_rows alone would measure the valid one row by row
    (np.zeros((2, 4, 4)), ValidationError),
    (np.stack([np.eye(4) / 4.0] * 2), ValidationError),
]


@pytest.mark.parametrize("fn", [measures.report])
def test_raw_arrays_name_the_failed_invariant(fn):
    for m, error in INVALID_MATRICES:
        with pytest.raises(error):
            fn(m)


def test_bounds_match_report_columns():
    rng = np.random.default_rng(10)
    rho = random_mixed(rng)
    rep = measures.report(rho)
    assert rep.lower_bound == pytest.approx(
        float(np.sqrt(max(0.0, rep.concurrence**2 + rep.purity - 1.0))), abs=1e-12
    )
    assert rep.upper_bound == pytest.approx(
        min(rep.concurrence, float(np.sqrt(max(0.0, 2.0 * rep.purity - 1.0)))), abs=1e-12
    )
    assert rep.q_value == pytest.approx(
        float(np.sqrt(rep.concurrence**2 + rep.purity)), abs=1e-12
    )


def test_report_lam_are_flip_product_eigenvalues():
    rng = np.random.default_rng(11)
    rho = random_mixed(rng)
    rep = measures.report(rho)
    flip = YY @ rho.conj() @ YY
    lam = np.sort(np.linalg.eigvals(rho @ flip).real)[::-1]
    assert np.abs(np.array(rep.lam) - np.clip(lam, 0.0, None)).max() < 1e-7
    assert np.array(rep.singular_values).shape == (3,)


def test_ad_closed_forms_match_pipeline():
    for theta, eta in ((np.pi / 6, 0.36), (0.3, 0.0), (1.2, 0.8), (np.pi / 4, 1.0)):
        forms = measures.bad_closed_forms(theta, eta)
        # K0 = diag(1, sqrt(1 - eta)), K1 = sqrt(eta)|0><1|
        kraus = (np.diag([1.0, np.sqrt(1.0 - eta)]), [[0.0, np.sqrt(eta)], [0.0, 0.0]])
        rho = states.apply_channel(states.density_from_pure(states.bell_like(theta)), kraus)
        rep = measures.report(rho)
        assert rep.concurrence == pytest.approx(forms.concurrence, abs=1e-10)
        assert rep.steerability == pytest.approx(forms.steerability, abs=1e-10)
        assert rep.f_value == pytest.approx(forms.f_value, abs=1e-10)
        assert rep.purity == pytest.approx(forms.purity, abs=1e-12)


def test_ad_closed_forms_spot_values():
    forms = measures.bad_closed_forms(np.pi / 6, 0.36)
    assert forms.concurrence == pytest.approx(0.6928203230275509, abs=1e-15)
    assert forms.purity == pytest.approx(0.8362000000000002, abs=1e-15)
    assert forms.steerability == pytest.approx(0.5623166367803821, abs=1e-15)
    assert forms.f_value == pytest.approx(1.2776541002947552, abs=1e-15)
    clean = measures.bad_closed_forms(0.7, 0.0)
    assert clean.concurrence == pytest.approx(np.sin(1.4), abs=1e-15)
    assert clean.purity == pytest.approx(1.0, abs=1e-15)
    assert clean.steerability == pytest.approx(clean.concurrence, abs=1e-15)
    with pytest.raises(ParameterOutOfRange):
        measures.bad_closed_forms(0.0, 0.5)
    with pytest.raises(ParameterOutOfRange):
        measures.bad_closed_forms(0.5, 1.5)


def test_pd_closed_forms_match_pipeline():
    for theta, eta in ((np.pi / 6, 0.36), (0.3, 0.0), (1.2, 0.8), (np.pi / 4, 1.0)):
        forms = measures.bpd_closed_forms(theta, eta)
        # K0 = diag(1, sqrt(1 - eta)), K1 = sqrt(eta)|1><1|
        kraus = (np.diag([1.0, np.sqrt(1.0 - eta)]), np.diag([0.0, np.sqrt(eta)]))
        rho = states.apply_channel(states.density_from_pure(states.bell_like(theta)), kraus)
        rep = measures.report(rho)
        assert rep.concurrence == pytest.approx(forms.concurrence, abs=1e-10)
        assert rep.steerability == pytest.approx(forms.concurrence, abs=1e-10)
        assert rep.f_value == pytest.approx(forms.f_value, abs=1e-10)
        assert rep.purity == pytest.approx(forms.purity, abs=1e-12)
        t = correlation_matrix(rho)
        c = forms.concurrence
        assert np.abs(t - np.diag([c, -c, 1.0])).max() < 1e-10


def test_pd_closed_forms_spot_values():
    forms = measures.bpd_closed_forms(np.pi / 4, 1.0)
    assert forms.concurrence == 0.0
    assert forms.steerability == 0.0
    assert forms.purity == pytest.approx(0.5, abs=1e-15)
    assert forms.f_value == pytest.approx(1.0, abs=1e-15)


def test_wu_closed_forms_match_pipeline():
    u = states.random_unitary(5, 0)
    phi = states.PureState(u @ states.bell_like(0.6).amplitudes)
    for p in (0.0, 0.35, 0.8, 1.0):
        forms = measures.wu_closed_forms(p, phi)
        rep = measures.report(states.werner_like(p, phi))
        assert rep.concurrence == pytest.approx(forms.concurrence, abs=1e-10)
        assert rep.steerability == pytest.approx(forms.steerability, abs=1e-10)
        assert rep.f_value == pytest.approx(forms.f_value, abs=1e-10)
        assert rep.purity == pytest.approx(forms.purity, abs=1e-12)
    with pytest.raises(ParameterOutOfRange):
        measures.wu_closed_forms(1.0001, phi)


def test_wu_steering_margin_over_arrays_matches_scalar_calls():
    concs = np.linspace(0.0, 1.0, 7)
    purs = np.linspace(0.25, 1.0, 5)
    grid = measures.wu_steering_margin(concs[None, :], purs[:, None])
    assert grid.shape == (5, 7)
    for i, u in enumerate(purs):
        for j, c in enumerate(concs):
            scalar = measures.wu_steering_margin(float(c), float(u))
            assert isinstance(scalar, float)
            assert grid[i, j] == scalar


def test_wu_steerability_from_c_purity():
    assert measures.wu_steerability_from_c_purity(0.0, 0.25) == 0.0
    assert measures.wu_steerability_from_c_purity(0.7, 0.73) == pytest.approx(
        WERNER_08_S, abs=1e-12
    )
    with pytest.raises(NotRealizable):
        measures.wu_steerability_from_c_purity(0.5, 0.25)
    with pytest.raises(NotRealizable):
        measures.wu_steerability_from_c_purity(0.95, 0.9)
    with pytest.raises(NotRealizable):
        measures.wu_steerability_from_c_purity(0.1, 0.1)
    with pytest.raises(NotRealizable):
        measures.wu_steerability_from_c_purity(-0.5, 0.5)


@pytest.mark.parametrize("conc, pur, named", [
    ([0.1, 0.2], [0.9, 0.9], r"got shapes \(2,\) and \(2,\)$"),
    (np.array([0.1]), 0.9, r"got shapes \(1,\) and \(\)$"),
    (0.1, np.full((1, 1), 0.9), r"got shapes \(\) and \(1, 1\)$"),
])
def test_wu_steerability_from_c_purity_takes_numbers_only(conc, pur, named):
    with pytest.raises(ParameterOutOfRange, match=named):
        measures.wu_steerability_from_c_purity(conc, pur)


@pytest.mark.parametrize("conc, pur, named", [
    ([[0.1], [0.1, 0.2]], 0.5, "concurrence"),
    (0.1, [[0.5], [0.5, 0.6]], "purity"),
], ids=["ragged-concurrence", "ragged-purity"])
@pytest.mark.parametrize("fn", [measures.wu_steering_margin,
                                measures.wu_steerability_from_c_purity],
                         ids=["margin", "steerability"])
def test_c_purity_entries_reject_a_ragged_nesting(fn, conc, pur, named):
    # ValidationError naming the argument, not numpy's ValueError
    with pytest.raises(ValidationError, match=f"^{named} must be an array of numbers"):
        fn(conc, pur)


RAGGED = [[0.1], [0.1, 0.2]]
PHI = [[1.0, 0.0, 0.0, 0.0]]


@pytest.mark.parametrize("call, named", [
    (lambda: measures.bad_closed_forms(RAGGED, 0.1), "theta"),
    (lambda: measures.bad_closed_forms(0.1, RAGGED), "eta"),
    (lambda: measures.bpd_closed_forms(RAGGED, 0.1), "theta"),
    (lambda: measures.bpd_closed_forms(0.1, RAGGED), "eta"),
    (lambda: measures.wu_closed_forms(RAGGED, PHI), "p"),
    (lambda: states.werner_factors(RAGGED, PHI), "p"),
    (lambda: states.bell_like_amplitudes(RAGGED), "theta"),
    (lambda: states.damping_operators(RAGGED, 0), "eta"),
    (lambda: states.damping_operators(RAGGED, 1), "eta"),
], ids=["bad-theta", "bad-eta", "bpd-theta", "bpd-eta", "wu-p", "werner-p",
        "bell-like-theta", "ad-eta", "pd-eta"])
def test_range_checked_entries_reject_a_ragged_nesting(call, named):
    # _check_range converts theta, eta and p as the (C, purity) entries do
    with pytest.raises(ValidationError, match=f"^{named} must be an array of numbers"):
        call()


@pytest.mark.parametrize("conc, pur, named", [
    (np.nan, 0.5, "concurrence nan"),
    (0.5, np.nan, "purity nan"),
    (2.0, 5.0, "purity 5.0"),
    (2.0, 0.5, "concurrence 2.0"),
    (-1e-9, 0.5, "concurrence -1e-09"),
    (0.5, 0.25 - 1e-9, "purity 0.249999999"),
    (np.inf, 1.0, "concurrence inf"),
])
def test_wu_steering_margin_rejects_a_point_off_the_box(conc, pur, named):
    # (C, purity) must lie in [0, 1] x [1/4, 1] within RANGE_TOL, as a scalar
    # pair, inside an array, and on the route through the closed form
    grid = np.linspace(0.25, 1.0, 4)
    for call in (lambda: measures.wu_steering_margin(conc, pur),
                 lambda: measures.wu_steering_margin(np.append(grid / 2, conc),
                                                     np.append(grid, pur)),
                 lambda: measures.wu_steerability_from_c_purity(conc, pur)):
        with pytest.raises(NotRealizable, match=named):
            call()
    edge = states.RANGE_TOL / 2
    assert np.isfinite(measures.wu_steering_margin(-edge, 1.0 + edge))


def test_wu_steering_margin_sign():
    assert measures.wu_steering_margin(0.7, 0.73) == pytest.approx(0.46, abs=1e-12)
    assert measures.wu_steering_margin(0.25, 0.4375) < 0.0  # werner p = 0.5
    assert measures.wu_steering_margin(0.0, 0.25) < 0.0
