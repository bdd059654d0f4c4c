import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qsteer import batch, harness, measures, states
from qsteer.errors import ParameterOutOfRange, ValidationError

from conftest import AVX512_FEATURES, SIGMA_YY, __cpu_features__


def test_ad_sweep_small_grid():
    t = harness.run_family_sweep("ad", theta_steps=8, eta_steps=8)
    assert t.family == "ad"
    assert len(t.theta) == len(t.eta_or_p) == 64
    assert t.discrepancy.max() <= 1e-8
    # F on this family obeys F^2 = 2 C^2 + 2 purity - 1
    c, _, f, pur = t.closed.T
    assert f == pytest.approx(np.sqrt(2.0 * c**2 + 2.0 * pur - 1.0), abs=1e-12)


def test_pd_sweep_small_grid():
    t = harness.run_family_sweep("pd", theta_steps=8, eta_steps=8)
    assert t.family == "pd"
    assert len(t.theta) == len(t.eta_or_p) == 64
    c, s, f, _ = t.closed.T
    assert (s == c).all()
    assert t.discrepancy.max() <= 1e-8
    assert f == pytest.approx(np.sqrt(1.0 + 2.0 * c**2), abs=1e-12)


# the damped states are measured from their exact factors [(K0 x I) a, (K1 x I) a]:
# C within 4.4e-16 of its closed form on these grids (a 4x4 eigh read 7.8e-16
# to 1.1e-15), and S = C exactly on the pure states at eta = 0
@pytest.mark.parametrize("family", ["ad", "pd"])
@pytest.mark.parametrize("steps", [8, 50, 51])
def test_damped_sweeps_measure_c_to_the_last_bits(family, steps):
    t = harness.run_family_sweep(family, theta_steps=steps, eta_steps=steps)
    c_num, s_num = t.num[:, 0], t.num[:, 1]
    assert np.abs(c_num - t.closed[:, 0]).max() <= 5e-16
    pure = t.eta_or_p == 0.0
    assert np.abs(s_num[pure] - c_num[pure]).max() <= np.finfo(float).eps


def test_wu_sweep_matches_closed_forms():
    t = harness.run_family_sweep("wu", p_steps=30, seed=3)
    assert t.family == "wu"
    assert len(t.theta) == 30
    assert ((0.0 <= t.eta_or_p) & (t.eta_or_p <= 1.0)).all()
    assert ((0.05 <= t.theta) & (t.theta <= math.pi / 2.0 - 0.05)).all()
    assert t.discrepancy.max() <= 1e-8
    assert np.abs(t.num[:, 3] - t.closed[:, 3]).max() <= 1e-10
    # steerability is recoverable from (C, purity) alone
    for c_num, s_num, _, p_num in t.num.tolist():
        s43 = measures.wu_steerability_from_c_purity(c_num, p_num)
        assert abs(s43 - s_num) <= 1e-8


def test_wu_sweep_is_deterministic():
    def lines(seed):
        return list(harness.sweep_csv_lines(harness.run_family_sweep("wu", p_steps=10, seed=seed)))

    assert lines(12) == lines(12)
    assert lines(12) != lines(13)


def test_sweep_argument_validation():
    # an unknown or unhashable family names every family of the table
    for family in ("xy", ["ad"]):
        with pytest.raises(ParameterOutOfRange) as info:
            harness.run_family_sweep(family)
        assert all(repr(name) in str(info.value) for name in harness.FAMILIES)
    with pytest.raises(ParameterOutOfRange):
        harness.run_family_sweep("ad", theta_steps=1)
    with pytest.raises(ParameterOutOfRange):
        harness.run_family_sweep("wu", p_steps=1)


def test_boundary_concurrence_closed_form():
    # the criterion crosses zero exactly on the curve, and the curve meets
    # the realizability envelope at purity 1/2
    for p in (0.6, 0.75, 0.9, 1.0):
        c = harness._boundary_concurrence(p)
        pur = (1.0 + 3.0 * p * p) / 4.0
        assert measures.wu_steering_margin(c, pur) == pytest.approx(0.0, abs=1e-12)
    p0 = 1.0 / math.sqrt(3.0)
    meet = harness._boundary_concurrence(p0)
    assert meet == pytest.approx((math.sqrt(3.0) - 1.0) / 2.0, abs=1e-12)
    assert meet == pytest.approx((3.0 * p0 - 1.0) / 2.0, abs=1e-12)
    assert harness._boundary_concurrence(1.0) == pytest.approx(0.0, abs=1e-15)


def test_region_scan_known_cells():
    result = harness.run_region_scan(4, 5)
    assert result.regions.shape == (4, 5)
    table = {
        (round(u, 6), round(c, 6)): harness.REGION_LABELS[result.regions[i, j]]
        for i, u in enumerate(result.purities.tolist())
        for j, c in enumerate(result.concurrences.tolist())
    }
    assert len(table) == 20
    assert table[(0.25, 0.0)] == "separable-boundary"
    assert table[(0.25, 0.5)] == "unrealizable"
    assert table[(1.0, 0.0)] == "separable-boundary"
    assert table[(1.0, 0.25)] == "steerable"
    assert table[(1.0, 1.0)] == "steerable"
    assert table[(0.5, 0.25)] == "entangled-unknown"
    assert table[(0.5, 0.5)] == "unrealizable"


def test_region_scan_companion_series():
    result = harness.run_region_scan(7, 4)
    assert len(result.werner_envelope) == 7
    # envelope starts at C = 0 (maximally mixed) and ends at C = 1 (pure Bell)
    assert result.werner_envelope[0] == (0.25, 0.0)
    assert result.werner_envelope[-1][0] == 1.0
    assert result.werner_envelope[-1][1] == pytest.approx(1.0, abs=1e-12)
    # the criterion boundary only exists where steerable states are realizable
    assert all(u >= 0.5 - 1e-12 for u, _ in result.criterion_boundary)
    for u, c in result.criterion_boundary:
        p = math.sqrt((4.0 * u - 1.0) / 3.0)
        assert c == pytest.approx(harness._boundary_concurrence(p), abs=1e-15)
    with pytest.raises(ParameterOutOfRange):
        harness.run_region_scan(1, 5)


def test_region_scan_criterion_is_the_squared_steerability():
    # on p|phi><phi| + (1 - p)I/4 with phi = cos t|00> + sin t|11>, the
    # criterion's margin x + Q^2 - 1 is u^2 + (p^2 - 1)/2 = (F^2 - 1)/2 for
    # u = C + (1 - p)/2 = p sin 2t, so where it is positive it is S^2 and
    # elsewhere S = 0.  Every realizable entangled cell of the default grid,
    # each state built from factors and measured (max 3.5 eps measured)
    result = harness.run_region_scan(400, 400)
    labels = np.array(harness.REGION_LABELS)[result.regions]
    i, j = np.nonzero((labels == "steerable") | (labels == "entangled-unknown"))
    pur, conc = result.purities[i], result.concurrences[j]
    p, _ = measures.isotropic_envelope(pur)
    t = np.arcsin((conc + (1.0 - p) / 2.0) / p) / 2.0
    rows = batch.measure_factors(states.werner_factors(p, states.bell_like_amplitudes(t)))
    s = rows[:, batch.COL_S]
    margin = measures.wu_steering_margin(conc, pur)
    assert len(i) == 82560
    assert np.abs(np.maximum(margin, 0.0) - s * s).max() <= 8.0 * np.finfo(float).eps
    assert np.array_equal(labels[i, j] == "steerable", s > 0.0)
    assert np.count_nonzero(labels == "steerable") == 45049
    assert np.count_nonzero(labels == "entangled-unknown") == 37511


# at eta = 0 both damping channels are the identity, so each state is the
# pure cos t|00> + sin t|11>, which meets C^2 + max(D_A, D_B)^2 <= 1 with
# equality, within criterion 3's rank-1 limit (largest error 4.4e-16)
@pytest.mark.parametrize("row", [0, 1], ids=["ad", "pd"])
def test_damped_pure_points_meet_the_coherence_bound_with_equality(row):
    thetas = np.linspace(0.0, math.pi / 2.0, 202)[1:-1]
    kraus = states.damping_operators([0.0], row)
    x = states._kraus_factors(states.bell_like_amplitudes(thetas), kraus)
    rows = batch.measure_factors(x.reshape(-1, 4, x.shape[-1]))
    conc = rows[:, batch.COL_C]
    coherence = np.maximum(rows[:, batch.COL_DA], rows[:, batch.COL_DB])
    assert len(rows) == 200
    assert np.abs(1.0 - conc * conc - coherence * coherence).max() <= 3e-15


EPS = np.finfo(float).eps

# (columns on span{|00>, |11>}, columns on span{|01>, |10>}) of the X-state
# factors of each rank; every rank has states on both branches of C
X_SPLITS = {2: [(2, 0), (1, 1), (0, 2)], 3: [(2, 1), (1, 2)], 4: [(2, 2)]}


def _x_states(seed, n, k1, k2):
    """n random X states of rank k1 + k2 as (n, 4, k1 + k2) factors, with k1
    complex Gaussian columns on span{|00>, |11>} and k2 on span{|01>, |10>},
    that block weighted by a uniform factor, and their diagonal (a, b, c, d)
    and corner moduli z = |rho_03|, w = |rho_12|, summed from the factors."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, 4, k1 + k2)) + 1j * rng.standard_normal((n, 4, k1 + k2))
    g[:, :, k1:] *= rng.random((n, 1, 1))
    x = np.zeros_like(g)
    x[:, 0::3, :k1] = g[:, 0::3, :k1]
    x[:, 1:3, k1:] = g[:, 1:3, k1:]
    x /= np.sqrt(np.einsum("nij,nij->n", x, x.conj()).real)[:, None, None]
    diag = [np.einsum("nj,nj->n", x[:, i], x[:, i].conj()).real for i in range(4)]
    z = np.abs(np.einsum("nj,nj->n", x[:, 0], x[:, 3].conj()))
    w = np.abs(np.einsum("nj,nj->n", x[:, 1], x[:, 2].conj()))
    return x, (*diag, z, w)


@pytest.mark.parametrize("rank", sorted(X_SPLITS))
def test_x_closed_forms_match_the_measured_x_states(rank):
    # S is compared squared: near S = 0 its square root turns a few eps of
    # S^2 into about 70 eps of S (measured on 20000 states of rank 4)
    for k1, k2 in X_SPLITS[rank]:
        x, params = _x_states(10 * k1 + k2, 4000, k1, k2)
        rows = batch.measure_factors(x)
        conc, steer, fval, pur = measures._x_closed_forms(*params)
        s = rows[:, batch.COL_S]
        assert np.abs(rows[:, batch.COL_C] - conc).max() <= 4.0 * EPS
        assert np.abs(s * s - steer * steer).max() <= 4.0 * EPS
        assert np.array_equal(s > 0.0, steer > 0.0)
        assert np.abs(rows[:, batch.COL_F] - fval).max() <= 4.0 * EPS
        assert np.abs(rows[:, batch.COL_PURITY] - pur).max() <= 4.0 * EPS


@pytest.mark.parametrize("rank", sorted(X_SPLITS))
def test_x_states_obey_the_bound_identities_on_both_branches(rank):
    # with s^2 = (F^2 - 1)/2 before the clip, on the z branch
    # (z - sqrt(bc) >= w - sqrt(ad), C > 0); the w branch swaps (a, d, z)
    # with (b, c, w).  Every term of the lower margin is >= 0 there, so
    # S >= sqrt(max(0, C^2 + P - 1)), and so is C^2 - s^2, so S <= C
    # (largest error 7.2 eps on 20000 states of each split)
    branches = set()
    for k1, k2 in X_SPLITS[rank]:
        x, (a, b, c, d, z, w) = _x_states(10 * k1 + k2, 4000, k1, k2)
        rows = batch.measure_factors(x)
        conc, pur, fval = rows[:, batch.COL_C], rows[:, batch.COL_PURITY], rows[:, batch.COL_F]
        da, db = rows[:, batch.COL_DA], rows[:, batch.COL_DB]
        s2 = (fval * fval - 1.0) / 2.0
        assert np.abs(2.0 * pur - 1.0 - s2 - (da * da + db * db) / 2.0).max() <= 8.0 * EPS
        on_z = z - np.sqrt(b * c) >= w - np.sqrt(a * d)
        for name, keep, params in (("z", on_z, (a, d, z, b, c, w)),
                                   ("w", ~on_z, (b, c, w, a, d, z))):
            keep = keep & (conc > 0.0)
            if keep.any():
                branches.add(name)
            a1, d1, z1, b1, c1, w1 = (v[keep] for v in params)
            k, s2k, p = conc[keep], s2[keep], pur[keep]
            root = np.sqrt(b1 * c1)
            lower = 2.0 * (a1 * d1 - z1 * z1) + 2.0 * w1 * w1 + 2.0 * root * (4.0 * z1 - root)
            assert np.abs(s2k - (k * k + p - 1.0) - lower).max(initial=0.0) <= 8.0 * EPS
            assert (s2k - (k * k + p - 1.0)).min(initial=0.0) >= -8.0 * EPS
            assert (k * k - s2k).min(initial=0.0) >= -8.0 * EPS
            upper = 2.0 * (b1 + c1) * (a1 + d1) + 4.0 * b1 * c1 - 8.0 * z1 * root - 4.0 * w1 * w1
            assert np.abs(k * k - s2k - upper).max(initial=0.0) <= 8.0 * EPS
    assert branches == {"z", "w"}


def test_werner_family_walks_the_envelope():
    # werner_like states sit exactly on the envelope C = (3p - 1)/2
    phi = states.bell_like(np.pi / 4)
    for p in (0.4, 0.6, 0.9):
        rep = measures.report(states.werner_like(p, phi))
        assert rep.concurrence == pytest.approx(max(0.0, (3.0 * p - 1.0) / 2.0), abs=1e-12)
        assert rep.purity == pytest.approx((1.0 + 3.0 * p * p) / 4.0, abs=1e-12)


def _grid(steps=51):
    """The theta-major (theta, eta) grid of an ad or pd sweep."""
    thetas = np.linspace(0.05, math.pi / 2.0 - 0.05, steps)
    etas = np.linspace(0.0, 1.0, steps)
    return np.repeat(thetas, steps), np.tile(etas, steps)


def _wu_inputs(seed, n):
    """The p and phi of each point of a wu sweep, drawn as run_family_sweep draws them."""
    u01 = states.open_uniforms(states.stream_block(seed, states.DOMAIN_SWEEP, 0, n)[:, :2])
    amps = states.bell_like_amplitudes(0.05 + (math.pi / 2.0 - 0.1) * u01[:, 1])
    return u01[:, 0], (states.random_unitaries(seed, 0, n) @ amps[:, :, None])[:, :, 0]


# Points past the sweep grids at which libm's pow(v, 2) misrounds v * v at
# one square of the closed forms and the misrounding moves an output bit.
# A one-point call's intermediates are numpy scalars or floats, whose ``** 2``
# is pow (about 1 input in 1200 misrounds), while an array's ``** 2`` is an
# exact product; so a square written as ``** 2`` at that site makes the
# one-point call differ from the array call.  One point per site, as
# (theta, eta) for ad and pd and (theta of bell_like, p) for wu: for ad at
# the X-state squares of z, t, a, b and d and at s and c, for pd at s and
# c, and for wu at C(phi).  No point was found for the square of c, which
# is 0 on ad and pd and the exact q = (1 - p)/4 on wu.
POW_PROBES = {"ad": [(1.0318, 0.3889), (1.0613, 0.1887), (0.3964, 0.9968), (1.2672, 0.8164),
                     (0.6485, 0.5552), (1.258, 0.4725), (0.5443, 0.5413)],
              "pd": [(1.258, 0.4725), (0.5443, 0.5413)],
              "wu": [(0.846, 0.4291)]}


@pytest.mark.parametrize("family", ["ad", "pd"])
def test_array_closed_forms_equal_the_scalar_calls_bit_for_bit(family):
    forms = measures.bad_closed_forms if family == "ad" else measures.bpd_closed_forms
    thetas, etas = _grid()
    probe_thetas, probe_etas = zip(*POW_PROBES[family])
    thetas, etas = np.append(thetas, probe_thetas), np.append(etas, probe_etas)
    array = np.column_stack(forms(thetas, etas))
    scalar = [forms(th, eta) for th, eta in zip(thetas.tolist(), etas.tolist())]
    assert all(type(x) is float for x in scalar[0])
    assert array.tobytes() == np.array(scalar).tobytes()
    table = harness.run_family_sweep(family, theta_steps=51, eta_steps=51)
    assert table.closed.tobytes() == array[: 51 * 51].tobytes()


def test_array_wu_closed_forms_equal_the_scalar_calls_bit_for_bit():
    ps, phis = _wu_inputs(0, 1000)
    probe_thetas, probe_ps = zip(*POW_PROBES["wu"])
    ps = np.append(ps, probe_ps)
    phis = np.concatenate((phis, states.bell_like_amplitudes(probe_thetas)))
    array = np.column_stack(measures.wu_closed_forms(ps, phis))
    scalar = [measures.wu_closed_forms(p, phi) for p, phi in zip(ps.tolist(), phis)]
    assert all(type(x) is float for x in scalar[0])
    assert array.tobytes() == np.array(scalar).tobytes()
    table = harness.run_family_sweep("wu", p_steps=1000, seed=0)
    assert table.closed.tobytes() == array[:1000].tobytes()


def test_concurrence_pure_on_a_stack_equals_the_flip_overlap_and_the_one_row_calls():
    _, phis = _wu_inputs(0, 1000)
    want = np.array([abs(np.vdot(a, SIGMA_YY @ a.conj())) for a in phis])
    got = measures.concurrence_pure(phis)
    assert got.shape == (1000,)
    assert np.abs(got - want).max() <= 2.0 * np.finfo(float).eps
    assert [measures.concurrence_pure(a) for a in phis] == got.tolist()
    assert type(measures.concurrence_pure(phis[0])) is float


def test_closed_forms_broadcast_a_scalar_and_reject_a_length_mismatch():
    thetas, etas = _grid(4)
    ps, phis = _wu_inputs(5, 4)
    for forms in (measures.bad_closed_forms, measures.bpd_closed_forms):
        assert np.array_equal(np.column_stack(forms(thetas, 0.5)),
                              np.column_stack(forms(thetas, np.full(16, 0.5))))
        with pytest.raises(ValidationError, match=r"theta of shape \(16,\) and eta of shape "
                                                  r"\(3,\) do not broadcast"):
            forms(thetas, etas[:3])
    one_p = np.column_stack(measures.wu_closed_forms(0.7, phis))
    assert one_p.shape == (4, 4)
    assert np.array_equal(one_p, np.column_stack(measures.wu_closed_forms(np.full(4, 0.7), phis)))
    with pytest.raises(ValidationError, match=r"p of shape \(3,\) and vectors of shape \(4,\)"):
        measures.wu_closed_forms(ps[:3], phis)
    # a column of two p broadcasts with two vectors, but not to them
    with pytest.raises(ValidationError, match=r"p of shape \(2, 1\) and vectors of shape \(2,\) "
                                              r"do not broadcast to \(2,\)"):
        measures.wu_closed_forms([[0.3], [0.9]], phis[:2])


# numpy's AVX-512 kernels are switched off in the child below
NO_AVX512 = pytest.mark.skipif(not any(__cpu_features__.get(f) for f in AVX512_FEATURES),
                               reason="this host has no AVX-512 to switch off")
OPENBLAS_X86 = pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                                  reason="OpenBLAS core types are x86-64 kernels")

# evaluates the closed forms on the sweep inputs in argv[1] and saves them to argv[2]
CLOSED_FORMS_CHILD = """
import sys
import numpy as np
from qsteer import measures
with np.load(sys.argv[1]) as d:
    np.savez(sys.argv[2],
             ad=np.column_stack(measures.bad_closed_forms(d["theta"], d["eta"])),
             pd=np.column_stack(measures.bpd_closed_forms(d["theta"], d["eta"])),
             wu=np.column_stack(measures.wu_closed_forms(d["p"], d["phi"])))
"""


@pytest.mark.parametrize("child_env", [
    pytest.param({"NPY_DISABLE_CPU_FEATURES": " ".join(AVX512_FEATURES)},
                 marks=NO_AVX512, id="avx512-off"),
    pytest.param({"OPENBLAS_CORETYPE": "Haswell"}, marks=OPENBLAS_X86, id="openblas-haswell"),
    pytest.param({"OPENBLAS_CORETYPE": "Prescott"}, marks=OPENBLAS_X86, id="openblas-prescott"),
])
def test_closed_forms_do_not_depend_on_the_host_kernels(child_env, tmp_path):
    # the child gets this process's inputs: the wu draw itself goes through
    # np.log, whose AVX-512 kernel rounds differently, and the unitaries through QR
    thetas, etas = _grid()
    ps, phis = _wu_inputs(0, 1000)
    np.savez(tmp_path / "inputs.npz", theta=thetas, eta=etas, p=ps, phi=phis)
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src"),
           **child_env}
    proc = subprocess.run([sys.executable, "-c", CLOSED_FORMS_CHILD, str(tmp_path / "inputs.npz"),
                           str(tmp_path / "closed.npz")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    with np.load(tmp_path / "closed.npz") as child:
        for family in ("ad", "pd"):
            table = harness.run_family_sweep(family, theta_steps=51, eta_steps=51)
            assert child[family].tobytes() == table.closed.tobytes(), family
        wu = np.column_stack(measures.wu_closed_forms(ps, phis))
        assert child["wu"].tobytes() == wu.tobytes()
