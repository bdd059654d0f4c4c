import hashlib
import json
import re

import numpy as np
import pytest

from qsteer import batch, cli, harness, measures, states
from qsteer.errors import (
    ChannelIncomplete,
    IndexOutOfRange,
    NotHermitian,
    NotNormalized,
    NotPSD,
    NotRealizable,
    ParameterOutOfRange,
    TraceNotOne,
    ValidationError,
)

# a state for the channel tests
RHO = states.density_from_pure(states.bell_like(np.pi / 4))


def test_bell_like_amplitudes():
    psi = states.bell_like(np.pi / 6)
    assert psi.amplitudes[0] == pytest.approx(np.cos(np.pi / 6), abs=1e-15)
    assert psi.amplitudes[3] == pytest.approx(np.sin(np.pi / 6), abs=1e-15)
    assert psi.amplitudes[1] == 0.0 and psi.amplitudes[2] == 0.0
    for bad in (0.0, np.pi / 2, -0.3, 2.0):
        with pytest.raises(ParameterOutOfRange):
            states.bell_like(bad)


def test_pure_state_validation():
    with pytest.raises(NotNormalized):
        states.PureState(np.array([1.0, 1.0, 0.0, 0.0]))
    with pytest.raises(ValidationError):
        states.PureState(np.array([1.0, 0.0]))
    with pytest.raises(ValidationError):
        states.PureState(np.array([np.nan, 0.0, 0.0, 0.0]))
    psi = states.PureState(np.array([1.0, 0.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        psi.amplitudes[0] = 0.0


def test_density_matrix_validation():
    with pytest.raises(NotHermitian):
        states.DensityMatrix(np.diag([1.0, 0, 0, 0]) + 1e-3 * np.eye(4, k=1))
    with pytest.raises(TraceNotOne):
        states.DensityMatrix(np.eye(4) / 3.0)
    with pytest.raises(NotPSD):
        states.DensityMatrix(np.diag([1.5, -0.5, 0.0, 0.0]))
    with pytest.raises(ValidationError):
        states.DensityMatrix(np.eye(2) / 2.0)
    rho = states.DensityMatrix(np.eye(4) / 4.0)
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 1.0


# one matrix breaking each DensityMatrix invariant, in check order
INVALID = {
    "finite": np.diag([np.nan, 0.5, 0.25, 0.25]),
    "hermitian": np.diag([1.0, 0, 0, 0]) + 1e-3 * np.eye(4, k=1),
    "trace": np.eye(4) / 3.0,
    "psd": np.diag([1.5, -0.5, 0.0, 0.0]),
}


@pytest.mark.parametrize("invariant", list(INVALID))
def test_validate_stack_agrees_with_density_matrix(invariant):
    bad = INVALID[invariant]
    with pytest.raises(ValidationError, match="at index 0$") as single:
        states.DensityMatrix(bad)
    good = np.eye(4) / 4.0
    stack = np.stack([good, good, good, bad, good, bad])
    with pytest.raises(ValidationError, match="at index 3$") as batched:
        states.validate_stack(stack)
    assert type(batched.value) is type(single.value)
    assert str(batched.value).replace("index 3", "index 0") == str(single.value)
    assert states.validate_stack(stack[:3])[0].shape == (3, 4, 4)


def test_validate_stack_reports_the_first_bad_matrix():
    # the lowest bad index wins, whatever invariant a later matrix breaks
    good = np.eye(4) / 4.0
    stack = np.stack([good, INVALID["psd"], INVALID["finite"], INVALID["hermitian"]])
    with pytest.raises(NotPSD, match="at index 1$"):
        states.validate_stack(stack)
    # a matrix breaking several invariants reports the first in check order
    with pytest.raises(NotHermitian, match="at index 1$"):
        states.validate_stack(np.stack([good, 2.0 * INVALID["hermitian"]]))
    # a stack whose last axis is not contiguous still names its bad matrix
    with pytest.raises(ValidationError, match="non-finite entries at index 2$"):
        states.validate_stack(np.stack([good, good, INVALID["finite"]]).transpose(0, 2, 1))
    with pytest.raises(ValidationError, match="shape"):
        states.validate_stack(good)
    assert states.validate_stack(np.empty((0, 4, 4)))[0].shape == (0, 4, 4)


def test_validate_amplitudes_names_the_bad_row():
    good = np.array([1.0, 0.0, 0.0, 0.0])
    with pytest.raises(NotNormalized, match="at index 1$"):
        states.validate_amplitudes([good, 2.0 * good, [np.nan, 0, 0, 0]])
    with pytest.raises(ValidationError, match="non-finite entries at index 2$"):
        states.validate_amplitudes([good, good, [np.nan, 0, 0, 0]])
    # a stack whose last axis is not contiguous still names its bad row
    with pytest.raises(ValidationError, match="non-finite entries at index 1$"):
        states.validate_amplitudes(np.array([good, [np.nan, 0, 0, 0]], complex)[:, ::-1])
    with pytest.raises(ValidationError, match="shape"):
        states.validate_amplitudes(good)


def test_batched_builders_match_the_one_row_builders():
    phis = [states.PureState(states.random_unitary(4, i) @ states.bell_like(t).amplitudes)
            for i, t in enumerate((0.3, 0.7, 1.2))]
    amps = np.stack([phi.amplitudes for phi in phis])
    ps = [0.0, 0.4, 1.0]
    # the identity channel is one operator padded with a zero one
    kraus = np.stack([states.damping_operators(0.3, 0), states.damping_operators(0.6, 1),
                      [np.eye(2), np.zeros((2, 2))]])
    mixtures = states.gram(states.werner_factors(ps, amps))
    x = states._kraus_factors(amps, kraus)
    assert x.shape == (3, 3, 4, 2)
    damped = states.gram(x.reshape(9, 4, 2)).reshape(3, 3, 4, 4)
    projectors = states.gram(amps[:, :, None])
    for i, phi in enumerate(phis):
        rho = states.density_from_pure(phi)
        assert np.array_equal(projectors[i], rho.matrix)
        assert np.array_equal(mixtures[i], states.werner_like(ps[i], phi).matrix)
        for j, operators in enumerate(kraus):
            # the wrapper sums (K x I) rho (K x I)^dag: the same state, other roundings
            assert np.abs(damped[i, j] - states.apply_channel(rho, operators).matrix).max() <= 1e-15
    assert np.array_equal(damped[:, 2], projectors)
    with pytest.raises(ParameterOutOfRange, match="at index 1$"):
        states.werner_factors([0.5, 1.2, -0.1], amps)
    for build in (lambda a: states.werner_factors(0.5, a),
                  lambda a: states._kraus_factors(a, kraus)):
        with pytest.raises(NotNormalized):
            build(2.0 * amps)


def test_werner_like_matrix():
    phi = states.bell_like(np.pi / 4)
    rho = states.werner_like(0.8, phi)
    expect = 0.8 * np.outer(phi.amplitudes, phi.amplitudes.conj()) + 0.05 * np.eye(4)
    assert np.abs(rho.matrix - expect).max() < 1e-15
    with pytest.raises(ParameterOutOfRange):
        states.werner_like(1.2, phi)


def test_channel_constructors_are_complete():
    for row in (0, 1):
        for operators in states.damping_operators([0.0, 0.3, 1.0], row):
            total = sum(k.conj().T @ k for k in operators)
            assert np.abs(total - np.eye(2)).max() < 1e-15
        with pytest.raises(ParameterOutOfRange):
            states.damping_operators(-0.1, row)
        with pytest.raises(ParameterOutOfRange):
            states.damping_operators(1.1, row)


@pytest.mark.parametrize("row", [0, 1], ids=["ad", "pd"])
def test_a_float32_eta_builds_the_channel_of_its_float64_value(row):
    # sqrt(1 - eta) taken of the float32 itself misses completeness by 2.4e-8
    eta = np.float32(0.3)
    assert np.array_equal(states.damping_operators(eta, row).view(np.int64),
                          states.damping_operators(float(eta), row).view(np.int64))


@pytest.mark.parametrize("row", [-1, True, 2, 0.5, "0"])
def test_damping_operators_take_row_0_or_1(row):
    # -1 and True used to build phase damping, the others leaked an IndexError
    named = re.escape(repr(row))
    with pytest.raises(ParameterOutOfRange, match=f"^row must be 0 or 1, got {named}$"):
        states.damping_operators(0.3, row)


def test_damping_operators_check_completeness_once_over_the_stack(monkeypatch):
    stack = states.damping_operators([0.0, 0.25, 1.0], 0)
    assert stack.shape == (3, 2, 2, 2)
    assert np.array_equal(stack[:, 1, 0, 1], np.sqrt([0.0, 0.25, 1.0]))
    # no pair meets a negative tolerance: the first one is named
    monkeypatch.setattr(states, "KRAUS_TOL", -1.0)
    with pytest.raises(ChannelIncomplete, match=r"completeness by 0\.000e\+00 at index 0$"):
        states.damping_operators([0.0, 0.25, 1.0], 1)
    with pytest.raises(ChannelIncomplete, match=r"completeness by 0\.000e\+00$"):
        states.damping_operators(0.0, 1)
    # apply_channel checks a channel through the same helper
    with pytest.raises(ChannelIncomplete, match=r"completeness by 0\.000e\+00$"):
        states.apply_channel(RHO, stack[0])


def test_kraus_factors_equal_the_kron_construction_bit_for_bit():
    rng = np.random.default_rng(5)
    amps = rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
    amps /= np.linalg.norm(amps, axis=1, keepdims=True)
    u = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
    # a complex one-operator channel, zero-padded beside two-operator ones
    zero = np.zeros((2, 2))
    kraus = np.stack([states.damping_operators(0.3, 0), [u, zero],
                      states.damping_operators(0.7, 1), [-np.eye(2), zero]])
    ops = np.array([[np.kron(k, np.eye(2)) for k in operators] for operators in kraus])
    expect = (ops @ amps[:, None, None, :, None])[..., 0].transpose(0, 1, 3, 2)
    x = states._kraus_factors(amps, kraus)
    assert x.shape == expect.shape == (6, 4, 4, 2)
    # bits, not ==, so a zero of the other sign counts as a change
    assert np.array_equal(np.ascontiguousarray(x).view(np.int64),
                          np.ascontiguousarray(expect).view(np.int64))


# a bool, a string or None is not an angle, a damping strength or a weight,
# and a string must not be parsed as one
AMPS = np.array([[np.sqrt(0.5), 0.0, 0.0, np.sqrt(0.5)]])


@pytest.mark.parametrize("call, error, named", [
    (lambda: states.bell_like(True), ParameterOutOfRange, "theta .* got True$"),
    (lambda: states.bell_like("0.5"), ParameterOutOfRange, "theta .* got '0.5'$"),
    (lambda: states.damping_operators(True, 0), ParameterOutOfRange, "eta .* got True$"),
    (lambda: states.damping_operators("0.2", 1), ParameterOutOfRange, "eta .* got '0.2'$"),
    (lambda: measures.bad_closed_forms(0.5, None), ParameterOutOfRange, "eta .* got None$"),
    (lambda: measures.bpd_closed_forms(True, 0.1), ParameterOutOfRange, "theta .* got True$"),
    (lambda: measures.wu_closed_forms(True, AMPS[0]), ParameterOutOfRange, "p .* got True$"),
    (lambda: states.werner_factors(["0.5"], AMPS), ParameterOutOfRange,
     "p .* got '0.5' at index 0$"),
    (lambda: measures.wu_steering_margin("0.5", 0.9), NotRealizable, "concurrence '0.5'"),
], ids=["bell_like-bool", "bell_like-str", "ad-bool", "pd-str", "bad-None", "bpd-bool",
        "wu-bool", "werner_factors-str", "wu_steering_margin-str"])
def test_parameters_must_be_real_numbers(call, error, named):
    with pytest.raises(error, match=named):
        call()


# the array entry points of theta, eta and p: (call with that one argument, its name)
PHIS = np.repeat(AMPS, 3, axis=0)
GOOD = {"theta": [0.3, 0.7, 1.2], "eta": [0.0, 0.5, 1.0], "p": [0.2, 0.6, 1.0]}
ARRAY_ARGS = {
    "bell_like_amplitudes": (states.bell_like_amplitudes, "theta"),
    "ad-theta": (lambda v: measures.bad_closed_forms(v, GOOD["eta"]), "theta"),
    "ad-eta": (lambda v: measures.bad_closed_forms(GOOD["theta"], v), "eta"),
    "pd-theta": (lambda v: measures.bpd_closed_forms(v, GOOD["eta"]), "theta"),
    "pd-eta": (lambda v: measures.bpd_closed_forms(GOOD["theta"], v), "eta"),
    "wu-p": (lambda v: measures.wu_closed_forms(v, PHIS), "p"),
    "werner_factors-p": (lambda v: states.werner_factors(v, PHIS), "p"),
}
OUT_OF_RANGE = {"theta": (0.0, np.pi / 2), "eta": (np.nan, -0.1), "p": (1.5, np.nan)}
BOX = {"theta": r"strictly inside \(0, pi/2\)", "eta": r"in \[0, 1\]", "p": r"in \[0, 1\]"}


@pytest.mark.parametrize("arg", ARRAY_ARGS)
def test_array_parameters_name_the_first_bad_entry(arg):
    call, name = ARRAY_ARGS[arg]
    good = GOOD[name]
    call(good)
    for bad in OUT_OF_RANGE[name]:
        # an array names the index of its first bad entry; a number only the value
        with pytest.raises(ParameterOutOfRange,
                           match=rf"^{name} must lie {BOX[name]}, got {bad!r} at index 1$"):
            call([good[0], bad, bad])
        with pytest.raises(ParameterOutOfRange, match=rf"^{name} must lie {BOX[name]}, got "):
            call(bad)
    with pytest.raises(ParameterOutOfRange, match=rf"^{name} .* got False at index 0$"):
        call(np.array([False, True, True]))


def test_bell_like_amplitudes_stack_the_one_row_calls():
    thetas = np.linspace(0.05, np.pi / 2 - 0.05, 7)
    amps = states.bell_like_amplitudes(thetas)
    assert amps.shape == (7, 4)
    for theta, row in zip(thetas.tolist(), amps):
        assert np.array_equal(row, states.bell_like(theta).amplitudes)
    assert states.bell_like_amplitudes(0.4).shape == (4,)


def test_a_channel_takes_one_eta():
    # the pairs of two etas are two channels, not one
    for row in (0, 1):
        with pytest.raises(ValidationError, match=r"stack, got \(2, 2, 2, 2\)$"):
            states.apply_channel(RHO, states.damping_operators([0.1, 0.2], row))


def test_werner_factors_take_one_p_or_one_per_row():
    one_p = states.werner_factors(0.4, PHIS)
    assert one_p.shape == (3, 4, 5)
    assert np.array_equal(one_p, states.werner_factors([0.4] * 3, PHIS))
    # two weights for three vectors used to fail inside numpy's broadcasting
    with pytest.raises(ValidationError,
                       match=r"p of shape \(2,\) and vectors of shape \(3,\) do not broadcast"):
        states.werner_factors([0.5, 0.2], PHIS)
    # two weights for one vector broadcast with it, but not to it
    with pytest.raises(ValidationError,
                       match=r"p of shape \(2,\) and vectors of shape \(1,\) do not broadcast"):
        states.werner_factors([0.5, 0.5], np.eye(4)[:1])


def test_kraus_channel_validation():
    with pytest.raises(ChannelIncomplete):
        states.apply_channel(RHO, (np.eye(2) * 0.9,))
    with pytest.raises(ValidationError, match=r"got \(1, 3, 3\)$"):
        states.apply_channel(RHO, (np.eye(3),))


@pytest.mark.parametrize("operators", [None, 5, ()], ids=["none", "number", "empty"])
def test_kraus_channel_without_operators_names_the_invariant(operators):
    # not numpy's or Python's TypeError for an operand that does not iterate
    with pytest.raises(ValidationError, match=r"^operators must be a non-empty \(n_ops, 2, 2\)"):
        states.apply_channel(RHO, operators)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_kraus_channel_rejects_non_finite_operators(bad):
    # named by its index, before the completeness sum sees it
    with pytest.raises(ValidationError, match="non-finite entries at index 1$"):
        states.apply_channel(RHO, (np.eye(2), np.array([[bad, 0.0], [0.0, 1.0]])))


def test_amplitude_damping_moves_population():
    # |10><10| decays to |00><00| at rate eta on qubit A
    rho = states.DensityMatrix(np.diag([0.0, 0.0, 1.0, 0.0]))
    out = states.apply_channel(rho, states.damping_operators(0.3, 0))
    assert out.matrix[2, 2] == pytest.approx(0.7, abs=1e-15)
    assert out.matrix[0, 0] == pytest.approx(0.3, abs=1e-15)


def test_phase_damping_kills_coherence_only():
    rho = states.density_from_pure(states.bell_like(np.pi / 4))
    out = states.apply_channel(rho, states.damping_operators(0.5, 1))
    assert out.matrix[0, 0] == pytest.approx(0.5, abs=1e-15)
    assert out.matrix[3, 3] == pytest.approx(0.5, abs=1e-15)
    assert abs(out.matrix[0, 3]) == pytest.approx(0.5 * np.sqrt(0.5), abs=1e-15)


@pytest.mark.parametrize("row", [0, 1], ids=["ad", "pd"])
def test_damping_composes_as_semigroup(row):
    cfg = states.SamplerConfig("ginibre", "uniform", seed=21, count=1)
    rho = states.random_state(cfg, 0)
    eta1, eta2 = 0.3, 0.45

    def damp(state, eta):
        return states.apply_channel(state, states.damping_operators(eta, row))

    twice = damp(damp(rho, eta1), eta2)
    once = damp(rho, 1.0 - (1.0 - eta1) * (1.0 - eta2))
    assert np.abs(twice.matrix - once.matrix).max() < 1e-14


def test_sampler_config_validation():
    with pytest.raises(ParameterOutOfRange):
        states.SamplerConfig(measure="bures")
    with pytest.raises(ParameterOutOfRange):
        states.SamplerConfig(ranks=5)
    with pytest.raises(ParameterOutOfRange):
        states.SamplerConfig(seed=-1)
    with pytest.raises(ParameterOutOfRange):
        states.SamplerConfig(count=-2)


@pytest.mark.parametrize("field, value", [
    ("seed", 1.5), ("seed", "7"), ("seed", True),
    ("count", 1.5), ("count", "3"), ("count", True),
    ("ranks", True), ("ranks", 2.0),
])
def test_sampler_config_rejects_non_integers(field, value):
    # seed=1.5 used to replay seed 1, ranks=True to act as rank 1
    with pytest.raises(ParameterOutOfRange, match=f"^{field} must"):
        states.SamplerConfig(**{field: value})


def test_sampler_config_accepts_numpy_integers():
    cfg = states.SamplerConfig(ranks=np.int64(2), seed=np.uint64(2**64 - 1), count=np.int64(3))
    assert states.draw_matrices(cfg, 0, 3)[1].tolist() == [2, 2, 2]
    assert states.SamplerConfig(seed=np.int64(5)).seed == 5


def test_unitary_stream_rejects_non_integer_seeds():
    for seed in (2.5, "7", True):
        with pytest.raises(ParameterOutOfRange, match="^seed must"):
            states.random_unitary(seed, 0)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_outside_uint64_is_a_parameter_error(seed, tmp_path, capsys):
    with pytest.raises(ParameterOutOfRange, match="seed must be a uint64"):
        states.random_unitary(seed, 0)
    argv = ["channel-sweep", "--family", "wu", "--seed", str(seed),
            "--out", str(tmp_path / "wu.csv")]
    assert cli.main(argv) == 2
    assert f"seed must be a uint64, got {seed}" in capsys.readouterr().err


def test_draws_are_deterministic_and_chunk_independent():
    cfg = states.SamplerConfig("ginibre", "uniform", seed=123, count=10)
    a, ka = states.draw_matrices(cfg, 0, 10)
    b, kb = states.draw_matrices(cfg, 0, 10)
    assert np.array_equal(a, b) and np.array_equal(ka, kb)
    head, kh = states.draw_matrices(cfg, 0, 4)
    tail, kt = states.draw_matrices(cfg, 4, 10)
    assert np.array_equal(a, np.concatenate([head, tail]))
    assert np.array_equal(ka, np.concatenate([kh, kt]))
    assert np.array_equal(states.random_state(cfg, 5).matrix, states.gram(a)[5])


# sha256 over draw_matrices(cfg, start, stop): the factor bytes, then the
# rank bytes.  A change to the stream version 3 layout, the Box-Muller map,
# the rank bits or the normalisation of the factors changes these digests
# and has to be made on purpose.  The factors pass through numpy's
# log/cos/sin; the digests were taken with numpy 2.4 on x86-64 (AVX-512),
# and other SIMD kernels may differ in the last bit.  Since stream version
# 6 the columns at or past a record's rank are never drawn and hold +0.0;
# before, the masked normals left -0.0 where they were negative, the only
# bytes that moved.
STREAM_GOLDEN = [
    (("ginibre", "uniform", 7, 0, 64),
     "02df7169517826cc2deeec3a65a43aa7ed309732b59de8f211c52b7e0d979cf1"),
    (("ginibre", 3, 2**64 - 1, 4093, 4101),
     "a176bcb6ec34b5fb73281ab25a78098c1cebd07ba06883c5ced68781d8204fa5"),
]


@pytest.mark.parametrize("plan, digest", STREAM_GOLDEN,
                         ids=["ginibre-uniform", "ginibre-rank3-max-seed"])
def test_stream_golden_digests(plan, digest):
    assert states.STREAM_VERSION == 9
    measure, ranks, seed, start, stop = plan
    cfg = states.SamplerConfig(measure, ranks, seed=seed, count=stop)
    x, ks = states.draw_matrices(cfg, start, stop)
    h = hashlib.sha256(x.tobytes())
    h.update(ks.tobytes())
    assert h.hexdigest() == digest


def test_stream_block_layout():
    # record i owns counter steps [9 i, 9 (i + 1)): 36 consecutive raw words
    raw = np.random.Philox(key=[7, states.DOMAIN_STATE]).random_raw(40 * 36)
    assert np.array_equal(states.stream_block(7, states.DOMAIN_STATE, 0, 40),
                          raw.reshape(40, 36))
    assert np.array_equal(states.stream_block(7, states.DOMAIN_STATE, 13, 14)[0],
                          raw[13 * 36 : 14 * 36])
    assert states.stream_block(7, states.DOMAIN_STATE, 5, 5).shape == (0, 36)
    # domains key separate generators
    assert not np.array_equal(states.stream_block(7, states.DOMAIN_UNITARY, 0, 1),
                              raw[:36].reshape(1, 36))
    u = states.open_uniforms(np.array([0, 2**11 - 1, 2**64 - 1], np.uint64))
    assert u[0] == u[1] == 2.0**-54 and u[2] == 1.0


@pytest.mark.parametrize("policy", ["uniform", 1, 2, 3, 4])
def test_draws_equal_the_masked_draw_of_all_sixteen_normals(policy):
    # the reference draws all 16 normals of each record by Box-Muller and
    # zeroes the columns from its rank on; draw_matrices draws only the
    # columns below the rank, bit for bit the same there, and +0.0 past it
    start, stop = harness.CHUNK - 40, harness.CHUNK + 40
    cfg = states.SamplerConfig("ginibre", policy, seed=31, count=stop)
    x, ranks = states.draw_matrices(cfg, start, stop)
    blocks = states.stream_block(31, states.DOMAIN_STATE, start, stop)
    u = states.open_uniforms(blocks[:, :32])
    radius, angle = np.sqrt(-2.0 * np.log(u[:, :16])), 2.0 * np.pi * u[:, 16:]
    g = np.empty(radius.shape, np.complex128)
    g.real, g.imag = radius * np.cos(angle), radius * np.sin(angle)
    g = g.reshape(-1, 4, 4)
    if policy == "uniform":
        assert np.array_equal(ranks, 1 + (blocks[:, 32] >> np.uint64(62)).astype(np.int64))
        assert set(ranks.tolist()) == {1, 2, 3, 4}
    else:
        assert (ranks == policy).all()
    kept = np.broadcast_to(np.arange(4) < ranks[:, None, None], g.shape)
    g *= kept
    parts = g.view(np.float64).reshape(-1, 32)  # the normalisation of the draw
    g /= np.sqrt(np.einsum("ij,ij->i", parts, parts))[:, None, None]
    assert np.array_equal(x[kept].view(np.uint64), g[kept].view(np.uint64))
    padded = x[~kept].view(np.float64)
    assert (padded == 0.0).all() and not np.signbit(padded).any()


@pytest.mark.parametrize("policy", ["uniform", 1], ids=["ginibre", "ginibre-rank1"])
def test_slices_match_the_whole_draw(policy):
    chunk = harness.CHUNK
    count = 2 * chunk + 9
    cfg = states.SamplerConfig("ginibre", policy, seed=2024, count=count)
    whole, ranks = states.draw_matrices(cfg, 0, count)
    for start, stop in ((1, 2), (3, 10), (chunk - 3, chunk + 4), (chunk - 1, 2 * chunk + 1),
                        (2 * chunk + 1, count)):
        part, kpart = states.draw_matrices(cfg, start, stop)
        assert np.array_equal(part, whole[start:stop])
        assert np.array_equal(kpart, ranks[start:stop])
    rhos = states.gram(whole)
    for i in (0, 1, chunk - 1, chunk, chunk + 1, 2 * chunk + 7):
        assert np.array_equal(states.random_state(cfg, i).matrix, rhos[i])
    unitaries = states.random_unitaries(2024, chunk - 2, chunk + 3)
    for j, u in enumerate(unitaries):
        assert np.array_equal(u, states.random_unitary(2024, chunk - 2 + j))


def _within_5_stderr(sample, expect, floor=0.0):
    stderr = sample.std(ddof=1) / np.sqrt(sample.size)
    assert abs(sample.mean() - expect) < 5 * stderr + floor, (sample.mean(), expect)


def test_ginibre_rank_and_purity_distribution():
    # Induced measure on C^4 x C^k: E[purity] = (4 + k) / (4 k + 1);
    # ranks under "uniform" are equally likely.  5 standard errors each; rank-1
    # purities are 1 up to rounding, hence the 1e-12 floor.  Of C: E[C^2] =
    # 2/5 for pure states (rank 1), and at rank 4 (Hilbert-Schmidt) the
    # separable share P(C = 0) is 8/33 (Slater and Dunkl, J. Phys. A 45,
    # 095305 (2012)).
    n = 200_000
    cfg = states.SamplerConfig("ginibre", "uniform", seed=4242, count=n)
    purity = np.empty(n)
    conc = np.empty(n)
    ranks = np.empty(n, np.int64)
    for start in range(0, n, 50_000):
        x, ranks[start : start + 50_000] = states.draw_matrices(cfg, start, start + 50_000)
        rhos = states.gram(x)
        purity[start : start + 50_000] = np.einsum("kij,kij->k", rhos, rhos.conj()).real
        conc[start : start + 50_000] = batch.measure_factors(x)[:, batch.COL_C]
    sigma = np.sqrt(n * 0.25 * 0.75)
    for k in (1, 2, 3, 4):
        sel = purity[ranks == k]
        assert abs(sel.size - n / 4) < 5 * sigma
        _within_5_stderr(sel, (4 + k) / (4 * k + 1), floor=1e-12)
    _within_5_stderr(conc[ranks == 1] ** 2, 2 / 5)
    _within_5_stderr(conc[ranks == 4] == 0.0, 8 / 33)


def test_random_state_index_bounds():
    cfg = states.SamplerConfig("ginibre", "uniform", seed=1, count=3)
    with pytest.raises(IndexOutOfRange):
        states.random_state(cfg, 3)
    with pytest.raises(IndexOutOfRange):
        states.random_state(cfg, -1)
    for start, stop in ((-1, 2), (2, 1), (0, 4)):
        with pytest.raises(IndexOutOfRange):
            states.draw_matrices(cfg, start, stop)
    with pytest.raises(IndexOutOfRange):  # advance(-9) would wrap the counter
        states.random_unitary(0, -1)


def test_seeds_give_distinct_streams():
    a, _ = states.draw_matrices(states.SamplerConfig("ginibre", 4, seed=0, count=1), 0, 1)
    b, _ = states.draw_matrices(states.SamplerConfig("ginibre", 4, seed=1, count=1), 0, 1)
    assert np.abs(a - b).max() > 1e-3


def test_rank_policy():
    cfg = states.SamplerConfig("ginibre", 2, seed=9, count=50)
    x, ranks = states.draw_matrices(cfg, 0, 50)
    assert np.all(ranks == 2)
    assert not x[:, :, 2:].any()
    for rho in states.gram(x):
        w = np.linalg.eigvalsh(rho)
        assert (w > 1e-12).sum() == 2


def test_uniform_rank_frequencies():
    # binomial 3 sigma around n/4 for each rank
    cfg = states.SamplerConfig("ginibre", "uniform", seed=31, count=4000)
    _, ranks = states.draw_matrices(cfg, 0, 4000)
    sigma = np.sqrt(4000 * 0.25 * 0.75)
    for k in (1, 2, 3, 4):
        assert abs((ranks == k).sum() - 1000) < 3 * sigma


def test_random_unitary_is_haar_like():
    u = states.random_unitary(3, 0)
    assert np.abs(u @ u.conj().T - np.eye(4)).max() < 1e-12
    assert np.array_equal(u, states.random_unitary(3, 0))
    assert np.abs(u - states.random_unitary(3, 1)).max() > 1e-3
    # E|U_00|^2 = 1/4 for Haar; 3000 draws put the 3 sigma band near 0.01
    acc = 0.0
    for i in range(3000):
        acc += abs(states.random_unitary(777, i)[0, 0]) ** 2
    assert abs(acc / 3000 - 0.25) < 0.011


def test_relative_phase_does_not_change_measures():
    theta = np.pi / 5
    plain = states.bell_like(theta)
    twisted = states.PureState(plain.amplitudes * np.exp(1j * np.array([0.0, 0, 0, 0.9])))
    for p in (1.0, 0.6):
        ra = measures.report(states.werner_like(p, plain))
        rb = measures.report(states.werner_like(p, twisted))
        for name in ("concurrence", "f_value", "steerability", "purity"):
            assert getattr(ra, name) == pytest.approx(getattr(rb, name), abs=1e-12)


def test_state_json_round_trip():
    cfg = states.SamplerConfig("ginibre", "uniform", seed=8, count=1)
    rho = states.random_state(cfg, 0)
    text = json.dumps(states.state_to_json(rho))
    back = states.state_from_json(json.loads(text))
    assert np.array_equal(back.matrix, rho.matrix)


def test_state_from_json_names_the_failed_invariant():
    good = states.state_to_json(states.DensityMatrix(np.eye(4) / 4.0))

    with pytest.raises(ValidationError, match="dim"):
        states.state_from_json({**good, "dim": 2})
    with pytest.raises(ValidationError, match="rows"):
        states.state_from_json({**good, "matrix": good["matrix"][:3]})
    short = json.loads(json.dumps(good))
    short["matrix"][2] = short["matrix"][2][:3]
    with pytest.raises(ValidationError, match="row 2 must be a list of 4 entries"):
        states.state_from_json(short)
    broken = json.loads(json.dumps(good))
    broken["matrix"][1][2] = [0.0]
    with pytest.raises(ValidationError, match=r"\(1, 2\)"):
        states.state_from_json(broken)
    with pytest.raises(ValidationError):
        states.state_from_json([1, 2, 3])

    lopsided = json.loads(json.dumps(good))
    lopsided["matrix"][0][0] = [1.25, 0.0]
    lopsided["matrix"][1][1] = [-0.75, 0.0]
    with pytest.raises(NotPSD):
        states.state_from_json(lopsided)

    heavy = json.loads(json.dumps(good))
    heavy["matrix"][0][0] = [0.5, 0.0]
    with pytest.raises(TraceNotOne):
        states.state_from_json(heavy)
