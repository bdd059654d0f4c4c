"""sha256 digests of the analyze, sample, verify, channel-sweep and wu-scan
outputs.

The sweeps and the scan are built as arrays, and sample and verify stream
the plan chunk by chunk; these digests pin their output bytes across
commits, so a change to how the stacks are drawn, built, validated,
measured, formatted or reduced that moves a single bit fails here.  The closed forms and the
Bell-like amplitudes pass through numpy's sin/cos/sqrt, libm pow (through
np.float_power), hypot and the BLAS dot of np.vdot; the digests were taken
with numpy 2.4 on x86-64 (AVX-512), and other SIMD kernels may differ in the
last bit.  The digests are those of stream version 7.  Version 3 took C
from the singular values of a factor's x^T (sigma_y x sigma_y) x, and S
and the coherences in their exact forms; version 4 measures the sweeps'
states from their exact factors too, so it moved only the channel-sweep
bytes and verify's "stream" key.  Version 5 takes those singular values
at each factor's own width, k x k for k nonzero columns and |x^T (sigma_y x
sigma_y) x| at width 1, so it moved only the sample bytes and verify's
"stream" key.  Version 6 takes the two singular values at width 2 in closed
form, with no SVD, so it moved the sample bytes, the ad and pd
channel-sweep bytes (their factors have width 2) and verify's "stream" key;
its draws hold the same values as before.  Version 7 forms each tau from
outer products of the factor's rows, with no BLAS call per factor, so C and
what is derived from it (Q, both bounds, the flip eigenvalues) moved by at
most 6.7e-16: it moved the sample bytes, the wu channel-sweep bytes, the
analyze reports and verify's bytes; purity, F, S, the coherences, the
ad and pd sweeps and the draws kept theirs.
"""

import hashlib
import json

import pytest

from qsteer import cli, harness, states

SWEEP_GOLDEN = [
    (["--family", "ad", "--theta-steps", "8", "--eta-steps", "8"],
     "31732347dd1515178cd9e4ff3a4d8b965a042c1a3ed8233a8d7f3e306f3b12df"),
    (["--family", "ad", "--theta-steps", "50", "--eta-steps", "50"],
     "4e1723fc7ea5a21426eab3e0cd3da15e2e6fafbe87af30d7a65f505a508eb269"),
    (["--family", "pd", "--theta-steps", "8", "--eta-steps", "8"],
     "fc8c387736bdbe3f6b5aed7ae5c798c401d782fe6c21155840e1bd9514218e7a"),
    (["--family", "pd", "--theta-steps", "50", "--eta-steps", "50"],
     "88a399a8b7983b59e8bccb76263989b275e7588c1950ea639987360d885732ce"),
    (["--family", "wu", "--p-steps", "30", "--seed", "3"],
     "0319f3ac52624aa507dc5c191fc6f7a7c8c1d12763121cb6a61b14062ec29553"),
    (["--family", "wu", "--p-steps", "1000", "--seed", "0"],
     "1b60e976290c09d67f02026e31f62f4e44bba3726a0743a4e2dde7672b69d053"),
]

# (grid, digests of region.csv, region_boundary.csv, region_werner.csv)
SCAN_GOLDEN = [
    ("4x5", ("e337d6e7008066d71914c130d1a48e017d5fa6bcde17dcbdb54b3d757780846e",
             "d51564ef250cc9718925968ca71d7ea3c41e083af07940879e74b19649a55498",
             "5856d3a9dabcc60b1675e0ec4d46d7012410c157663e9ce1224e29c05655e6bb")),
    ("400x400", ("9e8cd13584d7dc64f34bdf5a3c360d64e7ea4b8b5c328d8823cb87e5d4418bdd",
                 "179a346c4316caea25e8de9df05e636fd0440cbb802fbcf65a069b915a8e9f80",
                 "79a5d6fa01b5a5310f139d775c5e121e694d2ac68a86bb3798400a3ab959c5d2")),
]


# sample runs: (argv, digest of the CSV); verify runs: (argv, digest of stdout)
SAMPLE_GOLDEN = [
    (["--count", "20000", "--seed", "7"],
     "8472365f9a511d0a323b1793643f1ea7b993347f6008e35ee962ae514712ecff"),
]
VERIFY_GOLDEN = [
    (["--count", "20000", "--seed", "7"],
     "dde9a47f57ba5a53ad3ae99baa33e88e94b63846dcc2f2c232811c8e3ac61fe5"),
]

# analyze on record 10 of a rank-2 plan, a state on which both steering
# tests fire: (format, digest of the report)
ANALYZE_GOLDEN = [
    ("table", "d4af14d9d059b4ceba8546092dab74986d0af9fc04c581124723e99546563af7"),
    ("json", "0d5860dc618ccafe09995fcac1b3d30e137305dc30b9836e659a038a99bbe503"),
]


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("argv, digest", SWEEP_GOLDEN,
                         ids=["ad-8x8", "ad-50x50", "pd-8x8", "pd-50x50", "wu-30", "wu-1000"])
def test_channel_sweep_golden_digest(argv, digest, tmp_path):
    out = tmp_path / "sweep.csv"
    assert cli.main(["channel-sweep", *argv, "--out", str(out)]) == 0
    assert sha256(out) == digest


@pytest.mark.parametrize("grid, digests", SCAN_GOLDEN, ids=["4x5", "400x400"])
def test_wu_scan_golden_digests(grid, digests, tmp_path):
    assert cli.main(["wu-scan", "--grid", grid, "--out", str(tmp_path / "region.csv")]) == 0
    names = ("region.csv", "region_boundary.csv", "region_werner.csv")
    assert tuple(sha256(tmp_path / name) for name in names) == digests


@pytest.mark.parametrize("argv, digest", SAMPLE_GOLDEN, ids=["ginibre-20000"])
def test_sample_golden_digest(argv, digest, tmp_path):
    out = tmp_path / "scatter.csv"
    assert cli.main(["sample", *argv, "--out", str(out)]) == 0
    assert sha256(out) == digest


@pytest.mark.parametrize("argv, digest", VERIFY_GOLDEN, ids=["ginibre-20000"])
def test_verify_golden_digest(argv, digest, capsys):
    assert cli.main(["verify", *argv]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize("chunk", [1000, 4097])
def test_chunk_size_does_not_change_the_bytes(chunk, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(harness, "CHUNK", chunk)
    (sample_argv, sample_digest), (verify_argv, verify_digest) = SAMPLE_GOLDEN[0], VERIFY_GOLDEN[0]
    out = tmp_path / "scatter.csv"
    assert cli.main(["sample", *sample_argv, "--out", str(out)]) == 0
    assert sha256(out) == sample_digest
    capsys.readouterr()
    assert cli.main(["verify", *verify_argv]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == verify_digest


@pytest.mark.parametrize("fmt, digest", ANALYZE_GOLDEN, ids=["table", "json"])
def test_analyze_golden_digest(fmt, digest, tmp_path):
    rho = states.random_state(states.SamplerConfig("ginibre", 2, seed=11, count=11), 10)
    state = tmp_path / "state.json"
    state.write_text(json.dumps(states.state_to_json(rho)))
    out = tmp_path / "report.txt"
    assert cli.main(["analyze", "--in", str(state), "--format", fmt, "--out", str(out)]) == 0
    assert sha256(out) == digest
