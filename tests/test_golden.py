"""sha256 digests of the analyze, sample, verify, channel-sweep and wu-scan
outputs.

The sweeps and the scan are built as arrays, and sample and verify stream
the plan chunk by chunk; these digests pin their output bytes across
commits, so a change to how the stacks are drawn, built, validated,
measured, formatted or reduced that moves a single bit fails here.  The closed forms and the
Bell-like amplitudes pass through numpy's sin/cos/sqrt, libm pow (through
np.float_power), hypot and the BLAS dot of np.vdot; the digests were taken
with numpy 2.4 on x86-64 (AVX-512), and other SIMD kernels may differ in the
last bit.
"""

import hashlib
import json

import pytest

from qsteer import cli, harness, states

SWEEP_GOLDEN = [
    (["--family", "ad", "--theta-steps", "8", "--eta-steps", "8"],
     "d6b000ec06b75416d4a65c89a0098871e2596043b54b3bd9548685f381e491da"),
    (["--family", "ad", "--theta-steps", "50", "--eta-steps", "50"],
     "1113a62c6f994ef68bb8f9350e4725fa00755aa2531fce7b11a96d6fa706631c"),
    (["--family", "pd", "--theta-steps", "8", "--eta-steps", "8"],
     "ba1482f9deaf7200145bfe55d9f366214b6dee06c1798fa6d6c1e1f9b1204c48"),
    (["--family", "pd", "--theta-steps", "50", "--eta-steps", "50"],
     "515ef83140a1d2d43fdb587da7c0b7cc8cab2c12b236e13f19e9d9f050808ca0"),
    (["--family", "wu", "--p-steps", "30", "--seed", "3"],
     "44fb8f47fb63b19888bb4de989e2c93d7ec69dd3f1cb4921b0a1f5fb45dc4b92"),
    (["--family", "wu", "--p-steps", "1000", "--seed", "0"],
     "061869dc24f1590e7cb9e6e48f53551bd5d13ea464f87fe05a47987010365cf9"),
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
     "f35c2132900214535689ed7b291acb1e10f2a9677747c6b622f66785db598d0c"),
    (["--measure", "haar-pure", "--count", "5000", "--seed", "3", "--workers", "2"],
     "40112a0c30cb87f638cbe83841ac02396f327ad0c7b60ebe71b706b38baca89b"),
]
VERIFY_GOLDEN = [
    (["--count", "20000", "--seed", "7"],
     "b2ef96e9d5023a5b58b8e14020bd8e28158776edb94d3e79a1183e26933c15fa"),
]

# analyze on record 10 of a rank-2 plan, a state on which both steering
# tests fire: (format, digest of the report)
ANALYZE_GOLDEN = [
    ("table", "08e48b64683f4f94dd655d5bc29afb5a1e34eae8085b6400f18d5c3a68581890"),
    ("json", "b33ddc6008deb69dce24d11177704570e627cafc9e5dae22e5f4d56462bf86a6"),
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


@pytest.mark.parametrize("argv, digest", SAMPLE_GOLDEN, ids=["ginibre-20000", "haar-5000-w2"])
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
