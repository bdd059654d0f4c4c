"""sha256 digests of the analyze, sample, verify, channel-sweep and wu-scan
outputs.

The sweeps and the scan are built as arrays, and sample and verify stream
the plan chunk by chunk; these digests pin their output bytes across
commits, so a change to how the stacks are drawn, built, validated,
measured, formatted or reduced that moves a single bit fails here.  The closed forms and the
Bell-like amplitudes pass through numpy's sin/cos/sqrt, libm pow (through
np.float_power), hypot and the BLAS dot of np.vdot; the digests were taken
with numpy 2.4 on x86-64 (AVX-512), and other SIMD kernels may differ in the
last bit.  The digests are those of stream version 5.  Version 3 took C
from the singular values of a factor's x^T (sigma_y x sigma_y) x, and S
and the coherences in their exact forms; version 4 measures the sweeps'
states from their exact factors too, so it moved only the channel-sweep
bytes and verify's "stream" key.  Version 5 takes those singular values
at each factor's own width, k x k for k nonzero columns and |x^T (sigma_y x
sigma_y) x| at width 1, so it moved only the sample bytes and verify's
"stream" key.
"""

import hashlib
import json

import pytest

from qsteer import cli, harness, states

SWEEP_GOLDEN = [
    (["--family", "ad", "--theta-steps", "8", "--eta-steps", "8"],
     "f42e49e14b73a7eef07f7e73b18cc209c4eb2d764ff875a33fff663797adab60"),
    (["--family", "ad", "--theta-steps", "50", "--eta-steps", "50"],
     "bfe9770945b2f4ba02f35029f25bbdf08f84450394f3f58c168cf84aaebb9884"),
    (["--family", "pd", "--theta-steps", "8", "--eta-steps", "8"],
     "5c89588bc84d1ec0ad65312c53a5a703eddb930488d9d98b9bf71c03085a2c3c"),
    (["--family", "pd", "--theta-steps", "50", "--eta-steps", "50"],
     "4e706a1b65af00c228d95fd0302557cf939192a600ac17e8e02f96c833976591"),
    (["--family", "wu", "--p-steps", "30", "--seed", "3"],
     "e586f5651afde25f522216d8f758edacf8d944ff767a8772281dd9a1b18a81b6"),
    (["--family", "wu", "--p-steps", "1000", "--seed", "0"],
     "5aa78f00cce9afe2f099429531a3f7f41ab72766abce18a546047a533c38641d"),
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
     "fedb1ed7ba2f1816f1ca6d97fb809cdcf64be30d7dcae8adae3a869da725092b"),
]
VERIFY_GOLDEN = [
    (["--count", "20000", "--seed", "7"],
     "fa287e3dd6b2fbd7763f6e993188c3c4c41fd5fc5f42a7e09088541bb708b636"),
]

# analyze on record 10 of a rank-2 plan, a state on which both steering
# tests fire: (format, digest of the report)
ANALYZE_GOLDEN = [
    ("table", "f8d6ba4e8f23ca4ef996dfb049a17c96b5a10fd0b0633f9663e7b45fe4474b1f"),
    ("json", "f44b45cd0e629f8953956e4946028554a2973af61719dbc42504e82a1053aa74"),
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
