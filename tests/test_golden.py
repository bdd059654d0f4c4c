"""sha256 digests of the analyze, sample, verify, channel-sweep and wu-scan
outputs.

The sweeps and the scan are built as arrays, and sample and verify stream
the plan chunk by chunk; these digests pin their output bytes across
commits, so a change to how the stacks are drawn, built, validated,
measured, formatted or reduced that moves a single bit fails here.  The
closed forms pass through numpy's sin, cos, sqrt and hypot and plain
products, with no BLAS call; the wu sweep's unitaries (QR), the Gram
matrices and the SVDs of the measured columns go through OpenBLAS and
LAPACK.  The digests were taken with numpy 2.4 on x86-64
(AVX-512, OpenBLAS SkylakeX kernels), and other SIMD or BLAS kernels may
differ in the last bit.  They are those of stream version 9; CHANGES.md
records which bytes each stream version moved.
"""

import hashlib
import json

import pytest

from qsteer import cli, harness, states

SWEEP_GOLDEN = [
    (["--family", "ad", "--theta-steps", "8", "--eta-steps", "8"],
     "31732347dd1515178cd9e4ff3a4d8b965a042c1a3ed8233a8d7f3e306f3b12df"),
    (["--family", "ad", "--theta-steps", "50", "--eta-steps", "50"],
     "e3254152a0855e0a40c5b52be57e1d00458adcc8f561a50aebf4d50564857736"),
    (["--family", "pd", "--theta-steps", "8", "--eta-steps", "8"],
     "fc8c387736bdbe3f6b5aed7ae5c798c401d782fe6c21155840e1bd9514218e7a"),
    (["--family", "pd", "--theta-steps", "50", "--eta-steps", "50"],
     "0e6eb9a5b7565dc10a59998bfaa566451a7ddc2792c74032586b136a1acd0fc0"),
    (["--family", "wu", "--p-steps", "30", "--seed", "3"],
     "7a25597da114cf7a546473307bb15a9bcb27843ea4f5a2e2e2381b6beaa60fb0"),
    (["--family", "wu", "--p-steps", "1000", "--seed", "0"],
     "1c284d45f3086e85e165790eea2ca2570d0a24422a5522fc4243d9d3f2de34db"),
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
     "38c59b4f02bcdf7a4bcd71084403a88fa85efaf91aad18c41a953dcbf27003de"),
    # most rank-3 and rank-4 draws have purity below 1/2, where the bounds
    # are 0 and verify takes no SVD
    (["--count", "20000", "--seed", "7", "--ranks", "3"],
     "2bf6ab875b73d17794ebbb60480d31b95b4c376749b0d0cf0672feb51e5fdfcb"),
    (["--count", "20000", "--seed", "7", "--ranks", "4"],
     "061e9c396801b9221d3b14e219ff70e593bd50e4fe51c3ae835b33a3e2e6dd0b"),
]

# analyze on record 10 of a rank-2 plan, a state on which both steering
# tests fire: (format, digest of the report)
ANALYZE_GOLDEN = [
    ("table", "8f3b2d82697faaab96ea6629250ce6e3e485a90a349a5c3009b49c7c69086a71"),
    ("json", "a4ff2b681a854cfb0e2e1e05b2afb9c4ae1944b7391161ce54a6141c3434205a"),
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


@pytest.mark.parametrize("argv, digest", VERIFY_GOLDEN,
                         ids=["ginibre-20000", "ginibre-rank3-20000", "ginibre-rank4-20000"])
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
