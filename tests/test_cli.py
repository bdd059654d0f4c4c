import dataclasses
import errno
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qsteer import cli, harness, measures, states
from qsteer.cli import main
from qsteer.errors import ParameterOutOfRange


def write_state(path, rho):
    path.write_text(json.dumps(states.state_to_json(rho)))
    return str(path)


def steerable_state_file(tmp_path):
    rho = states.werner_like(0.8, states.bell_like(np.pi / 4))
    return write_state(tmp_path / "werner08.json", rho)


def test_no_subcommand_exits_2():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["analyze", "--nope"])
    assert err.value.code == 2


def test_analyze_table(tmp_path, capsys):
    code = main(["analyze", "--in", steerable_state_file(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    rows = dict(line.split(maxsplit=1) for line in out.splitlines())
    # C = 0.8 - 0.2/2 for this state, to the 10 decimals the test reads
    assert f"{float(rows['concurrence']):.10f}" == "0.7000000000"
    assert "0.678232998312526" in out
    assert "steerable" in out
    assert "steering (C,purity)" in out and "yes" in out
    assert "steering (S > 0)" in out


def test_analyze_json(tmp_path, capsys):
    code = main(["analyze", "--in", steerable_state_file(tmp_path), "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["concurrence"] == pytest.approx(0.7, abs=1e-12)
    assert payload["steerability"] == pytest.approx(0.6782329983125268, abs=1e-12)
    assert payload["purity"] == pytest.approx(0.73, abs=1e-12)
    assert payload["classification"] == "steerable"
    assert payload["steerable"] is True
    assert payload["steering_by_lower_bound"] is True
    assert len(payload["lam"]) == 4 and len(payload["singular_values"]) == 3


def test_analyze_table_says_no_for_the_maximally_mixed_state(tmp_path, capsys):
    path = write_state(tmp_path / "mixed.json", states.DensityMatrix(np.eye(4) / 4.0))
    assert main(["analyze", "--in", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "steering (C,purity)   no (C^2 + purity <= 1)" in lines
    assert "steering (S > 0)      no (S = 0)" in lines


def test_analyze_prints_the_lower_bound_argument_as_the_kernel_forms_it(
        tmp_path, capsys, monkeypatch):
    # record 9985 of this plan has c**2 + p - 1 != c * c + p - 1: the line
    # shows the kernel's product form, whose sign is the verdict's.  Its C
    # and purity are pinned, because report's values move by an ulp with the
    # OpenBLAS core (C through LAPACK, purity through zgemm)
    rho = states.random_state(states.SamplerConfig("ginibre", 2, seed=3, count=9986), 9985)
    rep = measures.report(rho)._replace(concurrence=0.6818169745475573,
                                        purity=0.9077598199594393)
    monkeypatch.setattr(measures, "report", lambda state: rep)
    c, p = rep.concurrence, rep.purity
    assert c**2 + p - 1.0 != c * c + p - 1.0
    assert main(["analyze", "--in", write_state(tmp_path / "state.json", rho)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert f"steering (C,purity)   yes (C^2 + purity - 1 = {c * c + p - 1.0!r} > 0)" in lines


def test_analyze_separable_json(tmp_path, capsys):
    path = write_state(tmp_path / "mixed.json", states.DensityMatrix(np.eye(4) / 4.0))
    code = main(["analyze", "--in", path, "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["classification"] == "separable-candidate"
    assert payload["steerable"] is False
    assert payload["steering_by_lower_bound"] is False


def test_analyze_writes_out_file(tmp_path, capsys):
    out_path = tmp_path / "report.txt"
    code = main(["analyze", "--in", steerable_state_file(tmp_path), "--out", str(out_path)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert "steerable" in out_path.read_text()


def test_analyze_rejects_non_psd(tmp_path, capsys):
    obj = states.state_to_json(states.DensityMatrix(np.eye(4) / 4.0))
    obj["matrix"][0][0] = [1.25, 0.0]
    obj["matrix"][1][1] = [-0.75, 0.0]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code = main(["analyze", "--in", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "positive semidefinite" in err


@pytest.mark.parametrize("entries, named", [
    # finite entries whose trace sums to NaN
    ({(0, 0): 1e308, (1, 1): 1e308, (2, 2): -1e308, (3, 3): -1e308}, "trace"),
    # a Hermitian, trace-1 matrix whose (m + m^dag) / 2 would overflow
    ({(0, 1): 1e308, (1, 0): 1e308}, "positive semidefinite"),
], ids=["trace-nan", "hermitian-part"])
def test_analyze_rejects_finite_entries_that_overflow(entries, named, tmp_path, capsys):
    obj = states.state_to_json(states.DensityMatrix(np.eye(4) / 4.0))
    for (i, j), value in entries.items():
        obj["matrix"][i][j] = [value, 0.0]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(obj))
    assert main(["analyze", "--in", str(path)]) == 2
    assert named in capsys.readouterr().err


def test_analyze_rejects_bad_structure(tmp_path, capsys):
    path = tmp_path / "dim2.json"
    path.write_text(json.dumps({"dim": 2, "matrix": []}))
    assert main(["analyze", "--in", str(path)]) == 2
    assert "dim" in capsys.readouterr().err


def test_analyze_rejects_boolean_entries(tmp_path, capsys):
    # JSON true/false are ints to isinstance; read as numbers this file is |00><00|
    obj = states.state_to_json(states.DensityMatrix(np.eye(4) / 4.0))
    obj["matrix"][0][0] = [True, False]
    for i in (1, 2, 3):
        obj["matrix"][i][i] = [0.0, 0.0]
    path = tmp_path / "bools.json"
    path.write_text(json.dumps(obj))
    assert main(["analyze", "--in", str(path)]) == 2
    assert "entry (0, 0) must be a [re, im] pair" in capsys.readouterr().err


def test_analyze_rejects_integer_too_large_for_a_float(tmp_path, capsys):
    obj = states.state_to_json(states.DensityMatrix(np.eye(4) / 4.0))
    obj["matrix"][1][2] = [10**400, 0]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(obj))
    assert main(["analyze", "--in", str(path)]) == 2
    assert "entry (1, 2) does not fit a float" in capsys.readouterr().err


@pytest.mark.parametrize("content", [b"\xff\xfe", b"[" * 100_000, b"1" * 5000],
                         ids=["not-utf8", "nested-too-deep", "too-many-digits"])
def test_analyze_rejects_unreadable_json(content, tmp_path, capsys):
    path = tmp_path / "unreadable.json"
    path.write_bytes(content)
    assert main(["analyze", "--in", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: state file is not valid UTF-8 JSON")


def test_analyze_rejects_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["analyze", "--in", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_analyze_missing_file(tmp_path, capsys):
    assert main(["analyze", "--in", str(tmp_path / "absent.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_sample_writes_csv(tmp_path):
    out = tmp_path / "sample.csv"
    code = main(["sample", "--count", "50", "--seed", "4", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 51
    assert lines[0].startswith("index,rank_k,purity,C,F,S,Q,D_A,D_B")


def test_sample_reruns_identically(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["sample", "--count", "200", "--seed", "9", "--ranks", "1"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("command", ["sample", "verify"])
def test_the_haar_pure_plan_is_gone(command, tmp_path, capsys):
    # --ranks 1 draws the same Haar-random pure states
    with pytest.raises(SystemExit) as err:
        main([command, "--count", "5", "--measure", "haar-pure",
              "--out", str(tmp_path / "out")])
    assert err.value.code == 2
    assert "--measure" in capsys.readouterr().err
    with pytest.raises(ParameterOutOfRange, match="--ranks 1"):
        states.SamplerConfig("haar-pure")


def test_sample_worker_count_does_not_change_bytes(tmp_path):
    a = tmp_path / "w1.csv"
    b = tmp_path / "w4.csv"
    base = ["sample", "--count", "4200", "--seed", "13"]
    assert main(base + ["--workers", "1", "--out", str(a)]) == 0
    assert main(base + ["--workers", "4", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sample_fixed_rank_column(tmp_path):
    out = tmp_path / "rank2.csv"
    assert main(["sample", "--count", "20", "--ranks", "2", "--out", str(out)]) == 0
    for line in out.read_text().splitlines()[1:]:
        assert line.split(",")[1] == "2"


def test_sample_rejects_bad_rank(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["sample", "--count", "5", "--ranks", "7", "--out", str(out)]) == 2
    assert "ranks" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["sample", "--count", "5", "--ranks", "two", "--out", str(out)])


@pytest.mark.parametrize("command", ["sample", "verify"])
def test_ranks_that_are_no_integer_exit_2_naming_the_invariant(command, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--count", "5", "--ranks", "abc", "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --ranks: ranks must be 1..4 or 'uniform', got 'abc'" in err
    assert "_parse_ranks" not in err
    assert not (tmp_path / "x").exists()


def test_channel_sweep_pd(tmp_path):
    out = tmp_path / "pd.csv"
    code = main(
        ["channel-sweep", "--family", "pd", "--theta-steps", "6", "--eta-steps", "5",
         "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 31
    assert all(line.startswith("pd,") for line in lines[1:])


def test_channel_sweep_family_choices_are_the_family_table():
    (commands,) = [a for a in cli._build_parser()._actions if a.dest == "command"]
    (family,) = [a for a in commands.choices["channel-sweep"]._actions if a.dest == "family"]
    assert tuple(family.choices) == tuple(harness.FAMILIES)


def test_channel_sweep_wu(tmp_path):
    out = tmp_path / "wu.csv"
    code = main(["channel-sweep", "--family", "wu", "--p-steps", "8", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 9
    assert lines[1].split(",")[3] == "0"


def test_wu_scan_emits_three_files(tmp_path):
    out = tmp_path / "region.csv"
    code = main(["wu-scan", "--grid", "20x15", "--out", str(out)])
    assert code == 0
    assert len(out.read_text().splitlines()) == 301
    assert (tmp_path / "region_boundary.csv").exists()
    assert (tmp_path / "region_werner.csv").exists()
    assert (tmp_path / "region_werner.csv").read_text().splitlines()[0] == "purity,C"


def test_wu_scan_rejects_bad_grid(tmp_path, capsys):
    out = tmp_path / "r.csv"
    assert main(["wu-scan", "--grid", "20by20", "--out", str(out)]) == 2
    assert "grid" in capsys.readouterr().err


def _fails_after_first(lines):
    """The first item of lines, then the error of a full disk."""
    lines = iter(lines)
    yield next(lines)
    raise OSError(errno.ENOSPC, "No space left on device")


def _break_lines(monkeypatch, name):
    """harness.name's lines fail after the first."""
    make = getattr(harness, name)
    monkeypatch.setattr(harness, name, lambda *args: _fails_after_first(make(*args)))


def _break_series(monkeypatch, field):
    """The region scan's series field fails after its first point."""
    scan = harness.run_region_scan

    def broken(*grid):
        result = scan(*grid)
        return dataclasses.replace(result, **{field: _fails_after_first(getattr(result, field))})

    monkeypatch.setattr(harness, "run_region_scan", broken)


def _break_text(monkeypatch):
    """The JSON report's second line cannot be encoded, so its write to
    --out raises; verify's copy goes to a stdout that takes it."""
    monkeypatch.setattr(json, "dumps", lambda *args, **kwargs: "{\n\udc80\n}")
    monkeypatch.setattr(sys, "stdout", io.StringIO())


# (how the write breaks, argv before --out OUT, the files that must be kept,
# the exception main raises, or None for exit 2)
SCAN_FILES = ("out.csv", "out_boundary.csv", "out_werner.csv")
BROKEN_WRITES = {
    "channel-sweep": (lambda mp: _break_lines(mp, "sweep_csv_lines"),
                      ["channel-sweep", "--family", "ad", "--theta-steps", "3",
                       "--eta-steps", "3"], ("out.csv",), None),
    "wu-scan": (lambda mp: _break_lines(mp, "region_csv_lines"),
                ["wu-scan", "--grid", "4x5"], SCAN_FILES, None),
    "wu-scan-boundary": (lambda mp: _break_series(mp, "criterion_boundary"),
                         ["wu-scan", "--grid", "4x5"], SCAN_FILES, None),
    "wu-scan-werner": (lambda mp: _break_series(mp, "werner_envelope"),
                       ["wu-scan", "--grid", "4x5"], SCAN_FILES, None),
    "analyze": (_break_text, ["analyze", "--in", "state.json", "--format", "json"],
                ("out.csv",), UnicodeEncodeError),
    "verify": (_break_text, ["verify", "--count", "10"], ("out.csv",), UnicodeEncodeError),
}


@pytest.mark.parametrize("case", list(BROKEN_WRITES))
def test_a_failed_write_leaves_the_earlier_out(case, tmp_path, monkeypatch, capsys):
    # every output file is replaced only once it is written whole: a write
    # that raises partway leaves the earlier files byte for byte as they
    # were and no .NAME.PID.N.tmp file beside them.  wu-scan writes all
    # three of its files before it replaces any, so a failure in any one
    # keeps all three
    breaks, argv, kept, error = BROKEN_WRITES[case]
    monkeypatch.chdir(tmp_path)
    write_state(tmp_path / "state.json", states.DensityMatrix(np.eye(4) / 4.0))
    earlier = {name: f"an earlier {name}\n".encode() for name in kept}
    for name, data in earlier.items():
        (tmp_path / name).write_bytes(data)
    breaks(monkeypatch)
    argv = argv + ["--out", "out.csv"]
    if error is None:
        assert main(argv) == 2
        full = f"error: [Errno {errno.ENOSPC}] No space left on device\n"
        assert capsys.readouterr().err == full
    else:
        with pytest.raises(error):
            main(argv)
    assert {name: (tmp_path / name).read_bytes() for name in kept} == earlier
    assert [p.name for p in tmp_path.iterdir() if p.name.startswith(".")] == []


# argv before --out OUT, and the files that OUT names
STAGED_OUTPUTS = {
    "sample": (["sample", "--count", "10", "--workers", "1"], ("out.csv",)),
    "channel-sweep": (["channel-sweep", "--family", "ad", "--theta-steps", "3",
                       "--eta-steps", "3"], ("out.csv",)),
    "wu-scan": (["wu-scan", "--grid", "4x5"], SCAN_FILES),
    "analyze": (["analyze", "--in", "state.json"], ("out.csv",)),
    "verify": (["verify", "--count", "10", "--workers", "1"], ("out.csv",)),
}


@pytest.mark.parametrize("case", list(STAGED_OUTPUTS))
def test_each_output_file_is_staged_once(case, tmp_path, monkeypatch, capsys):
    # one O_EXCL temporary and one os.replace per output file, and no
    # .NAME.PID.N.tmp file left behind
    argv, outputs = STAGED_OUTPUTS[case]
    monkeypatch.chdir(tmp_path)
    write_state(tmp_path / "state.json", states.DensityMatrix(np.eye(4) / 4.0))
    exclusive, replaced = [], []
    os_open, os_replace = os.open, os.replace

    def counted_open(path, flags, *args, **kwargs):
        if flags & os.O_EXCL:
            exclusive.append(os.path.basename(path))
        return os_open(path, flags, *args, **kwargs)

    def counted_replace(src, dst, *args, **kwargs):
        replaced.append(os.fspath(dst))
        return os_replace(src, dst, *args, **kwargs)

    monkeypatch.setattr(os, "open", counted_open)
    monkeypatch.setattr(os, "replace", counted_replace)
    assert main(argv + ["--out", "out.csv"]) == 0
    capsys.readouterr()
    assert sorted(replaced) == sorted(outputs)
    assert len(exclusive) == len(outputs)
    assert all(name.startswith(".") and name.endswith(".tmp") for name in exclusive)
    assert {p.name for p in tmp_path.iterdir()} == {"state.json", *outputs}


def test_wu_scan_writes_through_a_linked_out_and_replaces_the_series(tmp_path):
    # a symlinked --out stays a link and its target gets the region bytes;
    # the two series files beside it are regular files, replaced
    grid = ["wu-scan", "--grid", "4x5", "--out"]
    assert main(grid + [str(tmp_path / "plain.csv")]) == 0
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_bytes(b"an earlier region\n")
    link.symlink_to(target)
    series = (tmp_path / "link_boundary.csv", tmp_path / "link_werner.csv")
    for path in series:
        path.write_bytes(b"an earlier series\n")
    inodes = [path.stat().st_ino for path in series]
    assert main(grid + [str(link)]) == 0
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == (tmp_path / "plain.csv").read_bytes()
    for path, inode, part in zip(series, inodes, ("_boundary", "_werner")):
        assert not path.is_symlink() and path.stat().st_ino != inode
        assert path.read_bytes() == (tmp_path / f"plain{part}.csv").read_bytes()
    assert [p.name for p in tmp_path.iterdir() if p.name.startswith(".")] == []


def test_verify_clean_run(tmp_path, capsys):
    out = tmp_path / "summary.json"
    code = main(["verify", "--count", "500", "--seed", "6", "--out", str(out)])
    captured = capsys.readouterr().out
    assert code == 0
    payload = json.loads(captured)
    assert payload["checked"] == 500
    assert payload["violations"] == []
    assert payload["worst_margin_lower"] > -1e-9
    assert payload["worst_margin_upper"] > -1e-9
    assert payload["seed"] == 6
    assert payload["stream"] == 10
    assert out.read_text() == captured


def test_verify_reruns_identically(tmp_path, capsys):
    args = ["verify", "--count", "300", "--seed", "77", "--workers", "2"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_python_dash_m_runs_from_a_checkout(tmp_path):
    # no install: the package is found through PYTHONPATH=src alone
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = tmp_path / "region.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "qsteer", "wu-scan", "--grid", "4x5", "--out", str(out)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.read_text().startswith("purity,C,region\n")
    assert len(out.read_text().splitlines()) == 21
    for name in ("region_boundary.csv", "region_werner.csv"):
        assert (tmp_path / name).read_text().startswith("purity,C\n")
