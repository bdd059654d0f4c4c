"""Tests of the benchmark itself, at tiny sizes.

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from qsteer import harness, states  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3
TINY = workloads.SIZES["tiny"]


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _pass(workload, workdir, recorder=None):
    return run.run_pass(workloads.commands(workload, SEED, "tiny", str(workdir)), recorder)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", str(SEED), "--seconds", "1",
                  "--trace", trace, "--sizes", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    spec = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in spec}
    assert "failed_frac" in proc.stdout
    assert ("unscaled medians" in proc.stdout) == (trace == "0")
    context = json.loads(next(ln for ln in proc.stdout.splitlines()
                              if ln.startswith("context "))[len("context "):])
    for key in ("nproc", "cpu_model", "python", "numpy", "numba_importable",
                "git_commit", "seed", "commands", "samples"):
        assert key in context


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_and_untraced_passes_write_identical_output(workload, tmp_path):
    plain = _pass(workload, tmp_path)
    recorder = tracing.Recorder()
    traced = _pass(workload, tmp_path, recorder)
    assert plain.failed == traced.failed == 0, plain.errors + traced.errors
    assert plain.digests == traced.digests
    # every wrapper is gone again
    assert harness.draw_matrices is states.draw_matrices
    assert not hasattr(states.DensityMatrix.__post_init__, "__wrapped__")
    # the root spans cover the pass, and the self times add up to them
    assert recorder.accounted_s() == pytest.approx(traced.wall, rel=0.05, abs=2e-3)


@pytest.mark.parametrize("workload, on_path, off_path", [
    ("scatter", {"states.draw.items": TINY["count"], "batch.measure.rows": TINY["count"],
                 "harness.format.lines": TINY["count"] + 1},
     ("states.build.calls", "states.validate.calls", "measures.closed_forms.calls",
      "measures.margin.calls")),
    ("verify", {"states.draw.items": TINY["count"], "batch.measure.rows": TINY["count"]},
     ("harness.format.lines", "harness.write.bytes", "states.build.calls",
      "states.validate.calls")),
    ("families", {"measures.closed_forms.calls": 2 * TINY["steps"] ** 2 + TINY["p_steps"],
                  "batch.measure.rows": 2 * TINY["steps"] ** 2 + TINY["p_steps"]},
     ("states.draw.items",)),
])
def test_layer_counts_follow_the_workload_path(workload, on_path, off_path, tmp_path):
    recorder = tracing.Recorder()
    p = _pass(workload, tmp_path, recorder)
    assert p.failed == 0, p.errors
    metrics = recorder.metrics()
    for name, want in on_path.items():
        assert metrics[name] == want, name
    for name in off_path:
        assert metrics[name] == 0, name
    for name in ("cli.self_s", "harness.self_s"):
        assert metrics[name] > 0
    assert recorder.absent_layers() == []


def _flip_first_digit(field: str) -> str:
    i = next((i for i, ch in enumerate(field) if ch in "123456789"), 0)
    return field[:i] + str((int(field[i]) + 1) % 10) + field[i + 1:]


def _corrupt_file(path, row, column, edit):
    with open(path) as fh:
        lines = fh.readlines()
    fields = lines[row + 1].rstrip("\n").split(",")
    fields[column] = edit(fields[column])
    lines[row + 1] = ",".join(fields) + "\n"
    with open(path, "w") as fh:
        fh.writelines(lines)


def _corrupting(monkeypatch, name, row, column, edit):
    """Make harness.<name> corrupt one field of the CSV it has just written."""
    orig = getattr(harness, name)

    def write(path, *args, **kwargs):
        orig(path, *args, **kwargs)
        _corrupt_file(path, row, column, edit)

    monkeypatch.setattr(harness, name, write)


SCATTER_FLOAT_COLUMNS = range(2, 11)  # purity .. upper_bound


@pytest.mark.parametrize("column", SCATTER_FLOAT_COLUMNS)
def test_flipped_digit_in_scatter_row_is_counted_as_failed(column, monkeypatch, tmp_path):
    _corrupting(monkeypatch, "write_scatter_csv", 5, column, _flip_first_digit)
    p = _pass("scatter", tmp_path)
    assert (p.attempted, p.failed) == (1, 1), p.errors


def test_true_violation_flag_is_counted_as_failed(monkeypatch, tmp_path):
    _corrupting(monkeypatch, "write_scatter_csv", 7, 12, lambda f: "true")
    p = _pass("scatter", tmp_path)
    assert (p.attempted, p.failed) == (1, 1)
    assert "violation" in p.errors[0]


@pytest.mark.parametrize("name, column, edit", [
    ("write_sweep_csv", 12, lambda f: "1e-07"),
    ("write_region_csv", 2, lambda f: "steerable?"),
])
def test_broken_families_output_is_counted_as_failed(name, column, edit, monkeypatch, tmp_path):
    _corrupting(monkeypatch, name, 3, column, edit)
    p = _pass("families", tmp_path)
    expected = 3 if name == "write_sweep_csv" else 1  # three sweeps, one scan
    assert (p.attempted, p.failed) == (4, expected), p.errors


def test_verify_reporting_a_violation_is_counted_as_failed(monkeypatch, tmp_path):
    orig = harness.run_falsification

    def with_violation(*args, **kwargs):
        summary = orig(*args, **kwargs)
        return harness.FalsificationSummary(
            summary.checked, summary.theorems, summary.worst_margin_lower,
            summary.worst_margin_upper, [{"index": 0, "theorem": "theorem1", "margin": -1.0}])

    monkeypatch.setattr(harness, "run_falsification", with_violation)
    p = _pass("verify", tmp_path)
    assert (p.attempted, p.failed) == (1, 1)


def test_reference_work_repeats_its_result():
    ref = reference.Reference()
    first = ref.run()
    checksum = ref.checksum
    second = ref.run()
    assert min(first + second) > 0
    assert ref.checksum == checksum


def test_output_that_changes_between_passes_is_counted_as_failed():
    p = run.Pass()
    p.digests = ["a", "b"]
    run._compare_digests(p, ["a", "c"])
    assert p.failed == 1


def test_missing_target_is_reported_absent_without_failing(monkeypatch, tmp_path):
    targets = tuple(
        (layer, mod, "draw_matrices_v2" if attr == "draw_matrices" else attr, count)
        for layer, mod, attr, count in tracing.TARGETS
    )
    monkeypatch.setattr(tracing, "TARGETS", targets)
    recorder = tracing.Recorder()
    p = _pass("scatter", tmp_path, recorder)
    assert p.failed == 0, p.errors
    assert recorder.missing == ["qsteer.states.draw_matrices_v2"]
    assert recorder.absent_layers() == ["states.draw"]
    assert recorder.metrics()["states.draw.items"] == 0


def test_exits_nonzero_without_a_result_when_sources_are_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "scatter", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
