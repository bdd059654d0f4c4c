"""sample and verify stream the plan chunk by chunk.

The streamed CSV and summary must equal an eager reference: the whole plan
drawn and measured as one table, then fed to the whole-table formatter and
reducer below.  Peak memory must not grow with the count.
"""

import tracemalloc

import numpy as np
import pytest

from qsteer import batch, cli, harness, states
from qsteer.errors import ParameterOutOfRange
from qsteer.states import SamplerConfig

CHUNK = harness.CHUNK


def eager_table(cfg):
    """(ranks, rows) of the whole plan from one draw and one measure call."""
    if cfg.count == 0:
        return np.empty(0, np.int64), np.empty((0, batch.N_COLS))
    rhos, ranks = states.draw_matrices(cfg, 0, cfg.count)
    return ranks, batch.measure_rows(rhos)


def eager_csv(ranks, rows):
    lower, upper = harness.bound_violations(rows)
    lines = [harness.SCATTER_HEADER] + [
        ",".join([str(i), str(int(ranks[i]))]
                 + [repr(float(x)) for x in rows[i, batch.COL_PURITY : batch.COL_UPPER + 1]]
                 + ["true" if lower[i] else "false", "true" if upper[i] else "false"])
        for i in range(len(rows))
    ]
    return "".join(line + "\n" for line in lines)


def eager_summary(cfg, rows):
    s = rows[:, batch.COL_S]
    margins = (s - rows[:, batch.COL_LOWER], rows[:, batch.COL_UPPER] - s)
    violations = []
    for theorem, flags, margin in zip(("theorem1", "theorem2"),
                                      harness.bound_violations(rows), margins):
        violations += [{"index": int(i), "theorem": theorem, "margin": float(margin[i])}
                       for i in np.nonzero(flags)[0]]
    violations.sort(key=lambda v: v["index"])
    return {
        "checked": cfg.count,
        "theorems": ["theorem1", "theorem2"],
        "worst_margin_lower": float(margins[0].min()) if cfg.count else 0.0,
        "worst_margin_upper": float(margins[1].min()) if cfg.count else 0.0,
        "violations": violations,
    }


COUNTS = [0, 100, 2 * CHUNK + 7]
COUNT_IDS = ["empty", "under-one-chunk", "two-chunks-and-a-bit"]


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("count", COUNTS, ids=COUNT_IDS)
def test_streamed_sample_equals_eager_reference(count, workers, tmp_path):
    cfg = SamplerConfig("ginibre", "uniform", seed=11, count=count)
    out = tmp_path / "scatter.csv"
    argv = ["sample", "--count", str(count), "--seed", "11", "--workers", str(workers)]
    assert cli.main(argv + ["--out", str(out)]) == 0
    assert out.read_text() == eager_csv(*eager_table(cfg))
    if count == 0:
        assert out.read_text() == harness.SCATTER_HEADER + "\n"


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("count", COUNTS, ids=COUNT_IDS)
def test_streamed_verify_equals_eager_reference(count, workers):
    cfg = SamplerConfig("ginibre", "uniform", seed=12, count=count)
    summary = harness.run_falsification(cfg, workers=workers)
    assert summary.as_dict() == eager_summary(cfg, eager_table(cfg)[1])
    if count == 0:
        assert (summary.worst_margin_lower, summary.worst_margin_upper) == (0.0, 0.0)


def test_streamed_violations_carry_plan_indices(monkeypatch):
    # force violating margins in two chunks, with both theorems on one row of
    # the second
    def flagged(rows):
        lower, upper = np.ones(len(rows)), np.ones(len(rows))
        lower[[3, 2]] = -1.0
        upper[2] = -1.0
        return lower, upper

    monkeypatch.setattr(harness, "bound_margins", flagged)
    cfg = SamplerConfig("ginibre", "uniform", seed=13, count=CHUNK + 5)
    got = harness.run_falsification(cfg, workers=2).violations
    assert [(v["index"], v["theorem"]) for v in got] == [
        (2, "theorem1"), (2, "theorem2"), (3, "theorem1"),
        (CHUNK + 2, "theorem1"), (CHUNK + 2, "theorem2"), (CHUNK + 3, "theorem1"),
    ]


def test_one_worker_starts_no_pool(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was started")

    monkeypatch.setattr(harness, "ThreadPoolExecutor", no_pool)
    cfg = SamplerConfig("ginibre", "uniform", seed=14, count=3 * CHUNK)
    assert [start for start, _, _ in harness.scatter_table(cfg, workers=1)] == [
        0, CHUNK, 2 * CHUNK]
    # a plan of one chunk needs no pool at any worker count
    small = SamplerConfig("ginibre", "uniform", seed=14, count=CHUNK)
    assert len(list(harness.scatter_table(small, workers=4))) == 1


def test_pool_measures_a_bounded_window_ahead(monkeypatch):
    drawn = []

    def draw(cfg, start, stop):
        drawn.append(start)
        return states.draw_matrices(cfg, start, stop)

    monkeypatch.setattr(harness, "draw_matrices", draw)
    workers = 2
    cfg = SamplerConfig("ginibre", "uniform", seed=15, count=20 * CHUNK)
    chunks = harness.scatter_table(cfg, workers=workers)
    start, _, _ = next(chunks)
    assert start == 0
    chunks.close()  # cancels what has not started; waits for what has
    assert len(drawn) <= 2 * workers
    assert sorted(drawn) == [CHUNK * i for i in range(len(drawn))]


@pytest.mark.parametrize("workers", [1, 3])
def test_error_in_a_chunk_reaches_the_consumer(workers, monkeypatch):
    def measure(rhos):
        raise ParameterOutOfRange("bad chunk")

    monkeypatch.setattr(batch, "measure_rows", measure)
    cfg = SamplerConfig("ginibre", "uniform", seed=16, count=3 * CHUNK)
    with pytest.raises(ParameterOutOfRange, match="bad chunk"):
        harness.run_falsification(cfg, workers=workers)


def _peak_bytes(argv) -> int:
    tracemalloc.start()
    try:
        cli.main(argv)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("command", ["sample", "verify"])
def test_peak_memory_is_flat_in_the_count(command, tmp_path, capsys):
    # tracemalloc sees numpy's buffers.  A whole-table pipeline holds one
    # more measure table per CHUNK records (plus a merged copy), so from
    # 2 * CHUNK to 8 * CHUNK records its peak grows by several tables;
    # a streamed one holds a single chunk at any count.
    def argv(count):
        args = [command, "--count", str(count), "--seed", "5", "--workers", "1"]
        return args + (["--out", str(tmp_path / "scatter.csv")] if command == "sample" else [])

    cli.main(argv(CHUNK))  # first-call allocations (imports, caches) out of the way
    small = _peak_bytes(argv(2 * CHUNK))
    large = _peak_bytes(argv(8 * CHUNK))
    capsys.readouterr()
    one_table = CHUNK * batch.N_COLS * 8
    assert large < 1.5 * small
    assert large - small < one_table, (small, large)
