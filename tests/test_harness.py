import os
import tracemalloc

import numpy as np
import pytest

from qsteer import batch, harness, measures, states
from qsteer.errors import IndexOutOfRange, ParameterOutOfRange
from qsteer.states import SamplerConfig


def plan_chunks(cfg, workers=1):
    """The plan's (start, ranks, rows) chunks, in index order."""
    return list(harness._run_chunks(harness.scatter_table, cfg, workers))


def csv_text(cfg, workers=1):
    return "\n".join(line for chunk in plan_chunks(cfg, workers)
                     for line in harness.scatter_csv_lines(*chunk))


def whole_table(cfg):
    """(ranks, rows) of the plan, the streamed chunks concatenated."""
    chunks = plan_chunks(cfg)
    return np.concatenate([c[1] for c in chunks]), np.vstack([c[2] for c in chunks])


def test_scatter_headers_are_stable():
    assert harness.SCATTER_HEADER == (
        "index,rank_k,purity,C,F,S,Q,D_A,D_B,lower_bound,upper_bound,"
        "violation_lower,violation_upper"
    )
    assert harness.SWEEP_HEADER == (
        "family,theta,eta_or_p,unitary_seed,C_num,C_closed,S_num,S_closed,"
        "F_num,F_closed,purity_num,purity_closed,max_abs_discrepancy"
    )
    assert harness.REGION_HEADER == "purity,C,region"


def test_scatter_is_byte_stable_across_runs_and_workers():
    # count spans three chunks so the worker pool actually splits the work
    cfg = SamplerConfig("ginibre", "uniform", seed=40, count=2 * harness.CHUNK + 17)
    base = csv_text(cfg)
    assert base == csv_text(cfg)
    assert base == csv_text(cfg, workers=3)
    assert base == csv_text(cfg, workers=8)


def test_scatter_csv_layout():
    cfg = SamplerConfig("ginibre", "uniform", seed=41, count=25)
    lines = csv_text(cfg).split("\n")
    assert lines[0] == harness.SCATTER_HEADER
    assert len(lines) == 26
    first = lines[1].split(",")
    assert len(first) == 13
    assert first[0] == "0"
    assert first[1] in ("1", "2", "3", "4")
    assert first[11] == "false" and first[12] == "false"
    # every float field round-trips
    for token in first[2:11]:
        float(token)


def test_scatter_csv_rows_match_per_cell_format():
    # rows across a chunk boundary, against a cell-by-cell repr of each value
    n = harness.CHUNK + 3
    rng = np.random.default_rng(3)
    rows = rng.random((n, batch.N_COLS))
    rows[::7, batch.COL_C] = 0.0
    rows[::11, batch.COL_Q] = 1e-300
    rows[::5, batch.COL_S] = rows[::5, batch.COL_UPPER] + 1.0
    ranks = rng.integers(1, 5, n)
    lower, upper = harness.bound_violations(rows)
    expect = [harness.SCATTER_HEADER] + [
        ",".join([str(i), str(int(ranks[i]))]
                 + [repr(float(x)) for x in rows[i, : batch.COL_UPPER + 1]]
                 + ["true" if lower[i] else "false", "true" if upper[i] else "false"])
        for i in range(n)
    ]
    chunks = [(0, ranks[: harness.CHUNK], rows[: harness.CHUNK]),
              (harness.CHUNK, ranks[harness.CHUNK :], rows[harness.CHUNK :])]
    head, tail = [list(harness.scatter_csv_lines(*chunk)) for chunk in chunks]
    # only the chunk that starts at record 0 carries the header
    assert head[0] == harness.SCATTER_HEADER and tail[0] == expect[harness.CHUNK + 1]
    assert head + tail == expect


def test_scatter_csv_shares_text_only_between_equal_bits():
    # upper_bound takes C's text only where the two have the same bits:
    # 0.0 == -0.0 print differently, and NaN never equals itself
    rng = np.random.default_rng(4)
    rows = rng.random((40, batch.N_COLS))
    rows[::2, batch.COL_UPPER] = rows[::2, batch.COL_C]
    rows[1::8, [batch.COL_C, batch.COL_UPPER]] = [0.0, -0.0]
    rows[3::8, [batch.COL_C, batch.COL_UPPER]] = [-0.0, 0.0]
    rows[5::8, [batch.COL_C, batch.COL_UPPER]] = np.nan
    rows[7::8, [batch.COL_C, batch.COL_UPPER]] = [np.nan, 0.5]
    ranks = rng.integers(1, 5, len(rows))
    lower, upper = harness.bound_violations(rows)
    expect = [
        ",".join([str(i + 9), str(int(ranks[i]))]
                 + [repr(float(x)) for x in rows[i, : batch.COL_UPPER + 1]]
                 + ["true" if lower[i] else "false", "true" if upper[i] else "false"])
        for i in range(len(rows))
    ]
    assert list(harness.scatter_csv_lines(9, ranks, rows)) == expect
    assert {line.split(",")[10] for line in expect[1::8]} == {"-0.0"}


@pytest.mark.parametrize("family", ["ad", "wu"])
def test_sweep_csv_shares_text_only_between_equal_bits(family):
    # repeated axis values, a -0.0 beside 0.0 on the theta axis, and closed
    # values with num's bits, the other zero, or NaN beside NaN and a number
    rng = np.random.default_rng(6)
    theta = np.array([0.0, -0.0, 0.3, 0.3, -0.0, 0.0, np.nan, 0.3])
    eta = np.array([0.1, 0.1, 0.0, -0.0, np.nan, np.nan, 0.1, 0.0])
    num = rng.random((8, 4))
    closed = num.copy()
    closed[::3] = rng.random((3, 4))
    num[1], closed[1] = [0.0, -0.0, 0.0, 0.25], [-0.0, 0.0, 0.0, 0.25]
    num[4], closed[4] = [np.nan, np.nan, 0.5, -0.0], [np.nan, 0.5, np.nan, -0.0]
    table = harness.SweepTable(family, theta, eta, num, closed)
    expect = [harness.SWEEP_HEADER] + [
        ",".join([family, repr(float(theta[i])), repr(float(eta[i])),
                  str(i) if family == "wu" else "",
                  *[repr(float(v)) for pair in zip(num[i], closed[i]) for v in pair],
                  repr(float(table.discrepancy[i]))])
        for i in range(len(theta))
    ]
    assert list(harness.sweep_csv_lines(table)) == expect


def test_bound_violations_set_the_csv_flags():
    # S beyond, on and inside each bound, by twice the slack; then S past
    # each bound by a margin that rounds to just below -SLACK, which the
    # flag must count as the violation the margin reports
    rows = np.zeros((6, batch.N_COLS))
    rows[:, batch.COL_LOWER] = [0.5, 0.5, 0.5, 0.5, 0.2697867137638703, 0.0]
    rows[:, batch.COL_UPPER] = [0.6, 0.6, 0.6, 0.6, 1.0, 0.31183145201048545]
    rows[:, batch.COL_S] = [0.5 - 2 * harness.SLACK, 0.5, 0.6, 0.6 + 2 * harness.SLACK,
                            0.2697867127638703, 0.3118314530104855]
    lower, upper = harness.bound_violations(rows)
    assert lower.tolist() == [True, False, False, False, True, False]
    assert upper.tolist() == [False, False, False, True, False, True]
    margin_lower, margin_upper = harness.bound_margins(
        rows[:, batch.COL_S], rows[:, batch.COL_LOWER], rows[:, batch.COL_UPPER])
    assert margin_lower[4] < -harness.SLACK and margin_upper[5] < -harness.SLACK
    lines = list(harness.scatter_csv_lines(0, np.ones(6, np.int64), rows))[1:]
    assert [line.split(",")[11:] for line in lines] == [
        ["true", "false"], ["false", "false"], ["false", "false"], ["false", "true"],
        ["true", "false"], ["false", "true"],
    ]


def test_scatter_table_records_recompute():
    cfg = SamplerConfig("ginibre", "uniform", seed=42, count=30)
    start, ranks, rows = harness.scatter_table(cfg, 0, 30)
    assert start == 0 and len(ranks) == len(rows) == 30
    # a chunk that starts inside the plan holds the same records
    start, mid_ranks, mid_rows = harness.scatter_table(cfg, 10, 20)
    assert start == 10 and mid_ranks.tolist() == ranks[10:20].tolist()
    assert np.abs(mid_rows - rows[10:20]).max() <= 1e-12
    pick = rows[17]
    rep = measures.report(states.random_state(cfg, 17))
    assert pick[batch.COL_C] == pytest.approx(rep.concurrence, abs=1e-12)
    assert pick[batch.COL_S] == pytest.approx(rep.steerability, abs=1e-12)
    assert pick[batch.COL_PURITY] == pytest.approx(rep.purity, abs=1e-12)
    assert pick[batch.COL_LOWER] == pytest.approx(rep.lower_bound, abs=1e-12)
    lower, upper = harness.bound_violations(rows)
    assert not lower[17] and not upper[17]
    assert 1 <= ranks[17] <= 4


def test_scatter_table_scales_to_empty_and_invalid():
    cfg = SamplerConfig("ginibre", "uniform", seed=1, count=0)
    # an empty plan is one empty chunk at every worker count
    for workers in (1, 3):
        [(start, ranks, rows)] = plan_chunks(cfg, workers)
        assert start == 0 and ranks.shape == (0,) and rows.shape == (0, batch.N_COLS)
    with pytest.raises(IndexOutOfRange):
        harness.scatter_table(cfg, 0, 1)
    # a bad worker count is rejected at the call, before any chunk is drawn
    with pytest.raises(ParameterOutOfRange):
        harness._run_chunks(harness.scatter_table, cfg, 0)


def test_write_scatter_csv_round_trip(tmp_path):
    cfg = SamplerConfig("ginibre", 1, seed=2, count=12)
    path = tmp_path / "scatter.csv"
    harness.write_scatter_csv(path, cfg)
    text = path.read_text()
    assert text == "\n".join(harness.scatter_csv_lines(*harness.scatter_table(cfg, 0, 12))) + "\n"


def test_sweep_csv_fields(tmp_path):
    ad = list(harness.sweep_csv_lines(harness.run_family_sweep("ad", theta_steps=3, eta_steps=3)))
    wu_table = harness.run_family_sweep("wu", p_steps=3, seed=0)
    wu = list(harness.sweep_csv_lines(wu_table))
    assert ad[0] == wu[0] == harness.SWEEP_HEADER
    assert (len(ad), len(wu)) == (10, 4)
    ad_fields = ad[1].split(",")
    assert ad_fields[0] == "ad"
    assert ad_fields[3] == ""  # no unitary for the damping families
    wu_fields = wu[-1].split(",")
    assert wu_fields[0] == "wu"
    assert wu_fields[3] == "2"
    # num/closed pairs of C, S, F, purity, then their largest gap
    values = [float(x) for x in wu_fields[4:]]
    assert values[0::2][:4] == wu_table.num[2].tolist()
    assert values[1::2] == wu_table.closed[2].tolist()
    assert values[8] == wu_table.discrepancy[2]
    path = tmp_path / "sweep.csv"
    harness.write_sweep_csv(path, wu_table)
    assert path.read_text() == "\n".join(wu) + "\n"


def test_region_csv_round_trip(tmp_path):
    result = harness.run_region_scan(3, 3)
    lines = "\n".join(harness.region_csv_lines(result)).split("\n")
    assert lines[0] == harness.REGION_HEADER
    assert len(lines) == 10
    # one line per cell, purity-major, in the grid's order
    for n, line in enumerate(lines[1:]):
        i, j = divmod(n, 3)
        u, c, region = line.split(",")
        assert (float(u), float(c)) == (result.purities[i], result.concurrences[j])
        assert region == harness.REGION_LABELS[result.regions[i, j]]
    path = tmp_path / "region.csv"
    harness.write_region_csv(path, result)
    assert path.read_text() == "\n".join(lines) + "\n"
    bpath = tmp_path / "boundary.csv"
    harness.write_boundary_csv(bpath, result.criterion_boundary)
    head = bpath.read_text().split("\n")[0]
    assert head == "purity,C"


def test_region_csv_matches_the_per_cell_format():
    result = harness.run_region_scan(40, 40)
    assert set(result.regions.ravel().tolist()) == {0, 1, 2, 3}
    expect = [harness.REGION_HEADER] + [
        "\n".join(f"{u!r},{c!r},{harness.REGION_LABELS[r]}"
                  for c, r in zip(result.concurrences.tolist(), codes))
        for u, codes in zip(result.purities.tolist(), result.regions.tolist())
    ]
    assert list(harness.region_csv_lines(result)) == expect


CFG = SamplerConfig("ginibre", "uniform", seed=1, count=4)


@pytest.mark.parametrize("call", [
    lambda: harness.run_family_sweep("ad", theta_steps=2.5),
    lambda: harness.run_family_sweep("pd", eta_steps=np.float64(3.0)),
    lambda: harness.run_family_sweep("wu", p_steps=3.5),
    lambda: harness.run_region_scan(2.5, 3),
    lambda: harness.run_region_scan(3, True),
    lambda: states.random_state(CFG, 1.5),
    lambda: states.random_state(CFG, True),
    lambda: states.draw_matrices(CFG, 0.5, 2),
    lambda: states.draw_matrices(CFG, 0, 2.0),
    lambda: states.draw_matrices(CFG, "1", 2),
    lambda: states.draw_matrices(CFG, 0, "2"),
    lambda: states.draw_matrices(CFG, None, 2),
    lambda: states.random_unitary(0, True),
    lambda: states.random_unitary(0, 1.5),
    lambda: harness.write_scatter_csv(os.devnull, CFG, workers=1.5),
    lambda: harness.run_falsification(CFG, workers=True),
], ids=["theta-steps", "eta-steps", "p-steps", "purity-steps", "c-steps",
        "index-float", "index-bool", "start", "stop", "start-str", "stop-str",
        "start-none", "unitary-bool", "unitary-float",
        "workers-float", "workers-bool"])
def test_sizes_and_indices_must_be_integers(call):
    with pytest.raises(ParameterOutOfRange, match="integer"):
        call()


def test_falsification_clean_run():
    cfg = SamplerConfig("ginibre", "uniform", seed=50, count=800)
    summary = harness.run_falsification(cfg)
    assert summary.checked == 800
    assert summary.theorems == ("theorem1", "theorem2")
    assert summary.violations == []
    assert summary.worst_margin_lower > -1e-9
    assert summary.worst_margin_upper > -1e-9
    d = summary.as_dict()
    assert d["checked"] == 800 and d["violations"] == []


def test_falsification_empty_plan():
    cfg = SamplerConfig("ginibre", "uniform", seed=0, count=0)
    summary = harness.run_falsification(cfg)
    assert summary.checked == 0
    assert summary.worst_margin_lower == 0.0
    assert summary.violations == []


def test_falsification_margins_match_table():
    cfg = SamplerConfig("ginibre", "uniform", seed=52, count=64)
    ranks, rows = whole_table(cfg)
    s = rows[:, batch.COL_S]
    margin_upper = rows[:, batch.COL_UPPER] - s
    margin_lower = s - rows[:, batch.COL_LOWER]
    assert margin_upper.min() > -1e-9 and margin_lower.min() > -1e-9
    summary = harness.run_falsification(cfg)
    assert summary.worst_margin_lower == pytest.approx(margin_lower.min(), abs=1e-15)
    assert summary.worst_margin_upper == pytest.approx(margin_upper.min(), abs=1e-15)


def _counted(monkeypatch, targets):
    """Wrap each (owner, name) in ``targets``; return the list of calls."""
    calls = []
    for owner, name in targets:
        def wrapper(*args, _orig=getattr(owner, name), _name=name, **kwargs):
            calls.append(_name)
            return _orig(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)
    return calls


@pytest.mark.parametrize("family", ["ad", "pd", "wu"])
def test_family_sweep_builds_and_checks_one_stack(family, monkeypatch):
    # structural guard: one stack of exact factors from one Kraus stack,
    # measured in one call with no eigensolver and no matrix validation;
    # counts calls, no timing
    built = _counted(monkeypatch, [(states.DensityMatrix, "__post_init__")])
    kraus = _counted(monkeypatch, [(harness, "damping_operators")])
    matrix_route = _counted(monkeypatch, [
        (batch, "validate_stack"), (states, "validate_stack"), (batch, "measure_rows"),
        (np.linalg, "eigvalsh"), (np.linalg, "eigh")])
    measured = _counted(monkeypatch, [(batch, "measure_factors")])
    table = harness.run_family_sweep(family, theta_steps=50, eta_steps=50, p_steps=1000)
    assert table.num.shape == table.closed.shape == (1000 if family == "wu" else 2500, 4)
    assert built == []
    assert len(kraus) == (0 if family == "wu" else 1)
    assert matrix_route == []
    assert len(measured) == 1


def _counted_args(monkeypatch, owner, name):
    """Wrap owner.name; return the list of the first arguments of its calls."""
    args = []

    def wrapper(first, *rest, _orig=getattr(owner, name), **kwargs):
        args.append(first)
        return _orig(first, *rest, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return args


@pytest.mark.parametrize("family, row", [("ad", 0), ("pd", 1)], ids=["ad", "pd"])
def test_family_sweep_stack_equals_the_one_channel_builders(family, row, monkeypatch):
    # the sweep's etas run from 0 to 1; bits, through int64 views, so that a
    # zero of the other sign counts as a change
    etas = np.linspace(0.0, 1.0, 50)
    assert etas[0] == 0.0 and etas[-1] == 1.0
    stack = states.damping_operators(etas, row)
    one_by_one = np.array([states.damping_operators(eta, row) for eta in etas])
    assert stack.shape == one_by_one.shape == (50, 2, 2, 2)
    assert np.array_equal(stack.view(np.int64), one_by_one.view(np.int64))
    factors = _counted_args(monkeypatch, batch, "measure_factors")
    harness.run_family_sweep(family, theta_steps=50, eta_steps=50)
    # column c of factor (i, j) is (K_c x I) a_i, for eta j's operators K_c
    amps = states.bell_like_amplitudes(np.linspace(0.05, np.pi / 2.0 - 0.05, 50))
    ops = np.array([[np.kron(k, np.eye(2)) for k in operators] for operators in one_by_one])
    expect = (ops @ amps[:, None, None, :, None])[..., 0].transpose(0, 1, 3, 2).reshape(2500, 4, 2)
    (x,) = factors
    assert np.array_equal(np.ascontiguousarray(x).view(np.int64),
                          np.ascontiguousarray(expect).view(np.int64))


def _one_shot_regions(purities, concs):
    """The region codes of the whole grid from one margin call and one
    np.select, as run_region_scan made them before it worked in blocks."""
    _, cmax = measures.isotropic_envelope(purities)
    margin = measures.wu_steering_margin(concs[None, :], purities[:, None])
    return np.select(
        [concs[None, :] > cmax[:, None] + states.SLACK, margin > 0.0,
         np.broadcast_to(concs > 0.0, margin.shape)],
        [0, 1, 2], default=3,
    ).astype(np.int8)


def test_region_scan_makes_one_margin_call_per_block(monkeypatch):
    # blocks of whole purity rows, never a call per row or per cell: a block
    # of 2**14 cells is 40 rows of 400
    margins = _counted(monkeypatch, [(measures, "wu_steering_margin")])
    result = harness.run_region_scan(400, 400)
    assert result.regions.shape == (400, 400)
    assert len(margins) == 10


# (purity steps, C steps, blocks): purity counts that are no multiple of a
# block's rows, and rows longer than a block, so one row a block
@pytest.mark.parametrize("purity_steps, c_steps, blocks",
                         [(2, 2, 1), (41, 400, 2), (3, 20000, 3)])
def test_region_scan_blocks_equal_the_one_shot_grid(purity_steps, c_steps, blocks,
                                                    monkeypatch):
    margins = _counted(monkeypatch, [(measures, "wu_steering_margin")])
    result = harness.run_region_scan(purity_steps, c_steps)
    assert len(margins) == blocks
    assert result.regions.dtype == np.int8
    assert np.array_equal(result.regions,
                          _one_shot_regions(result.purities, result.concurrences))


def test_region_scan_memory_does_not_grow_with_the_grid():
    # the grid's 1 MB of int8 codes, no float64 or int64 grid (23 MB when
    # the scan made its margin and region choice over the whole grid)
    harness.run_region_scan(1000, 1000)
    tracemalloc.start()
    try:
        harness.run_region_scan(1000, 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 << 20, peak
