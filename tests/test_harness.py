import numpy as np
import pytest

from qsteer import batch, harness, measures, states
from qsteer.errors import ParameterOutOfRange
from qsteer.states import SamplerConfig


def csv_text(cfg, workers=1):
    ranks, rows = harness.scatter_table(cfg, workers=workers)
    return "\n".join(harness.scatter_csv_lines(ranks, rows))


def test_fmt_tokens():
    assert harness._fmt(True) == "true"
    assert harness._fmt(False) == "false"
    assert harness._fmt(None) == ""
    assert harness._fmt(7) == "7"
    assert harness._fmt(0.1) == "0.1"
    assert harness._fmt(1e-9) == "1e-09"
    assert harness._fmt(np.float64(0.25)) == "0.25"


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


def test_bound_violations_set_the_csv_flags():
    # S beyond, on and inside each bound, by twice the slack
    rows = np.zeros((4, batch.N_COLS))
    rows[:, batch.COL_LOWER] = 0.5
    rows[:, batch.COL_UPPER] = 0.6
    rows[:, batch.COL_S] = [0.5 - 2 * harness.SLACK, 0.5, 0.6, 0.6 + 2 * harness.SLACK]
    lower, upper = harness.bound_violations(rows)
    assert lower.tolist() == [True, False, False, False]
    assert upper.tolist() == [False, False, False, True]
    lines = list(harness.scatter_csv_lines(np.ones(4, np.int64), rows))[1:]
    assert [line.split(",")[11:] for line in lines] == [
        ["true", "false"], ["false", "false"], ["false", "false"], ["false", "true"]
    ]


def test_run_scatter_records_recompute():
    cfg = SamplerConfig("ginibre", "uniform", seed=42, count=30)
    records = harness.run_scatter(cfg)
    assert [r.index for r in records] == list(range(30))
    pick = records[17]
    rep = measures.report(states.random_state(cfg, 17))
    assert pick.concurrence == pytest.approx(rep.concurrence, abs=1e-12)
    assert pick.steerability == pytest.approx(rep.steerability, abs=1e-12)
    assert pick.purity == pytest.approx(rep.purity, abs=1e-12)
    assert pick.lower_bound == pytest.approx(rep.lower_bound, abs=1e-12)
    assert not pick.violation_lower and not pick.violation_upper
    assert 1 <= pick.rank_k <= 4


def test_scatter_table_scales_to_empty_and_invalid():
    cfg = SamplerConfig("ginibre", "uniform", seed=1, count=0)
    ranks, rows = harness.scatter_table(cfg)
    assert ranks.shape == (0,) and rows.shape == (0, batch.N_COLS)
    with pytest.raises(ParameterOutOfRange):
        harness.scatter_table(cfg, workers=0)


def test_write_scatter_csv_round_trip(tmp_path):
    cfg = SamplerConfig("haar-pure", "uniform", seed=2, count=12)
    ranks, rows = harness.scatter_table(cfg)
    path = tmp_path / "scatter.csv"
    harness.write_scatter_csv(path, ranks, rows)
    text = path.read_text()
    assert text == "\n".join(harness.scatter_csv_lines(ranks, rows)) + "\n"


def test_sweep_csv_fields(tmp_path):
    records = harness.run_family_sweep("ad", theta_steps=3, eta_steps=3)
    records += harness.run_family_sweep("wu", p_steps=3, seed=0)
    lines = list(harness.sweep_csv_lines(records))
    assert lines[0] == harness.SWEEP_HEADER
    assert len(lines) == 13
    ad_fields = lines[1].split(",")
    assert ad_fields[0] == "ad"
    assert ad_fields[3] == ""  # no unitary for the damping families
    wu_fields = lines[-1].split(",")
    assert wu_fields[0] == "wu"
    assert wu_fields[3] == "2"
    path = tmp_path / "sweep.csv"
    harness.write_sweep_csv(path, records)
    assert path.read_text() == "\n".join(lines) + "\n"


def test_region_csv_round_trip(tmp_path):
    result = harness.run_region_scan(3, 3)
    lines = list(harness.region_csv_lines(result.records))
    assert lines[0] == harness.REGION_HEADER
    assert len(lines) == 10
    path = tmp_path / "region.csv"
    harness.write_region_csv(path, result)
    assert path.read_text() == "\n".join(lines) + "\n"
    bpath = tmp_path / "boundary.csv"
    harness.write_boundary_csv(bpath, result.criterion_boundary)
    head = bpath.read_text().split("\n")[0]
    assert head == "purity,C"


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


def test_falsification_theorem_selection():
    cfg = SamplerConfig("haar-pure", "uniform", seed=51, count=100)
    one = harness.run_falsification(cfg, theorems=("theorem1",))
    assert one.theorems == ("theorem1",)
    with pytest.raises(ParameterOutOfRange):
        harness.run_falsification(cfg, theorems=("theorem3",))
    with pytest.raises(ParameterOutOfRange):
        harness.run_falsification(cfg, theorems=())


def test_falsification_empty_plan():
    cfg = SamplerConfig("ginibre", "uniform", seed=0, count=0)
    summary = harness.run_falsification(cfg)
    assert summary.checked == 0
    assert summary.worst_margin_lower == 0.0
    assert summary.violations == []


def test_falsification_margins_match_table():
    cfg = SamplerConfig("ginibre", "uniform", seed=52, count=64)
    ranks, rows = harness.scatter_table(cfg)
    s = rows[:, batch.COL_S]
    margin_upper = rows[:, batch.COL_UPPER] - s
    margin_lower = s - rows[:, batch.COL_LOWER]
    assert margin_upper.min() > -1e-9 and margin_lower.min() > -1e-9
    summary = harness.run_falsification(cfg)
    assert summary.worst_margin_lower == pytest.approx(margin_lower.min(), abs=1e-15)
    assert summary.worst_margin_upper == pytest.approx(margin_upper.min(), abs=1e-15)
