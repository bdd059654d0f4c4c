import math

import numpy as np
import pytest

from qsteer import harness, measures, states
from qsteer.errors import ParameterOutOfRange


def test_ad_sweep_small_grid():
    t = harness.run_family_sweep("ad", theta_steps=8, eta_steps=8)
    assert t.family == "ad"
    assert len(t.theta) == len(t.eta_or_p) == 64
    assert t.discrepancy.max() <= 1e-8
    # F on this family obeys F^2 = 2 C^2 + 2 purity - 1
    c, _, f, pur = t.closed.T
    assert f == pytest.approx(np.sqrt(2.0 * c**2 + 2.0 * pur - 1.0), abs=1e-12)


def test_pd_sweep_small_grid():
    t = harness.run_family_sweep("pd", theta_steps=8, eta_steps=8)
    assert t.family == "pd"
    assert len(t.theta) == len(t.eta_or_p) == 64
    c, s, f, _ = t.closed.T
    assert (s == c).all()
    assert t.discrepancy.max() <= 1e-8
    assert f == pytest.approx(np.sqrt(1.0 + 2.0 * c**2), abs=1e-12)


def test_wu_sweep_matches_closed_forms():
    t = harness.run_family_sweep("wu", p_steps=30, seed=3)
    assert t.family == "wu"
    assert len(t.theta) == 30
    assert ((0.0 <= t.eta_or_p) & (t.eta_or_p <= 1.0)).all()
    assert ((0.05 <= t.theta) & (t.theta <= math.pi / 2.0 - 0.05)).all()
    assert t.discrepancy.max() <= 1e-8
    assert np.abs(t.num[:, 3] - t.closed[:, 3]).max() <= 1e-10
    # steerability is recoverable from (C, purity) alone
    for c_num, s_num, _, p_num in t.num.tolist():
        s43 = measures.wu_steerability_from_c_purity(c_num, p_num)
        assert abs(s43 - s_num) <= 1e-8


def test_wu_sweep_is_deterministic():
    def lines(seed):
        return list(harness.sweep_csv_lines(harness.run_family_sweep("wu", p_steps=10, seed=seed)))

    assert lines(12) == lines(12)
    assert lines(12) != lines(13)


def test_sweep_argument_validation():
    with pytest.raises(ParameterOutOfRange):
        harness.run_family_sweep("xy")
    with pytest.raises(ParameterOutOfRange):
        harness.run_family_sweep("ad", theta_steps=1)
    with pytest.raises(ParameterOutOfRange):
        harness.run_family_sweep("wu", p_steps=1)


def test_boundary_concurrence_closed_form():
    # the criterion crosses zero exactly on the curve, and the curve meets
    # the realizability envelope at purity 1/2
    for p in (0.6, 0.75, 0.9, 1.0):
        c = harness._boundary_concurrence(p)
        pur = (1.0 + 3.0 * p * p) / 4.0
        assert measures.wu_steering_margin(c, pur) == pytest.approx(0.0, abs=1e-12)
    p0 = 1.0 / math.sqrt(3.0)
    meet = harness._boundary_concurrence(p0)
    assert meet == pytest.approx((math.sqrt(3.0) - 1.0) / 2.0, abs=1e-12)
    assert meet == pytest.approx((3.0 * p0 - 1.0) / 2.0, abs=1e-12)
    assert harness._boundary_concurrence(1.0) == pytest.approx(0.0, abs=1e-15)


def test_region_scan_known_cells():
    result = harness.run_region_scan(4, 5)
    assert result.regions.shape == (4, 5)
    table = {
        (round(u, 6), round(c, 6)): harness.REGION_LABELS[result.regions[i, j]]
        for i, u in enumerate(result.purities.tolist())
        for j, c in enumerate(result.concurrences.tolist())
    }
    assert len(table) == 20
    assert table[(0.25, 0.0)] == "separable-boundary"
    assert table[(0.25, 0.5)] == "unrealizable"
    assert table[(1.0, 0.0)] == "separable-boundary"
    assert table[(1.0, 0.25)] == "steerable"
    assert table[(1.0, 1.0)] == "steerable"
    assert table[(0.5, 0.25)] == "entangled-unknown"
    assert table[(0.5, 0.5)] == "unrealizable"


def test_region_scan_companion_series():
    result = harness.run_region_scan(7, 4)
    assert len(result.werner_envelope) == 7
    # envelope starts at C = 0 (maximally mixed) and ends at C = 1 (pure Bell)
    assert result.werner_envelope[0] == (0.25, 0.0)
    assert result.werner_envelope[-1][0] == 1.0
    assert result.werner_envelope[-1][1] == pytest.approx(1.0, abs=1e-12)
    # the criterion boundary only exists where steerable states are realizable
    assert all(u >= 0.5 - 1e-12 for u, _ in result.criterion_boundary)
    for u, c in result.criterion_boundary:
        p = math.sqrt((4.0 * u - 1.0) / 3.0)
        assert c == pytest.approx(harness._boundary_concurrence(p), abs=1e-15)
    with pytest.raises(ParameterOutOfRange):
        harness.run_region_scan(1, 5)


def test_werner_family_walks_the_envelope():
    # werner_like states sit exactly on the envelope C = (3p - 1)/2
    phi = states.bell_like(np.pi / 4)
    for p in (0.4, 0.6, 0.9):
        rep = measures.report(states.werner_like(p, phi))
        assert rep.concurrence == pytest.approx(max(0.0, (3.0 * p - 1.0) / 2.0), abs=1e-12)
        assert rep.purity == pytest.approx((1.0 + 3.0 * p * p) / 4.0, abs=1e-12)
