"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the measured worst
cases; each criterion asserts at its stated tolerance.  Criteria 2, 3 and 8
share a single 100000-state table, computed once per session.
"""

import math
import time

import numpy as np

from qsteer import batch, cli, harness, measures, states
from qsteer.states import SamplerConfig

BIG_SEED = 7
BIG_COUNT = 100_000

_CACHE = {}


def whole_table(cfg):
    """(ranks, rows) of the plan, drawn and measured a CHUNK at a time."""
    chunks = [harness.scatter_table(cfg, start, min(start + harness.CHUNK, cfg.count))
              for start in range(0, cfg.count, harness.CHUNK)]
    return np.concatenate([c[1] for c in chunks]), np.vstack([c[2] for c in chunks])


def big_table():
    if "rows" not in _CACHE:
        cfg = SamplerConfig("ginibre", "uniform", seed=BIG_SEED, count=BIG_COUNT)
        ranks, rows = whole_table(cfg)
        _CACHE.update(cfg=cfg, ranks=ranks, rows=rows)
    return _CACHE


def announce(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} {detail}")


def damping_grid(family, steps=50):
    thetas = np.linspace(0.05, math.pi / 2.0 - 0.05, steps)
    etas = np.linspace(0.0, 1.0, steps)
    row = 0 if family == "ad" else 1
    mats = np.empty((steps * steps, 4, 4), np.complex128)
    params = []
    i = 0
    for th in thetas:
        base = states.density_from_pure(states.bell_like(th)).matrix
        for eta in etas:
            # K0 = diag(1, sqrt(1 - eta)) and K1 = sqrt(eta)|row><1|, summed as
            # (K x I) rho (K x I)^dag here, apart from the sweep's Kraus code
            k1 = np.zeros((2, 2))
            k1[row, 1] = math.sqrt(eta)
            ops = [np.kron(k, np.eye(2)) for k in (np.diag([1.0, math.sqrt(1.0 - eta)]), k1)]
            mats[i] = sum(op @ base @ op.conj().T for op in ops)
            params.append((th, eta))
            i += 1
    return params, mats, batch.measure_rows(mats)


def test_criterion_01_pure_state_equality():
    cfg = SamplerConfig("ginibre", 1, seed=101, count=10_000)
    t0 = time.perf_counter()
    _, rows = whole_table(cfg)
    dt = time.perf_counter() - t0
    worst = float(np.abs(rows[:, batch.COL_S] - rows[:, batch.COL_C]).max())
    ok = worst <= 1e-9 and dt < 5.0
    announce(1, ok, f"max |S - C| = {worst:.3e} over 10^4 pure states in {dt:.2f} s "
                    f"(limits 1e-9, 5 s)")
    assert worst <= 1e-9
    assert dt < 5.0


def test_criterion_02_bound_falsification():
    cfg = SamplerConfig("ginibre", "uniform", seed=BIG_SEED, count=BIG_COUNT)
    t0 = time.perf_counter()
    summary = harness.run_falsification(cfg, workers=1)
    dt = time.perf_counter() - t0
    ok = (not summary.violations and summary.worst_margin_lower > -1e-9
          and summary.worst_margin_upper > -1e-9 and dt < 60.0)
    announce(2, ok, f"{summary.checked} states, 0 expected violations, got "
                    f"{len(summary.violations)}; worst margins lower {summary.worst_margin_lower:.3e}, "
                    f"upper {summary.worst_margin_upper:.3e}; {dt:.1f} s (limit 60 s)")
    assert summary.violations == []
    assert summary.worst_margin_lower > -1e-9
    assert summary.worst_margin_upper > -1e-9
    assert dt < 60.0


def test_criterion_03_coherence_identity_and_inequality():
    table = big_table()
    rows = table["rows"]
    da2 = rows[:, batch.COL_DA] ** 2
    db2 = rows[:, batch.COL_DB] ** 2
    f2 = rows[:, batch.COL_F] ** 2
    c2 = rows[:, batch.COL_C] ** 2
    pur = rows[:, batch.COL_PURITY]
    identity_dev = float(np.abs((1.0 + da2 + db2 + f2) / 4.0 - pur).max())
    overshoot = float(((da2 + db2) / 2.0 + c2 - pur).max())
    # complementarity, C^2 + max(D_A, D_B)^2 <= 1: C is a convex roof and
    # sqrt(1 - |a|^2) is concave; a pure state (rank 1) meets it with equality
    slack = 1.0 - c2 - np.maximum(da2, db2)
    excess = float(-slack.min())
    pure_dev = float(np.abs(slack[table["ranks"] == 1]).max())
    ok = identity_dev <= 1e-9 and overshoot <= 1e-9 and excess <= 1e-9 and pure_dev <= 3e-15
    announce(3, ok, f"identity |(1 + D_A^2 + D_B^2 + F^2)/4 - purity| max = "
                    f"{identity_dev:.3e}, inequality overshoot max = {overshoot:.3e}, "
                    f"C^2 + max(D_A, D_B)^2 - 1 max = {excess:.3e} (limits 1e-9); "
                    f"rank-1 |1 - C^2 - max(D_A, D_B)^2| max = {pure_dev:.3e} "
                    f"(limit 3e-15)")
    assert identity_dev <= 1e-9
    assert overshoot <= 1e-9
    assert excess <= 1e-9
    assert pure_dev <= 3e-15


def test_criterion_04_amplitude_damping_family():
    table = harness.run_family_sweep("ad", theta_steps=50, eta_steps=50)
    worst = float(table.discrepancy.max())
    params, _, rows = damping_grid("ad")
    lam = rows[:, batch.COL_L1 : batch.COL_L4 + 1]
    big = (lam > 1e-9).sum(axis=1)
    rank_ok = True
    for k, (_, eta) in enumerate(params):
        want = 0 if eta == 1.0 else 1
        rank_ok = rank_ok and big[k] == want
    ok = worst <= 1e-8 and rank_ok
    announce(4, ok, f"closed-form discrepancy max = {worst:.3e} on the 50x50 grid "
                    f"(limit 1e-8); flip-product rank pattern "
                    f"{'confirmed' if rank_ok else 'broken'}")
    assert worst <= 1e-8
    assert rank_ok


# the 50x50 grid of the channel-sweep default, and grids on which S - C once
# read 1.5e-8 at eta = 1, where F^2 - 1 was a difference of two numbers near 1
PD_GRIDS = (50, 4, 6, 51, 100)


def test_criterion_05_phase_damping_family():
    worst = worst_sc = worst_pur = worst_t = 0.0
    rank_ok = True
    for steps in PD_GRIDS:
        table = harness.run_family_sweep("pd", theta_steps=steps, eta_steps=steps)
        worst = max(worst, float(table.discrepancy.max()))
        worst_sc = max(worst_sc, float(np.abs(table.num[:, 1] - table.num[:, 0]).max()))
        worst_pur = max(worst_pur, float(np.abs(table.num[:, 3] - table.closed[:, 3]).max()))
        params, mats, rows = damping_grid("pd", steps)
        tmats = np.einsum("kab,pba->kp", mats, batch.PAULI_PAIRS).real.reshape(-1, 3, 3)
        lam = rows[:, batch.COL_L1 : batch.COL_L4 + 1]
        big = (lam > 1e-9).sum(axis=1)
        for k, (th, eta) in enumerate(params):
            c = measures.bpd_closed_forms(th, eta).concurrence
            want = np.diag([c, -c, 1.0])
            worst_t = max(worst_t, float(np.abs(tmats[k] - want).max()))
            rank_ok = rank_ok and big[k] == (1 if eta == 0.0 else 2)
    ok = (worst <= 1e-8 and worst_sc <= 1e-9 and worst_pur <= 1e-10
          and worst_t <= 1e-9 and rank_ok)
    grids = ", ".join(f"{g}x{g}" for g in PD_GRIDS)
    announce(5, ok, f"discrepancy max = {worst:.3e} (limit 1e-8); |S - C| max = "
                    f"{worst_sc:.3e} (1e-9); purity dev max = {worst_pur:.3e} (1e-10); "
                    f"T-diagonal dev max = {worst_t:.3e} (1e-9); rank pattern "
                    f"{'confirmed' if rank_ok else 'broken'}; grids {grids}")
    assert worst <= 1e-8
    assert worst_sc <= 1e-9
    assert worst_pur <= 1e-10
    assert worst_t <= 1e-9
    assert rank_ok


def test_criterion_06_werner_unitary_family():
    seed = 606
    table = harness.run_family_sweep("wu", p_steps=1000, seed=seed)
    # columns (C, S, F, purity)
    worst_cf = float(np.abs(table.num[:, :3] - table.closed[:, :3]).max())
    worst_pur = float(np.abs(table.num[:, 3] - table.closed[:, 3]).max())
    worst_43 = max(
        abs(measures.wu_steerability_from_c_purity(c_num, p_num) - s_num)
        for c_num, s_num, _, p_num in table.num.tolist()
    )
    n = len(table.theta)
    mats = np.empty((n, 4, 4), np.complex128)
    cphis = np.empty(n)
    for i, (theta, p_i) in enumerate(zip(table.theta.tolist(), table.eta_or_p.tolist())):
        u = states.random_unitary(seed, i)  # a wu point's unitary is record i
        phi = states.PureState(u @ states.bell_like(theta).amplitudes)
        cphis[i] = measures.concurrence_pure(phi)
        mats[i] = states.werner_like(p_i, phi).matrix
    lam = batch.measure_rows(mats)[:, batch.COL_L1 : batch.COL_L4 + 1]
    p = table.eta_or_p
    small = (1.0 - p) ** 2 / 16.0
    cross = (1.0 + 3.0 * p) * (1.0 - p)
    dev_small = float(np.abs(lam[:, 2:] - small[:, None]).max())
    dev_sum = float(np.abs(lam[:, 0] + lam[:, 1] - (p * cphis) ** 2 - cross / 8.0).max())
    dev_prod = float(np.abs(lam[:, 0] * lam[:, 1] - (cross / 16.0) ** 2).max())
    worst_eig = max(dev_small, dev_sum, dev_prod)
    ok = worst_cf <= 1e-8 and worst_43 <= 1e-8 and worst_eig <= 1e-9 and worst_pur <= 1e-10
    announce(6, ok, f"closed-form dev max = {worst_cf:.3e}, (C, purity) route dev max = "
                    f"{worst_43:.3e} (limits 1e-8); eigenvalue relations dev max = "
                    f"{worst_eig:.3e} (1e-9); purity dev max = {worst_pur:.3e} (1e-10); "
                    f"1000 random triples")
    assert worst_cf <= 1e-8
    assert worst_43 <= 1e-8
    assert worst_eig <= 1e-9
    assert worst_pur <= 1e-10


def test_criterion_07_werner_thresholds():
    ps = np.linspace(0.0, 1.0, 10_000)
    phi = states.bell_like(math.pi / 4.0).amplitudes
    proj = np.outer(phi, phi.conj())
    mats = ps[:, None, None] * proj + (1.0 - ps)[:, None, None] * np.eye(4) / 4.0
    rows = batch.measure_rows(mats)
    c_fires = rows[:, batch.COL_C] > 1e-9
    s_fires = rows[:, batch.COL_S] > 1e-9
    c_expect = ps > 1.0 / 3.0 + 1e-9
    s_expect = ps > 1.0 / math.sqrt(3.0) + 1e-9
    c_ok = bool(np.array_equal(c_fires, c_expect))
    s_ok = bool(np.array_equal(s_fires, s_expect))
    announce(7, c_ok and s_ok,
             f"C > 0 iff p > 1/3 {'holds' if c_ok else 'fails'} and S > 0 iff "
             f"p > 1/sqrt(3) {'holds' if s_ok else 'fails'} on the 10^4-point grid "
             f"({int(c_fires.sum())} and {int(s_fires.sum())} firing points)")
    assert c_ok
    assert s_ok


def test_criterion_08_f_value_route_consistency():
    table = big_table()
    rows = table["rows"]
    x, _ = states.draw_matrices(table["cfg"], 0, BIG_COUNT)
    rhos = states.gram(x)
    tsv = np.linalg.svd(batch.correlation_matrices(rhos), compute_uv=False)
    f_from_sv = np.sqrt((tsv * tsv).sum(axis=1))
    worst = float(np.abs(f_from_sv - rows[:, batch.COL_F]).max())
    ok = worst <= 1e-10
    announce(8, ok, f"|F_frobenius - F_singular| max = {worst:.3e} over "
                    f"{rows.shape[0]} states (limit 1e-10)")
    assert worst <= 1e-10


def test_criterion_09_convex_roof_never_beaten():
    n_states, n_dec = 100, 10_000
    cfg = SamplerConfig("ginibre", "uniform", seed=909, count=n_states)
    x, _ = states.draw_matrices(cfg, 0, n_states)
    rhos = states.gram(x)
    rng = np.random.default_rng(909)
    worst = np.inf
    for i in range(n_states):
        c = measures.report(rhos[i]).concurrence
        w, v = np.linalg.eigh(rhos[i])
        b = np.sqrt(np.clip(w, 0.0, None))[:, None] * v.T
        z = rng.standard_normal((n_dec, 4, 4)) + 1j * rng.standard_normal((n_dec, 4, 4))
        q, r = np.linalg.qr(z)
        d = np.diagonal(r, axis1=1, axis2=2)
        u = q * (d / np.abs(d))[:, None, :]
        m = u @ b
        averages = 2.0 * np.abs(m[:, :, 1] * m[:, :, 2] - m[:, :, 0] * m[:, :, 3]).sum(axis=1)
        worst = min(worst, float(averages.min() - c))
    ok = worst >= -1e-6
    announce(9, ok, f"min (decomposition average - C) = {worst:.3e} over "
                    f"{n_states} states x {n_dec} random 4-term decompositions "
                    f"(limit -1e-6)")
    assert worst >= -1e-6


def test_criterion_10_byte_identical_outputs(tmp_path):
    sample_base = ["sample", "--count", "9000", "--seed", "55"]
    s1 = tmp_path / "s1.csv"
    s2 = tmp_path / "s2.csv"
    s3 = tmp_path / "s3.csv"
    assert cli.main(sample_base + ["--workers", "1", "--out", str(s1)]) == 0
    assert cli.main(sample_base + ["--workers", "1", "--out", str(s2)]) == 0
    assert cli.main(sample_base + ["--workers", "5", "--out", str(s3)]) == 0
    sample_ok = s1.read_bytes() == s2.read_bytes() == s3.read_bytes()

    verify_base = ["verify", "--count", "9000", "--seed", "55"]
    v1 = tmp_path / "v1.json"
    v2 = tmp_path / "v2.json"
    v3 = tmp_path / "v3.json"
    assert cli.main(verify_base + ["--workers", "1", "--out", str(v1)]) == 0
    assert cli.main(verify_base + ["--workers", "1", "--out", str(v2)]) == 0
    assert cli.main(verify_base + ["--workers", "5", "--out", str(v3)]) == 0
    verify_ok = v1.read_bytes() == v2.read_bytes() == v3.read_bytes()

    ok = sample_ok and verify_ok
    announce(10, ok, f"sample bytes {'identical' if sample_ok else 'differ'} and "
                     f"verify bytes {'identical' if verify_ok else 'differ'} across "
                     f"reruns and worker counts 1 vs 5")
    assert sample_ok
    assert verify_ok
