"""Monte Carlo scatter runs, channel-family sweeps, region scans and the
bound-falsification harness.

Output formatting is byte-stable: floats are written with repr() (shortest
round-trip), workers own disjoint index chunks and chunks are merged in index
order, so reruns and different worker counts produce identical files.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import batch, measures
from .errors import ParameterOutOfRange
from .states import (
    DOMAIN_SWEEP,
    PureState,
    SamplerConfig,
    _rng_for,
    apply_channel,
    bell_like,
    density_from_pure,
    draw_matrices,
    make_ad_channel,
    make_pd_channel,
    random_unitary,
    werner_like,
)

SLACK = 1e-9
CHUNK = 4096

SCATTER_HEADER = (
    "index,rank_k,purity,C,F,S,Q,D_A,D_B,lower_bound,upper_bound,"
    "violation_lower,violation_upper"
)
SWEEP_HEADER = (
    "family,theta,eta_or_p,unitary_seed,C_num,C_closed,S_num,S_closed,"
    "F_num,F_closed,purity_num,purity_closed,max_abs_discrepancy"
)
REGION_HEADER = "purity,C,region"

REGION_STEERABLE = "steerable"
REGION_ENTANGLED = "entangled-unknown"
REGION_SEPARABLE = "separable-boundary"
REGION_UNREALIZABLE = "unrealizable"


def _fmt(x) -> str:
    if isinstance(x, bool) or isinstance(x, np.bool_):
        return "true" if x else "false"
    if x is None:
        return ""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


@dataclass(frozen=True)
class SampleRecord:
    index: int
    rank_k: int
    purity: float
    concurrence: float
    f_value: float
    steerability: float
    q_value: float
    coherence_a: float
    coherence_b: float
    lower_bound: float
    upper_bound: float
    violation_lower: bool
    violation_upper: bool


@dataclass(frozen=True)
class SweepRecord:
    family: str
    theta: float
    eta_or_p: float
    unitary_seed: int | None
    c_num: float
    c_closed: float
    s_num: float
    s_closed: float
    f_num: float
    f_closed: float
    purity_num: float
    purity_closed: float
    max_abs_discrepancy: float


@dataclass(frozen=True)
class RegionRecord:
    purity: float
    concurrence: float
    region: str


@dataclass(frozen=True)
class RegionScanResult:
    records: list
    criterion_boundary: list
    werner_envelope: list


@dataclass(frozen=True)
class FalsificationSummary:
    checked: int
    theorems: tuple
    worst_margin_lower: float
    worst_margin_upper: float
    violations: list

    def as_dict(self) -> dict:
        return {
            "checked": self.checked,
            "theorems": list(self.theorems),
            "worst_margin_lower": self.worst_margin_lower,
            "worst_margin_upper": self.worst_margin_upper,
            "violations": self.violations,
        }


def scatter_table(cfg: SamplerConfig, workers: int = 1):
    """(ranks, rows) for all records of the plan, merged in index order."""
    if workers < 1:
        raise ParameterOutOfRange(f"workers must be >= 1, got {workers}")
    starts = list(range(0, cfg.count, CHUNK))

    def one(start: int):
        stop = min(start + CHUNK, cfg.count)
        rhos, ranks = draw_matrices(cfg, start, stop)
        return ranks, batch.measure_rows(rhos)

    if workers == 1 or len(starts) <= 1:
        parts = [one(s) for s in starts]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(one, starts))
    if not parts:
        return np.empty(0, np.int64), np.empty((0, batch.N_COLS))
    ranks = np.concatenate([p[0] for p in parts])
    rows = np.vstack([p[1] for p in parts])
    return ranks, rows


def bound_violations(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row flags (S < lower - SLACK, S > upper + SLACK) of a measure table."""
    s = rows[:, batch.COL_S]
    return s < rows[:, batch.COL_LOWER] - SLACK, s > rows[:, batch.COL_UPPER] + SLACK


def _record_from_row(index: int, rank: int, row: np.ndarray, lower: bool,
                     upper: bool) -> SampleRecord:
    return SampleRecord(
        index=index,
        rank_k=int(rank),
        purity=float(row[batch.COL_PURITY]),
        concurrence=float(row[batch.COL_C]),
        f_value=float(row[batch.COL_F]),
        steerability=float(row[batch.COL_S]),
        q_value=float(row[batch.COL_Q]),
        coherence_a=float(row[batch.COL_DA]),
        coherence_b=float(row[batch.COL_DB]),
        lower_bound=float(row[batch.COL_LOWER]),
        upper_bound=float(row[batch.COL_UPPER]),
        violation_lower=bool(lower),
        violation_upper=bool(upper),
    )


def run_scatter(cfg: SamplerConfig, workers: int = 1) -> list:
    """One SampleRecord per plan index; fields recomputable from
    states.random_state(cfg, index)."""
    ranks, rows = scatter_table(cfg, workers=workers)
    lower, upper = bound_violations(rows)
    return [_record_from_row(i, ranks[i], rows[i], lower[i], upper[i])
            for i in range(cfg.count)]


def scatter_csv_lines(ranks: np.ndarray, rows: np.ndarray):
    yield SCATTER_HEADER
    lower, upper = bound_violations(rows)
    for i in range(len(ranks)):
        r = rows[i]
        yield ",".join(
            (
                str(i),
                str(int(ranks[i])),
                _fmt(r[batch.COL_PURITY]),
                _fmt(r[batch.COL_C]),
                _fmt(r[batch.COL_F]),
                _fmt(r[batch.COL_S]),
                _fmt(r[batch.COL_Q]),
                _fmt(r[batch.COL_DA]),
                _fmt(r[batch.COL_DB]),
                _fmt(r[batch.COL_LOWER]),
                _fmt(r[batch.COL_UPPER]),
                _fmt(lower[i]),
                _fmt(upper[i]),
            )
        )


def write_scatter_csv(path, ranks: np.ndarray, rows: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        for line in scatter_csv_lines(ranks, rows):
            fh.write(line + "\n")


def _sweep_record(family, theta, eta_or_p, unitary_seed, row, closed) -> SweepRecord:
    c_num = float(row[batch.COL_C])
    s_num = float(row[batch.COL_S])
    f_num = float(row[batch.COL_F])
    p_num = float(row[batch.COL_PURITY])
    c_cl, s_cl, f_cl, p_cl = closed
    disc = max(abs(c_num - c_cl), abs(s_num - s_cl), abs(f_num - f_cl), abs(p_num - p_cl))
    return SweepRecord(
        family=family,
        theta=float(theta),
        eta_or_p=float(eta_or_p),
        unitary_seed=unitary_seed,
        c_num=c_num,
        c_closed=float(c_cl),
        s_num=s_num,
        s_closed=float(s_cl),
        f_num=f_num,
        f_closed=float(f_cl),
        purity_num=p_num,
        purity_closed=float(p_cl),
        max_abs_discrepancy=float(disc),
    )


def run_family_sweep(
    family: str,
    theta_steps: int = 50,
    eta_steps: int = 50,
    p_steps: int = 1000,
    seed: int = 0,
) -> list:
    """Numerical pipeline vs closed forms for one channel family.

    'ad'/'pd' sweep a theta x eta grid; 'wu' draws p_steps random
    (p, theta, unitary) triples from the seeded counter-based stream.
    """
    if family in ("ad", "pd"):
        if theta_steps < 2 or eta_steps < 2:
            raise ParameterOutOfRange("theta-steps and eta-steps must both be >= 2")
        thetas = np.linspace(0.05, math.pi / 2.0 - 0.05, theta_steps)
        etas = np.linspace(0.0, 1.0, eta_steps)
        make = make_ad_channel if family == "ad" else make_pd_channel
        mats = np.empty((theta_steps * eta_steps, 4, 4), np.complex128)
        params = []
        k = 0
        for th in thetas:
            base = density_from_pure(bell_like(th))
            for eta in etas:
                mats[k] = apply_channel(base, make(eta)).matrix
                params.append((th, eta))
                k += 1
        rows = batch.measure_rows(mats)
        records = []
        for k, (th, eta) in enumerate(params):
            if family == "ad":
                cf = measures.bad_closed_forms(th, eta)
                closed = (cf.concurrence, cf.steerability,
                          math.sqrt(2.0 * cf.concurrence**2 + 2.0 * cf.purity - 1.0),
                          cf.purity)
            else:
                cf = measures.bpd_closed_forms(th, eta)
                closed = (cf.concurrence, cf.steerability,
                          math.sqrt(1.0 + 2.0 * cf.concurrence**2),
                          cf.purity)
            records.append(_sweep_record(family, th, eta, None, rows[k], closed))
        return records
    if family == "wu":
        if p_steps < 2:
            raise ParameterOutOfRange("p-steps must be >= 2")
        mats = np.empty((p_steps, 4, 4), np.complex128)
        params = []
        for i in range(p_steps):
            rng = _rng_for(seed, i, DOMAIN_SWEEP)
            p = float(rng.random())
            theta = float(0.05 + (math.pi / 2.0 - 0.1) * rng.random())
            u = random_unitary(seed, i)
            phi = PureState(u @ bell_like(theta).amplitudes)
            mats[i] = werner_like(p, phi).matrix
            params.append((theta, p, i, phi))
        rows = batch.measure_rows(mats)
        records = []
        for i, (theta, p, useed, phi) in enumerate(params):
            cf = measures.wu_closed_forms(p, phi)
            closed = (cf.concurrence, cf.steerability, cf.f_value, cf.purity)
            records.append(_sweep_record("wu", theta, p, useed, rows[i], closed))
        return records
    raise ParameterOutOfRange(f"family must be 'ad', 'pd' or 'wu', got {family!r}")


def sweep_csv_lines(records):
    yield SWEEP_HEADER
    for r in records:
        yield ",".join(
            (
                r.family,
                _fmt(r.theta),
                _fmt(r.eta_or_p),
                _fmt(r.unitary_seed),
                _fmt(r.c_num),
                _fmt(r.c_closed),
                _fmt(r.s_num),
                _fmt(r.s_closed),
                _fmt(r.f_num),
                _fmt(r.f_closed),
                _fmt(r.purity_num),
                _fmt(r.purity_closed),
                _fmt(r.max_abs_discrepancy),
            )
        )


def write_sweep_csv(path, records) -> None:
    with open(path, "w", newline="") as fh:
        for line in sweep_csv_lines(records):
            fh.write(line + "\n")


def _boundary_concurrence(p: float) -> float:
    """Concurrence where the (C, purity) steering criterion crosses zero
    along purity = (1 + 3p^2)/4 (closed-form root of the quadratic)."""
    return (math.sqrt(2.0 * (1.0 - p * p)) - (1.0 - p)) / 2.0


def run_region_scan(purity_steps: int = 400, c_steps: int = 400) -> RegionScanResult:
    """Classify the (purity, C) plane for the isotropic-mixture family.

    Emits, besides the grid, the zero crossing of the steering criterion and
    the realizability envelope C = (3p - 1)/2.
    """
    if purity_steps < 2 or c_steps < 2:
        raise ParameterOutOfRange("grid must be at least 2x2")
    purities = np.linspace(0.25, 1.0, purity_steps)
    concs = np.linspace(0.0, 1.0, c_steps)
    records = []
    for u in purities:
        p = math.sqrt(max(0.0, (4.0 * u - 1.0) / 3.0))
        cmax = max(0.0, (3.0 * p - 1.0) / 2.0)
        for c in concs:
            if c > cmax + SLACK:
                region = REGION_UNREALIZABLE
            elif measures.wu_steering_margin(c, u) > 0.0:
                region = REGION_STEERABLE
            elif c > 0.0:
                region = REGION_ENTANGLED
            else:
                region = REGION_SEPARABLE
            records.append(RegionRecord(float(u), float(c), region))
    boundary = []
    envelope = []
    for u in purities:
        p = math.sqrt(max(0.0, (4.0 * u - 1.0) / 3.0))
        envelope.append((float(u), max(0.0, (3.0 * p - 1.0) / 2.0)))
        if p * p >= 1.0 / 3.0:
            boundary.append((float(u), _boundary_concurrence(p)))
    return RegionScanResult(records, boundary, envelope)


def region_csv_lines(records):
    yield REGION_HEADER
    for r in records:
        yield ",".join((_fmt(r.purity), _fmt(r.concurrence), r.region))


def write_region_csv(path, result: RegionScanResult) -> None:
    with open(path, "w", newline="") as fh:
        for line in region_csv_lines(result.records):
            fh.write(line + "\n")


def write_boundary_csv(path, series) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("purity,C\n")
        for u, c in series:
            fh.write(f"{_fmt(u)},{_fmt(c)}\n")


def run_falsification(
    cfg: SamplerConfig,
    theorems: tuple = ("theorem1", "theorem2"),
    workers: int = 1,
) -> FalsificationSummary:
    """Hunt for violations of the steerability bounds over the sampling plan.

    Margins are signed distances: S - lower for theorem1, upper - S for
    theorem2; violations are the rows bound_violations flags.
    """
    for t in theorems:
        if t not in ("theorem1", "theorem2"):
            raise ParameterOutOfRange(f"unknown theorem {t!r}")
    if not theorems:
        raise ParameterOutOfRange("at least one theorem must be selected")
    _, rows = scatter_table(cfg, workers=workers)
    s = rows[:, batch.COL_S]
    margin_lower = s - rows[:, batch.COL_LOWER]
    margin_upper = rows[:, batch.COL_UPPER] - s
    violations = []
    for theorem, flags, margin in zip(("theorem1", "theorem2"), bound_violations(rows),
                                      (margin_lower, margin_upper)):
        if theorem in theorems:
            violations += [{"index": int(i), "theorem": theorem, "margin": float(margin[i])}
                           for i in np.nonzero(flags)[0]]
    violations.sort(key=lambda v: v["index"])
    return FalsificationSummary(
        checked=int(cfg.count),
        theorems=tuple(theorems),
        worst_margin_lower=float(margin_lower.min()) if cfg.count else 0.0,
        worst_margin_upper=float(margin_upper.min()) if cfg.count else 0.0,
        violations=violations,
    )
