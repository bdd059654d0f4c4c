"""Monte Carlo scatter runs, channel-family sweeps, region scans and the
bound-falsification harness.

Output formatting is byte-stable: floats are written with repr() (shortest
round-trip), workers own disjoint index chunks and chunks are consumed in
index order, so reruns and different worker counts produce identical files.
Scatter runs and falsification runs stream the plan one chunk at a time.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import batch, measures
from .errors import ParameterOutOfRange
from .states import (
    DOMAIN_SWEEP,
    SLACK,
    SamplerConfig,
    _is_int,
    apply_channels,
    bell_like,
    draw_matrices,
    make_ad_channel,
    make_pd_channel,
    open_uniforms,
    pure_projectors,
    random_unitaries,
    stream_block,
    werner_mixtures,
)

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

# the bounds run_falsification checks: S >= lower, then S <= upper
THEOREMS = ("theorem1", "theorem2")

# RegionScanResult.regions holds indices into this tuple, which lists the
# regions in the order run_region_scan tests for them
REGION_LABELS = ("unrealizable", "steerable", "entangled-unknown", "separable-boundary")


@dataclass(frozen=True, eq=False)
class SweepTable:
    """One channel sweep as columns: point i is (theta[i], eta_or_p[i]), and
    num[i] and closed[i] hold its pipeline and closed-form (C, S, F, purity).
    The unitary of a 'wu' point is record i of the sweep seed's unitaries."""

    family: str
    theta: np.ndarray
    eta_or_p: np.ndarray
    num: np.ndarray
    closed: np.ndarray

    @property
    def discrepancy(self) -> np.ndarray:
        return np.abs(self.num - self.closed).max(axis=1)


@dataclass(frozen=True, eq=False)
class RegionScanResult:
    """The (purity, C) grid: regions[i, j] indexes REGION_LABELS for
    purities[i] and concurrences[j]."""

    purities: np.ndarray
    concurrences: np.ndarray
    regions: np.ndarray
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
    """The plan's measure table as an iterator of (start, ranks, rows), one
    item per CHUNK of records in index order.

    Each chunk is drawn and measured when the iterator reaches it, so a
    consumer that folds or writes the chunks holds one at a time.  With one
    worker everything runs in the calling thread; with more, a pool measures
    at most 2 * workers chunks ahead of the consumer.
    """
    if not (_is_int(workers) and workers >= 1):
        raise ParameterOutOfRange(f"workers must be an integer >= 1, got {workers!r}")
    starts = range(0, cfg.count, CHUNK)

    def one(start: int):
        rhos, ranks = draw_matrices(cfg, start, min(start + CHUNK, cfg.count))
        return start, ranks, batch.measure_rows(rhos)

    if workers == 1 or len(starts) <= 1:
        return map(one, starts)
    return _ahead(one, starts, workers)


def _ahead(fn, items, workers: int):
    """fn over items in order, computed by a pool at most 2 * workers ahead."""
    pool = ThreadPoolExecutor(max_workers=workers)
    window = deque()
    try:
        for item in items:
            window.append(pool.submit(fn, item))
            if len(window) == 2 * workers:
                yield window.popleft().result()
        while window:
            yield window.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


def bound_margins(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row signed margins (S - lower, upper - S) of a measure table."""
    s = rows[:, batch.COL_S]
    return s - rows[:, batch.COL_LOWER], rows[:, batch.COL_UPPER] - s


def bound_violations(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row flags of a measure table: each bound's margin below -SLACK."""
    margin_lower, margin_upper = bound_margins(rows)
    return margin_lower < -SLACK, margin_upper < -SLACK


def scatter_csv_lines(chunks):
    """The header, then one line per record of the (start, ranks, rows)
    chunks, formatted as each chunk arrives."""
    yield SCATTER_HEADER
    flag = ("false", "true")
    # purity..upper_bound are adjacent measure-table columns in CSV order
    for start, ranks, rows in chunks:
        lower, upper = bound_violations(rows)
        for i, k, values, lo, up in zip(
            itertools.count(start),
            ranks.tolist(),
            rows[:, batch.COL_PURITY : batch.COL_UPPER + 1].tolist(),
            lower.tolist(),
            upper.tolist(),
        ):
            yield f"{i},{k},{','.join(map(repr, values))},{flag[lo]},{flag[up]}"


def write_scatter_csv(path, chunks) -> None:
    with open(path, "w", newline="") as fh:
        for line in scatter_csv_lines(chunks):
            fh.write(line + "\n")


# the measure-table columns of (C, S, F, purity): SweepTable's and ClosedForms' order
SWEEP_COLS = [batch.COL_C, batch.COL_S, batch.COL_F, batch.COL_PURITY]


def run_family_sweep(
    family: str,
    theta_steps: int = 50,
    eta_steps: int = 50,
    p_steps: int = 1000,
    seed: int = 0,
) -> SweepTable:
    """Numerical pipeline vs closed forms for one channel family.

    'ad'/'pd' sweep a theta x eta grid, theta-major; 'wu' draws p_steps
    random (p, theta, unitary) triples from the seeded counter-based stream.
    """
    if family in ("ad", "pd"):
        if not (_is_int(theta_steps) and _is_int(eta_steps)
                and theta_steps >= 2 and eta_steps >= 2):
            raise ParameterOutOfRange("theta-steps and eta-steps must both be integers >= 2")
        thetas = np.linspace(0.05, math.pi / 2.0 - 0.05, theta_steps)
        etas = np.linspace(0.0, 1.0, eta_steps)
        make = make_ad_channel if family == "ad" else make_pd_channel
        bases = pure_projectors([bell_like(th).amplitudes for th in thetas])
        mats = apply_channels(bases, [make(eta) for eta in etas])
        rows = batch.measure_rows(mats.reshape(-1, 4, 4))
        forms = measures.bad_closed_forms if family == "ad" else measures.bpd_closed_forms
        closed = [forms(th, eta) for th in thetas for eta in etas]
        return SweepTable(family, np.repeat(thetas, eta_steps), np.tile(etas, theta_steps),
                          rows[:, SWEEP_COLS], np.array(closed))
    if family == "wu":
        if not (_is_int(p_steps) and p_steps >= 2):
            raise ParameterOutOfRange("p-steps must be an integer >= 2")
        u01 = open_uniforms(stream_block(seed, DOMAIN_SWEEP, 0, p_steps)[:, :2])
        ps = u01[:, 0]
        thetas = 0.05 + (math.pi / 2.0 - 0.1) * u01[:, 1]
        amps = np.array([bell_like(theta).amplitudes for theta in thetas.tolist()])
        phis = (random_unitaries(seed, 0, p_steps) @ amps[:, :, None])[:, :, 0]
        rows = batch.measure_rows(werner_mixtures(ps, phis))  # checks the phis' norms
        closed = [measures.wu_closed_forms(p, phi) for p, phi in zip(ps.tolist(), phis)]
        return SweepTable("wu", thetas, ps, rows[:, SWEEP_COLS], np.array(closed))
    raise ParameterOutOfRange(f"family must be 'ad', 'pd' or 'wu', got {family!r}")


def sweep_csv_lines(table: SweepTable):
    """The header, then one line per sweep point; a 'wu' point's
    unitary_seed is its index."""
    yield SWEEP_HEADER
    n = len(table.theta)
    # theta, eta_or_p, then (C, S, F, purity) as num/closed pairs, then the discrepancy
    floats = np.column_stack([
        table.theta, table.eta_or_p,
        np.stack([table.num, table.closed], axis=2).reshape(n, 8), table.discrepancy,
    ])
    seeds = map(str, range(n)) if table.family == "wu" else itertools.repeat("")
    for seed, row in zip(seeds, floats.tolist()):
        text = list(map(repr, row))
        yield ",".join([table.family, *text[:2], seed, *text[2:]])


def write_sweep_csv(path, table: SweepTable) -> None:
    with open(path, "w", newline="") as fh:
        for line in sweep_csv_lines(table):
            fh.write(line + "\n")


def _boundary_concurrence(p):
    """Concurrence where the (C, purity) steering criterion crosses zero
    along purity = (1 + 3p^2)/4 (closed-form root of the quadratic)."""
    return (np.sqrt(2.0 * (1.0 - p * p)) - (1.0 - p)) / 2.0


def run_region_scan(purity_steps: int = 400, c_steps: int = 400) -> RegionScanResult:
    """Classify the (purity, C) plane for the isotropic-mixture family.

    Emits, besides the grid, the zero crossing of the steering criterion and
    the realizability envelope C = (3p - 1)/2.
    """
    if not (_is_int(purity_steps) and _is_int(c_steps)
            and purity_steps >= 2 and c_steps >= 2):
        raise ParameterOutOfRange("grid sides must be integers >= 2")
    purities = np.linspace(0.25, 1.0, purity_steps)
    concs = np.linspace(0.0, 1.0, c_steps)
    p = np.sqrt(np.maximum(0.0, (4.0 * purities - 1.0) / 3.0))
    cmax = np.maximum(0.0, (3.0 * p - 1.0) / 2.0)
    margin = measures.wu_steering_margin(concs[None, :], purities[:, None])
    # the first condition that holds picks the region
    regions = np.select(
        [concs[None, :] > cmax[:, None] + SLACK, margin > 0.0,
         np.broadcast_to(concs > 0.0, margin.shape)],
        [0, 1, 2], default=3,
    ).astype(np.int8)
    crossed = p * p >= 1.0 / 3.0
    boundary = list(zip(purities[crossed].tolist(),
                        _boundary_concurrence(p[crossed]).tolist()))
    envelope = list(zip(purities.tolist(), cmax.tolist()))
    return RegionScanResult(purities, concs, regions, boundary, envelope)


def region_csv_lines(result: RegionScanResult):
    """The header, then the lines of one purity row per item, joined by
    newlines."""
    yield REGION_HEADER
    cells = [[f"{c!r},{label}" for label in REGION_LABELS]
             for c in result.concurrences.tolist()]
    for u, codes in zip(result.purities.tolist(), result.regions.tolist()):
        head = f"{u!r},"
        yield head + ("\n" + head).join(map(list.__getitem__, cells, codes))


def write_region_csv(path, result: RegionScanResult) -> None:
    with open(path, "w", newline="") as fh:
        for block in region_csv_lines(result):
            fh.write(block + "\n")


def write_boundary_csv(path, series) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("purity,C\n")
        for u, c in series:
            fh.write(f"{float(u)!r},{float(c)!r}\n")


def run_falsification(cfg: SamplerConfig, workers: int = 1) -> FalsificationSummary:
    """Hunt for violations of both steerability bounds over the sampling plan.

    Margins are the bound_margins: S - lower for theorem1, upper - S for
    theorem2; a violation is a margin below -SLACK, as in bound_violations.
    Each chunk is folded into the worst margins and the violation list as it
    arrives.
    """
    worst_lower, worst_upper, violations = [], [], []
    for start, _, rows in scatter_table(cfg, workers=workers):
        for theorem, margin, worst in zip(THEOREMS, bound_margins(rows),
                                          (worst_lower, worst_upper)):
            worst.append(margin.min())
            violations += [{"index": start + int(i), "theorem": theorem,
                            "margin": float(margin[i])}
                           for i in np.nonzero(margin < -SLACK)[0]]
    violations.sort(key=lambda v: v["index"])
    worst = [float(np.min(w)) if w else 0.0 for w in (worst_lower, worst_upper)]
    return FalsificationSummary(int(cfg.count), THEOREMS, *worst, violations)
