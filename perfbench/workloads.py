"""The qsteer commands one benchmark pass runs, and the checks on their output.

The checks test properties of the output, never frozen bytes, so they still
hold when the sampler's stream version changes: column layouts as the README
documents them, row counts, the steerability bounds, identities that tie a
row's columns together, and a recomputation of seed-chosen records through
the public API.  Byte stability is checked separately: every pass of one
run must produce outputs with the same sha256.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from qsteer import measures, states

# The channel sweeps keep the acceptance suite's 50x50 grid at both sizes:
# on most other grids (4x4, 6x6, 51x51, ...) the pd sweep reports a
# discrepancy of 1.49e-8 > 1e-8 at eta = 1, where S_num = sqrt((F^2 - 1)/2)
# turns a rounding error of F^2 into sqrt(2^-53).  That is a known defect of
# the program, reported rather than checked with a looser tolerance.
SIZES = {
    "full": {"count": 100_000, "steps": 50, "p_steps": 1000, "grid": 400},
    "tiny": {"count": 300, "steps": 50, "p_steps": 20, "grid": 12},
}

SCATTER_HEADER = (
    "index,rank_k,purity,C,F,S,Q,D_A,D_B,lower_bound,upper_bound,"
    "violation_lower,violation_upper"
)
SWEEP_HEADER = (
    "family,theta,eta_or_p,unitary_seed,C_num,C_closed,S_num,S_closed,"
    "F_num,F_closed,purity_num,purity_closed,max_abs_discrepancy"
)
REGION_HEADER = "purity,C,region"
BOUNDARY_HEADER = "purity,C"
REGION_LABELS = frozenset(
    ("steerable", "entangled-unknown", "separable-boundary", "unrealizable")
)

BOUND_SLACK = 1e-9  # the falsification slack: lower - 1e-9 <= S <= upper + 1e-9
IDENTITY_TOL = 1e-10  # identities between columns of one scatter row
RECOMPUTE_TOL = 1e-12  # a CSV row against measures.report on the same record
SWEEP_TOL = 1e-8  # closed forms vs pipeline, acceptance criteria 4-6
RECOMPUTED_ROWS = 32
RANK_EIG_TOL = 1e-9


class CheckFailed(Exception):
    """A command's output broke one of the checks."""


@dataclass(frozen=True)
class Command:
    argv: tuple
    outputs: tuple  # paths of the files the command writes
    check: Callable  # (stdout) -> data rows completed; raises CheckFailed


def commands(workload: str, seed: int, size: str, workdir: str) -> list[Command]:
    """The commands of one pass of ``workload``; flags built from ``seed``."""
    s = SIZES[size]
    path = functools.partial(os.path.join, workdir)
    if workload == "scatter":
        out = path("scatter.csv")
        return [Command(
            ("sample", "--count", str(s["count"]), "--seed", str(seed), "--out", out),
            (out,),
            functools.partial(check_scatter, out, seed, s["count"]),
        )]
    if workload == "verify":
        return [Command(
            ("verify", "--count", str(s["count"]), "--seed", str(seed)),
            (),
            functools.partial(check_verify, count=s["count"]),
        )]
    if workload == "families":
        steps = str(s["steps"])
        cmds = []
        for family in ("ad", "pd"):
            out = path(f"{family}.csv")
            cmds.append(Command(
                ("channel-sweep", "--family", family, "--theta-steps", steps,
                 "--eta-steps", steps, "--out", out),
                (out,),
                functools.partial(check_sweep, out, family, s["steps"] ** 2),
            ))
        out = path("wu.csv")
        cmds.append(Command(
            ("channel-sweep", "--family", "wu", "--p-steps", str(s["p_steps"]),
             "--seed", str(seed), "--out", out),
            (out,),
            functools.partial(check_sweep, out, "wu", s["p_steps"]),
        ))
        outs = (path("region.csv"), path("region_boundary.csv"), path("region_werner.csv"))
        cmds.append(Command(
            ("wu-scan", "--grid", f"{s['grid']}x{s['grid']}", "--out", outs[0]),
            outs,
            functools.partial(check_region, outs, s["grid"]),
        ))
        return cmds
    raise ValueError(f"unknown workload {workload!r}")


def digest(stdout: str, outputs) -> str:
    """sha256 over a command's standard output and every file it wrote."""
    h = hashlib.sha256(stdout.encode())
    for p in outputs:
        h.update(os.path.basename(p).encode() + b"\0")
        with open(p, "rb") as fh:
            for block in iter(functools.partial(fh.read, 1 << 20), b""):
                h.update(block)
    return h.hexdigest()


def _fail(msg: str):
    raise CheckFailed(msg)


def _read_header(fh, expected: str, name: str) -> None:
    header = fh.readline().rstrip("\n")
    if header != expected:
        _fail(f"{name}: header {header!r}, expected {expected!r}")


def _near(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


def check_scatter(path: str, seed: int, count: int, stdout: str) -> int:
    """Check every row of a ``sample`` CSV; recompute a seed-chosen few."""
    cfg = states.SamplerConfig(measure="ginibre", ranks="uniform", seed=seed, count=count)
    recompute = set(random.Random(seed).sample(range(count), min(RECOMPUTED_ROWS, count)))
    rows = 0
    with open(path) as fh:
        _read_header(fh, SCATTER_HEADER, path)
        for n, line in enumerate(fh):
            f = line.rstrip("\n").split(",")
            where = f"{path} row {n}"
            if len(f) != 13:
                _fail(f"{where}: {len(f)} fields, expected 13")
            if f[0] != str(n):
                _fail(f"{where}: index {f[0]!r}")
            if f[1] not in ("1", "2", "3", "4"):
                _fail(f"{where}: rank_k {f[1]!r}")
            if f[11] != "false" or f[12] != "false":
                _fail(f"{where}: violation flags {f[11]!r}, {f[12]!r}")
            pur, c, fv, s, q, da, db, lo, up = map(float, f[2:11])
            if not lo - BOUND_SLACK <= s <= up + BOUND_SLACK:
                _fail(f"{where}: S={s!r} outside [{lo!r}, {up!r}]")
            # squared forms, so a clamp at zero does not amplify rounding
            identities = (
                ("Q^2 = C^2 + purity", q * q, c * c + pur),
                ("lower^2 = max(0, C^2 + purity - 1)", lo * lo, max(0.0, c * c + pur - 1.0)),
                ("upper^2 = min(C^2, max(0, 2 purity - 1))", up * up,
                 min(c * c, max(0.0, 2.0 * pur - 1.0))),
                ("S^2 = max(0, (F^2 - 1)/2)", s * s, max(0.0, 0.5 * (fv * fv - 1.0))),
                ("4 purity = 1 + D_A^2 + D_B^2 + F^2", 4.0 * pur, 1.0 + da * da + db * db + fv * fv),
            )
            for name, lhs, rhs in identities:
                if not _near(lhs, rhs, IDENTITY_TOL):
                    _fail(f"{where}: {name} off by {abs(lhs - rhs):.3e}")
            if n in recompute:
                _check_recomputed(cfg, n, int(f[1]), (pur, c, fv, s, q, da, db, lo, up), where)
            rows += 1
    if rows != count:
        _fail(f"{path}: {rows} data rows, expected {count}")
    return rows


def _check_recomputed(cfg, index: int, rank: int, values, where: str) -> None:
    rho = states.random_state(cfg, index)
    rep = measures.report(rho)
    expected = (rep.purity, rep.concurrence, rep.f_value, rep.steerability, rep.q_value,
                rep.coherence_a, rep.coherence_b, rep.lower_bound, rep.upper_bound)
    for name, got, want in zip(SCATTER_HEADER.split(",")[2:11], values, expected):
        if not _near(got, want, RECOMPUTE_TOL):
            _fail(f"{where}: {name}={got!r}, recomputed {want!r}")
    numeric_rank = int((np.linalg.eigvalsh(rho.matrix) > RANK_EIG_TOL).sum())
    if numeric_rank != rank:
        _fail(f"{where}: rank_k={rank}, recomputed {numeric_rank}")


def check_verify(stdout: str, count: int) -> int:
    try:
        summary = json.loads(stdout)
    except json.JSONDecodeError as exc:
        _fail(f"verify: stdout is not JSON ({exc})")
    if summary.get("checked") != count:
        _fail(f"verify: checked={summary.get('checked')!r}, expected {count}")
    if summary.get("violations") != []:
        _fail(f"verify: violations={summary.get('violations')!r}")
    return count


def check_sweep(path: str, family: str, expected_rows: int, stdout: str) -> int:
    rows = 0
    with open(path) as fh:
        _read_header(fh, SWEEP_HEADER, path)
        for n, line in enumerate(fh):
            f = line.rstrip("\n").split(",")
            where = f"{path} row {n}"
            if len(f) != 13 or f[0] != family:
                _fail(f"{where}: malformed row {line.rstrip()!r}")
            disc = float(f[12])
            if not disc <= SWEEP_TOL:  # also rejects nan
                _fail(f"{where}: max_abs_discrepancy {disc!r} > {SWEEP_TOL}")
            rows += 1
    if rows != expected_rows:
        _fail(f"{path}: {rows} data rows, expected {expected_rows}")
    return rows


def check_region(paths, grid: int, stdout: str) -> int:
    region, boundary, werner = paths
    rows = 0
    with open(region) as fh:
        _read_header(fh, REGION_HEADER, region)
        for n, line in enumerate(fh):
            f = line.rstrip("\n").split(",")
            if len(f) != 3 or f[2] not in REGION_LABELS:
                _fail(f"{region} row {n}: malformed row {line.rstrip()!r}")
            rows += 1
    if rows != grid * grid:
        _fail(f"{region}: {rows} data rows, expected {grid * grid}")
    for p, expected in ((boundary, None), (werner, grid)):
        n = 0
        with open(p) as fh:
            _read_header(fh, BOUNDARY_HEADER, p)
            for n, line in enumerate(fh, 1):
                u, c = map(float, line.split(","))
                if not (0.25 <= u <= 1.0 and 0.0 <= c <= 1.0 and math.isfinite(u + c)):
                    _fail(f"{p} row {n - 1}: point ({u!r}, {c!r}) outside the plane")
        if n == 0 or (expected is not None and n != expected):
            _fail(f"{p}: {n} data rows")
        rows += n
    return rows
