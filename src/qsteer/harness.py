"""Monte Carlo scatter runs, sweeps of the families in FAMILIES, region scans
and the bound-falsification harness.

Output formatting is byte-stable: floats are written with repr() (shortest
round-trip), workers own disjoint index chunks and chunks are consumed in
index order, so reruns and different worker counts produce identical files.
The CSV formatters work column by column and give values with equal float64
bits one shared text (_reprs_from, _reprs_once), which changes no byte: a
closed form with its pipeline value's bits, an upper bound with C's, and a
sweep axis value or discrepancy that repeats.
Scatter runs and falsification runs stream the plan one chunk at a time:
_run_chunks, the one place that chooses between the calling thread and
forked workers, runs each chunk's formatter (sample), which draws and
measures the chunk's whole table with scatter_table(cfg, start, stop), or
its fold into a FalsificationSummary (verify), which draws the chunk and
takes only its S and bounds with batch.bound_columns; _merge joins the
folds in index order.
On more than one worker, _ahead forks them, each with its own pipe and a
static shard of the chunks (worker w makes chunks w, w + W, ...), and reads
chunk i from pipe i % W; a worker runs ahead only as far as its pipe buffer
holds its results.  Where os.fork does not exist, every chunk runs in the
calling thread.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import os
import pickle
from dataclasses import asdict, dataclass

import numpy as np

from . import batch, measures
from .errors import ParameterOutOfRange
from .states import (
    DOMAIN_SWEEP,
    SLACK,
    SamplerConfig,
    _is_int,
    _kraus_factors,
    bell_like_amplitudes,
    damping_operators,
    draw_matrices,
    open_uniforms,
    random_unitaries,
    stream_block,
    werner_factors,
)

# records per drawn and measured chunk.  Each of N forked workers (see
# _ahead) computes one chunk at a time and runs ahead of the reader only as
# far as its 64 kB pipe buffer holds: one finished chunk of sample's text
# (about 340 kB), or a pipe buffer of verify's summaries (about 200 B each).
CHUNK = 2048

# the default worker count: the CPUs this process may run on, at most two,
# or 1 where os.fork does not exist and every chunk runs in the calling
# thread.  Each worker is a forked process (see _run_chunks) that keeps one
# CPU busy.  Two is the most that has been measured; the cap also keeps the
# default memory in flight the same on every host.
MAX_DEFAULT_WORKERS = 2
if not hasattr(os, "fork"):
    WORKERS = 1
elif hasattr(os, "sched_getaffinity"):
    WORKERS = min(len(os.sched_getaffinity(0)), MAX_DEFAULT_WORKERS)
else:
    WORKERS = min(os.cpu_count() or 1, MAX_DEFAULT_WORKERS)

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

# cells per block of purity rows that run_region_scan classifies at once,
# or one row when a row is longer: each float64 or int64 temporary of a
# block's margin and region choice holds at most 128 kB or one row
REGION_BLOCK = 1 << 14


@dataclass(frozen=True, eq=False)
class SweepTable:
    """One family's sweep as columns: point i is (theta[i], eta_or_p[i]), as
    the family's FAMILIES builder says, and num[i] and closed[i] hold its
    pipeline and closed-form (C, S, F, purity)."""

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
    """A fold of plan records, one chunk's or the whole plan's: the count
    checked, each theorem's least margin (inf over no records) and the
    violations in (index, theorem) order."""

    checked: int
    theorems: tuple
    worst_margin_lower: float
    worst_margin_upper: float
    violations: list

    def as_dict(self) -> dict:
        return {**asdict(self), "theorems": list(self.theorems)}


def scatter_table(cfg: SamplerConfig, start: int, stop: int):
    """Records start..stop-1 of the plan, drawn and measured from their
    factors: (start, ranks, rows).

    sample runs it on each CHUNK of the plan through _run_chunks.
    """
    x, ranks = draw_matrices(cfg, start, stop)
    return start, ranks, batch.measure_factors(x)


def _run_chunks(fn, cfg: SamplerConfig, workers: int):
    """fn(cfg, start, stop) for each CHUNK of the plan, as an iterator in
    index order.  An empty plan has one empty chunk, (0, 0), so that sample
    still writes its header.

    The worker count is checked at the call.  The plan is a range of chunk
    starts, the same few objects at any count.  With one worker, a plan of
    one chunk or no os.fork, each call runs in the calling thread when the
    iterator reaches it; otherwise on _ahead's min(workers, chunks) workers.
    """
    if not (_is_int(workers) and workers >= 1):
        raise ParameterOutOfRange(f"workers must be an integer >= 1, got {workers!r}")
    starts = range(0, max(cfg.count, 1), CHUNK)
    if workers == 1 or len(starts) == 1 or not hasattr(os, "fork"):
        return (_chunk(fn, cfg, start) for start in starts)
    return _ahead(fn, cfg, starts, min(workers, len(starts)))


def _chunk(fn, cfg: SamplerConfig, start: int):
    """fn on the chunk of the plan that begins at record start."""
    return fn(cfg, start, min(start + CHUNK, cfg.count))


def _ahead(fn, cfg: SamplerConfig, starts: range, workers: int):
    """_chunk(fn, cfg, start) for each start of starts, in order, on forked
    processes.  Where os.fork does not exist, _run_chunks runs every chunk in
    the calling thread instead and never calls it.

    Worker w is forked with its own pipe and a static shard, starts[w::workers],
    and pickles each result down the pipe as it is made: (True, result), or
    (False, the exception fn raised), after which it stops.  fn need not
    pickle, its results must.  A pickle ends itself, so the parent reads
    chunk i with pickle.load from pipe i % workers and raises a worker's
    exception as its own, or a ChildProcessError if the pipe ends before or
    inside the chunk it owes.  A worker runs ahead only while its result fits
    in its pipe: by one pipe buffer of small results, or one chunk when a
    result outgrows the buffer.  When the iterator ends or is closed, the
    parent closes every pipe and reaps every worker; a worker that writes to
    a closed pipe gets EPIPE and exits, so each one stops within one chunk.
    The parent starts no thread and imports no executor.  fork, not spawn: a
    spawned child imports numpy and qsteer again, about 0.2 s a run."""
    children = []  # (pid, read end of its pipe)
    try:
        for w in range(workers):
            children.append(_fork_worker(fn, cfg, starts[w::workers], children))
        for i, start in enumerate(starts):
            pid, pipe = children[i % workers]
            try:
                ok, value = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):
                del children[i % workers]
                pipe.close()
                status = os.waitpid(pid, 0)[1]
                code = os.waitstatus_to_exitcode(status)
                ended = f"signal {-code}" if code < 0 else f"exit code {code}"
                raise ChildProcessError(
                    f"worker process {pid} ended (wait status {status}, {ended}) "
                    f"before it sent the chunk at record {start}") from None
            if not ok:
                raise value
            yield value
    finally:
        for _, pipe in children:
            pipe.close()
        for pid, _ in children:
            os.waitpid(pid, 0)


def _fork_worker(fn, cfg: SamplerConfig, starts: range, children: list):
    """Fork a worker that sends _chunk(fn, cfg, start) for each start of
    starts down a pipe of its own; (its pid, the pipe's read end).  The
    child closes the read ends of the earlier workers, so that each pipe's
    only reader is the parent, and ends in os._exit, so it never runs the
    parent's code past the fork."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read)
        os.close(write)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(read)
            for _, pipe in children:
                os.close(pipe.fileno())
            _keep_heap()
            with open(write, "wb") as out:
                for start in starts:
                    try:
                        message = (True, _chunk(fn, cfg, start))
                    except Exception as exc:
                        message = (False, exc)
                    pickle.dump(message, out, pickle.HIGHEST_PROTOCOL)
                    out.flush()
                    if not message[0]:
                        break
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    return pid, open(read, "rb")


# glibc's mallopt parameter M_TOP_PAD, and the pad a pool worker keeps
M_TOP_PAD = -2
TOP_PAD = 16 << 20


def _keep_heap() -> None:
    """Run once in each forked worker: have glibc keep TOP_PAD bytes, more
    than one chunk's temporaries, at the top of the heap when it trims, so
    that the next chunk reuses what a chunk frees rather than fault it in
    again.

    One call: on verify --count 100000 at 2 workers the workers took about
    12k minor page faults with the pad alone, as many as with both the trim
    and the mmap threshold set (64 and 32 MiB), 25k with the trim threshold
    alone and 40k with neither.  A C library without mallopt (musl, macOS)
    keeps its own allocator."""
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):
        return
    mallopt(M_TOP_PAD, TOP_PAD)


def bound_margins(s: np.ndarray, lower: np.ndarray,
                  upper: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row signed margins (S - lower, upper - S) of the columns
    batch.bound_columns returns."""
    return s - lower, upper - s


def bound_violations(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row flags of a measure table: each bound's margin below -SLACK."""
    margin_lower, margin_upper = bound_margins(
        rows[:, batch.COL_S], rows[:, batch.COL_LOWER], rows[:, batch.COL_UPPER])
    return margin_lower < -SLACK, margin_upper < -SLACK


def _reprs_from(values: np.ndarray, base: np.ndarray, base_texts: list) -> list:
    """repr of each float64 of values, taken from base_texts wherever values
    has the bits of base.  Bits, not ==: 0.0 == -0.0 though the two print
    differently, and NaN never equals itself."""
    texts = list(base_texts)
    other = np.flatnonzero(values.view(np.int64) != base.view(np.int64))
    for i, v in zip(other.tolist(), values[other].tolist()):
        texts[i] = repr(v)
    return texts


def _reprs_once(values: np.ndarray) -> list:
    """repr of each float64 of values, each distinct bit pattern formatted once."""
    bits = values.view(np.int64).tolist()
    text = {b: repr(v) for b, v in dict(zip(bits, values.tolist())).items()}
    return list(map(text.__getitem__, bits))


def scatter_csv_lines(start: int, ranks: np.ndarray, rows: np.ndarray):
    """One CSV line per record of one (start, ranks, rows) chunk, after the
    header when the chunk starts at record 0."""
    if start == 0:
        yield SCATTER_HEADER
    flag = ("false", "true")
    lower, upper = bound_violations(rows)
    # purity..lower_bound are adjacent measure-table columns in CSV order;
    # upper_bound = min(C, ...) shares C's text wherever it has C's bits
    texts = [list(map(repr, column))
             for column in rows[:, batch.COL_PURITY : batch.COL_LOWER + 1].T.tolist()]
    texts.append(_reprs_from(rows[:, batch.COL_UPPER], rows[:, batch.COL_C],
                             texts[batch.COL_C - batch.COL_PURITY]))
    yield from map(",".join, zip(
        map(str, range(start, start + len(rows))),
        map(str, ranks.tolist()),
        *texts,
        map(flag.__getitem__, lower.tolist()),
        map(flag.__getitem__, upper.tolist()),
    ))


def _scatter_text(cfg: SamplerConfig, start: int, stop: int) -> str:
    """The CSV text of records start..stop-1, drawn, measured and formatted:
    one chunk of write_scatter_csv."""
    return "\n".join(scatter_csv_lines(*scatter_table(cfg, start, stop))) + "\n"


def write_scatter_csv(path, cfg: SamplerConfig, workers: int = WORKERS) -> None:
    """Write the plan's scatter CSV to path: the texts of _scatter_text's
    chunks, in index order.

    _run_chunks makes them in this thread or on its workers, with the same
    bytes either way; the workers are reaped before this returns or raises.
    Nothing is written before the workers fork, so the children inherit no
    buffered output.  path itself is written, from its first chunk on; the
    sample command passes a temporary file that replaces its --out only
    when the run succeeds (see the cli module).
    """
    texts = _run_chunks(_scatter_text, cfg, workers)
    with contextlib.closing(texts), open(path, "w", newline="") as fh:
        fh.writelines(texts)


# the measure-table columns of (C, S, F, purity): SweepTable's and ClosedForms' order
SWEEP_COLS = [batch.COL_C, batch.COL_S, batch.COL_F, batch.COL_PURITY]


def _damped(row: int, forms, theta_steps: int, eta_steps: int, p_steps: int, seed: int):
    """'ad' (row 0) and 'pd' (row 1): cos theta|00> + sin theta|11> damped on
    qubit A by K1 = sqrt(eta)|row><1|, on a theta x eta grid, theta-major.
    theta and eta_or_p hold each point's theta and eta; unitary_seed is empty."""
    if not (_is_int(theta_steps) and _is_int(eta_steps)
            and theta_steps >= 2 and eta_steps >= 2):
        raise ParameterOutOfRange("theta-steps and eta-steps must both be integers >= 2")
    thetas = np.linspace(0.05, math.pi / 2.0 - 0.05, theta_steps)
    etas = np.linspace(0.0, 1.0, eta_steps)
    # every eta's Kraus pair, checked once as one stack
    x = _kraus_factors(bell_like_amplitudes(thetas), damping_operators(etas, row))
    grid_thetas, grid_etas = np.repeat(thetas, eta_steps), np.tile(etas, theta_steps)
    return grid_thetas, grid_etas, x.reshape(-1, 4, x.shape[-1]), forms(grid_thetas, grid_etas)


def _werner(theta_steps: int, eta_steps: int, p_steps: int, seed: int):
    """'wu': p|phi><phi| + (1 - p)I/4, phi = U(cos theta|00> + sin theta|11>), at
    p_steps (p, theta, U) drawn from the seed's streams.  theta and eta_or_p hold
    each point's theta and p; unitary_seed is i, as U is random_unitaries' record i."""
    if not (_is_int(p_steps) and p_steps >= 2):
        raise ParameterOutOfRange("p-steps must be an integer >= 2")
    u01 = open_uniforms(stream_block(seed, DOMAIN_SWEEP, 0, p_steps)[:, :2])
    ps = u01[:, 0]
    thetas = 0.05 + (math.pi / 2.0 - 0.1) * u01[:, 1]
    amps = bell_like_amplitudes(thetas)
    phis = (random_unitaries(seed, 0, p_steps) @ amps[:, :, None])[:, :, 0]
    # werner_factors checks the phis' norms before the closed forms take them
    return thetas, ps, werner_factors(ps, phis), measures.wu_closed_forms(ps, phis)


# each family's builder of the flags (theta_steps, eta_steps, p_steps, seed):
# (theta, eta_or_p, factors, closed forms).  Each function is looked up when
# called, so that a tracer's or a test's rebinding of a module attribute runs.
FAMILIES = {
    "ad": lambda *flags: _damped(0, measures.bad_closed_forms, *flags),
    "pd": lambda *flags: _damped(1, measures.bpd_closed_forms, *flags),
    "wu": lambda *flags: _werner(*flags),
}


def run_family_sweep(
    family: str,
    theta_steps: int = 50,
    eta_steps: int = 50,
    p_steps: int = 1000,
    seed: int = 0,
) -> SweepTable:
    """Numerical pipeline vs closed forms for one family of FAMILIES: its
    builder's factors, measured in one measure_factors call."""
    if not (isinstance(family, str) and family in FAMILIES):
        raise ParameterOutOfRange(f"family must be one of {list(FAMILIES)}, got {family!r}")
    theta, eta_or_p, x, closed = FAMILIES[family](theta_steps, eta_steps, p_steps, seed)
    rows = batch.measure_factors(x)
    return SweepTable(family, theta, eta_or_p, rows[:, SWEEP_COLS], np.column_stack(closed))


def sweep_csv_lines(table: SweepTable):
    """The header, then one line per sweep point; a 'wu' point's
    unitary_seed is its index."""
    yield SWEEP_HEADER
    # (C, S, F, purity) as num/closed pairs; a closed value shares its num's
    # text wherever the two have the same bits
    pairs = []
    for num, closed in zip(table.num.T, table.closed.T):
        num_texts = list(map(repr, num.tolist()))
        pairs += [num_texts, _reprs_from(closed, num, num_texts)]
    seeds = map(str, range(len(table.theta))) if table.family == "wu" else itertools.repeat("")
    yield from map(",".join, zip(
        itertools.repeat(table.family),
        _reprs_once(table.theta),
        _reprs_once(table.eta_or_p),
        seeds,
        *pairs,
        _reprs_once(table.discrepancy),
    ))


def write_sweep_csv(path, table: SweepTable) -> None:
    with open(path, "w", newline="") as fh:
        fh.writelines(line + "\n" for line in sweep_csv_lines(table))


def _boundary_concurrence(p):
    """Concurrence where the (C, purity) steering criterion crosses zero
    along purity = (1 + 3p^2)/4 (closed-form root of the quadratic)."""
    return (np.sqrt(2.0 * (1.0 - p * p)) - (1.0 - p)) / 2.0


def run_region_scan(purity_steps: int = 400, c_steps: int = 400) -> RegionScanResult:
    """Classify the (purity, C) plane for the isotropic-mixture family.

    Emits, besides the grid, the zero crossing of the steering criterion and
    the realizability envelope C = (3p - 1)/2.  The grid is classified in
    blocks of whole purity rows, REGION_BLOCK cells or one row each, into
    one int8 array, so no temporary grows with the grid.
    """
    if not (_is_int(purity_steps) and _is_int(c_steps)
            and purity_steps >= 2 and c_steps >= 2):
        raise ParameterOutOfRange("grid sides must be integers >= 2")
    purities = np.linspace(0.25, 1.0, purity_steps)
    concs = np.linspace(0.0, 1.0, c_steps)
    p, cmax = measures.isotropic_envelope(purities)
    regions = np.empty((purity_steps, c_steps), np.int8)
    rows = max(1, REGION_BLOCK // c_steps)
    for i in range(0, purity_steps, rows):
        block = slice(i, i + rows)
        margin = measures.wu_steering_margin(concs[None, :], purities[block, None])
        # the first condition that holds picks the region
        regions[block] = np.select(
            [concs[None, :] > cmax[block, None] + SLACK, margin > 0.0,
             np.broadcast_to(concs > 0.0, margin.shape)],
            [0, 1, 2], default=3,
        )
    crossed = p * p >= 1.0 / 3.0
    boundary = list(zip(purities[crossed].tolist(),
                        _boundary_concurrence(p[crossed]).tolist()))
    envelope = list(zip(purities.tolist(), cmax.tolist()))
    return RegionScanResult(purities, concs, regions, boundary, envelope)


def region_csv_lines(result: RegionScanResult):
    """The header, then the lines of one purity row per item, joined by
    newlines."""
    yield REGION_HEADER
    # cells[r, j] is the text of concurrence j in region r
    cells = np.array([[f"{c!r},{label}" for c in result.concurrences.tolist()]
                      for label in REGION_LABELS], dtype=object)
    columns = np.arange(cells.shape[1])
    for u, codes in zip(result.purities.tolist(), result.regions):
        head = f"{u!r},"
        yield head + ("\n" + head).join(cells[codes, columns].tolist())


def write_region_csv(path, result: RegionScanResult) -> None:
    with open(path, "w", newline="") as fh:
        fh.writelines(block + "\n" for block in region_csv_lines(result))


def write_boundary_csv(path, series) -> None:
    with open(path, "w", newline="") as fh:
        fh.writelines(itertools.chain(["purity,C\n"],
                                      (f"{float(u)!r},{float(c)!r}\n" for u, c in series)))


def _fold_chunk(cfg: SamplerConfig, start: int, stop: int) -> FalsificationSummary:
    """Records start..stop-1, drawn, their S and bounds measured with
    batch.bound_columns, and folded into their summary; np.nonzero runs
    row-major, so the violations come in (index, theorem) order."""
    x, _ = draw_matrices(cfg, start, stop)
    margins = bound_margins(*batch.bound_columns(x))
    index, theorem = np.nonzero(np.column_stack(margins) < -SLACK)
    violations = [{"index": start + i, "theorem": THEOREMS[t], "margin": float(margins[t][i])}
                  for i, t in zip(index.tolist(), theorem.tolist())]
    least = (float(margin.min(initial=math.inf)) for margin in margins)
    return FalsificationSummary(len(x), THEOREMS, *least, violations)


def _merge(earlier: FalsificationSummary, later: FalsificationSummary) -> FalsificationSummary:
    """The fold of earlier's records, then later's: counts add, least margins
    take min, and violations extend earlier's list in place (the reducer owns it)."""
    earlier.violations.extend(later.violations)
    return FalsificationSummary(earlier.checked + later.checked, THEOREMS,
                                min(earlier.worst_margin_lower, later.worst_margin_lower),
                                min(earlier.worst_margin_upper, later.worst_margin_upper),
                                earlier.violations)


def run_falsification(cfg: SamplerConfig, workers: int = WORKERS) -> FalsificationSummary:
    """Hunt for violations of both steerability bounds over the sampling plan.

    Margins are the bound_margins: S - lower for theorem1, upper - S for
    theorem2; a violation is a margin below -SLACK, as in bound_violations.
    _run_chunks folds each chunk with _fold_chunk, and _merge joins the folds
    in index order; an empty plan's least margins read 0.0, not inf.
    """
    least = math.inf if cfg.count else 0.0
    with contextlib.closing(_run_chunks(_fold_chunk, cfg, workers)) as folds:
        return functools.reduce(_merge, folds, FalsificationSummary(0, THEOREMS, least, least, []))
