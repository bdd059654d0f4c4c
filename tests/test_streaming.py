"""sample and verify stream the plan chunk by chunk.

The streamed CSV and summary must equal an eager reference: the whole plan
drawn and measured as one table, then fed to the whole-table formatter and
reducer below.  Peak memory must not grow with the count.  With more than
one worker, both commands run their chunks in forked processes: sample
draws, measures and formats each chunk, verify draws, measures and folds
it.  Their bytes must equal the in-process run's, the parent must run one
thread when it forks, and no process may outlive the command.  Without
os.fork, every chunk runs in the calling thread.  A failed sample leaves
its --out as it was.
"""

import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qsteer import batch, cli, harness, states
from qsteer.errors import ParameterOutOfRange
from qsteer.states import SamplerConfig

CHUNK = harness.CHUNK
COMMANDS = ("sample", "verify")


def eager_table(cfg):
    """(ranks, rows) of the whole plan from one draw and one measure call."""
    if cfg.count == 0:
        return np.empty(0, np.int64), np.empty((0, batch.N_COLS))
    x, ranks = states.draw_matrices(cfg, 0, cfg.count)
    return ranks, batch.measure_factors(x)


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


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("count", COUNTS, ids=COUNT_IDS)
def test_streamed_verify_equals_eager_reference(count, workers, monkeypatch):
    cfg = SamplerConfig("ginibre", "uniform", seed=12, count=count)
    forks = _counted_forks(monkeypatch)
    summary = harness.run_falsification(cfg, workers=workers)
    _assert_forks_fit_the_plan(forks, count, workers)
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


def test_one_worker_starts_no_pool(monkeypatch, tmp_path):
    def no_pool(*args):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(harness, "_ahead", no_pool)
    cfg = SamplerConfig("ginibre", "uniform", seed=14, count=3 * CHUNK)
    # a plan of one chunk needs no pool at any worker count
    small = SamplerConfig("ginibre", "uniform", seed=14, count=CHUNK)
    for plan, workers in ((cfg, 1), (small, 4)):
        chunks = list(harness._run_chunks(harness.scatter_table, plan, workers))
        assert [start for start, _, _ in chunks] == list(range(0, plan.count, CHUNK))
        assert harness.run_falsification(plan, workers=workers).checked == plan.count
        harness.write_scatter_csv(tmp_path / "scatter.csv", plan, workers=workers)


@pytest.fixture
def deadline():
    """Fail the test, rather than hang the suite, if it runs past 60 s: the
    alarm raises in the main thread, also inside a blocked read or waitpid.
    pytest.fail's exception is not an Exception, so cli.main cannot turn it
    into exit 2."""
    def expire(signum, frame):
        pytest.fail("the test ran past its 60 s deadline", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_a_closed_pool_stops_its_workers_within_a_chunk_of_the_reader(monkeypatch, deadline):
    # a sample chunk's text, about 340 kB, outgrows a 64 kB pipe buffer, so
    # a worker holds at most one finished chunk: after the parent reads
    # chunk 0 and closes, worker 0 has started chunk 2 and worker 1 chunk 1,
    # and neither starts another.  The children count their starts down a
    # pipe of the test's own.
    read, write = os.pipe()

    def counted(cfg, start, stop):
        os.write(write, start.to_bytes(8, "little"))
        return harness._scatter_text(cfg, start, stop)

    forks = _counted_forks(monkeypatch)
    cfg = SamplerConfig("ginibre", "uniform", seed=15, count=20 * CHUNK)
    chunks = harness._run_chunks(counted, cfg, 2)
    assert next(chunks).startswith(harness.SCATTER_HEADER + "\n0,")
    chunks.close()
    assert len(forks) == 2
    _assert_reaped(forks)
    os.close(write)
    with open(read, "rb") as fh:
        counts = fh.read()
    started = sorted(int.from_bytes(counts[i : i + 8], "little")
                     for i in range(0, len(counts), 8))
    assert started == [0, CHUNK, 2 * CHUNK]


@pytest.mark.parametrize("workers", [1, 3])
def test_error_in_a_chunk_reaches_the_consumer(workers, monkeypatch):
    def measure(x):
        raise ParameterOutOfRange("bad chunk")

    monkeypatch.setattr(batch, "measure_factors", measure)
    cfg = SamplerConfig("ginibre", "uniform", seed=16, count=3 * CHUNK)
    with pytest.raises(ParameterOutOfRange, match="bad chunk"):
        harness.run_falsification(cfg, workers=workers)


def _peak_bytes(argv) -> int:
    return _traced(lambda: cli.main(argv))[1]


def _traced(call):
    """call()'s result, and the peak bytes tracemalloc saw while it ran."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_the_plan_holds_the_same_few_objects_at_any_count():
    # a million chunks: a plan built as a list of (cfg, start, stop) tuples
    # holds over 100 MB before the first chunk runs
    def first(cfg, start, stop):
        return start, stop

    cfg = SamplerConfig(count=CHUNK * 10**6)
    chunk, peak = _traced(lambda: next(harness._run_chunks(first, cfg, 1)))
    assert chunk == (0, CHUNK)
    assert peak < 2**20, peak


def test_the_merge_keeps_nothing_per_chunk_but_the_violations(monkeypatch):
    # 50000 chunks, each folded by a stub: the merge keeps each theorem's
    # running least margin, not one number per chunk
    def fold(cfg, start, stop):
        return harness.FalsificationSummary(stop - start, harness.THEOREMS,
                                            0.5 if start else 0.25, 0.75, [])

    monkeypatch.setattr(harness, "_fold_chunk", fold)
    cfg = SamplerConfig(count=CHUNK * 50000)
    summary, peak = _traced(lambda: harness.run_falsification(cfg, workers=1))
    assert summary.as_dict() == {
        "checked": cfg.count, "theorems": list(harness.THEOREMS),
        "worst_margin_lower": 0.25, "worst_margin_upper": 0.75, "violations": []}
    assert peak < 2**20, peak


def test_the_merge_is_linear_in_the_violations(monkeypatch):
    # 40000 chunks of one violation each.  On a 2-CPU x86-64 host a merge
    # that extends the reducer's list took 0.25 s, one that copies both
    # lists at each step, quadratic in the violations, 3.6-4.3 s.
    def fold(cfg, start, stop):
        return harness.FalsificationSummary(
            stop - start, harness.THEOREMS, -1.0, 0.5,
            [{"index": start, "theorem": "theorem1", "margin": -1.0}])

    monkeypatch.setattr(harness, "_fold_chunk", fold)
    cfg = SamplerConfig(count=CHUNK * 40000)
    began = time.perf_counter()
    summary = harness.run_falsification(cfg, workers=1)
    elapsed = time.perf_counter() - began
    assert [v["index"] for v in summary.violations] == list(range(0, cfg.count, CHUNK))
    assert elapsed < 1.0, elapsed


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


def test_default_pool_peaks_no_higher_than_the_serial_run_it_replaced(monkeypatch, capsys):
    # Before the pool became the default, one worker drew 4096 records at a
    # time.  The default of at most two workers holds up to four CHUNK-row
    # tables in its window and measures two chunks at once; at CHUNK = 2048
    # that may cost at most one 4096-row table more than the serial run.
    serial_chunk = 4096
    argv = ["verify", "--count", str(16 * CHUNK), "--seed", "5"]
    cli.main(argv[:2] + [str(4 * CHUNK)])  # first-call allocations
    pooled = _peak_bytes(argv)
    monkeypatch.setattr(harness, "CHUNK", serial_chunk)
    serial = _peak_bytes(argv + ["--workers", "1"])
    capsys.readouterr()
    assert pooled < serial + serial_chunk * batch.N_COLS * 8, (pooled, serial)


def _counted_forks(monkeypatch):
    """The pids of the processes forked from here on: one per pool worker."""
    forks = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return forks


def _assert_reaped(pids):
    """Every pid has exited and been waited for: none running, no zombie."""
    assert multiprocessing.active_children() == []
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def _assert_forks_fit_the_plan(forks, count, workers):
    """A plan of one chunk stays in process; a longer one forks a process
    per worker, but no more than it has chunks, and reaps them all."""
    chunks = -(-count // CHUNK)
    assert len(forks) == (min(workers, chunks) if chunks > 1 and workers > 1 else 0)
    _assert_reaped(forks)


def _argv(command, count, seed, workers, out):
    return [command, "--count", str(count), "--seed", str(seed),
            "--workers", str(workers), "--out", str(out)]


@pytest.mark.parametrize("workers", [2, 3])
# CHUNK + 1 has fewer chunks than 3 workers; 7 * CHUNK + 3 gives each
# worker a shard of more than two chunks
@pytest.mark.parametrize("count", [0, 1, CHUNK, CHUNK + 1, 2 * CHUNK + 7, 7 * CHUNK + 3])
def test_forked_sample_writes_the_in_process_bytes(count, workers, monkeypatch, tmp_path):
    base = ["sample", "--count", str(count), "--seed", "17"]
    serial, pooled = tmp_path / "serial.csv", tmp_path / "pooled.csv"
    assert cli.main(base + ["--workers", "1", "--out", str(serial)]) == 0
    forks = _counted_forks(monkeypatch)
    assert cli.main(base + ["--workers", str(workers), "--out", str(pooled)]) == 0
    assert pooled.read_bytes() == serial.read_bytes()
    _assert_forks_fit_the_plan(forks, count, workers)


def test_without_fork_the_chunks_run_in_the_calling_thread(tmp_path):
    # a fresh interpreter without os.fork (as on Windows) runs a plan of
    # three chunks at two workers: the one-worker bytes, no thread started,
    # no executor imported and no child process left
    argv = ["--count", str(3 * CHUNK), "--seed", "22"]
    for command in COMMANDS:
        assert cli.main([command, *argv, "--workers", "1",
                         "--out", str(tmp_path / f"{command}.serial")]) == 0
    code = f"""
import os, sys, threading
del os.fork
modules, threads, started = set(sys.modules), threading.active_count(), []
start = threading.Thread.start
threading.Thread.start = lambda self: started.append(self) or start(self)
from qsteer import cli, harness
for command in ("sample", "verify"):
    out = os.path.join(sys.argv[1], command + ".pooled")
    assert cli.main([command, *{argv!r}, "--workers", "2", "--out", out]) == 0
try:
    os.waitpid(-1, os.WNOHANG)
    children = "children"
except ChildProcessError:
    children = "no children"
imported = sorted({{"concurrent.futures", "multiprocessing"}} & (set(sys.modules) - modules))
print(harness.WORKERS, threading.active_count() - threads, len(started), imported, children)
"""
    last = _in_child(code, str(tmp_path)).splitlines()[-1]
    assert last == "1 0 0 [] no children"
    for command in COMMANDS:
        assert (tmp_path / f"{command}.pooled").read_bytes() \
            == (tmp_path / f"{command}.serial").read_bytes()


def _chunk_faults(cfg, start, stop):
    """The minor page faults this process takes to draw and measure one chunk."""
    import resource

    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    harness.scatter_table(cfg, start, stop)
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


def _has_mallopt() -> bool:
    import ctypes

    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


@pytest.mark.skipif(not (hasattr(os, "fork") and _has_mallopt()),
                    reason="needs os.fork and glibc's mallopt")
def test_pool_workers_keep_their_heap_across_chunks():
    # one worker runs all 16 chunks.  They are of one rank, so each chunk
    # makes temporaries of the same sizes and a worker that keeps its heap
    # touches no new page after the first few; one that hands each chunk's
    # freed temporaries back to the OS faults about 500 in again per chunk
    cfg = SamplerConfig("ginibre", 3, seed=19, count=16 * CHUNK)
    faults = list(harness._ahead(_chunk_faults, cfg, range(0, cfg.count, CHUNK), 1))
    assert len(faults) == 16 and max(faults[4:]) < 50, faults


@pytest.mark.parametrize("missing", [AttributeError, OSError])
def test_the_worker_initializer_passes_over_a_libc_without_mallopt(missing, monkeypatch):
    import ctypes

    class NoMallopt:
        def __init__(self, name):
            if missing is OSError:
                raise OSError("no C library")

    monkeypatch.setattr(ctypes, "CDLL", NoMallopt)
    assert harness._keep_heap() is None


def test_only_forked_workers_change_the_allocator(monkeypatch, tmp_path):
    # the calling process keeps its allocator at one worker, for a plan of
    # one chunk and without os.fork: a _keep_heap run there raises
    parent = os.getpid()

    def keep_heap():
        assert os.getpid() != parent, "the calling process changed its allocator"

    monkeypatch.setattr(harness, "_keep_heap", keep_heap)
    cfg = SamplerConfig("ginibre", "uniform", seed=20, count=2 * CHUNK + 7)
    small = SamplerConfig("ginibre", "uniform", seed=20, count=CHUNK)
    want = harness.run_falsification(cfg, workers=1)
    assert harness.run_falsification(small, workers=2).checked == CHUNK
    assert harness.run_falsification(cfg, workers=2) == want
    monkeypatch.delattr(os, "fork")
    assert harness.run_falsification(cfg, workers=2) == want


@pytest.mark.parametrize("command", COMMANDS)
def test_no_worker_process_outlives_the_run(command, monkeypatch, tmp_path, deadline):
    argv = _argv(command, 3 * CHUNK, 18, 2, tmp_path / "out")
    forks = _counted_forks(monkeypatch)
    assert cli.main(argv) == 0
    assert len(forks) == 2
    _assert_reaped(forks)

    def measure(x):
        raise ParameterOutOfRange("bad chunk")

    monkeypatch.setattr(batch, "measure_factors", measure)
    assert cli.main(argv) == 2
    assert len(forks) == 4
    _assert_reaped(forks)


EARLIER_OUT = b"an earlier run\n"


def _earlier_out(tmp_path):
    """An --out that holds an earlier run's bytes."""
    out = tmp_path / "out"
    out.write_bytes(EARLIER_OUT)
    return out


def _assert_out_kept(tmp_path):
    """A failed run leaves --out byte for byte as it was, and no temporary
    file beside it."""
    assert (tmp_path / "out").read_bytes() == EARLIER_OUT
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


@pytest.mark.parametrize("command", COMMANDS)
def test_error_in_a_forked_chunk_exits_2_with_its_message(command, monkeypatch, tmp_path,
                                                          capsys, deadline):
    def measure(x):
        raise ParameterOutOfRange(f"bad chunk in process {os.getpid()}")

    # patched before the fork, so the children inherit it
    monkeypatch.setattr(batch, "measure_factors", measure)
    forks = _counted_forks(monkeypatch)
    out = _earlier_out(tmp_path)
    # one worker raises in this process, two in a forked one
    for workers, pids in ((1, [os.getpid()]), (2, forks)):
        assert cli.main(_argv(command, 3 * CHUNK, 19, workers, out)) == 2
        captured = capsys.readouterr()
        assert captured.err in {f"error: bad chunk in process {pid}\n" for pid in pids}, (
            captured.err, pids)
        assert captured.out == ""
        _assert_out_kept(tmp_path)


@pytest.mark.parametrize("command", COMMANDS)
def test_a_worker_that_dies_exits_2_naming_it(command, monkeypatch, tmp_path, capsys,
                                              deadline):
    # a worker that ends without sending its chunk (os._exit, an OOM kill) is
    # an error of the run, not verify's exit 1 for violations found.  Only
    # forked workers can die so: one worker runs in the calling process
    parent = os.getpid()
    measure = batch.measure_factors

    def dying(x):
        if os.getpid() != parent:
            os._exit(3)
        return measure(x)

    monkeypatch.setattr(batch, "measure_factors", dying)
    forks = _counted_forks(monkeypatch)
    out = _earlier_out(tmp_path)
    assert cli.main(_argv(command, 3 * CHUNK, 21, 2, out)) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"error: worker process {forks[0]} ended (wait status 768, "
                            "exit code 3) before it sent the chunk at record 0\n")
    assert captured.out == ""
    assert len(forks) == 2
    _assert_reaped(forks)
    _assert_out_kept(tmp_path)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs")
def test_sample_replaces_a_regular_out_and_writes_through_the_rest(tmp_path, capsys):
    # a regular file is replaced and keeps its mode; a new one gets 0o666
    # less the umask, as open(path, "w") gives it; a symlink and a FIFO are
    # written in place; an --out that cannot be made is named in the error
    argv = ["sample", "--count", str(CHUNK + 1), "--seed", "23", "--workers", "1", "--out"]
    want = tmp_path / "want.csv"
    assert cli.main(argv + [str(want)]) == 0
    umask = os.umask(0)
    os.umask(umask)
    assert want.stat().st_mode & 0o777 == 0o666 & ~umask

    kept = _earlier_out(tmp_path)
    kept.chmod(0o640)
    assert cli.main(argv + [str(kept)]) == 0
    assert kept.read_bytes() == want.read_bytes()
    assert kept.stat().st_mode & 0o777 == 0o640

    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_bytes(EARLIER_OUT)
    link.symlink_to(target)
    assert cli.main(argv + [str(link)]) == 0
    assert link.is_symlink() and target.read_bytes() == want.read_bytes()

    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert cli.main(argv + [str(fifo)]) == 0
    reader.join(60)
    assert got == [want.read_bytes()]

    absent = tmp_path / "absent" / "out.csv"
    assert cli.main(argv + [str(absent)]) == 2
    assert capsys.readouterr().err == (
        f"error: [Errno 2] No such file or directory: {str(absent)!r}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "fifo", "link.csv", "out", "target.csv", "want.csv"]


@pytest.mark.parametrize("command", COMMANDS)
def test_the_parent_runs_one_thread_at_every_fork(command, monkeypatch, tmp_path):
    # fork copies only the calling thread, so a lock that another thread
    # holds at the fork stays held in the child
    threads = []
    fork = os.fork

    def counted():
        threads.append(threading.active_count())
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    assert cli.main(_argv(command, 7 * CHUNK + 3, 20, 3, tmp_path / "out")) == 0
    assert threads == [1, 1, 1]


def test_forked_sample_peaks_below_the_serial_run(tmp_path):
    # The parent holds at most 2 * workers chunk texts, each about 340 kB;
    # the serial run holds a chunk's factors and states, its measure table,
    # the SVD's work arrays and the lines being formatted.  Two workers is the
    # default wherever two CPUs are usable.
    argv = ["sample", "--count", str(16 * CHUNK), "--seed", "5",
            "--out", str(tmp_path / "scatter.csv")]
    pooled_flags = ["--workers", str(harness.MAX_DEFAULT_WORKERS)]
    for flags in (pooled_flags, ["--workers", "1"]):  # first-call allocations and imports
        cli.main(argv[:2] + [str(4 * CHUNK)] + argv[3:] + flags)
    pooled = _peak_bytes(argv + pooled_flags)
    serial = _peak_bytes(argv + ["--workers", "1"])
    assert pooled < serial, (pooled, serial)


@pytest.mark.parametrize("workers", ["0", "1.5"])
def test_bad_worker_count_leaves_the_output_alone(workers, tmp_path):
    kept, absent = tmp_path / "kept.csv", tmp_path / "absent.csv"
    kept.write_text("an earlier run\n")
    for out in (kept, absent):
        argv = ["sample", "--count", str(3 * CHUNK), "--workers", workers, "--out", str(out)]
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects a worker count that is not an integer
            code = exc.code
        assert code == 2
    assert kept.read_text() == "an earlier run\n"
    assert not absent.exists()


def _in_child(code, *args):
    """The standard output of a fresh interpreter that runs code."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _workers_in_child(setup):
    return int(_in_child(setup + "; from qsteer import harness; print(harness.WORKERS)"))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
def test_pooled_runs_import_no_executor(tmp_path):
    # the fork pool needs neither multiprocessing nor concurrent.futures
    code = f"""
import os, sys
from qsteer import cli
forks, fork = [], os.fork
os.fork = lambda: forks.append(1) or fork()
plan = ["--count", "{3 * CHUNK}", "--workers", "2"]
assert cli.main(["verify", *plan]) == 0
assert cli.main(["sample", *plan, "--out", sys.argv[1]]) == 0
print(len(forks), [m for m in ("multiprocessing", "concurrent.futures") if m in sys.modules])
"""
    last = _in_child(code, str(tmp_path / "scatter.csv")).splitlines()[-1]
    assert last == "4 []"


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity calls")
def test_default_workers_follow_the_affinity_mask():
    cpu = min(os.sched_getaffinity(0))
    assert _workers_in_child(f"import os; os.sched_setaffinity(0, {{{cpu}}})") == 1
    # a mask of 64 CPUs is only reported, so no thread starts
    assert _workers_in_child("import os; os.sched_getaffinity = lambda pid: set(range(64))") \
        == harness.MAX_DEFAULT_WORKERS == 2
    assert harness.WORKERS == min(len(os.sched_getaffinity(0)), 2)
    parser = cli._build_parser()
    for command in ("sample", "verify"):
        args = parser.parse_args([command, "--count", "1", "--out", "unused.csv"])
        assert args.workers == harness.WORKERS
