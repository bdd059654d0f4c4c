"""qsteer benchmark: one workload, timed end to end, or traced layer by layer.

    python3 perfbench/run.py --workload scatter --seed 1 --seconds 40 --trace 0

Run it from the root of a source checkout; it imports ``qsteer`` from
``src/`` there and from nowhere else.  One run:

1. runs one pass at tiny sizes to warm caches (checked, not timed);
2. runs full passes through ``qsteer.cli.main`` for ``--seconds`` seconds,
   one command at a time, and checks every output after its pass; no pass
   is started that would likely end past that time;
3. in an untraced run, times at least ``SETUP_REPEATS`` fresh interpreters,
   spread over the run, each from just before ``import qsteer`` to the end
   of the first ``measures.report`` on I/4;
4. runs the fixed reference work of ``reference.py`` before the first pass
   and after every pass and probe, and scales each pass and probe to the
   reference speed by the reference times just before and just after it.

With ``--trace 0`` every pass is untraced and the end-to-end metrics are
reported.  With ``--trace 1`` untraced and traced passes alternate, and the
per-layer metrics of the traced passes are reported; the spans of the last
traced pass are written to ``.perfbench/``.  Human-readable lines come
first; the last line of standard output is the JSON result.  See README.md
in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 7
WORKLOADS = ("scatter", "verify", "families")

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("rows_per_s", "1/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)

SETUP_PROBE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import qsteer
from qsteer import measures
import numpy as np
measures.report(np.eye(4) / 4.0)
t1 = time.perf_counter()
print(t1 - t0, qsteer.__file__)
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--sizes", choices=("full", "tiny"), default="full",
                   help="workload sizes; 'tiny' is for the benchmark's own tests")
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        p.error("--seed must be a uint64")
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    return args


def _import_checkout():
    """Import qsteer from this checkout's src/, refusing any other copy."""
    if not (SRC / "qsteer" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no qsteer sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qsteer

    if Path(qsteer.__file__).resolve().parent != SRC / "qsteer":
        raise SystemExit(f"perfbench: imported qsteer from {qsteer.__file__}, not {SRC}")


def setup_probe() -> float:
    """Set-up time of one fresh interpreter importing this checkout's qsteer."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    seconds, path = proc.stdout.split()
    if Path(path).resolve().parent != SRC / "qsteer":
        raise SystemExit(f"perfbench: setup probe imported qsteer from {path}")
    return float(seconds)


class Pass:
    """Outcome of one pass: timings of the commands, then their checks."""

    def __init__(self):
        self.wall = 0.0
        self.cpu = 0.0
        self.command_walls: list[float] = []
        self.maxrss_mb = 0.0  # process high-water mark at the end of the timed region
        self.rows = 0
        self.attempted = 0
        self.failed = 0
        self.digests: list[str | None] = []
        self.errors: list[str] = []


def run_pass(cmds, recorder=None) -> Pass:
    """Run ``cmds`` back to back, timed; then check each and hash its output."""
    from qsteer import cli

    result = Pass()
    outcomes = []
    if recorder is not None:
        recorder.install()
    try:
        c0 = time.process_time()
        t0 = time.perf_counter()
        for cmd in cmds:
            t_cmd = time.perf_counter()
            stdout = io.StringIO()
            try:
                with contextlib.redirect_stdout(stdout):
                    outcomes.append((cli.main(list(cmd.argv)), stdout.getvalue()))
            except (Exception, SystemExit):  # a failed command must not stop the run
                outcomes.append((traceback.format_exc(), stdout.getvalue()))
            result.command_walls.append(time.perf_counter() - t_cmd)
        result.wall = time.perf_counter() - t0
        result.cpu = time.process_time() - c0
        result.maxrss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        if recorder is not None:
            recorder.uninstall()
    import workloads

    for cmd, (status, stdout) in zip(cmds, outcomes):
        result.attempted += 1
        try:
            if status != 0:
                raise workloads.CheckFailed(f"{' '.join(cmd.argv)} exited with {status}")
            result.rows += cmd.check(stdout)
            result.digests.append(workloads.digest(stdout, cmd.outputs))
        except (workloads.CheckFailed, OSError, ValueError) as exc:
            result.failed += 1
            result.digests.append(None)
            result.errors.append(f"{cmd.argv[0]}: {exc}")
        for p in cmd.outputs:
            with contextlib.suppress(FileNotFoundError):
                os.remove(p)
    return result


def _compare_digests(p: Pass, reference: list) -> None:
    """Count a command as failed when its output differs from the first pass."""
    for k, (got, want) in enumerate(zip(p.digests, reference)):
        if got is not None and want is not None and got != want:
            p.failed += 1
            p.errors.append(f"command {k}: output sha256 differs from the first pass")


def _median(values):
    return statistics.median(values) if values else 0.0


def _context(args, workload_cmds, samples, absent=(), missing=()) -> dict:
    import numpy
    import importlib.util

    cpu_model = ""
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh
                              if ln.startswith("model name")), "")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": args.sizes,
        "commands": [" ".join(c.argv) for c in workload_cmds],
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "git_commit": _git_commit(),
        "samples": samples,
        "absent_layers": list(absent),
        "missing_targets": list(missing),
    }


def _git_commit():
    """The checkout's commit read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    args = parse_args(argv)
    _import_checkout()
    import numpy as np
    from qsteer import measures
    import reference
    import tracing
    import workloads

    measures.report(np.eye(4) / 4.0)
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    ref = reference.Reference()
    ref.run()  # warm-up, not used
    setup = []  # (raw seconds, reference (wall, cpu) around the probe)
    try:
        warm = run_pass(workloads.commands(args.workload, args.seed, "tiny", workdir))
        cmds = workloads.commands(args.workload, args.seed, args.sizes, workdir)
        passes = []  # (traced, Pass, recorder or None, reference (wall, cpu))
        before = ref.gap(0.0)

        def bracketed(fn, *fn_args):
            """Run ``fn``; return its result and the mean reference time around it."""
            nonlocal before
            t0 = time.perf_counter()
            value = fn(*fn_args)
            after = ref.gap(time.perf_counter() - t0)
            around = ((before[0] + after[0]) / 2, (before[1] + after[1]) / 2)
            before = after
            return value, around

        start = time.perf_counter()
        deadline = start + args.seconds
        # Set-up probes are spread evenly over an untraced run, like the passes.
        probe_every = args.seconds / (SETUP_REPEATS + 1)
        next_probe = start
        longest = 0.0
        while True:
            t0 = time.perf_counter()
            if not args.trace and t0 >= next_probe:
                setup.append(bracketed(setup_probe))
                next_probe += probe_every
            traced = bool(args.trace) and len(passes) % 2 == 1
            recorder = tracing.Recorder() if traced else None
            p, around = bracketed(run_pass, cmds, recorder)
            if passes:
                _compare_digests(p, passes[0][1].digests)
            passes.append((traced, p, recorder, around))
            now = time.perf_counter()
            longest = max(longest, now - t0)
            # stop before a pass that would likely end past the deadline
            enough = not args.trace or len(passes) >= 2
            if enough and now + longest > deadline:
                break
        while not args.trace and len(setup) < SETUP_REPEATS:
            setup.append(bracketed(setup_probe))
    finally:
        for name in os.listdir(workdir):
            os.remove(os.path.join(workdir, name))
        os.rmdir(workdir)

    all_passes = [warm] + [p for _, p, _, _ in passes]
    attempted = sum(p.attempted for p in all_passes)
    failed = sum(p.failed for p in all_passes)
    for p in all_passes:
        for err in p.errors:
            print(f"FAILED {err}", file=sys.stderr)
    untraced = [(p, around) for traced, p, _, around in passes if not traced]
    recorders = [r for traced, _, r, _ in passes if traced]
    wall_untraced = _median([p.wall for p, _ in untraced])

    print(f"perfbench {args.workload} seed={args.seed} sizes={args.sizes} "
          f"trace={args.trace} passes={len(passes)}")
    if not args.trace:
        # Every time is scaled to the reference speed by the reference work
        # run just before and just after it (see reference.py).
        per_pass = {
            "wall_s": [p.wall * reference.REF_S / ref_wall for p, (ref_wall, _) in untraced],
            "cpu_s": [p.cpu * reference.REF_S / ref_cpu for p, (_, ref_cpu) in untraced],
        }
        per_pass["rows_per_s"] = [p.rows / w for (p, _), w in zip(untraced, per_pass["wall_s"])]
        per_pass["setup_s"] = [raw * reference.REF_S / ref_wall for raw, (ref_wall, _) in setup]
        values = {name: _median(v) for name, v in per_pass.items()}
        # After the first full pass, so that neither the number of passes nor
        # the output checks move it.
        values["peak_rss_mb"] = untraced[0][0].maxrss_mb
        samples = {**{k: len(v) for k, v in per_pass.items()}, "peak_rss_mb": 1}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        for name, unit in END_TO_END:
            print(f"  {name:<28}{values[name]:>14.6g} {unit:<6} (median of {samples[name]})"
                  if name != "peak_rss_mb" else
                  f"  {name:<28}{values[name]:>14.6g} {unit:<6} (after the first pass)")
        raw = {
            "setup_s": _median([r for r, _ in setup]),
            "wall_s": _median([p.wall for p, _ in untraced]),
            "cpu_s": _median([p.cpu for p, _ in untraced]),
            "reference wall": _median([w for _, (w, _) in untraced]),
        }
        print("  unscaled medians: " + ", ".join(f"{k} {v:.4f} s" for k, v in raw.items())
              + f" (REF_S {reference.REF_S} s)")
        print("  wall_s per pass: " + " ".join(f"{w:.4f}" for w in per_pass["wall_s"]))
        print("  unscaled wall, reference wall per pass: "
              + " ".join(f"{p.wall:.4f},{ref_wall:.4f}" for p, (ref_wall, _) in untraced))
        for k, cmd in enumerate(cmds):
            cmd_wall = _median([p.command_walls[k] for p, _ in untraced])
            print(f"  unscaled wall of {' '.join(cmd.argv[:3]):<36}{cmd_wall:>10.4f} s (median)")
        absent = missing = ()
    else:
        per_pass = [r.metrics() for r in recorders]
        traced_walls = [p.wall for traced, p, _, _ in passes if traced]
        metrics = {}
        for name, unit, _ in tracing.PER_LAYER:
            vals = [m[name] for m in per_pass]
            if name in tracing.COUNT_METRICS and len(set(vals)) != 1:
                raise SystemExit(f"perfbench: count {name} differs between passes: {vals}")
            metrics[name] = {"value": _median(vals), "unit": unit}
        wall_traced = _median(traced_walls)
        metrics["trace.wall_s"] = {"value": wall_traced, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": wall_traced - wall_untraced, "unit": "s"}
        last = recorders[-1]
        absent, missing = last.absent_layers(), last.missing
        samples = {"per_layer": len(recorders), "untraced_wall_s": len(untraced)}
        for name, m in metrics.items():
            layer = name.rsplit(".", 1)[0]
            shown = "absent" if layer in absent else f"{m['value']:.6g}"
            print(f"  {name:<32}{shown:>14} {m['unit']}")
        accounted = _median([r.accounted_s() for r in recorders])
        print(f"  span self times account for {accounted:.4f} s of the traced "
              f"{wall_traced:.4f} s (untraced {wall_untraced:.4f} s)")
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        last.write(trace_path)
        print(f"  spans of the last traced pass: {trace_path.relative_to(ROOT)}")
    print(f"  {'failed_frac':<28}{failed / attempted:>14.6g} ratio  "
          f"({failed} of {attempted} commands)")
    print("context " + json.dumps(_context(args, cmds, samples, absent, missing)))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
