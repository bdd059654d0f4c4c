"""Command line interface.

Exit codes: 0 success, 1 a verify run found bound violations, 2 input error
(bad flags, malformed or invalid state files, out-of-range parameters) or
a failed run (an OSError, such as a worker process of sample or verify
that ended before it sent its chunk).

Every output file is staged once, by _staging, and replaces its path only
when its command succeeds; the harness.write_* functions write the path
they are given.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import stat
import sys

from . import harness, measures
from .errors import QSteerError, ValidationError
from .states import STREAM_VERSION, SamplerConfig, state_from_json

# the scalar report fields, concurrence..upper_bound, one table line each
TABLE_FIELDS = measures.MeasureReport._fields[:9]


def _parse_ranks(text: str):
    try:
        return "uniform" if text == "uniform" else int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"ranks must be 1..4 or 'uniform', got {text!r}") from None


def _add_plan_flags(p) -> None:
    """The sampling-plan flags that sample and verify share."""
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ranks", type=_parse_ranks, default="uniform",
                   help="1..4 or 'uniform'")
    p.add_argument("--workers", type=int, default=harness.WORKERS,
                   help="forked processes that draw and measure the plan, and "
                        "also format sample's CSV; without os.fork every chunk "
                        "runs in the calling thread (default: %(default)s, the "
                        "CPUs this process may use, at most 2, or 1 without "
                        "os.fork)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsteer",
        description="Two-qubit concurrence/steerability toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="report every measure for one state file")
    p.add_argument("--in", dest="in_path", required=True, help="state JSON file")
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.add_argument("--out", default=None, help="write the report here instead of stdout")

    p = sub.add_parser("sample", help="random-state scatter run, CSV output")
    _add_plan_flags(p)
    p.add_argument("--out", required=True)

    p = sub.add_parser("channel-sweep", help="closed forms vs pipeline for one family")
    p.add_argument("--family", choices=harness.FAMILIES, required=True)
    p.add_argument("--theta-steps", type=int, default=50)
    p.add_argument("--eta-steps", type=int, default=50)
    p.add_argument("--p-steps", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("wu-scan", help="classify the (purity, C) plane")
    p.add_argument("--grid", default="400x400", help="purity-steps x C-steps")
    p.add_argument("--out", required=True)

    p = sub.add_parser("verify", help="falsification run against both bounds")
    _add_plan_flags(p)
    p.add_argument("--out", default=None, help="also write the summary JSON here")
    return parser


@contextlib.contextmanager
def _staging(path):
    """The name to write path's new contents to: a new empty file beside
    it, made with mode 0o666 less the umask, as open(path, "w") makes a new
    file, or with the mode of the regular file it replaces.  When the block
    ends the new file is moved onto path with os.replace; if the block
    raises, it is removed and path is left as it was.  A path that is a
    symlink or exists as something other than a regular file (a FIFO,
    /dev/stdout) is its own name, written in place."""
    try:
        mode = os.lstat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        yield path
        return
    head, tail = os.path.split(os.fspath(path))
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    for n in itertools.count():
        temp = os.path.join(head, f".{tail}.{os.getpid()}.{n}.tmp")
        try:
            os.close(os.open(temp, flags, 0o666))
            break
        except FileExistsError:
            pass
        except OSError as exc:
            exc.filename = os.fspath(path)  # name path, as open(path, "w") does
            raise
    try:
        if mode is not None:
            os.chmod(temp, stat.S_IMODE(mode))
        yield temp
        os.replace(temp, path)
    except BaseException:
        os.unlink(temp)
        raise


def _write_text(path, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with _staging(path) as name, open(name, "w", newline="") as fh:
            fh.write(text)


def _analyze(args) -> int:
    try:
        with open(args.in_path, encoding="utf-8") as fh:
            obj = json.load(fh)
    # ValueError: malformed JSON, bytes that are not UTF-8, or an integer
    # past Python's digit limit; RecursionError: arrays nested too deep
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"state file is not valid UTF-8 JSON: {exc}") from None
    rho = state_from_json(obj)
    rep = measures.report(rho)
    lower_fires = rep.lower_bound > 0.0
    if args.format == "json":
        payload = rep.as_dict()
        payload["steering_by_lower_bound"] = bool(lower_fires)
        payload["steerable"] = rep.steerability > 0.0
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = [f"{name:<22}{getattr(rep, name)!r}" for name in TABLE_FIELDS]
        sv = ", ".join(repr(x) for x in rep.singular_values)
        lam = ", ".join(repr(x) for x in rep.lam)
        lines.append(f"{'singular_values':<22}{sv}")
        lines.append(f"{'lam':<22}{lam}")
        lines.append(f"{'classification':<22}{rep.classification}")
        if lower_fires:
            lines.append(
                f"{'steering (C,purity)':<22}yes (C^2 + purity - 1 = "
                f"{rep.concurrence * rep.concurrence + rep.purity - 1.0!r} > 0)"
            )
        else:
            lines.append(f"{'steering (C,purity)':<22}no (C^2 + purity <= 1)")
        if rep.steerability > 0.0:
            lines.append(f"{'steering (S > 0)':<22}yes (S = {rep.steerability!r})")
        else:
            lines.append(f"{'steering (S > 0)':<22}no (S = 0)")
        text = "\n".join(lines) + "\n"
    _write_text(args.out, text)
    return 0


def _sample(args) -> int:
    cfg = SamplerConfig(ranks=args.ranks, seed=args.seed, count=args.count)
    with _staging(args.out) as name:
        harness.write_scatter_csv(name, cfg, workers=args.workers)
    return 0


def _channel_sweep(args) -> int:
    table = harness.run_family_sweep(
        args.family,
        theta_steps=args.theta_steps,
        eta_steps=args.eta_steps,
        p_steps=args.p_steps,
        seed=args.seed,
    )
    with _staging(args.out) as name:
        harness.write_sweep_csv(name, table)
    return 0


def _wu_scan(args) -> int:
    try:
        left, _, right = args.grid.partition("x")
        purity_steps, c_steps = int(left), int(right)
    except ValueError:
        raise QSteerError(f"--grid must look like '400x400', got {args.grid!r}") from None
    result = harness.run_region_scan(purity_steps, c_steps)
    stem = args.out[:-4] if args.out.endswith(".csv") else args.out
    # all three files are written whole before any replaces its path, so a
    # failed write leaves every earlier file as it was; the innermost, the
    # region CSV, is moved first
    with (_staging(stem + "_werner.csv") as werner,
          _staging(stem + "_boundary.csv") as boundary,
          _staging(args.out) as region):
        harness.write_region_csv(region, result)
        harness.write_boundary_csv(boundary, result.criterion_boundary)
        harness.write_boundary_csv(werner, result.werner_envelope)
    return 0


def _verify(args) -> int:
    cfg = SamplerConfig(ranks=args.ranks, seed=args.seed, count=args.count)
    summary = harness.run_falsification(cfg, workers=args.workers)
    payload = summary.as_dict()
    payload["seed"] = args.seed
    payload["measure"] = cfg.measure
    payload["ranks"] = str(args.ranks)
    payload["stream"] = STREAM_VERSION
    text = json.dumps(payload, indent=2) + "\n"
    sys.stdout.write(text)
    if args.out is not None:
        _write_text(args.out, text)
    return 1 if summary.violations else 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = {
        "analyze": _analyze,
        "sample": _sample,
        "channel-sweep": _channel_sweep,
        "wu-scan": _wu_scan,
        "verify": _verify,
    }[args.command]
    try:
        return handler(args)
    except (QSteerError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
