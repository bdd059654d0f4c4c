"""Command line interface.

Exit codes: 0 success, 1 a verify run found bound violations, 2 input error
(bad flags, malformed or invalid state files, out-of-range parameters) or
a failed run (an OSError, such as a worker process of sample or verify
that ended before it sent its chunk).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import harness, measures
from .errors import QSteerError, ValidationError
from .states import STREAM_VERSION, SamplerConfig, state_from_json

# the scalar report fields, concurrence..upper_bound, one table line each
TABLE_FIELDS = measures.MeasureReport._fields[:9]


def _parse_ranks(text: str):
    if text == "uniform":
        return "uniform"
    return int(text)


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
    p.add_argument("--family", choices=("ad", "pd", "wu"), required=True)
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


def _write_text(path, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with harness._replacing(path) as fh:
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
    harness.write_scatter_csv(args.out, cfg, workers=args.workers)
    return 0


def _channel_sweep(args) -> int:
    table = harness.run_family_sweep(
        args.family,
        theta_steps=args.theta_steps,
        eta_steps=args.eta_steps,
        p_steps=args.p_steps,
        seed=args.seed,
    )
    harness.write_sweep_csv(args.out, table)
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
    # failed write leaves every earlier file as it was
    with harness._staging([args.out, stem + "_boundary.csv", stem + "_werner.csv"]) as names:
        harness.write_region_csv(names[0], result)
        harness.write_boundary_csv(names[1], result.criterion_boundary)
        harness.write_boundary_csv(names[2], result.werner_envelope)
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
