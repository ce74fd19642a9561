"""Command-line front end: generate, directed, cover, conjecture, naive.

Exit codes: 0 success/covered, 1 I/O failure, 2 usage error (argparse),
3 counterexample found, 4 residual (uncovered balls remain), 5 point count
over the naive-oracle size limit.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .covering import CoverParams, cover_region
from .discrepancy import SizeLimitExceeded, directed_discrepancy, naive_discrepancy, project
from .geometry import Region, polar_to_cartesian
from .pointsets import (
    PointFileError,
    generate_polar,
    generate_random_uniform,
    generate_twisted_polar,
    read_point_set,
    write_point_set,
)
from .polar_analysis import conjecture_setup
from .reporting import read_summary_rows, upsert_summary_row, write_report

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2
EXIT_COUNTEREXAMPLE = 3
EXIT_RESIDUAL = 4
EXIT_SIZE_LIMIT = 5


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="capdisc",
        description="Certified spherical cap discrepancy bounds via directional covering.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a point-set CSV")
    gen.add_argument("--structure", choices=["polar", "twisted", "random"], required=True)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--seed", type=int, help="random structure only (default 0)")
    gen.add_argument("--out", required=True)

    dire = sub.add_parser("directed", help="directed discrepancy along one axis")
    dire.add_argument("--points", required=True)
    dire.add_argument("--theta", type=float, required=True)
    dire.add_argument("--phi", type=float, required=True)
    dire.add_argument("--json", action="store_true")

    cov = sub.add_parser("cover", help="run the covering engine over a region")
    cov.add_argument("--points", required=True)
    cov.add_argument("--d", type=float, required=True)
    cov.add_argument("--phi-min", type=float, required=True)
    cov.add_argument("--phi-max", type=float, required=True)
    cov.add_argument("--theta-min", type=float, required=True)
    cov.add_argument("--theta-max", type=float, required=True)
    cov.add_argument("--report", required=True)

    conj = sub.add_parser("conjecture", help="north-pole maximality check per n")
    conj.add_argument("--n-min", type=int, required=True)
    conj.add_argument("--n-max", type=int, required=True)
    conj.add_argument("--structure", choices=["twisted", "polar"], default="twisted")
    conj.add_argument("--summary", required=True)

    nai = sub.add_parser("naive", help="exact discrepancy by axis enumeration")
    nai.add_argument("--points", required=True)
    nai.add_argument("--limit", type=int, default=400)

    return parser


def _cmd_generate(args) -> int:
    if args.n < 2:
        print("error: --n must be at least 2", file=sys.stderr)
        return EXIT_USAGE
    if args.seed is not None and args.structure != "random":
        print(f"error: --seed is for --structure random, not {args.structure}", file=sys.stderr)
        return EXIT_USAGE
    if args.structure == "polar":
        ps = generate_polar(args.n)
    elif args.structure == "twisted":
        ps = generate_twisted_polar(args.n)
    else:
        ps = generate_random_uniform(args.n, args.seed or 0)
    write_point_set(ps, args.out)
    print(ps.size)
    return EXIT_OK


def _cmd_directed(args) -> int:
    for name in ("theta", "phi"):
        value = getattr(args, name)
        if not math.isfinite(value):
            print(f"error: --{name} must be finite, got {value!r}", file=sys.stderr)
            return EXIT_USAGE
    ps = read_point_set(args.points)
    v = polar_to_cartesian(args.theta, args.phi)
    res = directed_discrepancy(project(ps, v))
    if args.json:
        print(
            json.dumps(
                {
                    "direction": [float(c) for c in res.direction],
                    "value": res.value,
                    "witness_height": res.witness_height,
                    "witness_inclusive": res.witness_inclusive,
                }
            )
        )
    else:
        print(f"directed_value {res.value:.17g}")
        print(f"witness_height {res.witness_height:.17g}")
    return EXIT_OK


def _cmd_cover(args) -> int:
    ps = read_point_set(args.points)
    try:
        region = Region(args.phi_min, args.phi_max, args.theta_min, args.theta_max)
        params = CoverParams(d=args.d, region=region)
        outcome = cover_region(ps, params)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    write_report(args.report, ps, params, outcome)
    print(f"status {outcome.status}")
    print(f"n_DD {outcome.counters['n_DD']}")
    print(f"n_CC {outcome.counters['n_CC']}")
    if outcome.status == "counterexample":
        return EXIT_COUNTEREXAMPLE
    if outcome.status == "residual":
        return EXIT_RESIDUAL
    return EXIT_OK


def _cmd_conjecture(args) -> int:
    if args.n_min < 2 or args.n_max < args.n_min:
        print("error: need 2 <= --n-min <= --n-max", file=sys.stderr)
        return EXIT_USAGE

    def refused(exc: ValueError) -> int:
        print(f"error: cannot update summary {args.summary}: {exc}", file=sys.stderr)
        return EXIT_IO

    try:
        read_summary_rows(args.summary)  # a foreign file is refused before the first cover
    except ValueError as exc:
        return refused(exc)
    worst = EXIT_OK
    for n in range(args.n_min, args.n_max + 1):
        ps, params = conjecture_setup(n, args.structure)
        outcome = cover_region(ps, params)
        try:
            upsert_summary_row(args.summary, n, ps, params, outcome)
        except ValueError as exc:
            return refused(exc)
        print(
            f"n {n} t {ps.size} status {outcome.status} "
            f"n_DD {outcome.counters['n_DD']} n_CC {outcome.counters['n_CC']}"
        )
        if outcome.status == "counterexample":
            worst = max(worst, EXIT_COUNTEREXAMPLE)
        elif outcome.status == "residual":
            worst = max(worst, EXIT_RESIDUAL)
    return worst


def _cmd_naive(args) -> int:
    ps = read_point_set(args.points)
    try:
        value, cap = naive_discrepancy(ps, limit=args.limit)
    except SizeLimitExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SIZE_LIMIT
    print(f"discrepancy {value:.17g}")
    print(
        "witness_axis "
        + " ".join(f"{float(c):.17g}" for c in cap.axis)
        + f" height {cap.height:.17g}"
    )
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "directed": _cmd_directed,
        "cover": _cmd_cover,
        "conjecture": _cmd_conjecture,
        "naive": _cmd_naive,
    }
    try:
        return handlers[args.command](args)
    except PointFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
