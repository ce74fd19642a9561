#!/usr/bin/env python3
"""Soundness audit of one conjecture covering run on a polar structure.

Covers the conjecture region of `conjecture_setup(n, structure)`, with d set
to the north-pole value, then fires uniform probes at the certificate: every
probe must sit inside a certified ball and its directly computed directed
value must not exceed d.  Prints the cover's status, counters and seconds,
the audit's counts and seconds, and the process's peak RSS.

Plain polar n=30 reports residual: around the y-axis, where eleven
projections coincide and the confidence radius is exactly zero, Cover Cap
leaves residual balls at its depth limit.  Yet (0, 1, 0) and every residual
ball lie inside a phase-1 ball, with a slack of at least 3.0e-3
(`not_covered_inside_orbit` counts them), so the audit still passes.

    python3 scripts/audit_polar_run.py --n 30 --probes 100000
    python3 scripts/audit_polar_run.py --structure twisted --n 80
"""
import argparse
import resource
import time

from capdisc import audit_coverage, conjecture_setup, cover_region


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--structure", choices=["polar", "twisted"], default="polar")
    ap.add_argument("--n", type=int, default=30)
    ap.add_argument("--probes", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    ps, params = conjecture_setup(args.n, structure=args.structure)
    t0 = time.perf_counter()
    outcome = cover_region(ps, params)
    cover_s = time.perf_counter() - t0
    counters = outcome.counters
    print(
        f"cover: {args.structure}:{args.n} status={outcome.status} n_DD={counters['n_DD']} "
        f"balls={len(outcome.records)} cover_cap_inside_orbit={counters['cover_cap_inside_orbit']} "
        f"residual_directions={len(outcome.not_covered)} "
        f"not_covered_inside_orbit={counters['not_covered_inside_orbit']} seconds={cover_s:.2f}"
    )

    t0 = time.perf_counter()
    result = audit_coverage(
        ps, params, outcome, probe_count=args.probes, seed=args.seed
    )
    audit_s = time.perf_counter() - t0
    print(
        f"audit: probes={result['probes']} uncovered={result['uncovered']} "
        f"over_bound={result['over_bound']} seconds={audit_s:.2f}"
    )
    # ru_maxrss is in KiB on Linux.
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"peak_rss_mb={peak_mb:.1f}")


if __name__ == "__main__":
    main()
