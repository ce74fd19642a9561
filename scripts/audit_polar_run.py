#!/usr/bin/env python3
"""Soundness audit of one covering run on the plain polar structure.

Covers the conjecture region for polar(n) with d set to the north-pole
value, then fires uniform probes at the certificate: every probe must sit
inside a certified ball and its directly computed directed value must not
exceed d.  The plain polar structure has a singular direction on the
equator (the y-axis) where eleven projections coincide and the confidence
radius is exactly zero, so the run honestly reports residual there; the
audit still passes because that gap has measure zero.  Prints the seconds
spent in the cover and in the audit, and the process's peak RSS.

    python3 scripts/audit_polar_run.py --n 30 --probes 100000
"""
import argparse
import resource
import time

from capdisc import audit_coverage, conjecture_setup, cover_region


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=30)
    ap.add_argument("--probes", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    ps, params = conjecture_setup(args.n, structure="polar")
    t0 = time.perf_counter()
    outcome = cover_region(ps, params)
    cover_s = time.perf_counter() - t0
    print(
        f"cover: status={outcome.status} n_DD={outcome.counters['n_DD']} "
        f"residual_directions={len(outcome.not_covered)} seconds={cover_s:.2f}"
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
