#!/usr/bin/env python3
"""Soundness audit of one covering run on the plain polar structure.

Covers the conjecture region for polar(n) with d set to the north-pole
value, then fires uniform probes at the certificate: every probe must sit
inside a certified ball and its directly computed directed value must not
exceed d.  The plain polar structure has a singular direction on the
equator (the y-axis) where eleven projections coincide and the confidence
radius is exactly zero, so the run honestly reports residual there; the
audit still passes because that gap has measure zero.

    python3 scripts/audit_polar_run.py --n 30 --probes 100000
"""
import argparse

from capdisc import audit_coverage, conjecture_setup, cover_region


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=30)
    ap.add_argument("--probes", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    ps, params = conjecture_setup(args.n, structure="polar")
    outcome = cover_region(ps, params)
    print(
        f"cover: status={outcome.status} n_DD={outcome.counters['n_DD']} "
        f"residual_directions={len(outcome.not_covered)}"
    )

    result = audit_coverage(
        ps, params, outcome, probe_count=args.probes, seed=args.seed
    )
    print(
        f"audit: probes={result['probes']} uncovered={result['uncovered']} "
        f"over_bound={result['over_bound']}"
    )


if __name__ == "__main__":
    main()
