#!/usr/bin/env python3
"""Soundness audit of one conjecture covering run on a polar structure.

Covers the conjecture region of `conjecture_setup(n, structure)`, with d set
to the north-pole value, then fires uniform probes at the certificate: every
probe must sit inside a certified ball and its directly computed directed
value must not exceed d.  Prints the cover's status, ball and residual
counts, and its counters and timings as `scripts/cert_digests.py` names
them; then the audit's counts and seconds, and the process's peak RSS.

Plain polar n=30 reports residual: around the y-axis, where eleven
projections coincide and the confidence radius is exactly zero, Cover Cap
leaves residual balls at its depth limit.  The cover walks theta in [0,
pi/2 + 1e-9] and adds the mirror images of its balls (`mirror_rows`), so
the y-axis lies in the walked half, next to its edge, and its residual balls
come twice, once as images.  Yet (0, 1, 0) and all 1,796 residual balls lie
inside a phase-1 ball, with a slack of at least 4.0e-3
(`not_covered_inside_orbit` counts the walked half's 898), so the audit
still passes.

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
    row = {"status": outcome.status, "balls": len(outcome.records)}
    row.update(residual_directions=len(outcome.not_covered), **outcome.counters)
    row.update({f"{name}_s": round(seconds, 4) for name, seconds in outcome.timings.items()})
    row["cover_s"] = round(cover_s, 4)
    print(f"cover: {args.structure}:{args.n} " + " ".join(f"{key}={value}" for key, value in row.items()))

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
