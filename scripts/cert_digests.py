#!/usr/bin/env python3
"""Digests of conjecture certificates, to show whether two commits agree on them.

For each `structure:n` job, covers the region of `conjecture_setup(n,
structure)`, writes the report, reads it back and prints the status,
`n_evaluations`, the first 16 hex digits of the sha256 of
`strip_timings(read_report(...))` serialised with sorted keys, and the
seconds spent in the cover.  Everything but the seconds is deterministic, so
equal lines on two commits mean byte-identical certificates.

    python3 scripts/cert_digests.py                     # twisted 20/40/60/80, polar 30
    python3 scripts/cert_digests.py twisted:20 polar:14
"""
import argparse
import hashlib
import json
import tempfile
import time
from pathlib import Path

from capdisc import conjecture_setup, cover_region, read_report, strip_timings, write_report

DEFAULT_JOBS = ["twisted:20", "twisted:40", "twisted:60", "twisted:80", "polar:30"]


def job(text: str) -> tuple[str, int]:
    structure, sep, n = text.partition(":")
    if not sep or structure not in ("twisted", "polar") or not n.isdigit() or int(n) < 2:
        raise argparse.ArgumentTypeError(f"expected twisted:N or polar:N with N >= 2, got {text!r}")
    return structure, int(n)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("jobs", nargs="*", type=job, default=[job(j) for j in DEFAULT_JOBS])
    args = ap.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "report.json"
        for structure, n in args.jobs:
            ps, params = conjecture_setup(n, structure)
            t0 = time.perf_counter()
            outcome = cover_region(ps, params)
            cover_s = time.perf_counter() - t0
            write_report(path, ps, params, outcome)
            doc = strip_timings(read_report(path))
            sha = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
            print(
                f"{structure}:{n} status={outcome.status} "
                f"n_evaluations={outcome.counters['n_evaluations']} "
                f"sha256={sha[:16]} cover_s={cover_s:.2f}",
                flush=True,
            )


if __name__ == "__main__":
    main()
