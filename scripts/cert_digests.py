#!/usr/bin/env python3
"""Digests of conjecture certificates, to show whether two commits agree on them.

For each `structure:n` job, covers the region of `conjecture_setup(n,
structure)`, writes the report, reads it back and prints the status,
`n_evaluations`, two digests and the median seconds spent in the cover:

- `sha256=`: the first 16 hex digits of the sha256 of
  `strip_timings(read_report(...))` serialised with sorted keys, counters
  included;
- `cert=`: the same over the certificate alone (status, records, not_covered,
  counterexample, params and points_meta), so a change that moves only a
  counter keeps it.

Everything but the seconds is deterministic, so equal digests on two commits
mean identical certificates.

With `--out`, also times each job `--repeats` times (one cover per repeat, in
this process) and writes a layer table as JSON: the medians of the phase-1
and Cover Cap seconds, `n_evaluations`, and the number of batched kernel
calls (`covering.confidence_radii`, counted by wrapping the name where the
engine looks it up) with their rows per call.  `--label` names the table, and
an existing file keeps its other tables, so one file can hold a baseline and
a change measured on the same host.

    python3 scripts/cert_digests.py                     # twisted 20/40/60/80, polar 30
    python3 scripts/cert_digests.py twisted:20 polar:14
    python3 scripts/cert_digests.py --repeats 5 --out BENCH_8.json --label change
"""
import argparse
import hashlib
import json
import os
import platform
import tempfile
import time
from pathlib import Path
from statistics import median

import numpy as np

from capdisc import conjecture_setup, covering, cover_region, read_report, strip_timings, write_report

DEFAULT_JOBS = ["twisted:20", "twisted:40", "twisted:60", "twisted:80", "polar:30"]
CERT_KEYS = ("records", "not_covered", "counterexample", "params", "points_meta")


def job(text: str) -> tuple[str, int]:
    structure, sep, n = text.partition(":")
    if not sep or structure not in ("twisted", "polar") or not n.isdigit() or int(n) < 2:
        raise argparse.ArgumentTypeError(f"expected twisted:N or polar:N with N >= 2, got {text!r}")
    return structure, int(n)


def digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


def cert_digest(doc: dict) -> str:
    cert = {key: doc.get(key) for key in CERT_KEYS}
    cert["status"] = doc["outcome"]["status"]
    return digest(cert)


class KernelCalls:
    """Counts the calls and rows of `covering.confidence_radii` while installed."""

    def __init__(self):
        self.calls = self.rows = 0
        self.original = covering.confidence_radii

    def __call__(self, points, directions, d):
        self.calls += 1
        self.rows += len(directions)
        return self.original(points, directions, d)

    def __enter__(self):
        covering.confidence_radii = self
        return self

    def __exit__(self, *exc):
        covering.confidence_radii = self.original


def run_job(structure: str, n: int, repeats: int, path: Path) -> dict:
    ps, params = conjecture_setup(n, structure)
    runs = []
    for _ in range(repeats):
        with KernelCalls() as kernel:
            t0 = time.perf_counter()
            outcome = cover_region(ps, params)
            cover_s = time.perf_counter() - t0
        runs.append((outcome, cover_s, kernel))
    outcome = runs[0][0]
    write_report(path, ps, params, outcome)
    doc = strip_timings(read_report(path))
    kernel = runs[0][2]
    return {
        "job": f"{structure}:{n}",
        "t": ps.size,
        "status": outcome.status,
        "n_evaluations": outcome.counters["n_evaluations"],
        "sha256": digest(doc),
        "cert": cert_digest(doc),
        "cover_s": round(median(r[1] for r in runs), 3),
        "phase1_s": round(median(r[0].timings["phase1"] for r in runs), 3),
        "cover_cap_s": round(median(r[0].timings["cover_cap"] for r in runs), 3),
        "confidence_radii_calls": kernel.calls,
        "rows_per_call": round(kernel.rows / kernel.calls, 2) if kernel.calls else 0.0,
    }


def write_table(path: Path, label: str, repeats: int, note: str, rows: list) -> None:
    doc = json.loads(path.read_text()) if path.exists() else {}
    doc.setdefault(
        "benchmark",
        "conjecture covers per job: phase 1 and Cover Cap seconds, evaluations, batched kernel calls",
    )
    doc.setdefault("tables", {})[label] = {
        "statistic": f"median of {repeats} covers in one process",
        "machine": {
            "cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "note": note,
        },
        "jobs": rows,
    }
    path.write_text(json.dumps(doc, indent=2) + "\n")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("jobs", nargs="*", type=job, default=[job(j) for j in DEFAULT_JOBS])
    ap.add_argument("--repeats", type=int, default=1, help="covers per job; medians are reported")
    ap.add_argument("--out", type=Path, help="write the layer table to this JSON file")
    ap.add_argument("--label", default="change", help="name of the table written with --out")
    ap.add_argument(
        "--note",
        default="2 shared CPUs (a container on a host shared with other tenants); medians of repeats",
        help="host note stored with the table",
    )
    args = ap.parse_args()
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")

    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "report.json"
        for structure, n in args.jobs:
            row = run_job(structure, n, args.repeats, path)
            rows.append(row)
            print(
                f"{row['job']} status={row['status']} n_evaluations={row['n_evaluations']} "
                f"sha256={row['sha256']} cert={row['cert']} cover_s={row['cover_s']:.2f}",
                flush=True,
            )
    if args.out:
        write_table(args.out, args.label, args.repeats, args.note, rows)


if __name__ == "__main__":
    main()
