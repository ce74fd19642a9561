#!/usr/bin/env python3
"""Time the evaluation kernel one direction at a time against `confidence_radii`.

For each point set (twisted n=20, t=441; plain polar n=30, t=994; twisted
n=80, t=7057) and each batch size (1, 8, 20 rows), evaluates the same
directions of the conjecture region at the conjecture bound d three ways:
`confidence_radius(project(ps, v), d)` per row, one `confidence_radii`
call per batch (in blocks of `_CHUNK_BYTES` at most), and the engine's
ring-ball path, `one_row`: `confidence_radii` with one direction of shape
(3,) per call, as a cover evaluates each ring ball.  Records the median
over the repeats of microseconds per direction and of minor page faults
per call (`resource.getrusage` of this process only) and prints a line a
cell; with `--out`, it also writes the table as JSON.

    python3 scripts/kernel_bench.py                       # prints the table only
    python3 scripts/kernel_bench.py --repeats 9 --out kernel.json
"""
import argparse
import json
import os
import platform
import resource
import time
from statistics import median

import numpy as np

from capdisc import conjecture_setup
from capdisc.discrepancy import HypothesisViolation, confidence_radii, confidence_radius, project
from capdisc.reporting import sample_region_directions

JOBS = [("twisted", 20), ("polar", 30), ("twisted", 80)]
ROWS = [1, 8, 20]


def one_at_a_time(ps, dirs, d):
    for v in dirs:
        try:
            confidence_radius(project(ps, v), d)
        except HypothesisViolation:
            pass


def batched(ps, dirs, d):
    confidence_radii(ps.points, dirs, d)


def one_row(ps, dirs, d):
    """The engine's ring-ball path: each direction alone through `confidence_radii`."""
    for v in dirs:
        confidence_radii(ps.points, v, d)


def measure(fn, ps, batches, d):
    """(microseconds per direction, minor faults per call) over all batches."""
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    t0 = time.perf_counter()
    for dirs in batches:
        fn(ps, dirs, d)
    elapsed = time.perf_counter() - t0
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return 1e6 * elapsed / sum(len(b) for b in batches), faults / len(batches)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--repeats", type=int, default=7, help="timed repeats per cell (median taken)")
    ap.add_argument("--directions", type=int, default=400, help="directions per repeat")
    ap.add_argument("--note", default="", help="free text stored with the results, e.g. the host")
    ap.add_argument("--out", help="write the table to this JSON file")
    args = ap.parse_args()
    if args.repeats < 1 or args.directions < 1:
        ap.error("--repeats and --directions must be at least 1")

    rng = np.random.default_rng(0)
    cells = []
    for structure, n in JOBS:
        ps, params = conjecture_setup(n, structure)
        dirs = sample_region_directions(params.region, args.directions, rng)
        violations = int(np.isnan(confidence_radii(ps.points, dirs, params.d)[1]).sum())
        paths = [
            ("one_at_a_time", one_at_a_time),
            ("confidence_radii", batched),
            ("one_row", one_row),
        ]
        for rows in ROWS:
            batches = [dirs[lo : lo + rows] for lo in range(0, len(dirs), rows)]
            samples = {name: [] for name, _ in paths}
            for _, fn in paths:  # warm caches and the allocator
                measure(fn, ps, batches[:3], params.d)
            for rep in range(args.repeats):
                # Alternate the order of the paths, so drift on a shared host hits each alike.
                for name, fn in paths if rep % 2 == 0 else paths[::-1]:
                    samples[name].append(measure(fn, ps, batches, params.d))
            cell = {"structure": structure, "n": n, "t": ps.size, "rows": rows,
                    "directions": len(dirs), "hypothesis_violations": violations}
            for name, runs in samples.items():
                cell[name] = {
                    "us_per_direction": round(median(us for us, _ in runs), 2),
                    "minor_faults_per_call": median(f for _, f in runs),
                }
            cell["speedup"] = round(
                cell["one_at_a_time"]["us_per_direction"] / cell["confidence_radii"]["us_per_direction"], 3
            )
            cells.append(cell)
            print(
                f"t={ps.size:5d} rows={rows:2d}  one at a time "
                f"{cell['one_at_a_time']['us_per_direction']:7.1f} us/dir "
                f"{cell['one_at_a_time']['minor_faults_per_call']:6.1f} faults/call  "
                f"confidence_radii {cell['confidence_radii']['us_per_direction']:7.1f} us/dir "
                f"{cell['confidence_radii']['minor_faults_per_call']:6.1f} faults/call  "
                f"one row {cell['one_row']['us_per_direction']:7.1f} us/dir",
                flush=True,
            )

    if not args.out:
        return
    doc = {
        "benchmark": (
            "evaluation kernel: one direction per call against confidence_radii, and one"
            " direction per confidence_radii call, the engine's ring-ball path"
        ),
        "statistic": f"median of {args.repeats} repeats, {args.directions} directions each",
        "machine": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "note": args.note,
        },
        "cells": cells,
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
