#!/usr/bin/env python3
"""Time the evaluation kernel on each path a cover takes.

For each point set (twisted n=20, t=441; plain polar n=30, t=994; twisted
n=80, t=7057) and each batch size (1, 8, 20 rows), evaluates the same
directions of the conjecture region at the conjecture bound d three ways:
`confidence_radii`, the float64 kernel, one call per batch (in blocks of
`_CHUNK_BYTES` at most), as Cover Cap evaluates a tree level;
`float32_one_row`: phase 1's float32 kernel (`discrepancy._bounded_radii`)
with one direction of shape (3,) per call, as a cover evaluates each ring
ball; and `float32_batch`: that kernel with each batch as one (m, 3) stack
per call, as a cover evaluates a ring's 20 samples (`orbit_r_min`).  Both
float32 paths take the points rounded to float32 once per point set, as a
cover rounds them.  Records the median over the repeats of microseconds
per direction and of minor page faults per call (`resource.getrusage` of
this process only) and prints a line a cell; with `--out`, it also writes
the table as JSON.

With `--baseline SRC` (the `src/` of another checkout), each repeat runs
one fresh process per tree, the two in alternating order as
`cert_digests.py` runs them, so that host drift falls on both alike; each
process measures every cell once, after its warm-up, and the table of a
tree holds the medians over its processes.  Each line then starts with
the tree's label, and `--out` gets both tables (the baseline's named
`parent`, this tree's `change`).

    python3 scripts/kernel_bench.py                       # prints the table only
    python3 scripts/kernel_bench.py --repeats 9 --out kernel.json
    python3 scripts/kernel_bench.py --repeats 9 --baseline ../parent/src --out kernel.json
"""
import argparse
import functools
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import numpy as np

from capdisc import conjecture_setup, discrepancy
from capdisc.discrepancy import confidence_radii
from capdisc.reporting import sample_region_directions

JOBS = [("twisted", 20), ("polar", 30), ("twisted", 80)]
ROWS = [1, 8, 20]
SRC = Path(__file__).resolve().parents[1] / "src"
# The names of this tree's table and of the baseline's.
LABEL, BASELINE_LABEL = "change", "parent"


def batched(ps, dirs, d):
    """Cover Cap's path: the batch as one stack through the float64 kernel."""
    confidence_radii(ps.points, dirs, d)


def float32_one_row(ps, dirs, d, points32):
    """Phase 1's ring-ball path: each direction alone through the float32 kernel."""
    for v in dirs:
        discrepancy._bounded_radii(points32, ps.points, v, d)


def float32_batch(ps, dirs, d, points32):
    """Phase 1's ring-sample path: the batch as one stack through the float32 kernel."""
    discrepancy._bounded_radii(points32, ps.points, dirs, d)


def paths(ps) -> list:
    """The (name, function) of each path, for the point set `ps`."""
    points32 = ps.points.astype(np.float32)
    return [
        ("confidence_radii", batched),
        ("float32_one_row", functools.partial(float32_one_row, points32=points32)),
        ("float32_batch", functools.partial(float32_batch, points32=points32)),
    ]


def measure(fn, ps, batches, d):
    """(microseconds per direction, minor faults per call) over all batches."""
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    t0 = time.perf_counter()
    for dirs in batches:
        fn(ps, dirs, d)
    elapsed = time.perf_counter() - t0
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return 1e6 * elapsed / sum(len(b) for b in batches), faults / len(batches)


def run_cells(repeats: int, directions: int) -> list:
    """One cell per (point set, batch size): the medians over `repeats` of each path's costs."""
    rng = np.random.default_rng(0)
    cells = []
    for structure, n in JOBS:
        ps, params = conjecture_setup(n, structure)
        dirs = sample_region_directions(params.region, directions, rng)
        violations = int(np.isnan(confidence_radii(ps.points, dirs, params.d)[1]).sum())
        ways = paths(ps)
        for rows in ROWS:
            batches = [dirs[lo : lo + rows] for lo in range(0, len(dirs), rows)]
            samples = {name: [] for name, _ in ways}
            for _, fn in ways:  # warm caches and the allocator
                measure(fn, ps, batches[:3], params.d)
            for rep in range(repeats):
                # Alternate the order of the paths, so drift on a shared host hits each alike.
                for name, fn in ways if rep % 2 == 0 else ways[::-1]:
                    samples[name].append(measure(fn, ps, batches, params.d))
            cell = {"structure": structure, "n": n, "t": ps.size, "rows": rows,
                    "directions": len(dirs), "hypothesis_violations": violations}
            for name, runs in samples.items():
                cell[name] = {
                    "us_per_direction": round(median(us for us, _ in runs), 2),
                    "minor_faults_per_call": median(f for _, f in runs),
                }
            cells.append(cell)
    return cells


def summarize(runs: list) -> list:
    """The cells of several processes of one tree as one table: medians of each path's costs."""
    cells = [dict(cell) for cell in runs[0]]
    for i, cell in enumerate(cells):
        for name, _ in [(key, value) for key, value in cell.items() if isinstance(value, dict)]:
            cell[name] = {
                key: round(median(run[i][name][key] for run in runs), 2)
                for key in ("us_per_direction", "minor_faults_per_call")
            }
    return cells


def in_child(src: Path, directions: int) -> list:
    """The cells that `--child SRC` prints, from a fresh process importing capdisc from `src`."""
    path = os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, __file__, "--child", str(src), "--directions", str(directions)],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, check=False,
    )
    if proc.returncode:
        raise SystemExit(f"kernel cells from {src} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def line(cell: dict) -> str:
    return (
        f"t={cell['t']:5d} rows={cell['rows']:2d}  "
        f"confidence_radii {cell['confidence_radii']['us_per_direction']:7.1f} us/dir "
        f"{cell['confidence_radii']['minor_faults_per_call']:6.1f} faults/call  "
        f"float32 one row {cell['float32_one_row']['us_per_direction']:7.1f} us/dir  "
        f"float32 batch {cell['float32_batch']['us_per_direction']:7.1f} us/dir"
    )


def machine(note: str) -> dict:
    return {"cpus": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__, "note": note}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--repeats", type=int, default=7, help="timed repeats per cell (median taken)")
    ap.add_argument("--directions", type=int, default=400, help="directions per repeat")
    ap.add_argument("--note", default="", help="free text stored with the results, e.g. the host")
    ap.add_argument("--out", help="write the table to this JSON file")
    ap.add_argument("--baseline", type=Path, help="src/ of another checkout, measured alternately")
    ap.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.repeats < 1 or args.directions < 1:
        ap.error("--repeats and --directions must be at least 1")
    if args.child is not None:
        if args.child.resolve() not in Path(discrepancy.__file__).resolve().parents:
            raise SystemExit(f"capdisc imported from {discrepancy.__file__}, not from {args.child}")
        print(json.dumps(run_cells(1, args.directions)))
        return
    if args.baseline is None:
        cells = run_cells(args.repeats, args.directions)
        for cell in cells:
            print(line(cell), flush=True)
        doc = {"statistic": f"median of {args.repeats} repeats, {args.directions} directions each", "cells": cells}
    else:
        if not (args.baseline / "capdisc").is_dir():
            ap.error(f"--baseline {args.baseline} holds no capdisc package")
        trees = [(BASELINE_LABEL, args.baseline), (LABEL, SRC)]
        runs: dict = {label: [] for label, _ in trees}
        for rep in range(args.repeats):
            for label, src in trees if rep % 2 == 0 else trees[::-1]:
                runs[label].append(in_child(src, args.directions))
        tables = {label: summarize(tree_runs) for label, tree_runs in runs.items()}
        for label, cells in tables.items():
            for cell in cells:
                print(f"{label}: {line(cell)}", flush=True)
        doc = {
            "statistic": (
                f"median of {args.repeats} fresh processes per tree, alternating, each measuring every"
                f" cell once over {args.directions} directions"
            ),
            "tables": {label: {"cells": cells} for label, cells in tables.items()},
        }
    if not args.out:
        return
    doc = {
        "benchmark": (
            "evaluation kernel: confidence_radii a batch per call, as Cover Cap evaluates"
            " a level; the float32 kernel one direction per call, as phase 1 evaluates a"
            " ring ball, and a batch per call, as phase 1 evaluates a ring's samples"
        ),
        **doc,
        "machine": machine(args.note),
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
