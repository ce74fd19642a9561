#!/usr/bin/env python3
"""Digests of conjecture certificates, to show whether two commits agree on them.

For each `structure:n` job, covers the region of `conjecture_setup(n,
structure)`, writes the report, reads it back and prints the status,
`n_evaluations`, three digests, the counters `cover_cap_inside_orbit` and
`not_covered_inside_orbit`, and the median seconds spent in the cover:

- `sha256=`: the first 16 hex digits of the sha256 of
  `strip_timings(read_report(...))` serialised with sorted keys, counters
  included;
- `cert=`: the same over the certificate alone (status, records, not_covered,
  counterexample, params and points_meta), so a change that moves only a
  counter keeps it;
- `balls=`: the same over the schema-2 `records` rows and `not_covered`
  rows, each sorted lexicographically, so two trees that list the same
  balls in different orders print the same one.

Everything but the seconds and the peak RSS is deterministic, so equal
digests on two commits mean identical certificates.  The digests are those
of the report schema the tree writes: a schema-1 tree and a schema-2 tree
give different ones for the same certificate.

Each repeat of a job runs in a fresh process: one cover, then the report is
written, read back and digested.  With `--out`, each job is run `--repeats`
times and a layer table is written as JSON: the medians of the phase-1 and
Cover Cap seconds, of the seconds spent dropping Cover Cap rows inside
phase-1 balls (`inside_orbit_s`), of the process's peak RSS
(`peak_rss_mb`, through the digest), the report's size in bytes,
`n_evaluations`, and the number of batches with their rows per batch
(`batch_calls`, `rows_per_batch`).  A batch is counted where the engine
hands it to the kernel (`covering._Engine.evaluate_cart`: ring samples and
Cover Cap levels), so a batch split over two threads counts once; the
one-direction kernel calls of the ring balls are not batches and are not
counted (there is one per phase-1 ball, `n_DD`).  The split batches are
counted too (`split_batches=`, calls of `covering._split_evaluate`; None
from a tree without it), and so are the latitude band tests of phase 1
(`band_calls=`, calls of the predicates that `covering._band_test`
returns).  `--label` names the table, and an existing file keeps its other
tables.

With `--baseline SRC` (the `src/` directory of another checkout), the
repeats of the baseline and of this tree alternate (baseline first in even
repeats, this tree first in odd ones), so that host drift falls on both
alike.  Each line printed starts with the tree's label, and `--out` gets
both tables, the baseline's named `--baseline-label`.

    python3 scripts/cert_digests.py                     # twisted 20/40/60/80, polar 30 and 14
    python3 scripts/cert_digests.py twisted:20 polar:14
    python3 scripts/cert_digests.py --repeats 5 --out BENCH_8.json --label change
    python3 scripts/cert_digests.py --repeats 5 --baseline ../parent/src --out BENCH_12.json
"""
import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

import numpy as np

from capdisc import conjecture_setup, covering, cover_region, read_report, strip_timings, write_report

DEFAULT_JOBS = ["twisted:20", "twisted:40", "twisted:60", "twisted:80", "polar:30", "polar:14"]
CERT_KEYS = ("records", "not_covered", "counterexample", "params", "points_meta")
# Row keys that are medians of the repeats; the others must agree across them.
# The report's size varies by a few bytes with the digits of its timings.
MEDIANS = (
    "cover_s", "phase1_s", "cover_cap_s", "inside_orbit_s", "peak_rss_mb", "report_bytes",
)
SRC = Path(__file__).resolve().parents[1] / "src"
BENCHMARK = (
    "conjecture covers per job: phase 1 and Cover Cap seconds, evaluations, batches handed"
    " to the kernel, split batches, report bytes and peak RSS"
)
NOTE = "2 shared CPUs (a container on a host shared with other tenants); medians of repeats"


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


def balls_digest(doc: dict) -> str:
    return digest([sorted(doc["records"]), sorted(doc["not_covered"])])


class BatchCalls:
    """Counts the batches the engine evaluates, their rows, the split ones and the band tests, while installed."""

    def __init__(self):
        self.calls = self.rows = self.band_calls = 0
        self.original = covering._Engine.evaluate_cart
        self.split = getattr(covering, "_split_evaluate", None)
        self.splits = None if self.split is None else 0
        self.band_test = covering._band_test

    def __enter__(self):
        def counted(engine, directions):
            self.calls += 1
            self.rows += len(directions)
            return self.original(engine, directions)

        def counted_split(*args):
            self.splits += 1
            return self.split(*args)

        def counted_band_test(*args):
            covered = self.band_test(*args)

            def counted_covered(psi):
                self.band_calls += 1
                return covered(psi)

            return counted_covered

        covering._Engine.evaluate_cart = counted
        covering._band_test = counted_band_test
        if self.split is not None:
            covering._split_evaluate = counted_split
        return self

    def __exit__(self, *exc):
        covering._Engine.evaluate_cart = self.original
        covering._band_test = self.band_test
        if self.split is not None:
            covering._split_evaluate = self.split


def measure(structure: str, n: int, path: Path) -> dict:
    """One cover of the job and its report: digests, counters, seconds and sizes, as a row."""
    ps, params = conjecture_setup(n, structure)
    with BatchCalls() as kernel:
        t0 = time.perf_counter()
        outcome = cover_region(ps, params)
        cover_s = time.perf_counter() - t0
    write_report(path, ps, params, outcome)
    doc = strip_timings(read_report(path))
    return {
        "job": f"{structure}:{n}",
        "t": ps.size,
        "status": outcome.status,
        "n_evaluations": outcome.counters["n_evaluations"],
        "sha256": digest(doc),
        "cert": cert_digest(doc),
        "balls": balls_digest(doc),
        # None from a tree that does not drop Cover Cap rows inside phase-1 balls
        "cover_cap_inside_orbit": outcome.counters.get("cover_cap_inside_orbit"),
        "not_covered_inside_orbit": outcome.counters.get("not_covered_inside_orbit"),
        "report_bytes": path.stat().st_size,
        # after the digests; ru_maxrss is in KiB on Linux, and the process ran nothing else
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        "cover_s": cover_s,
        "phase1_s": outcome.timings["phase1"],
        "cover_cap_s": outcome.timings["cover_cap"],
        "inside_orbit_s": outcome.timings.get("inside_orbit", 0.0),
        "batch_calls": kernel.calls,
        "rows_per_batch": round(kernel.rows / kernel.calls, 2) if kernel.calls else 0.0,
        "split_batches": kernel.splits,
        "band_calls": kernel.band_calls,
    }


def measure_in_child(script: str, src: Path, text: str) -> dict:
    """The row that `script --child SRC JOB` prints, from a fresh process importing capdisc from `src`."""
    path = os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, script, "--child", str(src), text],
        env=env, capture_output=True, text=True, check=False,
    )
    if proc.returncode:
        raise SystemExit(f"{text} from {src} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def child_job(src: str, text: str) -> tuple[str, int]:
    """The job of a `--child SRC JOB` process, once capdisc is checked to come from `src`."""
    if Path(src).resolve() not in Path(covering.__file__).resolve().parents:
        raise SystemExit(f"capdisc imported from {covering.__file__}, not from {src}")
    return job(text)


def summarize(runs: list, medians) -> dict:
    """The repeats of one job as one row: medians of the `medians` keys, the rest checked equal."""
    row = dict(runs[0])
    for key, value in row.items():
        if key in medians:
            row[key] = round(median(r[key] for r in runs), 4)
        elif any(r[key] != value for r in runs):
            raise SystemExit(f"{row['job']}: {key} differs between repeats")
    return row


def tree_options(ap: argparse.ArgumentParser) -> None:
    """Add the options that choose the trees and repeats: --repeats, --out and --baseline."""
    ap.add_argument("--repeats", type=int, default=1, help="fresh processes per job and tree; medians are reported")
    ap.add_argument("--out", type=Path, help="write the tables to this JSON file")
    ap.add_argument("--baseline", type=Path, help="src/ of another checkout, measured alternately")


def checked_trees(ap: argparse.ArgumentParser, args, label: str = "change", baseline_label: str = "parent") -> list:
    """(label, src) of each tree to measure, the baseline first; checks --repeats and --baseline."""
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")
    if args.baseline is None:
        return [(label, SRC)]
    if not (args.baseline / "capdisc").is_dir():
        ap.error(f"--baseline {args.baseline} holds no capdisc package")
    return [(baseline_label, args.baseline), (label, SRC)]


def compare(script: str, trees: list, jobs: list, repeats: int, medians, describe) -> dict:
    """{label: rows} of each tree, each job run `repeats` times in fresh processes of `script`.

    The trees alternate (the first goes first in even repeats, last in odd
    ones), so that host drift falls on them alike.  Each tree's row is
    printed with `describe`, after its label when there are two trees.
    """
    tables: dict = {label: [] for label, _ in trees}
    for structure, n in jobs:
        runs: dict = {label: [] for label, _ in trees}
        for repeat in range(repeats):
            for label, src in trees if repeat % 2 == 0 else trees[::-1]:
                runs[label].append(measure_in_child(script, src, f"{structure}:{n}"))
        for label, _ in trees:
            row = summarize(runs[label], medians)
            tables[label].append(row)
            prefix = f"{label}: " if len(trees) > 1 else ""
            print(prefix + describe(row), flush=True)
    return tables


def write_tables(path: Path, benchmark: str, statistic: str, note: str, tables: dict) -> None:
    """Write each {label: rows} table to the JSON file at `path`, which keeps its other tables."""
    doc = json.loads(path.read_text()) if path.exists() else {}
    doc.setdefault("benchmark", benchmark)
    for label, rows in tables.items():
        others = "".join(f", alternating with the {other} table's" for other in tables if other != label)
        doc.setdefault("tables", {})[label] = {
            "statistic": statistic + others,
            "machine": {
                "cpus": len(os.sched_getaffinity(0)),
                "python": platform.python_version(),
                "numpy": np.__version__,
                "note": note,
            },
            "jobs": rows,
        }
    path.write_text(json.dumps(doc, indent=2) + "\n")


def line(row: dict) -> str:
    return (
        f"{row['job']} status={row['status']} n_evaluations={row['n_evaluations']} "
        f"sha256={row['sha256']} cert={row['cert']} balls={row['balls']} "
        f"cover_cap_inside_orbit={row['cover_cap_inside_orbit']} "
        f"not_covered_inside_orbit={row['not_covered_inside_orbit']} "
        f"cover_s={row['cover_s']:.2f} split_batches={row['split_batches']} "
        f"band_calls={row['band_calls']} "
        f"report_bytes={row['report_bytes']} "
        f"peak_rss_mb={row['peak_rss_mb']:.1f}"
    )


def main() -> None:
    if sys.argv[1:2] == ["--child"]:
        structure, n = child_job(*sys.argv[2:])
        with tempfile.TemporaryDirectory() as tmp:
            print(json.dumps(measure(structure, n, Path(tmp) / "report.json")))
        return
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("jobs", nargs="*", type=job, default=[job(j) for j in DEFAULT_JOBS])
    tree_options(ap)
    ap.add_argument("--label", default="change", help="name of the table written with --out")
    ap.add_argument("--baseline-label", default="parent", help="name of the baseline's table")
    ap.add_argument("--note", default=NOTE, help="host note stored with the table")
    args = ap.parse_args()
    if args.baseline is not None and args.baseline_label == args.label:
        ap.error("--baseline-label must differ from --label")
    measured = checked_trees(ap, args, args.label, args.baseline_label)
    tables = compare(__file__, measured, args.jobs, args.repeats, MEDIANS, line)
    if args.out:
        statistic = f"median of {args.repeats} covers, each in a fresh process"
        write_tables(args.out, BENCHMARK, statistic, args.note, tables)


if __name__ == "__main__":
    main()
