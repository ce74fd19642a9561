#!/usr/bin/env python3
"""Digests of conjecture certificates, to show whether two commits agree on them.

For each `structure:n` job, covers the region of `conjecture_setup(n,
structure)`, writes the report, reads it back and prints the status,
`n_evaluations`, three digests, the counters `cover_cap_inside_orbit` and
`not_covered_inside_orbit`, the work counts described below, and the
median seconds spent in the cover:

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
(`batch_calls=`, `rows_per_batch=`).  These and the latitude band tests of
phase 1 (`band_calls=`) are read from the report's counters
`kernel_batches`, `kernel_batch_rows` and `band_tests` (None from a tree
without them).  A batch is counted where the engine hands it to the kernel
(ring samples and Cover Cap levels), so a batch split with the cover's
child counts once; the one-direction kernel calls of the ring balls are
not batches (there is one per phase-1 ball, `n_DD`).  `--label` names the
table, and an existing file keeps its other tables.

Phase 1 walks the conjecture regions as two latitude bands, the lower one
in a forked child, which then evaluates the tail half of each large Cover
Cap batch.  So each row also gives the counter `phase1_bands`, the medians
of the seconds of each band (`phase1_upper_s=`, and the child's own
`phase1_lower_s=`; None from a tree that walks one band), of the child's
seconds in Cover Cap batches (`cover_cap_child_s=`, a part of the time in
`cover_cap_s`, which the parent spends in its own half meanwhile; None
from a tree without the timing) and of the child's peak RSS
(`child_rss_mb=`, the `RUSAGE_CHILDREN` `ru_maxrss`, 0.0 when no child was
forked).  The counters above count the child's work too, while
`peak_rss_mb` is the parent's alone.

With `--baseline SRC` (the `src/` directory of another checkout), the
repeats of the baseline and of this tree alternate (baseline first in even
repeats, this tree first in odd ones), so that host drift falls on both
alike.  Each line printed starts with the tree's label, and `--out` gets
both tables, the baseline's named `--baseline-label`.  A last line gives
the verdict: `certificates identical on k of k jobs`, or the jobs whose
`cert=` or `balls=` differs between the trees, and then the script exits
with status 1 (after writing `--out`).

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
    "phase1_upper_s", "phase1_lower_s", "cover_cap_child_s", "child_rss_mb",
)
SRC = Path(__file__).resolve().parents[1] / "src"
BENCHMARK = (
    "conjecture covers per job: phase 1 (and each of its bands) and Cover Cap seconds,"
    " evaluations, batches handed to the kernel, report bytes, and the peak RSS of the"
    " process and of its band child"
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


def measure(structure: str, n: int, path: Path) -> dict:
    """One cover of the job and its report: digests, counters, seconds and sizes, as a row."""
    ps, params = conjecture_setup(n, structure)
    t0 = time.perf_counter()
    outcome = cover_region(ps, params)
    cover_s = time.perf_counter() - t0
    write_report(path, ps, params, outcome)
    doc = strip_timings(read_report(path))
    batches, rows = (outcome.counters.get(key) for key in ("kernel_batches", "kernel_batch_rows"))
    return {
        "job": f"{structure}:{n}",
        "t": ps.size,
        "status": outcome.status,
        "n_evaluations": outcome.counters["n_evaluations"],
        "sha256": digest(doc),
        "cert": cert_digest(doc),
        "balls": balls_digest(doc),
        # None from a tree that does not drop Cover Cap rows inside phase-1 balls,
        # or does not count its band tests and kernel batches
        "cover_cap_inside_orbit": outcome.counters.get("cover_cap_inside_orbit"),
        "not_covered_inside_orbit": outcome.counters.get("not_covered_inside_orbit"),
        "report_bytes": path.stat().st_size,
        # after the digests; ru_maxrss is in KiB on Linux, and the process ran nothing else
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        "child_rss_mb": round(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0, 1),
        "cover_s": cover_s,
        "phase1_s": outcome.timings["phase1"],
        "cover_cap_s": outcome.timings["cover_cap"],
        "inside_orbit_s": outcome.timings.get("inside_orbit", 0.0),
        "batch_calls": batches,
        "rows_per_batch": None if batches is None else round(rows / batches, 2) if batches else 0.0,
        "band_calls": outcome.counters.get("band_tests"),
        # None from a tree that walks phase 1 as one band
        "phase1_bands": outcome.counters.get("phase1_bands"),
        "phase1_upper_s": outcome.timings.get("phase1_upper"),
        "phase1_lower_s": outcome.timings.get("phase1_lower"),
        # None from a tree whose Cover Cap has no child
        "cover_cap_child_s": outcome.timings.get("cover_cap_child"),
    }


def measure_in_child(src: Path, text: str) -> dict:
    """The row that `--child SRC JOB` prints, from a fresh process importing capdisc from `src`."""
    path = os.pathsep.join(filter(None, (str(src), os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, __file__, "--child", str(src), text],
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


def summarize(runs: list) -> dict:
    """The repeats of one job as one row: medians of the MEDIANS keys, the rest checked equal."""
    row = dict(runs[0])
    for key, value in row.items():
        if key in MEDIANS:
            row[key] = None if value is None else round(median(r[key] for r in runs), 4)
        elif any(r[key] != value for r in runs):
            raise SystemExit(f"{row['job']}: {key} differs between repeats")
    return row


def compare(trees: list, jobs: list, repeats: int) -> dict:
    """{label: rows} of each (label, src) tree, each job run `repeats` times in fresh processes.

    The trees alternate (the first goes first in even repeats, last in odd
    ones), so that host drift falls on them alike.  Each tree's row is
    printed, after its label when there are two trees.
    """
    tables: dict = {label: [] for label, _ in trees}
    for structure, n in jobs:
        runs: dict = {label: [] for label, _ in trees}
        for repeat in range(repeats):
            for label, src in trees if repeat % 2 == 0 else trees[::-1]:
                runs[label].append(measure_in_child(src, f"{structure}:{n}"))
        for label, _ in trees:
            row = summarize(runs[label])
            tables[label].append(row)
            prefix = f"{label}: " if len(trees) > 1 else ""
            print(prefix + line(row), flush=True)
    return tables


def write_tables(args, tables: dict) -> None:
    """Write each {label: rows} table to the JSON file `args.out`, which keeps its other tables."""
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc.setdefault("benchmark", BENCHMARK)
    for label, rows in tables.items():
        others = "".join(f", alternating with the {other} table's" for other in tables if other != label)
        doc.setdefault("tables", {})[label] = {
            "statistic": f"median of {args.repeats} covers, each in a fresh process" + others,
            "machine": {
                "cpus": len(os.sched_getaffinity(0)),
                "python": platform.python_version(),
                "numpy": np.__version__,
                "note": args.note,
            },
            "jobs": rows,
        }
    args.out.write_text(json.dumps(doc, indent=2) + "\n")


def verdict(baseline: list, change: list) -> str:
    """One line: whether two tables of the same jobs agree on every `cert=` and `balls=`."""
    differ = []
    for old, new in zip(baseline, change):
        keys = [f"{key}=" for key in ("cert", "balls") if old[key] != new[key]]
        if keys:
            differ.append(f"{new['job']} ({' '.join(keys)})")
    if differ:
        return f"certificates differ on {len(differ)} of {len(change)} jobs: {', '.join(differ)}"
    return f"certificates identical on {len(change)} of {len(change)} jobs"


def line(row: dict) -> str:
    return (
        f"{row['job']} status={row['status']} n_evaluations={row['n_evaluations']} "
        f"sha256={row['sha256']} cert={row['cert']} balls={row['balls']} "
        f"cover_cap_inside_orbit={row['cover_cap_inside_orbit']} "
        f"not_covered_inside_orbit={row['not_covered_inside_orbit']} "
        f"cover_s={row['cover_s']:.2f} "
        f"band_calls={row['band_calls']} batch_calls={row['batch_calls']} "
        f"rows_per_batch={row['rows_per_batch']} "
        f"phase1_bands={row['phase1_bands']} phase1_upper_s={row['phase1_upper_s']} "
        f"phase1_lower_s={row['phase1_lower_s']} cover_cap_child_s={row['cover_cap_child_s']} "
        f"child_rss_mb={row['child_rss_mb']:.1f} "
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
    ap.add_argument("--repeats", type=int, default=1, help="fresh processes per job and tree; medians are reported")
    ap.add_argument("--out", type=Path, help="write the tables to this JSON file")
    ap.add_argument("--baseline", type=Path, help="src/ of another checkout, measured alternately")
    ap.add_argument("--label", default="change", help="name of the table written with --out")
    ap.add_argument("--baseline-label", default="parent", help="name of the baseline's table")
    ap.add_argument("--note", default=NOTE, help="host note stored with the table")
    args = ap.parse_args()
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")
    trees = [(args.label, SRC)]
    if args.baseline is not None:
        if not (args.baseline / "capdisc").is_dir():
            ap.error(f"--baseline {args.baseline} holds no capdisc package")
        if args.baseline_label == args.label:
            ap.error("--baseline-label must differ from --label")
        trees.insert(0, (args.baseline_label, args.baseline))
    tables = compare(trees, args.jobs, args.repeats)
    if args.out:
        write_tables(args, tables)
    if args.baseline is not None:
        text = verdict(tables[args.baseline_label], tables[args.label])
        print(text)
        if text.startswith("certificates differ"):
            raise SystemExit(1)


if __name__ == "__main__":
    main()
