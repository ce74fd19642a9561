#!/usr/bin/env python3
"""Digests of conjecture certificates, to show whether two commits agree on them.

For each `structure:n` job, covers the region of `conjecture_setup(n,
structure)` in a fresh process, writes the report, reads it back and
prints one row of `key=value` pairs: the job, t, the status and three
digests, every counter of the report under its own name, every timing as
NAME_s, the cover's seconds (`cover_s`), the report's size
(`report_bytes`) and the peak RSS of the process and of its children
(`peak_rss_mb`, `child_rss_mb`).  README lists the counters and timings.
The digests are 16 hex digits of a sha256 of JSON with sorted keys:
`sha256=` of `strip_timings(read_report(...))`, counters included;
`cert=` of the certificate alone (status, records, not_covered,
counterexample, params and points_meta), which a change in a counter
alone keeps; `balls=` of the `records` rows and `not_covered` rows, each
sorted, which two trees that list the same balls in different orders share.

The seconds, the report's size (whose timings' digits vary) and the RSS
are medians over `--repeats` fresh processes; every other value must agree
across them.  With `--out`, the rows are written as a JSON table named
`change`; an existing file keeps its other tables.  With `--baseline SRC`
(the `src/` of another checkout), the two trees' repeats alternate, so
that host drift falls on both alike; each line starts with the tree's
label, `--out` gets both tables (the baseline's named `parent`), and a
last line gives the verdict: `certificates identical on k of k jobs`, or
the jobs whose `cert=` or `balls=` differs, and then the script exits
with status 1 (after writing `--out`).

    python3 scripts/cert_digests.py                     # twisted 20/40/60/80, polar 30 and 14
    python3 scripts/cert_digests.py twisted:20 polar:14
    python3 scripts/cert_digests.py --repeats 5 --baseline ../parent/src --out BENCH_28.json
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
# The suffixes of the row keys that vary between repeats (seconds, bytes, MB): medians are reported.
MEASURED = ("_s", "_bytes", "_mb")
SRC = Path(__file__).resolve().parents[1] / "src"
BENCHMARK = (
    "conjecture covers per job: the report's counters and timings, the cover's seconds,"
    " report bytes, and the peak RSS of the process and of its child"
)
NOTE = "2 shared CPUs (a container on a host shared with other tenants); medians of repeats"
# The names of this tree's table and of the baseline's.
LABEL, BASELINE_LABEL = "change", "parent"


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
    report = read_report(path)
    doc = strip_timings(report)
    row = {"job": f"{structure}:{n}", "t": ps.size, "status": outcome.status}
    row.update(sha256=digest(doc), cert=cert_digest(doc), balls=balls_digest(doc))
    row.update(report["outcome"]["counters"])  # an r_min with no value is null there
    row.update({f"{name}_s": seconds for name, seconds in report["outcome"]["timings"].items()})
    row.update(cover_s=cover_s, report_bytes=path.stat().st_size)
    # after the digests; ru_maxrss is in KiB on Linux, and the process ran nothing else
    for key, who in (("peak_rss_mb", resource.RUSAGE_SELF), ("child_rss_mb", resource.RUSAGE_CHILDREN)):
        row[key] = round(resource.getrusage(who).ru_maxrss / 1024.0, 1)
    return row


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
    """The repeats of one job as one row: medians of the MEASURED keys, the rest checked equal."""
    row = dict(runs[0])
    for key, value in row.items():
        if key.endswith(MEASURED):
            row[key] = round(median(r[key] for r in runs), 4)
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
            print(prefix + " ".join(f"{key}={value}" for key, value in row.items()), flush=True)
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
                "note": NOTE,
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
    args = ap.parse_args()
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")
    trees = [(LABEL, SRC)]
    if args.baseline is not None:
        if not (args.baseline / "capdisc").is_dir():
            ap.error(f"--baseline {args.baseline} holds no capdisc package")
        trees.insert(0, (BASELINE_LABEL, args.baseline))
    tables = compare(trees, args.jobs, args.repeats)
    if args.out:
        write_tables(args, tables)
    if args.baseline is not None:
        text = verdict(tables[BASELINE_LABEL], tables[LABEL])
        print(text)
        if text.startswith("certificates differ"):
            raise SystemExit(1)


if __name__ == "__main__":
    main()
