#!/usr/bin/env python3
"""Replay the Cover Cap batches that a cover splits over two threads, split and unsplit.

For each `structure:n` job (default plain polar 30), covers the region of
`conjecture_setup(n, structure)` once, capturing every batch of
`covering._SPLIT_ROWS` rows or more that the engine hands to the kernel
(`covering._Engine.evaluate_cart`).  It then replays those batches in the
same, warm process: one untimed round, then 5 timed rounds, each
evaluating every batch unsplit (`confidence_radii`) and split
(`covering._split_evaluate`), in an order that alternates from round to
round.  A round records its seconds, minor page faults, user and system
CPU seconds and voluntary context switches (`resource.getrusage` of the
process, the split's second thread included); the row gives the medians
of the rounds.  The split must give the unsplit bytes, and `sha256=` is
a digest of them, so two trees that evaluate alike print the same one.

Each repeat of a job runs in a fresh process.  With `--baseline SRC` (the
`src/` directory of another checkout), the repeats of the baseline and of
this tree alternate as in `scripts/cert_digests.py`, whose harness this
script shares, and each line printed starts with the tree's label
(`parent` or `change`).  With `--out`, the table of each tree (medians
over the repeats) is written as JSON, and an existing file keeps its
other tables.

    python3 scripts/split_replay.py                         # polar 30
    python3 scripts/split_replay.py --repeats 5 --baseline ../parent/src --out BENCH_19.json
"""
import argparse
import hashlib
import json
import resource
import sys
import time
from statistics import median

import numpy as np

from capdisc import conjecture_setup, covering, cover_region
from capdisc.discrepancy import confidence_radii
from cert_digests import NOTE, checked_trees, child_job, compare, job, tree_options, write_tables

MODES = ("unsplit", "split")
COUNTERS = ("s", "minflt", "user_s", "sys_s", "nvcsw")
MEDIANS = tuple(f"{mode}_{key}" for mode in MODES for key in COUNTERS)
ROUNDS = 5


def capture(structure: str, n: int):
    """(points, d, batches) of one cover: every batch of _SPLIT_ROWS rows or more."""
    ps, params = conjecture_setup(n, structure)
    batches, original = [], covering._Engine.evaluate_cart

    def captured(engine, directions):
        if len(directions) >= covering._SPLIT_ROWS:
            batches.append(np.array(directions))
        return original(engine, directions)

    covering._Engine.evaluate_cart = captured
    try:
        cover_region(ps, params)
    finally:
        covering._Engine.evaluate_cart = original
    return ps.points, params.d, batches


def replay(evaluate, points, d, batches) -> tuple[dict, list]:
    """Counters of one round over all batches, and the round's results."""
    before, t0 = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()
    results = [evaluate(points, batch, d) for batch in batches]
    elapsed, after = time.perf_counter() - t0, resource.getrusage(resource.RUSAGE_SELF)
    return {
        "s": elapsed,
        "minflt": after.ru_minflt - before.ru_minflt,
        "user_s": after.ru_utime - before.ru_utime,
        "sys_s": after.ru_stime - before.ru_stime,
        "nvcsw": after.ru_nvcsw - before.ru_nvcsw,
    }, results


def measure(structure: str, n: int) -> dict:
    """Capture the job's large batches, replay them and return the row of medians."""
    points, d, batches = capture(structure, n)
    evaluators = {"unsplit": confidence_radii, "split": covering._split_evaluate}
    values = {  # the untimed round, which warms caches and the allocator
        mode: b"".join(dis.tobytes() + radius.tobytes() for dis, radius in results)
        for mode in MODES
        for results in [replay(evaluators[mode], points, d, batches)[1]]
    }
    if values["split"] != values["unsplit"]:
        raise SystemExit(f"{structure}:{n}: the split batches differ from the unsplit ones")
    samples = {mode: [] for mode in MODES}
    for r in range(ROUNDS):
        for mode in MODES if r % 2 == 0 else MODES[::-1]:
            samples[mode].append(replay(evaluators[mode], points, d, batches)[0])
    row = {
        "job": f"{structure}:{n}",
        "t": len(points),
        "batches": len(batches),
        "rows": sum(len(b) for b in batches),
        "sha256": hashlib.sha256(values["split"]).hexdigest()[:16],
    }
    for mode in MODES:
        for key in COUNTERS:
            row[f"{mode}_{key}"] = median(sample[key] for sample in samples[mode])
    return row


def line(row: dict) -> str:
    return (
        f"{row['job']} t={row['t']} batches={row['batches']} rows={row['rows']} "
        f"sha256={row['sha256']} unsplit_s={row['unsplit_s']:.3f} split_s={row['split_s']:.3f} "
        f"speedup={row['unsplit_s'] / row['split_s']:.2f} "
        f"minflt={row['unsplit_minflt']:.0f}/{row['split_minflt']:.0f} "
        f"user_s={row['unsplit_user_s']:.2f}/{row['split_user_s']:.2f} "
        f"sys_s={row['unsplit_sys_s']:.2f}/{row['split_sys_s']:.2f} "
        f"nvcsw={row['unsplit_nvcsw']:.0f}/{row['split_nvcsw']:.0f}"
    )


def main() -> None:
    if sys.argv[1:2] == ["--child"]:
        print(json.dumps(measure(*child_job(*sys.argv[2:]))))
        return
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("jobs", nargs="*", type=job, default=[job("polar:30")])
    tree_options(ap)
    args = ap.parse_args()
    tables = compare(__file__, checked_trees(ap, args), args.jobs, args.repeats, MEDIANS, line)
    if args.out:
        benchmark = (
            "Cover Cap batches of _SPLIT_ROWS rows or more, replayed unsplit and split over two"
            " threads: seconds, minor faults, user and system CPU, voluntary context switches"
        )
        statistic = f"medians of {ROUNDS} rounds in a warm process, then the median of {args.repeats} fresh processes"
        write_tables(args.out, benchmark, statistic, NOTE, tables)


if __name__ == "__main__":
    main()
