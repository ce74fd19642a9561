"""capdisc benchmark: time to certificate, end to end and layer by layer.

    python3 capbench/run.py --workload twisted_sweep --seed 1 --seconds 10 --trace 0

Runs fresh worker processes ("passes") one after another, until `--seconds`
have passed and the workload's minimum number of passes is reached, then
prints one JSON line: `correct`, `attempted`, `failed` and `metrics`.  Each
metric is the median over the run's passes.  With `--trace 0` the metrics are
the end-to-end ones of BENCHMARK.json; with `--trace 1` the run alternates
untraced and traced passes and prints the per-layer metrics.  The line before
it records the environment, and capbench/_runs/ keeps every pass's output.
Run it from anywhere; it uses the checkout it sits in.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / "_runs"
DEADLINE_S = 170.0  # a run must end within 180 s


@dataclass(frozen=True)
class Plan:
    min_passes: int
    ops_per_pass: int  # operations a pass attempts: certificates plus audits
    timeout_s: float  # a pass that runs longer counts as failed (hangs included)


PLANS = {
    "twisted_sweep": Plan(min_passes=4, ops_per_pass=4, timeout_s=60.0),
    "polar30_audit": Plan(min_passes=3, ops_per_pass=2, timeout_s=80.0),
}

# Process-wide counters come from the untraced passes, which tracing cannot inflate.
PROCESS_KEYS = ("process.minor_faults", "process.sys_s", "process.user_s", "process.cert_rss_mb")


def worker_env() -> dict:
    """This process's environment with BLAS and OpenMP capped at nproc threads."""
    env = dict(os.environ)
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            wanted = int(env.get(var, nproc))
        except ValueError:
            wanted = nproc
        env[var] = str(max(1, min(wanted, nproc)))
    return env


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def source_digest() -> str:
    """sha256 over the package sources, naming the code where git cannot."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_pass(workload: str, seed: int, index: int, traced: bool, timeout: float, env) -> dict:
    """One fresh worker; a crash, a timeout or unreadable output fails the pass."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--pass-index", str(index), "--trace", str(int(traced))]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"traced": traced, "error": f"timed out after {timeout:.0f} s",
                "elapsed_s": time.monotonic() - start}
    elapsed = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"traced": traced, "error": f"exit {proc.returncode}: {proc.stderr[-2000:]}",
                "elapsed_s": elapsed}
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"traced": traced, "error": f"unreadable output: {lines[-1][:200]}",
                "elapsed_s": elapsed}
    result.update(traced=traced, elapsed_s=elapsed)
    return result


def run_passes(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    plan = PLANS[workload]
    env = worker_env()
    start = time.monotonic()
    passes: list[dict] = []
    longest = plan.timeout_s
    while True:
        elapsed = time.monotonic() - start
        enough = len(passes) >= (2 if trace else plan.min_passes)
        if enough and elapsed >= seconds:
            break
        if elapsed + longest > DEADLINE_S and passes:
            break
        # A traced run pairs each traced pass with an untraced one on the same
        # inputs, so the overhead compares like with like.
        traced = trace and len(passes) % 2 == 1
        index = len(passes) // 2 if trace else len(passes)
        res = run_pass(workload, seed, index, traced,
                       min(plan.timeout_s, DEADLINE_S - elapsed), env)
        passes.append(res)
        if "error" in res:
            break  # a hang or a crash would repeat; stop within the deadline
        longest = max(p["elapsed_s"] for p in passes)
    return passes


def check(workload: str, passes: list[dict]) -> tuple[int, int, list[str]]:
    """Attempted and failed operations, plus the reasons for each failure."""
    plan = PLANS[workload]
    attempted = failed = 0
    problems: list[str] = []
    digests: dict[str, set] = {}
    for i, res in enumerate(passes):
        if "error" in res:
            attempted += plan.ops_per_pass
            failed += plan.ops_per_pass
            problems.append(f"pass {i}: {res['error']}")
            continue
        for op in res["ops"]:
            attempted += 1
            if op["ok"]:
                digests.setdefault(op["op"], set()).add(op["digest"])
            else:
                failed += 1
                problems.append(f"pass {i} {op['op']}: {op['why']}")
    for label, seen in digests.items():
        if len(seen) > 1:
            # Repeats of one input must give byte-identical certificates.
            n = sum(1 for r in passes if "ops" in r for op in r["ops"]
                    if op["op"] == label and op["ok"])
            failed += n
            problems.append(f"{label}: {len(seen)} different digests over {n} repeats")
    return attempted, failed, problems


def median_of(passes: list[dict], section: str, key: str) -> float:
    return statistics.median(p[section][key] for p in passes)


def summarize(bench: dict, workload: str, passes: list[dict], trace: bool) -> dict:
    attempted, failed, problems = check(workload, passes)
    good = [p for p in passes if "error" not in p]
    plain = [p for p in good if not p["traced"]]
    traced = [p for p in good if p["traced"]]
    metrics: dict[str, float] = {}
    if trace and plain and traced:
        layer = {k: median_of(traced, "layers", k) for k in traced[0]["layers"]}
        layer.update({k: median_of(plain, "process", k) for k in PROCESS_KEYS})
        layer["trace.overhead_s"] = (
            median_of(traced, "e2e", "wall_s") - median_of(plain, "e2e", "wall_s")
        )
        for p in traced:
            lay = p["layers"]
            if abs(lay["trace.self_sum_s"] - lay["trace.wall_s"]) > 1e-6 * lay["trace.wall_s"]:
                problems.append("span self times do not add up to the traced wall time")
        wanted = bench["per_layer"]
    elif not trace and plain:
        layer = {k: median_of(plain, "e2e", k) for k in plain[0]["e2e"]}
        layer["ok_frac"] = (attempted - failed) / attempted
        wanted = bench["end_to_end"]
    else:
        layer, wanted = {}, []
        problems.append("no pass completed")
    for m in wanted:
        if m["name"] in layer:
            metrics[m["name"]] = {"value": layer[m["name"]], "unit": m["unit"]}
        else:
            problems.append(f"metric {m['name']} missing")
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "problems": problems,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(PLANS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "capdisc" / "__init__.py").is_file():
        print(f"no capdisc sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    passes = run_passes(args.workload, args.seed, args.seconds, bool(args.trace))
    summary = summarize(bench, args.workload, passes, bool(args.trace))

    env = next((p["env"] for p in passes if "env" in p), {})
    env.update(git_commit=git_commit(), src_sha256=source_digest(), passes=len(passes),
               traced_passes=sum(1 for p in passes if p["traced"]))
    RUNS.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "summary": summary, "passes": passes}
    out = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    print(json.dumps({"env": env, "problems": summary.pop("problems"),
                      "record": str(out.relative_to(ROOT))}))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
