"""One pass of one workload in this process; prints its result as one JSON line.

    python3 capbench/worker.py --workload twisted_sweep --seed 1 --pass-index 0 --trace 0

run.py starts one fresh worker per pass.  The package is imported from the
`src/` directory of the checkout this file sits in.
"""
from time import perf_counter

T0 = perf_counter()  # setup_s counts from here: imports, generation, params

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
RUNS = Path(__file__).resolve().parent / "_runs"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import capdisc  # noqa: E402
import layers  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def blas_threads():
    """Threads the loaded OpenBLAS will use, or None when it cannot be asked."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib in libs:
        dll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def environment() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "capdisc_file": capdisc.__file__,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass-index", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    src = (ROOT / "src").resolve()
    if src not in Path(capdisc.__file__).resolve().parents:
        print(f"capdisc imported from {capdisc.__file__}, not from {src}", file=sys.stderr)
        return 2
    RUNS.mkdir(exist_ok=True)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        layers.install(tracer)
    p = workloads.Pass(t0=T0, report_dir=str(RUNS), tracer=tracer)
    workloads.WORKLOADS[args.workload](p, args.seed, args.pass_index)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "ops": p.ops,
        "e2e": p.e2e(),
        "process": {
            "process.minor_faults": usage.ru_minflt,
            "process.sys_s": usage.ru_stime,
            "process.user_s": usage.ru_utime,
            "process.cert_rss_mb": p.cert_rss_mb,
        },
        "env": environment(),
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = layers.metrics(p, tracer)
        tracer.write_jsonl(RUNS / f"spans-{args.workload}-pass{args.pass_index}.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
