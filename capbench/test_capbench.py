"""Self-tests of the benchmark: python3 -m pytest capbench -q"""
import json
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

# Tiny versions of the workloads, same operations per pass.
SMOKE = {
    "twisted_sweep": dict(ns=(15, 16, 17, 18)),
    "polar30_audit": dict(n=15, probes=64),
}


def test_benchmark_json_keys_and_names():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCH["workloads"]] == list(run.PLANS)
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    names += [w["name"] for w in BENCH["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for m in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    for m in BENCH["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


def test_self_time_on_synthetic_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3].
    spans = [
        ["root", -1, None, 0.0, 10.0, None],
        ["a", 0, None, 1.0, 4.0, None],
        ["c", 1, None, 2.0, 3.0, None],
        ["b", 0, None, 5.0, 9.0, None],
        ["other", -1, None, 11.0, 12.0, None],
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0, 1.0]
    assert tracing.subtree(spans, 0) == [0, 1, 2, 3]
    assert sum(tracing.self_times(spans)[i] for i in tracing.subtree(spans, 0)) == 10.0
    tot = tracing.totals(spans)
    assert tot["a"] == {"calls": 1, "s": 3.0, "self_s": 2.0}


def test_wrapper_sees_recursion_through_the_module_global():
    mod = types.ModuleType("fake")

    def down(k):
        return 0 if k == 0 else 1 + mod.down(k - 1)

    mod.down = down
    tracer = tracing.Tracer()
    tracer.wrap(mod, "down", "down", lambda args, kwargs, result: {"depth": args[0]})
    assert mod.down(3) == 3
    tracer.uninstall()
    assert mod.down is down
    assert [s[tracing.ATTRS]["depth"] for s in tracer.spans] == [3, 2, 1, 0]
    assert [s[tracing.PARENT] for s in tracer.spans] == [-1, 0, 1, 2]


def test_wrapper_records_the_exception_and_reraises():
    mod = types.ModuleType("fake")

    def boom():
        raise KeyError("x")

    mod.boom = boom
    tracer = tracing.Tracer()
    tracer.wrap(mod, "boom", "boom")
    with pytest.raises(KeyError):
        mod.boom()
    assert tracer.spans[0][tracing.ATTRS] == {"error": "KeyError"}
    assert tracer._stack == []


def _smoke(name, tmp_path, traced):
    tracer = None
    if traced:
        tracer = tracing.Tracer()
        layers.install(tracer)
    try:
        p = workloads.Pass(t0=0.0, report_dir=str(tmp_path), tracer=tracer)
        workloads.WORKLOADS[name](p, 7, 0, **SMOKE[name])
    finally:
        if tracer is not None:
            tracer.uninstall()
    return p, tracer


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_pass(name, tmp_path):
    p, tracer = _smoke(name, tmp_path, traced=True)
    assert len(p.ops) == run.PLANS[name].ops_per_pass
    if name != "polar30_audit":  # the tiny polar set need not end in a residual
        assert all(op["ok"] for op in p.ops), p.ops
    assert set(p.e2e()) | {"ok_frac"} == {m["name"] for m in BENCH["end_to_end"]}
    got = layers.metrics(p, tracer)
    added_by_run = set(run.PROCESS_KEYS) | {"trace.overhead_s"}
    assert set(got) | added_by_run == {m["name"] for m in BENCH["per_layer"]}
    assert got["trace.self_sum_s"] == pytest.approx(got["trace.wall_s"], rel=1e-9)
    assert list(tmp_path.iterdir()) == []  # reports are removed after reading


def test_tracing_leaves_certificates_unchanged(tmp_path):
    plain, _ = _smoke("twisted_sweep", tmp_path, traced=False)
    traced, _ = _smoke("twisted_sweep", tmp_path, traced=True)
    assert [op["digest"] for op in plain.ops] == [op["digest"] for op in traced.ops]


def _pass(ops, traced=False, wall=1.0):
    e2e = dict(cert_s=0.5, wall_s=wall, setup_s=0.2, peak_rss_mb=50.0, cert_entries=10)
    return {"ops": ops, "e2e": e2e, "traced": traced, "elapsed_s": wall}


def test_failure_accounting():
    ok = {"op": "cert n=1", "ok": True, "why": None, "digest": "a"}
    res = run.summarize(BENCH, "polar30_audit", [_pass([ok]), _pass([ok])], trace=False)
    assert (res["correct"], res["attempted"], res["failed"]) == (True, 2, 0)
    assert res["metrics"]["ok_frac"]["value"] == 1.0

    other = dict(ok, digest="b")
    res = run.summarize(BENCH, "polar30_audit", [_pass([ok]), _pass([other])], trace=False)
    assert (res["correct"], res["failed"]) == (False, 2)

    bad = {"op": "audit n=1", "ok": False, "why": "uncovered", "digest": None}
    hang = {"traced": False, "error": "timed out after 80 s", "elapsed_s": 80.0}
    res = run.summarize(BENCH, "polar30_audit", [_pass([ok, bad]), hang], trace=False)
    assert (res["correct"], res["attempted"], res["failed"]) == (False, 4, 3)
    assert res["metrics"]["ok_frac"]["value"] == 0.25


def test_a_pass_past_its_timeout_is_killed_and_failed():
    res = run.run_pass("polar30_audit", 1, 0, False, 1.0, run.worker_env())
    assert res["error"].startswith("timed out")
    assert run.check("polar30_audit", [res])[:2] == (2, 2)


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "capbench",
                    ignore=shutil.ignore_patterns("_runs", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "capbench/run.py", "--workload", "twisted_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
