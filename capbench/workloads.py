"""The benchmark's workloads.  One call of a workload function is one pass.

A pass runs in a fresh process (see worker.py), so the first certificate of
the pass pays the page-fault and allocator warm-up that a command-line user
pays.  Every operation (one certificate or one audit) is checked, and its
failure is recorded rather than raised, so one bad operation does not hide
the others.

The functions call `capdisc` through module attributes (`covering.cover_region`,
not a name imported into this file), so the wrappers that a traced pass
installs see the calls.
"""
from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import resource
import traceback
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from capdisc import covering, polar_analysis, pointsets, reporting
from capdisc.geometry import Region


def derive_seed(seed: int, *keys: int) -> int:
    """Stable 32-bit seed for one input of the run with workload seed `seed`."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


def digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Certificate:
    label: str
    t: int
    outcome: covering.CoverOutcome


@dataclass
class Pass:
    """What one pass did: timers, checked operations and certificates."""

    t0: float  # perf_counter() when the process started importing
    report_dir: str
    tracer: object = None
    ops: list = field(default_factory=list)
    certs: list = field(default_factory=list)
    audits: list = field(default_factory=list)  # (probes, balls, t)
    setup_s: float = 0.0
    wall_s: float = 0.0
    cert_s: float = 0.0
    report_bytes: int = 0
    cert_rss_mb: float | None = None
    wall_span: int = -1

    def _traced(self, name: str):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name)

    @contextlib.contextmanager
    def setup(self):
        """Imports, point generation and parameters: from process start to inputs ready."""
        with self._traced("bench.setup"):
            yield
        self.setup_s = perf_counter() - self.t0

    @contextlib.contextmanager
    def wall(self):
        """From inputs ready to done; every operation runs inside."""
        if self.tracer is not None:
            self.wall_span = len(self.tracer.spans)
        start = perf_counter()
        with self._traced("bench.wall"):
            yield
        self.wall_s = perf_counter() - start
        if self.cert_rss_mb is None:
            self.cert_rss_mb = max_rss_mb()

    def _begin(self, label: str) -> None:
        if self.tracer is not None:
            self.tracer.op = label

    def _record(self, label: str, why: str | None, result_digest: str | None = None):
        self.ops.append({"op": label, "ok": why is None, "why": why, "digest": result_digest})

    def certify(self, label, ps, params, expected: str, run):
        """One certificate: compute it, write and re-read its report, check both.

        Returns the outcome, or None when the operation failed.
        """
        self._begin(label)
        start = perf_counter()
        try:
            outcome = run()
        except Exception:  # an operation that raises is a failed operation
            self.cert_s += perf_counter() - start
            self._record(label, traceback.format_exc(limit=4))
            return None
        self.cert_s += perf_counter() - start
        try:
            path = os.path.join(self.report_dir, f"report-{os.getpid()}-{len(self.ops)}.json")
            reporting.write_report(path, ps, params, outcome)
            self.report_bytes += os.path.getsize(path)
            doc = reporting.read_report(path)
            os.remove(path)
            doc_digest = digest(reporting.strip_timings(doc))
        except Exception:
            self._record(label, traceback.format_exc(limit=4))
            return None
        self.certs.append(Certificate(label, ps.size, outcome))
        why = None
        if outcome.status != expected:
            why = f"status {outcome.status!r}, expected {expected!r}"
        elif (
            doc["outcome"]["status"] != outcome.status
            or len(doc["records"]) != len(outcome.records)
            or len(doc["not_covered"]) != len(outcome.not_covered)
        ):
            why = "report read back differs from the outcome"
        self._record(label, why, doc_digest)
        return outcome

    def audit(self, label, ps, params, outcome, probes: int, seed: int) -> None:
        """One probe audit of a certificate: no probe may be uncovered or above d."""
        if self.cert_rss_mb is None:
            self.cert_rss_mb = max_rss_mb()
        self._begin(label)
        if outcome is None:
            self._record(label, "no certificate to audit")
            return
        try:
            res = reporting.audit_coverage(ps, params, outcome, probe_count=probes, seed=seed)
        except Exception:
            self._record(label, traceback.format_exc(limit=4))
            return
        self.audits.append((probes, len(outcome.records), ps.size))
        why = None
        if res["uncovered"] or res["over_bound"]:
            why = f"audit found uncovered={res['uncovered']} over_bound={res['over_bound']}"
        self._record(label, why, digest(res))

    def e2e(self) -> dict:
        return {
            "cert_s": self.cert_s,
            "wall_s": self.wall_s,
            "setup_s": self.setup_s,
            "peak_rss_mb": max_rss_mb(),
            "cert_entries": sum(
                len(c.outcome.records) + len(c.outcome.not_covered) for c in self.certs
            ),
        }


def conjecture_params(n: int) -> covering.CoverParams:
    """The parameters `conjecture_check(n, ...)` covers with, needed for its report."""
    d = polar_analysis.north_pole_directed(n)
    r = polar_analysis.north_pole_local_radius(n)
    return covering.CoverParams(
        d=d,
        region=Region(0.0, polar_analysis.phi_max_from_radius(r), 0.0, math.pi),
        cover_cap_max_depth=12,
    )


def _conjecture(p: Pass, label: str, n: int, structure: str, ps, params, expected: str):
    def run():
        outcome, cert = polar_analysis.conjecture_check(n, structure)
        if cert.north_value != params.d or cert.phi_max != params.region.phi_max:
            raise AssertionError("conjecture_check used other parameters than the report states")
        return outcome

    return p.certify(label, ps, params, expected, run)


def twisted_sweep(p: Pass, seed: int, pass_index: int, ns=(20, 40, 60, 80)):
    """The paper's north-pole sweep: one certificate per n."""
    with p.setup():
        inputs = [(n, pointsets.generate_twisted_polar(n), conjecture_params(n)) for n in ns]
    with p.wall():
        for n, ps, params in inputs:
            _conjecture(p, f"cert n={n}", n, "twisted", ps, params, "covered")


def polar30_audit(p: Pass, seed: int, pass_index: int, n=30, probes=6144):
    """Plain polar n=30: Cover Cap, swallow rescue and a residual, then a large audit."""
    with p.setup():
        ps = pointsets.generate_polar(n)
        params = conjecture_params(n)
    with p.wall():
        outcome = _conjecture(p, f"cert n={n}", n, "polar", ps, params, "residual")
        p.audit(f"audit n={n}", ps, params, outcome, probes, derive_seed(seed, 0))


WORKLOADS = {
    "twisted_sweep": twisted_sweep,
    "polar30_audit": polar30_audit,
}
