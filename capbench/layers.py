"""Where a traced pass wraps `capdisc`, and the per-layer metrics it derives.

Each site is the module in which the caller looks the name up: the engine
calls `confidence_radius` through `capdisc.covering`, the audit calls
`directed_values` through `capdisc.reporting`, and `conjecture_check` calls
`cover_region` through `capdisc.polar_analysis`.
"""
from __future__ import annotations

from statistics import median

from capdisc import covering, pointsets, polar_analysis, reporting

import tracing
from tracing import ATTRS, END, NAME, OP, PARENT, START

RECURSE = "covering.cover_cap_recurse"
CONFIDENCE = "discrepancy.confidence_radius"
CENTERS = "geometry.cover_cap_centers"
AUDIT = "reporting.audit_coverage"


def _recurse_attrs(args, kwargs, result) -> dict:
    depth = kwargs["depth"] if "depth" in kwargs else args[3]
    return {"depth": depth, "records": len(result[1])}


SITES = [
    (covering, "project", "discrepancy.project", None),
    (covering, "confidence_radius", CONFIDENCE, None),
    (covering, "polar_to_cartesian", "geometry.polar_to_cartesian", None),
    (covering, "cartesian_to_polar", "geometry.cartesian_to_polar", None),
    (covering, "cover_cap_centers", CENTERS, None),
    (covering, "step_theta", "covering.step_theta", None),
    (covering, "orbit_intersection_latitude", "covering.latitude_search", None),
    (covering, "cover_cap_recurse", RECURSE, _recurse_attrs),
    (covering, "cover_region", "covering.cover_region", None),
    (polar_analysis, "cover_region", "covering.cover_region", None),
    (polar_analysis, "conjecture_check", "polar_analysis.conjecture_check", None),
    (polar_analysis, "north_pole_directed", "polar_analysis.north_pole_directed", None),
    (polar_analysis, "north_pole_local_radius", "polar_analysis.north_pole_local_radius", None),
    (polar_analysis, "generate_polar", "pointsets.generate", None),
    (polar_analysis, "generate_twisted_polar", "pointsets.generate", None),
    (pointsets, "generate_polar", "pointsets.generate", None),
    (pointsets, "generate_twisted_polar", "pointsets.generate", None),
    (reporting, "write_report", "reporting.write_report", None),
    (reporting, "read_report", "reporting.read_report", None),
    (reporting, "report_dict", "reporting.report_dict", None),
    (reporting, "strip_timings", "reporting.strip_timings", None),
    (reporting, "audit_coverage", AUDIT, None),
    (reporting, "sample_region_directions", "reporting.sample_region_directions", None),
    (reporting, "directed_values", "discrepancy.directed_values", None),
    (reporting, "polar_to_cartesian", "geometry.polar_to_cartesian", None),
]

# Spans inside phase 1 that are not band geometry or orbit walking.
PHASE1_CHILDREN = {
    "discrepancy.project",
    CONFIDENCE,
    "geometry.polar_to_cartesian",
    "covering.step_theta",
    "covering.latitude_search",
}


def install(tracer: tracing.Tracer) -> None:
    for module, attr, name, attrs in SITES:
        tracer.wrap(module, attr, name, attrs)


def metrics(p, tracer: tracing.Tracer) -> dict:
    """Per-layer metrics of one traced pass (see README.md for what each moves)."""
    spans = tracer.spans
    selfs = tracing.self_times(spans)
    tot = tracing.totals(spans)

    def calls(name):
        return tot.get(name, {}).get("calls", 0)

    def secs(name):
        return tot.get(name, {}).get("s", 0.0)

    def self_s(name):
        return tot.get(name, {}).get("self_s", 0.0)

    # One pass over the spans, parents before children.
    level = [0] * len(spans)  # Cover Cap nesting level, 0 outside it
    in_cover_cap = [False] * len(spans)
    has_centers = set()
    phase1_children_s: dict[int, float] = {}
    for i, span in enumerate(spans):
        parent = span[PARENT]
        if parent < 0:
            continue
        pname = spans[parent][NAME]
        in_cover_cap[i] = pname == RECURSE or in_cover_cap[parent]
        if span[NAME] == RECURSE:
            level[i] = level[parent] + 1
        if span[NAME] == CENTERS:
            has_centers.add(parent)
        if pname == "covering.cover_region" and span[NAME] in PHASE1_CHILDREN:
            phase1_children_s[parent] = phase1_children_s.get(parent, 0.0) + span[END] - span[START]

    recurse = [i for i, s in enumerate(spans) if s[NAME] == RECURSE]
    rescue_hits = sum(
        1 for i in recurse if spans[i][ATTRS].get("records") == 1 and i not in has_centers
    )
    confidence = [i for i, s in enumerate(spans) if s[NAME] == CONFIDENCE]
    phase2_evals = sum(1 for i in confidence if in_cover_cap[i])
    violations = sum(
        1 for i in confidence if (spans[i][ATTRS] or {}).get("error") == "HypothesisViolation"
    )

    phase1 = {c.label: c.outcome.timings["phase1"] for c in p.certs}
    phase1_self = sum(
        phase1[s[OP]] - phase1_children_s.get(i, 0.0)
        for i, s in enumerate(spans)
        if s[NAME] == "covering.cover_region" and s[OP] in phase1
    )

    def counter(key):
        return sum(c.outcome.counters[key] for c in p.certs)

    n_evals = counter("n_evaluations")
    cover_cap_dirs = counter("n_cover_cap_dirs")
    wall_tree = tracing.subtree(spans, p.wall_span)
    kernel_s = secs("discrepancy.project") + secs(CONFIDENCE)
    return {
        "discrepancy.project.calls": calls("discrepancy.project"),
        "discrepancy.project.s": secs("discrepancy.project"),
        "discrepancy.confidence_radius.calls": calls(CONFIDENCE),
        "discrepancy.confidence_radius.s": secs(CONFIDENCE),
        "discrepancy.eval_us": 1e6 * kernel_s / max(1, calls(CONFIDENCE)),
        "discrepancy.sorted_elems": sum(c.outcome.counters["n_evaluations"] * c.t for c in p.certs),
        "discrepancy.hypothesis_violations": violations,
        "discrepancy.directed_values.calls": calls("discrepancy.directed_values"),
        "discrepancy.directed_values.s": secs("discrepancy.directed_values"),
        "geometry.polar_to_cartesian.calls": calls("geometry.polar_to_cartesian"),
        "geometry.polar_to_cartesian.s": secs("geometry.polar_to_cartesian"),
        "geometry.cartesian_to_polar.calls": calls("geometry.cartesian_to_polar"),
        "geometry.cartesian_to_polar.s": secs("geometry.cartesian_to_polar"),
        "geometry.cover_cap_centers.calls": calls(CENTERS),
        "geometry.cover_cap_centers.s": secs(CENTERS),
        "covering.phase1_s": sum(phase1.values()),
        "covering.cover_cap_s": sum(c.outcome.timings["cover_cap"] for c in p.certs),
        "covering.phase1_self_s": phase1_self,
        "covering.step_theta.calls": calls("covering.step_theta"),
        "covering.step_theta.s": secs("covering.step_theta"),
        "covering.latitude_search.calls": calls("covering.latitude_search"),
        "covering.latitude_search.s": secs("covering.latitude_search"),
        "covering.cover_cap_recurse.calls": len(recurse),
        "covering.cover_cap_recurse.self_s": self_s(RECURSE),
        "covering.cover_cap_recurse.depth_max": max((level[i] for i in recurse), default=0),
        "covering.rescue_hits": rescue_hits,
        "covering.rescue_hit_ratio": rescue_hits / len(recurse) if recurse else 0.0,
        "covering.cover_cap_useful_ratio": cover_cap_dirs / phase2_evals if phase2_evals else 0.0,
        "covering.n_DD": counter("n_DD"),
        "covering.n_CC": counter("n_CC"),
        "covering.n_evaluations": n_evals,
        "covering.n_orbits": counter("n_orbits"),
        "covering.n_cover_cap_dirs": cover_cap_dirs,
        "covering.cert_balls": sum(len(c.outcome.records) for c in p.certs),
        "covering.residual_dirs": sum(len(c.outcome.not_covered) for c in p.certs),
        "covering.r_min_median": median(c.outcome.counters["r_min_median"] for c in p.certs)
        if p.certs
        else 0.0,
        "covering.evals_per_s": n_evals / p.cert_s if p.cert_s else 0.0,
        "reporting.audit_coverage.s": secs(AUDIT),
        "reporting.audit.self_s": self_s(AUDIT),
        "reporting.audit.pairs": sum(probes * balls for probes, balls, _ in p.audits),
        "reporting.audit.bytes_computed": sum(
            8 * probes * (balls + t) for probes, balls, t in p.audits
        ),
        "reporting.write_report.s": secs("reporting.write_report"),
        "reporting.read_report.s": secs("reporting.read_report"),
        "reporting.report_bytes": p.report_bytes,
        "pointsets.generate.s": secs("pointsets.generate"),
        "polar_analysis.north_pole_directed.s": secs("polar_analysis.north_pole_directed"),
        "polar_analysis.north_pole_local_radius.s": secs("polar_analysis.north_pole_local_radius"),
        "trace.spans": len(spans),
        "trace.wall_s": spans[p.wall_span][END] - spans[p.wall_span][START],
        "trace.self_sum_s": sum(selfs[i] for i in wall_tree),
    }
