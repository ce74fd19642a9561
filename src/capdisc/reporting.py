"""Persistence of covering certificates: report JSON, summary CSV, audits.

The report is a self-describing, versioned JSON document that captures the
inputs (point-set provenance, bound, region, engine parameters) alongside
every certified ball, so a run can be re-verified from the point file alone.
Timings are recorded for information; everything else is deterministic.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .covering import CoverOutcome, CoverParams
from .discrepancy import directed_values
from .geometry import PolarDirection, Region
from .geometry import polar_to_cartesian  # noqa: F401  capbench traces this lookup site
from .pointsets import PointSet

SCHEMA_VERSION = 1

SUMMARY_HEADER = ["n", "t", "n_DD", "n_CC", "phase1_s", "cover_cap_s", "total_s", "d", "status"]


@dataclass
class RunSummaryRow:
    n: int
    t: int
    n_DD: int
    n_CC: int
    phase1_s: float
    cover_cap_s: float
    total_s: float
    d: float
    status: str

    def __post_init__(self):
        if self.total_s < self.phase1_s:
            raise ValueError("total_s must include phase1_s")
        if self.n_CC > self.n_DD:
            raise ValueError("n_CC cannot exceed n_DD")


def _angle(x: float) -> float:
    # 17 significant digits round-trip any IEEE double exactly.
    return float(f"{x:.17g}")


def report_dict(ps: PointSet, params: CoverParams, outcome: CoverOutcome) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "points_meta": {
            "generator": ps.meta.generator,
            "n": ps.meta.n,
            "size": ps.size,
        },
        "params": {
            "d": _angle(params.d),
            "region": {
                "phi_min": _angle(params.region.phi_min),
                "phi_max": _angle(params.region.phi_max),
                "theta_min": _angle(params.region.theta_min),
                "theta_max": _angle(params.region.theta_max),
            },
            "defaults": {
                "orbit_sample_count": params.orbit_sample_count,
                "r_min_factor": params.r_min_factor,
                "cover_cap_max_depth": params.cover_cap_max_depth,
                "binary_search_tol": _angle(params.binary_search_tol),
            },
        },
        "outcome": {
            "status": outcome.status,
            "counters": {
                k: (_angle(v) if isinstance(v, float) else v)
                for k, v in outcome.counters.items()
            },
            "timings": {k: float(v) for k, v in outcome.timings.items()},
        },
        "records": [
            {
                "theta": _angle(rec.direction.theta),
                "phi": _angle(rec.direction.phi),
                "radius": _angle(rec.radius),
                "directed_value": _angle(rec.directed_value),
                "origin": rec.origin,
            }
            for rec in outcome.records
        ],
        "not_covered": [
            {
                "theta": _angle(pd.theta),
                "phi": _angle(pd.phi),
                "required_radius": _angle(req),
            }
            for pd, req in outcome.not_covered
        ],
    }
    if outcome.counterexample is not None:
        ce = outcome.counterexample
        doc["counterexample"] = {
            "direction": [_angle(float(c)) for c in ce.direction],
            "value": _angle(ce.value),
        }
    return doc


def write_report(path, ps: PointSet, params: CoverParams, outcome: CoverOutcome) -> None:
    doc = report_dict(ps, params, outcome)
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def read_report(path) -> dict:
    doc = json.loads(Path(path).read_text())
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported report schema: {doc.get('schema_version')!r}")
    return doc


def strip_timings(doc: dict) -> dict:
    """Copy of a report with the only nondeterministic block removed."""
    out = json.loads(json.dumps(doc))
    out.get("outcome", {}).pop("timings", None)
    return out


def upsert_summary_row(path, row: RunSummaryRow) -> None:
    """Append the row to the CSV, replacing any existing row with the same n."""
    path = Path(path)
    rows: dict[int, list[str]] = {}
    if path.exists():
        with path.open(newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is not None and header != SUMMARY_HEADER:
                raise ValueError(f"unexpected summary header in {path}: {header}")
            for rec in reader:
                if rec:
                    rows[int(rec[0])] = rec
    rows[row.n] = [
        str(row.n),
        str(row.t),
        str(row.n_DD),
        str(row.n_CC),
        f"{row.phase1_s:.6f}",
        f"{row.cover_cap_s:.6f}",
        f"{row.total_s:.6f}",
        f"{row.d:.17g}",
        row.status,
    ]
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_HEADER)
        for n in sorted(rows):
            writer.writerow(rows[n])


def summary_row_from_outcome(n: int, ps: PointSet, params: CoverParams, outcome: CoverOutcome) -> RunSummaryRow:
    return RunSummaryRow(
        n=n,
        t=ps.size,
        n_DD=outcome.counters["n_DD"],
        n_CC=outcome.counters["n_CC"],
        phase1_s=outcome.timings["phase1"],
        cover_cap_s=outcome.timings["cover_cap"],
        total_s=outcome.timings["total"],
        d=params.d,
        status=outcome.status,
    )


def _unit_vectors(theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """(count, 3) cartesian directions of longitudes theta and latitudes phi."""
    cos_phi = np.cos(phi)
    return np.stack([cos_phi * np.cos(theta), cos_phi * np.sin(theta), np.sin(phi)], axis=1)


def sample_region_directions(region: Region, count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform (area-weighted) directions inside a polar rectangle, (count, 3)."""
    theta = rng.uniform(region.theta_min, region.theta_max, count)
    # Uniform on the sphere means sin(phi) uniform on [sin(phi_min), sin(phi_max)].
    z = rng.uniform(math.sin(region.phi_min), math.sin(region.phi_max), count)
    return _unit_vectors(theta, np.arcsin(np.clip(z, -1.0, 1.0)))


# Probes per block of the coverage test; sorted by z, a block meets few balls.
_AUDIT_BLOCK = 128
# Widening of each ball's z-interval.  The test accepts a computed chord^2
# <= r^2 + 1e-30 whose rounding is a few ulps of 4 (< 1e-14), so an accepted
# probe lies within sqrt(r^2 + 1e-14) < r + 1e-7 of the centre.
_Z_SLACK = 1e-7


def _uncovered_count(probes: np.ndarray, centers: np.ndarray, radii: np.ndarray) -> int:
    """Number of probes outside every ball B(center, radius), chordal.

    Probes are sorted by z and taken in blocks; each block is tested only
    against the balls whose z-interval [c_z - r, c_z + r] meets the block's
    z-range.  This is sound because |c_z - p_z| <= |c - p|, and z has no
    seam, so longitude wrap-around needs no special case.
    """
    lo = centers[:, 2] - radii - _Z_SLACK
    hi = centers[:, 2] + radii + _Z_SLACK
    r2 = radii * radii + 1e-30
    c2 = np.sum(centers * centers, axis=1)
    probes = probes[np.argsort(probes[:, 2])]
    uncovered = 0
    for start in range(0, len(probes), _AUDIT_BLOCK):
        block = probes[start : start + _AUDIT_BLOCK]
        near = np.flatnonzero((lo <= block[-1, 2]) & (hi >= block[0, 2]))
        # chord distance probe->center <= radius, via squared norms
        d2 = (
            np.sum(block * block, axis=1)[:, None]
            - 2.0 * block @ centers[near].T
            + c2[near][None, :]
        )
        hit = (d2 <= r2[near][None, :]).any(axis=1)
        uncovered += int((~hit).sum())
    return uncovered


def audit_coverage(
    ps: PointSet,
    params: CoverParams,
    outcome: CoverOutcome,
    probe_count: int = 100_000,
    seed: int = 0,
) -> dict:
    """Re-check a certificate against fresh uniform probes.

    Each probe in the region must fall inside some certified ball and its
    directly computed directed value must not exceed d.  Returns counts of
    violations.  Residual outcomes can still be audited: the probes are
    checked against whatever balls were certified, so a run whose only gap
    is a measure-zero singular direction passes with probability one.
    The coverage test holds the distances of one probe block at a time.
    """
    if outcome.status == "counterexample":
        raise ValueError("audit requires a certificate, not a counterexample")
    rng = np.random.default_rng(seed)
    probes = sample_region_directions(params.region, probe_count, rng)

    # np.cos/np.sin may place a centre an ulp from polar_to_cartesian's; that
    # changes a verdict only for a probe within about 1e-16 of a boundary.
    angles = np.array(
        [(rec.direction.theta, rec.direction.phi, rec.radius) for rec in outcome.records]
    ).reshape(-1, 3)
    centers = _unit_vectors(angles[:, 0], angles[:, 1])
    radii = angles[:, 2]
    uncovered = _uncovered_count(probes, centers, radii)

    over_bound = 0
    chunk = 2048
    for start in range(0, probe_count, chunk):
        values = directed_values(ps.points, probes[start : start + chunk])
        over_bound += int((values > params.d).sum())
    return {
        "probes": probe_count,
        "uncovered": uncovered,
        "over_bound": over_bound,
    }
