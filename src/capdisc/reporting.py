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
from pathlib import Path

import numpy as np

from .covering import BINARY_SEARCH_TOL, ORBIT_SAMPLE_COUNT, ORIGINS, R_MIN_FACTOR
from .covering import CoverOutcome, CoverParams
from .discrepancy import directed_values
from .geometry import Region
from .geometry import polar_to_cartesian  # noqa: F401  capbench traces this lookup site
from .pointsets import PointSet

# Version 2 writes a ball as a row with its Cartesian centre; version 1 is still read.
SCHEMA_VERSION = 2
RECORD_FIELDS = ("x", "y", "z", "radius", "directed_value", "origin")

SUMMARY_HEADER = ["n", "t", "n_DD", "n_CC", "phase1_s", "cover_cap_s", "total_s", "d", "status"]


def _rows(table) -> list[tuple]:
    """A tuple per table row: centre x, y, z, then the other columns (lists hold 4 MB more)."""
    center, *columns = vars(table).values()
    return list(zip(*center.T.tolist(), *(column.tolist() for column in columns)))


def report_dict(ps: PointSet, params: CoverParams, outcome: CoverOutcome) -> dict:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "points_meta": {
            "generator": ps.meta.generator,
            "n": ps.meta.n,
            "size": ps.size,
        },
        "params": {
            "d": float(params.d),
            "region": {
                "phi_min": float(params.region.phi_min),
                "phi_max": float(params.region.phi_max),
                "theta_min": float(params.region.theta_min),
                "theta_max": float(params.region.theta_max),
            },
            "defaults": {
                "orbit_sample_count": ORBIT_SAMPLE_COUNT,
                "r_min_factor": R_MIN_FACTOR,
                "cover_cap_max_depth": params.cover_cap_max_depth,
                "binary_search_tol": BINARY_SEARCH_TOL,
            },
        },
        "outcome": {
            "status": outcome.status,
            # A counter with no value (an r_min when no orbit was walked) is null.
            "counters": {
                k: (None if math.isnan(v) else float(v)) if isinstance(v, float) else v
                for k, v in outcome.counters.items()
            },
            "timings": {k: float(v) for k, v in outcome.timings.items()},
        },
        "record_fields": list(RECORD_FIELDS),
        "origins": list(ORIGINS),
        "records": _rows(outcome.records),
        "not_covered": _rows(outcome.not_covered),  # x, y, z, required_radius
    }
    if outcome.counterexample is not None:
        ce = outcome.counterexample
        doc["counterexample"] = {
            "direction": [float(c) for c in ce.direction],
            "value": float(ce.value),
        }
    return doc


def write_report(path, ps: PointSet, params: CoverParams, outcome: CoverOutcome) -> None:
    """Write the report as one line of JSON.

    `json.dumps` without `indent` runs json's C encoder; `indent` or
    `json.dump` would fall back to the pure-Python one.  A non-finite float
    raises ValueError instead of writing NaN or Infinity, which are not JSON.
    The newline is written apart: appending it would copy the whole text.
    """
    with open(path, "w") as fh:
        print(json.dumps(report_dict(ps, params, outcome), allow_nan=False), file=fh)


def read_report(path) -> dict:
    """The report as written, of schema version 1 or 2; raises ValueError on any other."""
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict):
        raise ValueError(f"a report is a JSON object, not {type(doc).__name__}")
    version = doc.get("schema_version")
    if type(version) is not int or version not in (1, SCHEMA_VERSION):  # not True, 1.0 or 2.0
        raise ValueError(f"unsupported report schema: {version!r}")
    return doc


def strip_timings(doc: dict) -> dict:
    """Copy of a report with the only nondeterministic block, `outcome.timings`, removed.

    Only the top-level and `outcome` dicts are new; the records and every
    other value are shared with `doc`, which is left unchanged.
    """
    out = dict(doc)
    if "outcome" in out:
        out["outcome"] = {k: v for k, v in out["outcome"].items() if k != "timings"}
    return out


def read_summary_rows(path) -> dict[int, list[str]]:
    """Rows of a summary CSV keyed by n; empty when the file does not exist.

    Raises ValueError when the file has another header or a row whose n is
    not an integer.
    """
    path = Path(path)
    rows: dict[int, list[str]] = {}
    if path.exists():
        with path.open(newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is not None and header != SUMMARY_HEADER:
                raise ValueError(f"unexpected summary header: {header}")
            for rec in reader:
                if rec:
                    rows[int(rec[0])] = rec
    return rows


def upsert_summary_row(
    path, n: int, ps: PointSet, params: CoverParams, outcome: CoverOutcome
) -> None:
    """Write the run's row, in SUMMARY_HEADER order, replacing any row with the same n.

    Raises ValueError, leaving the file as it was, when read_summary_rows
    refuses the existing file.
    """
    path = Path(path)
    rows = read_summary_rows(path)
    rows[n] = [
        str(n),
        str(ps.size),
        str(outcome.counters["n_DD"]),
        str(outcome.counters["n_CC"]),
        f"{outcome.timings['phase1']:.6f}",
        f"{outcome.timings['cover_cap']:.6f}",
        f"{outcome.timings['total']:.6f}",
        f"{params.d:.17g}",
        outcome.status,
    ]
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_HEADER)
        for k in sorted(rows):
            writer.writerow(rows[k])


def sample_region_directions(region: Region, count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform (area-weighted) directions inside a polar rectangle, (count, 3)."""
    theta = rng.uniform(region.theta_min, region.theta_max, count)
    # Uniform on the sphere means sin(phi) uniform on [sin(phi_min), sin(phi_max)].
    z = rng.uniform(math.sin(region.phi_min), math.sin(region.phi_max), count)
    phi = np.arcsin(np.clip(z, -1.0, 1.0))
    cos_phi = np.cos(phi)
    return np.stack([cos_phi * np.cos(theta), cos_phi * np.sin(theta), np.sin(phi)], axis=1)


# Probes per block of the coverage test; sorted by z, a block meets few balls.
_AUDIT_BLOCK = 128
# Balls tested against a block at a time, so that an array of a block's distances
# holds at most 1 MB whatever the certificate.  A block meets at most about 1,500 of
# plain polar n=30's 8,218 balls; before Cover Cap balls inside phase-1 balls
# were dropped, it had 64k, and a block next to its equator met up to 28k,
# whose distances at once held 90 MB.
_AUDIT_BALLS = 1024
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
        hit = np.zeros(len(block), dtype=bool)
        for balls in np.split(near, range(_AUDIT_BALLS, len(near), _AUDIT_BALLS)):
            # chord distance probe->center <= radius, via squared norms
            d2 = np.sum(block * block, axis=1)[:, None] - 2.0 * block @ centers[balls].T + c2[balls]
            hit |= (d2 <= r2[balls]).any(axis=1)
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
    The coverage test holds the distances of one probe block to at most
    _AUDIT_BALLS balls at a time.
    Each probe's directed value is the engine's for that direction, bit for
    bit, and `directed_values` holds at most 128,000 bytes of projections at a time.
    """
    if outcome.status == "counterexample":
        raise ValueError("audit requires a certificate, not a counterexample")
    rng = np.random.default_rng(seed)
    probes = sample_region_directions(params.region, probe_count, rng)

    uncovered = _uncovered_count(probes, outcome.records.center, outcome.records.radius)

    over_bound = int((directed_values(ps.points, probes) > params.d).sum())
    return {
        "probes": probe_count,
        "uncovered": uncovered,
        "over_bound": over_bound,
    }
