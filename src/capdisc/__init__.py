"""Certified spherical cap discrepancy bounds via directional covering.

Public surface: point-set generators, directed discrepancy and confidence
radii, the latitude-sweep covering engine, north-pole analysis for the polar
structures, and report/CSV persistence.
"""
from .geometry import (
    Cap,
    PolarDirection,
    Region,
    cartesian_to_polar,
    chord_distance,
    cover_cap_centers,
    polar_to_cartesian,
    unit_vector,
)
from .pointsets import (
    PointSet,
    PointSetMeta,
    generate_polar,
    generate_random_uniform,
    generate_twisted_polar,
    read_point_set,
    write_point_set,
)
from .discrepancy import (
    ConfidenceBall,
    DirectedResult,
    HypothesisViolation,
    SizeLimitExceeded,
    confidence_radius,
    directed_discrepancy,
    directed_values,
    naive_discrepancy,
    project,
    slab_min_width,
)
from .covering import (
    CoverOutcome,
    CoverParams,
    CoverageRecord,
    cover_cap_recurse,
    cover_region,
    estimate_orbit_r_min,
    orbit_intersection_latitude,
    step_theta,
)
from .polar_analysis import (
    NorthPoleCertificate,
    OrbitSums,
    conjecture_check,
    conjecture_setup,
    north_pole_directed,
    north_pole_local_radius,
    orbit_sums,
    phi_max_from_radius,
)
from .reporting import (
    RunSummaryRow,
    audit_coverage,
    read_report,
    report_dict,
    strip_timings,
    upsert_summary_row,
    write_report,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
