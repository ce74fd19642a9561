"""Analytic machinery for the Polar Coordinates structure.

Orbit sums drive an independent computation of the north-pole directed
discrepancy; the cuboid-diagonal construction yields a radius around the
pole inside which no cutting plane can meet two rings, which converts into
the phi_max used by the conjecture-check covering runs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .covering import CoverOutcome, CoverParams, cover_region
from .geometry import Region, phi_max_from_radius
from .pointsets import PointSet, generate_polar, generate_twisted_polar, polar_orbits

SQRT3 = math.sqrt(3.0)
NORTH_BOUND_CONSTANT = SQRT3 / 2.0 + 4.0


@dataclass
class OrbitSums:
    n: int
    sums: list[int]  # S_j for j = 0..n; S_0 = t, S_n = 1 (the north pole)
    t: int


@dataclass
class NorthPoleCertificate:
    n: int
    north_value: float
    phi_max: float
    bound_constant_check: float  # north_value * t / n, must be <= sqrt(3)/2 + 4


def _closed_form_sum(n: int, j: int) -> float:
    half = math.pi / (2 * n)
    return SQRT3 * n * (math.cos(half) + math.cos((2 * j - 1) * half)) / (2 * math.sin(half))


def orbit_sums(n: int) -> OrbitSums:
    """Exact counts of points on or above each ring, checked against the closed form."""
    counts = [orb.count for orb in polar_orbits(n)]  # rings j = 1..n-1
    t = 2 + sum(counts)
    sums = [0] * (n + 1)
    sums[n] = 1
    for j in range(n - 1, 0, -1):
        sums[j] = sums[j + 1] + counts[j - 1]
    sums[0] = sums[1] + 1
    assert sums[0] == t
    for j in range(1, n):
        if abs(sums[j] - (_closed_form_sum(n, j) + 1)) > 2 * n:
            raise AssertionError(f"orbit sum S_{j} strays from its closed form at n={n}")
    return OrbitSums(n, sums, t)


def north_pole_directed(n: int) -> float:
    """Directed discrepancy of polar(n) at (0, 0, 1) via ring counts.

    Independent of the generic projection path: candidate heights are the
    ring latitudes and the poles, with boundary points counted both in and out.
    """
    sums = orbit_sums(n)
    t = sums.t
    best = 0.0
    # height z = sin(phi_j) = -cos(pi*j/n); area above = (1 - z)/2
    heights = [(-1.0, t, t - 1)]  # (z, inclusive count, exclusive count)
    layout = polar_orbits(n)
    for j in range(1, n):
        z = math.sin(layout[j - 1].phi)
        heights.append((z, sums.sums[j], sums.sums[j + 1]))
    heights.append((1.0, 1, 0))
    for z, incl, excl in heights:
        area = (1.0 - z) / 2.0
        best = max(best, abs(incl / t - area), abs(excl / t - area))
    return best


def north_pole_local_radius(n: int) -> float:
    """Chord radius around the pole inside which a plane meets at most one ring.

    For consecutive rings at heights 0 <= z1 < z2 (pole included as z = 1),
    the critical plane is the diagonal of the cuboid whose square face
    circumscribes the lower ring; its normal is (0, -(z2 - z1), 2*rho1) up to
    normalization.  The answer is the minimum chord distance of these normals
    to (0, 0, 1).
    """
    zs = [math.sin(orb.phi) for orb in polar_orbits(n) if orb.phi >= 0.0]
    zs.append(1.0)
    best = 2.0
    for z1, z2 in zip(zs, zs[1:]):
        rho1 = math.sqrt(max(0.0, 1.0 - z1 * z1))
        a, b = z2 - z1, 2.0 * rho1
        norm = math.hypot(a, b)
        # chord from (0, -a, b)/norm to (0, 0, 1)
        chord = math.sqrt(max(0.0, 2.0 - 2.0 * b / norm))
        best = min(best, chord)
    return best


def conjecture_setup(n: int, structure: str = "twisted") -> tuple[PointSet, CoverParams]:
    """Point set and covering parameters of the north-pole check for this n.

    Sets d to the north-pole value and converts the local-radius lemma into
    phi_max; the region is [0, phi_max] x [0, pi].  Directions v and -v have
    the same discrepancy, and both structures map onto themselves under z ->
    -z (to within 5e-16 a point), so the half-turn about the z-axis keeps
    discrepancy too: with the lemma for latitudes above phi_max, the region
    accounts for the whole sphere.  It is closed under theta -> pi - theta,
    and the plain polar sets also map onto themselves under the half-turn
    about the x-axis, so `cover_region` walks half of it for them and
    certifies the rest with mirror images; the twisted sets have no such map.
    """
    if structure == "twisted":
        ps = generate_twisted_polar(n)
    elif structure == "polar":
        ps = generate_polar(n)
    else:
        raise ValueError(f"unknown structure {structure!r}")
    d = north_pole_directed(n)
    phi_max = phi_max_from_radius(north_pole_local_radius(n))
    # Depth 12 instead of the engine default: directions adjacent to the
    # equator have legitimately tiny (but positive) confidence radii because
    # the reflection symmetries of the structure double their projections, and
    # at a few isolated longitudes extra projection coincidences crater the
    # radii to ~1e-5; the Cover Cap recursion needs several extra halvings
    # (plus the swallow rescue) to reach them.
    params = CoverParams(
        d=d,
        region=Region(0.0, phi_max, 0.0, math.pi),
        cover_cap_max_depth=12,
    )
    return ps, params


def conjecture_check(
    n: int, structure: str = "twisted"
) -> tuple[CoverOutcome, NorthPoleCertificate]:
    """Machine check that the north pole maximizes directed discrepancy for this n.

    Covers the region of `conjecture_setup(n, structure)` with d set to the
    north-pole value.
    """
    ps, params = conjecture_setup(n, structure)
    outcome = cover_region(ps, params)
    cert = NorthPoleCertificate(
        n=n,
        north_value=params.d,
        phi_max=params.region.phi_max,
        bound_constant_check=params.d * ps.size / n,
    )
    return outcome, cert
