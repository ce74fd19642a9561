"""Primitives on the unit sphere: directions, caps, polar angles, cap covering.

All distances are chordal (Euclidean norm in R^3), never geodesic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SQRT2 = math.sqrt(2.0)


def random_unit_vectors(rng: np.random.Generator, count: int) -> np.ndarray:
    """(count, 3) array of i.i.d. uniform directions."""
    z = rng.uniform(-1.0, 1.0, size=count)
    theta = rng.uniform(0.0, 2.0 * math.pi, size=count)
    rho = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    return np.column_stack([rho * np.cos(theta), rho * np.sin(theta), z])


@dataclass(frozen=True)
class Cap:
    """Closed cap {x : <x, axis> >= height}."""

    axis: np.ndarray
    height: float


@dataclass(frozen=True)
class Region:
    """Polar rectangle of directions: finite bounds, -pi/2 <= phi_min <= phi_max <= pi/2."""

    phi_min: float
    phi_max: float
    theta_min: float
    theta_max: float

    def __post_init__(self):
        bounds = (self.phi_min, self.phi_max, self.theta_min, self.theta_max)
        if not all(math.isfinite(b) for b in bounds):
            raise ValueError(f"region bounds must be finite: {bounds}")
        if not -math.pi / 2 <= self.phi_min <= self.phi_max <= math.pi / 2:
            raise ValueError("latitudes must satisfy -pi/2 <= phi_min <= phi_max <= pi/2")
        if self.theta_min > self.theta_max:
            raise ValueError("region bounds out of order")


def polar_to_cartesian(theta: float, phi: float) -> np.ndarray:
    """Unit vector at longitude theta and latitude phi in [-pi/2, pi/2]."""
    ct, st = math.cos(theta), math.sin(theta)
    cp, sp = math.cos(phi), math.sin(phi)
    return np.array([cp * ct, cp * st, sp])


def cartesian_to_polar(v: np.ndarray) -> tuple[float, float]:
    """(theta in [0, 2pi), phi), inverse of polar_to_cartesian; theta = 0 at the poles."""
    x, y, z = float(v[0]), float(v[1]), float(v[2])
    phi = math.asin(max(-1.0, min(1.0, z)))
    if x == 0.0 and y == 0.0:
        return 0.0, phi
    theta = math.atan2(y, x)
    if theta < 0.0:
        theta += 2.0 * math.pi
    if theta >= 2.0 * math.pi:
        theta = 0.0
    return theta, phi


def orthonormal_frame(center: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic (e1, e2) completing `center`, (3,) or (m, 3), to a right-handed frame."""
    c = np.asarray(center, dtype=float)
    a = np.eye(3)[np.argmin(np.abs(c), axis=-1)]  # the first smallest |component|, as np.argmin
    e1 = np.cross(c, a)
    e1 /= np.sqrt(np.vecdot(e1, e1))[..., None]  # sums as x.dot(x) and np.linalg.norm, bit for bit
    return e1, np.cross(c, e1)


# The 7 outer centers sit at longitudes 2*pi*k/7 around the frame.
_RING_COS = np.array([math.cos(2.0 * math.pi * k / 7.0) for k in range(7)])[:, None]
_RING_SIN = np.array([math.sin(2.0 * math.pi * k / 7.0) for k in range(7)])[:, None]


def cover_cap_centers(center: np.ndarray, r) -> np.ndarray:
    """(8, 3) centers of 8 caps of radius r/2 that jointly cover the cap B(center, r).

    The first is `center` itself; the other 7 sit equally spaced on the circle
    at chord distance 0.86*r from it.  Valid for 0 < r <= sqrt(2).  A stack
    of centers (m, 3) with radii (m,) gives (m, 8, 3), each block equal to
    its own one-center call bit for bit; a radius out of range raises
    ValueError naming the first such row.
    """
    r = np.asarray(r, dtype=float)
    bad = np.flatnonzero(~((0.0 < r) & (r <= SQRT2 + 1e-12)))  # also a nan
    if bad.size:
        row = f" in row {bad[0]}" if r.ndim else ""
        raise ValueError(f"cap radius out of (0, sqrt(2)]{row}: {r.flat[bad[0]].item()!r}")
    chord = 0.86 * r[..., None, None]
    sin_lat = (2.0 - chord * chord) / 2.0
    cos_lat = np.sqrt(np.maximum(0.0, 1.0 - sin_lat * sin_lat))
    center = np.asarray(center, dtype=float)[..., None, :]
    e1, e2 = orthonormal_frame(center)
    ring = cos_lat * (_RING_COS * e1 + _RING_SIN * e2) + sin_lat * center
    return np.concatenate((center, ring), axis=-2)
