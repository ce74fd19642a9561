"""Primitives on the unit sphere: directions, caps, polar angles, cap covering.

All distances are chordal (Euclidean norm in R^3), never geodesic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Construction rejects inputs further than this from unit norm; anything
# closer is renormalized so downstream code can rely on 1e-12 accuracy.
UNIT_REJECT_TOL = 1e-6

SQRT2 = math.sqrt(2.0)


def unit_vector(x: float, y: float, z: float) -> np.ndarray:
    """Validated unit vector. Rejects norms off by more than 1e-6."""
    v = np.array([x, y, z], dtype=float)
    n = float(np.linalg.norm(v))
    if abs(n - 1.0) > UNIT_REJECT_TOL:
        raise ValueError(f"not a unit vector: norm = {n!r}")
    return v / n


def random_unit_vectors(rng: np.random.Generator, count: int) -> np.ndarray:
    """(count, 3) array of i.i.d. uniform directions."""
    z = rng.uniform(-1.0, 1.0, size=count)
    theta = rng.uniform(0.0, 2.0 * math.pi, size=count)
    rho = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    return np.column_stack([rho * np.cos(theta), rho * np.sin(theta), z])


@dataclass(frozen=True)
class PolarDirection:
    """Direction given as longitude theta in [0, 2pi) and latitude phi in [-pi/2, pi/2]."""

    theta: float
    phi: float


@dataclass(frozen=True)
class Cap:
    """Closed cap {x : <x, axis> >= height}."""

    axis: np.ndarray
    height: float


@dataclass(frozen=True)
class Region:
    """Polar rectangle of directions."""

    phi_min: float
    phi_max: float
    theta_min: float
    theta_max: float

    def __post_init__(self):
        if self.phi_min > self.phi_max or self.theta_min > self.theta_max:
            raise ValueError("region bounds out of order")


def polar_to_cartesian(d: PolarDirection) -> np.ndarray:
    ct, st = math.cos(d.theta), math.sin(d.theta)
    cp, sp = math.cos(d.phi), math.sin(d.phi)
    return np.array([cp * ct, cp * st, sp])


def cartesian_to_polar(v: np.ndarray) -> PolarDirection:
    """Inverse of polar_to_cartesian; theta = 0 by convention at the poles."""
    x, y, z = float(v[0]), float(v[1]), float(v[2])
    phi = math.asin(max(-1.0, min(1.0, z)))
    if x == 0.0 and y == 0.0:
        return PolarDirection(0.0, phi)
    theta = math.atan2(y, x)
    if theta < 0.0:
        theta += 2.0 * math.pi
    if theta >= 2.0 * math.pi:
        theta = 0.0
    return PolarDirection(theta, phi)


def chord_distance(u: np.ndarray, v: np.ndarray) -> float:
    return float(np.linalg.norm(np.asarray(u) - np.asarray(v)))


def orthonormal_frame(center: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic pair (e1, e2) completing `center` to a right-handed frame."""
    a = np.zeros(3)
    a[int(np.argmin(np.abs(center)))] = 1.0
    e1 = np.cross(center, a)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(center, e1)
    return e1, e2


def cover_cap_centers(center: np.ndarray, r: float) -> list[np.ndarray]:
    """Centers of 8 caps of radius r/2 that jointly cover the cap B(center, r).

    The first is `center` itself; the other 7 sit equally spaced on the circle
    at chord distance 0.86*r from it.  Valid for 0 < r <= sqrt(2).
    """
    if not 0.0 < r <= SQRT2 + 1e-12:
        raise ValueError(f"cap radius out of (0, sqrt(2)]: {r!r}")
    chord = 0.86 * r
    sin_lat = (2.0 - chord * chord) / 2.0
    cos_lat = math.sqrt(max(0.0, 1.0 - sin_lat * sin_lat))
    e1, e2 = orthonormal_frame(center)
    out = [np.asarray(center, dtype=float)]
    for k in range(7):
        ang = 2.0 * math.pi * k / 7.0
        out.append(cos_lat * (math.cos(ang) * e1 + math.sin(ang) * e2) + sin_lat * center)
    return out

