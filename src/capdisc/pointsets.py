"""Polar / Twisted Polar generators, uniform random points, CSV I/O."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .geometry import random_unit_vectors

SQRT3 = math.sqrt(3.0)


class PointFileError(Exception):
    """Base class for point-set file problems."""


class MalformedRowError(PointFileError):
    pass


class NonUnitPointError(PointFileError):
    pass


class EmptyPointSetError(PointFileError):
    pass


class DuplicatePointError(PointFileError):
    """Two rows hold the same point; coincident points stall the covering engine."""


@dataclass
class PointSetMeta:
    generator: str = "file"
    n: int | None = None
    seed: int | None = None


@dataclass
class PointSet:
    points: np.ndarray  # (t, 3), rows unit-norm
    meta: PointSetMeta = field(default_factory=PointSetMeta)

    @property
    def size(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class OrbitLayout:
    """One latitude ring of the Polar Coordinates structure."""

    index: int        # j in 1..n-1
    phi: float        # pi*j/n - pi/2
    count: int        # floor(1/2 + sqrt(3)*n*cos(phi))
    shift: float      # total longitude offset applied to the ring


def orbit_count(n: int, j: int) -> int:
    # Computed from min(j, n-j) so mirrored rings agree bit-for-bit; the
    # 1e-9 guard keeps analytically-integer values (e.g. n=15, j=5 -> 23)
    # from dropping a point to float noise.
    k = min(j, n - j)
    phi = math.pi * k / n - math.pi / 2.0
    return int(math.floor(0.5 + SQRT3 * n * math.cos(phi) + 1e-9))


def _base_shift(n: int, j: int, n_j: int) -> float:
    # Alternate rings get a half-step offset.  Parity is taken on
    # min(j, n - j) so that mirrored rings share their offset and the set
    # stays symmetric under z -> -z for odd n as well.
    k = min(j, n - j)
    return math.pi / n_j if k % 2 == 1 else 0.0


def _twist_shift(n: int, j: int, n_j: int) -> float:
    # Ring strictly above the equator gets (j/n)*(2*pi/n_j); rings below
    # mirror their partner above; an equatorial ring keeps shift 0.
    jm = max(j, n - j)
    if 2 * j == n:
        return 0.0
    return (jm / n) * (2.0 * math.pi / n_j)


def polar_orbits(n: int, twisted: bool = False) -> list[OrbitLayout]:
    if n < 2:
        raise ValueError(f"polar structure needs n >= 2, got {n}")
    out = []
    for j in range(1, n):
        phi = math.pi * j / n - math.pi / 2.0
        n_j = orbit_count(n, j)
        shift = _base_shift(n, j, n_j)
        if twisted:
            shift += _twist_shift(n, j, n_j)
        out.append(OrbitLayout(j, phi, n_j, shift))
    return out


def _assemble(n: int, twisted: bool) -> np.ndarray:
    rows = [np.array([0.0, 0.0, -1.0])]
    for orb in polar_orbits(n, twisted=twisted):
        theta = orb.shift + 2.0 * math.pi * np.arange(orb.count) / orb.count
        cp, sp = math.cos(orb.phi), math.sin(orb.phi)
        ring = np.column_stack(
            [cp * np.cos(theta), cp * np.sin(theta), np.full(orb.count, sp)]
        )
        rows.append(ring)
    rows.append(np.array([0.0, 0.0, 1.0]))
    return np.vstack([r.reshape(-1, 3) for r in rows])


def generate_polar(n: int) -> PointSet:
    """Polar Coordinates: two poles plus n-1 latitude rings."""
    return PointSet(_assemble(n, twisted=False), PointSetMeta("polar", n=n))


def generate_twisted_polar(n: int) -> PointSet:
    """Same rings as generate_polar with an extra per-ring longitude twist."""
    return PointSet(_assemble(n, twisted=True), PointSetMeta("twisted_polar", n=n))


def generate_random_uniform(t: int, seed: int) -> PointSet:
    if t < 1:
        raise ValueError(f"need at least one point, got t={t}")
    rng = np.random.default_rng(seed)
    return PointSet(random_unit_vectors(rng, t), PointSetMeta("random", n=t, seed=seed))


def write_point_set(ps: PointSet, path) -> None:
    lines = ["x,y,z"]
    for p in ps.points:
        lines.append(",".join(format(c, ".17g") for c in p))
    Path(path).write_text("\n".join(lines) + "\n")


def read_point_set(path) -> PointSet:
    text = Path(path).read_text()
    rows = []
    seen: dict[tuple, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if lineno == 1 and line.lower().replace(" ", "") == "x,y,z":
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise MalformedRowError(f"{path}:{lineno}: expected 3 fields, got {len(parts)}")
        try:
            v = np.array([float(c) for c in parts])
        except ValueError as exc:
            raise MalformedRowError(f"{path}:{lineno}: {exc}") from None
        norm = float(np.linalg.norm(v))
        if abs(norm - 1.0) > 1e-6:
            raise NonUnitPointError(f"{path}:{lineno}: norm {norm!r} is not 1")
        p = v / norm
        first = seen.setdefault(tuple(p), lineno)
        if first != lineno:
            raise DuplicatePointError(f"{path}:{lineno}: same point as line {first}")
        rows.append(p)
    if not rows:
        raise EmptyPointSetError(f"{path}: no points")
    return PointSet(np.array(rows), PointSetMeta("file"))
