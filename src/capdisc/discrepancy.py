"""Directed discrepancy, confidence radii, and the brute-force cap oracle."""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import Cap
from .pointsets import PointSet


class HypothesisViolation(Exception):
    """A direction whose directed discrepancy is >= d - 1/t.

    Raised when the confidence-radius hypothesis fails; carries the witness
    direction and its directed value so a covering run can report it.
    """

    def __init__(self, direction: np.ndarray, directed_value: float, d: float):
        self.direction = direction
        self.directed_value = directed_value
        self.d = d
        super().__init__(
            f"directed discrepancy {directed_value:.6g} too close to the bound {d:.6g}"
        )


class SizeLimitExceeded(Exception):
    pass


@dataclass
class ProjectionProfile:
    direction: np.ndarray
    values: np.ndarray  # sorted ascending, length t

    @property
    def size(self) -> int:
        return len(self.values)


@dataclass
class DirectedResult:
    direction: np.ndarray
    value: float
    witness_height: float
    witness_inclusive: bool


@dataclass
class ConfidenceBall:
    center: np.ndarray
    radius: float
    d: float
    k: int
    directed_value: float


def project(ps: PointSet, v: np.ndarray) -> ProjectionProfile:
    """Sorted projections <p, v> of every point onto the direction v."""
    v = np.asarray(v, dtype=float)
    vals = ps.points @ v
    vals.sort()
    return ProjectionProfile(v, vals)


@functools.lru_cache(maxsize=8)
def _cap_counts(t: int) -> np.ndarray:
    """Read-only (2, t) inclusive and exclusive cap fractions, (t - i)/t and (t - 1 - i)/t."""
    frac = np.arange(t, -1, -1) / t
    counts = np.stack([frac[:-1], frac[1:]])
    counts.flags.writeable = False
    return counts


def _sweep(s: np.ndarray) -> np.ndarray:
    """|count/t - area| at every sorted projection, both cap conventions.

    `s` holds projections sorted along axis 0, shape (t,) or (t, m).  At
    h = s_i the boundary-inclusive cap holds t - i points and the exclusive
    one t - 1 - i; the result stacks the two on a new leading axis.  The
    area term is monotone between projection values, so the supremum over
    all heights is attained among these candidates.  Inside a run of tied
    values the counts are intermediate, and since rounding is monotone
    their deviations never exceed those of the legitimate counts at the
    ends of the run, so the maximum needs no tie handling.
    """
    t = s.shape[0]
    counts = _cap_counts(t).reshape((2, t) + (1,) * (s.ndim - 1))
    return np.abs(counts - (1.0 - s) / 2.0)


def directed_discrepancy(profile: ProjectionProfile) -> DirectedResult:
    """Supremum over cap heights of |count/t - area| along one direction.

    The witness is tie-aware: an inclusive count is taken only at the first
    of tied projections and an exclusive one only at the last, so the
    witness cap holds exactly the count its value was computed from.
    Masking the other candidates leaves the maximum unchanged (see _sweep).
    """
    s = profile.values
    dev = _sweep(s)
    tied = s[1:] == s[:-1]
    dev[0, 1:][tied] = -1.0
    dev[1, :-1][tied] = -1.0
    kind, i = divmod(int(np.argmax(dev)), len(s))
    return DirectedResult(profile.direction, float(dev[kind, i]), float(s[i]), kind == 0)


def directed_values(points: np.ndarray, directions: np.ndarray, chunk: int = 4096) -> np.ndarray:
    """Vectorized directed-discrepancy values for many directions.

    A block is projected with one matrix product, which can round unlike the
    matrix-vector product of `project`, so a value can differ by ulps from
    the engine's value for the same direction.
    """
    points = np.asarray(points, dtype=float)
    directions = np.asarray(directions, dtype=float)
    out = np.empty(directions.shape[0])
    for lo in range(0, directions.shape[0], chunk):
        block = directions[lo : lo + chunk]
        s = np.sort(points @ block.T, axis=0)
        out[lo : lo + block.shape[0]] = _sweep(s).max(axis=(0, 1))
    return out


def slab_min_width(profile: ProjectionProfile, k: int) -> float:
    """min over i of s_{i+k} - s_i; 2 when no slab can hold k+1 projections."""
    s = profile.values
    t = len(s)
    if k > t - 1:
        return 2.0
    return float((s[k:] - s[: t - k]).min())


def confidence_radius(profile: ProjectionProfile, d: float) -> ConfidenceBall:
    """Radius around the profile's direction inside which Dis <= d.

    Requires the hypothesis Dis_v + 1/t <= d; otherwise raises
    HypothesisViolation carrying the witness direction.
    """
    t = profile.size
    # _sweep(s).max() without its (2, t) temporary: incl >= excl and rounding
    # is monotone, so the larger deviation at s_i is incl - area or
    # area - excl, and IEEE subtraction is exact under negation.
    incl, excl = _cap_counts(t)
    area = (1.0 - profile.values) / 2.0
    dis = float(max((incl - area).max(), (area - excl).max()))
    if dis + 1.0 / t > d + 1e-15:
        raise HypothesisViolation(profile.direction, dis, d)
    k = int(math.floor(t * (d - dis))) + 1
    return ConfidenceBall(profile.direction, slab_min_width(profile, k), d, k, dis)


def _candidate_axes(points: np.ndarray) -> np.ndarray:
    """Axes of potentially extremal caps: points, pair bisectors, triple planes."""
    t = len(points)
    axes = [points]
    # pairs: axis through the midpoint, the minimal cap pinned by both points
    iu, ju = np.triu_indices(t, k=1)
    mids = points[iu] + points[ju]
    norms = np.linalg.norm(mids, axis=1)
    keep = norms > 1e-12
    axes.append(mids[keep] / norms[keep, None])
    # triples: normal of the plane through the three points
    tri = []
    for i in range(t - 2):
        for j in range(i + 1, t - 1):
            e1 = points[j] - points[i]
            cr = np.cross(e1, points[j + 1 :] - points[i])
            nn = np.linalg.norm(cr, axis=1)
            ok = nn > 1e-12
            if ok.any():
                tri.append(cr[ok] / nn[ok, None])
    if tri:
        axes.append(np.vstack(tri))
    return np.vstack(axes)


def naive_discrepancy(ps: PointSet, limit: int = 400) -> tuple[float, Cap]:
    """Exact cap discrepancy by enumerating extremal-cap axes. O(t^4) cost.

    Every locally extremal cap has its boundary pinned by up to three points;
    sweeping all heights along each candidate axis therefore dominates the
    supremum and attains it.
    """
    t = ps.size
    if t > limit:
        raise SizeLimitExceeded(f"t={t} exceeds the naive-oracle limit {limit}")
    axes = _candidate_axes(ps.points)
    vals = directed_values(ps.points, axes)
    best = int(np.argmax(vals))
    res = directed_discrepancy(project(ps, axes[best]))
    return res.value, Cap(axes[best], res.witness_height)
