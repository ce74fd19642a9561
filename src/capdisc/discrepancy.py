"""Directed discrepancy, confidence radii, and the brute-force cap oracle."""
from __future__ import annotations

import functools
import math
from itertools import groupby
from dataclasses import dataclass

import numpy as np

from .geometry import Cap
from .pointsets import PointSet


class HypothesisViolation(Exception):
    """A direction whose directed discrepancy Dis has Dis + 1/t > d.

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

    def __reduce__(self):
        # Exception pickles self.args, the message alone.  No violation crosses
        # the cover child's pipe (a walk returns a DirectedResult, the kernel a
        # nan radius); this keeps the exception picklable for callers.
        return type(self), (self.direction, self.directed_value, self.d)


class SizeLimitExceeded(Exception):
    pass


@dataclass
class ProjectionProfile:
    direction: np.ndarray
    values: np.ndarray  # sorted ascending, length t


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
    """Read-only (2, t) doubled cap fractions 2(t - i)/t and 2(t - 1 - i)/t, incl. and excl."""
    frac = 2.0 * (np.arange(t, -1, -1) / t)
    counts = np.stack([frac[:-1], frac[1:]])
    counts.flags.writeable = False
    return counts


def directed_discrepancy(profile: ProjectionProfile) -> DirectedResult:
    """Supremum over cap heights of |count/t - area| along one direction.

    The witness is tie-aware: an inclusive count is taken only at the first
    of tied projections and an exclusive one only at the last, so the
    witness cap holds exactly the count its value was computed from.
    Masking the other candidates leaves the maximum unchanged (see _dis),
    and so does taking `_dis`'s signed deviations: a negative one is
    strictly below the other count's in its run of ties, which is positive
    (the run's inclusive count at its first value exceeds its exclusive
    count at its last), so the maximum and its first index are those of
    |count/t - area|.
    """
    s = profile.values
    counts, twice_area = _cap_counts(len(s)), 1.0 - s
    dev = np.stack((counts[0] - twice_area, twice_area - counts[1]))
    tied = s[1:] == s[:-1]
    dev[0, 1:][tied] = -math.inf
    dev[1, :-1][tied] = -math.inf
    kind, i = divmod(int(np.argmax(dev)), len(s))
    return DirectedResult(profile.direction, float(dev[kind, i]) * 0.5, float(s[i]), kind == 0)


# The ufunc reductions behind ndarray.max/min, called directly: the methods
# add a Python-level call on every evaluation.
_max = np.maximum.reduce
_min = np.minimum.reduce


def _slab_width(s: np.ndarray, k: int):
    """min over i of s_{i+k} - s_i; 2 when no slab can hold k+1 projections.

    One sorted row `s`, shape (t,), gives a float; a block of rows sharing
    k, shape (m, t), gives a list of m widths.
    """
    t = s.shape[-1]
    if k > t - 1:
        return 2.0 if s.ndim == 1 else [2.0] * len(s)
    if s.ndim == 1:
        return float(_min(s[k:] - s[: t - k]))
    return _min(s[:, k:] - s[:, : t - k], axis=1).tolist()


# A batch runs in blocks of 128,000 bytes at most: 36 rows at t = 441, 16
# at t = 994, 2 at t = 7,057.  glibc maps a request of 128 KiB (131,072
# bytes) or more on its own, faulted in and unmapped on every call (an
# unblocked 8-row call at t = 7,057 took 189 minor faults and 1.2 ms, the
# blocked one none and 0.7 ms), so a block, and each temporary of `_dis`
# and `_slab_width`, which is one block at most, stays strictly below that,
# as exactly 128 KiB would not for a power-of-two t.  Against 64 KB blocks
# a row costs the same (BENCH_18.json, scripts/kernel_bench.py).
_CHUNK_BYTES = 128_000


def _sorted_blocks(points: np.ndarray, directions: np.ndarray):
    """Yield (first row, (m, t) projections sorted along axis 1) per block of rows.

    The rows go in as a stack of (3, 1) columns, so numpy runs the
    matrix-vector product of `project` on each and every row equals
    `project`'s values bit for bit; a matrix product over the block rounds
    differently.  A block holds `_CHUNK_BYTES` at most, and one row at least.
    """
    directions = np.ascontiguousarray(directions, dtype=float)
    rows = max(1, _CHUNK_BYTES // (8 * len(points)))
    for lo in range(0, len(directions), rows):
        s = np.matmul(points, directions[lo : lo + rows, :, None])[..., 0]
        s.sort(axis=1)
        yield lo, s


def _dis(s: np.ndarray):
    """Directed discrepancy of each row of sorted projections `s`, (t,) or (m, t).

    At h = s_i the boundary-inclusive cap holds t - i points and the
    exclusive one t - 1 - i; the area term is monotone between projection
    values, so the supremum over all heights is attained among these
    candidates.  Inside a run of tied values the counts are intermediate,
    and since rounding is monotone their deviations never exceed those of
    the legitimate counts at the ends of the run, so the maximum needs no
    tie handling.  incl >= excl, so the larger deviation at s_i is
    incl - area or area - excl, and IEEE subtraction is exact under
    negation.  Both are taken doubled, against 2 area = 1 - s, and the
    maximum halved: doubling commutes with rounding, so these are the bits
    of halving 1 - s first.
    """
    counts = _cap_counts(s.shape[-1])  # indexed: unpacking costs about 0.6 us
    twice_area = 1.0 - s
    dev = counts[0] - twice_area
    np.subtract(twice_area, counts[1], out=twice_area)
    np.maximum(dev, twice_area, out=dev)
    return _max(dev, axis=-1) * 0.5


def _radii(s: np.ndarray, d: float) -> tuple[list[float], list[int], list[float]]:
    """Dis, k and confidence radius of each row of sorted projections `s`.

    `s` is one row, shape (t,), or a block of rows, shape (m, t), sorted
    along its last axis.  A row with Dis + 1/t > d breaks the radius
    hypothesis: k 0, radius nan.
    """
    t = s.shape[-1]
    # No slack on d: one would grant radii to rows that break the hypothesis.
    if s.ndim == 1:  # scalar: a (1, t) block costs about 4 us more at t = 441, on every ring ball
        dis = float(_dis(s))
        k = 0 if dis + 1.0 / t > d else int(math.floor(t * (d - dis))) + 1
        return [dis], [k], [_slab_width(s, k) if k else math.nan]
    dis = _dis(s).tolist()
    ks = [0 if x + 1.0 / t > d else int(math.floor(t * (d - x))) + 1 for x in dis]
    # Neighbouring rows of a Cover Cap block mostly share k (on plain polar
    # n = 30, 94% of block rows lie in whole 8-row chunks of one k), so each
    # run of them is reduced at once.
    radii: list[float] = []
    for k, run in groupby(ks):
        lo, n = len(radii), len(list(run))
        radii += _slab_width(s[lo : lo + n], k) if k else [math.nan] * n
    return dis, ks, radii


def confidence_radius(profile: ProjectionProfile, d: float) -> ConfidenceBall:
    """Radius around the profile's direction inside which Dis <= d.

    Requires the hypothesis Dis_v + 1/t <= d; otherwise raises
    HypothesisViolation carrying the witness direction.
    """
    (dis,), (k,), (radius,) = _radii(profile.values, d)
    if not k:
        raise HypothesisViolation(profile.direction, dis, d)
    return ConfidenceBall(profile.direction, radius, d, k, dis)


def confidence_radii(points: np.ndarray, directions: np.ndarray, d: float) -> tuple[np.ndarray, np.ndarray]:
    """Dis and confidence radius for every row of `directions`, in one call.

    Every value equals `confidence_radius(project(ps, v), d)` bit for bit.
    A row that breaks the hypothesis Dis + 1/t <= d raises nothing: its
    radius is nan.  The rows run in the blocks of `_sorted_blocks`.  One
    direction of shape (3,) is one row, projected and sorted as `project`
    does: it gives the two values as floats.
    """
    if directions.ndim == 1:
        s = points @ directions
        s.sort()
        (dis,), _, (radius,) = _radii(s, d)
        return dis, radius
    dis = np.empty(len(directions))
    radius = np.empty(len(directions))
    for lo, s in _sorted_blocks(points, directions):
        rows = slice(lo, lo + len(s))
        dis[rows], _, radius[rows] = _radii(s, d)
    return dis, radius


def directed_values(points: np.ndarray, directions: np.ndarray) -> np.ndarray:
    """Directed discrepancy of every row of `directions`, in one call.

    Projects and sweeps in the blocks of `confidence_radii`, so every value
    equals `confidence_radius(project(ps, v), d).directed_value` bit for bit.
    """
    out = np.empty(len(directions))
    for lo, s in _sorted_blocks(points, directions):
        out[lo : lo + len(s)] = _dis(s)
    return out


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
