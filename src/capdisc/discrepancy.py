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
def _even_heights(t: int, dtype=np.float64) -> np.ndarray:
    """Read-only (t,) middles m_i = (2i + 1 - t)/t of t equal slabs of [-1, 1], in `dtype`.

    2i + 1 - t and t are exact in `dtype` (t < 2**24), so one division rounds each m_i once.
    """
    m = (2 * np.arange(t) + 1 - t).astype(dtype) / dtype(t)
    m.flags.writeable = False
    return m


def directed_discrepancy(profile: ProjectionProfile) -> DirectedResult:
    """Supremum over cap heights of |count/t - area| along one direction.

    The witness is tie-aware: an inclusive count is taken only at the first
    of tied projections and an exclusive one only at the last, so the
    witness cap holds exactly the count its value was computed from.  At
    s_i the signed deviation x_i = s_i - m_i is the inclusive count's, -x_i
    the exclusive one's (see _dis).  Masking the other candidates leaves the
    maximum that of |x| unchanged: in a run of ties at h from index a to b,
    m is non-decreasing, so h - m_a and m_b - h are the largest of the run's
    x and -x.  The value has the bits of `_dis`.
    """
    s = profile.values
    t = len(s)
    x = s - _even_heights(t, s.dtype.type)
    dev = np.stack((x, -x))
    tied = s[1:] == s[:-1]
    dev[0, 1:][tied] = -math.inf
    dev[1, :-1][tied] = -math.inf
    kind, i = divmod(int(np.argmax(dev)), t)
    return DirectedResult(profile.direction, (float(dev[kind, i]) + 1.0 / t) * 0.5, float(s[i]), kind == 0)


# The ufunc reductions behind ndarray.max/min, called directly: the methods
# add a Python-level call on every evaluation.
_max = np.maximum.reduce
_min = np.minimum.reduce


def _slab_width(s: np.ndarray, k: int) -> list[float]:
    """min over i of s_{i+k} - s_i of each row of a sorted (m, t) block; 2 where no slab holds k+1."""
    t = s.shape[1]
    if k > t - 1:
        return [2.0] * len(s)
    return _min(s[:, k:] - s[:, : t - k], axis=1).tolist()


# A batch runs in blocks of 128,000 bytes at most: 36 rows at t = 441, 16
# at t = 994, 2 at t = 7,057, twice as many in float32.  glibc maps a request
# of 128 KiB (131,072 bytes) or more on its own, faulted in and unmapped on
# every call (an unblocked 8-row call at t = 7,057 took 189 minor faults and
# 1.2 ms, the blocked one none and 0.7 ms), so a block, and each temporary of
# `_dis` and `_slab_width`, which is one block at most, stays strictly below
# that, as exactly 128 KiB would not for a power-of-two t.  Against 64 KB
# blocks a row costs the same (BENCH_18.json, scripts/kernel_bench.py).
_CHUNK_BYTES = 128_000


def _sorted_blocks(points: np.ndarray, directions: np.ndarray):
    """Yield (first row, (m, t) projections sorted along axis 1) per block of rows.

    The rows go in as a stack of (3, 1) columns, so numpy runs the
    matrix-vector product of `project` on each and every row equals
    `project`'s values bit for bit; a matrix product over the block rounds
    differently.  A block holds `_CHUNK_BYTES` at most, and one row at least.
    The directions are rounded to the dtype of `points`, as the rows of
    `_bounded_radii` are.
    """
    directions = np.ascontiguousarray(directions, dtype=points.dtype)
    rows = max(1, _CHUNK_BYTES // (points.itemsize * len(points)))
    for lo in range(0, len(directions), rows):
        s = np.matmul(points, directions[lo : lo + rows, :, None])[..., 0]
        s.sort(axis=1)
        yield lo, s


def _dis(s: np.ndarray):
    """Directed discrepancy of each row of sorted projections `s`, (t,) or (m, t).

    At h = s_i the boundary-inclusive cap holds t - i points and the
    exclusive one t - 1 - i; the area term is monotone between projection
    values, so the supremum over all heights is attained among these
    candidates.  incl >= excl, so the larger deviation at s_i is
    incl - area or area - excl.  Doubled, against 2 area = 1 - s and with
    m_i = (2i + 1 - t)/t (`_even_heights`), they are (s_i - m_i) + 1/t and
    1/t - (s_i - m_i), so

        Dis = (max_i |s_i - m_i| + 1/t) / 2.

    Inside a run of tied values the counts are intermediate, and since the
    rounded m is non-decreasing their deviations never exceed those of the
    legitimate counts at the ends of the run, so the maximum needs no tie
    handling.  The maximum is taken in the dtype of `s`, 1/t added and the
    sum halved in float64; the rounding of a float32 row is bounded at
    `_DIS_SLACK32`.
    """
    t = s.shape[-1]
    x = s - _even_heights(t, s.dtype.type)
    np.abs(x, out=x)
    return (_max(x, axis=-1) + np.float64(1.0 / t)) * 0.5  # a Python float would keep a float32 sum


def _radii(s: np.ndarray, d: float) -> tuple[list[float], list[int], list[float]]:
    """Dis, k and confidence radius of each row of a block of sorted projections `s`, (m, t).

    A row with Dis + 1/t > d breaks the radius hypothesis: k 0, radius nan.
    """
    t = s.shape[1]
    # No slack on d: one would grant radii to rows that break the hypothesis.
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
    (dis,), (k,), (radius,) = _radii(profile.values[None], d)
    if not k:
        raise HypothesisViolation(profile.direction, dis, d)
    return ConfidenceBall(profile.direction, radius, d, k, dis)


def confidence_radii(points: np.ndarray, directions: np.ndarray, d: float) -> tuple[np.ndarray, np.ndarray]:
    """Dis and confidence radius for every row of `directions`, in one call.

    Every value equals `confidence_radius(project(ps, v), d)` bit for bit.
    A row that breaks the hypothesis Dis + 1/t <= d raises nothing: its
    radius is nan.  The (m, 3) rows run in the blocks of `_sorted_blocks`.
    """
    dis = np.empty(len(directions))
    radius = np.empty(len(directions))
    for lo, s in _sorted_blocks(points, directions):
        rows = slice(lo, lo + len(s))
        dis[rows], _, radius[rows] = _radii(s, d)
    return dis, radius


# Phase 1's float32 kernel, `_bounded_radii`.  u is float32's unit roundoff.
# Rows of a point set are unit vectors to a few ulps (the generators and
# read_point_set normalise them), and polar_to_cartesian's directions lie
# within 5 * 2**-53 of the sphere (sin and cos within an ulp), so every row p
# and direction v has norm at most 1 + 2**-50.  Then the float32 projection
# fl32(<fl32(p), fl32(v)>) lies within _ETA32 of the exact <p, v> of the
# float64 inputs (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
# ed., section 3.1):
#   - rounding p and v to float32 moves each product p_i v_i by at most
#     (2u + u^2) |p_i v_i|;
#   - a 3-term float32 dot product, in any order and with or without FMA, errs
#     by at most gamma_3 sum |fl32(p_i) fl32(v_i)| <= gamma_3 (1 + u)^2 sum
#     |p_i v_i|, with gamma_3 = 3u / (1 - 3u);
#   - sum |p_i v_i| <= |p| |v| <= (1 + 2**-50)^2;
#   - underflow, in the rounding of tiny components or products, adds less
#     than 2**-145.
# In all 5u + 16u^2 + O(u^3) <= 5u (1 + 4u) = _ETA32, about 2.98e-7.  Sorting
# keeps every order statistic within _ETA32 of the exact one.
_U32 = 2.0**-24
_ETA32 = 5.0 * _U32 * (1.0 + 4.0 * _U32)
# Each candidate deviation of `_dis` moves by half its projection's move, so
# the exact Dis exceeds the exact sweep of the float32 order statistics by
# _ETA32 / 2 at most.  The float32 sweep rounds each height m_i once, by u at
# most, and takes one float32 difference s_i - m_i, below 2 + 6u in magnitude,
# so max |s - m| errs by 3u (1 + 2u); adding 1/t to it in float64, below 4,
# rounds by 2**-52, so the swept Dis errs by 1.5u (1 + 2u) + 2**-53 once
# halved.  The further 1.5u of _DIS_SLACK32, less 3u^2 + 2**-53, is far above
# the float64 rounding of Dis + slack, of Dis + 1/t and of t (d - Dis), so
# the hypothesis test and k = floor(t (d - Dis)) + 1, taken from the bound,
# never pass where the exact Dis fails nor exceed the exact k.
_DIS_SLACK32 = _ETA32 / 2.0 + 3.0 * _U32
# A float32 difference w of two float32 order statistics is at most (1 + u)
# times the exact one, which is at least w (1 - u); the exact projections'
# is 2 _ETA32 less at most; 2**-50 covers the float64 rounding of the two
# operations on values below 2.
_RADIUS_SLACK32 = 2.0 * _ETA32 + 2.0**-50


def _bounded_radii(points32: np.ndarray, points: np.ndarray, directions: np.ndarray, d: float):
    """A sound upper bound on Dis and lower bound on the confidence radius of each direction.

    `points32` is `points` rounded to float32; each direction is projected
    onto it, sorted and swept in float32.  The Dis reported is that sweep
    plus _DIS_SLACK32, at least the exact Dis of the float64 inputs; k is
    taken from it, so it is at most the exact k; and the radius is the
    float32 k-slab width w as w (1 - u) - _RADIUS_SLACK32, clamped at 0, at
    most the exact k-slab width, which grows with k (see _ETA32).  A row whose
    bound breaks the hypothesis Dis + 1/t <= d is evaluated again by
    `confidence_radii`, whose values it gets bit for bit, so only the float64
    kernel finds a row that breaks it (radius nan).  One direction of shape
    (3,) gives two floats, a stack (m, 3) two arrays, each row as alone: the
    stack is projected, sorted and swept in the float32 blocks of
    `_sorted_blocks`, whose rows have the bits of one direction's.
    """
    if directions.ndim == 1:  # a ring ball: 14.8 us alone, 23.7 us as a stack of one (t = 441, 2 shared CPUs)
        s = points32 @ directions.astype(np.float32)
        s.sort()
        return _bounded_row(s, float(_dis(s)), points, directions, d)
    dis = np.empty(len(directions))
    radius = np.empty(len(directions))
    for lo, s in _sorted_blocks(points32, directions):
        for i, row, swept in zip(range(lo, lo + len(s)), s, _dis(s).tolist()):
            dis[i], radius[i] = _bounded_row(row, swept, points, directions[i], d)
    return dis, radius


def _bounded_row(s: np.ndarray, swept: float, points: np.ndarray, v: np.ndarray, d: float):
    """`_bounded_radii`'s (Dis, radius) of direction v from its float32 row `s` and that row's `_dis`."""
    t = len(s)
    dis = swept + _DIS_SLACK32
    if dis + 1.0 / t > d:
        (dis,), (radius,) = confidence_radii(points, v[None], d)
        return float(dis), float(radius)
    k = int(math.floor(t * (d - dis))) + 1
    if k > t - 1:  # no slab holds k + 1 projections, nor one of the exact k
        return dis, 2.0
    return dis, max(float(_min(s[k:] - s[: t - k])) * (1.0 - _U32) - _RADIUS_SLACK32, 0.0)


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
