"""Directional covering of a polar rectangle with confidence balls.

Phase 1 sweeps latitudes from phi_max downward, walking each ring in
increasing theta with steps sized by the local confidence radius, one call
a ball of the float32 kernel, whose Dis and radius bound the exact ones
(`discrepancy._bounded_radii`); a ring's band is located downward and only decided upward,
against the band already covered.  A ring whose r_min is 0 cannot step, so
phase 1 ends there and leaves the band below to one residual ball of chord
radius 2.  Directions whose radius falls below the ring minimum are queued;
phase 2 certifies them with the 8-cap Cover Cap construction, grown level by
level on the float64 kernel.  A tree node whose ball misses the region is
dropped before it is rescued or expanded, since the certificate claims only
the region; a Cover Cap ball inside a phase-1 ball is dropped after.

`cover_region` walks only half of a region closed under theta -> pi - theta
when the point set maps onto itself under the x-mirror or the half-turn
about the x-axis, and certifies the other half with the mirror images of
the walked half's balls (see its docstring for why they are sound).

Phase 1 walks a region that lies in one hemisphere, with positive height,
as two latitude bands split where its area halves (`_bands`): a child from
`os.fork` (`_Child`), forked before phase 1, walks the lower one while the
calling process walks the upper one, each exactly as a whole region, and
the cover joins the bands' tables, the upper band's first.  The child
sends its walk and exits; Cover Cap runs in the calling process alone.  So
the certificate is that of a serial walk of the bands, which the calling
process runs alone when no child can be forked, other threads are alive
or SIGCHLD is ignored.  A region that straddles the equator stays one
band, and forks nothing: a seam there would place a ring on the mirror
plane of z-symmetric point sets, a line of cratered radii.
"""
from __future__ import annotations

import contextlib
import math
import os
import pickle
import signal
import threading
import time
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from .discrepancy import DirectedResult, HypothesisViolation, _bounded_radii, confidence_radii
from .discrepancy import confidence_radius, project  # noqa: F401  capbench traces these sites
from .geometry import SQRT2, Region, cover_cap_centers, phi_max_from_radius, polar_to_cartesian
from .geometry import cartesian_to_polar  # noqa: F401  capbench traces this lookup site
from .pointsets import PointSet


class BallSpansOrbit(Exception):
    """The ball radius exceeds the latitude circle's diameter 2*cos(phi)."""


# Directions sampled on a ring to set its r_min, the share of their median
# radius that r_min is, and the margin of a ring's latitude (`next_latitude`).
ORBIT_SAMPLE_COUNT = 20
R_MIN_FACTOR = 0.5
BINARY_SEARCH_TOL = 1e-9


@dataclass
class CoverParams:
    d: float
    region: Region
    cover_cap_max_depth: int = 3

    def __post_init__(self):
        if not 0.0 < self.d <= 1.0:
            raise ValueError("bound d must lie in (0, 1]")
        depth = self.cover_cap_max_depth
        if not isinstance(depth, (int, np.integer)) or depth < 0:
            raise ValueError(f"cover_cap_max_depth must be an integer >= 0, got {depth!r}")


# A record's origin code i names the phase that certified it, ORIGINS[i].
ORIGINS = ("orbit", "cover_cap")
ORBIT, COVER_CAP = range(len(ORIGINS))


@dataclass(eq=False)
class CoverageRecords:
    """Certified balls B(center, radius), a row each; `center` holds the engine's own vectors."""

    center: np.ndarray
    radius: np.ndarray
    directed_value: np.ndarray
    origin: np.ndarray

    def __len__(self) -> int:
        return len(self.center)


@dataclass(eq=False)
class Residuals:
    """Balls B(center, required_radius) that were not certified, one row per ball."""

    center: np.ndarray
    required_radius: np.ndarray

    def __len__(self) -> int:
        return len(self.center)


@dataclass
class CoverOutcome:
    status: str  # "covered" | "counterexample" | "residual"
    records: CoverageRecords
    counterexample: DirectedResult | None
    not_covered: Residuals
    counters: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)


def step_theta(r: float, phi: float) -> float:
    """Longitude step putting the next center on the current ball's boundary."""
    c = math.cos(phi)
    if c <= 0.0 or r > 2.0 * c:
        raise BallSpansOrbit(f"radius {r!r} spans the latitude circle at phi={phi!r}")
    return 2.0 * math.asin(r / (2.0 * c))


def orbit_intersection_latitude(phi: float, r: float) -> float:
    """Latitude of the upper intersection of two adjacent equal balls on one ring.

    Centers sit at latitude phi separated by chord r, both with ball radius r.
    The intersection u satisfies <v1, u> = 1 - r^2/2 at longitude tau = d_theta/2.
    """
    tau = step_theta(r, phi) / 2.0
    a = math.cos(phi) * math.cos(tau)
    b = math.sin(phi)
    c = 1.0 - r * r / 2.0
    rad = math.hypot(a, b)
    x = max(-1.0, min(1.0, c / rad))
    return math.atan2(b, a) + math.acos(x)


def next_latitude(r_min: float, lowest_covered: float) -> float:
    """Latitude of the next ring below the band covered down to `lowest_covered`.

    The first guess, lowest_covered - acos(1 - r^2/4) - tol clamped at -pi/2,
    is taken when adjacent balls of radius r = r_min on its ring meet the
    band or span the ring.  Otherwise the ring goes tol above the lowest
    latitude whose balls meet the band.  While 2 cos(phi) >= r their upper
    intersection lies at asin(sin(phi) / m) + alpha, with m = sqrt(1 - r^2/4)
    and alpha = acos((1 - r^2/2) / m), so that latitude is
    asin(m sin(lowest_covered - alpha)), the sine's argument clamped at -pi/2.
    """
    tol, q = BINARY_SEARCH_TOL, r_min * r_min / 4.0
    guess = max(lowest_covered - math.acos(1.0 - q) - tol, -math.pi / 2)
    try:
        if orbit_intersection_latitude(guess, r_min) >= lowest_covered:
            return guess
    except BallSpansOrbit:
        return guess
    m = math.sqrt(1.0 - q)
    drop = lowest_covered - math.acos((1.0 - 2.0 * q) / m)
    return math.asin(m * math.sin(max(drop, -math.pi / 2))) + tol


COVER_CAP_COUNTERS = (
    "cover_cap_nodes",
    "cover_cap_levels",
    "rescue_tries",
    "rescue_hits",
    "cover_cap_pruned",
)


def cover_cap_recurse(evaluate, centers, required_r, depth: int, region: Region, own):
    """Certify each ball B(centers[i], required_r[i]) with a tree of half-radius balls.

    `centers` is an (m, 3) array and `required_r` an (m,) one.  `evaluate`
    maps an (m, 3) array of directions to arrays (directed_value, radius),
    the radius nan where the hypothesis Dis + 1/t <= d fails.  A node is
    first offered its _rescue_candidates in order: the first whose radius
    contains the whole node ball certifies it as one record.  Otherwise it
    evaluates its 8 `cover_cap_centers`; center 0 is its own direction,
    whose value a child takes from its parent.  `own`, an (m, 2) array of
    each seed's (directed_value, radius) from its phase-1 ring ball, gives
    the seeds' own values; a seed's own direction, at any level, is never
    recorded, since its phase-1 ball is a record already.  A center
    whose radius reaches half the node's requirement is a record, a shorter
    one a child node or, once `depth` levels are used up, a residual ball
    (direction, still-required radius).  The certificate claims only
    `region`: a seed or child whose ball B(direction, required radius)
    `region.misses` is dropped before it is a node, so it is never offered
    rescue, expanded, recorded or left as a residual.

    The trees grow level by level over all seeds at once: one kernel call
    per rescue round, then one for the centers.  Records and residuals are
    listed in the order settled.  The first call to return a nan radius
    ends growth: its first such row is the witness (direction,
    directed_value), and only the rows of earlier calls are kept.  Returns
    (witness or None, CoverageRecords of origin cover_cap, Residuals,
    counts): the COVER_CAP_COUNTERS are nodes rescued or expanded, levels
    grown, rescue candidates evaluated, nodes rescued and balls dropped as
    missing the region.
    """
    miss = region.misses(centers, required_r)
    counts = dict.fromkeys(COVER_CAP_COUNTERS, 0)
    counts["cover_cap_pruned"] = int(np.count_nonzero(miss))
    keep = ~miss
    v = centers[keep]
    # directions, required radii, own (dis, radius) rows, whether a node's own ball is recorded
    level = v, required_r[keep], own[keep], np.ones(len(v), dtype=bool)
    records = [(np.zeros((0, 3)), np.zeros(0), np.zeros(0))]  # (center, radius, dis) parts
    residual = [(np.zeros((0, 3)), np.zeros(0))]  # (center, required radius) parts
    witness, left = None, depth
    try:
        while len(level[0]):
            counts["cover_cap_levels"] += 1
            level = _settle_nodes(evaluate, *level, left, region, records, residual, counts)
            left -= 1
    except HypothesisViolation as exc:
        witness = exc.direction, exc.directed_value

    center, radius, dis = (np.concatenate(a) for a in zip(*records))
    records = CoverageRecords(center, radius, dis, np.full(len(dis), COVER_CAP, np.uint8))
    residual = Residuals(*(np.concatenate(a) for a in zip(*residual)))
    return witness, records, residual, counts


def _settle_nodes(evaluate, v, req, own, known, left: int, region, records, residual, counts):
    """Settle one level's nodes, appending their records and residuals; returns the next level.

    Raises HypothesisViolation, before it settles the rows of the call, at
    the first kernel call that returns a nan radius.
    """
    counts["cover_cap_nodes"] += len(v)
    rescued = np.zeros(len(v), dtype=bool)
    cand, reach = _rescue_candidates(v, req)
    for j in range(reach.shape[1]):
        todo = np.flatnonzero(~rescued & ~np.isnan(reach[:, j]))
        if not todo.size:
            continue
        u = cand[todo, j]
        counts["rescue_tries"] += len(todo)
        dis, r_u = _checked(evaluate, u)
        hit = r_u >= reach[todo, j]
        rescued[todo[hit]] = True
        records.append((u[hit], r_u[hit], dis[hit]))

    expand = np.flatnonzero(~rescued)
    counts["rescue_hits"] += len(v) - len(expand)
    if not expand.size:
        return v[:0], req[:0], None, known[:0]
    c = cover_cap_centers(v[expand], req[expand])
    # A node's center 0 is its own direction, already evaluated by its parent or phase 1.
    values = _checked(evaluate, c[:, 1:].reshape(-1, 3))
    dis, r_c = (np.column_stack((o, a.reshape(-1, 7))) for o, a in zip(own[expand].T, values))

    need = np.broadcast_to(req[expand, None] / 2.0, dis.shape)
    rec = r_c >= need
    seed = np.zeros(rec.shape, dtype=bool)
    seed[:, 0] = known[expand]  # a seed's own direction, whose phase-1 ball is a record
    new = rec & ~seed
    records.append((c[new], r_c[new], dis[new]))
    rest = ~rec
    miss = region.misses(c[rest], need[rest])  # a child dropped before it is a node or a residual
    counts["cover_cap_pruned"] += int(np.count_nonzero(miss))
    rest[rest] = ~miss
    if left > 0:
        return c[rest], need[rest], np.column_stack((dis[rest], r_c[rest])), seed[rest]
    residual.append((c[rest], need[rest]))
    return v[:0], req[:0], None, known[:0]


def _checked(evaluate, directions: np.ndarray):
    """evaluate(directions); raises HypothesisViolation at the first row whose radius is nan."""
    dis, radius = evaluate(directions)
    nan = np.flatnonzero(np.isnan(radius))
    if nan.size:
        raise HypothesisViolation(directions[nan[0]], float(dis[nan[0]]), math.nan)
    return dis, radius


# A ball B(c, r) counts as inside B(o, r_o) when the computed |c - o|^2 is at
# most (r_o - r - _INSIDE_MARGIN)^2.  With radii of at most 2 each side is
# rounded by less than 1e-15, so the test errs toward keeping a ball: a ball
# it passes has |c - o| + r <= r_o - 5e-13 exactly.
_INSIDE_MARGIN = 1e-12
# The smallest column side, which keeps the index keys below 2**25 (see
# _inside_test), so that each is rounded by less than 2e-9, and the widening
# of each key window, far above that rounding.
_INSIDE_CELL_MIN = 2.0**-10
_INSIDE_KEY_SLACK = 1e-7
# (ball, candidate) pairs tested at a time, plus the pairs of one ball: about
# 1 MB of temporaries.  Polar n=30's cover tests 104k pairs in all, a walk of
# its whole region 302k; in parts of 65k, or all at once, that took 10-20% longer
# (2 shared CPUs).
_INSIDE_PAIRS = 1 << 14
_COLUMN_OFFSETS = ((0, 0), (-1, 0), (1, 0), (0, -1), (0, 1), (-1, -1), (-1, 1), (1, -1), (1, 1))


def _inside_test(centers: np.ndarray, radii: np.ndarray):
    """Predicate (c, r) -> whether each ball B(c[i], r[i]) lies inside some B(centers[j], radii[j]).

    A containing ball has |c - o| <= radii[j] - r <= h, the largest radius,
    so its centre o lies in one of the 9 columns of side h in (x, y) around
    c's column, within h - r of c in z.  The balls are sorted by the key
    column * 4 + (z + 1), so each column's candidates are one searchsorted
    range; a ball found inside is not looked up in the later columns.
    """
    h = max(float(radii.max(initial=0.0)), _INSIDE_CELL_MIN)
    n = int(2.0 / h) + 4  # columns per row, with a spare one on each side

    def column(p: np.ndarray) -> np.ndarray:
        i, j = (np.floor((p[:, k] + 1.0) / h).astype(np.int64) for k in (0, 1))
        return (i + 1) * n + (j + 1)

    keys = column(centers) * 4.0 + (centers[:, 2] + 1.0)
    order = np.argsort(keys)
    keys = keys[order]
    ox, oy, oz = (centers[order, k] for k in range(3))
    shrunk = radii[order] - _INSIDE_MARGIN

    def inside(c: np.ndarray, r: np.ndarray) -> np.ndarray:
        found = np.zeros(len(c), dtype=bool)
        todo = np.flatnonzero(r <= h - _INSIDE_MARGIN)  # no larger ball fits inside
        col = column(c[todo])
        for dx, dy in _COLUMN_OFFSETS:
            key = (col + (dx * n + dy)) * 4.0 + (c[todo, 2] + 1.0)
            reach = h - r[todo] + _INSIDE_KEY_SLACK
            lo = np.searchsorted(keys, key - reach, "left")
            count = np.searchsorted(keys, key + reach, "right") - lo
            starts = np.cumsum(count) - count  # of each ball's pairs, in all the pairs
            cuts = np.searchsorted(starts, np.arange(_INSIDE_PAIRS, count.sum(), _INSIDE_PAIRS))
            hit = np.zeros(len(todo), dtype=bool)
            for part in np.split(np.arange(len(todo)), cuts):
                if not part.size:
                    continue
                k = np.repeat(part, count[part])  # a row per (ball, candidate) pair
                j = np.arange(starts[part[0]], starts[part[-1]] + count[part[-1]])
                j += np.repeat(lo[part] - starts[part], count[part])
                q = todo[k]
                s = shrunk[j] - r[q]
                d2 = np.square(c[q, 0] - ox[j])
                d2 += np.square(c[q, 1] - oy[j])
                d2 += np.square(c[q, 2] - oz[j])
                hit[k[(s >= 0.0) & (d2 <= s * s)]] = True
            found[todo[hit]] = True
            todo, col = todo[~hit], col[~hit]
        return found

    return inside


_CRATER_PLANE_NORMALS = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
_RESCUE_FACTORS = np.array([2.0, 3.0, 4.5])


@np.errstate(divide="ignore", invalid="ignore")  # in slots that are not candidates
def _rescue_candidates(v: np.ndarray, required_r: np.ndarray):
    """Centers u of larger balls that may swallow B(v[i], required_r[i]), in the order to try them.

    A ball around u with radius >= required_r + |u - v| contains B(v,
    required_r) by the triangle inequality.  Point sets with mirror or
    rotational structure have razor-thin radius craters pinned to the z = 0
    and y = 0 planes (coincident projections); a center pushed off a near
    plane regains a healthy radius and can swallow the failing ball.  The
    caller checks the inequality, so soundness never rests on the heuristic.

    `v` is (m, 3), `required_r` (m,).  Returns u (m, 9, 3) and reach (m, 9)
    = required_r + |u - v|: slots 0-2 push v off both planes at once when
    both are near, 3-5 off z = 0 and 6-8 off y = 0, by 2, 3 and 4.5 times
    required_r + the distance to the plane.  A slot with no candidate (plane
    not near, or a shift of 1 or more) has reach nan.
    """
    # Each norm sums as x.dot(x) does (np.vecdot), as np.linalg.norm does, bit for bit.
    req = np.asarray(required_r, dtype=float)[:, None]
    along = v[:, 2:0:-1]  # <v, e> for each normal, exactly: the other terms are zeros
    comp = np.abs(along)
    tangent = _CRATER_PLANE_NORMALS - along[:, :, None] * v[:, None, :]
    norm = np.sqrt(np.vecdot(tangent, tangent))
    near = (comp <= 2.0 * req) & (norm >= 1e-12)
    tangent /= norm[:, :, None]
    tangent *= np.where(along >= 0.0, 1.0, -1.0)[:, :, None]
    diag = tangent[:, 0] + tangent[:, 1]
    diag /= np.sqrt(np.vecdot(diag, diag))[:, None]
    offsets = np.concatenate((diag[:, None], tangent), axis=1)
    planes = np.column_stack((near.all(axis=1), near))
    comps = np.column_stack((comp.max(axis=1), comp))
    shift = (req + comps)[:, :, None] * _RESCUE_FACTORS
    u = v[:, None, None] + shift[..., None] * offsets[:, :, None]
    u /= np.sqrt(np.vecdot(u, u))[..., None]
    step = u - v[:, None, None]
    reach = req[:, :, None] + np.sqrt(np.vecdot(step, step))
    reach[~(planes[:, :, None] & (shift < 1.0))] = math.nan
    return u.reshape(len(v), 9, 3), reach.reshape(len(v), 9)


def _band_test(phi: float, balls, theta_lo: float, theta_hi: float):
    """Predicate psi -> whether the (theta, radius) balls of a ring at phi cover psi.

    Balls come in non-decreasing theta, as walk_orbit appends them; a call is one numpy pass.
    """
    sin_p, cos_p = math.sin(phi), math.cos(phi)
    reach = theta_hi - 1e-12
    ring = np.array(balls, dtype=float).reshape(-1, 2)
    centers = ring[:, 0]
    cos_r = 1.0 - ring[:, 1] * ring[:, 1] / 2.0  # <u, center> on a ball's boundary

    def covered(psi: float) -> bool:
        sin_q, cos_q = math.sin(psi), math.cos(psi)
        denom = cos_p * cos_q
        num = cos_r - sin_p * sin_q
        if denom <= 0.0:
            return bool((num <= 0.0).any())
        q = num / denom
        if q.min() <= -1.0:
            return True  # a ball reaches psi at every longitude
        # The balls with q < 1 reach psi on [center - w, center + w].  psi is covered if
        # an end reaches theta_hi and no cut before a ball j opens a gap: all ends before j
        # short of theta_hi, the first start from j on past max(theta_lo, those ends) + 1e-12.
        # A gap splits the balls by centre, so these are a start-order sweep's gaps exactly.
        near = q < 1.0
        c, w = centers[near], np.arccos(q[near])
        left = np.maximum.accumulate(c + w)  # the largest end of balls 0..j
        if not left.size or left[-1] < reach:
            return False
        right = np.minimum.accumulate((c - w)[::-1])[::-1]  # the smallest start of balls j..
        cut = np.maximum(left[:-1], theta_lo) + 1e-12
        return not (right[0] > theta_lo + 1e-12 or ((right[1:] > cut) & (left[:-1] < reach)).any())

    return covered


def _bands(region: Region) -> list[Region]:
    """The latitude bands phase 1 walks, the upper one first.

    A region in one hemisphere with positive height is split at phi_s =
    asin((sin phi_min + sin phi_max) / 2), where its area halves; any other
    stays whole.
    """
    lo, hi = region.phi_min, region.phi_max
    if not lo < hi or lo < 0.0 < hi:
        return [region]
    seam = min(max(math.asin((math.sin(lo) + math.sin(hi)) / 2.0), lo), hi)
    return [replace(region, phi_min=seam), replace(region, phi_max=seam)]


class _Child:
    """A child from `os.fork` that walks phase 1's lower band, and the pipe from it.

    `_Engine._phase1` starts it.  The child walks its band, sends the pickled
    `_Engine._walk_band` dict, the band's tables, or the exception raised
    instead, and exits; a walk also ends once its parent is gone (see
    `walk_orbit`).
    """

    def __init__(self, engine: _Engine, band: Region):
        parent = os.getpid()
        inbox, outbox = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            os.close(inbox)
            os.close(outbox)
            raise
        if self.pid == 0:
            code = 1
            try:
                os.close(inbox)
                engine.parent = parent
                try:
                    walk = engine._walk_band(band)
                except Exception as exc:  # raised again in the parent
                    walk = exc
                with open(outbox, "wb") as pipe:
                    pickle.dump(walk, pipe, pickle.HIGHEST_PROTOCOL)
                code = 0
            finally:
                os._exit(code)  # never back into the caller's stack
        os.close(outbox)
        self.pipe = open(inbox, "rb")

    @classmethod
    def start(cls, engine: _Engine, band: Region) -> _Child | None:
        """A child for `engine` that walks `band`; None where none may fork.

        None when SIGCHLD is ignored (the system would reap the child and its
        exit status), other threads are alive (a forked child holds one
        thread, and the locks the others held) or the fork is refused.
        """
        if signal.getsignal(signal.SIGCHLD) == signal.SIG_IGN or threading.active_count() > 1:
            return None
        try:
            return cls(engine, band)
        except OSError:
            return None

    def receive(self) -> dict:
        """The child's walk; raises its exception, or RuntimeError if it died."""
        try:
            walk = pickle.load(self.pipe)
        except (EOFError, pickle.UnpicklingError):
            code = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
            self.pid = None
            raise RuntimeError(f"the cover's child exited with status {code}") from None
        if isinstance(walk, Exception):
            raise walk
        return walk

    def close(self) -> None:
        """Kill and reap the child, unless it is reaped already; raises nothing."""
        if self.pid is not None:
            with contextlib.suppress(OSError):  # e.g. reaped by a SIGCHLD handler of the caller's
                os.kill(self.pid, signal.SIGKILL)
                os.waitpid(self.pid, 0)
            self.pid = None
        self.pipe.close()


class _Engine:
    def __init__(self, ps: PointSet, params: CoverParams, points32: np.ndarray | None = None):
        self.ps = ps
        self.params = params
        # The points rounded once, for phase 1's float32 kernel; a band's walker shares its cover's.
        self.points32 = ps.points.astype(np.float32) if points32 is None else points32
        # The work counts of the cover, under their report keys; a band's walk adds its own.
        self.ledger = Counter(n_evaluations=0, band_tests=0, kernel_batches=0, kernel_batch_rows=0)
        self.ledger.update(dict.fromkeys(COVER_CAP_COUNTERS, 0))
        self.orbit: list[tuple[np.ndarray, float, float]] = []  # (center, radius, Dis) per ball
        self.cannot_cover: list[tuple] = []  # (center, r_min, Dis, radius), for Cover Cap
        self.stranded: list[tuple[np.ndarray, float]] = []  # (center, required radius) of phase 1
        self.r_min_per_orbit: list[float] = []  # of each ring walked
        self._closeout_attempts = 0
        self._closing: tuple | None = None  # (phi, radius, balls) of the closing ring, once walked
        self.parent: int | None = None  # in the cover's child, the pid whose exit ends a walk
        self.child: _Child | None = None

    # -- direction evaluation -------------------------------------------------

    def ring_radii(self, directions: np.ndarray):
        """(Dis, radius) of phase-1 directions, (3,) or (m, 3), from the float32 kernel's sound bounds."""
        return _bounded_radii(self.points32, self.ps.points, directions, self.params.d)

    def orbit_ball(self, theta: float, phi: float):
        """Evaluate and record one phase-1 ball: (direction, radius); raises HypothesisViolation."""
        self.ledger["n_evaluations"] += 1
        v = polar_to_cartesian(theta, phi)
        dis, radius = self.ring_radii(v)
        if math.isnan(radius):
            raise HypothesisViolation(v, dis, self.params.d)
        self.orbit.append((v, radius, dis))
        return v, radius

    def evaluate_cart(self, directions: np.ndarray):
        """(directed_value, radius) arrays of the rows; radius nan where the hypothesis fails."""
        rows = len(directions)
        self.ledger.update(n_evaluations=rows, kernel_batches=1, kernel_batch_rows=rows)
        return confidence_radii(self.ps.points, directions, self.params.d)

    # -- phase 1 --------------------------------------------------------------

    def orbit_r_min(self, phi: float, factor: float = R_MIN_FACTOR) -> float:
        """`factor` times the median radius of the ring's sampled directions."""
        reg = self.params.region
        span = reg.theta_max - reg.theta_min
        k = ORBIT_SAMPLE_COUNT
        thetas = (reg.theta_min + (i + 0.5) * span / k for i in range(k))
        samples = np.array([polar_to_cartesian(theta, phi) for theta in thetas])
        self.ledger.update(n_evaluations=k, kernel_batches=1, kernel_batch_rows=k)
        _, radii = _checked(self.ring_radii, samples)
        r = sorted(radii.tolist())  # np.median's value, bit for bit, at a tenth of its cost
        return factor * ((r[(k - 1) // 2] + r[k // 2]) / 2)

    def walk_orbit(self, phi: float, r_min: float) -> list[tuple[float, float]]:
        """Cover one latitude ring in increasing theta; returns its (theta, effective radius) balls."""
        if self.parent is not None and os.getppid() != self.parent:
            raise SystemExit(1)  # an orphaned band child: no one is left to read its walk
        reg = self.params.region
        balls: list[tuple[float, float]] = []  # (theta, effective radius), theta non-decreasing
        theta = reg.theta_min
        while True:
            v, r_v = self.orbit_ball(theta, phi)
            if r_v < r_min:
                self.cannot_cover.append((v, r_min, self.orbit[-1][2], r_v))
            eff = max(r_v, r_min)
            balls.append((theta, eff))
            if eff > 2.0 * math.cos(phi):
                break
            if theta >= reg.theta_max - 1e-15:
                break
            # No clamping: the last center overshoots theta_max by less than
            # one step, so consecutive balls keep overlapping properly.
            theta = theta + step_theta(eff, phi)
        return balls

    def _orbit_band(self, phi: float, r_min: float, balls, target: float):
        """(band_lo, band_hi >= target) of the latitude band a walked ring of balls certifies.

        A latitude psi belongs to the band when the theta-intervals in which
        the balls reach psi union to the whole [theta_min, theta_max] range.
        Each edge is searched by stepping away from the ring latitude in
        increments of r_min/8 and bisecting the last covered step, which
        stays correct when radii fluctuate along the ring (the worst-seam
        shortcut collapses whenever a small ball abuts a much larger one).
        band_lo, a latitude tested as covered, is bisected until the
        uncovered one below it is BINARY_SEARCH_TOL away at most, the margin
        by which the next ring is placed (`next_latitude`); band_hi, read
        only against `target`, is decided as soon as a covered latitude
        reaches it or an uncovered one falls short, since the covered one
        only rises and stays below every uncovered one: the answer of the
        whole search.
        """
        reg = self.params.region
        r = balls[-1][1]
        if r > 2.0 * math.cos(phi):
            # The walk ends at a ball reaching around the whole latitude circle,
            # which covers every latitude psi with chord((theta,phi),(theta',psi))
            # <= r for all theta', i.e. phi + psi >= arccos(r^2/2 - 1), or, for a
            # ring below the equator, phi + psi <= -arccos(r^2/2 - 1).
            x = max(-1.0, min(1.0, r * r / 2.0 - 1.0))
            if phi < 0.0:
                return -math.pi / 2, -math.acos(x) - phi >= target
            return math.acos(x) - phi, True

        test = _band_test(phi, balls, reg.theta_min, reg.theta_max)

        def covered(psi: float) -> bool:
            self.ledger["band_tests"] += 1
            return test(psi)

        if not covered(phi):
            return phi, phi >= target

        def edge(sign: float):
            """Yield (covered psi, uncovered psi or None) after each step of the search."""
            step = max(1e-6, r_min / 8.0)
            psi = phi
            limit = math.pi / 2 - 1e-9
            yield psi, None
            for _ in range(10_000):
                nxt = psi + sign * step
                if abs(nxt) > limit or not covered(nxt):
                    break
                psi = nxt
                yield psi, None
            else:
                return
            good, bad = psi, psi + sign * step
            yield good, bad
            for _ in range(40):
                mid = 0.5 * (good + bad)
                if covered(mid):
                    good = mid
                else:
                    bad = mid
                yield good, bad

        for band_lo, bad in edge(-1.0):
            if bad is not None and band_lo - bad <= BINARY_SEARCH_TOL:
                break
        for good, bad in edge(1.0):
            if good >= target or (bad is not None and bad < target):
                return band_lo, good >= target
        return band_lo, False

    def run(self) -> CoverOutcome:
        t0 = time.perf_counter()
        walks = self._phase1()
        phase1_s = time.perf_counter() - t0
        for walk in walks:
            self.ledger.update(walk["ledger"])
        orbit, cannot_cover, stranded = (
            _concat([walk[key] for walk in walks]) for key in ("orbit", "cannot_cover", "stranded")
        )
        counterexample = walks[-1]["counterexample"]
        records, not_covered = [orbit], [stranded]

        t1 = time.perf_counter()
        dropped = resid_inside = 0
        inside_orbit_s = 0.0
        if counterexample is None:
            own = np.concatenate([walk["cannot_cover_rows"] for walk in walks])
            witness, recs, resid, counts = cover_cap_recurse(
                self.evaluate_cart,
                *vars(cannot_cover).values(),
                self.params.cover_cap_max_depth,
                self.params.region,
                own,
            )
            self.ledger.update(counts)
            # A Cover Cap ball inside a phase-1 ball adds nothing to the union
            # of the balls, so it is dropped.  A residual ball inside one is
            # counted: that ground is certified although Cover Cap left it.
            t2 = time.perf_counter()
            inside = _inside_test(orbit.center, orbit.radius)
            drop = inside(recs.center, recs.radius)
            records.append(CoverageRecords(*(column[~drop] for column in vars(recs).values())))
            not_covered.append(resid)
            dropped = int(np.count_nonzero(drop))
            resid_inside = sum(
                int(np.count_nonzero(inside(t.center, t.required_radius))) for t in not_covered
            )
            inside_orbit_s = time.perf_counter() - t2
            if witness is not None:
                counterexample = DirectedResult(witness[0], witness[1], math.nan, True)
        cover_cap_s = time.perf_counter() - t1
        records = _concat(records)  # phase 1's rows, then Cover Cap's
        not_covered = _concat(not_covered)

        if counterexample is not None:
            status = "counterexample"
        elif len(not_covered):
            status = "residual"
        else:
            status = "covered"
        upper_s, lower_s = ([walk["seconds"] for walk in walks] + [0.0, 0.0])[:2]
        r_min_per_orbit = [r for walk in walks for r in walk["r_min_per_orbit"]]
        r_min_global = min(r_min_per_orbit) if r_min_per_orbit else math.nan
        # The global minimum is pinned to the orbit at the pole-side region
        # edge, where the gap d - Dis vanishes by construction; the median
        # orbit radius is the scale that actually sets the sweep density.
        r_min_median = float(np.median(r_min_per_orbit)) if r_min_per_orbit else math.nan
        return CoverOutcome(
            status=status,
            records=records,
            counterexample=counterexample,
            not_covered=not_covered,
            counters={
                "n_DD": len(orbit),
                "n_CC": len(cannot_cover),
                "n_cover_cap_dirs": int(np.count_nonzero(records.origin == COVER_CAP)),
                **self.ledger,
                "n_orbits": len(r_min_per_orbit),
                "phase1_bands": len(_bands(self.params.region)),
                "r_min_global": r_min_global,
                "r_min_median": r_min_median,
                "cover_cap_inside_orbit": dropped,
                "not_covered_inside_orbit": resid_inside,
            },
            timings={
                "phase1": phase1_s,
                # the lower band's seconds are the child's own, 0 for a region walked whole
                "phase1_upper": upper_s,
                "phase1_lower": lower_s,
                "cover_cap": cover_cap_s,
                "total": phase1_s + cover_cap_s,
                "inside_orbit": inside_orbit_s,
            },
        )

    def _phase1(self) -> list[dict]:
        """The `_walk_band` walks of the region's bands, upper first, the lower one by `self.child`.

        The child is forked here, before any ring, when there are two bands;
        where none forks, the lower band is walked here.  A walk that ends in
        a counterexample is the last one read.
        """
        upper, *lower = _bands(self.params.region)
        self.child = _Child.start(self, *lower) if lower else None
        walks = [self._walk_band(upper)]
        if lower and walks[0]["counterexample"] is None:
            walks.append(self.child.receive() if self.child else self._walk_band(*lower))
        return walks

    def close(self) -> None:
        """Kill and reap the cover's child, if one was forked."""
        if self.child:
            self.child.close()

    def _walk_band(self, band: Region) -> dict:
        """Walk one band as the whole region of an engine of its own; its rows as outcome tables.

        `orbit` is a CoverageRecords of origin ORBIT, and `cannot_cover`
        (center, r_min) and `stranded` are Residuals; `cannot_cover_rows`
        holds each queued direction's (Dis, radius), those of its ring ball.
        A HypothesisViolation ends the walk; its DirectedResult is the walk's
        `counterexample`.
        """
        t0 = time.perf_counter()
        walker = _Engine(self.ps, replace(self.params, region=band), self.points32)
        walker.parent = self.parent
        counterexample = None
        try:
            walker._walk()
        except HypothesisViolation as exc:
            counterexample = DirectedResult(exc.direction, exc.directed_value, math.nan, True)
        center, radius, dis = _columns(walker.orbit, 3)
        queued, r_min, queued_dis, queued_radius = _columns(walker.cannot_cover, 4)
        return {
            "orbit": CoverageRecords(center, radius, dis, np.full(len(dis), ORBIT, np.uint8)),
            "cannot_cover": Residuals(queued, r_min),
            "cannot_cover_rows": np.column_stack((queued_dis, queued_radius)),
            "stranded": Residuals(*_columns(walker.stranded, 2)),
            "r_min_per_orbit": walker.r_min_per_orbit,
            "ledger": walker.ledger,
            "seconds": time.perf_counter() - t0,
            "counterexample": counterexample,
        }

    def _walk(self) -> None:
        """Phase 1 over the whole region, from phi_max down, one ring at a time."""
        reg = self.params.region
        tol = BINARY_SEARCH_TOL
        phi = reg.phi_max
        lowest_covered = reg.phi_max

        if phi >= math.pi / 2 - 1e-12:
            # The ring formulas divide by cos(phi); cover the pole with a
            # single ball and resume at the latitude it certifies.
            _, r = self.orbit_ball(0.0, math.pi / 2)
            lowest_covered = phi_max_from_radius(r)
            phi = lowest_covered
            if lowest_covered <= reg.phi_min:
                return

        retries = 0
        refine = False
        while True:
            r_min = self.orbit_r_min(phi)
            if refine:
                # The seam condition depends on the r_min of the orbit being
                # placed, which is only known after sampling there: iterate
                # proposal -> sample -> re-propose until it settles.
                for _ in range(6):
                    needed = min(next_latitude(r_min, lowest_covered), lowest_covered - tol)
                    if abs(needed - phi) <= max(tol, 0.05 * r_min):
                        phi = needed
                        break
                    phi = needed
                    r_min = self.orbit_r_min(phi)
            if r_min == 0.0:  # the ring cannot step: leave the band to a ball holding the sphere
                self.stranded.append((polar_to_cartesian(reg.theta_min, lowest_covered), 2.0))
                return
            self.r_min_per_orbit.append(r_min)
            balls = self.walk_orbit(phi, r_min)
            band_lo, connected = self._orbit_band(phi, r_min, balls, lowest_covered - 1e-12)
            if connected:
                lowest_covered = min(lowest_covered, band_lo)
                retries = 0
            else:
                retries += 1
                if retries > 50:
                    v = polar_to_cartesian(reg.theta_min, lowest_covered)
                    self.stranded.append((v, r_min))
                    return
                phi = 0.5 * (phi + lowest_covered)
                refine = False
                continue
            if lowest_covered <= reg.phi_min:
                return
            if (
                lowest_covered - reg.phi_min <= 2.0 * r_min
                and self._closeout_attempts < 3
                and self._final_orbit_closeout(lowest_covered)
            ):
                return
            # The next orbit may sit slightly below phi_min: its balls still
            # certify the [phi_min, ...] band, and evaluating a hair outside
            # the region avoids singular latitudes on its boundary (e.g. the
            # equator of a z-mirror-symmetric set, where projections double).
            phi = lowest_covered - tol
            refine = True

    def _final_orbit_closeout(self, lowest_covered: float) -> bool:
        """Close the last band with one orbit held clear of phi_min.

        Rings placed by `next_latitude` otherwise close in on phi_min, which for
        the symmetric structures is the equator — a line of cratered radii.
        Instead the final orbit sits at phi_min + 0.6 x (median radius) with
        a radius floor of 0.8 x median, at most sqrt(2), the largest radius
        Cover Cap takes; its verified band then dips below phi_min while every
        evaluated direction keeps a healthy clearance.  That ring depends on
        phi_min alone, so only the first attempt walks it; a later one tests
        its balls against the band covered since.
        """
        self._closeout_attempts += 1
        phi_min = self.params.region.phi_min
        if self._closing is None:
            med = self.orbit_r_min(phi_min + BINARY_SEARCH_TOL, factor=1.0)
            phi_c = phi_min + 0.6 * med
            for _ in range(2):
                med = self.orbit_r_min(phi_c, factor=1.0)
                phi_c = phi_min + 0.6 * med
            r_close = min(0.8 * med, SQRT2)
            self._closing = ()  # no ring closes the band
            if 0.0 < r_close <= 2.0 * math.cos(phi_c):
                self.r_min_per_orbit.append(r_close)
                self._closing = phi_c, r_close, self.walk_orbit(phi_c, r_close)
        if not self._closing:
            return False
        band_lo, reaches = self._orbit_band(*self._closing, lowest_covered - 1e-12)
        return band_lo <= phi_min + 1e-12 and reaches


def _columns(rows: list, width: int) -> list[np.ndarray]:
    """The (m, 3) centers and (m,) values of `width`-tuples (center, value, ...), as new arrays."""
    center, *values = list(zip(*rows)) or [()] * width
    return [np.array(center, dtype=float).reshape(-1, 3), *map(np.array, values)]


def _concat(tables: list):
    """The same-typed tables joined in order, as one table of their type."""
    columns = zip(*(vars(t).values() for t in tables))
    return type(tables[0])(*(np.concatenate(col) for col in columns))


# The walked half of a mirror-closed region ends this far past theta = pi/2,
# so that its images overlap it by far more than the band test's 1e-12.
_MIRROR_OVERLAP = 1e-9
# The farthest a map may move a point for the set to count as mapped onto itself.
_MIRROR_LIMIT = 1e-12
# The x-mirror (-x, y, z) and the half-turn about x (x, -y, -z) as factors
# of a row, each with a column it negates.
_X_MIRROR = np.array([-1.0, 1.0, 1.0])
_MIRRORS = ((_X_MIRROR, 0), (np.array([1.0, -1.0, -1.0]), 1))
# Rows and images are paired in the order of their projections onto this
# direction, on no plane of the structures' symmetries; any pairing is checked.
_MIRROR_KEY = np.array([0.5772156649015329, 0.6931471805599453, 0.4342944819032518])


def _mirror_delta(points: np.ndarray) -> float | None:
    """A bound on how far the x-mirror or the half-turn about x moves the set onto itself, or None.

    A map is refused at once when a column it negates, sorted, is not its
    own negation within _MIRROR_LIMIT: a map that moves no point further
    than delta moves no sorted column entry further.  Otherwise each row is
    paired with the image of the same rank in projection order, and delta is
    the largest distance of a pair; a pairing off by more than the limit,
    as when two projections tie, refuses the map.  The bound returned is
    delta rounded up by far more than its rounding, and at least 2**-50.
    """
    for flip, column in _MIRRORS:
        values = np.sort(points[:, column])
        if not (np.abs(values + values[::-1]) <= _MIRROR_LIMIT).all():
            continue
        image = points * flip
        gap = points[np.argsort(points @ _MIRROR_KEY)] - image[np.argsort(image @ _MIRROR_KEY)]
        delta = float(np.sqrt(np.vecdot(gap, gap)).max())
        if delta <= _MIRROR_LIMIT:
            return max(delta * (1.0 + 2.0**-20), 2.0**-50)
    return None


def cover_region(ps: PointSet, params: CoverParams) -> CoverOutcome:
    """Run the covering algorithm over the configured region.

    A region with theta_min + theta_max == pi that reaches past pi/2 +
    _MIRROR_OVERLAP is closed under the x-mirror X: (x, y, z) -> (-x, y, z),
    which maps longitude theta to pi - theta.  When the set maps onto itself
    within delta <= 1e-12 under X or under the half-turn H: (x, y, z) ->
    (x, -y, -z) (`_mirror_delta`), the engine walks only [theta_min, pi/2 +
    _MIRROR_OVERLAP], and each of its records B(c, r) gains the image
    B(Xc, r - 2 delta'), clamped at 0, with delta' >= delta the bound
    `_mirror_delta` returns, the same Dis and the same origin; each residual
    gains its image with the same required radius.  A walk that ends
    `counterexample` gains no images.  The status is the walk's, whose
    counters gain `mirror_rows`, the rows added, and `mirror_delta`, delta'
    (None when the whole region was walked).

    The images are sound.  Dis_{Xw}(P) = Dis_w(XP), and Dis_{Xw}(P) =
    Dis_{-Xw}(P) = Dis_{Hw}(P) = Dis_w(HP), a cap's complement having the
    same discrepancy.  So Dis_{Xw}(P) = Dis_w(P') where P' is P moved by at
    most delta a point.  Then every projection <p', w> is within delta of
    <p, w>, which is within |w - c| of <p, c>.  The slab argument at c
    rests on those projections staying within r of P's at c; it holds for
    P' at every w with |w - c| <= r - delta, so Dis <= d on all of B(Xc, r
    - delta).  The computed r - 2 delta' errs below r - delta by at least
    delta' >= 2**-50, above the rounding of a radius of at most 2.
    """
    if ps.size < 2:
        raise ValueError("covering needs at least two points")
    # Coincident points shrink the confidence radii around their directions
    # without bound, so phase 1 never reaches phi_min.
    _, first = np.unique(ps.points, axis=0, return_index=True)
    if len(first) < ps.size:
        row = int(np.setdiff1d(np.arange(ps.size), first)[0])
        earlier = int(np.flatnonzero((ps.points == ps.points[row]).all(axis=1))[0])
        raise ValueError(
            f"point set row {row} repeats row {earlier}; coincident points are not supported"
        )
    reg = params.region
    edge = math.pi / 2 + _MIRROR_OVERLAP  # theta_max of the walked half, past theta_min when mirrored
    delta = None
    if reg.theta_min + reg.theta_max == math.pi and edge < reg.theta_max:
        delta = _mirror_delta(ps.points)
    walked = params if delta is None else replace(params, region=replace(reg, theta_max=edge))
    with contextlib.closing(_Engine(ps, walked)) as engine:
        outcome = engine.run()
    rows = 0
    if delta is not None and outcome.status != "counterexample":
        recs, resid = outcome.records, outcome.not_covered
        radius = np.maximum(recs.radius - 2.0 * delta, 0.0)  # a pole ball's may be 0
        images = CoverageRecords(recs.center * _X_MIRROR, radius, recs.directed_value, recs.origin)
        outcome.records = _concat([recs, images])
        images = Residuals(resid.center * _X_MIRROR, resid.required_radius)
        outcome.not_covered = _concat([resid, images])
        rows = len(recs) + len(resid)
    outcome.counters.update(mirror_rows=rows, mirror_delta=delta)
    return outcome
