"""Directional covering of a polar rectangle with confidence balls.

Phase 1 sweeps latitudes from phi_max downward, walking each ring in theta
with steps sized by the local confidence radius.  Directions whose radius
falls below the ring minimum are queued; phase 2 certifies them with the
recursive 8-cap Cover Cap construction.
"""
from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, field
from statistics import median

import numpy as np

from .discrepancy import (
    DirectedResult,
    HypothesisViolation,
    confidence_radius,
    project,
)
from .geometry import (
    PolarDirection,
    Region,
    cartesian_to_polar,
    cover_cap_centers,
    polar_to_cartesian,
)
from .pointsets import PointSet


class BallSpansOrbit(Exception):
    """The ball radius exceeds the latitude circle's diameter 2*cos(phi)."""


@dataclass
class CoverParams:
    d: float
    region: Region
    orbit_sample_count: int = 20
    r_min_factor: float = 0.5
    cover_cap_max_depth: int = 3
    binary_search_tol: float = 1e-9

    def __post_init__(self):
        if not 0.0 < self.d <= 1.0:
            raise ValueError("bound d must lie in (0, 1]")
        if self.orbit_sample_count < 1:
            raise ValueError("orbit_sample_count must be >= 1")
        if not 0.0 < self.r_min_factor <= 1.0:
            raise ValueError("r_min_factor must lie in (0, 1]")


@dataclass
class CoverageRecord:
    direction: PolarDirection
    radius: float
    directed_value: float
    origin: str  # "orbit" | "cover_cap"


@dataclass
class CoverOutcome:
    status: str  # "covered" | "counterexample" | "residual"
    records: list[CoverageRecord]
    counterexample: DirectedResult | None
    not_covered: list[tuple[PolarDirection, float]]
    counters: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)


def step_theta(r: float, phi: float) -> float:
    """Longitude step putting the next center on the current ball's boundary."""
    c = math.cos(phi)
    if c <= 0.0 or r > 2.0 * c:
        raise BallSpansOrbit(f"radius {r!r} spans the latitude circle at phi={phi!r}")
    return 2.0 * math.asin(r / (2.0 * c))


def orbit_intersection_latitude(phi: float, r: float, upper: bool = False) -> float:
    """Latitude of the intersection of two adjacent equal balls on one ring.

    Centers sit at latitude phi separated by chord r, both with ball radius r.
    Returns the lower intersection latitude (or the upper with upper=True).
    The intersection u satisfies <v1, u> = 1 - r^2/2 at longitude tau = d_theta/2.
    """
    tau = step_theta(r, phi) / 2.0
    a = math.cos(phi) * math.cos(tau)
    b = math.sin(phi)
    c = 1.0 - r * r / 2.0
    rad = math.hypot(a, b)
    x = max(-1.0, min(1.0, c / rad))
    alpha = math.atan2(b, a)
    if upper:
        return alpha + math.acos(x)
    return alpha - math.acos(x)


def r_min_from_samples(radii, factor: float) -> float:
    """Ring minimum radius: factor times the median of sampled radii."""
    return factor * median(radii)


def estimate_orbit_r_min(ps: PointSet, phi: float, params: CoverParams) -> float:
    """Sampled-median r_min for one latitude, standalone variant of the engine step."""
    eng = _Engine(ps, params)
    return eng.orbit_r_min(phi)


def cover_cap_recurse(evaluate, v: np.ndarray, required_r: float, depth: int, rescue: bool = True):
    """Certify the ball B(v, required_r) with 8 half-radius confidence balls.

    `evaluate` maps a cartesian direction to (directed_value, confidence_radius)
    and may raise HypothesisViolation.  Centers whose radius is short recurse
    with half the requirement until `depth` is exhausted; leftovers are
    returned as residual (direction, still-required-radius) pairs.

    With `rescue` (default) a failing ball is first offered to
    _swallow_rescue, which certifies it wholesale with one larger ball
    placed off the radius craters that symmetric point sets pin to the
    coordinate planes.  Returns (covered, records, residual, max_directed).
    """
    if rescue:
        rescued = _swallow_rescue(evaluate, v, required_r)
        if rescued is not None:
            return True, [rescued[0]], [], rescued[1]
    records: list[CoverageRecord] = []
    residual: list[tuple[PolarDirection, float]] = []
    max_dis = 0.0
    for c in cover_cap_centers(v, required_r):
        dis, r_c = evaluate(c)
        max_dis = max(max_dis, dis)
        need = required_r / 2.0
        if r_c >= need:
            records.append(CoverageRecord(cartesian_to_polar(c), r_c, dis, "cover_cap"))
        elif depth > 0:
            ok, recs, resid, sub_dis = cover_cap_recurse(
                evaluate, c, need, depth - 1, rescue=rescue
            )
            records.extend(recs)
            residual.extend(resid)
            max_dis = max(max_dis, sub_dis)
        else:
            residual.append((cartesian_to_polar(c), need))
    return not residual, records, residual, max_dis


_CRATER_PLANE_NORMALS = (np.array([0.0, 0.0, 1.0]), np.array([0.0, 1.0, 0.0]))


def _swallow_rescue(evaluate, v: np.ndarray, required_r: float):
    """Certify B(v, required_r) with one strictly larger ball placed nearby.

    By the triangle inequality a ball around u with radius >= required_r +
    |u - v| contains B(v, required_r) outright.  Point sets with mirror or
    rotational structure have razor-thin radius craters pinned to the z = 0
    and y = 0 planes (coincident projections); when v sits within a few
    required_r of such a plane, a center pushed away from it regains a
    healthy radius and can swallow the whole failing ball.  Soundness never
    depends on the heuristic: the inequality is checked per candidate.
    Returns (record, directed_value) or None.
    """
    comps = [abs(float(v @ e)) for e in _CRATER_PLANE_NORMALS]
    offsets = []
    for e, comp in zip(_CRATER_PLANE_NORMALS, comps):
        if comp > 2.0 * required_r:
            continue
        tangent = e - float(v @ e) * v
        norm = float(np.linalg.norm(tangent))
        if norm < 1e-12:
            continue
        tangent /= norm
        sign = 1.0 if float(v @ e) >= 0.0 else -1.0
        offsets.append((sign * tangent, comp))
    if len(offsets) == 2:
        # Near a crossing of both planes: push away from both at once.
        diag = offsets[0][0] + offsets[1][0]
        diag /= float(np.linalg.norm(diag))
        offsets.insert(0, (diag, max(comps)))
    for tangent, comp in offsets:
        for factor in (2.0, 3.0, 4.5):
            shift = factor * (required_r + comp)
            if shift >= 1.0:
                continue
            u = v + shift * tangent
            u /= float(np.linalg.norm(u))
            dis, r_u = evaluate(u)
            if r_u >= required_r + float(np.linalg.norm(u - v)):
                rec = CoverageRecord(cartesian_to_polar(u), r_u, dis, "cover_cap")
                return rec, dis
    return None


def _band_test(phi: float, balls, theta_lo: float, theta_hi: float):
    """Predicate psi -> whether the (theta, radius) balls of a ring at phi cover psi.

    The ring's arrays are built once; each call is one numpy pass over them.
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
            return bool((num <= 0.0).any()) or theta_lo >= reach
        q = num / denom
        if q.min() <= -1.0:
            return True  # a ball reaches psi at every longitude
        # The balls with q < 1 reach psi on [center - w, center + w]; psi is
        # covered if the running end reaches theta_hi before a start opens a gap.
        near = q < 1.0
        w = np.arccos(q[near])
        starts = centers[near] - w
        order = np.argsort(starts, kind="stable")
        ends = (centers[near] + w)[order]
        cur = np.maximum.accumulate(np.concatenate(([theta_lo], ends)))
        done = np.flatnonzero(cur[1:] >= reach)
        if not done.size:
            return theta_lo >= reach  # true only with no intervals at all
        k = done[0] + 1
        return not (starts[order[:k]] > cur[:k] + 1e-12).any()

    return covered


class _Engine:
    def __init__(self, ps: PointSet, params: CoverParams):
        self.ps = ps
        self.params = params
        self.n_dd = 0
        self.n_eval = 0
        self.n_cc = 0
        self.n_orbits = 0
        self.records: list[CoverageRecord] = []
        self.cannot_cover: deque = deque()
        self.not_covered: list[tuple[PolarDirection, float]] = []
        self.r_min_per_orbit: list[float] = []
        self._closeout_attempts = 0

    # -- direction evaluation -------------------------------------------------

    def evaluate_cart(self, v: np.ndarray):
        self.n_eval += 1
        ball = confidence_radius(project(self.ps, v), self.params.d)
        return ball.directed_value, ball.radius

    def evaluate(self, theta: float, phi: float):
        return self.evaluate_cart(polar_to_cartesian(PolarDirection(theta, phi)))

    # -- phase 1 --------------------------------------------------------------

    def orbit_r_min(self, phi: float, factor: float | None = None) -> float:
        reg = self.params.region
        span = reg.theta_max - reg.theta_min
        k = self.params.orbit_sample_count
        radii = []
        for i in range(k):
            theta = reg.theta_min + (i + 0.5) * span / k
            radii.append(self.evaluate(theta, phi)[1])
        if factor is None:
            factor = self.params.r_min_factor
        return r_min_from_samples(radii, factor)

    def walk_orbit(self, phi: float, r_min: float):
        """Cover one latitude ring; returns its certified band (psi_down, psi_up)."""
        reg = self.params.region
        self.n_orbits += 1
        balls: list[tuple[float, float]] = []  # (theta, effective radius)
        spans = False
        theta = reg.theta_min
        while True:
            dis, r_v = self.evaluate(theta, phi)
            self.n_dd += 1
            eff = r_v
            if r_v < r_min:
                direction = PolarDirection(theta, phi)
                self.cannot_cover.append((polar_to_cartesian(direction), r_min))
                self.n_cc += 1
                eff = r_min
            self.records.append(
                CoverageRecord(PolarDirection(theta, phi), r_v, dis, "orbit")
            )
            balls.append((theta, eff))
            if eff > 2.0 * math.cos(phi):
                spans = True
                break
            if theta >= reg.theta_max - 1e-15:
                break
            # No clamping: the last center overshoots theta_max by less than
            # one step, so consecutive balls keep overlapping properly.
            theta = theta + step_theta(eff, phi)
        return self._orbit_band(phi, r_min, balls, spans)

    def _orbit_band(self, phi: float, r_min: float, balls, spans: bool):
        """Latitude band certified by a walked ring of confidence balls.

        A latitude psi belongs to the band when the theta-intervals in which
        the balls reach psi union to the whole [theta_min, theta_max] range.
        The band edges are located by stepping away from the ring latitude
        in increments of r_min/8 and bisecting the last covered step, which
        stays correct when radii fluctuate along the ring (the worst-seam
        shortcut collapses whenever a small ball abuts a much larger one).
        """
        reg = self.params.region
        if spans:
            # A single ball reaching around the whole latitude circle covers
            # every latitude psi with chord((theta,phi),(theta',psi)) <= r
            # for all theta', i.e. phi + psi >= arccos(r^2/2 - 1).
            r = balls[-1][1]
            x = max(-1.0, min(1.0, r * r / 2.0 - 1.0))
            return math.acos(x) - phi, math.pi / 2

        covered = _band_test(phi, balls, reg.theta_min, reg.theta_max)
        if not covered(phi):
            return phi, phi

        def edge(sign: float) -> float:
            step = max(1e-6, r_min / 8.0)
            psi = phi
            limit = math.pi / 2 - 1e-9
            for _ in range(10_000):
                nxt = psi + sign * step
                if abs(nxt) > limit or not covered(nxt):
                    break
                psi = nxt
            else:
                return psi
            good, bad = psi, psi + sign * step
            for _ in range(40):
                mid = 0.5 * (good + bad)
                if covered(mid):
                    good = mid
                else:
                    bad = mid
            return good

        return edge(-1.0), edge(1.0)

    def next_latitude(self, r_min: float, lowest_covered: float) -> float:
        """Lowest latitude whose adjacent r_min balls still meet the covered band."""
        reg = self.params.region
        tol = self.params.binary_search_tol

        def reaches(phi: float) -> bool:
            try:
                psi_up = orbit_intersection_latitude(phi, r_min, upper=True)
            except BallSpansOrbit:
                return True
            return psi_up >= lowest_covered

        lo = lowest_covered - math.acos(1.0 - r_min * r_min / 4.0) - tol
        hi = lowest_covered
        if reaches(lo):
            return lo
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if reaches(mid):
                hi = mid
            else:
                lo = mid
        return hi

    def run(self) -> CoverOutcome:
        t0 = time.perf_counter()
        counterexample = None
        try:
            self._phase1()
        except HypothesisViolation as exc:
            counterexample = DirectedResult(
                exc.direction, exc.directed_value, math.nan, True
            )
        phase1_s = time.perf_counter() - t0

        t1 = time.perf_counter()
        if counterexample is None:
            while self.cannot_cover:
                v, req = self.cannot_cover.popleft()
                try:
                    _, recs, resid, _ = cover_cap_recurse(
                        self.evaluate_cart,
                        v,
                        req,
                        self.params.cover_cap_max_depth,
                    )
                except HypothesisViolation as exc:
                    counterexample = DirectedResult(
                        exc.direction, exc.directed_value, math.nan, True
                    )
                    break
                self.records.extend(recs)
                self.not_covered.extend(resid)
        cover_cap_s = time.perf_counter() - t1

        if counterexample is not None:
            status = "counterexample"
        elif self.not_covered:
            status = "residual"
        else:
            status = "covered"
        r_min_global = min(self.r_min_per_orbit) if self.r_min_per_orbit else math.nan
        # The global minimum is pinned to the orbit at the pole-side region
        # edge, where the gap d - Dis vanishes by construction; the median
        # orbit radius is the scale that actually sets the sweep density.
        r_min_median = (
            float(np.median(self.r_min_per_orbit))
            if self.r_min_per_orbit
            else math.nan
        )
        return CoverOutcome(
            status=status,
            records=self.records,
            counterexample=counterexample,
            not_covered=self.not_covered,
            counters={
                "n_DD": self.n_dd,
                "n_CC": self.n_cc,
                "n_cover_cap_dirs": sum(
                    1 for rec in self.records if rec.origin == "cover_cap"
                ),
                "n_evaluations": self.n_eval,
                "n_orbits": self.n_orbits,
                "r_min_global": r_min_global,
                "r_min_median": r_min_median,
            },
            timings={
                "phase1": phase1_s,
                "cover_cap": cover_cap_s,
                "total": phase1_s + cover_cap_s,
            },
        )

    def _phase1(self) -> None:
        reg = self.params.region
        tol = self.params.binary_search_tol
        phi = reg.phi_max
        lowest_covered = reg.phi_max

        if phi >= math.pi / 2 - 1e-12:
            # The ring formulas divide by cos(phi); cover the pole with a
            # single ball and resume at the latitude it certifies.
            dis, r = self.evaluate(0.0, math.pi / 2)
            self.n_dd += 1
            self.records.append(
                CoverageRecord(PolarDirection(0.0, math.pi / 2), r, dis, "orbit")
            )
            lowest_covered = math.pi / 2 - 2.0 * math.asin(min(1.0, r / 2.0))
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
                    needed = min(
                        self.next_latitude(r_min, lowest_covered),
                        lowest_covered - tol,
                    )
                    if abs(needed - phi) <= max(tol, 0.05 * r_min):
                        phi = needed
                        break
                    phi = needed
                    r_min = self.orbit_r_min(phi)
            self.r_min_per_orbit.append(r_min)
            band_lo, band_hi = self.walk_orbit(phi, r_min)
            connected = phi >= lowest_covered - 1e-12 or band_hi >= lowest_covered - 1e-12
            if connected:
                lowest_covered = min(lowest_covered, band_lo)
                retries = 0
            else:
                retries += 1
                if retries > 50:
                    self.not_covered.append(
                        (PolarDirection(reg.theta_min, lowest_covered), r_min)
                    )
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

        The binary search otherwise converges onto phi_min itself, which for
        the symmetric structures is the equator — a line of cratered radii.
        Instead the final orbit sits at phi_min + 0.6 x (median radius) with
        a radius floor of 0.8 x median; its verified band then dips below
        phi_min while every evaluated direction keeps a healthy clearance.
        """
        self._closeout_attempts += 1
        phi_min = self.params.region.phi_min
        med = self.orbit_r_min(phi_min + self.params.binary_search_tol, factor=1.0)
        phi_c = phi_min + 0.6 * med
        for _ in range(2):
            med = self.orbit_r_min(phi_c, factor=1.0)
            phi_c = phi_min + 0.6 * med
        r_close = 0.8 * med
        if r_close <= 0.0 or r_close > 2.0 * math.cos(phi_c):
            return False
        self.r_min_per_orbit.append(r_close)
        band_lo, band_hi = self.walk_orbit(phi_c, r_close)
        return band_lo <= phi_min + 1e-12 and band_hi >= lowest_covered - 1e-12


def cover_region(ps: PointSet, params: CoverParams) -> CoverOutcome:
    """Run the covering algorithm over the configured region."""
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
    return _Engine(ps, params).run()

