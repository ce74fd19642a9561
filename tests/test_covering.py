import math
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from capdisc import covering
from capdisc.covering import (
    BallSpansOrbit,
    CoverParams,
    _band_test,
    _Engine,
    cover_cap_recurse,
    cover_region,
    estimate_orbit_r_min,
    orbit_intersection_latitude,
    r_min_from_samples,
    step_theta,
)
from capdisc.discrepancy import directed_values
from capdisc.geometry import PolarDirection, Region, polar_to_cartesian
from capdisc.pointsets import generate_random_uniform, generate_twisted_polar
from capdisc.polar_analysis import conjecture_setup, north_pole_directed


def reference_covered(phi, balls, theta_lo, theta_hi, psi) -> bool:
    """Pure-Python band test: one interval per ball, sorted and swept in a loop."""
    sin_p, cos_p = math.sin(phi), math.cos(phi)
    sin_q, cos_q = math.sin(psi), math.cos(psi)
    denom = cos_p * cos_q
    intervals = []
    for th, r in balls:
        num = (1.0 - r * r / 2.0) - sin_p * sin_q
        if denom <= 0.0:
            if num <= 0.0:
                return True
            continue
        q = num / denom
        if q <= -1.0:
            return True  # this ball reaches psi at every longitude
        if q >= 1.0:
            continue
        w = math.acos(q)
        intervals.append((th - w, th + w))
    intervals.sort()
    cur = theta_lo
    for s, e in intervals:
        if s > cur + 1e-12:
            return False
        if e > cur:
            cur = e
        if cur >= theta_hi - 1e-12:
            return True
    return cur >= theta_hi - 1e-12


def reference_band_test(phi, balls, theta_lo, theta_hi):
    """Drop-in for `covering._band_test` built on the pure-Python loop."""
    return lambda psi: reference_covered(phi, balls, theta_lo, theta_hi, psi)


def walked_ring(rng, phi, theta_lo, theta_hi):
    """Balls placed as walk_orbit places them, with some steps a little too long."""
    balls, theta = [], theta_lo
    while theta < theta_hi:
        r = float(rng.uniform(0.02, 0.3))
        balls.append((theta, r))
        theta += step_theta(r, phi) * float(rng.choice([0.9, 1.0, 1.01]))
    return balls


# Half-width in theta of a radius-0.2 ball on the equator, at the equator.
W02 = math.acos(1.0 - 0.2 * 0.2 / 2.0)


def tied_start_ring():
    """A covering ring in which two balls share their interval start at psi."""
    phi, psi = 0.3, 0.31
    sin_p, cos_p, sin_q, cos_q = math.sin(phi), math.cos(phi), math.sin(psi), math.cos(psi)

    def q(r):
        return ((1.0 - r * r / 2.0) - sin_p * sin_q) / (cos_p * cos_q)

    start = 0.5 - math.acos(q(0.25))
    for r in np.linspace(0.1, 0.2, 500).tolist():
        w = math.acos(q(r))
        theta = start + w
        # the tie must hold for numpy's arccos as well as for math.acos
        if theta - w == start and np.arccos(q(r)) == w and 0.5 - np.arccos(q(0.25)) == start:
            break
    else:
        raise AssertionError("no radius gives a tied start")
    # The longer interval comes first, so a stable sort and a tuple sort
    # take the tied pair in opposite orders.
    balls = [(0.0, 0.25), (0.5, 0.25), (theta, r), (0.8, 0.25), (1.0, 0.25)]
    return phi, balls, 0.0, 1.0, psi


class TestStepTheta:
    def test_matches_chord_geometry(self):
        # Consecutive centers on the latitude circle must sit at chord r.
        r, phi = 0.3, 0.7
        dt = step_theta(r, phi)
        a = polar_to_cartesian(PolarDirection(0.0, phi))
        b = polar_to_cartesian(PolarDirection(dt, phi))
        assert math.isclose(float(np.linalg.norm(a - b)), r, abs_tol=1e-12)

    def test_rejects_spanning_ball(self):
        with pytest.raises(BallSpansOrbit):
            step_theta(1.0, 1.5)  # 2*cos(1.5) < 1


class TestOrbitIntersection:
    def test_brackets_the_ring(self):
        phi, r = 0.5, 0.2
        lo = orbit_intersection_latitude(phi, r)
        hi = orbit_intersection_latitude(phi, r, upper=True)
        assert lo < phi < hi

    def test_intersection_on_both_boundaries(self):
        phi, r = 0.4, 0.25
        dt = step_theta(r, phi)
        lo = orbit_intersection_latitude(phi, r)
        a = polar_to_cartesian(PolarDirection(0.0, phi))
        b = polar_to_cartesian(PolarDirection(dt, phi))
        u = polar_to_cartesian(PolarDirection(dt / 2.0, lo))
        assert math.isclose(float(np.linalg.norm(u - a)), r, abs_tol=1e-9)
        assert math.isclose(float(np.linalg.norm(u - b)), r, abs_tol=1e-9)


def test_r_min_from_samples_is_scaled_median():
    assert r_min_from_samples([1.0, 3.0, 2.0], 0.5) == 1.0
    assert r_min_from_samples([4.0], 0.25) == 1.0


class TestCoverCapRecurse:
    def test_all_centers_pass(self):
        calls = []

        def evaluate(v):
            calls.append(v)
            return 0.01, 1.0

        ok, records, residual, max_dis = cover_cap_recurse(
            evaluate, np.array([0.0, 0.0, 1.0]), 0.4, 1, rescue=False
        )
        assert ok
        assert len(records) == 8
        assert not residual
        assert math.isclose(max_dis, 0.01)

    def test_depth_exhaustion_leaves_residual(self):
        def evaluate(v):
            return 0.01, 1e-9

        ok, records, residual, _ = cover_cap_recurse(
            evaluate, np.array([0.0, 0.0, 1.0]), 0.4, 0, rescue=False
        )
        assert not ok
        assert len(residual) == 8
        for _, req in residual:
            assert math.isclose(req, 0.2)

    def test_recursion_halves_requirement(self):
        seen = []

        def evaluate(v):
            seen.append(v)
            # Fail the first batch, pass everything at the next depth.
            return 0.01, (0.1 if len(seen) <= 8 else 1.0)

        ok, records, residual, _ = cover_cap_recurse(
            evaluate, np.array([0.0, 0.0, 1.0]), 0.4, 2, rescue=False
        )
        assert ok and not residual

    def test_swallow_rescue_triggers_near_equator(self):
        # A center pinned to the z = 0 plane with a cratered radius must be
        # rescued by one larger ball pushed off the plane, when such a ball
        # exists (radius grows faster than distance from the plane).
        def evaluate(v):
            dist = abs(float(v[2]))
            return 0.01, max(1e-9, 1.7 * dist)

        v = np.array([1.0, 0.0, 1e-6])
        v /= np.linalg.norm(v)
        ok, records, residual, _ = cover_cap_recurse(evaluate, v, 1e-4, 0, rescue=True)
        assert ok and not residual
        assert len(records) == 1
        assert records[0].origin == "cover_cap"


class TestBandTest:
    def test_random_rings_agree_with_the_loop(self):
        rng = np.random.default_rng(7)
        decisions = {True: 0, False: 0}
        for _ in range(200):
            phi = float(rng.uniform(-1.3, 1.3))
            lo = float(rng.uniform(0.0, 1.0))
            hi = lo + float(rng.uniform(0.05, 3.0))
            balls = walked_ring(rng, phi, lo, hi)
            covered = _band_test(phi, balls, lo, hi)
            for psi in (phi + np.linspace(-0.2, 0.2, 41)).tolist():
                expect = reference_covered(phi, balls, lo, hi, psi)
                assert covered(psi) == expect, (phi, balls, lo, hi, psi)
                decisions[expect] += 1
        assert min(decisions.values()) > 1000

    @pytest.mark.parametrize(
        "phi, balls, lo, hi, psi, expect",
        [
            # one ball reaches psi at every longitude (q <= -1), the others not
            pytest.param(0.2, [(0.0, 0.01), (0.5, 1.99), (1.0, 0.01)], 0.0, 1.0, 0.2, True,
                         id="q-below-minus-one"),
            # no ball reaches psi (every q >= 1): no intervals at all
            pytest.param(0.2, [(0.0, 0.1), (0.1, 0.1)], 0.0, 0.1, 0.5, False, id="all-q-above-one"),
            pytest.param(0.2, [(0.0, 0.1)], 0.3, 0.3, 0.5, True, id="no-intervals-empty-range"),
            pytest.param(*tied_start_ring(), True, id="tied-starts"),
            pytest.param(0.4, [(0.0, 0.2), (0.0, 0.2), (0.2, 0.2)], 0.0, 0.3, 0.41, True,
                         id="duplicate-balls"),
            # the first interval starts just past theta_lo, then within 1e-12 of it
            pytest.param(0.0, [(W02 + 1e-9, 0.2), (0.3, 0.2)], 0.0, 0.5, 0.0, False,
                         id="gap-after-theta-lo"),
            pytest.param(0.0, [(W02 + 1e-13, 0.2), (0.3, 0.2)], 0.0, 0.5, 0.0, True,
                         id="start-within-tolerance"),
            pytest.param(0.5, [(0.3, 0.5)], 0.0, 0.6, 0.55, True, id="single-ball-covers"),
            pytest.param(0.5, [(0.3, 0.2)], 0.0, 0.6, 0.5, False, id="single-ball-short"),
            # cos(psi) < 0: a ball covers all of psi or none of it
            pytest.param(0.2, [(0.0, 1.9)], 0.0, 1.0, 1.6, True, id="denominator-negative-hit"),
            pytest.param(0.2, [(0.0, 0.1)], 0.0, 1.0, 1.6, False, id="denominator-negative-miss"),
        ],
    )
    def test_edge_cases_agree_with_the_loop(self, phi, balls, lo, hi, psi, expect):
        assert reference_covered(phi, balls, lo, hi, psi) == expect
        assert _band_test(phi, balls, lo, hi)(psi) == expect

    @pytest.mark.parametrize("n, structure", [(20, "twisted"), (14, "polar")])
    def test_walked_rings_give_the_same_band(self, n, structure, monkeypatch):
        rings = []
        original = _Engine._orbit_band

        def recording(self, phi, r_min, balls, spans):
            band = original(self, phi, r_min, balls, spans)
            rings.append((self, phi, r_min, list(balls), spans, band))
            return band

        monkeypatch.setattr(_Engine, "_orbit_band", recording)
        cover_region(*conjecture_setup(n, structure))
        assert len(rings) > 10
        # Same step-out and bisection, with the loop as the band test.
        monkeypatch.setattr(covering, "_band_test", reference_band_test)
        for engine, phi, r_min, balls, spans, band in rings:
            assert original(engine, phi, r_min, balls, spans) == band


class TestCoverRegion:
    def test_small_region_covered_and_sound(self):
        n = 12
        ps = generate_twisted_polar(n)
        d = north_pole_directed(n)
        region = Region(0.6, 0.9, 0.0, 0.8)
        params = CoverParams(d=d, region=region, cover_cap_max_depth=8)
        outcome = cover_region(ps, params)
        assert outcome.status == "covered"
        assert outcome.counters["n_DD"] > 0
        assert outcome.counters["n_CC"] <= outcome.counters["n_DD"]
        # Every certified ball satisfies the hypothesis with the 1/t slack.
        dirs = np.array([polar_to_cartesian(r.direction) for r in outcome.records])
        vals = directed_values(ps.points, dirs)
        assert (vals <= d - 1.0 / ps.size + 1e-12).all()

    def test_tiny_bound_reports_counterexample(self):
        ps = generate_twisted_polar(8)
        params = CoverParams(d=1e-9, region=Region(0.0, 0.5, 0.0, 1.0))
        outcome = cover_region(ps, params)
        assert outcome.status == "counterexample"
        assert outcome.counterexample is not None
        assert outcome.counterexample.value + 1.0 / ps.size > 1e-9

    def test_rejects_trivial_point_set(self):
        ps = generate_random_uniform(1, seed=0)
        with pytest.raises(ValueError):
            cover_region(ps, CoverParams(d=0.5, region=Region(0.0, 0.1, 0.0, 0.1)))

    def test_coincident_points_are_rejected(self):
        # Every point repeated 4 times once drove phase 1 into ever smaller
        # orbits that never reached phi_min.  A subprocess with a timeout
        # turns a regression into a failure instead of a hung suite.
        script = textwrap.dedent(
            """
            import numpy as np
            from capdisc.covering import CoverParams, cover_region
            from capdisc.discrepancy import directed_values
            from capdisc.geometry import Region
            from capdisc.pointsets import PointSet, generate_random_uniform
            from capdisc.reporting import sample_region_directions

            ps = PointSet(np.repeat(generate_random_uniform(12, seed=0).points, 4, axis=0))
            region = Region(0.3, 0.5, 0.0, 0.4)
            probes = sample_region_directions(region, 20_000, np.random.default_rng(0))
            d = float(directed_values(ps.points, probes).max()) + 1.02 / ps.size
            try:
                cover_region(ps, CoverParams(d=d, region=region))
            except ValueError as exc:
                print(exc)
            """
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == (
            "point set row 1 repeats row 0; coincident points are not supported"
        )

    def test_counters_structure(self):
        ps = generate_twisted_polar(9)
        d = north_pole_directed(9)
        params = CoverParams(d=d, region=Region(0.8, 1.0, 0.0, 0.3))
        outcome = cover_region(ps, params)
        for key in (
            "n_DD",
            "n_CC",
            "n_cover_cap_dirs",
            "n_evaluations",
            "n_orbits",
            "r_min_global",
            "r_min_median",
        ):
            assert key in outcome.counters
        assert outcome.counters["n_evaluations"] >= outcome.counters["n_DD"]
        assert outcome.counters["r_min_global"] <= outcome.counters["r_min_median"]


def test_params_validation():
    region = Region(0.0, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        CoverParams(d=0.0, region=region)
    with pytest.raises(ValueError):
        CoverParams(d=0.5, region=region, orbit_sample_count=0)
    with pytest.raises(ValueError):
        CoverParams(d=0.5, region=region, r_min_factor=1.5)


def test_estimate_orbit_r_min_positive():
    ps = generate_twisted_polar(12)
    d = north_pole_directed(12)
    params = CoverParams(d=d, region=Region(0.0, 1.2, 0.0, math.pi))
    r = estimate_orbit_r_min(ps, 0.8, params)
    assert r > 0.0
