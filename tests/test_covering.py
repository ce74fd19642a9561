import math
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from capdisc.covering import (
    BallSpansOrbit,
    CoverParams,
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
from capdisc.polar_analysis import north_pole_directed


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
