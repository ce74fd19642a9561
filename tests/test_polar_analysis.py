import math

import numpy as np
import pytest

import capdisc
from capdisc import covering, geometry
from capdisc.discrepancy import directed_discrepancy, project
from capdisc.pointsets import generate_polar, polar_orbits
from capdisc.polar_analysis import (
    NORTH_BOUND_CONSTANT,
    conjecture_check,
    north_pole_directed,
    north_pole_local_radius,
    orbit_sums,
    phi_max_from_radius,
)

Z = np.array([0.0, 0.0, 1.0])


class TestOrbitSums:
    def test_telescoping_counts(self):
        for n in (6, 11, 15):
            sums = orbit_sums(n)
            counts = [orb.count for orb in polar_orbits(n)]
            assert sums.sums[0] == sums.t
            assert sums.sums[n] == 1
            for j in range(1, n):
                assert sums.sums[j] - sums.sums[j + 1] == counts[j - 1]

    def test_monotone_decreasing(self):
        sums = orbit_sums(12)
        assert all(a > b for a, b in zip(sums.sums, sums.sums[1:]))


class TestNorthPoleDirected:
    def test_matches_generic_projection(self):
        for n in (4, 8, 15, 23):
            ps = generate_polar(n)
            generic = directed_discrepancy(project(ps, Z)).value
            assert math.isclose(north_pole_directed(n), generic, abs_tol=1e-12)

    def test_scaling_bound(self):
        for n in range(2, 60):
            t = generate_polar(n).size
            assert north_pole_directed(n) <= NORTH_BOUND_CONSTANT * n / t + 1e-12


class TestLocalRadius:
    def test_positive_and_shrinking(self):
        radii = [north_pole_local_radius(n) for n in (5, 10, 20, 40)]
        assert all(r > 0.0 for r in radii)
        assert all(a > b for a, b in zip(radii, radii[1:]))

    def test_phi_max_inverse(self):
        for r in (0.05, 0.3, 1.0):
            phi_max = phi_max_from_radius(r)
            # The chord from the pole to latitude phi_max is exactly r.
            chord = 2.0 * math.sin((math.pi / 2 - phi_max) / 2.0)
            assert math.isclose(chord, r, abs_tol=1e-12)
        # one function, which phase 1 also calls for the latitude its pole ball covers
        assert phi_max_from_radius is capdisc.phi_max_from_radius is geometry.phi_max_from_radius
        assert covering.phi_max_from_radius is geometry.phi_max_from_radius

    def test_no_ring_inside_pole_ball(self):
        # Directions within the radius of the pole must see at most one ring
        # boundary crossing: the certified phi_max stays above every ring.
        for n in (6, 12):
            phi_max = phi_max_from_radius(north_pole_local_radius(n))
            ring_phis = [orb.phi for orb in polar_orbits(n)]
            assert phi_max < math.pi / 2
            assert phi_max > max(p for p in ring_phis if p < math.pi / 2) - math.pi / n


class TestConjectureCheck:
    def test_small_twisted_run_is_covered(self):
        outcome, cert = conjecture_check(15)
        assert outcome.status == "covered"
        assert cert.n == 15
        assert math.isclose(cert.north_value, north_pole_directed(15), abs_tol=1e-15)
        assert cert.bound_constant_check <= NORTH_BOUND_CONSTANT + 1e-12
        assert 0.0 < cert.phi_max < math.pi / 2

    def test_rejects_unknown_structure(self):
        with pytest.raises(ValueError):
            conjecture_check(15, structure="fibonacci")
