import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capdisc.geometry import (
    PolarDirection,
    Region,
    cartesian_to_polar,
    chord_distance,
    cover_cap_centers,
    orthonormal_frame,
    polar_to_cartesian,
    random_unit_vectors,
    unit_vector,
)

from conftest import uniform_directions


class TestUnitVector:
    def test_accepts_unit(self):
        v = unit_vector(0.0, 0.0, 1.0)
        assert np.allclose(v, [0, 0, 1])

    def test_renormalizes_near_unit(self):
        v = unit_vector(1.0 + 1e-8, 0.0, 0.0)
        assert math.isclose(float(np.linalg.norm(v)), 1.0, abs_tol=1e-15)

    def test_rejects_far_from_unit(self):
        with pytest.raises(ValueError):
            unit_vector(1.0, 1.0, 0.0)


class TestPolarConversion:
    @settings(max_examples=200, deadline=None)
    @given(
        theta=st.floats(0.0, 2.0 * math.pi, exclude_max=True),
        phi=st.floats(-math.pi / 2 + 1e-9, math.pi / 2 - 1e-9),
    )
    def test_round_trip(self, theta, phi):
        d = PolarDirection(theta, phi)
        v = polar_to_cartesian(d)
        assert math.isclose(float(np.linalg.norm(v)), 1.0, abs_tol=1e-12)
        back = cartesian_to_polar(v)
        u = polar_to_cartesian(back)
        assert float(np.linalg.norm(u - v)) < 1e-8

    def test_pole_theta_convention(self):
        assert cartesian_to_polar(np.array([0.0, 0.0, 1.0])) == PolarDirection(
            0.0, math.pi / 2
        )

    def test_theta_range(self):
        d = cartesian_to_polar(np.array([0.0, -1.0, 0.0]))
        assert 0.0 <= d.theta < 2.0 * math.pi


class TestRegion:
    def test_rejects_out_of_order(self):
        with pytest.raises(ValueError):
            Region(1.0, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            Region(0.0, 1.0, 2.0, 1.0)


class TestFrame:
    def test_orthonormal(self):
        for v in uniform_directions(50, seed=3):
            e1, e2 = orthonormal_frame(v)
            for a, b in ((e1, e2), (e1, v), (e2, v)):
                assert abs(float(a @ b)) < 1e-12
            assert math.isclose(float(np.linalg.norm(e1)), 1.0, abs_tol=1e-12)
            assert math.isclose(float(np.linalg.norm(e2)), 1.0, abs_tol=1e-12)


class TestCoverCapCenters:
    def test_count_and_layout(self):
        v = np.array([0.0, 0.0, 1.0])
        centers = cover_cap_centers(v, 0.5)
        assert len(centers) == 8
        assert np.allclose(centers[0], v)
        for c in centers[1:]:
            assert math.isclose(chord_distance(c, v), 0.86 * 0.5, abs_tol=1e-12)
            assert math.isclose(float(np.linalg.norm(c)), 1.0, abs_tol=1e-12)

    def test_rejects_bad_radius(self):
        v = np.array([0.0, 0.0, 1.0])
        with pytest.raises(ValueError):
            cover_cap_centers(v, 0.0)
        with pytest.raises(ValueError):
            cover_cap_centers(v, 1.5)

    def test_half_radius_caps_cover_parent(self, rng):
        # Random points in the parent cap must land in one of the 8 children.
        for r in (0.1, 0.7, 1.2, math.sqrt(2)):
            v = np.array([0.0, 0.0, 1.0])
            centers = np.array(cover_cap_centers(v, r))
            m = 2000
            w = rng.normal(size=(m, 3))
            w /= np.linalg.norm(w, axis=1)[:, None]
            tang = w - (w @ v)[:, None] * v[None, :]
            tang /= np.linalg.norm(tang, axis=1)[:, None]
            chord = np.sqrt(rng.uniform(0, 1, m)) * r
            ang = 2 * np.arcsin(np.clip(chord / 2, 0, 1))
            u = np.cos(ang)[:, None] * v[None, :] + np.sin(ang)[:, None] * tang
            d2 = ((u[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
            assert (d2.min(axis=1) <= (r / 2) ** 2 + 1e-12).all()


def test_random_unit_vectors_are_unit():
    rng = np.random.default_rng(0)
    vs = random_unit_vectors(rng, 1000)
    assert np.allclose(np.linalg.norm(vs, axis=1), 1.0, atol=1e-12)
