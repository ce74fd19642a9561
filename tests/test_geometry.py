import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from capdisc.geometry import (
    Region,
    cartesian_to_polar,
    cover_cap_centers,
    orthonormal_frame,
    polar_to_cartesian,
    random_unit_vectors,
)

from conftest import uniform_directions


def reference_frame(center):
    """The np.cross construction of `orthonormal_frame`."""
    a = np.zeros(3)
    a[int(np.argmin(np.abs(center)))] = 1.0
    e1 = np.cross(center, a)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(center, e1)
    return e1, e2


def reference_centers(center, r):
    """The 8 Cover Cap centers built one array at a time on `reference_frame`."""
    chord = 0.86 * r
    sin_lat = (2.0 - chord * chord) / 2.0
    cos_lat = math.sqrt(max(0.0, 1.0 - sin_lat * sin_lat))
    e1, e2 = reference_frame(center)
    out = [center]
    for k in range(7):
        ang = 2.0 * math.pi * k / 7.0
        out.append(cos_lat * (math.cos(ang) * e1 + math.sin(ang) * e2) + sin_lat * center)
    return np.array(out)


class TestPolarConversion:
    @settings(max_examples=200, deadline=None)
    @given(
        theta=st.floats(0.0, 2.0 * math.pi, exclude_max=True),
        phi=st.floats(-math.pi / 2 + 1e-9, math.pi / 2 - 1e-9),
    )
    def test_round_trip(self, theta, phi):
        v = polar_to_cartesian(theta, phi)
        assert math.isclose(float(np.linalg.norm(v)), 1.0, abs_tol=1e-12)
        back = cartesian_to_polar(v)
        u = polar_to_cartesian(*back)
        assert float(np.linalg.norm(u - v)) < 1e-8

    def test_pole_theta_convention(self):
        assert cartesian_to_polar(np.array([0.0, 0.0, 1.0])) == (0.0, math.pi / 2)

    def test_theta_range(self):
        theta, _ = cartesian_to_polar(np.array([0.0, -1.0, 0.0]))
        assert 0.0 <= theta < 2.0 * math.pi

    def test_theta_that_rounds_up_to_2pi_wraps_to_0(self):
        # atan2 gives -1e-300, and -1e-300 + 2 pi rounds to 2 pi.
        assert math.atan2(-1e-300, 1.0) + 2.0 * math.pi == 2.0 * math.pi
        assert cartesian_to_polar(np.array([1.0, -1e-300, 0.0])) == (0.0, 0.0)


HALF_PI = math.pi / 2


class TestRegion:
    def test_rejects_out_of_order(self):
        with pytest.raises(ValueError):
            Region(1.0, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            Region(0.0, 1.0, 2.0, 1.0)

    @pytest.mark.parametrize(
        "bounds",
        [
            (math.nan, 1.0, 0.0, 1.0),
            (0.0, math.nan, 0.0, 1.0),
            (0.0, 1.0, math.nan, 1.0),
            (0.0, 1.0, 0.0, math.nan),
            (-math.inf, 1.0, 0.0, 1.0),
            (0.0, 1.0, 0.0, math.inf),
            (0.0, 1.0, -math.inf, 1.0),
            (-5.0, 1.0, 0.0, 1.0),
            (0.0, 5.0, 0.0, 1.0),
            (-HALF_PI, math.nextafter(HALF_PI, 2.0), 0.0, 1.0),
            (math.nextafter(-HALF_PI, -2.0), 0.0, 0.0, 1.0),
        ],
    )
    def test_rejects_non_finite_and_out_of_range(self, bounds):
        with pytest.raises(ValueError):
            Region(*bounds)

    @pytest.mark.parametrize(
        "bounds",
        [
            (-HALF_PI, HALF_PI, 0.0, 2.0 * math.pi),
            (-HALF_PI, -HALF_PI, 0.0, 0.0),
            (HALF_PI, HALF_PI, -1.0, 1.0),
            (0, 1, 0, 1),
            (np.float64(-HALF_PI), np.float64(0.5), 0.0, 1.0),
        ],
    )
    def test_accepts_closed_latitude_range(self, bounds):
        assert Region(*bounds).phi_min == bounds[0]


class TestFrame:
    def test_orthonormal(self):
        for v in uniform_directions(50, seed=3):
            e1, e2 = orthonormal_frame(v)
            for a, b in ((e1, e2), (e1, v), (e2, v)):
                assert abs(float(a @ b)) < 1e-12
            assert math.isclose(float(np.linalg.norm(e1)), 1.0, abs_tol=1e-12)
            assert math.isclose(float(np.linalg.norm(e2)), 1.0, abs_tol=1e-12)


SQRT2 = math.sqrt(2.0)
EDGE_RADII = np.array([1e-7, SQRT2, 0.3])
BAD_RADII = st.sampled_from([0.0, -0.0, -1e-7, SQRT2 + 1e-9, 2.0, math.nan, math.inf])
# Components on, near or off the axes; tied magnitudes come from the draws below.
_COMPONENT = st.one_of(st.sampled_from([0.0, -0.0, 0.5, -0.5, 1e-9]), st.floats(-1.0, 1.0))


@st.composite
def center_stacks(draw):
    """(m, 3) unit centers, with zero and tied |components|, and (m,) radii in (0, sqrt(2)]."""
    rows, radii = [], []
    for _ in range(draw(st.integers(1, 8))):
        c = [draw(_COMPONENT) for _ in range(3)]
        if draw(st.booleans()):  # tie two magnitudes: np.argmin takes the first
            i, j = draw(st.permutations(range(3)))[:2]
            c[j] = math.copysign(c[i], draw(st.sampled_from([1.0, -1.0])))
        v = np.array(c)
        norm = float(np.linalg.norm(v))
        rows.append(v / norm if norm > 1e-3 else np.array([0.0, 0.0, 1.0]))
        radii.append(draw(st.one_of(st.sampled_from([1e-7, SQRT2]), st.floats(1e-7, SQRT2))))
    return np.array(rows), np.array(radii)


class TestCoverCapCenters:
    def test_equal_to_the_cross_product_reference(self, rng):
        # Random centers, signed axes and centers with zero or tied
        # components (np.argmin takes the first of tied minima).
        centers = list(random_unit_vectors(rng, 10_000))
        for axis in np.vstack([np.eye(3), -np.eye(3)]):
            centers.append(axis)
        s = math.sqrt(0.5)
        centers += [np.array(c) for c in ([s, s, 0.0], [0.0, -s, s], [-s, 0.0, -s], [0.6, 0.0, -0.8])]
        radii = math.sqrt(2.0) * (1.0 - rng.random(len(centers)))  # in (0, sqrt(2)]
        radii[:3] = math.sqrt(2.0)
        for v, r in zip(centers, radii.tolist()):
            e1, e2 = orthonormal_frame(v)
            f1, f2 = reference_frame(v)
            assert e1.tobytes() == f1.tobytes() and e2.tobytes() == f2.tobytes(), v
            assert cover_cap_centers(v, r).tobytes() == reference_centers(v, r).tobytes(), (v, r)

    @settings(max_examples=200, deadline=None)
    @given(stack=center_stacks())
    # Axis centers with zero components, signed zeros, and both ends of the radius range.
    @example(stack=(np.array([[0.0, 0.0, 1.0], [0.6, 0.0, -0.8], [0.0, -0.0, -1.0]]), EDGE_RADII))
    def test_a_stack_equals_its_one_center_calls(self, stack):
        centers, radii = stack
        got = cover_cap_centers(centers, radii)
        assert got.shape == (len(centers), 8, 3)
        for block, v, r in zip(got, centers, radii.tolist()):
            assert block.tobytes() == cover_cap_centers(v, r).tobytes()
            assert block.tobytes() == reference_centers(v, r).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(stack=center_stacks(), bad=st.lists(st.tuples(st.integers(0, 7), BAD_RADII), min_size=1))
    def test_a_stack_names_its_first_bad_radius(self, stack, bad):
        centers, radii = stack
        for row, r in bad:
            radii[row % len(radii)] = r
        first = min(row % len(radii) for row, _ in bad)
        message = rf"in row {first}: {re.escape(repr(float(radii[first])))}$"
        with pytest.raises(ValueError, match=message):
            cover_cap_centers(centers, radii)

    def test_count_and_layout(self):
        v = np.array([0.0, 0.0, 1.0])
        centers = cover_cap_centers(v, 0.5)
        assert len(centers) == 8
        assert np.allclose(centers[0], v)
        for c in centers[1:]:
            assert math.isclose(float(np.linalg.norm(c - v)), 0.86 * 0.5, abs_tol=1e-12)
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
