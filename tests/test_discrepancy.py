import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capdisc.discrepancy import (
    HypothesisViolation,
    ProjectionProfile,
    SizeLimitExceeded,
    _cap_counts,
    _sweep,
    confidence_radius,
    directed_discrepancy,
    directed_values,
    naive_discrepancy,
    project,
    slab_min_width,
)
from capdisc.geometry import PolarDirection, polar_to_cartesian
from capdisc.pointsets import (
    PointSet,
    generate_polar,
    generate_random_uniform,
    generate_twisted_polar,
)
from capdisc.polar_analysis import north_pole_directed

from conftest import uniform_directions

Z = np.array([0.0, 0.0, 1.0])


def reference_directed(s) -> float:
    """Tie-aware brute force: both legitimate cap counts at every distinct height."""
    s = [float(x) for x in s]
    t = len(s)
    best = 0.0
    for h in set(s):
        area = (1.0 - h) / 2.0
        n_incl = sum(1 for x in s if x >= h)
        n_excl = sum(1 for x in s if x > h)
        best = max(best, abs(n_incl / t - area), abs(n_excl / t - area))
    return best


def _sweep_cases():
    # Polar sets along the coordinate axes tie many projections (rings and
    # mirror planes); random sets in random directions tie none.  At the
    # twisted n=20 direction an argmax over rounded `counts - 1/t - area`
    # candidates once elected a height just short of the true maximum.
    for n in range(3, 11):
        for name, v in zip("xyz", np.eye(3)):
            yield pytest.param(generate_polar(n), v, id=f"polar{n}-{name}")
    for seed in range(6):
        ps = generate_random_uniform(5 + 11 * seed, seed=seed)
        for k, v in enumerate(uniform_directions(4, seed=100 + seed)):
            yield pytest.param(ps, v, id=f"random{ps.size}-{k}")
    pinned = PolarDirection(3.217627181741856, 1.2145896637552251)
    yield pytest.param(
        generate_twisted_polar(20), polar_to_cartesian(pinned), id="twisted20-pinned"
    )


class TestDirectedDiscrepancy:
    def test_north_pole_matches_ring_count_oracle(self):
        # Independent computation: generic projection sweep at the pole must
        # agree with the analytic ring-count value for the polar structure.
        for n in (5, 9, 15, 20):
            ps = generate_polar(n)
            res = directed_discrepancy(project(ps, Z))
            assert math.isclose(res.value, north_pole_directed(n), abs_tol=1e-12)

    def test_antipodal_symmetry(self):
        ps = generate_random_uniform(37, seed=2)
        for v in uniform_directions(25, seed=11):
            a = directed_discrepancy(project(ps, v)).value
            b = directed_discrepancy(project(ps, -v)).value
            assert math.isclose(a, b, abs_tol=1e-12)

    def test_single_point_value_is_one(self):
        # The cap shrunk onto the lone point holds all the mass over zero area.
        ps = PointSet(np.array([[0.0, 0.0, 1.0]]))
        res = directed_discrepancy(project(ps, Z))
        assert math.isclose(res.value, 1.0, abs_tol=1e-15)

    def test_witness_reproduces_value(self):
        ps = generate_random_uniform(50, seed=5)
        for v in uniform_directions(10, seed=12):
            res = directed_discrepancy(project(ps, v))
            s = ps.points @ v
            count = (s >= res.witness_height).sum() if res.witness_inclusive else (
                s > res.witness_height
            ).sum()
            area = (1.0 - res.witness_height) / 2.0
            assert math.isclose(abs(count / ps.size - area), res.value, abs_tol=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10_000), t=st.integers(2, 60))
    def test_vectorized_matches_scalar(self, seed, t):
        ps = generate_random_uniform(t, seed=seed)
        dirs = uniform_directions(5, seed=seed + 1)
        vals = directed_values(ps.points, dirs)
        for v, expect in zip(dirs, vals):
            assert math.isclose(
                directed_discrepancy(project(ps, v)).value, expect, abs_tol=1e-12
            )


class TestOneSweep:
    @pytest.mark.parametrize("ps, v", _sweep_cases())
    def test_every_path_equals_the_brute_force(self, ps, v):
        prof = project(ps, v)
        expect = reference_directed(prof.values)
        assert confidence_radius(prof, 1.0).directed_value == expect
        # A one-row batch projects with the same rounding as `project`.
        assert directed_values(ps.points, v[None, :])[0] == expect
        res = directed_discrepancy(prof)
        assert res.value == expect
        # The witness attains the value with the count it claims.
        s, h = prof.values, res.witness_height
        count = int((s >= h).sum()) if res.witness_inclusive else int((s > h).sum())
        assert abs(count / ps.size - (1.0 - h) / 2.0) == res.value

    def test_batched_directions_equal_the_brute_force(self):
        ps = generate_polar(6)
        dirs = np.vstack([np.eye(3), uniform_directions(20, seed=3)])
        s = np.sort(ps.points @ dirs.T, axis=0)
        expect = [reference_directed(s[:, j]) for j in range(len(dirs))]
        assert directed_values(ps.points, dirs, chunk=7).tolist() == expect


class TestKernel:
    def test_count_template_is_read_only(self):
        counts = _cap_counts(5)
        with pytest.raises(ValueError):
            counts[0, 0] = 0.5
        with pytest.raises(ValueError):
            counts.reshape(2, 5, 1)[1, 0, 0] = 0.5
        assert _cap_counts(5)[0, 0] == 1.0

    def test_directed_value_is_the_sweep_maximum(self):
        # t = 2, tied projections (polar sets along their axes) and random
        # sets, with sizes interleaved so that a template cached under the
        # wrong t would be picked up.
        profiles = [
            project(generate_random_uniform(2, seed=0), Z),
            project(PointSet(np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])), np.eye(3)[0]),
        ]
        for n in (3, 5, 8, 5, 3):
            profiles += [project(generate_polar(n), v) for v in np.eye(3)]
        for t in (2, 17, 2, 64, 17, 301, 64):
            ps = generate_random_uniform(t, seed=t)
            profiles += [project(ps, v) for v in uniform_directions(3, seed=t)]
        for prof in profiles:
            t = prof.size
            expect = np.arange(t, -1, -1) / t
            assert _cap_counts(t).tolist() == [expect[:-1].tolist(), expect[1:].tolist()]
            assert confidence_radius(prof, 2.0).directed_value == float(_sweep(prof.values).max())


class TestSlabWidth:
    def test_known_profile(self):
        prof = ProjectionProfile(Z, np.array([-0.5, -0.1, 0.2, 0.9]))
        assert math.isclose(slab_min_width(prof, 1), 0.3, abs_tol=1e-15)
        assert math.isclose(slab_min_width(prof, 2), 0.7, abs_tol=1e-15)
        assert slab_min_width(prof, 4) == 2.0

    def test_monotone_in_k(self):
        ps = generate_random_uniform(80, seed=3)
        prof = project(ps, Z)
        widths = [slab_min_width(prof, k) for k in range(1, 20)]
        assert all(a <= b + 1e-15 for a, b in zip(widths, widths[1:]))


class TestConfidenceRadius:
    def test_k_formula(self):
        ps = generate_random_uniform(100, seed=4)
        prof = project(ps, Z)
        dis = directed_discrepancy(prof).value
        d = dis + 3.7 / ps.size
        ball = confidence_radius(prof, d)
        assert ball.k == math.floor(ps.size * (d - dis)) + 1
        assert ball.radius == slab_min_width(prof, ball.k)

    def test_rejects_hypothesis_violation(self):
        ps = generate_random_uniform(100, seed=4)
        prof = project(ps, Z)
        dis = directed_discrepancy(prof).value
        with pytest.raises(HypothesisViolation):
            confidence_radius(prof, dis + 0.5 / ps.size)

    def test_ball_is_sound(self, rng):
        # Probes inside the ball must keep their directed value at or below d.
        ps = generate_random_uniform(60, seed=9)
        for v in uniform_directions(5, seed=21):
            prof = project(ps, v)
            dis = directed_discrepancy(prof).value
            d = dis + 2.5 / ps.size
            ball = confidence_radius(prof, d)
            if ball.radius <= 0.0:
                continue
            w = rng.normal(size=(200, 3))
            w /= np.linalg.norm(w, axis=1)[:, None]
            tang = w - (w @ v)[:, None] * v[None, :]
            tang /= np.linalg.norm(tang, axis=1)[:, None]
            chord = np.sqrt(rng.uniform(0, 1, 200)) * ball.radius * 0.999
            ang = 2.0 * np.arcsin(np.clip(chord / 2.0, 0.0, 1.0))
            probes = np.cos(ang)[:, None] * v[None, :] + np.sin(ang)[:, None] * tang
            assert (directed_values(ps.points, probes) <= d + 1e-12).all()


class TestNaiveDiscrepancy:
    def test_dominates_direction_grid(self):
        for seed in (0, 1):
            ps = generate_random_uniform(18, seed=seed)
            naive, cap = naive_discrepancy(ps)
            grid_max = directed_values(ps.points, uniform_directions(2000, seed=seed)).max()
            assert naive >= grid_max - 1e-12

    def test_witness_cap_attains_value(self):
        ps = generate_random_uniform(15, seed=6)
        naive, cap = naive_discrepancy(ps)
        res = directed_discrepancy(project(ps, cap.axis))
        assert math.isclose(res.value, naive, abs_tol=1e-12)

    def test_polar_maximum_is_at_the_pole(self):
        # For small polar structures the exact maximum sits on the z-axis.
        for n in (4, 5, 6):
            ps = generate_polar(n)
            naive, cap = naive_discrepancy(ps)
            assert abs(abs(float(cap.axis[2])) - 1.0) < 1e-9
            assert math.isclose(naive, north_pole_directed(n), abs_tol=1e-12)

    def test_size_limit(self):
        ps = generate_random_uniform(30, seed=0)
        with pytest.raises(SizeLimitExceeded):
            naive_discrepancy(ps, limit=20)
