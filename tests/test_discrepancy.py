import bisect
import json
import math
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from capdisc import covering, discrepancy
from capdisc.discrepancy import (
    HypothesisViolation,
    ProjectionProfile,
    SizeLimitExceeded,
    _DIS_SLACK32,
    _candidate_axes,
    _bounded_radii,
    _dis,
    _even_heights,
    _radii,
    _slab_width,
    _sorted_blocks,
    confidence_radii,
    confidence_radius,
    directed_discrepancy,
    directed_values,
    naive_discrepancy,
    project,
)
from capdisc.geometry import polar_to_cartesian
from capdisc.pointsets import (
    PointSet,
    generate_polar,
    generate_random_uniform,
    generate_twisted_polar,
)
from capdisc.polar_analysis import conjecture_setup, north_pole_directed
from capdisc.reporting import sample_region_directions

from conftest import count_table_dis, uniform_directions

Z = np.array([0.0, 0.0, 1.0])


def reference_directed(s) -> float:
    """Tie-aware brute force: both legitimate cap counts at every distinct height.

    A height h held by the sorted projections a..b has t - a points in its
    inclusive cap and t - 1 - b in its exclusive one, whose doubled
    deviations from 2 area = 1 - h are (h - m_a) + 1/t and 1/t - (h - m_b),
    m_i = (2i + 1 - t)/t rounded once: Dis is half the larger plus 1/t, with
    the rounding of the engine's closed form.
    """
    s = sorted(float(x) for x in s)
    t = len(s)
    best = 0.0
    for h in set(s):
        first = bisect.bisect_left(s, h)  # t - first points with x >= h
        last = bisect.bisect_right(s, h) - 1  # t - 1 - last points with x > h
        best = max(best, h - (2 * first + 1 - t) / t, (2 * last + 1 - t) / t - h)
    return (best + 1.0 / t) * 0.5


def reference_ball(s, d) -> tuple[float, float]:
    """Brute-force (Dis, radius) of projections `s`: nan if Dis + 1/t > d, 2 if no slab holds k + 1."""
    s = sorted(float(x) for x in s)
    t, dis = len(s), reference_directed(s)
    if dis + 1.0 / t > d:
        return dis, math.nan
    k = int(math.floor(t * (d - dis))) + 1
    return dis, min((s[i + k] - s[i] for i in range(t - k)), default=2.0)


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
    pinned = polar_to_cartesian(3.217627181741856, 1.2145896637552251)
    yield pytest.param(generate_twisted_polar(20), pinned, id="twisted20-pinned")


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
        # A batch projects with the same rounding as `project`.
        assert directed_values(ps.points, v[None, :])[0] == expect
        res = directed_discrepancy(prof)
        assert res.value == expect
        assert np.float64(res.value).tobytes() == np.float64(_dis(prof.values)).tobytes()
        assert_witness_attains(res, prof.values)

    def test_batched_directions_equal_the_brute_force(self):
        ps = generate_polar(6)
        dirs = np.vstack([np.eye(3), uniform_directions(20, seed=3)])
        expect = [reference_directed(project(ps, v).values) for v in dirs]
        assert directed_values(ps.points, dirs).tolist() == expect


# A float64 sweep errs by less than 2**-51: the closed form rounds m_i (2**-53), s_i - m_i
# (below 2 in magnitude: 2**-52), 1/t and the sum with it (below 4: 2**-52), then halves
# exactly; the count table rounds its fractions, 1 - s and the difference, 2**-53 each.
SWEEP_ERROR = Fraction(1, 2**51)


def assert_witness_attains(res, s):
    """The witness cap of `res`, along sorted projections `s`, attains its value with the count it claims.

    The value is the closed form at the witness's index bit for bit, and the
    exact |count/t - area| of the cap within SWEEP_ERROR.
    """
    t, h = len(s), res.witness_height
    count = int((s >= h).sum()) if res.witness_inclusive else int((s > h).sum())
    i = t - count if res.witness_inclusive else t - 1 - count  # the index whose deviation it is
    x = h - (2 * i + 1 - t) / t
    assert ((x if res.witness_inclusive else -x) + 1.0 / t) * 0.5 == res.value
    exact = abs(Fraction(count, t) - (1 - Fraction(h)) / 2)
    assert abs(exact - Fraction(res.value)) <= SWEEP_ERROR


class TestKernel:
    def test_height_template_is_read_only(self):
        heights = _even_heights(5)
        with pytest.raises(ValueError):
            heights[0] = 0.5
        with pytest.raises(ValueError):
            heights.reshape(5, 1)[1, 0] = 0.5
        assert heights.tolist() == [-0.8, -0.4, 0.0, 0.4, 0.8] and _even_heights(5) is heights
        # float32 heights are rounded once: each is the float32 nearest to (2i + 1 - t)/t
        t = 7057
        heights32 = _even_heights(t, np.float32)
        assert heights32.dtype == np.float32 and not heights32.flags.writeable
        for i in range(0, t, 97):
            exact = Fraction(2 * i + 1 - t, t)
            got = heights32[i]
            for other in (np.nextafter(got, np.float32(-2.0)), np.nextafter(got, np.float32(2.0))):
                assert abs(Fraction(float(got)) - exact) <= abs(Fraction(float(other)) - exact)

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
            t = len(prof.values)
            assert _even_heights(t).tolist() == [(2 * i + 1 - t) / t for i in range(t)]
            assert confidence_radius(prof, 2.0).directed_value == reference_directed(prof.values)


def _kernel_cases():
    # Row counts straddle the block sizes: 36 rows at t = 441, 16 at t = 994
    # and 2 at t = 7057 (941 at t = 17).
    tie = PointSet(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))  # both project to 0 on z
    yield pytest.param(tie, np.vstack([Z, uniform_directions(8, seed=1)]), id="t2-tie")
    yield pytest.param(generate_random_uniform(17, seed=4), uniform_directions(41, seed=2), id="random17")
    yield pytest.param(
        generate_twisted_polar(20), uniform_directions(41, seed=3), id="twisted441"
    )
    polar, _ = conjecture_setup(30, "polar")
    yield pytest.param(polar, np.vstack([np.eye(3), uniform_directions(38, seed=5)]), id="polar994")
    yield pytest.param(
        generate_random_uniform(7057, seed=6), uniform_directions(20, seed=7), id="random7057"
    )


class TestBatchedKernel:
    @pytest.mark.parametrize("ps, dirs", _kernel_cases())
    def test_rows_equal_the_one_direction_kernel(self, ps, dirs):
        t = ps.size
        # d = 2 passes every row; d at the median Dis + 1/t flags about half.
        dis_all, _ = confidence_radii(ps.points, dirs, 2.0)
        for d in (2.0, float(np.median(dis_all)) + 1.0 / t):
            flagged = 0
            for m in (1, 7, 8, 9, 16, 17, 20, 41):
                if m > len(dirs):
                    continue
                dis, radius = confidence_radii(ps.points, dirs[:m], d)
                assert dis.shape == radius.shape == (m,)
                for v, dis_v, r_v in zip(dirs[:m], dis.tolist(), radius.tolist()):
                    try:
                        ball = confidence_radius(project(ps, v), d)
                    except HypothesisViolation as exc:
                        assert math.isnan(r_v)
                        assert exc.directed_value == dis_v
                        flagged += 1
                        continue
                    assert np.float64(dis_v).tobytes() == np.float64(ball.directed_value).tobytes()
                    assert np.float64(r_v).tobytes() == np.float64(ball.radius).tobytes()
                assert directed_values(ps.points, dirs[:m]).tobytes() == dis.tobytes()
            assert (flagged > 0) == (d < 2.0)


def reference_dis(s):
    """Dis of sorted rows in the closed form, halved first: the larger of 1/(2t) +- (s_i - m_i)/2 at each i.

    s - m is taken in the dtype of `s`, as `_dis` takes it, with m_i = (2i + 1 - t)/t rounded once.
    """
    t = s.shape[-1]
    m = (2 * np.arange(t) + 1 - t).astype(s.dtype) / s.dtype.type(t)
    half = (s - m).astype(float) * 0.5
    return np.maximum(0.5 / t + half, 0.5 / t - half).max(axis=-1)


def tied_rows(t, rng):
    """(m, t) sorted rows: uniform ones, ones snapped to grids of 2 to 64 steps (runs
    of ties), ones with runs at the ends -1 and 1, and constant ones."""
    rows = [np.sort(rng.uniform(-1.0, 1.0, (24, t)), axis=1)]
    for steps in (2, 5, 64):
        rows.append(np.round(rows[0][:8] * steps) / steps)
    ends = np.sort(rng.choice([-1.0, 1.0, 0.25], (8, t)), axis=1)
    rows += [ends, np.full((1, t), -1.0), np.full((1, t), 1.0), np.zeros((1, t))]
    return np.vstack(rows)


@pytest.mark.parametrize("t", [2, 441, 994, 7057])
def test_doubled_sweep_equals_the_halved_one_bit_for_bit(t):
    rows = tied_rows(t, np.random.default_rng(t))
    tied = (rows[:, 1:] == rows[:, :-1]).any(axis=1)
    assert tied.sum() >= (3 if t == 2 else 20)  # at t = 2 the constant rows at least
    # float64 rows, and the same rows rounded to float32 (still sorted), as phase 1 sweeps them
    for block in (rows, rows.astype(np.float32)):
        expect = reference_dis(block)
        assert _dis(block).dtype == np.float64 and _dis(block).tobytes() == expect.tobytes()
        # A block of 16 rows, as confidence_radii sends at t = 994, and single rows.
        assert _dis(block[:16]).tobytes() == expect[:16].tobytes()
        for row, value in zip(block, expect.tolist()):
            assert np.float64(_dis(row)).tobytes() == np.float64(value).tobytes()


@pytest.mark.parametrize("t", [2, 441, 994, 7057])
def test_the_closed_form_is_the_count_table_sweep_in_exact_arithmetic(t):
    # (max |s_i - m_i| + 1/t) / 2 with the exact m_i = (2i + 1 - t)/t is
    # max over i of max(incl - area, area - excl), on rows with runs of ties:
    # a uniform row, rows on grids of 2, 5 and 64 steps, one with runs at the
    # ends, and the constant rows (all of them at t = 2).
    rows = tied_rows(t, np.random.default_rng(t))
    if t > 2:
        rows = rows[[0, 24, 32, 40, 48, 56, 57, 58]]
    assert (rows[:, 1:] == rows[:, :-1]).any(axis=1).sum() >= 3
    for row in rows:
        s = [Fraction(x) for x in row.tolist()]
        table = max(max(Fraction(t - i, t) - (1 - x) / 2, (1 - x) / 2 - Fraction(t - 1 - i, t)) for i, x in enumerate(s))
        closed = (max(abs(x - Fraction(2 * i + 1 - t, t)) for i, x in enumerate(s)) + Fraction(1, t)) / 2
        assert closed == table
        # Both float64 sweeps round it by less than SWEEP_ERROR.
        assert abs(Fraction(float(_dis(row))) - table) <= SWEEP_ERROR
        assert abs(Fraction(float(count_table_dis(row))) - table) <= SWEEP_ERROR


@pytest.mark.parametrize("t", [2, 441, 994])
def test_directed_discrepancy_has_the_bits_of_dis(t):
    # On rows with runs of ties: the tie-aware witness keeps the value of the
    # sweep that needs no tie handling, and attains it.
    for row in tied_rows(t, np.random.default_rng(t)):
        res = directed_discrepancy(ProjectionProfile(Z, row))
        assert np.float64(res.value).tobytes() == np.float64(_dis(row)).tobytes()
        assert res.value == reference_directed(row)
        assert_witness_attains(res, row)


def mixed_block(t, rng):
    """(m, t) sorted rows: random ones (various k), scaled copies next to each
    other (runs of one k over rows with other slab widths), evenly spread ones
    (Dis = 1/(2t): k = t - 1 at d = 1 - 1/t, k > t - 1 at d = 1) and ones with
    every point at the pole (Dis = 1: nan)."""
    random_rows = np.sort(rng.uniform(-1.0, 1.0, (4, t)), axis=1)
    even = -1.0 + (2.0 * np.arange(t) + 1.0) / t
    near = 1.0 - 1e-12  # scaled copies: the same k, other slab widths
    runs = [[random_rows[0]], [random_rows[1] * near**i for i in range(3)], [even], [np.ones(t)]]
    runs += [[random_rows[2]], [random_rows[3], random_rows[3] * near], [np.ones(t)] * 2]
    runs += [[even, even * near]]
    return np.array([row for i in rng.permutation(len(runs)) for row in runs[i]])


class TestBlockRadii:
    """A block of rows gives each row's Dis, k and radius as a block of one row, bit for bit."""

    @staticmethod
    def assert_rowwise(block, d):
        dis, k, radius = _radii(block, d)
        assert len(dis) == len(k) == len(radius) == len(block)
        for i, row in enumerate(block):
            (dis_i,), (k_i,), (radius_i,) = _radii(row[None], d)
            assert np.float64(dis[i]).tobytes() == np.float64(dis_i).tobytes()
            assert k[i] == k_i
            assert np.float64(radius[i]).tobytes() == np.float64(radius_i).tobytes()
        return k

    @settings(max_examples=60, deadline=None)
    @given(t=st.sampled_from([2, 441, 994]), seed=st.integers(0, 2**32 - 1), d=st.floats(0.01, 1.0))
    def test_blocks_equal_the_row_by_row_results(self, t, seed, d):
        self.assert_rowwise(mixed_block(t, np.random.default_rng(seed)), d)

    @pytest.mark.parametrize("t", [2, 441, 994])
    def test_block_mixes_every_case(self, t):
        block = mixed_block(t, np.random.default_rng(t))
        k = self.assert_rowwise(block, 1.0)
        assert 0 in k  # the pole rows break the hypothesis
        assert max(k) > t - 1  # the evenly spread rows keep radius 2
        if t > 2:  # at t = 2 every passing row has k >= 2 = t
            assert len({x for x in k if 0 < x <= t - 1}) >= 2
            assert any(a == b and 0 < a <= t - 1 for a, b in zip(k, k[1:]))
            # At d = 1 - 1/t the evenly spread rows take k = t - 1, the largest k with a slab.
            assert t - 1 in self.assert_rowwise(block, 1.0 - 1.0 / t)


def _kernel_cases():
    tie = PointSet(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))  # both project to 0 on z
    yield pytest.param(tie, id="t2-tie")
    yield pytest.param(generate_twisted_polar(20), id="twisted441")
    yield pytest.param(conjecture_setup(30, "polar")[0], id="polar994")
    yield pytest.param(generate_random_uniform(7057, seed=6), id="random7057")


class TestWorkspace:
    """A call takes no workspace: it runs a batch in blocks it builds itself, each row with the bits of one direction."""

    @pytest.mark.parametrize("ps", _kernel_cases())
    def test_rows_equal_the_call_without_a_workspace(self, ps):
        # Batches of every length against per-row confidence_radius(project(...)).
        t = ps.size
        rows = max(1, discrepancy._CHUNK_BYTES // (8 * t))
        dirs = np.vstack([Z, uniform_directions(2 * rows, seed=t)])
        d = float(np.median(directed_values(ps.points, dirs))) + 1.0 / t  # flags about half the rows
        expect = []
        for v in dirs:
            try:
                ball = confidence_radius(project(ps, v), d)
                expect.append((ball.directed_value, ball.radius))
            except HypothesisViolation as exc:
                expect.append((exc.directed_value, math.nan))
        expect_dis, expect_radius = np.array(expect).T
        # A full block first, then a short one, and batches that end one row into a block.
        for m in (rows, rows - 1, rows + 1, 2 * rows + 1):
            dis, radius = confidence_radii(ps.points, dirs[:m], d)
            assert dis.tobytes() == expect_dis[:m].tobytes()
            assert radius.tobytes() == expect_radius[:m].tobytes()
            assert directed_values(ps.points, dirs[:m]).tobytes() == expect_dis[:m].tobytes()
        assert abs(np.isnan(radius).sum() - rows) <= 1
        if t > 2:  # the batch mixes nan rows with two k or more; at t = 2 every k >= t
            k = np.floor(t * (d - dis[~np.isnan(radius)])) + 1
            assert len(set(k.tolist())) >= 2

    def test_a_call_without_one_builds_the_rows_of_its_batch(self):
        # Blocks of _CHUNK_BYTES at most, one row at least: 8,000, 36, 16 and 2 rows.
        for case, rows in zip(_kernel_cases(), (8_000, 36, 16, 2)):
            (ps,) = case.values
            t = ps.size
            dirs = np.vstack([Z, uniform_directions(2 * rows, seed=t)])
            blocks = [(lo, s.shape) for lo, s in _sorted_blocks(ps.points, dirs)]
            assert blocks == [(0, (rows, t)), (rows, (rows, t)), (2 * rows, (1, t))]
            assert 8 * t * rows <= discrepancy._CHUNK_BYTES < 8 * t * (rows + 1)
            for lo, s in _sorted_blocks(ps.points, dirs):
                assert s.nbytes <= discrepancy._CHUNK_BYTES
                assert s.tobytes() == np.sort(np.matmul(ps.points, dirs[lo : lo + len(s), :, None])[..., 0]).tobytes()


def assert_same_ball(got, ps, v, d):
    """`got`, a one-direction (dis, radius), has the bits of `confidence_radius(project(ps, v), d)`.

    Where that raises HypothesisViolation, the radius is nan and dis its directed value.
    Both are the brute force's too.  Returns whether it raised.
    """
    dis, radius = got
    expect = reference_ball(project(ps, v).values, d)
    assert np.array(got).tobytes() == np.array(expect).tobytes()
    try:
        ball = confidence_radius(project(ps, v), d)
    except HypothesisViolation as exc:
        assert math.isnan(radius)
        assert np.float64(dis).tobytes() == np.float64(exc.directed_value).tobytes()
        return True
    assert np.float64(dis).tobytes() == np.float64(ball.directed_value).tobytes()
    assert np.float64(radius).tobytes() == np.float64(ball.radius).tobytes()
    return False


def one_row(points, v, d):
    """(Dis, radius) of the direction v as row 0 of a `confidence_radii` stack of one, as floats."""
    (dis,), (radius,) = confidence_radii(points, v[None], d)
    return float(dis), float(radius)


def kernel_calls(ps):
    """(batch, one): the kernel called for a batch, and for one direction as a stack of one row."""
    return (lambda dirs, d: confidence_radii(ps.points, dirs, d)), (lambda v, d: one_row(ps.points, v, d))


def one_row_block_calls(ps, monkeypatch):
    """The kernel with blocks of one row, the least `_sorted_blocks` makes."""
    monkeypatch.setattr(discrepancy, "_CHUNK_BYTES", 8 * ps.size)
    assert [len(s) for _, s in _sorted_blocks(ps.points, np.vstack([Z, Z]))] == [1, 1]
    return kernel_calls(ps)


def engine_calls(ps, monkeypatch):
    """A batch through `_Engine.evaluate_cart`, one direction as `_Engine.orbit_ball` evaluates a ring ball.

    The engine reads only `d` of its params, so a stand-in holds bounds above 1 too.  The
    float32 ring kernel is replaced by the float64 stack of one, so that a ring ball's plumbing
    (its record, its violation) is checked here; TestBoundedRadii checks that kernel's bounds.
    """
    monkeypatch.setattr(covering, "_bounded_radii", lambda points32, points, v, d: one_row(points, v, d))

    def engine(d):
        return covering._Engine(ps, SimpleNamespace(d=d))

    def one(v, d):
        monkeypatch.setattr(covering, "polar_to_cartesian", lambda theta, phi: v.copy())
        e = engine(d)
        try:
            got, radius = e.orbit_ball(0.0, 0.0)
        except HypothesisViolation as exc:
            assert exc.direction.tobytes() == v.tobytes()
            return exc.directed_value, math.nan
        assert got.tobytes() == v.tobytes() and e.orbit[-1][:2] == (got, radius)
        return e.orbit[-1][2], radius

    return (lambda dirs, d: engine(d).evaluate_cart(dirs)), one


class TestOneRow:
    """`confidence_radius(project(ps, v), d)` is row 0 of `confidence_radii(ps.points, v[None], d)`, bit for bit."""

    # Ids as when a call could take a workspace: the plain call builds its own blocks,
    # "one-row-blocks" runs every block of a batch as one row, the engine serves every ring ball.
    @pytest.mark.parametrize(
        "make_calls",
        [
            pytest.param(lambda ps, monkeypatch: kernel_calls(ps), id="no-workspace"),
            pytest.param(one_row_block_calls, id="one-row-blocks"),
            pytest.param(engine_calls, id="engine"),
        ],
    )
    @pytest.mark.parametrize("ps", _kernel_cases())
    def test_rows_equal_project_and_confidence_radius(self, ps, make_calls, monkeypatch):
        # Each row of a batch, and each direction alone as a stack of one; where the
        # float32 kernel falls back to the float64 one, it gives that row's bits.
        t = ps.size
        points32 = ps.points.astype(np.float32)
        batch_call, one = make_calls(ps, monkeypatch)
        dirs = np.vstack([Z, uniform_directions(24, seed=t)])
        dis_all, _ = batch_call(dirs, 2.0)
        d = float(np.median(dis_all)) + 1.0 / t  # breaks the hypothesis on about half the rows
        batch = zip(*batch_call(dirs, d))
        broken = sum(assert_same_ball(got, ps, v, d) for v, got in zip(dirs, batch))
        assert 0 < broken < len(dirs)
        broken = 0
        for v, dis in zip(dirs, dis_all.tolist()):
            broken += assert_same_ball(one(v, d), ps, v, d)
            # k > t - 1, no slab: radius 2
            assert one(v, 2.0) == (dis, 2.0)
            assert_same_ball((dis, 2.0), ps, v, 2.0)
            # A short slab difference (k about t/2), then a long one (k of 2 or 3) over it.
            for d_v in (dis + 0.5, dis + 2.0 / t) if t > 2 else ():
                assert not assert_same_ball(one(v, d_v), ps, v, d_v)
            # d = Dis + 1/t keeps the hypothesis, the largest d below it breaks it; the
            # float32 bound, Dis + _DIS_SLACK32, breaks it at both.
            swept = float(_dis(np.sort(points32 @ v.astype(np.float32))))
            for d_v in (dis + 1.0 / t, float(np.nextafter(dis + 1.0 / t, 0.0))):
                assert swept + _DIS_SLACK32 + 1.0 / t > d_v
                got = one(v, d_v)
                assert assert_same_ball(got, ps, v, d_v) == (d_v < dis + 1.0 / t)
                assert np.array(_bounded_radii(points32, ps.points, v, d_v)).tobytes() == np.array(got).tobytes()
        assert 0 < broken < len(dirs)

    def test_the_engine_raises_with_the_witness_of_confidence_radius(self):
        ps = generate_twisted_polar(20)
        params = covering.CoverParams(d=north_pole_directed(20), region=covering.Region(0.0, 1.2, 0.0, 3.0))
        engine = covering._Engine(ps, params)
        # The pole's Dis is d itself: it breaks the hypothesis.
        theta, phi = 0.0, math.pi / 2
        v = polar_to_cartesian(theta, phi)
        with pytest.raises(HypothesisViolation) as expect:
            confidence_radius(project(ps, v), params.d)
        with pytest.raises(HypothesisViolation) as got:
            engine.orbit_ball(theta, phi)
        assert got.value.direction.tobytes() == expect.value.direction.tobytes()
        assert np.float64(got.value.directed_value).tobytes() == np.float64(expect.value.directed_value).tobytes()
        assert got.value.d == expect.value.d
        assert engine.ledger["n_evaluations"] == 1 and not engine.orbit
        # A ball that keeps the hypothesis is recorded with the float32 kernel's bounds.
        v, radius = engine.orbit_ball(theta, 0.2)
        dis, bound = _bounded_radii(engine.points32, ps.points, v, params.d)
        assert engine.orbit == [(v, bound, dis)] and radius == bound
        ball = confidence_radius(project(ps, v), params.d)
        assert dis > ball.directed_value and 0.0 < radius < ball.radius

    def test_a_violation_survives_pickling(self):
        # Exception pickles its message alone; a caller may send a violation to another process.
        v = polar_to_cartesian(0.3, 1.1)
        sent = HypothesisViolation(v, 0.1, 0.05)
        back = pickle.loads(pickle.dumps(sent))
        assert type(back) is HypothesisViolation and str(back) == str(sent)
        assert back.direction.tobytes() == v.tobytes()
        assert (back.directed_value, back.d) == (0.1, 0.05)


# The paths a cover takes: Cover Cap's batch, and phase 1's ring ball and ring samples.
KERNEL_BENCH_PATHS = ["confidence_radii", "float32_one_row", "float32_batch"]


def test_kernel_bench_script_smoke(tmp_path):
    root = Path(__file__).resolve().parents[1]
    smoke = [sys.executable, str(root / "scripts" / "kernel_bench.py"), "--repeats", "1", "--directions", "4"]
    # Without --out the table is printed and no file is written, run from an empty directory.
    pythonpath = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": pythonpath}
    proc = subprocess.run(smoke, capture_output=True, text=True, timeout=120, cwd=tmp_path, env=env)
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 9 and list(tmp_path.iterdir()) == []
    out = tmp_path / "kernel.json"
    proc = subprocess.run([*smoke, "--out", str(out)], capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    cells = json.loads(out.read_text())["cells"]
    cell_keys = [(cell["t"], cell["rows"]) for cell in cells]
    assert cell_keys == [(t, rows) for t in (441, 994, 7057) for rows in (1, 8, 20)]
    for cell in cells:
        assert cell["directions"] == 4
        assert "speedup" not in cell
        for path in KERNEL_BENCH_PATHS:
            assert cell[path]["us_per_direction"] > 0.0


def test_kernel_bench_script_with_a_baseline(tmp_path):
    # This tree stands in for the baseline: each tree's table holds every cell, from its own processes.
    root = Path(__file__).resolve().parents[1]
    out = tmp_path / "kernel.json"
    command = [sys.executable, str(root / "scripts" / "kernel_bench.py"), "--repeats", "2", "--directions", "4",
               "--baseline", str(root / "src"), "--out", str(out)]
    proc = subprocess.run(command, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == ["parent"] * 9 + ["change"] * 9
    tables = json.loads(out.read_text())["tables"]
    assert set(tables) == {"parent", "change"}
    for table in tables.values():
        cells = table["cells"]
        assert [(cell["t"], cell["rows"]) for cell in cells] == [(t, rows) for t in (441, 994, 7057) for rows in (1, 8, 20)]
        for cell in cells:
            assert [key for key, value in cell.items() if isinstance(value, dict)] == KERNEL_BENCH_PATHS
            for path in KERNEL_BENCH_PATHS:
                assert cell[path]["us_per_direction"] > 0.0


def exact_row(points, v, d):
    """(Dis, k, slab width for each k) of the exact projections <p, v> of the float64 inputs.

    Dis and the widths are Fractions; k = floor(t (d - Dis)) + 1 in exact
    arithmetic, 0 where Dis + 1/t > d; width(k) is 2 where no slab holds k + 1.
    """
    s = sorted(sum(Fraction(a) * Fraction(b) for a, b in zip(p.tolist(), v.tolist())) for p in points)
    t = len(s)
    dis = max(max(Fraction(t - i, t) - (1 - x) / 2, (1 - x) / 2 - Fraction(t - 1 - i, t)) for i, x in enumerate(s))
    gap = Fraction(d) - dis
    k = 0 if gap < Fraction(1, t) else math.floor(t * gap) + 1

    def width(k):
        return Fraction(2) if k > t - 1 else min(s[i + k] - s[i] for i in range(t - k))

    return dis, k, width


def assert_float64_row(got, ps, v, d):
    """`got` is `confidence_radius(project(ps, v), d)`'s (Dis, radius) bit for bit, or its witness and nan."""
    try:
        ball = confidence_radius(project(ps, v), d)
    except HypothesisViolation as exc:
        assert exc.direction.tobytes() == v.tobytes()
        assert np.array(got).tobytes() == np.array([exc.directed_value, math.nan]).tobytes()
        return
    assert np.array(got).tobytes() == np.array([ball.directed_value, ball.radius]).tobytes()


class TestBoundedRadii:
    """Phase 1's float32 kernel: its Dis and radius bound the exact ones of the float64 inputs."""

    @settings(max_examples=60, deadline=None)
    @given(
        t=st.integers(2, 40),
        seed=st.integers(0, 2**32 - 1),
        theta=st.floats(0.0, 2.0 * math.pi),
        phi=st.floats(-math.pi / 2, math.pi / 2),
        gap=st.floats(0.0, 1.2),
    )
    # d = Dis + 1/t: the float32 bound breaks the hypothesis, the float64 row it falls back to keeps it.
    @example(t=2, seed=0, theta=0.0, phi=1.0, gap=0.5)
    def test_bounds_hold_in_exact_arithmetic(self, t, seed, theta, phi, gap):
        # d from Dis to past Dis + 1: rows that break the hypothesis, rows near it, and k up to t and beyond.
        ps = generate_random_uniform(t, seed)
        v = polar_to_cartesian(theta, phi)
        d = float(directed_values(ps.points, v[None])[0]) + gap
        got = dis, radius = _bounded_radii(ps.points.astype(np.float32), ps.points, v, d)
        s32 = np.sort(ps.points.astype(np.float32) @ v.astype(np.float32))
        if float(_dis(s32)) + _DIS_SLACK32 + 1.0 / t > d:  # the float32 bound fails: the float64 kernel's row
            assert_float64_row(got, ps, v, d)
            return
        exact_dis, exact_k, width = exact_row(ps.points, v, d)
        k = math.floor(t * (d - dis)) + 1
        assert Fraction(dis) >= exact_dis and 1 <= k <= exact_k
        assert 0.0 <= radius and Fraction(radius) <= width(k) <= width(exact_k)

    @pytest.mark.parametrize("t, expect", [(2, 2.0), (3, 0.0)])
    def test_tied_projections(self, t, expect):
        # t points on one latitude tie on the pole, in float32 as exactly.  k = 2: two
        # points hold no slab of k + 1 projections, three hold one of width 0.
        theta = 2.0 * math.pi * np.arange(t) / t
        ps = PointSet(np.column_stack([0.8 * np.cos(theta), 0.8 * np.sin(theta), np.full(t, 0.6)]))
        v = np.array([0.0, 0.0, 1.0])
        d = float(directed_values(ps.points, v[None])[0]) + 1.5 / t
        dis, radius = _bounded_radii(ps.points.astype(np.float32), ps.points, v, d)
        exact_dis, exact_k, width = exact_row(ps.points, v, d)
        assert exact_k == 2 and width(2) == expect
        assert Fraction(dis) >= exact_dis and dis + 1.0 / t <= d and radius == expect

    @pytest.mark.parametrize("n", [20, 80], ids=["t441", "t7057"])
    def test_a_stack_equals_its_one_row_calls_bit_for_bit(self, n):
        # Directions of twisted n's conjecture region, in two float32 blocks or more,
        # the last one short.  At d = Dis_v + 1/t for the median row v, v takes the
        # float64 fallback and keeps the hypothesis, and the rows of larger Dis break
        # it; at d = 2 every row has k > t - 1 and radius 2.
        ps, params = conjecture_setup(n, "twisted")
        t, points32 = ps.size, ps.points.astype(np.float32)
        rows = discrepancy._CHUNK_BYTES // (4 * t)  # float32 rows in a block: 72 at t = 441, 4 at t = 7,057
        dirs = sample_region_directions(params.region, max(2 * rows + 1, 21), np.random.default_rng(t))
        for lo, s in _sorted_blocks(points32, dirs):  # the stack's rows are one direction's projections
            assert s.dtype == np.float32 and len(s) <= rows
            for j, row in enumerate(s):
                assert row.tobytes() == np.sort(points32 @ dirs[lo + j].astype(np.float32)).tobytes()
        dis64 = directed_values(ps.points, dirs)
        median_row = int(np.argsort(dis64)[len(dirs) // 2])
        for d in (float(dis64[median_row]) + 1.0 / t, 2.0):
            dis, radius = _bounded_radii(points32, ps.points, dirs, d)
            expect = np.array([_bounded_radii(points32, ps.points, v, d) for v in dirs])
            assert dis.tobytes() == expect[:, 0].copy().tobytes()
            assert radius.tobytes() == expect[:, 1].copy().tobytes()
            swept = np.array([float(_dis(np.sort(points32 @ v.astype(np.float32)))) for v in dirs])
            fallback = swept + _DIS_SLACK32 + 1.0 / t > d
            if d < 2.0:
                assert fallback[median_row] and radius[median_row] > 0.0
                assert 0 < np.isnan(radius).sum() < len(dirs) - 1
            else:
                assert not fallback.any() and (radius == 2.0).all()

    @pytest.mark.parametrize("above", [0.0, -1e-9], ids=["keeps-the-hypothesis", "breaks-it"])
    def test_a_row_near_the_hypothesis_takes_the_float64_kernel(self, above, monkeypatch):
        # d = Dis + 1/t keeps the hypothesis in float64, but not under the float32 bound's slack.
        ps, _ = conjecture_setup(20, "twisted")
        v = polar_to_cartesian(0.4, 1.1)
        t = ps.size
        d = float(directed_values(ps.points, v[None])[0]) + 1.0 / t + above
        got = _bounded_radii(ps.points.astype(np.float32), ps.points, v, d)
        assert_float64_row(got, ps, v, d)
        assert math.isnan(got[1]) == (above < 0.0)
        # and a ring ball there raises with the float64 kernel's witness, or records its radius
        engine = covering._Engine(ps, SimpleNamespace(d=d))
        monkeypatch.setattr(covering, "polar_to_cartesian", lambda theta, phi: v.copy())
        if above < 0.0:
            with pytest.raises(HypothesisViolation) as info:
                engine.orbit_ball(0.0, 0.0)
            assert_float64_row((info.value.directed_value, math.nan), ps, info.value.direction, d)
        else:
            assert engine.orbit_ball(0.0, 0.0)[1] == got[1]


class TestSlabWidth:
    def test_known_profile(self):
        s = np.array([[-0.5, -0.1, 0.2, 0.9], [-0.5, -0.4, 0.0, 0.9]])
        assert np.allclose(_slab_width(s, 1), [0.3, 0.1], rtol=0.0, atol=1e-15)
        assert np.allclose(_slab_width(s, 2), [0.7, 0.5], rtol=0.0, atol=1e-15)
        assert _slab_width(s, 4) == [2.0, 2.0]

    def test_monotone_in_k(self):
        ps = generate_random_uniform(80, seed=3)
        s = project(ps, Z).values[None]
        widths = [width for k in range(1, 20) for width in _slab_width(s, k)]
        assert all(a <= b + 1e-15 for a, b in zip(widths, widths[1:]))


class TestConfidenceRadius:
    def test_k_formula(self):
        ps = generate_random_uniform(100, seed=4)
        prof = project(ps, Z)
        dis = directed_discrepancy(prof).value
        d = dis + 3.7 / ps.size
        ball = confidence_radius(prof, d)
        assert ball.k == math.floor(ps.size * (d - dis)) + 1
        assert [ball.radius] == _slab_width(prof.values[None], ball.k)

    def test_rejects_hypothesis_violation(self):
        ps = generate_random_uniform(100, seed=4)
        prof = project(ps, Z)
        dis = directed_discrepancy(prof).value
        with pytest.raises(HypothesisViolation):
            confidence_radius(prof, dis + 0.5 / ps.size)
        # No slack either way: d = Dis + 1/t keeps the hypothesis, the largest d below it is refused.
        d = dis + 1.0 / ps.size
        assert confidence_radius(prof, d).k >= 1
        with pytest.raises(HypothesisViolation):
            confidence_radius(prof, np.nextafter(d, 0.0))

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
        assert res.value == naive
        # The batch that elects the axis evaluates it as `project` does.
        assert directed_values(ps.points, _candidate_axes(ps.points)).max() == naive

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
