import bisect
import json
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capdisc import covering, discrepancy
from capdisc.discrepancy import (
    HypothesisViolation,
    SizeLimitExceeded,
    _candidate_axes,
    _cap_counts,
    _dis,
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

from conftest import uniform_directions

Z = np.array([0.0, 0.0, 1.0])


def reference_directed(s) -> float:
    """Tie-aware brute force: both legitimate cap counts at every distinct height."""
    s = sorted(float(x) for x in s)
    t = len(s)
    best = 0.0
    for h in set(s):
        area = (1.0 - h) / 2.0
        n_incl = t - bisect.bisect_left(s, h)  # points with x >= h
        n_excl = t - bisect.bisect_right(s, h)  # points with x > h
        best = max(best, abs(n_incl / t - area), abs(n_excl / t - area))
    return best


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
        # The witness attains the value with the count it claims.
        s, h = prof.values, res.witness_height
        count = int((s >= h).sum()) if res.witness_inclusive else int((s > h).sum())
        assert abs(count / ps.size - (1.0 - h) / 2.0) == res.value

    def test_batched_directions_equal_the_brute_force(self):
        ps = generate_polar(6)
        dirs = np.vstack([np.eye(3), uniform_directions(20, seed=3)])
        expect = [reference_directed(project(ps, v).values) for v in dirs]
        assert directed_values(ps.points, dirs).tolist() == expect


class TestKernel:
    def test_count_template_is_read_only(self):
        counts = _cap_counts(5)
        with pytest.raises(ValueError):
            counts[0, 0] = 0.5
        with pytest.raises(ValueError):
            counts.reshape(2, 5, 1)[1, 0, 0] = 0.5
        assert _cap_counts(5)[0, 0] == 2.0  # doubled: 2 (t - 0)/t

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
            expect = 2.0 * (np.arange(t, -1, -1) / t)
            assert _cap_counts(t).tolist() == [expect[:-1].tolist(), expect[1:].tolist()]
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
    """Dis of sorted rows as _dis took it with undoubled counts: halve 1 - s, then compare."""
    t = s.shape[-1]
    frac = np.arange(t, -1, -1) / t
    area = np.subtract(1.0, s)
    area *= 0.5
    return np.maximum(frac[:-1] - area, area - frac[1:]).max(axis=-1)


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
    expect = reference_dis(rows)
    assert _dis(rows).tobytes() == expect.tobytes()
    # A block of 16 rows, as confidence_radii sends at t = 994, and single rows.
    assert _dis(rows[:16]).tobytes() == expect[:16].tobytes()
    for row, value in zip(rows, expect.tolist()):
        assert np.float64(_dis(row)).tobytes() == np.float64(value).tobytes()


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
    """A block of rows gives each row's one-row Dis, k and radius, bit for bit."""

    @staticmethod
    def assert_rowwise(block, d):
        dis, k, radius = _radii(block, d)
        assert len(dis) == len(k) == len(radius) == len(block)
        for i, row in enumerate(block):
            (dis_i,), (k_i,), (radius_i,) = _radii(row, d)
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


def kernel_calls(ps):
    """(batch, one): the kernel called for a batch and for one direction of shape (3,)."""
    return (lambda dirs, d: confidence_radii(ps.points, dirs, d)), (lambda v, d: confidence_radii(ps.points, v, d))


def one_row_block_calls(ps, monkeypatch):
    """The kernel with blocks of one row, the least `_sorted_blocks` makes."""
    monkeypatch.setattr(discrepancy, "_CHUNK_BYTES", 8 * ps.size)
    assert [len(s) for _, s in _sorted_blocks(ps.points, np.vstack([Z, Z]))] == [1, 1]
    return kernel_calls(ps)


def engine_calls(ps, monkeypatch):
    """A batch through `_Engine.evaluate_cart`, one direction as `_Engine.orbit_ball` evaluates a ring ball.

    The engine reads only `d` of its params, so a stand-in holds bounds above 1 too.
    """

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
    """Rows of a batch and single directions through `confidence_radii`, on each path that calls it."""

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
        # Each row of a batch, and each direction of shape (3,) alone, as the engine evaluates a ring ball.
        t = ps.size
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
        # A ball that keeps the hypothesis is recorded with its values.
        v, radius = engine.orbit_ball(theta, 0.2)
        ball = confidence_radius(project(ps, v), params.d)
        assert engine.orbit == [(v, ball.radius, ball.directed_value)] and radius == ball.radius

    def test_a_violation_survives_pickling(self):
        # Exception pickles its message alone; a caller may send a violation to another process.
        v = polar_to_cartesian(0.3, 1.1)
        sent = HypothesisViolation(v, 0.1, 0.05)
        back = pickle.loads(pickle.dumps(sent))
        assert type(back) is HypothesisViolation and str(back) == str(sent)
        assert back.direction.tobytes() == v.tobytes()
        assert (back.directed_value, back.d) == (0.1, 0.05)


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
        for path in ("one_at_a_time", "confidence_radii", "one_row"):
            assert cell[path]["us_per_direction"] > 0.0


class TestSlabWidth:
    def test_known_profile(self):
        s = np.array([-0.5, -0.1, 0.2, 0.9])
        assert math.isclose(_slab_width(s, 1), 0.3, abs_tol=1e-15)
        assert math.isclose(_slab_width(s, 2), 0.7, abs_tol=1e-15)
        assert _slab_width(s, 4) == 2.0

    def test_monotone_in_k(self):
        ps = generate_random_uniform(80, seed=3)
        s = project(ps, Z).values
        widths = [_slab_width(s, k) for k in range(1, 20)]
        assert all(a <= b + 1e-15 for a, b in zip(widths, widths[1:]))


class TestConfidenceRadius:
    def test_k_formula(self):
        ps = generate_random_uniform(100, seed=4)
        prof = project(ps, Z)
        dis = directed_discrepancy(prof).value
        d = dis + 3.7 / ps.size
        ball = confidence_radius(prof, d)
        assert ball.k == math.floor(ps.size * (d - dis)) + 1
        assert ball.radius == _slab_width(prof.values, ball.k)

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
