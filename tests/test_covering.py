import contextlib
import errno
import hashlib
import json
import math
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time
from dataclasses import replace
from fractions import Fraction
from statistics import median

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from capdisc import covering
from capdisc.covering import (
    COVER_CAP,
    COVER_CAP_COUNTERS,
    ORBIT,
    BallSpansOrbit,
    CoverageRecords,
    CoverParams,
    Residuals,
    _band_test,
    _Engine,
    _inside_test,
    _rescue_candidates,
    cover_cap_recurse,
    cover_region,
    next_latitude,
    orbit_intersection_latitude,
    step_theta,
)
from capdisc.discrepancy import (
    HypothesisViolation,
    confidence_radii,
    confidence_radius,
    directed_values,
    project,
)
from capdisc.geometry import Region, cover_cap_centers, phi_max_from_radius, polar_to_cartesian
from capdisc.pointsets import PointSet, generate_polar, generate_random_uniform, generate_twisted_polar
from capdisc.polar_analysis import conjecture_setup, north_pole_directed
from capdisc.reporting import audit_coverage, report_dict, strip_timings
from conftest import uniform_directions


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
        if e >= theta_hi - 1e-12:
            return True
        cur = max(cur, e)
    return False


def reference_band(phi, r_min, balls, theta_lo, theta_hi):
    """(band_lo, band_hi) of a walked ring, each edge located in full, with the loop as the band test.

    Each edge steps away from phi by r_min/8 and bisects the last covered step 40 times.
    """
    spanning = [r for _, r in balls if r > 2.0 * math.cos(phi)]
    if spanning:  # one ball reaches around the ring, and around the nearer pole
        r = spanning[0]
        reach = math.acos(max(-1.0, min(1.0, r * r / 2.0 - 1.0)))
        return (-math.pi / 2, -reach - phi) if phi < 0.0 else (reach - phi, math.pi / 2)

    def covered(psi):
        return reference_covered(phi, balls, theta_lo, theta_hi, psi)

    if not covered(phi):
        return phi, phi

    def edge(sign):
        step, psi = max(1e-6, r_min / 8.0), phi
        for _ in range(10_000):
            nxt = psi + sign * step
            if abs(nxt) > math.pi / 2 - 1e-9 or not covered(nxt):
                break
            psi = nxt
        else:
            return psi
        good, bad = psi, psi + sign * step
        for _ in range(40):
            mid = 0.5 * (good + bad)
            good, bad = (mid, bad) if covered(mid) else (good, mid)
        return good

    return edge(-1.0), edge(1.0)


def twisted_8_to_the_pole():
    """Twisted polar 8 up to the north pole: its first ring ends in a ball spanning its circle."""
    ps = generate_twisted_polar(8)
    region = Region(1.0, math.pi / 2, 0.0, 2.0 * math.pi)
    return ps, CoverParams(d=north_pole_directed(8) + 20.0 / ps.size, region=region)


def random_30_to_the_south_pole():
    """Random 30 points down to the south pole: the last ring ends in a ball spanning its circle."""
    region = Region(-math.pi / 2, -1.0, 0.0, 2.0 * math.pi)
    return generate_random_uniform(30, 0), CoverParams(d=0.3, region=region)


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


def end_at_reach_ring():
    """A ring on the equator whose one ball ends exactly at theta_hi - 1e-12, at psi = 0."""
    w = math.acos(1.0 - 0.1 * 0.1 / 2.0)
    hi = w + 1e-12
    # the end must be the same for numpy's arccos and land on the reach exactly
    assert np.arccos(1.0 - 0.1 * 0.1 / 2.0) == w and hi - 1e-12 == w
    return 0.0, [(0.0, 0.1)], 0.0, hi, 0.0


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
    # In centre order, as walk_orbit appends them, the shorter interval of the tied pair comes first.
    balls = [(0.0, 0.25), (theta, r), (0.5, 0.25), (0.8, 0.25), (1.0, 0.25)]
    return phi, balls, 0.0, 1.0, psi


def reference_rescue_candidates(v, required_r):
    """The swallow-rescue candidates [(u, reach)] of one node, built one plane at a time."""
    planes = (np.array([0.0, 0.0, 1.0]), np.array([0.0, 1.0, 0.0]))
    along = [float(v @ e) for e in planes]
    comps = [abs(a) for a in along]
    offsets = []
    for e, a, comp in zip(planes, along, comps):
        if comp > 2.0 * required_r:
            continue
        tangent = e - a * v
        norm = float(np.linalg.norm(tangent))
        if norm < 1e-12:
            continue
        tangent /= norm
        offsets.append(((1.0 if a >= 0.0 else -1.0) * tangent, comp))
    if len(offsets) == 2:
        diag = offsets[0][0] + offsets[1][0]
        diag /= np.linalg.norm(diag)
        offsets.insert(0, (diag, max(comps)))
    candidates = []
    for tangent, comp in offsets:
        for factor in (2.0, 3.0, 4.5):
            shift = factor * (required_r + comp)
            if shift >= 1.0:
                continue
            u = v + shift * tangent
            u /= np.linalg.norm(u)
            candidates.append((u, required_r + float(np.linalg.norm(u - v))))
    return candidates


def rescue_rows(u, reach):
    """One node's candidate slots of `_rescue_candidates` as [(u, reach)], in order."""
    return [(u_j, float(r_j)) for u_j, r_j in zip(u, reach) if not math.isnan(r_j)]


def reference_recurse(evaluate, v, required_r, depth, own=None, counts=None, level=0):
    """Cover Cap evaluating one direction at a time, recursing before the next.

    `own` is v's (dis, radius) when the caller has evaluated v: center 0 is v
    itself, so a child takes it from its parent instead of evaluating it.
    `counts`, when given, gathers the COVER_CAP_COUNTERS of the walk; v's
    node sits at tree `level`.
    """
    counts = dict.fromkeys(COVER_CAP_COUNTERS, 0) if counts is None else counts
    counts["cover_cap_nodes"] += 1
    counts["cover_cap_levels"] = max(counts["cover_cap_levels"], level + 1)
    for u, reach in reference_rescue_candidates(v, required_r):
        counts["rescue_tries"] += 1
        (dis,), (r_u,) = (a.tolist() for a in evaluate(u[None, :]))
        if math.isnan(r_u):
            raise HypothesisViolation(u, dis, math.nan)
        if r_u >= reach:
            counts["rescue_hits"] += 1
            return [(u, r_u, dis)], []
    records, residual = [], []
    for i, c in enumerate(cover_cap_centers(v, required_r)):
        if i == 0 and own is not None:
            dis, r_c = own
        else:
            (dis,), (r_c,) = (a.tolist() for a in evaluate(c[None, :]))
        if math.isnan(r_c):
            raise HypothesisViolation(c, dis, math.nan)
        need = required_r / 2.0
        if r_c >= need:
            records.append((c, r_c, dis))
        elif depth > 0:
            recs, resid = reference_recurse(
                evaluate, c, need, depth - 1, (dis, r_c), counts, level + 1
            )
            records.extend(recs)
            residual.extend(resid)
        else:
            residual.append((c, need))
    return records, residual


def reference_cover_cap(evaluate, centers, required_r, depth):
    """`cover_cap_recurse` as a seed-by-seed loop over reference_recurse.

    A violation raises HypothesisViolation; otherwise the result has no
    witness and lists the rows in the order of a depth-first walk.
    """
    records, residual = [], []
    counts = dict.fromkeys(COVER_CAP_COUNTERS, 0)
    for v, req in zip(centers, required_r):
        recs, resid = reference_recurse(evaluate, v, float(req), depth, None, counts)
        records.extend(recs)
        residual.extend(resid)
    return None, records_table(cover_cap=records), residual_table(residual), counts


def records_table(orbit=(), cover_cap=()):
    """CoverageRecords of (center, radius, Dis) rows: the orbit ones, then the cover_cap ones."""
    rows = [*orbit, *cover_cap]
    return CoverageRecords(
        np.array([c for c, _, _ in rows], dtype=float).reshape(-1, 3),
        np.array([r for _, r, _ in rows], dtype=float),
        np.array([x for _, _, x in rows], dtype=float),
        np.array([ORBIT] * len(orbit) + [COVER_CAP] * len(cover_cap), dtype=np.uint8),
    )


def residual_table(rows):
    """Residuals of (center, required radius) rows."""
    return Residuals(
        np.array([c for c, _ in rows], dtype=float).reshape(-1, 3),
        np.array([r for _, r in rows], dtype=float),
    )


def phase1_table(walks, key):
    """The `key` tables of phase 1's walks, joined upper band first, as the cover joins them."""
    return covering._concat([walk[key] for walk in walks])


def same_table(got, expect) -> bool:
    """Tables of one type whose columns hold the same dtypes, shapes and bytes."""
    return type(got) is type(expect) and all(
        (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
        for a, b in zip(vars(got).values(), vars(expect).values())
    )


def sorted_rows(table) -> bytes:
    """The bytes of a table's rows, its columns side by side as floats, sorted lexicographically."""
    rows = np.column_stack(list(vars(table).values())).astype(float)
    return rows[np.lexsort(rows.T[::-1])].tobytes()


def same_result(got, expect):
    """Equal Cover Cap results without a witness: the same rows in any order, the same counts."""
    assert got[0] is None and expect[0] is None
    assert type(got[1]) is type(expect[1]) and type(got[2]) is type(expect[2])
    assert sorted_rows(got[1]) == sorted_rows(expect[1]), "records differ from the reference"
    assert sorted_rows(got[2]) == sorted_rows(expect[2]), "residuals differ from the reference"
    assert got[3] == expect[3]


def rowwise(evaluate_one):
    """(m, 3) -> (dis, radius) evaluator built from a one-direction evaluator."""

    def evaluate(directions):
        dis, radius = zip(*(evaluate_one(v) for v in directions))
        return np.array(dis), np.array(radius)

    return evaluate


def keyed_evaluator(special, default=(0.01, 1.0)):
    """(dis, radius) `default` everywhere except the directions in `special`, keyed by their bytes."""
    return rowwise(lambda v: special.get(v.tobytes(), default))


EVALUATE_CART = _Engine.evaluate_cart


def whole_walk(ps, params):
    """The engine's cover of the whole region, as `cover_region` gives it when it finds no mirror.

    Tests of the engine (the split, the child, the bands, the inside test)
    run through this, so that their numbers are the engine's alone.
    """
    with contextlib.closing(_Engine(ps, params)) as engine:
        return engine.run()


FORK = os.fork  # the engine's own, which fixtures may refuse


@pytest.fixture
def splits(monkeypatch):
    """Rows of each batch that the calling process splits with the cover's child."""
    rows, evaluate = [], covering._Child.evaluate

    def counted(child, points, directions, d):
        rows.append(len(directions))
        return evaluate(child, points, directions, d)

    monkeypatch.setattr(covering._Child, "evaluate", counted)
    return rows


def kernel_by_process(monkeypatch, caller=None, helper=None):
    """Hook the engine's kernel: `caller(directions)` runs before each call in this process.

    `helper(directions)` runs before each call in a child forked after this one.
    """
    main = os.getpid()

    def hooked(points, directions, d):
        hook = caller if os.getpid() == main else helper
        if hook is not None:
            hook(directions)
        return confidence_radii(points, directions, d)

    monkeypatch.setattr(covering, "confidence_radii", hooked)


def in_cover_cap_of_the_child(directions) -> bool:
    """Whether a kernel call that a `kernel_by_process` helper hook sees evaluates Cover Cap rows.

    Only those come as a batch of `_SPLIT_ROWS // 2` rows or more: the
    walk's ring samples are batches of 20, and its ring balls are single
    directions.
    """
    return directions.ndim == 2 and len(directions) >= covering._SPLIT_ROWS // 2


def held_bytes(obj, seen=None) -> int:
    """Bytes that `obj` and everything it refers to hold, each object counted once.

    `sys.getsizeof` of every object, walking dataclasses, dicts, lists and
    tuples; an array's data counts where it is owned, so a view adds its base.
    """
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    size = sys.getsizeof(obj)
    if isinstance(obj, np.ndarray):
        refs = [] if obj.base is None else [obj.base]
    elif isinstance(obj, dict):
        refs = [*obj.keys(), *obj.values()]
    elif isinstance(obj, (list, tuple)):
        refs = obj
    elif hasattr(obj, "__dict__"):
        refs = [vars(obj)]
    else:
        refs = []
    return size + sum(held_bytes(ref, seen) for ref in refs)


class TestStepTheta:
    def test_matches_chord_geometry(self):
        # Consecutive centers on the latitude circle must sit at chord r.
        r, phi = 0.3, 0.7
        dt = step_theta(r, phi)
        a = polar_to_cartesian(0.0, phi)
        b = polar_to_cartesian(dt, phi)
        assert math.isclose(float(np.linalg.norm(a - b)), r, abs_tol=1e-12)

    def test_rejects_spanning_ball(self):
        with pytest.raises(BallSpansOrbit):
            step_theta(1.0, 1.5)  # 2*cos(1.5) < 1


class TestOrbitIntersection:
    def test_brackets_the_ring(self):
        # The upper intersection lies above the ring, below the top of a ball.
        phi, r = 0.5, 0.2
        hi = orbit_intersection_latitude(phi, r)
        assert phi < hi < phi + 2.0 * math.asin(r / 2.0)

    def test_intersection_on_both_boundaries(self):
        phi, r = 0.4, 0.25
        dt = step_theta(r, phi)
        hi = orbit_intersection_latitude(phi, r)
        a = polar_to_cartesian(0.0, phi)
        b = polar_to_cartesian(dt, phi)
        u = polar_to_cartesian(dt / 2.0, hi)
        assert math.isclose(float(np.linalg.norm(u - a)), r, abs_tol=1e-9)
        assert math.isclose(float(np.linalg.norm(u - b)), r, abs_tol=1e-9)


def _twisted_12_engine():
    ps = generate_twisted_polar(12)
    d = north_pole_directed(12)
    return ps, d, _Engine(ps, CoverParams(d=d, region=Region(0.0, 1.2, 0.0, math.pi)))


def test_r_min_from_samples_is_scaled_median():
    ps, d, engine = _twisted_12_engine()
    k = covering.ORBIT_SAMPLE_COUNT
    samples = [polar_to_cartesian((i + 0.5) * math.pi / k, 0.8) for i in range(k)]
    radii = [confidence_radius(project(ps, u), d).radius for u in samples]
    assert engine.orbit_r_min(0.8) == covering.R_MIN_FACTOR * median(radii)
    assert engine.orbit_r_min(0.8, factor=1.0) == median(radii)


def test_r_min_median_is_numpys_bit_for_bit(monkeypatch):
    # The twisted n=12 ring samples, then random ones with ties: 20 values
    # drawn from a few, some of them zero radii.
    _, _, engine = _twisted_12_engine()
    evaluate, seen = engine.evaluate_cart, []

    def spied(directions):
        dis, radii = evaluate(directions)
        seen.append(radii)
        return dis, radii

    monkeypatch.setattr(engine, "evaluate_cart", spied)
    for phi in np.linspace(0.0, 1.2, 25).tolist():
        got = engine.orbit_r_min(phi, factor=1.0)
        assert got.hex() == float(np.median(seen[-1])).hex()
    rng = np.random.default_rng(73)
    k = covering.ORBIT_SAMPLE_COUNT
    radii = [rng.choice(np.append(rng.uniform(0.0, 2.0, 5), 0.0), k) for _ in range(1_000)]
    radii += [rng.uniform(0.0, 2.0, k) for _ in range(1_000)]
    monkeypatch.setattr(engine, "evaluate_cart", lambda dirs: (np.zeros(k), radii[-1]))
    while radii:
        assert engine.orbit_r_min(0.8, factor=1.0).hex() == float(np.median(radii.pop())).hex()


def test_estimate_orbit_r_min_positive():
    _, _, engine = _twisted_12_engine()
    assert engine.orbit_r_min(0.8) > 0.0


class TestNextLatitude:
    """`next_latitude(r, lowest)` is its first guess, lowest - acos(1 - r^2/4) - tol, or phi* + tol."""

    TOL = covering.BINARY_SEARCH_TOL

    @staticmethod
    def reaches(phi, r, lowest) -> bool:
        """Whether adjacent r-balls on the ring at phi meet the band covered down to `lowest`."""
        try:
            return orbit_intersection_latitude(phi, r) >= lowest
        except BallSpansOrbit:
            return True

    def guess(self, r, lowest) -> float:
        return lowest - math.acos(1.0 - r * r / 4.0) - self.TOL

    def test_a_first_guess_that_reaches_is_taken(self):
        r, lowest = 0.1, 0.5
        assert self.reaches(self.guess(r, lowest), r, lowest)
        assert next_latitude(r, lowest) == self.guess(r, lowest)

    def test_a_first_guess_that_falls_short_takes_the_closed_form(self):
        # Near the south pole the ring's balls meet higher than the guess allows.
        r, lowest = 0.1, -1.45
        guess = self.guess(r, lowest)
        assert not self.reaches(guess, r, lowest)
        got = next_latitude(r, lowest)
        assert self.reaches(got, r, lowest) and not self.reaches(got - 2.0 * self.TOL, r, lowest)
        assert abs(got - -1.5102539) < 1e-7
        # A scan of 200k latitudes: the first that reaches lies at most tol below the answer.
        grid = np.linspace(guess, lowest, 200_001).tolist()
        flags = [self.reaches(phi, r, lowest) for phi in grid]
        first = flags.index(True)
        assert all(flags[first:])
        assert grid[first - 1] < got <= grid[first] + self.TOL

    def test_a_guess_whose_ball_spans_its_ring_reaches(self):
        r, lowest = 0.3, -1.3
        guess = self.guess(r, lowest)
        with pytest.raises(BallSpansOrbit):
            orbit_intersection_latitude(guess, r)  # 2 cos(guess) = 0.116 < r
        assert next_latitude(r, lowest) == guess

    def test_a_guess_past_the_south_pole_is_the_pole(self):
        r, lowest = 0.3, -1.56
        assert self.guess(r, lowest) < -math.pi / 2
        assert next_latitude(r, lowest) == -math.pi / 2

    @settings(max_examples=300, deadline=None)
    @given(r=st.floats(1e-6, 1.9), lowest=st.floats(-math.pi / 2, math.pi / 2))
    def test_the_ring_meets_the_band_and_lies_on_the_sphere(self, r, lowest):
        got = next_latitude(r, lowest)
        assert got == -math.pi / 2 or -math.pi / 2 < got < lowest
        assert self.reaches(got, r, lowest)


def one_seed(v, required_r):
    return np.asarray(v, dtype=float)[None, :], np.array([required_r])


# A seed with |y| = |z| = 0.577 > 2 x 0.25: no node of its tree is near a
# crater plane, so none has a rescue candidate.
CLEAR_SEED = np.ones(3) / np.linalg.norm(np.ones(3))
CLEAR_REQ = 0.25


class TestCoverCapRecurse:
    def test_all_centers_pass(self):
        calls = []

        def evaluate(v):
            calls.append(v)
            return 0.01, 1.0

        witness, records, residual, counts = cover_cap_recurse(
            rowwise(evaluate), *one_seed(CLEAR_SEED, CLEAR_REQ), 1
        )
        assert witness is None
        assert len(records) == len(calls) == 8
        assert not residual
        assert counts == dict(cover_cap_nodes=1, cover_cap_levels=1, rescue_tries=0, rescue_hits=0)

    def test_depth_exhaustion_leaves_residual(self):
        def evaluate(v):
            return 0.01, 1e-9

        witness, records, residual, counts = cover_cap_recurse(
            rowwise(evaluate), *one_seed(CLEAR_SEED, CLEAR_REQ), 0
        )
        assert witness is None
        assert len(residual) == 8
        assert (counts["cover_cap_nodes"], counts["cover_cap_levels"]) == (1, 1)
        assert residual.required_radius.tolist() == [0.125] * 8

    def test_recursion_halves_requirement(self):
        seen = []

        def evaluate(v):
            seen.append(v)
            # Fail the first batch, pass everything at the next depth.
            return 0.01, (0.1 if len(seen) <= 8 else 1.0)

        witness, records, residual, counts = cover_cap_recurse(
            rowwise(evaluate), *one_seed(CLEAR_SEED, CLEAR_REQ), 2
        )
        assert witness is None and not residual
        # 8 centers, then 7 per child: each child's center 0 is its parent's center.
        assert len(seen) == 8 + 8 * 7
        assert (counts["cover_cap_nodes"], counts["cover_cap_levels"]) == (1 + 8, 2)

    def test_swallow_rescue_triggers_near_equator(self):
        # A center pinned to the z = 0 plane with a cratered radius must be
        # rescued by one larger ball pushed off the plane, when such a ball
        # exists (radius grows faster than distance from the plane).
        def evaluate(v):
            dist = abs(float(v[2]))
            return 0.01, max(1e-9, 1.7 * dist)

        v = np.array([1.0, 0.0, 1e-6])
        v /= np.linalg.norm(v)
        witness, records, residual, counts = cover_cap_recurse(
            rowwise(evaluate), *one_seed(v, 1e-4), 0
        )
        assert witness is None and not residual
        assert len(records) == 1
        assert records.origin.tolist() == [COVER_CAP]
        assert counts["rescue_hits"] == counts["cover_cap_nodes"] == 1
        assert 1 <= counts["rescue_tries"] <= len(reference_rescue_candidates(v, 1e-4))

    @pytest.mark.parametrize("n, structure", [(20, "twisted"), (14, "polar")])
    def test_batched_centers_match_the_sequential_walk(self, n, structure):
        ps, params = conjecture_setup(n, structure)
        with contextlib.closing(_Engine(ps, params)) as engine:
            queue = phase1_table(engine._phase1(), "cannot_cover")
            assert len(queue) > 50
            seeds, required = queue.center, queue.required_radius
            depth = params.cover_cap_max_depth
            before = engine.ledger["n_evaluations"]
            got = cover_cap_recurse(engine.evaluate_cart, seeds, required, depth)
            batched_evals = engine.ledger["n_evaluations"] - before
            same_result(got, reference_cover_cap(engine.evaluate_cart, seeds, required, depth))
            assert engine.ledger["n_evaluations"] - before == 2 * batched_evals

    def test_a_level_of_more_than_1024_nodes_is_settled_whole(self):
        # 150 seeds next to the z = 0 crater plane, whose rescue candidates
        # and centers are all short, make a level of 1,200 nodes.  Their
        # rescue candidates are short too, and their outer centers pass.
        # Each level takes one kernel call per rescue slot that has a
        # candidate, then one for its centers.
        theta = np.linspace(0.3, 1.2, 150)
        z = np.where(np.arange(150) % 2, 1e-3, -1e-3)
        seeds = unit_rows(np.column_stack((np.cos(theta), np.sin(theta), z)))
        levels = [(seeds, np.full(150, 0.01))]
        levels.append((cover_cap_centers(*levels[0]).reshape(-1, 3), np.full(1200, 0.005)))
        passing = cover_cap_centers(*levels[1])[:, 1:].reshape(-1, 3)
        evaluate = keyed_evaluator({c.tobytes(): (0.01, 1.0) for c in passing}, (0.01, 0.0))
        calls = []

        def counted(directions):
            calls.append(len(directions))
            return evaluate(directions)

        got = cover_cap_recurse(counted, *levels[0], 1)
        slots = [(~np.isnan(_rescue_candidates(*nodes)[1])).any(axis=0).sum() for nodes in levels]
        assert slots == [3, 3]
        assert calls == [150] * 3 + [1200] + [1200] * 3 + [8400]
        assert (len(got[1]), len(got[2])) == (8400, 1200)  # each node's center 0 is short
        same_result(got, reference_cover_cap(evaluate, *levels[0], 1))

    def test_violation_deep_under_center_zero_is_the_witness(self):
        # Center 0 and child 2 below it are short, and grandchild 4 violates
        # at level 2.  Center 5 and a center below it are short too, and a
        # center of level 2 under them violates as well, but in a later row
        # of the same kernel call.  Levels 0 and 1 give their records.
        top = cover_cap_centers(CLEAR_SEED, CLEAR_REQ)
        child = cover_cap_centers(top[0], 0.125)
        grandchild = cover_cap_centers(child[2], 0.0625)
        five = cover_cap_centers(top[5], 0.125)
        special = {
            top[0].tobytes(): (0.01, 0.0),
            child[2].tobytes(): (0.01, 0.0),
            grandchild[4].tobytes(): (0.7, math.nan),
            top[5].tobytes(): (0.01, 0.0),
            five[3].tobytes(): (0.01, 0.0),
            cover_cap_centers(five[3], 0.0625)[1].tobytes(): (0.9, math.nan),
        }
        kept = [c for i, c in enumerate(top) if i not in (0, 5)]
        kept += [c for i, c in enumerate(child) if i not in (0, 2)]
        kept += [c for i, c in enumerate(five) if i not in (0, 3)]
        records = records_table(cover_cap=[(c, 1.0, 0.01) for c in kept])
        self.assert_witness(keyed_evaluator(special), grandchild[4], 0.7, records)

    def test_violation_at_center_five_is_the_witness(self):
        # Center 2 is short, and would recurse after its level; center 5
        # violates in the level's kernel call, and center 6 as well, after it.
        top = cover_cap_centers(CLEAR_SEED, CLEAR_REQ)
        special = {
            top[2].tobytes(): (0.01, 0.0),
            top[5].tobytes(): (0.8, math.nan),
            top[6].tobytes(): (0.9, math.nan),
        }
        self.assert_witness(keyed_evaluator(special), top[5], 0.8, records_table())

    def test_nothing_under_the_witness_is_expanded(self):
        # A child made of the violating center 5 would report it again as its
        # own center 0, so only the work done tells that none was made.
        top = cover_cap_centers(CLEAR_SEED, CLEAR_REQ)
        evaluate = keyed_evaluator({top[5].tobytes(): (0.8, math.nan)})
        counts = cover_cap_recurse(evaluate, *one_seed(CLEAR_SEED, CLEAR_REQ), 3)[3]
        assert (counts["cover_cap_nodes"], counts["cover_cap_levels"]) == (1, 1)
        assert counts["rescue_tries"] == 0

    def test_rescue_violation_of_an_earlier_seed_is_the_witness(self):
        # Seed 0 lies near both crater planes and seed 1 near z = 0 alone, so
        # seed 0's second candidate (slot 1) is tried in the second kernel
        # call, and seed 1's first (slot 3) only in a later one.  Both violate.
        seeds = np.array([[1.0, 0.0, 1e-6], [0.8, 0.6, 1e-6]])
        seeds /= np.linalg.norm(seeds, axis=1)[:, None]
        first, second = (reference_rescue_candidates(v, 1e-4) for v in seeds)
        special = {
            first[1][0].tobytes(): (0.7, math.nan),
            second[0][0].tobytes(): (0.9, math.nan),
        }
        evaluate = keyed_evaluator(special, default=(0.01, 0.0))
        witness, records, residual, counts = cover_cap_recurse(
            evaluate, seeds, np.array([1e-4, 1e-4]), 0
        )
        assert witness[0].tobytes() == first[1][0].tobytes() and witness[1] == 0.7
        assert not records and not residual
        assert counts["rescue_tries"] == 2

    @staticmethod
    def assert_witness(evaluate, direction, value, records):
        witness, got, residual, counts = cover_cap_recurse(
            evaluate, *one_seed(CLEAR_SEED, CLEAR_REQ), 3
        )
        assert witness[0].tobytes() == direction.tobytes()
        assert witness[1] == value
        assert same_table(got, records)  # the rows of the kernel calls before the witness's
        assert not residual
        assert counts["rescue_tries"] == 0


# A component that sits on a crater plane, near it or anywhere.
_COMPONENT = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-9, -1e-6]),
    st.floats(-1e-3, 1e-3),
    st.floats(-1.0, 1.0),
)
_RADIUS = st.one_of(st.sampled_from([1e-7, math.sqrt(2.0)]), st.floats(1e-7, math.sqrt(2.0)))


@st.composite
def node_stacks(draw):
    """(m, 3) unit directions near the crater planes, some with tied |y| = |z|, and (m,) radii."""
    rows, radii = [], []
    for _ in range(draw(st.integers(1, 8))):
        x, y, z = draw(st.floats(-1.0, 1.0)), draw(_COMPONENT), draw(_COMPONENT)
        if draw(st.booleans()):
            z = math.copysign(y, draw(st.sampled_from([1.0, -1.0])))
        v = np.array([x, y, z])
        norm = float(np.linalg.norm(v))
        rows.append(v / norm if norm > 1e-3 else np.array([1.0, 0.0, 0.0]))
        radii.append(draw(_RADIUS))
    return np.array(rows), np.array(radii)


# On the x axis (both planes near), on the z axis (the z = 0 tangent vanishes), next to z = 0.
_EDGE_NODES = (
    np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 1e-6]]),
    np.array([1e-7, 0.5, 1e-4]),
)


@settings(max_examples=300, deadline=None)
@given(node_stacks())
@example(_EDGE_NODES)
def test_batched_rescue_candidates_equal_one_node_calls(stack):
    v, radii = stack
    batched = _rescue_candidates(v, radii)
    for i, (row, r) in enumerate(zip(v, radii.tolist())):
        got = rescue_rows(*(a[i] for a in batched))
        one = rescue_rows(*(a[0] for a in _rescue_candidates(row[None, :], np.array([r]))))
        expect = reference_rescue_candidates(row, r)
        assert len(got) == len(one) == len(expect)
        for (u, reach), (u1, reach1), (u2, reach2) in zip(got, one, expect):
            assert u.tobytes() == u1.tobytes() == u2.tobytes()
            assert reach == reach1 == reach2


class TestCounterexampleInCoverCap:
    """A violation found by Cover Cap ends the cover with the first one in level order.

    The kernel is replaced by a keyed evaluator: radius 0.2 everywhere, so
    phase 1 queues each direction it walks, eleven with r_min 0.1 and the
    closing ring's of each band with 0.16, and every Cover Cap center passes
    unless it is keyed.  The 19 queued directions lie over 0.34 away from
    the rescue's crater planes, so no rescue candidate is made.
    """

    PS = generate_twisted_polar(12)
    PARAMS = CoverParams(d=north_pole_directed(12), region=Region(0.6, 1.0, 0.7, 1.3))
    DEFAULT = (0.01, 0.2)

    @pytest.fixture(autouse=True)
    def in_one_process(self, one_process):
        """Phase 1's keyed kernel and spies see both bands."""

    def cover(self, monkeypatch, special):
        evaluate = keyed_evaluator(special, self.DEFAULT)
        monkeypatch.setattr(_Engine, "evaluate_cart", lambda engine, dirs: evaluate(dirs))
        return cover_region(self.PS, self.PARAMS)

    def phase1(self, monkeypatch):
        """(CoverageRecords, the queue's (seed, r_min) pairs of r_min 0.1 in order) of phase 1.

        Phase 1 runs under the keyed evaluator.
        """
        evaluate = keyed_evaluator({}, self.DEFAULT)
        monkeypatch.setattr(_Engine, "evaluate_cart", lambda engine, dirs: evaluate(dirs))
        walks = _Engine(self.PS, self.PARAMS)._phase1()
        queue = phase1_table(walks, "cannot_cover")
        assert len(queue) == 19
        pairs = zip(queue.center, queue.required_radius.tolist())
        tenths = [(v, req) for v, req in pairs if req == 0.1]
        assert len(tenths) == 11
        return phase1_table(walks, "orbit"), tenths

    def seed_five_violation(self, queue):
        return cover_cap_centers(queue[5][0], 0.1)[2]

    def check(self, monkeypatch, special, phase1_records, direction, value):
        """The cover ends at `direction`, found in level 0's one call for the centers of every seed.

        So no Cover Cap row is kept, whichever seed the violation is in.
        """
        outcome = self.cover(monkeypatch, special)
        assert outcome.status == "counterexample"
        assert outcome.counterexample.direction.tobytes() == direction.tobytes()
        assert outcome.counterexample.value == value
        assert same_table(outcome.records, phase1_records)
        assert not outcome.not_covered

    def test_shallower_violation_in_a_later_seed_wins(self, monkeypatch):
        phase1_records, queue = self.phase1(monkeypatch)
        # Seed 2 descends through centers 3, 1 and 6, each short only at its
        # own level (3/4 of what it needs), and its node at depth 3 finds a
        # violating center 4.  Seed 5 violates at depth 0, in an earlier
        # level, and is found first.
        top = cover_cap_centers(queue[2][0], 0.1)
        child = cover_cap_centers(top[3], 0.05)
        grandchild = cover_cap_centers(child[1], 0.025)
        deepest = cover_cap_centers(grandchild[6], 0.0125)
        violation = self.seed_five_violation(queue)
        special = {
            top[3].tobytes(): (0.01, 0.75 * 0.05),
            child[1].tobytes(): (0.01, 0.75 * 0.025),
            grandchild[6].tobytes(): (0.01, 0.75 * 0.0125),
            deepest[4].tobytes(): (0.7, math.nan),
            violation.tobytes(): (0.9, math.nan),
        }
        self.check(monkeypatch, special, phase1_records, violation, 0.9)

    def test_violation_at_depth_zero(self, monkeypatch):
        phase1_records, queue = self.phase1(monkeypatch)
        violation = self.seed_five_violation(queue)
        special = {violation.tobytes(): (0.9, math.nan)}
        self.check(monkeypatch, special, phase1_records, violation, 0.9)

    def test_split_batches_give_the_same_counterexample(self, monkeypatch, splits):
        # The keyed kernel stands in for confidence_radii in both processes,
        # and only level 0's batch of 152 centres is split: the caller
        # evaluates the rows of the first 9.5 seeds, the cover's child the
        # rest.  A violation in either half is the in-process counterexample.
        phase1_records, queue = self.phase1(monkeypatch)
        head = self.seed_five_violation(queue)  # row 74: queue[5] is the 10th seed of the batch
        tail = cover_cap_centers(queue[-1][0], 0.1)[2]  # row 114, of the 15th seed
        expect = {}
        for v in (head, tail):
            expect[v.tobytes()] = self.cover(monkeypatch, {v.tobytes(): (0.9, math.nan)})
        special, parent, caller = {}, os.getpid(), set()  # caller: the rows batched in this process
        evaluate = keyed_evaluator(special, self.DEFAULT)

        def keyed_batches(points, dirs, d):
            # a ring ball, one direction, keeps the real kernel, as in `expect`
            if dirs.ndim == 1:
                return confidence_radii(points, dirs, d)
            if os.getpid() == parent:
                caller.update(v.tobytes() for v in dirs)
            return evaluate(dirs)

        monkeypatch.setattr(_Engine, "evaluate_cart", EVALUATE_CART)
        monkeypatch.setattr(covering, "confidence_radii", keyed_batches)
        monkeypatch.setattr(covering, "_SPLIT_ROWS", 100)
        monkeypatch.setattr(os, "fork", FORK)
        for violation, alone in expect.items():
            special.clear()
            special[violation] = (0.9, math.nan)
            outcome = cover_region(self.PS, self.PARAMS)
            assert outcome.status == "counterexample"
            assert outcome.counterexample.direction.tobytes() == violation
            assert same_table(outcome.records, alone.records)
            # the keyed evaluate_cart of `expect` does not count evaluations or batches
            for key in ("n_evaluations", "kernel_batches", "kernel_batch_rows"):
                del outcome.counters[key], alone.counters[key]
            assert outcome.counters == alone.counters
            assert outcome.counters["phase1_bands"] == 2
        assert splits == [152, 152]
        assert head.tobytes() in caller and tail.tobytes() not in caller

    def test_later_seed_is_not_expanded(self, monkeypatch):
        # Seed 9's center 1 is short and its child violates at depth 1: a
        # later violation the cover never reaches.
        phase1_records, queue = self.phase1(monkeypatch)
        violation = self.seed_five_violation(queue)
        top = cover_cap_centers(queue[9][0], 0.1)
        special = {
            violation.tobytes(): (0.9, math.nan),
            top[1].tobytes(): (0.01, 0.75 * 0.05),
            cover_cap_centers(top[1], 0.05)[2].tobytes(): (0.8, math.nan),
        }
        self.check(monkeypatch, special, phase1_records, violation, 0.9)


def reference_inside(centers, radii, c, r):
    """`_inside_test(centers, radii)(c, r)` testing every pair, with the same rounding."""
    found = []
    for lo in range(0, len(c), 512):
        block, need = c[lo : lo + 512, None, :], r[lo : lo + 512, None]
        s = (radii - covering._INSIDE_MARGIN)[None, :] - need
        d2 = np.square(block[..., 0] - centers[None, :, 0])
        d2 += np.square(block[..., 1] - centers[None, :, 1])
        d2 += np.square(block[..., 2] - centers[None, :, 2])
        found.append(((s >= 0.0) & (d2 <= s * s)).any(axis=1))
    return np.concatenate(found) if found else np.zeros(0, dtype=bool)


def exactly_inside(c, r, o, r_o) -> bool:
    """Whether |c - o| + r <= r_o holds for the floats' exact rational values."""
    gap = Fraction(float(r_o)) - Fraction(float(r))
    square = sum((Fraction(float(a)) - Fraction(float(b))) ** 2 for a, b in zip(c, o))
    return gap >= 0 and square <= gap * gap


def assert_inside_a_ball(c, r, centers, radii):
    """B(c, r) lies inside the ball of (centers, radii) that the floats rank first, exactly."""
    slack = radii - np.sqrt(np.sum(np.square(centers - c), axis=1)) - r
    j = int(np.argmax(slack))
    assert exactly_inside(c, r, centers[j], radii[j]), (c, r, centers[j], radii[j])


def unit_rows(a):
    a = np.asarray(a, dtype=float).reshape(-1, 3)
    return a / np.linalg.norm(a, axis=1)[:, None]


def polar_unit(theta, z):
    rho = math.sqrt(1.0 - z * z)
    return np.array([rho * math.cos(theta), rho * math.sin(theta), z])


_UNIT = st.builds(polar_unit, st.floats(-math.pi, math.pi), st.floats(-1.0, 1.0))
# Gaps r_o - |c - o| - r of a query ball built inside an outer one: around the margin and wider.
_GAPS = st.sampled_from([-1e-9, 0.0, 1e-13, 5e-13, 1e-12, 1.1e-12, 2e-12, 1e-9, 1e-4])


@st.composite
def nested_balls(draw):
    """Outer balls and query balls, most built just inside or just outside an outer one."""
    outer = np.array(draw(st.lists(_UNIT, min_size=1, max_size=12)))
    radii = np.array([draw(st.floats(1e-6, 0.3)) for _ in outer])
    queries, needs = [], []
    for _ in range(draw(st.integers(1, 12))):
        j = draw(st.integers(0, len(outer) - 1))
        c = unit_rows(outer[j] + draw(st.floats(0.0, 0.7)) * radii[j] * draw(_UNIT))[0]
        r = radii[j] - float(np.linalg.norm(c - outer[j])) - draw(_GAPS)
        queries.append(c)
        needs.append(r if r > 0.0 else draw(st.floats(0.0, 0.5)))
    return outer, radii, np.array(queries), np.array(needs)


class TestInsideTest:
    @settings(max_examples=300, deadline=None)
    @given(nested_balls(), st.sampled_from([covering._INSIDE_PAIRS, 1, 3]))
    # a ball as large as the largest one allows, on the same centre
    @example((unit_rows([1.0, 0.0, 0.0]), np.array([0.25]), unit_rows([1.0, 0.0, 0.0]),
              np.array([0.25 - covering._INSIDE_MARGIN])), covering._INSIDE_PAIRS)
    def test_finds_every_ball_inside_and_only_those(self, balls, pairs):
        centers, radii, c, r = balls
        saved = covering._INSIDE_PAIRS
        covering._INSIDE_PAIRS = pairs
        try:
            got = _inside_test(centers, radii)(c, r)
        finally:
            covering._INSIDE_PAIRS = saved
        assert got.tolist() == reference_inside(centers, radii, c, r).tolist()
        for i in np.flatnonzero(got):
            assert_inside_a_ball(c[i], r[i], centers, radii)

    @pytest.mark.parametrize("dx", [-1, 0, 1])
    @pytest.mark.parametrize("dy", [-1, 0, 1])
    def test_a_centre_in_each_neighbouring_column_is_found(self, dx, dy):
        # Columns have the largest radius, 0.25, as side, with edges at x, y = 0:
        # the outer centre lies (dx, dy) columns from the query's, 0.02 away.
        def at(x, y):
            return np.array([x, y, math.sqrt(1.0 - x * x - y * y)])

        near = {-1: 0.01, 0: 0.1, 1: -0.01}
        c = at(near[dx], near[dy])
        o = at(near[dx] + 0.02 * dx, near[dy] + 0.02 * dy)
        columns = np.floor((np.array([c[:2], o[:2]]) + 1.0) / 0.25)
        assert (columns[1] - columns[0]).tolist() == [dx, dy]
        inside = _inside_test(o[None, :], np.array([0.25]))
        assert inside(c[None, :], np.array([0.2])).tolist() == [True]

    def test_the_margin_keeps_a_ball_on_the_boundary(self):
        o, c = unit_rows([[1.0, 0.0, 0.0], [1.0, 0.01, 0.0]])
        gap = float(np.linalg.norm(c - o))
        inside = _inside_test(o[None, :], np.array([0.1]))
        for slack, expect in ((0.0, False), (0.5e-12, False), (2e-12, True)):
            r = 0.1 - gap - slack
            assert inside(c[None, :], np.array([r])).tolist() == [expect]
            assert exactly_inside(c, r, o, 0.1) or not expect

    def test_no_outer_ball_and_no_query(self):
        nothing = _inside_test(np.zeros((0, 3)), np.zeros(0))
        assert nothing(unit_rows([[0.0, 0.0, 1.0]]), np.array([0.0])).tolist() == [False]
        some = _inside_test(unit_rows([[0.0, 0.0, 1.0]]), np.array([0.5]))
        assert some(np.zeros((0, 3)), np.zeros(0)).tolist() == []

    @pytest.mark.parametrize("n, structure", [(14, "polar"), (20, "twisted")])
    def test_cover_drops_exactly_the_cover_cap_rows_inside_phase_1_balls(self, n, structure):
        ps, params = conjecture_setup(n, structure)
        outcome = whole_walk(ps, params)
        # Every row the cover made: phase 1's, then all of Cover Cap's, in order.
        with contextlib.closing(_Engine(ps, params)) as engine:
            walks = engine._phase1()
            queue = phase1_table(walks, "cannot_cover")
            _, cover_cap, residual, _ = cover_cap_recurse(
                engine.evaluate_cart, *vars(queue).values(), params.cover_cap_max_depth
            )
        orbit = phase1_table(walks, "orbit")
        columns = zip(vars(orbit).values(), vars(cover_cap).values())
        made = CoverageRecords(*(np.concatenate(c) for c in columns))
        inside = reference_inside(orbit.center, orbit.radius, cover_cap.center, cover_cap.radius)
        drop = np.concatenate((np.zeros(len(orbit), dtype=bool), inside))
        assert drop.sum() == outcome.counters["cover_cap_inside_orbit"] > 0
        kept = CoverageRecords(*(column[~drop] for column in vars(made).values()))
        assert same_table(outcome.records, kept)
        assert outcome.counters["n_cover_cap_dirs"] == len(cover_cap) - drop.sum()
        assert same_table(outcome.not_covered, residual)
        for i in np.flatnonzero(drop):
            assert_inside_a_ball(made.center[i], made.radius[i], orbit.center, orbit.radius)


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

    @settings(max_examples=400, deadline=None)
    @given(
        phi=st.sampled_from([0.0, 0.3, -1.2]),
        dpsi=st.sampled_from([0.0, 0.01, -0.05]) | st.floats(-0.3, 0.3),
        balls=st.lists(
            st.tuples(
                st.sampled_from([0.0, 0.1, 0.2, 0.35, 0.5]) | st.floats(-0.5, 1.5),
                st.sampled_from([0.1, 0.2, 0.4]) | st.floats(0.0, 2.0),
            ),
            min_size=1, max_size=8,
        ),
        lo=st.sampled_from([0.0, 0.1, 0.3]) | st.floats(-0.5, 1.0),
        width=st.sampled_from([0.0, 0.2, 0.5]) | st.floats(0.0, 1.5),
    )
    def test_rings_in_centre_order_agree_with_the_loop(self, phi, dpsi, balls, lo, width):
        # Balls in non-decreasing centre order, as walk_orbit appends them:
        # repeated, nested, with tied starts and ends (shared centres and
        # radii on a common latitude) and ranges of no width.
        balls = sorted(balls, key=lambda ball: ball[0])
        psi = phi + dpsi
        expect = reference_covered(phi, balls, lo, lo + width, psi)
        assert _band_test(phi, balls, lo, lo + width)(psi) == expect

    @pytest.mark.parametrize(
        "phi, balls, lo, hi, psi, expect",
        [
            # one ball reaches psi at every longitude (q <= -1), the others not
            pytest.param(0.2, [(0.0, 0.01), (0.5, 1.99), (1.0, 0.01)], 0.0, 1.0, 0.2, True,
                         id="q-below-minus-one"),
            # no ball reaches psi (every q >= 1): no intervals at all
            pytest.param(0.2, [(0.0, 0.1), (0.1, 0.1)], 0.0, 0.1, 0.5, False, id="all-q-above-one"),
            # a range of no width is covered only by an interval that reaches it
            pytest.param(0.2, [(0.0, 0.1)], 0.3, 0.3, 0.5, False, id="no-intervals-empty-range"),
            pytest.param(0.0, [(0.25, 0.2)], 0.5, 0.5, 0.0, False, id="empty-range-after-the-ball"),
            pytest.param(0.0, [(0.4, 0.2)], 0.5, 0.5, 0.0, True, id="empty-range-in-the-ball"),
            pytest.param(*tied_start_ring(), True, id="tied-starts"),
            pytest.param(0.4, [(0.0, 0.2), (0.0, 0.2), (0.2, 0.2)], 0.0, 0.3, 0.41, True,
                         id="duplicate-balls"),
            # the first interval starts just past theta_lo, then within 1e-12 of it
            pytest.param(0.0, [(W02 + 1e-9, 0.2), (0.3, 0.2)], 0.0, 0.5, 0.0, False,
                         id="gap-after-theta-lo"),
            pytest.param(0.0, [(W02 + 1e-13, 0.2), (0.3, 0.2)], 0.0, 0.5, 0.0, True,
                         id="start-within-tolerance"),
            pytest.param(*end_at_reach_ring(), True, id="end-exactly-at-reach"),
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

    @pytest.mark.parametrize(
        "setup",
        [
            pytest.param(lambda: conjecture_setup(20, "twisted"), id="20-twisted"),
            pytest.param(lambda: conjecture_setup(14, "polar"), id="14-polar"),
            pytest.param(twisted_8_to_the_pole, id="8-twisted-to-the-pole"),
            pytest.param(random_30_to_the_south_pole, id="30-random-to-the-south-pole"),
        ],
    )
    def test_walked_rings_give_the_same_band(self, setup, monkeypatch, one_process):
        # Every ring of a cover, the closing and spanning ones included:
        # band_lo is the reference's, and whether the band reaches a target
        # is decided as the reference's whole band_hi would decide it, for
        # the ring's own target and for targets at, next to and r_min/16
        # around band_hi.  Each band test gets its ring in centre order.
        rings, closing, in_order = [], [], []
        original, closeout = _Engine._orbit_band, _Engine._final_orbit_closeout
        band_test = covering._band_test

        def recording(self, phi, r_min, balls, target):
            rings.append((self, phi, r_min, list(balls), target))
            return original(self, phi, r_min, balls, target)

        def ordered_band_test(phi, balls, theta_lo, theta_hi):
            thetas = [theta for theta, _ in balls]
            in_order.append(all(a <= b for a, b in zip(thetas, thetas[1:])))
            return band_test(phi, balls, theta_lo, theta_hi)

        def recording_closeout(self, lowest_covered):
            first = len(rings)
            try:
                return closeout(self, lowest_covered)
            finally:
                closing.extend(range(first, len(rings)))

        monkeypatch.setattr(_Engine, "_orbit_band", recording)
        monkeypatch.setattr(_Engine, "_final_orbit_closeout", recording_closeout)
        monkeypatch.setattr(covering, "_band_test", ordered_band_test)
        ps, params = setup()
        assert whole_walk(ps, params).status == "covered"
        spans = [balls[-1][1] > 2.0 * math.cos(phi) for _, phi, _, balls, _ in rings]
        if params.region.phi_min == -math.pi / 2:
            # each band ends in a closing ring; the lower band's spans its
            # circle, and its band reaches the south pole
            assert spans == [False] * 5 + [True] and closing == [1, 5]
        elif params.region.phi_max < math.pi / 2:
            assert len(rings) > 10 and closing and not any(spans)
        else:
            assert spans == [True, False, False]  # the pole's ball, then a ring in each band
        assert len(in_order) == len(rings) - sum(spans) and all(in_order)
        reg = params.region
        for engine, phi, r_min, balls, target in rings:
            band_lo, band_hi = reference_band(phi, r_min, balls, reg.theta_min, reg.theta_max)
            targets = [target, band_hi, np.nextafter(band_hi, np.inf), np.nextafter(band_hi, -np.inf)]
            targets += [band_hi + r_min / 16.0, band_hi - r_min / 16.0]
            # A target is a latitude, at most pi/2; a band reaching the north pole reaches them all.
            for t in (float(t) for t in targets if t <= math.pi / 2):
                got = original(engine, phi, r_min, balls, t)
                assert got == (band_lo, band_hi >= t), (phi, r_min, t)


class TestPhase1Misses:
    """A ring whose band misses the covered band is walked again halfway back to it.

    After 51 misses in a row, the band below is left to one residual ball.
    The cover is the small twisted 12 one of tests/test_reporting.py, with
    `_Engine._orbit_band` reporting a miss, (phi, False), on chosen calls of
    both latitude bands, walked in this process.
    """

    @pytest.fixture(autouse=True)
    def in_one_process(self, one_process):
        """The spy on `_orbit_band` sees both bands."""

    PS = generate_twisted_polar(12)
    PARAMS = CoverParams(
        d=north_pole_directed(12), region=Region(0.6, 1.0, 0.0, 0.8), cover_cap_max_depth=8
    )

    def cover(self, monkeypatch, miss):
        """(outcome, [(phi, band) of each ring]) with a miss on each call i for which miss(i)."""
        rings, real = [], _Engine._orbit_band

        def orbit_band(engine, phi, r_min, balls, target):
            band = (phi, False) if miss(len(rings)) else real(engine, phi, r_min, balls, target)
            rings.append((phi, band))
            return band

        monkeypatch.setattr(_Engine, "_orbit_band", orbit_band)
        return cover_region(self.PS, self.PARAMS), rings

    def test_a_missed_ring_is_walked_again_halfway_back(self, monkeypatch):
        outcome, rings = self.cover(monkeypatch, lambda i: i == 1)
        (_, (band_lo, connected)), (missed, _), (retried, _) = rings[:3]
        assert connected
        lowest_covered = min(self.PARAMS.region.phi_max, band_lo)
        assert missed < retried < lowest_covered
        assert retried == 0.5 * (missed + lowest_covered)
        assert outcome.status == "covered"
        audit = audit_coverage(self.PS, self.PARAMS, outcome, probe_count=2_000, seed=0)
        assert (audit["uncovered"], audit["over_bound"]) == (0, 0)

    def test_51_misses_in_a_row_leave_the_band_to_one_residual_ball(self, monkeypatch):
        outcome, rings = self.cover(monkeypatch, lambda i: True)
        # nothing is covered, so each retry walks the ring at its band's phi_max again
        tops = [band.phi_max for band in covering._bands(self.PARAMS.region)]
        assert [phi for phi, _ in rings] == [tops[0]] * 51 + [tops[1]] * 51
        assert outcome.status == "residual"
        assert outcome.counters["n_orbits"] == 102
        center, required = vars(outcome.not_covered).values()
        theta = self.PARAMS.region.theta_min
        assert center.tobytes() == np.array([polar_to_cartesian(theta, phi) for phi in tops]).tobytes()
        # each band's residual ball needs the r_min of its 51 rings
        assert required.min() == outcome.counters["r_min_global"]
        assert np.median(np.repeat(required, 51)) == outcome.counters["r_min_median"]

    def test_a_ring_not_covered_at_its_own_latitude_misses(self):
        # Two balls of radius 0.05 at theta 0 and 0.8 leave a gap on their own ring.
        engine, phi = _Engine(self.PS, self.PARAMS), 0.7
        balls = [(0.0, 0.05), (0.8, 0.05)]
        assert engine._orbit_band(phi, 0.05, balls, phi + 0.01) == (phi, False)
        assert engine.ledger["band_tests"] == 1  # the test at phi alone

    def test_an_edge_search_stops_after_10_000_steps(self, monkeypatch):
        # Every latitude is covered and r_min is tiny: each edge steps 10,000 times by 1e-6.
        monkeypatch.setattr(covering, "_band_test", lambda *args: lambda psi: True)
        engine, phi = _Engine(self.PS, self.PARAMS), 0.7
        lowest = phi
        for _ in range(10_000):
            lowest -= 1e-6
        assert engine._orbit_band(phi, 1e-9, [(0.0, 1e-9)], phi + 0.1) == (lowest, False)
        assert engine.ledger["band_tests"] == 1 + 2 * 10_000


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
        vals = directed_values(ps.points, outcome.records.center)
        assert (vals <= d - 1.0 / ps.size + 1e-12).all()

    def test_tiny_bound_reports_counterexample(self):
        ps = generate_twisted_polar(8)
        params = CoverParams(d=1e-9, region=Region(0.0, 0.5, 0.0, 1.0))
        outcome = cover_region(ps, params)
        assert outcome.status == "counterexample"
        assert outcome.counterexample is not None
        assert outcome.counterexample.value + 1.0 / ps.size > 1e-9
        # Every orbit sample violates; the witness is the first of them.
        first = polar_to_cartesian(0.5 * 1.0 / 20, 0.5)
        assert outcome.counterexample.direction.tobytes() == first.tobytes()

    def test_region_down_to_the_south_pole_is_covered(self):
        # phi_min = -pi/2 is the closed end of the latitude range, not an error.
        ps = generate_twisted_polar(12)
        params = CoverParams(d=0.1, region=Region(-math.pi / 2, -1.0, 0.0, math.pi))
        outcome = cover_region(ps, params)
        assert outcome.status == "covered"
        assert outcome.counters["n_DD"] > 0

    def test_a_pole_ball_that_reaches_phi_min_is_the_whole_walk(self):
        ps, params = twisted_8_to_the_pole()
        params = replace(params, region=replace(params.region, phi_min=1.5))
        engine = _Engine(ps, params)
        engine._walk()
        ((_, r, _),) = engine.orbit
        assert phi_max_from_radius(r) <= 1.5
        assert engine.ledger["n_evaluations"] == 1 and engine.r_min_per_orbit == []
        assert not engine.cannot_cover and not engine.stranded
        outcome = cover_region(ps, params)
        assert outcome.status == "covered"
        audit = audit_coverage(ps, params, outcome, probe_count=2_000, seed=0)
        assert (audit["uncovered"], audit["over_bound"]) == (0, 0)

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

    @pytest.mark.parametrize("generator, n", [("generate_polar", 14), ("generate_twisted_polar", 20)])
    def test_a_ring_that_cannot_step_ends_residual(self, generator, n):
        # At d = north + 1/t the pole ball's slab radius is exactly 0 (the
        # points share z by rings, so projections onto the pole tie), the
        # ring samples give r_min = 0, and the walk once evaluated one
        # direction forever.  A subprocess with a timeout bounds the run.
        # Every probe of the region outside the records lies in the residual ball.
        script = textwrap.dedent(
            f"""
            import math
            import numpy as np
            from capdisc.covering import CoverParams, cover_region
            from capdisc.geometry import Region
            from capdisc.pointsets import {generator}
            from capdisc.polar_analysis import north_pole_directed
            from capdisc.reporting import sample_region_directions

            ps = {generator}({n})
            region = Region(0.0, math.pi / 2, 0.0, 2.0 * math.pi)
            outcome = cover_region(ps, CoverParams(north_pole_directed({n}) + 1.0 / ps.size, region, 12))
            probes = sample_region_directions(region, 4096, np.random.default_rng(0))
            recs, rest = outcome.records, outcome.not_covered
            dist = np.linalg.norm(probes[:, None] - recs.center[None], axis=2)
            left = probes[(dist > recs.radius).all(axis=1)]
            inside = np.linalg.norm(left - rest.center[0], axis=1) <= rest.required_radius[0]
            print(outcome.status, len(rest), len(left), bool(inside.all()))
            """
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=10
        )
        assert proc.returncode == 0, proc.stderr
        status, residuals, left, inside = proc.stdout.split()
        assert (status, residuals, inside) == ("residual", "1", "True")
        # The pole ball of radius 0 covers no probe, so the upper band, half
        # the region's area, is left to the residual ball; the lower one's
        # rings are walked.
        assert 1800 < int(left) < 2300

    def test_closing_ring_with_a_radius_floor_above_sqrt_2_ends_covered(self):
        # Three random points give this region's rings a median radius of 2,
        # and the closing ring's floor of 0.8 x median once queued directions
        # needing 1.6, above the sqrt(2) that Cover Cap takes: the cover
        # raised ValueError.  A subprocess with a timeout bounds the run.
        script = textwrap.dedent(
            """
            import time
            from capdisc.covering import CoverParams, cover_region
            from capdisc.geometry import Region
            from capdisc.pointsets import generate_random_uniform
            from capdisc.reporting import audit_coverage

            ps = generate_random_uniform(3, seed=130511052)
            region = Region(-1.3680324490375013, 0.7438642262760937, 0.0, 1.365545624367707)
            params = CoverParams(0.95, region)
            t0 = time.perf_counter()
            outcome = cover_region(ps, params)
            seconds = time.perf_counter() - t0
            audit = audit_coverage(ps, params, outcome, probe_count=20_000, seed=0)
            print(outcome.status, seconds < 10.0, audit["uncovered"], audit["over_bound"])
            """
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["covered", "True", "0", "0"]

    @pytest.mark.parametrize(
        "region",
        [pytest.param(Region(0.2, 0.9, 0.5, 0.5 + w), id=str(w)) for w in (0.0, 1e-13)]
        + [pytest.param(Region(0.5, 0.5 + w, 0.2, 0.9), id=f"latitude-{w}") for w in (0.0, 1e-13)],
    )
    def test_region_of_no_width_is_covered_by_balls_that_reach_it(self, region):
        # A ring whose range ends where it starts once counted as covering
        # every latitude, so one ball "covered" the whole region.  A range of
        # no width in latitude is one ring, whose balls must reach along it.
        ps = generate_twisted_polar(12)
        params = CoverParams(d=north_pole_directed(12), region=region, cover_cap_max_depth=8)
        outcome = cover_region(ps, params)
        assert outcome.status == "covered"
        audit = audit_coverage(ps, params, outcome, probe_count=2_000, seed=0)
        assert (audit["uncovered"], audit["over_bound"]) == (0, 0)

    def test_cover_cap_counters_on_polar_14(self):
        # The engine walks half the region, theta in [0, pi/2 + 1e-9]; the rest is mirror images.
        ps, params = conjecture_setup(14, "polar")
        counters = cover_region(ps, params).counters
        assert {key: counters[key] for key in COVER_CAP_COUNTERS} == {
            "cover_cap_nodes": 275,
            "cover_cap_levels": 6,
            "rescue_tries": 361,
            "rescue_hits": 25,
        }
        assert counters["n_evaluations"] == 5679
        assert (counters["cover_cap_inside_orbit"], counters["not_covered_inside_orbit"]) == (333, 0)

    def test_outcome_holds_at_most_64_bytes_per_record(self):
        # The columns take 41 bytes a record (centre 24, radius 8, Dis 8,
        # origin 1); a Python object per record would take about 300.
        outcome = cover_region(*conjecture_setup(14, "polar"))
        # the walked half's 2,826 rows (3,159 before the 333 Cover Cap rows
        # inside phase-1 balls were dropped) and their mirror images
        assert len(outcome.records) == 5652
        held = held_bytes(outcome)
        assert held <= 64 * len(outcome.records), held / len(outcome.records)

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
            "band_tests",
            "kernel_batches",
            "kernel_batch_rows",
            "n_orbits",
            "r_min_global",
            "r_min_median",
            *COVER_CAP_COUNTERS,
            "cover_cap_inside_orbit",
            "not_covered_inside_orbit",
        ):
            assert key in outcome.counters
        assert outcome.counters["n_evaluations"] >= outcome.counters["n_DD"]
        assert outcome.counters["r_min_global"] <= outcome.counters["r_min_median"]


X_MIRROR = np.array([-1.0, 1.0, 1.0])


def polar_14_moved():
    """Plain polar 14 with one ring point moved 1e-6 along its ring: no map fits within 1e-12."""
    ps, params = conjecture_setup(14, "polar")
    points = ps.points.copy()
    x, y, z = points[5]
    points[5] = polar_to_cartesian(math.atan2(y, x) + 1e-6, math.asin(z))
    return PointSet(points, ps.meta), params


def polar_14_over_0_to_3():
    ps, params = conjecture_setup(14, "polar")
    return ps, replace(params, region=replace(params.region, theta_max=3.0))


def random_30_over_0_to_pi():
    return generate_random_uniform(30, 0), CoverParams(0.3, Region(0.0, 0.6, 0.0, math.pi), 6)


def half_params(params):
    """`params` over the half of its region that `cover_region` walks, past pi/2 by 1e-9 >> 1e-12."""
    return replace(params, region=replace(params.region, theta_max=math.pi / 2 + 1e-9))


class TestMirror:
    """A region closed under theta -> pi - theta, of a set that maps onto itself, is walked by half."""

    @pytest.mark.parametrize("n", [14, 20, 30])
    def test_images_are_the_walked_half_mirrored_and_sound(self, n):
        ps, params = conjecture_setup(n, "polar")
        outcome = cover_region(ps, params)
        half = whole_walk(ps, half_params(params))
        m, k = len(half.records), len(half.not_covered)
        assert outcome.status == half.status
        assert outcome.counters["mirror_rows"] == m + k == len(outcome.records) - m + k > 0
        delta = outcome.counters["mirror_delta"]
        assert 2.0**-50 <= delta <= 2e-15  # the polar sets map onto themselves within 1.7e-15
        records, images = (
            CoverageRecords(*(column[part] for column in vars(outcome.records).values()))
            for part in (slice(None, m), slice(m, None))
        )
        assert same_table(records, half.records)
        assert images.center.tobytes() == (records.center * X_MIRROR).tobytes()
        assert images.radius.tobytes() == np.maximum(records.radius - 2.0 * delta, 0.0).tobytes()
        for key in ("directed_value", "origin"):
            assert getattr(images, key).tobytes() == getattr(records, key).tobytes()
        # no image claims more than the kernel grants at its own centre
        _, radius = confidence_radii(ps.points, images.center, params.d)
        assert not np.isnan(radius).any()
        assert (images.radius <= radius).all(), float((radius - images.radius).min())
        residuals = outcome.not_covered
        assert same_table(Residuals(residuals.center[:k], residuals.required_radius[:k]), half.not_covered)
        assert residuals.center[k:].tobytes() == (half.not_covered.center * X_MIRROR).tobytes()
        assert residuals.required_radius[k:].tobytes() == half.not_covered.required_radius.tobytes()

    @pytest.mark.parametrize("n", [14, 20])
    def test_the_records_cover_the_whole_region(self, n):
        ps, params = conjecture_setup(n, "polar")
        assert (params.region.theta_min, params.region.theta_max) == (0.0, math.pi)
        outcome = cover_region(ps, params)
        assert outcome.counters["mirror_rows"] > 0
        audit = audit_coverage(ps, params, outcome, probe_count=100_000, seed=0)
        assert (audit["uncovered"], audit["over_bound"]) == (0, 0)

    @pytest.mark.parametrize(
        "setup",
        [
            pytest.param(lambda: conjecture_setup(20, "twisted"), id="20-twisted"),
            pytest.param(random_30_over_0_to_pi, id="30-random"),
            pytest.param(polar_14_moved, id="14-polar-one-point-moved"),
            pytest.param(polar_14_over_0_to_3, id="14-polar-theta-0-to-3"),
        ],
    )
    def test_without_a_mirror_the_whole_region_is_walked(self, setup):
        ps, params = setup()
        outcome = cover_region(ps, params)
        whole = whole_walk(ps, params)
        assert outcome.status == whole.status
        assert same_table(outcome.records, whole.records)
        assert same_table(outcome.not_covered, whole.not_covered)
        assert outcome.counters == {**whole.counters, "mirror_rows": 0, "mirror_delta": None}

    def test_a_half_that_ends_in_a_counterexample_gets_no_images(self, monkeypatch):
        # The first Cover Cap batch of more than 20 rows breaks the hypothesis in its first row.
        def breaks_in_cover_cap(engine, directions):
            dis, radius = EVALUATE_CART(engine, directions)
            if len(directions) > covering.ORBIT_SAMPLE_COUNT:
                radius[0] = math.nan
            return dis, radius

        monkeypatch.setattr(_Engine, "evaluate_cart", breaks_in_cover_cap)
        ps, params = conjecture_setup(14, "polar")
        outcome = cover_region(ps, params)
        half = whole_walk(ps, half_params(params))
        assert outcome.status == half.status == "counterexample" and len(half.records) > 0
        assert same_table(outcome.records, half.records)
        assert same_table(outcome.not_covered, half.not_covered)
        assert outcome.counters["mirror_rows"] == 0 and outcome.counters["mirror_delta"] is not None

    def test_a_record_of_radius_0_has_an_image_of_radius_0(self):
        # At d = north + 1/t the pole ball's slab radius is exactly 0, and phase 1 stops there.
        ps = generate_polar(14)
        params = CoverParams(north_pole_directed(14) + 1.0 / ps.size, Region(0.0, math.pi / 2, 0.0, math.pi))
        outcome = cover_region(ps, params)
        m = len(outcome.records) // 2
        assert outcome.status == "residual"
        assert outcome.counters["mirror_rows"] == m + len(outcome.not_covered) // 2
        assert outcome.records.radius[0] == outcome.records.radius[m] == 0.0
        assert outcome.records.center[m].tobytes() == (outcome.records.center[0] * X_MIRROR).tobytes()
        _, radius = confidence_radii(ps.points, outcome.records.center[m:], params.d)
        assert not np.isnan(radius).any() and (outcome.records.radius[m:] <= radius).all()

    def test_the_maps_are_found_and_refused(self):
        q = generate_random_uniform(40, 3).points
        for flip in (X_MIRROR, np.array([1.0, -1.0, -1.0])):  # the x-mirror, the half-turn about x
            assert covering._mirror_delta(np.concatenate((q, q * flip))) == 2.0**-50  # exact images
        assert covering._mirror_delta(q) is None
        assert covering._mirror_delta(generate_twisted_polar(80).points) is None
        # a point moved 1e-11 passes the x-mirror's column check, and fails its row match
        moved = np.concatenate((q, q * X_MIRROR))
        moved[0, 2] += 1e-11
        assert covering._mirror_delta(moved) is None
        assert 0.0 < covering._mirror_delta(conjecture_setup(30, "polar")[0].points) <= 2e-15


def report_digest(ps, params, outcome) -> str:
    doc = strip_timings(report_dict(ps, params, outcome))
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


class TestHelper:
    """The cover's child evaluates the tail half of each batch of _SPLIT_ROWS rows or more."""

    def split(self, n, rows, seed, batches=1):
        """A fresh engine on polar n, closed after `batches` batches of `rows` random directions.

        The engine has the child that `_phase1` starts for a cover of one
        band, if one forks.  Each batch must have the bytes of an in-process call.
        """
        ps, params = conjecture_setup(n, "polar")
        with contextlib.closing(_Engine(ps, params)) as engine:
            engine.child = covering._Child.start(engine)
            for i in range(batches):
                directions = uniform_directions(rows, seed=seed + i)
                dis, radius = engine.evaluate_cart(directions)
                expect = confidence_radii(ps.points, directions, params.d)
                assert dis.tobytes() == expect[0].tobytes()
                assert radius.tobytes() == expect[1].tobytes()
        assert engine.ledger["n_evaluations"] == batches * rows
        return engine

    def test_split_batch_equals_the_in_process_bytes(self, splits, monkeypatch):
        # The engine's child evaluates the tail half of each batch, the caller the head half.
        caller = []
        kernel_by_process(monkeypatch, caller=lambda dirs: caller.append(len(dirs)))
        forks = recorded_forks(monkeypatch)
        for n, rows in ((30, 2_500), (14, 1_592)):
            engine = self.split(n, rows, seed=3, batches=2)
            assert engine.child.seconds > 0.0
        assert splits == [2_500, 2_500, 1_592, 1_592] and len(forks) == 2
        assert caller == [1_250, 1_250, 796, 796]

    def test_caller_takes_the_batch_when_no_child_forks(self, splits, monkeypatch, one_process):
        caller = []
        kernel_by_process(monkeypatch, caller=lambda dirs: caller.append(len(dirs)))
        engine = self.split(30, 2_500, seed=3)
        assert splits == [] and engine.child is None and caller == [2_500]

    def test_beside_another_thread_the_caller_takes_the_batch(self, splits, monkeypatch):
        forks = recorded_forks(monkeypatch)
        release = threading.Event()
        waiter = threading.Thread(target=release.wait, args=(10,))
        waiter.start()
        try:
            engine = self.split(30, 2_500, seed=3)
        finally:
            release.set()
            waiter.join(10)
        assert not waiter.is_alive()
        assert splits == [] and forks == [] and engine.child is None

    @pytest.mark.parametrize("where", ["caller", "helper"])
    def test_kernel_error_raises_in_the_caller_as_itself(self, splits, monkeypatch, where):
        # The child's error comes back pickled: an equal exception of the same type.
        error = ValueError(f"no kernel in the {where}")

        def fails(directions):
            raise error

        kernel_by_process(monkeypatch, **{where: fails})
        with pytest.raises(ValueError) as info:
            self.split(14, 4_096, seed=7)
        if where == "caller":
            assert info.value is error
        assert (type(info.value), info.value.args) == (ValueError, error.args)
        assert splits == [4_096]

    def test_kernel_error_raises_in_the_parent_as_itself(self, splits, monkeypatch):
        # The child's kernel fails on polar 14's one split batch, in a cover:
        # the cover raises the child's error, and reaps it (no_child_left checks).
        def fails_in_cover_cap(directions):
            if in_cover_cap_of_the_child(directions):
                raise ValueError(f"no kernel in {os.getpid()}")

        kernel_by_process(monkeypatch, helper=fails_in_cover_cap)
        forks = recorded_forks(monkeypatch)
        with pytest.raises(ValueError) as info:
            whole_walk(*conjecture_setup(14, "polar"))
        assert splits == [1_592]
        assert info.value.args == (f"no kernel in {forks[0]}",)

    def test_exception_in_cover_cap_reaps_the_helper(self, splits, monkeypatch):
        class Stop(Exception):
            pass

        def stops_in_the_split(directions):
            if splits:
                raise Stop

        kernel_by_process(monkeypatch, caller=stops_in_the_split)
        with pytest.raises(Stop):
            cover_region(*conjecture_setup(14, "polar"))
        assert len(splits) == 1

    def test_a_child_killed_in_cover_cap_raises_its_exit_status(self, splits, monkeypatch):
        def dies_in_cover_cap(directions):
            if in_cover_cap_of_the_child(directions):
                os.kill(os.getpid(), signal.SIGKILL)

        kernel_by_process(monkeypatch, helper=dies_in_cover_cap)
        with pytest.raises(RuntimeError, match="exited with status -9$"):
            whole_walk(*conjecture_setup(14, "polar"))
        assert splits == [1_592]

    def test_closing_a_child_reaped_elsewhere_raises_nothing(self):
        # So it cannot replace the exception a cover is raising.
        child = covering._Child.start(_Engine(*conjecture_setup(14, "polar")))
        os.kill(child.pid, signal.SIGKILL)
        os.waitpid(child.pid, 0)
        child.close()
        child.close()  # a second close does nothing

    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process states from /proc")
    def test_the_child_of_a_cover_killed_in_cover_cap_exits(self):
        # The cover is killed as it splits its first Cover Cap batch.
        script = textwrap.dedent(
            """
            import os
            from capdisc import conjecture_setup, cover_region, covering

            fork, evaluate = os.fork, covering._Child.evaluate

            def announced():
                pid = fork()
                if pid:
                    print(pid, flush=True)
                return pid

            def split(*args):
                print("split", flush=True)
                return evaluate(*args)

            os.fork, covering._Child.evaluate = announced, split
            cover_region(*conjecture_setup(30, "polar"))
            """
        )
        proc = subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE, text=True)
        child = None
        try:
            child = int(proc.stdout.readline())
            assert proc.stdout.readline() == "split\n"
            proc.send_signal(signal.SIGKILL)
            proc.wait(10)
            killed = time.monotonic()
            while running(child) and time.monotonic() - killed < 5.0:
                time.sleep(0.01)
            gone_after = time.monotonic() - killed
        finally:
            proc.kill()
            proc.wait(10)
            proc.stdout.close()
            if child is not None and running(child):
                os.kill(child, signal.SIGKILL)
        assert gone_after < 1.0

    def test_a_one_band_cover_forks_its_child_before_its_first_ring(
        self, splits, monkeypatch, request
    ):
        # Polar 14 over a band across the equator walks phase 1 whole, then splits one batch.
        # Each kernel call of this process notes the forks made so far: all come after the one.
        ps, params = conjecture_setup(14, "polar")
        params = replace(params, region=Region(-0.4, 0.4, 0.0, math.pi))
        forks, seen = recorded_forks(monkeypatch), []
        kernel_by_process(monkeypatch, caller=lambda dirs: seen.append(len(forks)))
        split = whole_walk(ps, params)
        assert len(forks) == 1 and splits == [1_432] and set(seen) == {1}
        assert split.counters["phase1_bands"] == 1 and split.timings["cover_cap_child"] > 0.0
        request.getfixturevalue("one_process")
        alone = whole_walk(ps, params)
        assert len(forks) == 1 and splits == [1_432] and alone.timings["cover_cap_child"] == 0.0
        assert report_digest(ps, params, split) == report_digest(ps, params, alone)

    def test_a_cover_where_every_fork_is_refused_asks_once(self, splits, monkeypatch):
        # Polar 30's mirrored cover has two bands and 7 batches of _SPLIT_ROWS rows or more.
        asked = []

        def refused():
            asked.append(1)
            raise OSError(errno.EAGAIN, "fork refused")

        monkeypatch.setattr(os, "fork", refused)
        outcome = cover_region(*conjecture_setup(30, "polar"))
        assert len(asked) == 1 and splits == [] and outcome.status == "residual"

    def test_polar_30_report_equals_the_in_process_one(self, splits, request):
        ps, params = conjecture_setup(30, "polar")
        split = whole_walk(ps, params)
        assert len(splits) == 16  # one per batch of _SPLIT_ROWS rows or more
        assert split.status == "residual"
        assert 0.0 < split.timings["cover_cap_child"] < split.timings["cover_cap"]
        request.getfixturevalue("one_process")
        alone = whole_walk(ps, params)
        assert len(splits) == 16  # no more splits
        assert split.counters == alone.counters
        assert split.counters["n_evaluations"] == 106_365
        # Cover Cap rows dropped inside phase-1 balls, and every residual ball inside one too
        assert split.counters["cover_cap_inside_orbit"] == 57_115
        assert split.counters["not_covered_inside_orbit"] == len(split.not_covered) == 9_226
        report = report_digest(ps, params, split)
        assert report == report_digest(ps, params, alone)
        # Pinned as test_conjecture_certificates_are_pinned pins the others: the one
        # certificate here that ends residual, with rescues and Cover Cap rows dropped.
        assert report == "3a31e843376286ec759558e1b491bbd895c4be3042483633e26545006a50926d"
        cert = cert_digest(ps, params, split)
        assert cert == "1e2dbaf4c1a2cbd37f64a79ab98f1b8a572674d70b7b535e0faaef0b62d1371c"

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
    def test_split_on_one_cpu_ends_with_the_in_process_report(self):
        # A process held to one CPU, and its child with it, still splits
        # polar 14's batch of 1,592 rows; the two take turns on that CPU, and
        # the report must equal the in-process one's within the timeout.
        script = textwrap.dedent(
            """
            import contextlib, hashlib, json, os
            from capdisc import conjecture_setup, covering, report_dict, strip_timings

            for cpu in range(os.cpu_count()):  # the lowest CPU this process may use
                try:
                    os.sched_setaffinity(0, {cpu})
                    break
                except OSError:
                    pass
            else:
                raise SystemExit("no CPU to pin this process to")
            evaluate, rows = covering._Child.evaluate, []
            covering._Child.evaluate = lambda *args: rows.append(len(args[2])) or evaluate(*args)
            ps, params = conjecture_setup(14, "polar")
            with contextlib.closing(covering._Engine(ps, params)) as engine:
                doc = strip_timings(report_dict(ps, params, engine.run()))
            print(rows, hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest())
            """
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        ps, params = conjecture_setup(14, "polar")
        assert proc.stdout.split() == ["[1592]", report_digest(ps, params, whole_walk(ps, params))]


def cert_digest(ps, params, outcome) -> str:
    """sha256 of the certificate alone: scripts/cert_digests.py's cert=, in full."""
    doc = strip_timings(report_dict(ps, params, outcome))
    cert = {key: doc.get(key) for key in ("records", "not_covered", "counterexample", "params", "points_meta")}
    cert["status"] = doc["outcome"]["status"]
    return hashlib.sha256(json.dumps(cert, sort_keys=True).encode()).hexdigest()


# The conjecture certificates, as scripts/cert_digests.py prints them (sha256= and cert=, here in
# full).  A change that alters certificates on purpose updates these pins and states the old and
# the new values in CHANGES.md.
@pytest.mark.parametrize(
    "n, structure, report, cert",
    [
        pytest.param(
            20, "twisted",
            "e94fc57f0b8b91b07bd1ef009b8ded14c4788d3b04c289b12a8edeb3c0135634",
            "46bff8a1e59827c302394ddb4a447d8c17b4920f0143441d18fd97dc3d20f3b3",
            id="20-twisted",
        ),
        pytest.param(
            14, "polar",
            "94b60e6433c4798d9c9f5c73310aed44a4044ee8030ef3769f34acdd11d4caef",
            "d6026d1f660fa0564836f183780c86f84d580f3f1d09aa27078014a55f624f51",
            id="14-polar",
        ),
    ],
)
def test_conjecture_certificates_are_pinned(n, structure, report, cert):
    ps, params = conjecture_setup(n, structure)
    outcome = cover_region(ps, params)
    assert (report_digest(ps, params, outcome), cert_digest(ps, params, outcome)) == (report, cert)


def recorded_forks(monkeypatch) -> list:
    """The pids of the children that os.fork gives the engine, as it gives them."""
    pids, fork = [], os.fork

    def recorded():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recorded)
    return pids


def running(pid: int) -> bool:
    """Whether process `pid` has not exited; an exited one awaiting its reaper has."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


class TestBands:
    """Phase 1 walks a region in one hemisphere as two bands, the lower one in a forked child."""

    @pytest.mark.parametrize(
        "region, split",
        [
            (Region(0.0, 1.2, 0.0, 1.0), True),
            (Region(-1.5, -0.3, 0.0, 1.0), True),
            (Region(0.5, math.pi / 2, 0.0, 1.0), True),
            (Region(-0.4, 0.4, 0.0, 1.0), False),  # across the equator
            (Region(0.5, 0.5, 0.0, 1.0), False),  # of no height
        ],
    )
    def test_the_seam_halves_the_area_of_a_region_in_one_hemisphere(self, region, split):
        bands = covering._bands(region)
        if not split:
            assert bands == [region]
            return
        upper, lower = bands
        assert (upper.phi_max, lower.phi_min) == (region.phi_max, region.phi_min)
        assert upper.phi_min == lower.phi_max
        for band in bands:
            assert (band.theta_min, band.theta_max) == (region.theta_min, region.theta_max)
        # a band's area is proportional to the difference of the sines of its edges
        areas = [math.sin(band.phi_max) - math.sin(band.phi_min) for band in bands]
        assert math.isclose(areas[0], areas[1], rel_tol=1e-12)

    @pytest.mark.parametrize("n, structure", [(20, "twisted"), (14, "polar")])
    def test_forked_and_in_process_lower_bands_give_the_same_report(
        self, n, structure, monkeypatch, request
    ):
        ps, params = conjecture_setup(n, structure)
        forks = recorded_forks(monkeypatch)
        forked = cover_region(ps, params)
        assert len(forks) == 1
        assert forked.counters["phase1_bands"] == 2 and forked.timings["phase1_lower"] > 0.0
        # Beside another Python thread, the calling process walks both bands.
        release = threading.Event()
        waiter = threading.Thread(target=release.wait, args=(10,))
        waiter.start()
        try:
            beside_a_thread = cover_region(ps, params)
        finally:
            release.set()
            waiter.join(10)
        assert not waiter.is_alive() and len(forks) == 1
        request.getfixturevalue("one_process")
        alone = cover_region(ps, params)
        expect = json.dumps(strip_timings(report_dict(ps, params, alone)), sort_keys=True)
        for outcome in (forked, beside_a_thread):
            assert json.dumps(strip_timings(report_dict(ps, params, outcome)), sort_keys=True) == expect

    @pytest.mark.parametrize(
        "setup",
        [
            pytest.param(lambda: conjecture_setup(20, "twisted"), id="20-twisted"),
            pytest.param(lambda: conjecture_setup(14, "polar"), id="14-polar"),
            pytest.param(twisted_8_to_the_pole, id="8-twisted-to-the-pole"),
            pytest.param(random_30_to_the_south_pole, id="30-random-to-the-south-pole"),
        ],
    )
    def test_phase_1_records_are_those_of_each_band_walked_whole(self, setup):
        ps, params = setup()
        outcome = whole_walk(ps, params)
        rows = []
        for band in covering._bands(params.region):
            engine = _Engine(ps, replace(params, region=band))
            engine._walk()
            rows += engine.orbit
        phase1 = outcome.records.origin == ORBIT
        assert phase1[: len(rows)].all() and not phase1[len(rows) :].any()
        head = CoverageRecords(*(column[phase1] for column in vars(outcome.records).values()))
        assert same_table(head, records_table(rows))

    def test_a_violation_in_the_lower_band_is_the_in_process_counterexample(
        self, monkeypatch, request
    ):
        # Ring balls more than 0.05 below the seam break the hypothesis.
        ps, params = conjecture_setup(20, "twisted")
        seam = math.sin(covering._bands(params.region)[0].phi_min)
        below = seam - 0.05
        kernel = covering.confidence_radii

        def breaks_below_the_seam(points, directions, d):
            dis, radius = kernel(points, directions, d)
            return (dis, math.nan) if directions.ndim == 1 and directions[2] < below else (dis, radius)

        monkeypatch.setattr(covering, "confidence_radii", breaks_below_the_seam)
        forks = recorded_forks(monkeypatch)
        forked = cover_region(ps, params)
        assert len(forks) == 1
        request.getfixturevalue("one_process")
        alone = cover_region(ps, params)
        assert forked.status == alone.status == "counterexample"
        assert forked.counterexample.direction[2] < below
        for got, expect in zip(vars(forked.counterexample).values(), vars(alone.counterexample).values()):
            assert np.asarray(got).tobytes() == np.asarray(expect).tobytes()
        assert report_digest(ps, params, forked) == report_digest(ps, params, alone)
        # the upper band's rows, then the lower band's before its witness
        z = forked.records.center[:, 2]
        assert z[0] > seam and below < z.min() < seam

    def test_a_violation_in_the_upper_band_kills_the_child(self, monkeypatch):
        # The parent's first ring ball breaks the hypothesis while the child
        # sleeps in its first ring; the cover ends without waiting for it.
        ps, params = conjecture_setup(20, "twisted")
        parent, kernel, walk_orbit = os.getpid(), covering.confidence_radii, _Engine.walk_orbit
        slept = []  # in the child

        def breaks_in_the_parent(points, directions, d):
            dis, radius = kernel(points, directions, d)
            return (dis, math.nan) if os.getpid() == parent and directions.ndim == 1 else (dis, radius)

        def sleeps_in_the_child(engine, *args):
            if os.getpid() != parent and not slept:
                slept.append(60)
                time.sleep(60)
            return walk_orbit(engine, *args)

        monkeypatch.setattr(covering, "confidence_radii", breaks_in_the_parent)
        monkeypatch.setattr(_Engine, "walk_orbit", sleeps_in_the_child)
        forks = recorded_forks(monkeypatch)
        t0 = time.monotonic()
        outcome = cover_region(ps, params)
        assert time.monotonic() - t0 < 30.0
        assert outcome.status == "counterexample" and len(outcome.records) == 0
        (pid,) = forks
        with pytest.raises(ChildProcessError):  # reaped
            os.waitpid(pid, os.WNOHANG)

    @pytest.mark.parametrize(
        "death, status",
        [
            pytest.param(lambda: os._exit(7), 7, id="exit-7"),
            pytest.param(lambda: os.kill(os.getpid(), signal.SIGKILL), -9, id="sigkill"),
        ],
    )
    def test_a_child_that_dies_at_its_first_ring_raises_its_exit_status(self, monkeypatch, death, status):
        parent, walk_orbit = os.getpid(), _Engine.walk_orbit

        def dies_in_the_child(engine, *args):
            if os.getpid() != parent:
                death()
            return walk_orbit(engine, *args)

        monkeypatch.setattr(_Engine, "walk_orbit", dies_in_the_child)
        with pytest.raises(RuntimeError, match=f"exited with status {status}$"):
            cover_region(*conjecture_setup(14, "polar"))

    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process states from /proc")
    def test_the_child_of_a_killed_cover_exits_at_its_next_ring(self):
        script = textwrap.dedent(
            """
            import os
            from capdisc import conjecture_setup, cover_region

            fork = os.fork

            def announced():
                pid = fork()
                if pid:
                    print(pid, flush=True)
                return pid

            os.fork = announced
            cover_region(*conjecture_setup(80, "twisted"))
            """
        )
        proc = subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE, text=True)
        child = None
        try:
            child = int(proc.stdout.readline())
            proc.send_signal(signal.SIGKILL)  # in phase 1, which takes over a second
            proc.wait(10)
            killed = time.monotonic()
            while running(child) and time.monotonic() - killed < 5.0:
                time.sleep(0.01)
            gone_after = time.monotonic() - killed
        finally:
            proc.kill()
            proc.wait(10)
            proc.stdout.close()
            if child is not None and running(child):
                os.kill(child, signal.SIGKILL)
        assert gone_after < 1.0

    def test_a_caller_that_ignores_sigchld_gets_the_in_process_report(self):
        # The system would reap the child, and its exit status with it, so
        # none is forked: the report is the in-process one.
        script = textwrap.dedent(
            """
            import hashlib, json, os, signal
            from capdisc import conjecture_check, report_dict, strip_timings
            from capdisc.polar_analysis import conjecture_setup

            signal.signal(signal.SIGCHLD, signal.SIG_IGN)
            fork, forks = os.fork, []
            os.fork = lambda: forks.append(1) or fork()
            outcome, _ = conjecture_check(20, "twisted")
            doc = strip_timings(report_dict(*conjecture_setup(20, "twisted"), outcome))
            print(len(forks), hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest())
            """
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        ps, params = conjecture_setup(20, "twisted")
        assert proc.stdout.split() == ["0", report_digest(ps, params, cover_region(ps, params))]

    @pytest.mark.parametrize(
        "n, structure, cert, split",
        [
            pytest.param(
                20, "twisted", "115a5ac93c01b7db3ae7c35269148b49192502d1825103e1c23fbe4d47115f38", [],
                id="20-twisted",
            ),
            pytest.param(
                14, "polar", "3b18d7e820869ebda429047526621cd8c0e4a0957614f207b1da0fe2f35a0e90", [1_432],
                id="14-polar",
            ),
        ],
    )
    def test_a_region_across_the_equator_keeps_its_one_band_certificate(
        self, n, structure, cert, split, splits, monkeypatch
    ):
        # A seam at the equator would put a ring on the mirror plane of the
        # polar structures: polar 14 was left residual.  These are the
        # certificates of the engine that walked every region as one band.
        # The child, forked before phase 1 with no band to walk, splits each Cover Cap
        # batch of _SPLIT_ROWS rows or more.
        ps, params = conjecture_setup(n, structure)
        params = replace(params, region=Region(-0.4, 0.4, 0.0, math.pi))
        forks = recorded_forks(monkeypatch)
        outcome = whole_walk(ps, params)
        assert outcome.counters["phase1_bands"] == 1
        assert splits == split and len(forks) == 1
        assert outcome.status == "covered"
        assert cert_digest(ps, params, outcome) == cert


def test_params_validation():
    region = Region(0.0, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        CoverParams(d=0.0, region=region)
    for depth in (-1, 2.5, "3", None):
        with pytest.raises(ValueError, match="cover_cap_max_depth must be an integer >= 0"):
            CoverParams(d=0.5, region=region, cover_cap_max_depth=depth)
    assert CoverParams(d=0.5, region=region, cover_cap_max_depth=np.int64(0)).cover_cap_max_depth == 0
