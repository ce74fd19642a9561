import hashlib
import json
import math
import os
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path
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
from capdisc.geometry import Region, cover_cap_centers, polar_to_cartesian
from capdisc.pointsets import generate_random_uniform, generate_twisted_polar
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
    if spanning:  # one ball reaches around the ring
        r = spanning[0]
        return math.acos(max(-1.0, min(1.0, r * r / 2.0 - 1.0))) - phi, math.pi / 2

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


@pytest.fixture
def splits(monkeypatch):
    """Rows of each batch split in the test; two CPUs are reported, so any host splits.

    No thread the test did not start itself may be left running after it.
    """
    rows, split, before = [], covering._split_evaluate, set(threading.enumerate())

    def counted(points, directions, d):
        rows.append(len(directions))
        return split(points, directions, d)

    monkeypatch.setattr(covering, "_split_evaluate", counted)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    yield rows
    assert set(threading.enumerate()) == before


def rows_by_thread(monkeypatch, kernel=confidence_radii, caller=None, helper=None):
    """Rows of each kernel call in a split, by thread: {"caller": [...], "helper": [...]}.

    The thread that calls this is the caller.  `caller(calls)` or
    `helper(calls)` runs in that thread before each of its kernel calls,
    given the rows of its calls so far.
    """
    main, rows = threading.current_thread(), {"caller": [], "helper": []}
    hooks = {"caller": caller, "helper": helper}

    def counted(points, directions, d, work=None):
        who = "caller" if threading.current_thread() is main else "helper"
        rows[who].append(len(directions))
        if hooks[who] is not None:
            hooks[who](rows[who])
        return kernel(points, directions, d, work)

    monkeypatch.setattr(covering, "confidence_radii", counted)
    return rows


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


def test_estimate_orbit_r_min_positive():
    _, _, engine = _twisted_12_engine()
    assert engine.orbit_r_min(0.8) > 0.0


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
        engine = _Engine(ps, params)
        engine._phase1()
        queue = engine.cannot_cover
        assert len(queue) > 50
        seeds = np.array([v for v, _ in queue])
        required = np.array([req for _, req in queue])
        depth = params.cover_cap_max_depth
        before = engine.n_eval
        got = cover_cap_recurse(engine.evaluate_cart, seeds, required, depth)
        batched_evals = engine.n_eval - before
        same_result(got, reference_cover_cap(engine.evaluate_cart, seeds, required, depth))
        assert engine.n_eval - before == 2 * batched_evals

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
    phase 1 queues each direction it walks, the first ten with r_min 0.1,
    and every Cover Cap center passes unless it is keyed.  The 14 queued directions lie over
    0.34 away from the rescue's crater planes, so no rescue candidate is made.
    """

    PS = generate_twisted_polar(12)
    PARAMS = CoverParams(d=north_pole_directed(12), region=Region(0.6, 1.0, 0.7, 1.3))
    DEFAULT = (0.01, 0.2)

    def cover(self, monkeypatch, special):
        evaluate = keyed_evaluator(special, self.DEFAULT)
        monkeypatch.setattr(_Engine, "evaluate_cart", lambda engine, dirs: evaluate(dirs))
        return cover_region(self.PS, self.PARAMS)

    def phase1(self, monkeypatch):
        """((center, radius, Dis) rows, queue) of phase 1 under the keyed evaluator."""
        evaluate = keyed_evaluator({}, self.DEFAULT)
        monkeypatch.setattr(_Engine, "evaluate_cart", lambda engine, dirs: evaluate(dirs))
        engine = _Engine(self.PS, self.PARAMS)
        engine._phase1()
        assert len(engine.cannot_cover) >= 10
        assert all(req == 0.1 for _, req in engine.cannot_cover[:10])
        return engine.orbit, engine.cannot_cover

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
        assert same_table(outcome.records, records_table(phase1_records))
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
        # The keyed kernel stands in for confidence_radii in both threads.
        # Only level 0's batch of 112 centres is split, and the caller's
        # chunks of 8 rows are slowed, so the helper evaluates most of them.
        # Another Python thread is alive all along.
        phase1_records, queue = self.phase1(monkeypatch)
        violation = self.seed_five_violation(queue)
        special = {violation.tobytes(): (0.9, math.nan)}
        expect = self.cover(monkeypatch, special)
        evaluate = keyed_evaluator(special, self.DEFAULT)

        def slowed_in_the_split(calls):
            if splits:
                time.sleep(0.02)

        def keyed_batches(points, dirs, d, work):
            # a ring ball, one direction, keeps the real kernel, as in `expect`
            return evaluate(dirs) if dirs.ndim == 2 else confidence_radii(points, dirs, d, work)

        monkeypatch.setattr(_Engine, "evaluate_cart", EVALUATE_CART)
        rows = rows_by_thread(monkeypatch, keyed_batches, caller=slowed_in_the_split)
        monkeypatch.setattr(covering, "_SPLIT_ROWS", 100)
        monkeypatch.setattr(covering, "_CHUNK_ROWS", 8)
        release = threading.Event()
        waiter = threading.Thread(target=release.wait, args=(10,))
        waiter.start()
        try:
            outcome = cover_region(self.PS, self.PARAMS)
        finally:
            release.set()
            waiter.join(10)
        assert not waiter.is_alive()
        assert splits == [112]
        assert sum(rows["helper"]) > 56
        assert outcome.status == "counterexample"
        assert outcome.counterexample.direction.tobytes() == violation.tobytes()
        assert same_table(outcome.records, expect.records)
        # the keyed evaluate_cart of `expect` does not count evaluations
        del outcome.counters["n_evaluations"], expect.counters["n_evaluations"]
        assert outcome.counters == expect.counters

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
        outcome = cover_region(ps, params)
        # Every row the cover made: phase 1's, then all of Cover Cap's, in order.
        engine = _Engine(ps, params)
        engine._phase1()
        seeds, required = (np.array(col) for col in zip(*engine.cannot_cover))
        _, cover_cap, residual, _ = cover_cap_recurse(
            engine.evaluate_cart, seeds, required, params.cover_cap_max_depth
        )
        orbit = records_table(engine.orbit)
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
        ],
    )
    def test_walked_rings_give_the_same_band(self, setup, monkeypatch):
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
        assert cover_region(ps, params).status == "covered"
        spans = [balls[-1][1] > 2.0 * math.cos(phi) for _, phi, _, balls, _ in rings]
        if params.region.phi_max < math.pi / 2:
            assert len(rings) > 10 and closing and not any(spans)
        else:
            assert spans == [True, False]
        assert len(in_order) == len(rings) - sum(spans) and all(in_order)
        reg = params.region
        for engine, phi, r_min, balls, target in rings:
            band_lo, band_hi = reference_band(phi, r_min, balls, reg.theta_min, reg.theta_max)
            targets = [target, band_hi, np.nextafter(band_hi, np.inf), np.nextafter(band_hi, -np.inf)]
            targets += [band_hi + r_min / 16.0, band_hi - r_min / 16.0]
            for t in map(float, targets):
                got = original(engine, phi, r_min, balls, t)
                assert got == (band_lo, band_hi >= t), (phi, r_min, t)


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
        assert int(left) > 4000  # the pole ball of radius 0 covers no probe

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
        ps, params = conjecture_setup(14, "polar")
        counters = cover_region(ps, params).counters
        assert {key: counters[key] for key in COVER_CAP_COUNTERS} == {
            "cover_cap_nodes": 499,
            "cover_cap_levels": 6,
            "rescue_tries": 1157,
            "rescue_hits": 70,
        }
        assert counters["n_evaluations"] == 9448
        assert (counters["cover_cap_inside_orbit"], counters["not_covered_inside_orbit"]) == (504, 0)

    def test_outcome_holds_at_most_64_bytes_per_record(self):
        # The columns take 41 bytes a record (centre 24, radius 8, Dis 8,
        # origin 1); a Python object per record would take about 300.
        ps, params = conjecture_setup(14, "polar")
        cover_region(ps, params)  # warm the caches and imports a first cover fills
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            outcome = cover_region(ps, params)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # 5,872 before the 504 Cover Cap rows inside phase-1 balls were dropped
        assert len(outcome.records) == 5368
        assert retained <= 64 * len(outcome.records), retained / len(outcome.records)

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
            *COVER_CAP_COUNTERS,
            "cover_cap_inside_orbit",
            "not_covered_inside_orbit",
        ):
            assert key in outcome.counters
        assert outcome.counters["n_evaluations"] >= outcome.counters["n_DD"]
        assert outcome.counters["r_min_global"] <= outcome.counters["r_min_median"]


def report_digest(ps, params, outcome) -> str:
    doc = strip_timings(report_dict(ps, params, outcome))
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


class TestHelper:
    """Each batch of _SPLIT_ROWS rows or more is split over the caller and one helper thread."""

    def split(self, n, rows, seed):
        """Evaluate `rows` random directions through a fresh engine; check the in-process bytes."""
        ps, params = conjecture_setup(n, "polar")
        directions = uniform_directions(rows, seed=seed)
        engine = _Engine(ps, params)
        dis, radius = engine.evaluate_cart(directions)
        assert engine.n_eval == rows
        expect = confidence_radii(ps.points, directions, params.d)
        assert dis.tobytes() == expect[0].tobytes()
        assert radius.tobytes() == expect[1].tobytes()

    def test_split_batch_equals_the_in_process_bytes(self, splits, monkeypatch):
        rows = rows_by_thread(monkeypatch)
        self.split(30, 2_500, seed=3)
        assert splits == [2_500]
        assert sum(rows["caller"]) + sum(rows["helper"]) == 2_500  # each chunk once

    def test_caller_takes_the_rows_of_a_slow_helper(self, splits, monkeypatch):
        rows = rows_by_thread(monkeypatch, helper=lambda calls: time.sleep(0.3))
        self.split(14, 4_096, seed=4)
        assert rows["helper"] == [covering._CHUNK_ROWS]
        assert sum(rows["caller"]) == 4_096 - covering._CHUNK_ROWS

    def test_each_thread_reuses_one_workspace_of_its_own(self, splits, monkeypatch):
        works = {}  # thread name: the workspaces its kernel calls were given

        def recorded(points, directions, d, work=None):
            works.setdefault(threading.current_thread().name, []).append(work)
            return confidence_radii(points, directions, d, work)

        rows_by_thread(monkeypatch, kernel=recorded, caller=lambda calls: time.sleep(0.01))
        self.split(30, 2_500, seed=3)
        assert splits == [2_500] and len(works) == 2  # the slowed caller leaves the helper chunks
        (first, *rest), (other, *more) = works.values()
        assert all(w is first for w in rest) and all(w is other for w in more)
        assert first is not other and first.shape == other.shape == (3, 64, 994)

    def test_caller_takes_the_batch_when_no_thread_starts(self, splits, monkeypatch):
        def cannot_start(thread):
            raise RuntimeError("can't start new thread")

        rows = rows_by_thread(monkeypatch)
        monkeypatch.setattr(threading.Thread, "start", cannot_start)
        self.split(30, 2_500, seed=3)
        assert splits == [2_500]
        assert rows["helper"] == [] and sum(rows["caller"]) == 2_500

    @pytest.mark.parametrize("where", ["caller", "helper"])
    def test_kernel_error_raises_in_the_caller_as_itself(self, splits, monkeypatch, where):
        # The first kernel call of one thread fails; the other begins at
        # most one chunk after that, not the rest of the batch's 16.
        error, raised, late = ValueError(f"no kernel in the {where}"), [], []

        def fails(calls):
            raised.append(error)
            raise error

        def counts_late_chunks(calls):
            if raised:
                late.append(calls[-1])

        other = "helper" if where == "caller" else "caller"
        rows_by_thread(monkeypatch, **{where: fails, other: counts_late_chunks})
        with pytest.raises(ValueError) as info:
            self.split(14, 4_096, seed=7)
        assert info.value is error
        assert splits == [4_096]
        assert len(late) <= 1

    def test_kernel_error_raises_in_the_parent_as_itself(self, splits, monkeypatch):
        # Every kernel call fails with an error of its own.  The first drains
        # the batch, so the other thread may not call the kernel at all; the
        # error raised is one of these, unwrapped, and the helper is joined
        # (the fixture checks).
        errors = []

        def fails(points, directions, d, work=None):
            errors.append(ValueError(f"no kernel in {threading.current_thread().name}"))
            raise errors[-1]

        monkeypatch.setattr(covering, "confidence_radii", fails)
        with pytest.raises(ValueError) as info:
            self.split(14, 4_096, seed=7)
        assert splits == [4_096]
        assert 1 <= len(errors) <= 2
        assert any(info.value is error for error in errors)

    def test_exception_in_cover_cap_reaps_the_helper(self, splits, monkeypatch):
        class Stop(Exception):
            pass

        main, kernel = threading.current_thread(), covering.confidence_radii

        def stops_in_the_split(points, directions, d, work=None):
            if threading.current_thread() is main and splits:
                raise Stop
            return kernel(points, directions, d, work)

        monkeypatch.setattr(covering, "confidence_radii", stops_in_the_split)
        with pytest.raises(Stop):
            cover_region(*conjecture_setup(14, "polar"))
        assert len(splits) == 1

    def test_splits_beside_other_threads(self, splits, monkeypatch):
        # Three threads split a batch each at once, with the interpreter
        # switching threads every 10 us: six threads over chunks of 16 rows.
        ps, params = conjecture_setup(14, "polar")
        directions = uniform_directions(1_600, seed=8)
        expect = confidence_radii(ps.points, directions, params.d)
        rows = []

        def kernel(points, dirs, d, work=None):
            rows.append(len(dirs))
            return confidence_radii(points, dirs, d, work)

        monkeypatch.setattr(covering, "confidence_radii", kernel)
        monkeypatch.setattr(covering, "_CHUNK_ROWS", 16)
        got = [None] * 3

        def split(i):
            got[i] = _Engine(ps, params).evaluate_cart(directions)

        workers = [threading.Thread(target=split, args=(i,)) for i in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert splits == [1_600] * 3
        assert sum(rows) == 3 * 1_600  # no chunk evaluated twice
        for dis, radius in got:
            assert dis.tobytes() == expect[0].tobytes()
            assert radius.tobytes() == expect[1].tobytes()

    def test_polar_30_report_equals_the_in_process_one(self, splits, monkeypatch):
        ps, params = conjecture_setup(30, "polar")
        split = cover_region(ps, params)
        assert len(splits) == 15  # one per batch of _SPLIT_ROWS rows or more
        assert split.status == "residual"
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        alone = cover_region(ps, params)
        assert len(splits) == 15  # one CPU: no split
        assert split.counters == alone.counters
        assert split.counters["n_evaluations"] == 105_578
        # Cover Cap rows dropped inside phase-1 balls, and every residual ball inside one too
        assert split.counters["cover_cap_inside_orbit"] == 56_964
        assert split.counters["not_covered_inside_orbit"] == len(split.not_covered) == 9_226
        assert report_digest(ps, params, split) == report_digest(ps, params, alone)

    def test_no_split_on_one_cpu(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert not covering._split_allowed()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert covering._split_allowed()
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert not covering._split_allowed()


def test_split_replay_script_with_a_baseline(tmp_path):
    # This tree stands in for the baseline: both replay polar 14's one split batch alike.
    root = Path(__file__).resolve().parents[1]
    out = tmp_path / "replay.json"
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "split_replay.py"), "polar:14",
         "--baseline", str(root / "src"), "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    parent, change = proc.stdout.splitlines()
    assert parent.startswith("parent: polar:14 t=218 batches=1 rows=1672 sha256=")
    assert parent.split(" unsplit_s=")[0][7:] == change.split(" unsplit_s=")[0][7:]
    tables = json.loads(out.read_text())["tables"]
    assert set(tables) == {"parent", "change"}
    (row,) = tables["change"]["jobs"]
    assert row["split_s"] > 0.0 and row["unsplit_s"] > 0.0 and row["split_user_s"] >= 0.0


def test_params_validation():
    region = Region(0.0, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        CoverParams(d=0.0, region=region)
    for depth in (-1, 2.5, "3", None):
        with pytest.raises(ValueError, match="cover_cap_max_depth must be an integer >= 0"):
            CoverParams(d=0.5, region=region, cover_cap_max_depth=depth)
    assert CoverParams(d=0.5, region=region, cover_cap_max_depth=np.int64(0)).cover_cap_max_depth == 0
