import math

import numpy as np
import pytest

from capdisc.pointsets import (
    EmptyPointSetError,
    MalformedRowError,
    NonUnitPointError,
    generate_polar,
    generate_random_uniform,
    generate_twisted_polar,
    orbit_count,
    polar_orbits,
    read_point_set,
    write_point_set,
)


EXPECTED_SIZES = {15: 250, 16: 284, 20: 441, 25: 690, 30: 994, 36: 1428}


class TestPolarGenerators:
    @pytest.mark.parametrize("n,t", sorted(EXPECTED_SIZES.items()))
    def test_sizes(self, n, t):
        assert generate_polar(n).size == t
        assert generate_twisted_polar(n).size == t

    def test_rows_are_unit(self):
        for ps in (generate_polar(13), generate_twisted_polar(13)):
            assert np.allclose(np.linalg.norm(ps.points, axis=1), 1.0, atol=1e-12)

    def test_poles_present(self):
        pts = generate_polar(9).points
        assert any(np.allclose(p, [0, 0, 1]) for p in pts)
        assert any(np.allclose(p, [0, 0, -1]) for p in pts)

    @pytest.mark.parametrize("n", [8, 9, 15, 16])
    @pytest.mark.parametrize("gen", [generate_polar, generate_twisted_polar])
    def test_z_mirror_symmetry(self, n, gen):
        # The set must map to itself under z -> -z for both parities of n.
        pts = gen(n).points
        flipped = pts * np.array([1.0, 1.0, -1.0])
        order_a = np.lexsort(np.round(pts, 9).T)
        order_b = np.lexsort(np.round(flipped, 9).T)
        assert np.allclose(pts[order_a], flipped[order_b], atol=1e-9)

    def test_orbit_count_symmetry(self):
        for n in (9, 10, 15):
            for j in range(1, n):
                assert orbit_count(n, j) == orbit_count(n, n - j)

    def test_orbit_count_known_value(self):
        # sin(pi/3) = sqrt(3)/2 makes n=15, j=5 analytically
        # sqrt(3)*15*sqrt(3)/2 = 22.5, so 0.5 + 22.5 = 23.0 lands exactly on
        # the floor boundary; only the epsilon guard keeps the ring at 23.
        assert orbit_count(15, 5) == 23

    def test_ring_latitudes(self):
        orbs = polar_orbits(6)
        assert len(orbs) == 5
        for orb in orbs:
            assert math.isclose(orb.phi, math.pi * orb.index / 6 - math.pi / 2)

    def test_twist_changes_longitudes_only(self):
        a = generate_polar(11).points
        b = generate_twisted_polar(11).points
        assert a.shape == b.shape
        assert np.allclose(np.sort(a[:, 2]), np.sort(b[:, 2]), atol=1e-12)
        assert not np.allclose(a, b)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            generate_polar(1)


class TestRandomUniform:
    def test_deterministic_per_seed(self):
        a = generate_random_uniform(40, seed=7).points
        b = generate_random_uniform(40, seed=7).points
        assert np.array_equal(a, b)
        c = generate_random_uniform(40, seed=8).points
        assert not np.array_equal(a, c)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            generate_random_uniform(0, seed=0)


class TestFileRoundTrip:
    def test_write_read(self, tmp_path):
        ps = generate_twisted_polar(7)
        path = tmp_path / "pts.csv"
        write_point_set(ps, path)
        text = path.read_text()
        assert text.splitlines()[0] == "x,y,z"
        back = read_point_set(path)
        assert np.allclose(back.points, ps.points, atol=1e-15)

    def test_malformed_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y,z\n1.0,0.0\n")
        with pytest.raises(MalformedRowError):
            read_point_set(path)

    def test_non_numeric(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y,z\n1.0,zero,0.0\n")
        with pytest.raises(MalformedRowError):
            read_point_set(path)

    def test_non_unit(self, tmp_path):
        path = tmp_path / "bad.csv"
        for row in ("2.0,0.0,0.0", "nan,0,1", "0,0,nan"):
            path.write_text(f"x,y,z\n{row}\n")
            with pytest.raises(NonUnitPointError):
                read_point_set(path)

    def test_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("x,y,z\n")
        with pytest.raises(EmptyPointSetError):
            read_point_set(path)
