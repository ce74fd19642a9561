import json
import math
import subprocess
import sys

import numpy as np
import pytest

from capdisc import cli
from capdisc.cli import main
from capdisc.discrepancy import directed_values
from capdisc.geometry import Region
from capdisc.pointsets import PointSet, generate_random_uniform, write_point_set
from capdisc.polar_analysis import north_pole_directed
from capdisc.reporting import (
    SUMMARY_HEADER,
    read_report,
    sample_region_directions,
    strip_timings,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def polar15(tmp_path, capsys):
    path = tmp_path / "polar15.csv"
    code, out, _ = run_cli(
        capsys, "generate", "--structure", "polar", "--n", "15", "--out", str(path)
    )
    assert code == 0
    return path


class TestGenerate:
    def test_polar_15_row_count(self, polar15, capsys):
        lines = polar15.read_text().strip().splitlines()
        assert lines[0] == "x,y,z"
        assert len(lines) == 251  # header + 250 points

    def test_prints_size(self, tmp_path, capsys):
        path = tmp_path / "p.csv"
        code, out, _ = run_cli(
            capsys, "generate", "--structure", "twisted", "--n", "6", "--out", str(path)
        )
        assert code == 0
        assert out.strip() == "40"

    def test_n_below_two_is_usage_error(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "generate", "--structure", "polar", "--n", "1",
            "--out", str(tmp_path / "p.csv"),
        )
        assert code == 2
        assert "at least 2" in err

    def test_random_is_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run_cli(
                capsys, "generate", "--structure", "random", "--n", "100",
                "--seed", "1", "--out", str(path),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_random_seed_defaults_to_zero(self, tmp_path, capsys):
        path, expect = tmp_path / "p.csv", tmp_path / "seed0.csv"
        code, _, _ = run_cli(
            capsys, "generate", "--structure", "random", "--n", "7", "--out", str(path)
        )
        assert code == 0
        write_point_set(generate_random_uniform(7, seed=0), expect)
        assert path.read_bytes() == expect.read_bytes()

    @pytest.mark.parametrize("structure", ["polar", "twisted"])
    def test_seed_of_a_deterministic_structure_is_usage_error(self, tmp_path, capsys, structure):
        # The polar structures have no randomness: a seed would be accepted and then ignored.
        path = tmp_path / "p.csv"
        code, out, err = run_cli(
            capsys, "generate", "--structure", structure, "--n", "5", "--seed", "3",
            "--out", str(path),
        )
        assert code == 2 and out == ""
        assert f"--seed is for --structure random, not {structure}" in err
        assert not path.exists()

    def test_unknown_structure_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--structure", "cube", "--n", "5",
                  "--out", str(tmp_path / "p.csv")])
        assert exc.value.code == 2


class TestDirected:
    def test_pole_matches_analytic_value(self, polar15, capsys):
        code, out, _ = run_cli(
            capsys, "directed", "--points", str(polar15),
            "--theta", "0", "--phi", str(math.pi / 2), "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert math.isclose(doc["value"], north_pole_directed(15), abs_tol=1e-12)

    def test_antipodal_directions_agree(self, polar15, capsys):
        vals = []
        for theta, phi in ((0.7, 0.3), (0.7 + math.pi, -0.3)):
            code, out, _ = run_cli(
                capsys, "directed", "--points", str(polar15),
                "--theta", str(theta), "--phi", str(phi), "--json",
            )
            assert code == 0
            vals.append(json.loads(out)["value"])
        assert math.isclose(vals[0], vals[1], abs_tol=1e-12)

    def test_text_output_prints_the_json_values(self, polar15, capsys):
        angles = ("--points", str(polar15), "--theta", "0.7", "--phi", "0.3")
        code, out, _ = run_cli(capsys, "directed", *angles, "--json")
        assert code == 0
        doc = json.loads(out)
        code, out, err = run_cli(capsys, "directed", *angles)
        assert code == 0 and err == ""
        assert out.splitlines() == [
            f"directed_value {doc['value']:.17g}",
            f"witness_height {doc['witness_height']:.17g}",
        ]

    def test_empty_file_is_io_error(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("x,y,z\n")
        code, _, err = run_cli(
            capsys, "directed", "--points", str(path), "--theta", "0", "--phi", "0"
        )
        assert code == 1
        assert "error" in err

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "directed", "--points", str(tmp_path / "nope.csv"),
            "--theta", "0", "--phi", "0",
        )
        assert code == 1

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("angle", ["--theta", "--phi"])
    def test_non_finite_angle_is_usage_error(self, polar15, capsys, angle, value):
        # NaN once printed "directed_value nan" and exited 0; inf raised
        # "math domain error" from the polar conversion.
        angles = {"--theta": "0.7", "--phi": "0.3", angle: value}
        code, out, err = run_cli(
            capsys, "directed", "--points", str(polar15), *(f"{k}={v}" for k, v in angles.items())
        )
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {angle} must be finite") and err.count("\n") == 1


class TestCover:
    def test_tiny_bound_exits_counterexample(self, polar15, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys, "cover", "--points", str(polar15), "--d", "1e-9",
            "--phi-min", "0", "--phi-max", "0.5",
            "--theta-min", "0", "--theta-max", "1",
            "--report", str(tmp_path / "report.json"),
        )
        assert code == 3
        assert "status counterexample" in out
        doc = read_report(tmp_path / "report.json")
        assert "counterexample" in doc

    def test_covered_region_and_identical_reruns(self, polar15, tmp_path, capsys):
        d = north_pole_directed(15)
        reports = []
        for name in ("r1.json", "r2.json"):
            code, out, _ = run_cli(
                capsys, "cover", "--points", str(polar15), "--d", str(d),
                "--phi-min", "0.8", "--phi-max", "1.1",
                "--theta-min", "0", "--theta-max", "0.6",
                "--report", str(tmp_path / name),
            )
            assert code == 0
            assert "status covered" in out
            reports.append(strip_timings(read_report(tmp_path / name)))
        assert json.dumps(reports[0], sort_keys=True) == json.dumps(
            reports[1], sort_keys=True
        )

    def test_residual_region_exits_residual(self, tmp_path, capsys):
        # Plain polar 14 at d = north value + 1/t over the upper half of its
        # hemisphere leaves residual balls.
        points = tmp_path / "polar14.csv"
        code, _, _ = run_cli(capsys, "generate", "--structure", "polar", "--n", "14", "--out", str(points))
        assert code == 0
        code, out, _ = run_cli(
            capsys, "cover", "--points", str(points), "--d", repr(north_pole_directed(14) + 1.0 / 218),
            "--phi-min", "0", "--phi-max", repr(math.pi / 2),
            "--theta-min", "0", "--theta-max", repr(math.pi),
            "--report", str(tmp_path / "report.json"),
        )
        assert code == 4
        assert out.splitlines()[0] == "status residual"
        doc = read_report(tmp_path / "report.json")
        assert doc["outcome"]["status"] == "residual" and doc["not_covered"]

    @pytest.mark.parametrize(
        "one_point, d, phi_min",
        [(False, "0", "0"), (False, "0.05", "0.6"), (True, "0.05", "0")],
        ids=["d-zero", "phi-min-above-phi-max", "one-point"],
    )
    def test_invalid_input_is_usage_error(
        self, polar15, tmp_path, capsys, one_point, d, phi_min
    ):
        points = polar15
        if one_point:
            points = tmp_path / "one.csv"
            points.write_text("x,y,z\n0,0,1\n")
        code, out, err = run_cli(
            capsys, "cover", "--points", str(points), "--d", d,
            "--phi-min", phi_min, "--phi-max", "0.5",
            "--theta-min", "0", "--theta-max", "1",
            "--report", str(tmp_path / "report.json"),
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_nan_latitude_is_usage_error(self, polar15, tmp_path):
        # A NaN bound can send phase 1 into a loop that never ends (twisted
        # 12, d = 0.2); the subprocess timeout turns that into a failure.
        proc = subprocess.run(
            [sys.executable, "-m", "capdisc.cli", "cover", "--points", str(polar15),
             "--d", "0.05", "--phi-min", "nan", "--phi-max", "0.5",
             "--theta-min", "0", "--theta-max", "1",
             "--report", str(tmp_path / "report.json")],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert not (tmp_path / "report.json").exists()

    def test_duplicate_points_are_io_error(self, tmp_path):
        # Coincident points drive phase 1 into ever smaller orbits that never
        # reach phi_min; the reader must refuse them before the engine runs.
        # A subprocess with a timeout turns a regression into a failure
        # instead of a hung suite.
        base = generate_random_uniform(12, seed=0)
        ps = PointSet(np.repeat(base.points, 4, axis=0))
        path = tmp_path / "dup.csv"
        write_point_set(ps, path)
        region = Region(0.3, 0.5, 0.0, 0.4)
        probes = sample_region_directions(region, 20_000, np.random.default_rng(0))
        d = float(directed_values(ps.points, probes).max()) + 1.02 / ps.size
        proc = subprocess.run(
            [sys.executable, "-m", "capdisc.cli", "cover", "--points", str(path),
             "--d", repr(d), "--phi-min", "0.3", "--phi-max", "0.5",
             "--theta-min", "0", "--theta-max", "0.4",
             "--report", str(tmp_path / "report.json")],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 1
        assert ":3: same point as line 2" in proc.stderr
        assert not (tmp_path / "report.json").exists()


class TestConjecture:
    def test_small_sweep_rows(self, tmp_path, capsys):
        summary = tmp_path / "summary.csv"
        code, out, _ = run_cli(
            capsys, "conjecture", "--n-min", "15", "--n-max", "16",
            "--summary", str(summary),
        )
        assert code == 0
        lines = summary.read_text().strip().splitlines()
        assert lines[0] == ",".join(SUMMARY_HEADER)
        assert len(lines) == 3
        n15 = lines[1].split(",")
        n16 = lines[2].split(",")
        assert (n15[0], n15[1], n15[-1]) == ("15", "250", "covered")
        assert (n16[0], n16[1], n16[-1]) == ("16", "284", "covered")

    @pytest.mark.parametrize(
        "structure, n_min, statuses, code",
        [
            ("twisted", 5, ["counterexample", "counterexample"], 3),
            ("polar", 14, ["covered", "residual"], 4),
        ],
    )
    def test_exit_code_is_the_worst_status(self, tmp_path, capsys, structure, n_min, statuses, code):
        summary = tmp_path / "summary.csv"
        got, out, _ = run_cli(
            capsys, "conjecture", "--structure", structure, "--n-min", str(n_min),
            "--n-max", str(n_min + 1), "--summary", str(summary),
        )
        assert got == code
        assert [line.split()[5] for line in out.splitlines()] == statuses
        rows = summary.read_text().strip().splitlines()[1:]
        assert [row.split(",")[-1] for row in rows] == statuses

    @pytest.mark.parametrize(
        "text", ["a,b,c\n1,2,3\n", ",".join(SUMMARY_HEADER) + "\nxx,1\n"],
        ids=["foreign-header", "non-integer-n"],
    )
    def test_foreign_summary_is_io_error(self, tmp_path, capsys, text):
        summary = tmp_path / "summary.csv"
        summary.write_text(text)
        code, _, err = run_cli(
            capsys, "conjecture", "--n-min", "5", "--n-max", "5",
            "--summary", str(summary),
        )
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(summary) in err
        assert summary.read_text() == text

    def test_foreign_summary_is_refused_before_the_first_cover(
        self, tmp_path, capsys, monkeypatch
    ):
        def no_cover(ps, params):
            raise AssertionError("cover_region ran before the summary was checked")

        monkeypatch.setattr(cli, "cover_region", no_cover)
        summary = tmp_path / "summary.csv"
        text = "a,b,c\n1,2,3\n"
        summary.write_text(text)
        code, _, err = run_cli(
            capsys, "conjecture", "--n-min", "30", "--n-max", "30",
            "--summary", str(summary),
        )
        assert code == 1
        assert err.startswith("error: ") and str(summary) in err
        assert summary.read_text() == text

    def test_reversed_range_is_usage_error(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "conjecture", "--n-min", "10", "--n-max", "9",
            "--summary", str(tmp_path / "s.csv"),
        )
        assert code == 2


class TestNaive:
    def test_polar5_witness_axis_is_polar(self, tmp_path, capsys):
        path = tmp_path / "p5.csv"
        run_cli(capsys, "generate", "--structure", "polar", "--n", "5", "--out", str(path))
        code, out, _ = run_cli(capsys, "naive", "--points", str(path))
        assert code == 0
        axis_line = [l for l in out.splitlines() if l.startswith("witness_axis")][0]
        z = float(axis_line.split()[3])
        assert abs(abs(z) - 1.0) < 1e-9

    def test_single_point_value_is_one(self, tmp_path, capsys):
        path = tmp_path / "one.csv"
        path.write_text("x,y,z\n0,0,1\n")
        code, out, _ = run_cli(capsys, "naive", "--points", str(path))
        assert code == 0
        value = float(out.splitlines()[0].split()[1])
        assert math.isclose(value, 1.0, abs_tol=1e-12)

    def test_limit_exceeded(self, polar15, capsys):
        code, _, err = run_cli(
            capsys, "naive", "--points", str(polar15), "--limit", "100"
        )
        assert code == 5


def test_console_entry_point(tmp_path):
    # One end-to-end subprocess check through the installed entry point.
    proc = subprocess.run(
        [sys.executable, "-m", "capdisc.cli", "generate", "--structure",
         "polar", "--n", "5", "--out", str(tmp_path / "p.csv")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "28"
