import csv
import dataclasses
import hashlib
import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from capdisc import covering, reporting
from capdisc.covering import CoverageRecords, CoverOutcome, CoverParams, Residuals, cover_region
from capdisc.discrepancy import confidence_radius, directed_values, project
from capdisc.geometry import Region, cartesian_to_polar, polar_to_cartesian
from capdisc.pointsets import generate_twisted_polar
from capdisc.polar_analysis import conjecture_setup, north_pole_directed
from capdisc.reporting import (
    SCHEMA_VERSION,
    SUMMARY_HEADER,
    audit_coverage,
    read_report,
    report_dict,
    sample_region_directions,
    strip_timings,
    upsert_summary_row,
    write_report,
)

# The report that the schema-1 writer gave for the residual_run fixture's cover.
V1_RESIDUAL_RUN = Path(__file__).resolve().parent / "data" / "residual_run_v1.json"


@pytest.fixture(scope="module")
def small_run():
    ps = generate_twisted_polar(12)
    d = north_pole_directed(12)
    params = CoverParams(d=d, region=Region(0.6, 1.0, 0.0, 0.8), cover_cap_max_depth=8)
    outcome = cover_region(ps, params)
    assert outcome.status == "covered"
    return ps, params, outcome


@pytest.fixture(scope="module")
def int_bounds_run():
    # Int region bounds and a numpy-float d, as a caller may pass them.
    ps = generate_twisted_polar(12)
    params = CoverParams(d=np.float64(0.2), region=Region(0, 1, 0, 1))
    return ps, params, cover_region(ps, params)


@pytest.fixture(scope="module")
def counterexample_run():
    ps = generate_twisted_polar(8)
    params = CoverParams(d=1e-9, region=Region(0.0, 0.5, 0.0, 1.0))
    outcome = cover_region(ps, params)
    assert outcome.status == "counterexample"
    return ps, params, outcome


@pytest.fixture(scope="module")
def residual_run():
    ps = generate_twisted_polar(12)
    params = CoverParams(
        d=north_pole_directed(12), region=Region(0.0, 1.0, 0.0, 0.8), cover_cap_max_depth=0
    )
    outcome = cover_region(ps, params)
    assert outcome.status == "residual" and outcome.not_covered
    return ps, params, outcome


@pytest.fixture(scope="module")
def polar14_run():
    # Plain polar n=14 is a small conjecture certificate that ends in about
    # a second; n=10..13 and 16 each spend over 20 s in Cover Cap.
    ps, params = conjecture_setup(14, structure="polar")
    return ps, params, cover_region(ps, params)


def reject_constant(name):
    raise AssertionError(f"report holds the non-JSON constant {name}")


def dense_audit(ps, params, outcome, probe_count, seed):
    """Reference audit: every probe against every ball, one dense block at a time."""
    probes = sample_region_directions(params.region, probe_count, np.random.default_rng(seed))
    centers, radii = outcome.records.center, outcome.records.radius
    uncovered = 0
    over_bound = 0
    for start in range(0, probe_count, 2048):
        block = probes[start : start + 2048]
        d2 = (
            np.sum(block * block, axis=1)[:, None]
            - 2.0 * block @ centers.T
            + np.sum(centers * centers, axis=1)[None, :]
        )
        hit = (d2 <= (radii * radii)[None, :] + 1e-30).any(axis=1)
        uncovered += int((~hit).sum())
        over_bound += int((directed_values(ps.points, block) > params.d).sum())
    return {"probes": probe_count, "uncovered": uncovered, "over_bound": over_bound}


def drop_every_third(outcome):
    keep = np.arange(len(outcome.records)) % 3 != 2
    records = CoverageRecords(*(column[keep] for column in vars(outcome.records).values()))
    return dataclasses.replace(outcome, records=records)


def halve_radii(outcome):
    records = dataclasses.replace(outcome.records, radius=outcome.records.radius / 2.0)
    return dataclasses.replace(outcome, records=records)


class TestReportDocument:
    def test_schema_and_round_trip(self, small_run, tmp_path):
        ps, params, outcome = small_run
        path = tmp_path / "report.json"
        write_report(path, ps, params, outcome)
        doc = read_report(path)
        assert doc["schema_version"] == SCHEMA_VERSION
        assert doc["points_meta"]["size"] == ps.size
        assert doc["outcome"]["status"] == "covered"
        assert len(doc["records"]) == len(outcome.records)
        assert doc["params"]["d"] == float(f"{params.d:.17g}")

    @pytest.mark.parametrize(
        "run", ["small_run", "int_bounds_run", "counterexample_run", "residual_run"]
    )
    def test_read_back_equals_report_dict(self, run, request, tmp_path):
        ps, params, outcome = request.getfixturevalue(run)
        path = tmp_path / "report.json"
        write_report(path, ps, params, outcome)
        doc = report_dict(ps, params, outcome)
        # Compared as JSON text, which also pins key order and int/float.
        assert json.dumps(read_report(path)) == json.dumps(doc)
        # The file is strict JSON: no NaN or Infinity constants.
        json.loads(path.read_text(), parse_constant=reject_constant)
        if run == "counterexample_run":
            # no orbit was walked, so the r_min counters have no value
            counters = doc["outcome"]["counters"]
            assert counters["r_min_global"] is None and counters["r_min_median"] is None
        # Every bound is stored as a Python float, as float(f"{x:.17g}") made it.
        stored = [doc["params"]["d"], *doc["params"]["region"].values()]
        given = [params.d, *dataclasses.astuple(params.region)]
        assert [type(x) for x in stored] == [float] * 5
        assert stored == [float(f"{x:.17g}") for x in given]
        # strip_timings gives what a JSON deep copy minus timings gave, and
        # leaves its input whole.
        expect = json.loads(json.dumps(doc))
        del expect["outcome"]["timings"]
        assert json.dumps(strip_timings(doc)) == json.dumps(expect)
        assert doc["outcome"]["timings"] == outcome.timings

    def test_non_finite_value_is_refused(self, small_run, tmp_path):
        ps, params, outcome = small_run
        bad = dataclasses.replace(outcome, counters={**outcome.counters, "n_DD": float("inf")})
        with pytest.raises(ValueError):
            write_report(tmp_path / "report.json", ps, params, bad)

    def test_rejects_unknown_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema_version": 99}))
        with pytest.raises(ValueError):
            read_report(path)
        path.write_text(json.dumps([1]))
        with pytest.raises(ValueError, match="a report is a JSON object, not list"):
            read_report(path)

    def test_reads_schema_one_and_refuses_three(self, tmp_path):
        doc = read_report(V1_RESIDUAL_RUN)
        assert doc["schema_version"] == 1 and len(doc["records"]) == 627
        doc["schema_version"] = 3
        path = tmp_path / "v3.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="unsupported report schema: 3"):
            read_report(path)

    def test_rows_match_the_schema_one_records(self, residual_run, tmp_path):
        # Orbit centres are polar_to_cartesian of the stored angles, and Cover
        # Cap and residual centres give the stored angles under
        # cartesian_to_polar, bit for bit; all else is equal, in order, but
        # for the Cover Cap rows inside phase-1 balls, which are now dropped.
        ps, params, outcome = residual_run
        old = read_report(V1_RESIDUAL_RUN)
        write_report(tmp_path / "report.json", ps, params, outcome)
        new = read_report(tmp_path / "report.json")
        assert new["schema_version"] == SCHEMA_VERSION == 2
        assert new["record_fields"] == ["x", "y", "z", "radius", "directed_value", "origin"]
        assert new["origins"] == ["orbit", "cover_cap"]
        for key in ("params", "points_meta"):
            assert new[key] == old[key]
        # status and counters, less the counters of the dropped rows
        outcome_doc = strip_timings(new)["outcome"]
        counters = outcome_doc["counters"] = dict(outcome_doc["counters"])
        dropped = counters.pop("cover_cap_inside_orbit")
        assert counters.pop("not_covered_inside_orbit") == 3
        counters["n_cover_cap_dirs"] += dropped
        assert outcome_doc == strip_timings(old)["outcome"]
        assert "counterexample" not in new and "counterexample" not in old

        def bits(*values):
            return np.array(values, dtype=float).tobytes()

        def same_ball(rec, row) -> bool:
            x, y, z, radius, dis, origin = row
            assert type(origin) is int
            if new["origins"][origin] != rec["origin"]:
                return False
            if bits(radius, dis) != bits(rec["radius"], rec["directed_value"]):
                return False
            center, angles = np.array([x, y, z]), (rec["theta"], rec["phi"])
            if rec["origin"] == "orbit":
                return polar_to_cartesian(*angles).tobytes() == center.tobytes()
            return bits(*cartesian_to_polar(center)) == bits(*angles)

        origins = [rec["origin"] for rec in old["records"]]
        assert [origins.count(o) for o in ("orbit", "cover_cap")] == [471, 156]
        assert dropped == 24 and len(new["records"]) == len(old["records"]) - dropped
        rows = iter(new["records"])
        row = next(rows)
        missing = []  # the old records that no new row matches
        for rec in old["records"]:
            if row is not None and same_ball(rec, row):
                row = next(rows, None)
            else:
                missing.append(rec["origin"])
        assert row is None, "a new row matches no old record in order"
        assert missing == ["cover_cap"] * dropped
        assert len(new["not_covered"]) == len(old["not_covered"]) == 12
        for entry, (x, y, z, required) in zip(old["not_covered"], new["not_covered"]):
            assert bits(required) == bits(entry["required_radius"])
            assert bits(*cartesian_to_polar(np.array([x, y, z]))) == bits(entry["theta"], entry["phi"])

    def test_deterministic_modulo_timings(self, small_run):
        ps, params, outcome = small_run
        again = cover_region(ps, params)
        a = strip_timings(report_dict(ps, params, outcome))
        b = strip_timings(report_dict(ps, params, again))
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_strip_timings_removes_only_timings(self, small_run):
        ps, params, outcome = small_run
        doc = report_dict(ps, params, outcome)
        stripped = strip_timings(doc)
        assert "timings" in doc["outcome"]
        assert "timings" not in stripped["outcome"]
        assert stripped["records"] == doc["records"]


    def test_cert_digests_script_smoke(self, monkeypatch):
        script = Path(__file__).resolve().parents[1] / "scripts" / "cert_digests.py"
        proc = subprocess.run(
            [sys.executable, str(script), "twisted:20"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        ps, params = conjecture_setup(20)
        band_calls, band_test = [], covering._band_test

        def counted_band_test(*args):
            covered = band_test(*args)
            return lambda psi: band_calls.append(psi) or covered(psi)

        monkeypatch.setattr(covering, "_band_test", counted_band_test)
        outcome = cover_region(ps, params)
        doc = strip_timings(report_dict(ps, params, outcome))
        sha = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
        # cert= leaves out the counters, so a change in work alone keeps it
        cert = {
            "status": doc["outcome"]["status"],
            "records": doc["records"],
            "not_covered": doc["not_covered"],
            "counterexample": doc.get("counterexample"),
            "params": doc["params"],
            "points_meta": doc["points_meta"],
        }
        cert_sha = hashlib.sha256(json.dumps(cert, sort_keys=True).encode()).hexdigest()
        # balls= holds the rows alone, each list sorted, so their order does not move it
        balls = [sorted(reversed(doc["records"])), sorted(reversed(doc["not_covered"]))]
        balls_sha = hashlib.sha256(json.dumps(balls).encode()).hexdigest()
        expect = (
            f"twisted:20 status=covered n_evaluations={outcome.counters['n_evaluations']} "
            f"sha256={sha[:16]} cert={cert_sha[:16]} balls={balls_sha[:16]} "
            "cover_cap_inside_orbit=91 not_covered_inside_orbit=0 cover_s="
        )
        assert proc.stdout.startswith(expect), proc.stdout
        assert " split_batches=0 " in proc.stdout  # no twisted batch reaches _SPLIT_ROWS
        assert f" band_calls={len(band_calls)} " in proc.stdout and band_calls
        assert doc["records"] != sorted(doc["records"])  # so the sort is put to the test
        assert len(proc.stdout.splitlines()) == 1
        # the size of the schema-2 report, but for the digits of its timings, and the peak
        # RSS of the fresh process that wrote it
        size = len(json.dumps(report_dict(ps, params, outcome), allow_nan=False)) + 1
        written = proc.stdout.split(" report_bytes=")[1].split(" peak_rss_mb=")
        assert abs(int(written[0]) - size) < 50
        assert float(written[1]) > 10.0

    def test_cert_digests_script_with_a_baseline(self, tmp_path):
        # This tree stands in for the baseline: both tables must agree on all but the seconds.
        root = Path(__file__).resolve().parents[1]
        out = tmp_path / "bench.json"
        proc = subprocess.run(
            [sys.executable, str(root / "scripts" / "cert_digests.py"), "polar:14",
             "--repeats", "2", "--baseline", str(root / "src"), "--out", str(out)],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        parent, change = proc.stdout.splitlines()
        assert parent.startswith("parent: polar:14 status=covered n_evaluations=9448 ")
        assert change.startswith("change: polar:14 status=covered n_evaluations=9448 ")
        # the same digests and counts, whatever the seconds
        assert parent.split(" cover_s=")[0][7:] == change.split(" cover_s=")[0][7:]
        tables = json.loads(out.read_text())["tables"]
        assert set(tables) == {"parent", "change"}
        rows = [tables[label]["jobs"] for label in ("parent", "change")]
        assert [len(r) for r in rows] == [1, 1]
        medians = ("cover_s", "phase1_s", "cover_cap_s", "inside_orbit_s", "peak_rss_mb")
        medians += ("report_bytes",)  # its timings' digits vary
        fixed = [{k: v for k, v in r[0].items() if k not in medians} for r in rows]
        assert fixed[0] == fixed[1]
        assert abs(rows[0][0]["report_bytes"] - rows[1][0]["report_bytes"]) < 50
        assert rows[1][0]["peak_rss_mb"] > 10.0
        # a batch split over two threads (polar 14 has one, given 2 CPUs) counts as one batch
        assert fixed[1]["batch_calls"] == 174
        assert fixed[1]["split_batches"] == int(covering._split_allowed())  # of 1,672 rows
        assert "alternating with the parent table's" in tables["change"]["statistic"]


class TestSummaryCsv:
    PS = generate_twisted_polar(4)
    PARAMS = CoverParams(d=0.05, region=Region(0.0, 1.0, 0.0, 1.0))

    def _upsert(self, path, n, status="covered"):
        outcome = CoverOutcome(
            status, [], None, [],
            counters={"n_DD": 100 + n, "n_CC": 5},
            timings={"phase1": 1.0, "cover_cap": 0.5, "total": 1.5},
        )
        upsert_summary_row(path, n, self.PS, self.PARAMS, outcome)

    def test_upsert_is_idempotent_and_sorted(self, tmp_path):
        path = tmp_path / "summary.csv"
        self._upsert(path, 20)
        self._upsert(path, 15)
        self._upsert(path, 20, status="residual")
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ",".join(SUMMARY_HEADER)
        assert len(lines) == 3
        assert lines[1].startswith("15,")
        assert lines[2].startswith("20,") and lines[2].endswith("residual")

    def test_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "summary.csv"
        for text in ("a,b,c\n1,2,3\n", ",".join(SUMMARY_HEADER) + "\nxx,1\n"):
            path.write_text(text)
            with pytest.raises(ValueError):
                self._upsert(path, 15)
            assert path.read_text() == text

    def test_row_from_outcome(self, small_run, tmp_path):
        ps, params, outcome = small_run
        path = tmp_path / "summary.csv"
        upsert_summary_row(path, 12, ps, params, outcome)
        with path.open(newline="") as fh:
            (row,) = list(csv.DictReader(fh))
        assert list(row) == SUMMARY_HEADER
        assert row["n"] == "12"
        assert int(row["t"]) == ps.size
        assert int(row["n_DD"]) == outcome.counters["n_DD"]
        assert row["status"] == "covered"
        assert float(row["d"]) == params.d


class TestSampling:
    def test_directions_stay_in_region(self):
        region = Region(0.2, 0.9, 1.0, 2.5)
        rng = np.random.default_rng(0)
        dirs = sample_region_directions(region, 5000, rng)
        assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)
        phi = np.arcsin(dirs[:, 2])
        theta = np.arctan2(dirs[:, 1], dirs[:, 0])
        assert (phi >= region.phi_min - 1e-12).all()
        assert (phi <= region.phi_max + 1e-12).all()
        assert (theta >= region.theta_min - 1e-12).all()
        assert (theta <= region.theta_max + 1e-12).all()


class TestAudit:
    def test_covered_run_passes(self, small_run):
        ps, params, outcome = small_run
        result = audit_coverage(ps, params, outcome, probe_count=5000, seed=1)
        assert result == {"probes": 5000, "uncovered": 0, "over_bound": 0}

    @pytest.mark.parametrize("run", ["small_run", "polar14_run"])
    @pytest.mark.parametrize("doctor", [None, drop_every_third, halve_radii])
    def test_latitude_index_matches_dense_audit(self, run, doctor, request):
        # The index only prunes balls; a pruning bug drops a covering ball
        # and shows up as more uncovered probes than the dense reference.
        ps, params, outcome = request.getfixturevalue(run)
        if doctor is not None:
            outcome = doctor(outcome)
        for seed in (0, 1, 2):
            result = audit_coverage(ps, params, outcome, probe_count=3000, seed=seed)
            assert result == dense_audit(ps, params, outcome, 3000, seed)
            if doctor is not None:
                assert result["uncovered"] > 0

    @pytest.mark.parametrize("run", ["small_run", "polar14_run"])
    def test_balls_tested_in_small_steps_give_the_dense_audit(self, run, request, monkeypatch):
        monkeypatch.setattr(reporting, "_AUDIT_BALLS", 7)
        ps, params, outcome = request.getfixturevalue(run)
        for doctor in (None, drop_every_third, halve_radii):
            doctored = outcome if doctor is None else doctor(outcome)
            result = audit_coverage(ps, params, doctored, probe_count=3000, seed=0)
            assert result == dense_audit(ps, params, doctored, 3000, 0)

    def test_a_crowded_block_is_tested_in_bounded_steps(self):
        # 30k tiny balls on the equator all meet the block of probes nearest
        # z = 0; tested at once, their distances would take 3 x 31 MB.
        theta = np.linspace(0.0, 1.0, 30_000)
        centers = np.column_stack((np.cos(theta), np.sin(theta), np.zeros_like(theta)))
        region = Region(-0.01, 0.01, 0.0, 1.0)
        probes = sample_region_directions(region, 512, np.random.default_rng(0))
        tracemalloc.start()
        try:
            uncovered = reporting._uncovered_count(probes, centers, np.full(30_000, 1e-5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert uncovered == 512
        assert peak < 8_000_000, peak

    def test_probe_values_equal_the_engine_bit_for_bit(self):
        # t = 994 puts 16 rows in a block, so 30 probes span two blocks.
        ps, params = conjecture_setup(30, structure="polar")
        probes = sample_region_directions(params.region, 30, np.random.default_rng(0))
        values = reporting.directed_values(ps.points, probes)
        engine = [confidence_radius(project(ps, v), 1.0).directed_value for v in probes]
        assert values.tobytes() == np.array(engine).tobytes()

    def test_outcome_without_records_leaves_every_probe_uncovered(self, small_run):
        ps, params, _ = small_run
        records = CoverageRecords(np.zeros((0, 3)), np.zeros(0), np.zeros(0), np.zeros(0, np.uint8))
        empty = CoverOutcome("residual", records, None, Residuals(np.zeros((0, 3)), np.zeros(0)))
        result = audit_coverage(ps, params, empty, probe_count=500, seed=0)
        assert result == {"probes": 500, "uncovered": 500, "over_bound": 0}

    def test_audit_script_smoke(self):
        script = Path(__file__).resolve().parents[1] / "scripts" / "audit_polar_run.py"
        proc = subprocess.run(
            [sys.executable, str(script), "--n", "14", "--probes", "2000"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("cover: polar:14 status=covered ")
        assert "uncovered=0 over_bound=0" in proc.stdout
        assert "peak_rss_mb=" in proc.stdout

    def test_audit_script_on_the_twisted_structure(self):
        script = Path(__file__).resolve().parents[1] / "scripts" / "audit_polar_run.py"
        proc = subprocess.run(
            [sys.executable, str(script), "--structure", "twisted", "--n", "20", "--probes", "2000"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("cover: twisted:20 status=covered ")
        assert "cover_cap_inside_orbit=91 " in proc.stdout
        assert "uncovered=0 over_bound=0" in proc.stdout

    def test_rejects_counterexample_outcome(self):
        ps = generate_twisted_polar(8)
        params = CoverParams(d=1e-9, region=Region(0.0, 0.5, 0.0, 1.0))
        outcome = cover_region(ps, params)
        assert outcome.status == "counterexample"
        with pytest.raises(ValueError):
            audit_coverage(ps, params, outcome, probe_count=10)
