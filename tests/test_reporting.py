import dataclasses
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from capdisc.covering import CoverOutcome, CoverParams, cover_region
from capdisc.discrepancy import directed_values
from capdisc.geometry import Region, polar_to_cartesian
from capdisc.pointsets import generate_twisted_polar
from capdisc.polar_analysis import conjecture_setup, north_pole_directed
from capdisc.reporting import (
    SCHEMA_VERSION,
    SUMMARY_HEADER,
    RunSummaryRow,
    audit_coverage,
    read_report,
    report_dict,
    sample_region_directions,
    strip_timings,
    summary_row_from_outcome,
    upsert_summary_row,
    write_report,
)


@pytest.fixture(scope="module")
def small_run():
    ps = generate_twisted_polar(12)
    d = north_pole_directed(12)
    params = CoverParams(d=d, region=Region(0.6, 1.0, 0.0, 0.8), cover_cap_max_depth=8)
    outcome = cover_region(ps, params)
    assert outcome.status == "covered"
    return ps, params, outcome


@pytest.fixture(scope="module")
def polar14_run():
    # Plain polar n=14 is a small conjecture certificate that ends in about
    # a second; n=10..13 and 16 each spend over 20 s in Cover Cap.
    ps, params = conjecture_setup(14, structure="polar")
    return ps, params, cover_region(ps, params)


def dense_audit(ps, params, outcome, probe_count, seed):
    """Reference audit: every probe against every ball, one dense block at a time."""
    probes = sample_region_directions(params.region, probe_count, np.random.default_rng(seed))
    centers = np.array([polar_to_cartesian(r.direction) for r in outcome.records]).reshape(-1, 3)
    radii = np.array([r.radius for r in outcome.records], dtype=float)
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
    records = [rec for i, rec in enumerate(outcome.records) if i % 3 != 2]
    return dataclasses.replace(outcome, records=records)


def halve_radii(outcome):
    records = [dataclasses.replace(rec, radius=rec.radius / 2.0) for rec in outcome.records]
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

    def test_rejects_unknown_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema_version": 99}))
        with pytest.raises(ValueError):
            read_report(path)

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


    def test_cert_digests_script_smoke(self):
        script = Path(__file__).resolve().parents[1] / "scripts" / "cert_digests.py"
        proc = subprocess.run(
            [sys.executable, str(script), "twisted:20"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        ps, params = conjecture_setup(20)
        outcome = cover_region(ps, params)
        doc = strip_timings(report_dict(ps, params, outcome))
        sha = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
        expect = (
            f"twisted:20 status=covered n_evaluations={outcome.counters['n_evaluations']} "
            f"sha256={sha[:16]} cover_s="
        )
        assert proc.stdout.startswith(expect), proc.stdout
        assert len(proc.stdout.splitlines()) == 1


class TestSummaryCsv:
    def _row(self, n, status="covered"):
        return RunSummaryRow(
            n=n, t=n * n, n_DD=100 + n, n_CC=5, phase1_s=1.0,
            cover_cap_s=0.5, total_s=1.5, d=0.05, status=status,
        )

    def test_upsert_is_idempotent_and_sorted(self, tmp_path):
        path = tmp_path / "summary.csv"
        upsert_summary_row(path, self._row(20))
        upsert_summary_row(path, self._row(15))
        upsert_summary_row(path, self._row(20, status="residual"))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ",".join(SUMMARY_HEADER)
        assert len(lines) == 3
        assert lines[1].startswith("15,")
        assert lines[2].startswith("20,") and lines[2].endswith("residual")

    def test_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "summary.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            upsert_summary_row(path, self._row(15))

    def test_row_invariants(self):
        with pytest.raises(ValueError):
            RunSummaryRow(15, 250, 10, 20, 1.0, 0.5, 1.5, 0.05, "covered")
        with pytest.raises(ValueError):
            RunSummaryRow(15, 250, 20, 10, 1.0, 0.5, 0.9, 0.05, "covered")

    def test_row_from_outcome(self, small_run):
        ps, params, outcome = small_run
        row = summary_row_from_outcome(12, ps, params, outcome)
        assert row.n == 12
        assert row.t == ps.size
        assert row.n_DD == outcome.counters["n_DD"]
        assert row.status == "covered"


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

    def test_outcome_without_records_leaves_every_probe_uncovered(self, small_run):
        ps, params, _ = small_run
        empty = CoverOutcome("residual", [], None, [])
        result = audit_coverage(ps, params, empty, probe_count=500, seed=0)
        assert result == {"probes": 500, "uncovered": 500, "over_bound": 0}

    def test_audit_script_smoke(self):
        script = Path(__file__).resolve().parents[1] / "scripts" / "audit_polar_run.py"
        proc = subprocess.run(
            [sys.executable, str(script), "--n", "14", "--probes", "2000"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "uncovered=0 over_bound=0" in proc.stdout
        assert "peak_rss_mb=" in proc.stdout

    def test_rejects_counterexample_outcome(self):
        ps = generate_twisted_polar(8)
        params = CoverParams(d=1e-9, region=Region(0.0, 0.5, 0.0, 1.0))
        outcome = cover_region(ps, params)
        assert outcome.status == "counterexample"
        with pytest.raises(ValueError):
            audit_coverage(ps, params, outcome, probe_count=10)
