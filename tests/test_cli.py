import argparse
import ast
import csv
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
import zlib
from itertools import chain

import numpy as np
import pytest

from martinlevels import cli, export, fields, geometry, greenratio, levelset, slices


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


STRIP_LEVELS = {"field": "strip", "levels": [0.5, 1, 2, 4],
                "window": [[0.0, -1.5707963267948966], [3.0, 1.5707963267948966]],
                "h": 0.05}


class TestExitCodes:
    def test_missing_config_is_usage_error(self, capsys):
        assert cli.main(["levelsets"]) == 2

    def test_unreadable_config(self, tmp_path):
        assert cli.main(["levelsets", "--config", str(tmp_path / "nope.json")]) == 2

    def test_empty_levels_rejected(self, tmp_path):
        cfg = write_config(tmp_path, "bad.json", {**STRIP_LEVELS, "levels": []})
        assert cli.main(["levelsets", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_negative_level_rejected(self, tmp_path):
        cfg = write_config(tmp_path, "bad.json", {**STRIP_LEVELS, "levels": [-1.0]})
        assert cli.main(["levelsets", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_unknown_field_rejected(self, tmp_path):
        cfg = write_config(tmp_path, "bad.json", {**STRIP_LEVELS, "field": "wat"})
        assert cli.main(["levelsets", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_unknown_check_rejected(self, tmp_path):
        cfg = write_config(tmp_path, "bad.json", {"field": "strip", "checks": ["nope"]})
        assert cli.main(["audit", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_green_pole_order_rejected(self, tmp_path):
        code = cli.main(["green", "--domain", "strip", "--x0", "0.5,0", "--poles", "4,3",
                         "--h", "0.0628", "--probe", "0.5,2.0,-1,1", "--out", str(tmp_path)])
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["green", "--domain", "profile", "--x0", "1,0", "--poles", "2,3", "--probe", "0.5,1.5"],
        ["green", "--domain", "cylinder", "--x0", "0.5,0", "--poles", "2,3", "--probe", "0.5,1.5"],
        ["slice-scan", "--field", "exterior", "--t", "0.5"],
        ["asymptotics", "--radii", "1:2:3"],
        ["slice-scan", "--field", "strip", "--t", "1", "--span", "-1"],
        ["slice-scan", "--field", "strip", "--t", "1", "--span", "0"],
        # at t = 0.5 the exterior slice is |y| > sqrt(0.75): a span of 0.5 clips it away
        ["slice-scan", "--field", "exterior", "--t", "0.5", "--span", "0.5"],
        # no check would write an empty decay.json
        ["asymptotics", "--check", " , "],
        # the strip's coarse spacing is capped at pi/16, so its grid grows like s
        ["green", "--domain", "strip", "--x0", "0.5,0", "--poles", "1e300", "--h", "0.1",
         "--probe", "0.5,1.5,-0.5,0.5"],
        # (b - a) / h overflows to inf
        ["green", "--domain", "strip", "--x0", "0.5,0", "--poles", "4,6", "--h", "1e-320",
         "--probe", "0.5,1.5,-0.5,0.5"],
        # u = 0 on the slit, which ends at r = 1: no slope can be fitted there
        ["asymptotics", "--check", "f-decay", "--radii", "1:80:12"],
        ["asymptotics", "--radii", "0.5:80:12"],
        ["asymptotics", "--check", "hess-residual", "--radii", "1:80:12"],
        # x0 lies past pole 2's truncation window [0, 4] x [-pi/2, pi/2]
        ["green", "--domain", "strip", "--x0", "10,0", "--poles", "2,3", "--h", "0.05",
         "--probe", "0.5,1,-1,1"],
    ], ids=["profile-without-f", "cylinder-no-truncation", "unbounded-slice-no-span",
            "short-radii", "negative-span", "zero-span", "span-clips-the-slice-away",
            "no-asymptotics-check", "lattice-too-large", "lattice-spacing-underflows",
            "radii-from-the-slit-tip", "radii-on-the-slit", "hess-radii-from-the-slit-tip",
            "x0-outside-truncation"])
    def test_geometry_errors_are_usage_errors(self, tmp_path, capsys, argv):
        assert cli.main(argv + ["--out", str(tmp_path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_slice_scan_span_past_the_slice(self, tmp_path, capsys):
        def rays(field, t, *span):
            out = tmp_path / f"{field}{len(span)}"
            argv = ["slice-scan", "--field", field, "--t", t, *span, "--out", str(out)]
            assert cli.main(argv) == 0
            assert capsys.readouterr().err == ""
            return json.load(open(out / "slices.json"))["slices"][t]["rays"]

        # the ray from (1, 0) leaves the strip at pi / 2 < 2: it stops at the wall
        assert rays("strip", "1", "--span", "2") == rays("strip", "1")
        # (0.5, 0) lies in the removed unit disk: no ray, no error
        assert [r["decreasing"] for r in rays("exterior", "0.5", "--span", "2")] == [None, None]

    def test_green_probe_outside_truncation_rejected(self, tmp_path):
        code = cli.main(["green", "--domain", "strip", "--x0", "0.5,0", "--poles", "1",
                         "--h", "0.0628", "--probe", "0.5,3.0,-1,1", "--out", str(tmp_path)])
        assert code == 2

    @pytest.mark.parametrize("checks", [[3], ["harmonicity", None], 3],
                             ids=["number", "null", "not-a-list"])
    def test_malformed_check_item_is_a_usage_error(self, tmp_path, capsys, checks):
        cfg = write_config(tmp_path, "bad.json", {"field": "strip", "checks": checks})
        assert cli.main(["audit", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not (tmp_path / "report.json").exists()


class TestLevelsets:
    def test_outputs_and_determinism(self, tmp_path):
        cfg = write_config(tmp_path, "lv.json", STRIP_LEVELS)
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert cli.main(["levelsets", "--config", cfg, "--out", out1]) == 0
        assert cli.main(["levelsets", "--config", cfg, "--out", out2]) == 0
        for fname in ("levels.json", "levels.csv"):
            b1 = open(os.path.join(out1, fname), "rb").read()
            b2 = open(os.path.join(out2, fname), "rb").read()
            assert b1 == b2, f"{fname} not byte-identical"
        payload = json.load(open(os.path.join(out1, "levels.json")))
        assert {c["level"] for c in payload["curves"]} == {0.5, 1.0, 2.0, 4.0}
        svg = open(os.path.join(out1, "levels.svg")).read()
        assert svg.startswith("<svg") and "path" in svg

    def test_payload_and_csv_rows_match_per_point_writers(self, tmp_path):
        # the per-vertex loops that the array-backed writers replaced
        fld = fields.strip_martin()
        curves = [cv for c in (0.5, 2.0, 8.0) for cv in
                  levelset.extract_level_curve(fld, c, fld.default_window, 0.01)]
        for c in curves:
            ref = [[float(x), float(y)] for x, y in c.vertices]
            assert export.canonical_json(c.vertices.tolist()) == json.dumps(ref, indent=2) + "\n"
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\r\n").writerows(
            [("curve", "level", "x", "y")]
            + [(k, c.level, float(x), float(y)) for k, c in enumerate(curves) for x, y in c.vertices])
        export.write_csv(tmp_path / "new.csv", ["curve", "level", "x", "y"],
                         chain.from_iterable(cli._csv_lines(k, c) for k, c in enumerate(curves)))
        assert (tmp_path / "new.csv").read_bytes() == buf.getvalue().encode()

    def test_levels_json_writes_each_vertex_as_its_repr(self, tmp_path):
        cfg = write_config(tmp_path, "lv.json", STRIP_LEVELS)
        assert cli.main(["levelsets", "--config", cfg, "--out", str(tmp_path)]) == 0
        fld = fields.strip_martin()
        window = geometry.WindowBox(*STRIP_LEVELS["window"])
        curves = [cv for c in STRIP_LEVELS["levels"] for cv in
                  levelset.extract_level_curve(fld, c, window, STRIP_LEVELS["h"])]
        payload = json.load(open(tmp_path / "levels.json"))
        assert [c["points"] for c in payload["curves"]] == [c.vertices.tolist() for c in curves]

    def test_benchmark_levels_csv_equals_the_csv_module_bytes(self, tmp_path):
        # the certify benchmark's levelsets config: 9,972 rows over six levels
        levels = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0]
        lower, upper = (0.0, -math.pi / 2), (4.0, math.pi / 2)
        cfg = write_config(tmp_path, "lv.json", {"field": "strip", "levels": levels,
                                                 "window": [lower, upper], "h": 0.005})
        assert cli.main(["levelsets", "--config", cfg, "--out", str(tmp_path)]) == 0
        fld = fields.strip_martin()
        curves = [cv for c in levels for cv in
                  levelset.extract_level_curve(fld, c, geometry.WindowBox(lower, upper), 0.005)]
        rows = [(k, c.level, x, y) for k, c in enumerate(curves) for x, y in c.vertices.tolist()]
        assert len(rows) == 9972
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\r\n").writerows([("curve", "level", "x", "y")] + rows)
        assert (tmp_path / "levels.csv").read_bytes() == buf.getvalue().encode()

    def test_config_out_key_is_honoured_and_the_flag_wins(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path, "lv.json", {**STRIP_LEVELS, "out": "fromcfg"})
        assert cli.main(["levelsets", "--config", cfg]) == 0
        assert (tmp_path / "fromcfg" / "levels.json").exists()
        assert not (tmp_path / "levels.json").exists()
        assert cli.main(["levelsets", "--config", cfg, "--out", "fromflag"]) == 0
        assert (tmp_path / "fromflag" / "levels.json").exists()
        bad = write_config(tmp_path, "bad.json", {**STRIP_LEVELS, "out": 5})
        assert cli.main(["levelsets", "--config", bad]) == 2

    def test_contour_json_schema(self, tmp_path):
        cfg = write_config(tmp_path, "lv.json", STRIP_LEVELS)
        assert cli.main(["levelsets", "--config", cfg, "--out", str(tmp_path)]) == 0
        payload = json.load(open(tmp_path / "levels.json"))
        curve = payload["curves"][0]
        assert set(curve) == {"level", "closed", "points"}
        assert all(len(p) == 2 for p in curve["points"])


def reference_check_harmonicity(fld, rng, n=30):
    """The per-point sampling and residual loop that the array check replaced,
    keeping each point farther than 0.05 + sqrt(2) s from every wall sample."""
    window = fld.default_window
    walls = fld.domain.boundary_points(window, 200)
    margin = 0.05 + math.sqrt(2.0) * max(window.extent()) / 199
    pts = []
    while len(pts) < n:
        p = np.asarray(tuple(rng.uniform(a, b) for a, b in zip(window.lower, window.upper)))
        if fld.domain.contains(p) and min(math.dist(p, w) for w in walls) > margin:
            pts.append(p)
    hs = [1e-2, 1e-3, 1e-4]
    maxres = [max([abs(fields.harmonicity_residual(fld, p, h)) for p in pts], default=0.0)
              for h in hs]
    order = float(np.polyfit(np.log(hs), np.log(maxres), 1)[0])
    return order >= 1.9, {"fitted_order": order, "max_residuals": maxres}


class TestAudit:
    def test_boundary_sampling_beyond_memory_is_a_geometry_error(self, tmp_path, monkeypatch):
        # 2,000,000 samples ask for masks of 3.5 TiB, refused before they exist
        monkeypatch.setattr(geometry, "physical_memory", lambda: 8 * 2 ** 30)
        cfg = write_config(tmp_path, "audit.json", {"field": "strip", "checks": [
            {"name": "boundary_vanishing", "params": {"n_samples": 2000000}}]})
        assert cli.main(["audit", "--config", cfg, "--out", str(tmp_path)]) == 1
        verdict = json.load(open(tmp_path / "report.json"))["verdicts"]["boundary_vanishing"]
        assert verdict["error"].startswith("GeometryError: boundary sampling's 4 masks on "
                                           "1909859 x 2000001 nodes needs 1.42e+04 GiB")

    def test_strip_audit_passes(self, tmp_path):
        cfg = write_config(tmp_path, "audit.json", {
            "field": "strip",
            "checks": [{"name": "boundary_vanishing"},
                       {"name": "convexity", "params": {"levels": [0.5, 1.0], "h": 0.05}},
                       {"name": "slice_maxima", "params": {"t": [1.0, 2.0]}}]})
        out = str(tmp_path / "missing_dir")   # created on demand
        assert cli.main(["audit", "--config", cfg, "--out", out]) == 0
        report = json.load(open(os.path.join(out, "report.json")))
        assert all(v["ok"] for v in report["verdicts"].values())
        assert os.path.exists(os.path.join(out, "report.timings.json"))

    def test_negative_control_expected_failure(self, tmp_path):
        cfg = write_config(tmp_path, "audit.json", {
            "field": "exterior",
            "checks": [{"name": "convexity", "expected": False,
                        "params": {"levels": [1.5], "h": 0.05}},
                       {"name": "slice_maxima", "expected": False,
                        "params": {"t": [2.0], "span": 2.0}}]})
        assert cli.main(["audit", "--config", cfg, "--out", str(tmp_path)]) == 0
        report = json.load(open(tmp_path / "report.json"))
        conv = report["verdicts"]["convexity"]
        assert conv["passed"] is False and conv["expected"] is False and conv["ok"] is True

    def test_narrow_long_double_fails_the_harmonicity_check(self, tmp_path, monkeypatch):
        monkeypatch.setattr(fields, "_longdouble_eps", lambda: 2.220446049250313e-16)
        cfg = write_config(tmp_path, "audit.json", {"field": "strip", "checks": ["harmonicity"]})
        assert cli.main(["audit", "--config", cfg, "--out", str(tmp_path)]) == 1
        verdict = json.load(open(tmp_path / "report.json"))["verdicts"]["harmonicity"]
        assert verdict["passed"] is False
        assert "long double eps 2.22e-16" in verdict["error"]

    @pytest.mark.parametrize("name", ["halfplane_v", "halfplane_x"])
    def test_exactly_harmonic_field_passes_the_harmonicity_check(self, tmp_path, name):
        # x^2 - y^2 and x leave only long-double rounding in the stencil, which
        # grows like h^-2 (x^2 - y^2) or is exactly 0 (x)
        cfg = write_config(tmp_path, "audit.json", {"field": name, "checks": ["harmonicity"]})
        assert cli.main(["audit", "--config", cfg, "--out", str(tmp_path)]) == 0
        details = json.load(open(tmp_path / "report.json"))["verdicts"]["harmonicity"]["details"]
        assert max(details["max_residuals"]) <= 1e-9
        if name == "halfplane_x":
            assert details == {"fitted_order": None, "max_residuals": [0.0, 0.0, 0.0]}

    @pytest.mark.parametrize("seed", [0, 5, 11])
    @pytest.mark.parametrize("name", ["strip", "exterior", "slit_sector", "cylinder:A=1,B=0.5"])
    def test_harmonicity_details_match_per_point_reference(self, name, seed):
        fld = fields.field_from_name(name)
        got = cli._check_harmonicity(fld, random.Random(seed), {})
        assert got == reference_check_harmonicity(fld, random.Random(seed))
        assert got[0] is True

    @pytest.mark.parametrize("profile, u", [
        ("sqrt", lambda x, y: np.real(np.cosh(np.pi * np.sqrt(x + 1j * y - 0.25)))),
        ("const", lambda x, y: np.sinh(np.pi * x / 2) * np.cos(np.pi * y / 2)),
    ], ids=["parabola", "half-strip"])
    def test_profile_region_fields_pass_the_harmonicity_and_boundary_checks(self, profile, u):
        # the Martin functions of {t > 0, |y| < sqrt(t)} and {t > 0, |y| < 1};
        # the two checks read values only, so no derivative is given
        domain = geometry.domain_from_config({"kind": "profile", "f": profile})
        fld = fields.HolomorphicReField(domain, u, None, None, profile,
                                        default_window=geometry.WindowBox((0.0, -2.0), (3.0, 2.0)))
        for name in ("harmonicity", "boundary_vanishing"):
            passed, details = cli.AUDIT_CHECKS[name][0](fld, random.Random(zlib.crc32(name.encode())), {})
            assert passed, (name, details)

    def test_an_overflowing_slice_is_an_error_of_the_check(self, tmp_path):
        # sinh(800) overflows: the check names t, no maximum is recorded and
        # no floating-point warning is raised
        cfg = write_config(tmp_path, "audit.json", {"field": "strip", "checks": [
            {"name": "slice_maxima", "params": {"t": [1.0, 800.0]}}]})
        assert cli.main(["audit", "--config", cfg, "--out", str(tmp_path)]) == 1
        verdict = json.load(open(tmp_path / "report.json"))["verdicts"]["slice_maxima"]
        assert verdict["details"] == {}
        assert verdict["error"] == "FieldError: field 'strip' is not finite on the slice at t = 800"

    def test_required_failure_sets_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, "audit.json", {
            "field": "exterior",
            "checks": [{"name": "convexity", "params": {"levels": [1.5], "h": 0.05}}]})
        assert cli.main(["audit", "--config", cfg, "--out", str(tmp_path)]) == 1

    def test_config_roundtrip_and_determinism(self, tmp_path):
        payload = {"field": "strip", "seed": 7,
                   "checks": [{"name": "slice_maxima", "params": {"t": [1.0]}}]}
        cfg = write_config(tmp_path, "audit.json", payload)
        out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
        assert cli.main(["audit", "--config", cfg, "--out", out1]) == 0
        assert cli.main(["audit", "--config", cfg, "--out", out2]) == 0
        r1 = open(os.path.join(out1, "report.json"), "rb").read()
        r2 = open(os.path.join(out2, "report.json"), "rb").read()
        assert r1 == r2
        echoed = json.loads(r1)["config"]
        assert echoed == payload

    def test_randomized_check_deterministic_across_processes(self, tmp_path):
        # harmonicity places samples with the seeded generator; fresh
        # interpreter processes (fresh hash salts) must agree byte for byte
        payload = {"field": "strip", "seed": 11,
                   "checks": [{"name": "harmonicity", "params": {"n_points": 6}}]}
        cfg = write_config(tmp_path, "audit.json", payload)
        reports = []
        for sub in ("p1", "p2"):
            out = str(tmp_path / sub)
            res = subprocess.run(
                [sys.executable, "-m", "martinlevels.cli", "audit",
                 "--config", cfg, "--out", out],
                capture_output=True, text=True)
            assert res.returncode == 0, res.stderr
            reports.append(open(os.path.join(out, "report.json"), "rb").read())
        assert reports[0] == reports[1]

    def test_csv_rows_are_plain_floats(self, tmp_path):
        cfg = write_config(tmp_path, "lv.json", STRIP_LEVELS)
        assert cli.main(["levelsets", "--config", cfg, "--out", str(tmp_path)]) == 0
        lines = open(tmp_path / "levels.csv", newline="").read().split("\r\n")
        assert lines[0] == "curve,level,x,y"
        cells = lines[1].split(",")
        assert len(cells) == 4
        float(cells[2]); float(cells[3])   # parse cleanly, no numpy repr noise


class TestGreen:
    def test_small_strip_run(self, tmp_path):
        code = cli.main(["green", "--domain", "strip", "--x0", "0.5,0", "--poles", "2,3",
                         "--h", "0.0628", "--probe", "0.4,1.5,-1,1",
                         "--out", str(tmp_path)])
        assert code == 0
        payload = json.load(open(tmp_path / "ratio.json"))
        assert payload["domain"] == {"kind": "strip"}
        assert len(payload["cauchy"]) == 1
        assert payload["closed_form"]["field"] == "strip"
        assert payload["closed_form"]["max_rel_error"] < 0.05
        nx, ny = payload["probe_shape"]
        assert len(payload["probe_values"]) == nx * ny
        assert "row-major" in payload["probe_order"]

    def test_strip_reports_solver_stats_deterministically(self, tmp_path):
        # the strip fills its window's inner rectangle: one iteration per pole
        argv = ["green", "--domain", "strip", "--x0", "0.5,0", "--poles", "2,3",
                "--h", "0.0628", "--probe", "0.4,1.5,-1,1"]
        reports = []
        for sub in ("a", "b"):
            assert cli.main(argv + ["--out", str(tmp_path / sub)]) == 0
            reports.append((tmp_path / sub / "ratio.json").read_bytes())
        assert reports[0] == reports[1]
        iterates = json.loads(reports[0])["iterates"]
        assert [[lv["cg_iterations"] for lv in it["levels"]] for it in iterates] == [[1], [1]]
        assert all(0.0 < lv["cg_residual"] <= 1e-12 for it in iterates for lv in it["levels"])
        timings = json.load(open(tmp_path / "a" / "ratio.timings.json"))
        assert "cg_iterations" not in timings

    def test_ring_mode(self, tmp_path):
        cfg = write_config(tmp_path, "ring.json", {
            "domain": {"kind": "convex_ring",
                       "A": {"vertices": [[-2, -2], [2, -2], [2, 2], [-2, 2]]},
                       "B": {"vertices": [[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]]}},
            "h": 0.1, "levels": [0.25, 0.5, 0.75]})
        reports = []
        for sub in ("a", "b"):
            assert cli.main(["green", "--config", cfg, "--out", str(tmp_path / sub)]) == 0
            reports.append((tmp_path / sub / "ring.json").read_bytes())
        assert reports[0] == reports[1]
        payload = json.loads(reports[0])
        assert payload["mode"] == "ring"
        assert payload["max_principle"] is True
        assert all(v["verdict"] == "convex" for v in payload["convexity"].values())
        # the inner body leaves the rectangle preconditioner inexact
        assert payload["cg_iterations"] > 1
        assert 0.0 < payload["cg_residual"] <= 1e-10

    def test_ring_report_declares_its_bodies(self, tmp_path):
        square = {"vertices": [[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]]}
        reports = []
        for sub, inner in (("ngon", SMALL_RING["domain"]["B"]), ("square", square)):
            domain = {**SMALL_RING["domain"], "B": inner}
            cfg = write_config(tmp_path, f"{sub}.json", {**SMALL_RING, "domain": domain})
            assert cli.main(["green", "--config", cfg, "--out", str(tmp_path / sub)]) == 0
            reports.append(json.load(open(tmp_path / sub / "ring.json")))
            assert (reports[-1]["domain"]
                    == geometry.domain_from_config(domain).declaration
                    == geometry.domain_from_config(reports[-1]["domain"]).declaration)
        assert reports[0]["domain"] != reports[1]["domain"]

    @pytest.mark.parametrize("argv, report", [
        (["--domain", "strip", "--x0", "0.5,0", "--poles", "2,3", "--h", "0.0628",
          "--probe", "0.4,1.5,-1,1"], "ratio"),
        (["--config", "ring.json"], "ring")])
    def test_each_mode_writes_its_total_to_a_sidecar(self, tmp_path, monkeypatch, argv, report):
        monkeypatch.chdir(tmp_path)
        write_config(tmp_path, "ring.json", SMALL_RING)
        assert cli.main(["green", *argv, "--out", "out"]) == 0
        assert sorted(os.listdir(tmp_path / "out")) == [f"{report}.json", f"{report}.timings.json"]
        assert list(json.load(open(tmp_path / "out" / f"{report}.timings.json"))) == ["total"]

    @pytest.mark.parametrize("domain, field, error", [
        ("sector", "halfplane_v", "1.01e-02"),
        ("right_halfplane", "halfplane_x", "1.14e-02"),
        ("sector_minus_slit", "slit_sector", "1.06e-02"),
        ("halfplane_minus_disk", "exterior", "2.24e-02"),
    ])
    def test_closed_form_is_the_registry_field_of_the_kind(self, tmp_path, domain, field, error):
        assert cli.main(["green", "--domain", domain, "--x0", "2,0", "--poles", "8,16",
                         "--h", "0.05", "--probe", "1.5,3,-1,1", "--out", str(tmp_path)]) == 0
        closed_form = json.load(open(tmp_path / "ratio.json"))["closed_form"]
        assert closed_form["field"] == field
        assert f"{closed_form['max_rel_error']:.2e}" == error

    def test_closed_form_leaves_out_probes_on_the_slit(self, tmp_path):
        # the slit lies in the closure, where the closed form's value raises
        assert cli.main(["green", "--domain", "sector_minus_slit", "--x0", "2,0",
                         "--poles", "8,16", "--h", "0.05", "--probe", "0.5,3,-0.5,0.5",
                         "--out", str(tmp_path)]) == 0
        payload = json.load(open(tmp_path / "ratio.json"))
        pts = greenratio.probe_lattice(geometry.WindowBox((0.5, -0.5), (3.0, 0.5)))
        inside = geometry.SectorMinusSlit().contains(pts)
        assert (inside.sum(), len(pts)) == (418, 425)
        fld = fields.slit_sector_martin()
        exact = fld.value(pts[inside]) / fld.value(np.array([2.0, 0.0]))
        rel = np.abs(np.array(payload["probe_values"])[inside] - exact) / exact
        assert payload["closed_form"] == {"field": "slit_sector", "max_rel_error": rel.max()}

    def test_profile_domain_config(self, tmp_path):
        cfg = write_config(tmp_path, "profile.json", {
            "domain": {"kind": "profile", "f": "sqrt"}, "x0": [1.0, 0.0],
            "poles": [2.0, 3.0], "h": 0.05, "probe": [0.5, 1.5, -0.5, 0.5]})
        assert cli.main(["green", "--config", cfg, "--out", str(tmp_path)]) == 0
        payload = json.load(open(tmp_path / "ratio.json"))
        assert payload["domain"] == {"kind": "profile", "f": "sqrt",
                                     "D": {"vertices": [[-1.0], [1.0]]}}
        assert len(payload["cauchy"]) == 1
        assert "closed_form" not in payload

    def profile_run(self, tmp_path, sub, domain):
        cfg = write_config(tmp_path, f"{sub}.json", {"domain": domain, "x0": [1, 0],
                                                     "poles": [4, 8], "h": 0.05,
                                                     "probe": [0.5, 1.5]})
        assert cli.main(["green", "--config", cfg, "--out", str(tmp_path / sub)]) == 0
        return json.load(open(tmp_path / sub / "ratio.json"))

    def test_profile_reports_name_their_profile(self, tmp_path):
        # h, x0 and poles agree; the domain entry tells the runs apart
        reports = [self.profile_run(tmp_path, f, {"kind": "profile", "f": f})
                   for f in ("sqrt", "log1p")]
        assert [r["domain"]["f"] for r in reports] == ["sqrt", "log1p"]
        for key in ("h", "x0", "poles"):
            assert reports[0][key] == reports[1][key]
        for r in reports:
            assert geometry.domain_from_config(r["domain"]).declaration == r["domain"]

    def test_a_closed_form_is_the_oracle_of_its_declaration_only(self, tmp_path, monkeypatch):
        sqrt = {"kind": "profile", "f": "sqrt"}
        key = fields.declaration_key(geometry.domain_from_config(sqrt).declaration)
        monkeypatch.setitem(fields.CLOSED_FORMS, key, "strip")
        assert self.profile_run(tmp_path, "sqrt", sqrt)["closed_form"]["field"] == "strip"
        for sub, domain in (("log1p", {**sqrt, "f": "log1p"}),
                            ("wide", {**sqrt, "D": {"vertices": [[-1], [2]]}})):
            assert "closed_form" not in self.profile_run(tmp_path, sub, domain)

    def test_a_run_builds_only_its_closed_form(self, tmp_path, monkeypatch):
        # a scan of the registry built every field for a domain without one
        built = []
        for name, make in list(fields.FIELDS.items()):
            monkeypatch.setitem(fields.FIELDS, name,
                                lambda *a, make=make, name=name: built.append(name) or make(*a))
        self.profile_run(tmp_path, "sqrt", {"kind": "profile", "f": "sqrt"})
        assert built == []
        assert cli.main(["green", "--domain", "strip", "--x0", "0.5,0", "--poles", "2,3",
                         "--h", "0.0628", "--probe", "0.4,1.5,-1,1",
                         "--out", str(tmp_path / "strip")]) == 0
        assert built == ["strip"]

    def test_profile_two_value_probe_stays_inside(self, tmp_path):
        # the probe half-height follows the narrowest slice over [0.5, 1.5]
        cfg = write_config(tmp_path, "profile.json", {
            "domain": {"kind": "profile", "f": "sqrt"}, "x0": [1.0, 0.0],
            "poles": [2.0, 3.0], "h": 0.05})
        assert cli.main(["green", "--config", cfg, "--probe", "0.5,1.5",
                         "--out", str(tmp_path)]) == 0
        payload = json.load(open(tmp_path / "ratio.json"))
        (_, y0), (_, y1) = payload["probe_window"]
        assert y1 == -y0 == pytest.approx(0.8 * math.sqrt(0.5))
        assert min(payload["probe_values"]) > 0.0

    @pytest.mark.parametrize("probe, half", [("1.5,3", 3.2), ("0.5,1.5", None)])
    def test_exterior_two_value_probe_reads_the_axis_interval(self, tmp_path, capsys,
                                                              probe, half):
        # past the disk the axis interval is unbounded, so the pole's cap
        # holds; a slice at t < 1 does not reach the axis
        argv = ["green", "--domain", "halfplane_minus_disk", "--x0", "2,0", "--poles", "4",
                "--h", "0.1", "--probe", probe, "--out", str(tmp_path)]
        assert cli.main(argv) == (0 if half else 2)
        if half:
            (_, y0), (_, y1) = json.load(open(tmp_path / "ratio.json"))["probe_window"]
            assert y1 == -y0 == pytest.approx(half)
        else:
            assert ("probe points leave the domain: the slice at t = 0.5 does not reach "
                    "the axis y = 0") in capsys.readouterr().err

    def test_two_level_report(self, tmp_path):
        # pole 3 lies within the margin of W = [0, 3.5] x [-pi/2, pi/2], pole 6 does not
        argv = ["green", "--domain", "strip", "--x0", "0.5,0", "--poles", "3,6",
                "--h", "0.0314", "--probe", "0.4,1.5,-1,1"]
        reports = []
        for sub in ("a", "b"):
            assert cli.main(argv + ["--out", str(tmp_path / sub)]) == 0
            reports.append((tmp_path / sub / "ratio.json").read_bytes())
        assert reports[0] == reports[1]
        near, far = json.loads(reports[0])["iterates"]
        assert [(lv["window"], lv["h"]) for lv in near["levels"]] == [
            ([[0.0, -math.pi / 2], [6.0, math.pi / 2]], 0.0314)]
        coarse, fine = far["levels"]
        assert coarse["window"] == [[0.0, -math.pi / 2], [12.0, math.pi / 2]]
        assert coarse["h"] == 6 / greenratio.COARSE_STEPS
        assert coarse["interior_nodes"] > 0
        assert fine["window"] == [[0.0, -math.pi / 2], [3.5, math.pi / 2]]
        assert fine["h"] == 0.0314
        assert coarse["cg_iterations"] == fine["cg_iterations"] == 1
        assert 0.0 < coarse["cg_residual"] <= 1e-12
        # the exterior: pole 16 lies past the margin of W = [0, 5] x [-3, 3],
        # and H = 16 / 160 = 0.1 exceeds h, so its coarse level nests W
        argv = ["green", "--domain", "halfplane_minus_disk", "--x0", "2,0", "--poles", "8,16",
                "--h", "0.05", "--probe", "1.5,3,-1,1", "--out", str(tmp_path / "exterior")]
        assert cli.main(argv) == 0
        near, far = json.load(open(tmp_path / "exterior" / "ratio.json"))["iterates"]
        assert [(lv["window"], lv["h"]) for lv in near["levels"]] == [
            ([[0.0, -8.0], [16.0, 8.0]], 0.05)]
        assert [(lv["window"], lv["h"]) for lv in far["levels"]] == [
            ([[0.0, -16.0], [32.0, 16.0]], 0.1), ([[0.0, -3.0], [5.0, 3.0]], 0.05)]
        assert far["levels"][0]["interior_nodes"] > far["levels"][1]["interior_nodes"] > 0
        for lv in near["levels"] + far["levels"]:
            assert lv["cg_iterations"] > 1 and 0.0 < lv["cg_residual"] <= 1e-12

    def test_config_number_lists(self, tmp_path, capsys):
        # lists, comma-separated strings and single numbers parse alike
        base = {"domain": "strip", "h": 0.0628, "probe": "0.4,1.5,-1,1"}
        reports = []
        for sub, extra in (("a", {"x0": [0.5, 0], "poles": [3]}),
                           ("b", {"x0": "0.5,0", "poles": 3})):
            cfg = write_config(tmp_path, f"{sub}.json", {**base, **extra})
            assert cli.main(["green", "--config", cfg, "--out", str(tmp_path / sub)]) == 0
            reports.append((tmp_path / sub / "ratio.json").read_bytes())
        assert reports[0] == reports[1]
        cfg = write_config(tmp_path, "c.json", {**base, "x0": [0.5, 0], "poles": [2, "x"]})
        assert cli.main(["green", "--config", cfg, "--out", str(tmp_path / "c")]) == 2
        assert capsys.readouterr().err.startswith("config error: cannot parse poles")


@pytest.mark.parametrize("name", ["cylinder:C=1", "cylinder:A=abc", "cylinder:A",
                                  "cylinder:B=inf"],
                         ids=["unknown-key", "unparsable", "no-value", "not-finite"])
@pytest.mark.parametrize("command", ["levelsets", "audit"])
def test_malformed_cylinder_name_is_a_usage_error(tmp_path, capsys, command, name):
    cfg = write_config(tmp_path, "bad.json", {**STRIP_LEVELS, "field": name,
                                              "checks": ["boundary_vanishing"]})
    assert cli.main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and name.partition(":")[2] in err


@pytest.mark.parametrize("command", ["levelsets", "audit"])
def test_non_string_field_name_is_a_usage_error(tmp_path, capsys, command):
    cfg = write_config(tmp_path, "bad.json", {**STRIP_LEVELS, "field": 5,
                                              "checks": ["boundary_vanishing"]})
    assert cli.main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: config 'field' must be a string, got 5")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, config", [
    (["levelsets"], {**STRIP_LEVELS, "h": "abc"}),
    (["levelsets"], {**STRIP_LEVELS, "seed": "x"}),
    (["levelsets"], {**STRIP_LEVELS, "window": [["a", -1], [3, 1]]}),
    (["levelsets"], {**STRIP_LEVELS, "window": {"lower": [0, -1], "upper": [3, 1]}}),
    (["levelsets"], {**STRIP_LEVELS, "window": [[0, -math.inf], [3, 1]]}),
    (["green", "--domain", "strip", "--x0", "0.5,0", "--poles", "2,3",
      "--probe", "0.4,1.5,-1,1", "--h", "abc"], None),
    (["asymptotics", "--radii", "5:80:x"], None),
    (["slice-scan", "--field", "strip", "--t", "1", "--span", "abc"], None),
    (["green", "--domain", "strip", "--x0", "0.5,0", "--poles", "2,3", "--h", "0.0628"],
     {"probe": ["a", 1.5, -1, 1]}),
    # a JSON boolean is not a number: float(true) would read it as 1
    (["levelsets"], {**STRIP_LEVELS, "h": True}),
    (["levelsets"], {**STRIP_LEVELS, "levels": [True, 2]}),
    (["levelsets"], {**STRIP_LEVELS, "window": [[0, -1], [3, True]]}),
    (["audit"], {"field": "strip", "checks": ["boundary_vanishing"], "seed": False}),
], ids=["levelsets-h", "levelsets-seed", "levelsets-window", "levelsets-window-mapping",
        "levelsets-window-infinite",
        "green-h", "asymptotics-radii", "slice-scan-span",
        "green-config-probe", "levelsets-h-boolean", "levelsets-levels-boolean",
        "levelsets-window-boolean", "audit-seed-boolean"])
def test_malformed_number_is_a_usage_error(tmp_path, capsys, argv, config):
    if config is not None:
        argv = argv + ["--config", write_config(tmp_path, "bad.json", config)]
    assert cli.main(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(("config error: cannot parse", "config error: bad window"))
    assert "Traceback" not in err


@pytest.mark.parametrize("D, rc", [({"vertices": [[-1], [1]]}, 0),
                                   ({"vertices": [[-0.8], [2]]}, 0), ({"ngon": 6}, 2),
                                   ({"vertices": [[-1, 0], [1, 0]]}, 2),
                                   ({"vertices": [[1], [2]]}, 2),
                                   ({"vertices": [[-1], [True]]}, 2)],
                         ids=["documented", "asymmetric", "ngon", "planar", "origin-outside",
                              "boolean-bound"])
def test_profile_cross_section_config(tmp_path, capsys, D, rc):
    cfg = write_config(tmp_path, "profile.json", {
        "domain": {"kind": "profile", "f": "sqrt", "D": D}, "x0": [1.0, 0.0],
        "poles": [2.0, 3.0], "h": 0.05, "probe": [0.5, 1.5, -0.5, 0.5]})
    assert cli.main(["green", "--config", cfg, "--out", str(tmp_path)]) == rc
    if rc:
        assert capsys.readouterr().err.startswith("config error:")


SMALL_SQUARE = {"vertices": [[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]]}


@pytest.mark.parametrize("domain, named", [
    ({"kind": "convex_ring", "A": {"ngon": "x"}, "B": SMALL_SQUARE}, "'A': cannot parse 'ngon'"),
    ({"kind": "convex_ring", "A": {"ngon": math.inf}, "B": SMALL_SQUARE},
     "'A': cannot parse 'ngon' inf"),
    ({"kind": "convex_ring", "A": {"ngon": 8.5}, "B": SMALL_SQUARE},
     "'A': cannot parse 'ngon' 8.5"),
    ({"kind": "convex_ring", "A": {"ngon": 8, "radius": "big"}, "B": SMALL_SQUARE},
     "'A': cannot parse 'radius'"),
    ({"kind": "convex_ring", "A": {"vertices": [["a", 0], [1, 0], [0, 1]]}, "B": SMALL_SQUARE},
     "'A': cannot parse 'vertices'"),
    ({"kind": "convex_ring", "A": {"vertices": [[-2, -2], [2, -2], [2, 2], [-2, True]]},
      "B": SMALL_SQUARE}, "'A': cannot parse 'vertices'"),
    ({"kind": "convex_ring", "A": 5, "B": SMALL_SQUARE}, "ring body 'A'"),
    (5, "domain must be a kind name or a mapping"),
    ({"kind": "convex_ring", "A": {"ngon": 8, "radious": 2.0}, "B": SMALL_SQUARE},
     "ring body 'A': ngon-form key 'radious' is unknown; known: ['ngon', 'radius']"),
    ({"kind": "sector", "f": "sqrt"}, "domain kind 'sector' key 'f' is unknown; known: ['kind']"),
], ids=["ngon", "infinite-ngon", "fractional-ngon", "radius", "vertices", "boolean-vertex",
        "body-not-a-mapping", "domain-not-a-mapping",
        "unknown-body-key", "unknown-domain-key"])
def test_malformed_domain_config_is_a_usage_error(tmp_path, capsys, domain, named):
    cfg = write_config(tmp_path, "bad.json", {"domain": domain, "h": 0.1})
    assert cli.main(["green", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and named in err
    assert "Traceback" not in err


def test_certify_runs_load_no_numpy_ma(tmp_path):
    # numpy.ma costs milliseconds per process to import; the hull, the hull
    # deviation and the marching squares stay off the numpy paths that load it
    strip_audit = write_config(tmp_path, "audit.json", {"field": "strip", "checks": [
        "harmonicity", "boundary_vanishing", {"name": "convexity", "params": {"h": 0.02}},
        {"name": "strictness", "params": {"h": 0.02}}, "slice_maxima"]})
    ring = write_config(tmp_path, "ring.json", {
        "domain": {"kind": "convex_ring",
                   "A": {"vertices": [[-2, -2], [2, -2], [2, 2], [-2, 2]]},
                   "B": {"vertices": [[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]]}},
        "h": 0.05})
    for argv in (["audit", "--config", strip_audit], ["green", "--config", ring]):
        code = (f"import sys; from martinlevels import cli; "
                f"rc = cli.main({argv + ['--out', str(tmp_path)]!r}); "
                f"print(rc, 'numpy.ma' in sys.modules)")
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert res.returncode == 0, res.stderr
        assert res.stdout.split() == ["0", "False"], (argv, res.stdout)


def test_cli_import_loads_no_scipy():
    # scipy is a test-only extra: the runtime, the solver included, is numpy only
    code = ("import sys, martinlevels.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


class TestSliceScanAndAsymptotics:
    def test_slice_scan_output(self, tmp_path):
        code = cli.main(["slice-scan", "--field", "strip", "--t", "1,2,5",
                         "--out", str(tmp_path)])
        assert code == 0
        payload = json.load(open(tmp_path / "slices.json"))
        assert set(payload["slices"]) == {"1", "2", "5"}
        one = payload["slices"]["1"]
        assert one["argmax"][1] == pytest.approx(0.0, abs=1e-6)
        assert all(r["decreasing"] for r in one["rays"])

    def test_an_overflowing_slice_exits_1_and_writes_no_report(self, tmp_path, capsys):
        argv = ["slice-scan", "--field", "strip", "--t", "1,800", "--out", str(tmp_path)]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == "error: field 'strip' is not finite on the slice at t = 800\n"
        assert not (tmp_path / "slices.json").exists()

    def test_asymptotics_output(self, tmp_path):
        code = cli.main(["asymptotics", "--check", "f-decay,hess-residual",
                         "--radii", "5:80:12", "--out", str(tmp_path)])
        assert code == 0
        payload = json.load(open(tmp_path / "decay.json"))
        assert payload["f-decay"]["fprime_slope"] == pytest.approx(-3.0, abs=0.1)
        assert payload["f-decay"]["fsecond_slope"] == pytest.approx(-4.0, abs=0.1)
        assert payload["hess-residual"]["slope"] <= -1.9

    @pytest.mark.parametrize("radii, code", [("1.0000001:80:12", 0), ("2:0.5:12", 2)])
    def test_radii_bounds_lie_past_the_slit_tip(self, tmp_path, capsys, radii, code):
        assert cli.main(["asymptotics", "--radii", radii, "--out", str(tmp_path)]) == code
        err = capsys.readouterr().err
        assert ("--radii" in err) == bool(code) and "Traceback" not in err

    def test_asymptotics_bytes_deterministic(self, tmp_path):
        reports = []
        for sub in ("a", "b"):
            assert cli.main(["asymptotics", "--out", str(tmp_path / sub)]) == 0
            reports.append((tmp_path / sub / "decay.json").read_bytes())
        assert reports[0] == reports[1]
        payload = json.loads(reports[0])
        assert set(payload) == {"f-decay", "hess-residual"}
        assert payload["hess-residual"]["largest_nonnegative_radius"] == pytest.approx(
            3.0 ** 0.25, abs=2e-2)

    def test_unknown_asymptotics_check(self, tmp_path):
        assert cli.main(["asymptotics", "--check", "wat", "--out", str(tmp_path)]) == 2

    def test_asymptotics_checks_are_named_before_any_fit(self, tmp_path, capsys, monkeypatch):
        def no_fit(*args):
            raise AssertionError("a fit ran")

        monkeypatch.setattr(slices, "decay_fit", no_fit)
        argv = ["asymptotics", "--check", "f-decay,bogus", "--out", str(tmp_path)]
        assert cli.main(argv) == 2
        assert "unknown asymptotics check 'bogus'" in capsys.readouterr().err
        assert not (tmp_path / "decay.json").exists()

    def test_f_decay_slopes_match_closed_form_magnitudes(self, tmp_path):
        def fprime_mag(r):
            z = complex(r)
            w = np.sqrt(z ** 4 - 1.0)
            return abs(2.0 * z - 2.0 * z ** 3 / w)

        def fsecond_mag(r):
            z = complex(r)
            w = np.sqrt(z ** 4 - 1.0)
            return abs(2.0 - 6.0 * z ** 2 / w + 4.0 * z ** 6 / w ** 3)

        assert cli.main(["asymptotics", "--check", "f-decay", "--out", str(tmp_path)]) == 0
        got = json.load(open(tmp_path / "decay.json"))["f-decay"]
        radii = np.geomspace(5.0, 80.0, 12)
        assert got["fprime_slope"] == pytest.approx(slices.decay_fit(fprime_mag, radii).slope,
                                                    rel=0.0, abs=1e-12)
        assert got["fsecond_slope"] == pytest.approx(slices.decay_fit(fsecond_mag, radii).slope,
                                                     rel=0.0, abs=1e-12)

    def test_slice_without_the_axis_point_has_null_center(self, tmp_path):
        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        argv = ["slice-scan", "--field", "exterior", "--t", "0.5", "--span", "2"]
        assert cli.main(argv + ["--out", str(tmp_path / "e")]) == 0
        exterior = json.loads((tmp_path / "e" / "slices.json").read_text(), parse_constant=reject)
        assert exterior["slices"]["0.5"]["center"] is None
        assert cli.main(["slice-scan", "--field", "strip", "--t", "1",
                         "--out", str(tmp_path / "s")]) == 0
        strip = json.loads((tmp_path / "s" / "slices.json").read_text(), parse_constant=reject)
        assert strip["slices"]["1"]["center"] == fields.strip_martin().value(np.array([1.0, 0.0]))


@pytest.mark.parametrize("argv", [
    ["--verbose", "levelsets", "--config", "cfg.json"],
    ["slice-scan", "--field", "strip", "--t", "1", "--config", "cfg.json"],
    ["slice-scan", "--field", "strip", "--t", "1", "--seed", "3"],
    ["slice-scan", "--field", "strip", "--t", "1", "--verbose"],
    ["asymptotics", "--config", "cfg.json"],
    ["asymptotics", "--seed", "3"],
    ["asymptotics", "--verbose"],
    ["green", "--domain", "strip", "--ratio-out", "x"],
    ["slice-scan", "--field", "strip", "--t", "1", "--out-file", "x.json"],
    ["asymptotics", "--out-file", "x.json"],
], ids=["top-level-verbose", "slice-scan-config", "slice-scan-seed", "slice-scan-verbose",
        "asymptotics-config", "asymptotics-seed", "asymptotics-verbose", "green-ratio-out",
        "slice-scan-out-file", "asymptotics-out-file"])
def test_flag_the_command_does_not_read_is_rejected(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_subcommand_verbose_prints(tmp_path, capsys):
    cfg = write_config(tmp_path, "levels.json", STRIP_LEVELS)
    assert cli.main(["levelsets", "--verbose", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.startswith("levelsets: 4 curves")


@pytest.mark.parametrize("h", [0, -0.1], ids=["zero", "negative"])
def test_nonpositive_levelsets_spacing_is_a_usage_error(tmp_path, capsys, h):
    cfg = write_config(tmp_path, "levels.json", {**STRIP_LEVELS, "h": h})
    assert cli.main(["levelsets", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "must be positive" in err and "Traceback" not in err


@pytest.mark.parametrize("value", ["false", 0], ids=["expected-false", "expected-0"])
def test_audit_flags_must_be_json_booleans(tmp_path, capsys, value):
    # the string "false" is truthy: read with bool() it flipped the verdict
    cfg = write_config(tmp_path, "audit.json", {
        "field": "exterior", "checks": [{"name": "convexity", "expected": value}]})
    assert cli.main(["audit", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "'expected' must be true or false" in err and "Traceback" not in err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("params", [3, [1.0], "levels"])
def test_audit_params_must_be_a_json_object(tmp_path, capsys, params):
    cfg = write_config(tmp_path, "audit.json", {
        "field": "strip", "checks": ["strictness", {"name": "convexity", "params": params}]})
    assert cli.main(["audit", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "'params' must be a JSON object" in err and "Traceback" not in err
    assert not (tmp_path / "report.json").exists()


def test_audit_check_that_raised_is_never_ok(tmp_path):
    # a negative control that fails by raising has not shown what it controls
    # (the exterior's slice at t = 2 is unbounded: a scan without a span raises)
    cfg = write_config(tmp_path, "audit.json", {
        "field": "exterior", "checks": [{"name": "slice_maxima", "expected": False,
                                         "params": {"t": [2.0]}}]})
    assert cli.main(["audit", "--config", cfg, "--out", str(tmp_path)]) == 1
    verdict = json.load(open(tmp_path / "report.json"))["verdicts"]["slice_maxima"]
    assert verdict["passed"] is False and verdict["expected"] is False
    assert verdict["ok"] is False and verdict["error"].startswith("GeometryError")


def test_unparsable_negative_control_does_not_pass(tmp_path, capsys):
    cfg = write_config(tmp_path, "audit.json", {
        "field": "exterior",
        "checks": [{"name": "convexity", "expected": False,
                    "params": {"levels": [1.5], "h": "abc"}},
                   {"name": "slice_maxima", "expected": False, "params": {"t": ["two"]}}]})
    assert cli.main(["audit", "--config", cfg, "--out", str(tmp_path)]) == 2
    assert "check 'convexity' param 'h'" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("check, params, message", [
    ("convexity", {"hh": 0.05}, "param 'hh' is unknown"),
    ("harmonicity", {"h": 0.05}, "param 'h' is unknown"),
    ("convexity", {"h": "nan"}, "param 'h' 'nan' is not finite"),
    ("convexity", {"levels": [1.0, "x"]}, "cannot parse check 'convexity' param 'levels'"),
    ("harmonicity", {"n_points": "many"}, "cannot parse check 'harmonicity' param 'n_points'"),
    ("harmonicity", {"n_points": math.inf}, "cannot parse check 'harmonicity' param 'n_points'"),
    ("boundary_vanishing", {"tol": [1e-8]}, "cannot parse check 'boundary_vanishing' param 'tol'"),
    ("slice_maxima", {"span": "wide"}, "cannot parse check 'slice_maxima' param 'span'"),
    ("strictness", {"expect_tag": "strictly_convex_everywhere"},
     "check 'strictness' param 'expect_tag' is unknown"),
    ("slice_maxima", {"span": -1.0}, "check 'slice_maxima' param 'span' must be > 0"),
    ("slice_maxima", {"t": [2.0], "span": 0}, "check 'slice_maxima' param 'span' must be > 0"),
    # no sample point would leave every residual at 0, inside any floor
    ("harmonicity", {"n_points": 0}, "check 'harmonicity' param 'n_points' must be > 0"),
    ("harmonicity", {"n_points": -3}, "check 'harmonicity' param 'n_points' must be > 0"),
    ("boundary_vanishing", {"n_samples": 0},
     "check 'boundary_vanishing' param 'n_samples' must be > 1"),
    ("boundary_vanishing", {"n_samples": 1},
     "check 'boundary_vanishing' param 'n_samples' must be > 1"),
    # an audit with no level certifies nothing
    ("convexity", {"levels": []}, "check 'convexity' param 'levels' must not be empty"),
    ("strictness", {"levels": []}, "check 'strictness' param 'levels' must not be empty"),
    ("slice_maxima", {"t": []}, "check 'slice_maxima' param 't' must not be empty"),
    ("harmonicity", {"n_points": 2.5}, "cannot parse check 'harmonicity' param 'n_points'"),
    ("harmonicity", {"n_points": True}, "cannot parse check 'harmonicity' param 'n_points' True"),
    ("convexity", {"h": -1}, "check 'convexity' param 'h' must be > 0"),
    ("convexity", {"h": 0}, "check 'convexity' param 'h' must be > 0"),
    ("convexity", {"levels": [-1]}, "check 'convexity' param 'levels' must be > 0"),
    ("strictness", {"h": 0}, "check 'strictness' param 'h' must be > 0"),
    ("strictness", {"levels": [1.0, 0]}, "check 'strictness' param 'levels' must be > 0"),
], ids=["typo", "other-check-key", "nan", "level", "count", "infinite-count", "list-tol",
        "span", "tag", "negative-span", "zero-span", "no-points", "negative-points",
        "no-samples", "one-sample", "no-levels", "no-strictness-levels", "no-t",
        "fractional-count", "boolean-count", "negative-h", "zero-h", "negative-level",
        "zero-strictness-h", "zero-strictness-level"])
def test_audit_params_parse_before_any_check_runs(tmp_path, capsys, check, params, message):
    # the valid first check must not run either: no report is written
    cfg = write_config(tmp_path, "audit.json", {
        "field": "strip", "checks": ["boundary_vanishing", {"name": check, "params": params}]})
    assert cli.main(["audit", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err and "Traceback" not in err
    assert not (tmp_path / "report.json").exists()


def _registered_kinds():
    """Domain kinds of the config table; every Domain subclass but the
    zoomed profile view must have its kind there."""
    classes, kinds = [geometry.Domain], set(geometry._DOMAIN_KEYS)
    while classes:
        cls = classes.pop()
        classes.extend(cls.__subclasses__())
        assert cls.kind in kinds | {None, "rescaled_profile"}, f"{cls.__name__} not in the table"
    return kinds


GREEN_DOMAINS = ["strip", "sector", "sector_minus_slit", "halfplane_minus_disk",
                 "right_halfplane", "cylinder",
                 {"kind": "convex_ring", "A": {"ngon": 8, "radius": 2.0},
                  "B": {"ngon": 8, "radius": 0.5}},
                 {"kind": "profile", "f": "sqrt"}]


def _kind(domain):
    return domain["kind"] if isinstance(domain, dict) else domain


def test_green_domains_cover_every_registered_kind():
    assert {_kind(d) for d in GREEN_DOMAINS} == _registered_kinds()
    for d in GREEN_DOMAINS:
        assert geometry.domain_from_config(d).kind == _kind(d)


#: kinds with a wall that is a rounded function of the point (a circle, a
#: polygon edge, a profile), which can pass between two adjacent floats
ROUNDED_WALLS = {"halfplane_minus_disk", "convex_ring", "profile", "rescaled_profile"}


@pytest.mark.parametrize("kind", sorted(_registered_kinds()) + ["rescaled_profile"])
@pytest.mark.parametrize("window", [((-2.5, -2.5), (3.0, 2.5)), ((-1.0, -3.0), (5.0, 2.2))],
                         ids=["symmetric", "asymmetric"])
def test_boundary_samples_lie_on_the_boundary(kind, window):
    # x = 0 lies between lattice lines, and y = 0 too in the asymmetric window
    if kind == "rescaled_profile":
        domain = geometry.rescaled_domain(geometry.domain_from_config(GREEN_DOMAINS[-1]), 4.0)
    else:
        domain = geometry.domain_from_config(next(d for d in GREEN_DOMAINS if _kind(d) == kind))
    for n in (50, 200):
        pts = domain.boundary_points(geometry.WindowBox(*window), n)
        assert len(pts) > 0 and not np.any(domain.contains(pts))
        off = pts[~domain.contains_closure(pts)]
        assert len(off) == 0 or kind in ROUNDED_WALLS
        # where no float lies on a rounded wall, the sample is one float
        # step along a lattice line from the open set
        steps = [domain.contains(np.nextafter(off, off + d))
                 for d in np.concatenate([np.eye(2), -np.eye(2)])]
        assert np.all(np.any(steps, axis=0))


#: the kinds that green rejects with the config below, each by its message:
#: the cylinder has no axial truncation rule, no slice of the exterior at
#: t < 1 reaches the axis, so no probe half-height keeps off the disk, and a
#: ring run takes no poles
GREEN_REJECTS = {"cylinder": "has no axial truncation rule",
                 "halfplane_minus_disk": "probe points leave the domain",
                 "convex_ring": "config key 'poles' is unknown"}


@pytest.mark.parametrize("domain", GREEN_DOMAINS, ids=_kind)
def test_green_runs_or_rejects_every_domain_kind(tmp_path, domain):
    # each other kind runs through green, with the two-value probe that
    # reads the domain's slices
    cfg = write_config(tmp_path, "green.json", {"domain": domain, "x0": [1.5, 0.0],
                                                "poles": [2, 3], "h": 0.1, "probe": [0.5, 1.5]})
    res = subprocess.run([sys.executable, "-m", "martinlevels.cli", "green", "--config", cfg,
                          "--out", str(tmp_path / "out")], capture_output=True, text=True)
    rejected = GREEN_REJECTS.get(_kind(domain))
    assert res.returncode == (2 if rejected else 0), res.stderr
    assert "Traceback" not in res.stderr
    assert res.stderr.startswith("config error: ") == bool(rejected)
    assert rejected is None or rejected in res.stderr
    if rejected is None:
        # each pole's first level is its truncation window, its last the run's h
        dom = geometry.domain_from_config(domain)
        for it in json.load(open(tmp_path / "out" / "ratio.json"))["iterates"]:
            w = dom.truncation_window(it["pole"])
            assert it["levels"][0]["window"] == [list(w.lower), list(w.upper)]
            assert it["levels"][-1]["h"] == 0.1


BLAS_RUNS = {
    "ring.json": {"domain": {"kind": "convex_ring",
                             "A": {"vertices": [[-2, -2], [2, -2], [2, 2], [-2, 2]]},
                             "B": {"vertices": [[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5],
                                                [-0.5, 0.5]]}},
                  "h": 0.01, "levels": [0.25, 0.5, 0.75]},
    "ratio.json": {"domain": "strip", "x0": [0.5, 0.0], "poles": [4, 6, 8], "h": math.pi / 200,
                   "probe": [0.5, 2.0, -1.0, 1.0]},
}


@pytest.mark.parametrize("report", BLAS_RUNS)
def test_green_reports_do_not_depend_on_the_blas_thread_count(tmp_path, report):
    # threaded OpenBLAS sums a dot product in an order set by its thread count:
    # with np.vdot the ring took 17 CG iterations on one thread and 18 on two
    cfg = write_config(tmp_path, "green.json", BLAS_RUNS[report])
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        res = subprocess.run([sys.executable, "-m", "martinlevels.cli", "green", "--config", cfg,
                              "--out", str(out)], capture_output=True, text=True,
                             env=dict(os.environ, OPENBLAS_NUM_THREADS=threads))
        assert res.returncode == 0, res.stderr
        reports.append((out / report).read_bytes())
    assert reports[0] == reports[1]


SMALL_RING = {"domain": {"kind": "convex_ring", "A": {"ngon": 8, "radius": 2.0},
                         "B": {"ngon": 8, "radius": 0.5}}, "h": 0.1}


def test_ring_run_computes_the_inner_body_mask_once(tmp_path, monkeypatch):
    calls = []
    inner_body_nodes = greenratio.inner_body_nodes
    monkeypatch.setattr(greenratio, "inner_body_nodes",
                        lambda grid: calls.append(grid) or inner_body_nodes(grid))
    cfg = write_config(tmp_path, "ring.json", SMALL_RING)
    assert cli.main(["green", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert len(calls) == 1


#: the benchmark's ring run (perfbench RING_CONFIG), at h = 0.01
RING_RUN = BLAS_RUNS["ring.json"]


@pytest.mark.parametrize("h", [0.01, 0.05])
def test_ring_value_range_equals_the_copied_interior_values(tmp_path, h):
    # the verdict statistics read the solution in place; a report written
    # with the range of a copy of the interior values has the same bytes
    cfg = write_config(tmp_path, "ring.json", {**RING_RUN, "h": h})
    assert cli.main(["green", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
    payload = json.loads((tmp_path / "run" / "ring.json").read_bytes())
    ring = geometry.domain_from_config(RING_RUN["domain"])
    lo, hi = ring.outer.vertices.min(axis=0), ring.outer.vertices.max(axis=0)
    grid = greenratio.build_grid(ring, geometry.WindowBox(tuple(lo), tuple(hi)), h)
    vals = greenratio.solve_dirichlet(grid, greenratio.ring_dirichlet_data(grid)).values
    copied = vals[grid.interior]
    umin, umax = float(copied.min()), float(copied.max())
    payload.update(value_range=[umin, umax], max_principle=umin >= 0.0 and umax <= 1.0)
    export.write_json(str(tmp_path / "copied.json"), payload)
    assert (tmp_path / "copied.json").read_bytes() == (tmp_path / "run" / "ring.json").read_bytes()


def test_ring_verdicts_copy_no_grid_array(tmp_path, monkeypatch):
    # from the solve's return to the report, the statistics, clouds and
    # certificates add less than three quarters of a float grid array to
    # what is held at the return (the superlevel masks take about half of
    # one; a copy of the interior values took them to 1.4)
    peaks = {}
    solve, write_json = greenratio.solve_dirichlet, export.write_json

    def traced_solve(grid, data):
        sol = solve(grid, data)
        peaks.update(returned=tracemalloc.get_traced_memory()[0], nodes=grid.interior.size)
        tracemalloc.reset_peak()
        return sol

    def traced_write(path, payload):
        peaks.setdefault("verdicts", tracemalloc.get_traced_memory()[1])
        return write_json(path, payload)

    monkeypatch.setattr(greenratio, "solve_dirichlet", traced_solve)
    monkeypatch.setattr(export, "write_json", traced_write)
    cfg = write_config(tmp_path, "ring.json", RING_RUN)
    tracemalloc.start()
    try:
        assert cli.main(["green", "--config", cfg, "--out", str(tmp_path)]) == 0
    finally:
        tracemalloc.stop()
    assert peaks["nodes"] == 401 * 401
    assert peaks["verdicts"] <= peaks["returned"] + 6 * peaks["nodes"]


def test_ring_solver_error_names_its_stage(tmp_path, capsys, monkeypatch):
    def failing_cg(*args, **kwargs):
        raise greenratio.SolverError("iteration cap")

    monkeypatch.setattr(greenratio, "_cg", failing_cg)
    cfg = write_config(tmp_path, "ring.json", SMALL_RING)
    assert cli.main(["green", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == "error: ring solve (h = 0.1): iteration cap\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv, config, nodes", [
    (["green", "--domain", "strip", "--x0", "0.5,0", "--poles", "4,6", "--h", "1e-5",
      "--probe", "0.5,1.5,-0.5,0.5"], None, "800001 x 314161 nodes needs 5.85e+03 GiB"),
    (["levelsets"], {"field": "strip", "levels": [1], "h": 1e-6},
     "3000001 x 3141595 nodes needs 7.9e+04 GiB"),
], ids=["green", "levelsets"])
def test_lattice_over_physical_memory_is_a_usage_error(tmp_path, capsys, monkeypatch, argv,
                                                       config, nodes):
    # an 8 GiB machine; the node arrays would fail the run if they were allocated
    def no_node_arrays(*args):
        raise AssertionError("node arrays allocated")

    monkeypatch.setattr(geometry, "physical_memory", lambda: 8 * 2 ** 30)
    monkeypatch.setattr(greenratio, "lattice_mask", no_node_arrays)
    monkeypatch.setattr(levelset, "lattice_blocks", no_node_arrays)
    if config:
        argv = argv + ["--config", write_config(tmp_path, "cfg.json", config)]
    assert cli.main(argv + ["--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and nodes in err and "than the 8 GiB" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("levels, message", [
    ([1.5, -0.2, 0.5], "ring levels must lie in (0, 1)"),
    ([0.5, 1.0], "ring levels must lie in (0, 1)"),
    ([0.0], "ring levels must lie in (0, 1)"),
    ([], "levels must not be empty"),
], ids=["outside", "one", "zero", "none"])
def test_ring_levels_outside_the_unit_interval_are_usage_errors(tmp_path, capsys, levels,
                                                                message):
    cfg = write_config(tmp_path, "ring.json", {**SMALL_RING, "levels": levels})
    assert cli.main(["green", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flag, value", [("--x0", "1,0"), ("--poles", "2,3"),
                                         ("--probe", "0.5,1.5")])
def test_ratio_flags_on_a_ring_run_are_usage_errors(tmp_path, capsys, flag, value):
    cfg = write_config(tmp_path, "ring.json", SMALL_RING)
    assert cli.main(["green", "--config", cfg, flag, value, "--out", str(tmp_path / "o")]) == 2
    assert "a ring run takes no --x0, --poles or --probe" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [
    ["--domain", "strip", "--x0", "0.5,0", "--poles=-1,2", "--probe", "0.5,2"],
    ["--domain", "sector", "--x0", "1,0", "--poles=0,4", "--probe", "1.5,3"],
], ids=["strip", "sector"])
def test_bad_poles_are_named_before_a_two_value_probe_is_sized(tmp_path, capsys, argv):
    # the probe's half-height reads the first pole's truncation window, which
    # is empty for a pole <= 0
    assert cli.main(["green", *argv, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err == "config error: poles must be strictly increasing and positive\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv, config, code, message", [
    (["levelsets"], [1, 2], 2, "config error: config root must be a JSON object"),
    (["levelsets"], {"levels": [1], "h": 0.05}, 2,
     "config error: config needs a 'field' registry name"),
    (["levelsets"], {"field": "strip", "levels": [1000], "h": 0.05}, 1,
     "no level curve found in the window"),
    (["green", "--domain", "strip", "--x0", "0.5,0,1", "--poles", "2,3", "--probe", "0.5,2"],
     None, 2, "config error: green needs --x0 x,y, got [0.5, 0.0, 1.0]"),
    (["green", "--domain", "strip", "--x0", "0.5,0", "--poles", "2,3", "--probe", "0.5,2,1"],
     None, 2, "config error: --probe takes 2 or 4 comma-separated values"),
    (["green", "--x0", "0.5,0", "--poles", "2,3", "--probe", "0.5,2"], None, 2,
     "config error: green needs --domain or a config 'domain'"),
], ids=["config-root-not-an-object", "levelsets-without-field", "levelsets-no-curve",
        "green-three-value-x0", "green-three-value-probe", "green-without-domain"])
def test_exit_paths_write_no_report(tmp_path, capsys, argv, config, code, message):
    if config is not None:
        argv = argv + ["--config", write_config(tmp_path, "cfg.json", config)]
    assert cli.main(argv + ["--out", str(tmp_path / "o")]) == code
    assert capsys.readouterr().err == message + "\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv, config, named", [
    (["levelsets"], {**STRIP_LEVELS, "level": [1.0]}, "config key 'level' is unknown"),
    (["audit"], {"field": "strip", "checks": ["harmonicity"], "check": []},
     "config key 'check' is unknown; known: ['checks', 'field', 'out', 'seed']"),
    (["audit"], {"field": "strip", "checks": [{"name": "convexity", "param": {"h": 0.05}}]},
     "check 'convexity' key 'param' is unknown; "
     "known: ['expected', 'name', 'params']"),
    (["green"], {"domain": "strip", "x0": [0.5, 0], "poles": [2], "hh": 0.1},
     "config key 'hh' is unknown"),
    (["green"], {**SMALL_RING, "poles": [2]}, "config key 'poles' is unknown; "
     "known: ['domain', 'h', 'levels', 'out', 'seed']"),
    (["green"], {"domain": "strip", "x0": [0.5, 0], "poles": [2], "levels": [0.5]},
     "config key 'levels' is unknown"),
], ids=["levelsets", "audit", "audit-check", "green-ratio", "green-ring", "green-ratio-levels"])
def test_unknown_config_keys_are_usage_errors(tmp_path, capsys, argv, config, named):
    cfg = write_config(tmp_path, "cfg.json", {**config, "seed": 1, "out": "unused"})
    assert cli.main(argv + ["--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and named in err
    assert not (tmp_path / "o").exists()


#: every subcommand's option strings (from build_parser), every command's
#: known config keys and each audit check's params: a knob added or removed
#: is an edit here
KNOB_CENSUS = {
    "options": {
        "levelsets": ["--config", "--out", "--seed", "--verbose"],
        "audit": ["--config", "--out", "--seed", "--verbose"],
        "green": ["--config", "--domain", "--h", "--out", "--poles", "--probe", "--seed",
                  "--verbose", "--x0"],
        "slice-scan": ["--field", "--out", "--span", "--t"],
        "asymptotics": ["--check", "--out", "--radii"],
    },
    "config keys": {
        "levelsets": ["field", "h", "levels", "out", "seed", "window"],
        "audit": ["checks", "field", "out", "seed"],
        "audit check": ["expected", "name", "params"],
        "green ratio": ["domain", "h", "out", "poles", "probe", "seed", "x0"],
        "green ring": ["domain", "h", "levels", "out", "seed"],
    },
    "audit params": {
        "harmonicity": ["n_points"],
        "boundary_vanishing": ["n_samples", "tol"],
        "convexity": ["h", "levels"],
        "slice_maxima": ["span", "t"],
        "strictness": ["h", "levels"],
    },
}


def test_knob_census(tmp_path, capsys):
    def known_keys(command, config):
        # the unknown-key error lists the keys that the mapping may hold
        cfg = write_config(tmp_path, "knobs.json", config)
        assert cli.main([command, "--config", cfg, "--out", str(tmp_path)]) == 2
        return ast.literal_eval(capsys.readouterr().err.rpartition("known: ")[2])

    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    census = {
        "options": {name: sorted(s for a in sp._actions for s in a.option_strings
                                 if s not in ("-h", "--help"))
                    for name, sp in sub.choices.items()},
        "config keys": {
            "levelsets": known_keys("levelsets", {**STRIP_LEVELS, "zz": 0}),
            "audit": known_keys("audit", {"field": "strip", "checks": [], "zz": 0}),
            "audit check": known_keys("audit", {"field": "strip",
                                                "checks": [{"name": "convexity", "zz": 0}]}),
            "green ratio": known_keys("green", {"domain": "strip", "zz": 0}),
            "green ring": known_keys("green", {**SMALL_RING, "zz": 0}),
        },
        "audit params": {name: sorted(params) for name, (_, params) in cli.AUDIT_CHECKS.items()},
    }
    assert census == KNOB_CENSUS


README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def _readme_blocks(lang):
    with open(README) as f:
        return re.findall(rf"```{lang}\n(.*?)```", f.read(), re.S)


@pytest.mark.parametrize("command, key", [("levelsets", "window"), ("audit", "checks"),
                                          ("green", "domain")])
def test_readme_configs_run(tmp_path, command, key):
    # README shows one config of each command, told apart by a key only it holds
    (config,) = [c for c in map(json.loads, _readme_blocks("json")) if key in c]
    cfg = write_config(tmp_path, f"{command}.json", config)
    assert cli.main([command, "--config", cfg, "--out", str(tmp_path)]) == 0


def test_readme_quick_start_runs(capsys):
    (code,) = _readme_blocks("python")
    exec(compile(code, README, "exec"), {})
    assert capsys.readouterr().out.startswith("convex ")
