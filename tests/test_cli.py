import json
import math
import os
import subprocess
import sys
from itertools import chain

import numpy as np
import pytest

from martinlevels import cli, export, fields, levelset, slices
from martinlevels._rng import XorShift64Star


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
    ], ids=["profile-without-f", "cylinder-no-truncation", "unbounded-slice-no-span",
            "short-radii"])
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

    @pytest.mark.parametrize("domain", ["strip", {"kind": "convex_ring",
                                                  "A": {"ngon": 8, "radius": 2.0},
                                                  "B": {"ngon": 8, "radius": 0.5}}],
                             ids=["ratio", "ring"])
    def test_non_string_ratio_out_is_a_usage_error(self, tmp_path, capsys, domain):
        cfg = write_config(tmp_path, "bad.json", {
            "domain": domain, "x0": [0.5, 0], "poles": [2], "h": 0.0628,
            "probe": "0.4,1.5,-1,1", "ratio_out": 5})
        assert cli.main(["green", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "'ratio_out' must be a path string" in capsys.readouterr().err


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
            ref = [[round(float(x), 12), round(float(y), 12)] for x, y in c.vertices]
            assert list(map(list, cli._rounded_pairs(c))) == ref
            assert export.canonical_json(cli._rounded_pairs(c)) == export.canonical_json(ref)
        ref_rows = [(k, c.level, repr(float(x)), repr(float(y)))
                    for k, c in enumerate(curves) for x, y in c.vertices]
        export.write_csv(tmp_path / "ref.csv", ["curve", "level", "x", "y"], ref_rows)
        export.write_csv(tmp_path / "new.csv", ["curve", "level", "x", "y"],
                         chain.from_iterable(cli._csv_rows(k, c) for k, c in enumerate(curves)))
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

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
    """The per-point sampling and residual loop that the array check replaced."""
    window = fld.default_window
    pts = []
    while len(pts) < n:
        p = np.asarray(tuple(rng.uniform(a, b) for a, b in zip(window.lower, window.upper)))
        if fld.domain.contains(p) and fld.domain.boundary_distance(p) > 0.05:
            pts.append(p)
    hs = [1e-2, 1e-3, 1e-4]
    maxres = [max([abs(fields.harmonicity_residual(fld, p, h)) for p in pts], default=0.0)
              for h in hs]
    order = float(np.polyfit(np.log(hs), np.log(maxres), 1)[0])
    return order >= 1.9, {"fitted_order": order, "max_residuals": maxres}


class TestAudit:
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

    def test_harmonicity_without_points_fails(self):
        # no sample point would leave every residual at 0, inside any floor
        with pytest.raises(cli.ConfigError, match="n_points >= 1"):
            cli._check_harmonicity(fields.halfplane_v(), XorShift64Star(0), {"n_points": 0})

    @pytest.mark.parametrize("seed", [0, 5, 11])
    @pytest.mark.parametrize("name", ["strip", "exterior", "slit_sector", "cylinder:A=1,B=0.5"])
    def test_harmonicity_details_match_per_point_reference(self, name, seed):
        fld = fields.field_from_name(name)
        got = cli._check_harmonicity(fld, XorShift64Star(seed), {})
        assert got == reference_check_harmonicity(fld, XorShift64Star(seed))
        assert got[0] is True

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
        assert payload["domain"] == "strip"
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
        assert [it["cg_iterations"] for it in iterates] == [1, 1]
        assert all(0.0 < it["cg_residual"] <= 1e-12 for it in iterates)
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

    def test_profile_domain_config(self, tmp_path):
        cfg = write_config(tmp_path, "profile.json", {
            "domain": {"kind": "profile", "f": "sqrt"}, "x0": [1.0, 0.0],
            "poles": [2.0, 3.0], "h": 0.05, "probe": [0.5, 1.5, -0.5, 0.5]})
        assert cli.main(["green", "--config", cfg, "--out", str(tmp_path)]) == 0
        payload = json.load(open(tmp_path / "ratio.json"))
        assert payload["domain"] == "profile"
        assert len(payload["cauchy"]) == 1
        assert "closed_form" not in payload

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


@pytest.mark.parametrize("argv, config", [
    (["levelsets"], {**STRIP_LEVELS, "h": "abc"}),
    (["levelsets"], {**STRIP_LEVELS, "seed": "x"}),
    (["levelsets"], {**STRIP_LEVELS, "window": [["a", -1], [3, 1]]}),
    (["green", "--domain", "strip", "--x0", "0.5,0", "--poles", "2,3",
      "--probe", "0.4,1.5,-1,1", "--h", "abc"], None),
    (["asymptotics", "--radii", "5:80:x"], None),
    (["slice-scan", "--field", "strip", "--t", "1", "--span", "abc"], None),
    (["green", "--domain", "strip", "--x0", "0.5,0", "--poles", "2,3", "--h", "0.0628"],
     {"probe": ["a", 1.5, -1, 1]}),
], ids=["levelsets-h", "levelsets-seed", "levelsets-window", "green-h", "asymptotics-radii", "slice-scan-span",
        "green-config-probe"])
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
                                   ({"vertices": [[1], [2]]}, 2)],
                         ids=["documented", "asymmetric", "ngon", "planar", "origin-outside"])
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
    ({"kind": "convex_ring", "A": {"ngon": 8, "radius": "big"}, "B": SMALL_SQUARE},
     "'A': cannot parse 'radius'"),
    ({"kind": "convex_ring", "A": {"vertices": [["a", 0], [1, 0], [0, 1]]}, "B": SMALL_SQUARE},
     "'A': cannot parse 'vertices'"),
    ({"kind": "convex_ring", "A": 5, "B": SMALL_SQUARE}, "ring body 'A'"),
    (5, "domain must be a kind name or a mapping"),
], ids=["ngon", "radius", "vertices", "body-not-a-mapping", "domain-not-a-mapping"])
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

    def test_asymptotics_output(self, tmp_path):
        code = cli.main(["asymptotics", "--check", "f-decay,hess-residual",
                         "--radii", "5:80:12", "--out", str(tmp_path)])
        assert code == 0
        payload = json.load(open(tmp_path / "decay.json"))
        assert payload["f-decay"]["fprime_slope"] == pytest.approx(-3.0, abs=0.1)
        assert payload["f-decay"]["fsecond_slope"] == pytest.approx(-4.0, abs=0.1)
        assert payload["hess-residual"]["slope"] <= -1.9

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
], ids=["top-level-verbose", "slice-scan-config", "slice-scan-seed", "slice-scan-verbose",
        "asymptotics-config", "asymptotics-seed", "asymptotics-verbose"])
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


def test_audit_records_nonpositive_convexity_spacing(tmp_path):
    cfg = write_config(tmp_path, "audit.json", {
        "field": "strip", "checks": [{"name": "convexity", "params": {"levels": [1.0], "h": 0}}]})
    assert cli.main(["audit", "--config", cfg, "--out", str(tmp_path)]) == 1
    verdict = json.load(open(tmp_path / "report.json"))["verdicts"]["convexity"]
    assert verdict["passed"] is False
    assert verdict["error"].startswith("GeometryError: lattice spacing h=0.0 must be positive")


class TestSeededGenerator:
    def test_deterministic_stream(self):
        a = XorShift64Star(42)
        b = XorShift64Star(42)
        assert [a.next_u64() for _ in range(8)] == [b.next_u64() for _ in range(8)]

    def test_uniform_range(self):
        rng = XorShift64Star(7)
        vals = rng.uniforms(1000, -2.0, 3.0)
        assert all(-2.0 <= v < 3.0 for v in vals)
        assert abs(float(np.mean(vals)) - 0.5) < 0.25

    def test_zero_seed_not_stuck(self):
        rng = XorShift64Star(0)
        assert len({rng.next_u64() for _ in range(16)}) == 16
