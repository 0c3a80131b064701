"""Self-tests of the benchmark: its gates reject wrong outputs, span
arithmetic is right, and a short traced run fires every span its workload
names and prints every per-layer metric."""

import copy
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402


def _last_json_line(text):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    return json.loads(lines[-1]) if lines else None


def test_benchmark_json_names_what_the_harness_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    for span in {s for w in wl.WORKLOADS.values() for s in w.spans}:
        assert span in tracing.SPAN_NAMES


# ---------------------------------------------------------------------------
# gates
# ---------------------------------------------------------------------------

def _green_report(scale=1.0 + 1e-5):
    rep = {"probe_window": [[0.5, -1.0], [2.0, 1.0]], "probe_shape": [25, 17],
           "cauchy": [0.04, 0.0008], "iterates": [{}, {}, {}]}
    rep["probe_values"] = [scale * wl.strip_ratio(0.5 + 1.5 * i / 24, -1.0 + 2.0 * j / 16)
                           for i in range(25) for j in range(17)]
    rep["closed_form"] = {"max_rel_error": wl.green_strip_error(rep)}
    return rep


def test_green_gate():
    good = _green_report()
    assert wl.gate_green_strip(good) == []
    assert wl.green_strip_error(good) == pytest.approx(1e-5, rel=1e-6)
    stalled = copy.deepcopy(good)
    stalled["cauchy"] = [0.04, 0.04]
    assert wl.gate_green_strip(stalled)
    assert wl.gate_green_strip(_green_report(scale=1.03))
    misreported = copy.deepcopy(good)
    misreported["closed_form"]["max_rel_error"] = 1e-6
    assert wl.gate_green_strip(misreported)


def _ring_report():
    return {"h": 0.01, "max_principle": True,
            "convexity": {f"{c:g}": {"verdict": "convex", "hull_deviation": 0.009}
                          for c in wl.RING_LEVELS}}


def test_ring_gate():
    assert wl.gate_ring(_ring_report()) == []
    for key, value in (("verdict", "non_convex"), ("hull_deviation", 0.021)):
        bad = _ring_report()
        bad["convexity"]["0.5"][key] = value
        assert wl.gate_ring(bad)
    bad = _ring_report()
    bad["max_principle"] = False
    assert wl.gate_ring(bad)


def _levels_report():
    curves = []
    for c in wl.CURVE_LEVELS:
        ys = [-1.2 + 0.1 * k for k in range(25)]
        curves.append({"level": c, "points": [[math.asinh(c / math.cos(y)), y] for y in ys]})
    return {"curves": curves}


def test_levels_gate():
    good = _levels_report()
    assert wl.gate_levels(good) == []
    assert wl.level_error(good) < 1e-12
    shifted = _levels_report()
    shifted["curves"][2]["points"][3][0] += 0.01
    assert wl.gate_levels(shifted)
    assert wl.gate_levels({"curves": good["curves"][1:]})


def test_audit_gates():
    ok = {"passed": True, "expected": True, "ok": True}
    strip = {"verdicts": {n: dict(ok) for n in ("harmonicity", "boundary_vanishing",
                                                  "convexity", "strictness", "slice_maxima")}}
    assert wl.gate_strip_audit(strip) == []
    strip["verdicts"]["strictness"] = {"passed": False, "expected": True, "ok": False}
    assert wl.gate_strip_audit(strip)

    control = {"passed": False, "expected": False, "ok": True}
    exterior = {"verdicts": {"convexity": dict(control), "slice_maxima": dict(control)}}
    assert wl.gate_exterior_audit(exterior) == []
    exterior["verdicts"]["convexity"] = {"passed": True, "expected": False, "ok": False}
    assert wl.gate_exterior_audit(exterior)


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------

def test_summarize_durations_self_times_and_counts():
    spans = [["cli.main", 0.0, 10.0, -1, None],
             ["greenratio.solve", 1.0, 6.0, 0, 100],
             ["greenratio.matvec", 2.0, 3.0, 1, None],
             ["greenratio.matvec", 3.0, 5.0, 1, None],
             ["greenratio.probe", 7.0, 9.0, 0, None],
             ["greenratio.probe", 7.5, 8.0, 4, None]]
    out = tracing.summarize(spans)
    assert out["cli.main"] == {"s": 10.0, "self_s": 3.0, "calls": 1, "count": 0}
    assert out["greenratio.solve"] == {"s": 5.0, "self_s": 2.0, "calls": 1, "count": 100}
    assert out["greenratio.matvec"]["s"] == 3.0
    assert out["greenratio.probe"] == {"s": 2.0, "self_s": 2.0, "calls": 2, "count": 0}
    assert sum(r["self_s"] for r in out.values()) == 10.0
    assert tracing.matvec_seconds_and_nodes(spans) == (3.0, 200)


def test_a_vanished_function_drops_its_metrics():
    drop = run.dropped_metrics({"greenratio._apply_neg_laplacian"})
    assert drop == {"greenratio.matvec_s", "greenratio.matvec_self_s",
                    "greenratio.matvec_calls", "greenratio.ns_per_matvec_node"}
    assert run.dropped_metrics(set()) == set()


def test_child_shim_rebinds_by_name_imports(tmp_path):
    cfg = tmp_path / "audit.json"
    cfg.write_text(json.dumps({"field": "strip", "checks": [
        {"name": "convexity", "params": {"h": 0.05, "levels": [1.0]}},
        {"name": "slice_maxima", "params": {"t": [1.0]}}]}))
    spans = tmp_path / "spans.json"
    env = {k: v for k, v in os.environ.items() if k != "MARTIN_THREADS"}
    env["PYTHONPATH"] = str(run.ROOT / "src")
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), "--spans", str(spans),
                           "--", "audit", "--config", str(cfg), "--out", str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(spans.read_text())
    assert record["missing"] == []
    fired = {s[0] for s in record["spans"]}
    # slices binds convexity_test by name; levelset binds convex_hull_2d by name
    assert {"cli.main", "slices.scan", "levelset.extract", "levelset.certify",
            "geometry.hull", "fields.value", "export.write"} <= fired


# ---------------------------------------------------------------------------
# whole runs
# ---------------------------------------------------------------------------

def test_traced_run_reports_every_layer_metric():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload",
                           "certify_closed_form", "--seed", "3", "--seconds", "1",
                           "--trace", "1"], cwd=run.ROOT, capture_output=True, text=True,
                          timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = _last_json_line(proc.stdout)
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.per_layer_units())
    assert result["metrics"]["levelset.extract_calls"]["value"] > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "green_strip",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
