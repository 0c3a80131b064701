"""The benchmark's workloads: ``martin`` invocations, their gates and oracles.

A workload is a list of invocations run back to back; one pass over the
list is a *set*, and a set's wall time is the sum of its children's.
Every gate is a pure function of the report an invocation wrote and
returns a list of problems (empty when the report passes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

HALF_PI = math.pi / 2
STRIP_H = math.pi / 200          # acceptance criterion 2
RING_H = 0.01                    # acceptance criterion 3, at a finer h
CERT_H = 0.005
RING_LEVELS = [0.25, 0.5, 0.75]
CURVE_LEVELS = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0]
# Marching-squares vertices interpolate linearly along cell edges, so on the
# strip field their level error is O(h^2) relative: ~1e-5 at h = 0.005.
LEVEL_REL_TOL = 1e-3


@dataclass
class Invocation:
    label: str
    argv: list                   # martin arguments, without --out and --seed
    report: str                  # main report file, byte-identical across sets
    gate: object                 # report dict -> list of problems
    configs: dict = field(default_factory=dict)   # file name -> JSON object


@dataclass
class Workload:
    name: str
    invocations: list
    oracle: object               # {label: report} -> float
    spans: tuple                 # span names that must fire in a traced set


def _square(half):
    return {"vertices": [[-half, -half], [half, -half], [half, half], [-half, half]]}


# ---------------------------------------------------------------------------
# gates
# ---------------------------------------------------------------------------

def strip_ratio(x, y):
    """Closed-form limit of the strip Green ratio, normalized at (0.5, 0)."""
    return math.sinh(x) * math.cos(y) / math.sinh(0.5)


def green_strip_error(report):
    """Largest relative error of the probe values against the closed form."""
    (x0, y0), (x1, y1) = report["probe_window"]
    nx, ny = report["probe_shape"]
    vals = report["probe_values"]
    worst = 0.0
    for i in range(nx):
        x = x0 + (x1 - x0) * i / (nx - 1)
        for j in range(ny):
            y = y0 + (y1 - y0) * j / (ny - 1)
            exact = strip_ratio(x, y)
            worst = max(worst, abs(vals[i * ny + j] - exact) / abs(exact))
    return worst


def gate_green_strip(report):
    problems = []
    cauchy = report.get("cauchy", [])
    if len(report.get("iterates", [])) != 3 or len(cauchy) != 2:
        problems.append("expected 3 iterates and 2 Cauchy diagnostics")
    if not all(b < a for a, b in zip(cauchy, cauchy[1:])):
        problems.append(f"Cauchy diagnostics not strictly decreasing: {cauchy}")
    reported = report.get("closed_form", {}).get("max_rel_error")
    if reported is None or not reported <= 0.02:
        problems.append(f"closed_form.max_rel_error {reported} above 2%")
    if len(report.get("probe_values", [])) != 25 * 17:
        problems.append("expected 425 probe values")
    else:
        mine = green_strip_error(report)
        if reported is not None and not abs(mine - reported) <= 1e-9:
            problems.append(f"reported error {reported} disagrees with recomputed {mine}")
    return problems


def gate_ring(report):
    problems = []
    if report.get("max_principle") is not True:
        problems.append("maximum principle does not hold")
    tol = 2 * report.get("h", RING_H)
    conv = report.get("convexity", {})
    if sorted(conv) != sorted(f"{c:g}" for c in RING_LEVELS):
        problems.append(f"levels {sorted(conv)} != {RING_LEVELS}")
    for level, v in sorted(conv.items()):
        if v.get("verdict") != "convex" or not v.get("hull_deviation", math.inf) <= tol:
            problems.append(f"level {level}: {v.get('verdict')}, deviation "
                            f"{v.get('hull_deviation')} (tolerance {tol})")
    return problems


def level_error(report):
    """Largest |u(v)/c - 1| over the extracted vertices, u the strip field."""
    worst = 0.0
    for curve in report["curves"]:
        c = curve["level"]
        for x, y in curve["points"]:
            worst = max(worst, abs(math.sinh(x) * math.cos(y) / c - 1.0))
    return worst


def gate_levels(report):
    problems = []
    found = {c["level"] for c in report.get("curves", [])}
    missing = [c for c in CURVE_LEVELS if c not in found]
    if missing:
        problems.append(f"no curve at levels {missing}")
    if report.get("curves"):
        err = level_error(report)
        if not err <= LEVEL_REL_TOL:
            problems.append(f"vertex level error {err} above {LEVEL_REL_TOL}")
    return problems


def gate_strip_audit(report):
    verdicts = report.get("verdicts", {})
    problems = [] if len(verdicts) == 5 else [f"expected 5 checks, got {sorted(verdicts)}"]
    problems += [f"check {n} not ok: {v}" for n, v in sorted(verdicts.items()) if not v.get("ok")]
    return problems


def gate_exterior_audit(report):
    verdicts = report.get("verdicts", {})
    conv = verdicts.get("convexity", {})
    problems = []
    if not (conv.get("passed") is False and conv.get("ok") is True):
        problems.append(f"convexity control: {conv}")
    problems += [f"check {n} not ok: {v}" for n, v in sorted(verdicts.items()) if not v.get("ok")]
    return problems


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

# Solver-bound: 3 CG solves of 101k, 152k and 203k unknowns on a rectangular
# mask, where a fast-Poisson preconditioner would be exact (acceptance 2).
GREEN_STRIP = Workload(
    name="green_strip",
    invocations=[Invocation(
        "green", ["green", "--domain", "strip", "--x0", "0.5,0", "--poles", "4,6,8",
                  "--h", repr(STRIP_H), "--probe", "0.5,2.0,-1,1"],
        "ratio.json", gate_green_strip)],
    oracle=lambda reports: green_strip_error(reports["green"]),
    spans=("cli.main", "geometry.contains", "greenratio.build_grid", "greenratio.solve",
           "greenratio.matvec", "greenratio.probe", "fields.value", "export.write"),
)

RING_CONFIG = {"domain": {"kind": "convex_ring", "A": _square(2.0), "B": _square(0.5)},
               "h": RING_H, "levels": RING_LEVELS}

# One solve with nonzero Dirichlet data built by a Python loop, on a mask with
# an obstacle inside it, then hull certificates on node clouds (acceptance 3
# at a finer h).  A solver gain that only helps point sources on rectangles
# reads as no gain here.
RING_CERTIFICATE = Workload(
    name="ring_certificate",
    invocations=[Invocation("ring", ["green", "--config", "ring_config.json"], "ring.json",
                            gate_ring, {"ring_config.json": RING_CONFIG})],
    oracle=lambda reports: max(v["hull_deviation"] for v in
                               reports["ring"]["convexity"].values()) / (2 * RING_H),
    spans=("cli.main", "geometry.contains", "greenratio.build_grid", "greenratio.solve",
           "greenratio.matvec", "greenratio.ring_data", "greenratio.superlevel",
           "levelset.certify", "geometry.hull", "export.write"),
)

LEVELS_CONFIG = {"field": "strip", "levels": CURVE_LEVELS,
                 "window": [[0.0, -HALF_PI], [4.0, HALF_PI]], "h": CERT_H}
STRIP_AUDIT = {"field": "strip", "checks": [
    "harmonicity",
    "boundary_vanishing",
    {"name": "convexity", "params": {"h": CERT_H}},
    {"name": "strictness", "params": {"h": CERT_H}},
    {"name": "slice_maxima", "params": {"t": [1.0, 2.0, 5.0]}},
]}
EXTERIOR_AUDIT = {"field": "exterior", "checks": [
    {"name": "convexity", "expected": False, "params": {"levels": [1.5, 3.0]}},
    {"name": "slice_maxima", "expected": False, "params": {"t": [2.0], "span": 2.0}},
]}

# Closed-form fields only: the time goes to levelset, fields, slices and
# export, and greenratio never runs, so a solver change must read as no
# change here.
CERTIFY_CLOSED_FORM = Workload(
    name="certify_closed_form",
    invocations=[
        Invocation("levelsets", ["levelsets", "--config", "levels_config.json"],
                   "levels.json", gate_levels, {"levels_config.json": LEVELS_CONFIG}),
        Invocation("strip_audit", ["audit", "--config", "strip_audit.json"], "report.json",
                   gate_strip_audit, {"strip_audit.json": STRIP_AUDIT}),
        Invocation("exterior_audit", ["audit", "--config", "exterior_audit.json"],
                   "report.json", gate_exterior_audit,
                   {"exterior_audit.json": EXTERIOR_AUDIT}),
    ],
    oracle=lambda reports: level_error(reports["levelsets"]),
    spans=("cli.main", "geometry.contains", "geometry.hull", "fields.value", "fields.check",
           "levelset.extract", "levelset.certify", "levelset.strictness", "slices.scan",
           "export.write"),
)

WORKLOADS = {w.name: w for w in (GREEN_STRIP, RING_CERTIFICATE, CERTIFY_CLOSED_FORM)}
