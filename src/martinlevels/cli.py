"""Command-line surface: reproducible level-set, audit, and Green-ratio runs.

Subcommands: levelsets | audit | green | slice-scan | asymptotics.
levelsets, audit and green take --config PATH, --out DIR, --seed N and
--verbose; slice-scan and asymptotics take --out DIR.  Exit codes: 0
success, 1 runtime/solver failure, 2 invalid configuration or geometry.

All randomness used for sample placement comes from the seeded xorshift64*
generator, and all JSON/CSV outputs are deterministic for a fixed config and
seed; wall-clock timings go to a separate ``*.timings.json`` sidecar so the
main reports stay byte-reproducible.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
import zlib
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from . import export, fields, geometry, greenratio, levelset, slices
from ._rng import XorShift64Star


class ConfigError(ValueError):
    pass


def _parse(text, what, kind=float, sep=None):
    """``kind(text)``, or with ``sep`` the list of ``kind`` of each item of a
    config list or of each nonempty ``sep``-separated field of a string; a
    :class:`ConfigError` naming ``what`` when one does not parse or is not
    finite."""
    if sep is not None and not isinstance(text, list):
        text = [v for v in str(text).split(sep) if v != ""]
    try:
        vals = [kind(text)] if sep is None else [kind(v) for v in text]
    except (TypeError, ValueError):
        raise ConfigError(f"cannot parse {what} {text!r}") from None
    if not all(map(math.isfinite, vals)):
        raise ConfigError(f"{what} {text!r} is not finite")
    return vals[0] if sep is None else vals


def _path(raw, key, default):
    """The file or directory name under ``key`` of a config, or ``default``;
    a :class:`ConfigError` when it is not a string."""
    value = raw.get(key, default)
    if not isinstance(value, str):
        raise ConfigError(f"config '{key}' must be a path string, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    """One JSON file describing a reproducible experiment."""

    raw: dict
    seed: int = 0
    out_dir: str = "."

    @classmethod
    def load(cls, path, out_dir=None, seed=None):
        try:
            with open(path) as f:
                raw = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            raise ConfigError(f"cannot read config {path}: {e}")
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        cfg = cls(raw=raw,
                  seed=_parse(raw.get("seed", 0), "seed", int) if seed is None else seed,
                  out_dir=out_dir or _path(raw, "out", "."))
        return cfg

    def field(self):
        name = self.raw.get("field")
        if not name:
            raise ConfigError("config needs a 'field' registry name")
        try:
            return fields.field_from_name(name)
        except fields.FieldError as e:
            raise ConfigError(str(e))

    def window(self, default):
        w = self.raw.get("window")
        if w is None:
            return default
        try:
            return geometry.WindowBox(tuple(w[0]), tuple(w[1]))
        except (ValueError, TypeError, IndexError) as e:     # GeometryError is a ValueError
            raise ConfigError(f"bad window {w!r}: {e}")

    def levels(self):
        levels = self.raw.get("levels", [])
        if not levels:
            raise ConfigError("config needs a nonempty 'levels' grid")
        out = _parse(levels, "level grid", sep=",")
        if any(c <= 0.0 for c in out):
            raise ConfigError("levels must be positive")
        return out


@dataclass
class RunReport:
    command: str
    config: dict
    verdicts: dict
    seed: int
    tool_version: str = export.TOOL_VERSION

    def as_json(self):
        return {"command": self.command, "config": self.config, "seed": self.seed,
                "tool_version": self.tool_version, "verdicts": self.verdicts}


def _write_report(out_dir, name, report: RunReport, timings):
    path = os.path.join(out_dir, name)
    export.write_json(path, report.as_json())
    export.write_json(path.replace(".json", ".timings.json"), timings)
    return path


# ---------------------------------------------------------------------------
# levelsets
# ---------------------------------------------------------------------------

def _rounded_pairs(curve):
    """Vertex (x, y) pairs rounded to 12 decimals by Python's ``round``."""
    r = list(map(round, curve.vertices.ravel().tolist(), repeat(12)))
    return list(zip(r[0::2], r[1::2]))


def _csv_rows(k, curve):
    """``(curve, level, x, y)`` per vertex of curve number k; the csv module
    writes floats by their repr."""
    xs, ys = curve.vertices.T.tolist()
    return zip(repeat(k), repeat(curve.level), xs, ys)


def cmd_levelsets(args):
    cfg = ExperimentConfig.load(args.config, out_dir=args.out, seed=args.seed)
    fld = cfg.field()
    window = cfg.window(default=fld.default_window)
    levels = cfg.levels()
    h = _parse(cfg.raw.get("h", 0.02), "h")
    t0 = time.perf_counter()
    curves = []
    for c in levels:
        curves.extend(levelset.extract_level_curve(fld, c, window, h))
    if not curves:
        print("no level curve found in the window", file=sys.stderr)
        return 1
    out = cfg.out_dir
    payload = {"field": fld.name, "h": h,
               "window": [list(window.lower), list(window.upper)],
               "curves": [{"level": c.level, "closed": c.closed, "points": _rounded_pairs(c)}
                          for c in curves]}
    export.write_json(os.path.join(out, "levels.json"), payload)
    export.write_csv(os.path.join(out, "levels.csv"),
                     ["curve", "level", "x", "y"],
                     chain.from_iterable(_csv_rows(k, c) for k, c in enumerate(curves)))
    export.write_svg_levels(os.path.join(out, "levels.svg"), curves, window,
                            title=f"level sets of {fld.name}")
    if args.verbose:
        print(f"levelsets: {len(curves)} curves in {time.perf_counter() - t0:.1f}s -> {out}")
    return 0


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------

def _check_harmonicity(fld, rng, params):
    """Passes when the largest residual falls like h^1.9 or faster, or stays
    within 16 eps max |u| / h^2 (long-double eps; the weights sum to 8 in
    absolute value and each value and point is rounded once): an exactly
    harmonic field leaves only rounding, which grows like h^-2."""
    n = int(params.get("n_points", 30))
    if n < 1:
        raise ConfigError(f"harmonicity needs n_points >= 1, got {n}")
    pts = fields.interior_points(fld, n, rng)
    # every stencil of radius 2h <= 0.02 around these points lies in the domain
    hs = [1e-2, 1e-3, 1e-4]
    maxres = [float(np.abs(fields.harmonicity_residual(fld, pts, h)).max(initial=0.0))
              for h in hs]
    order = float(np.polyfit(np.log(hs), np.log(maxres), 1)[0]) if min(maxres) > 0.0 else None
    floor = 16 * np.finfo(np.longdouble).eps * float(np.abs(fld.value(pts)).max(initial=0.0))
    passed = (order is not None and order >= 1.9) or all(r <= floor / h ** 2
                                                          for r, h in zip(maxres, hs))
    return passed, {"fitted_order": order, "max_residuals": maxres}


def _check_boundary(fld, rng, params):
    rep = fields.boundary_vanishing(fld, n_samples=int(params.get("n_samples", 200)),
                                    tol=float(params.get("tol", 1e-8)))
    return rep.passed, {"max_abs": rep.max_abs, "worst_point": list(rep.worst_point)}


def _check_convexity(fld, rng, params):
    window = fld.default_window
    h = float(params.get("h", 0.02))
    levels = [float(c) for c in params.get("levels", [0.5, 1.0, 2.0])]
    verdicts = {}
    ok = True
    for c in levels:
        rep = levelset.certify_level(fld, c, window, h)
        verdicts[str(c)] = "level not attained" if rep is None else rep.verdict
        ok = ok and verdicts[str(c)] == "convex"
    return ok, {"levels": verdicts}


def _check_slice_maxima(fld, rng, params):
    ts = [float(t) for t in params.get("t", [1.0, 2.0])]
    span = params.get("span")
    details = {}
    ok = True
    for t in ts:
        rep = slices.slice_scan(fld, t, span=span)
        on_axis = abs(rep.argmax[1]) <= 1e-6
        details[str(t)] = {"argmax_y": rep.argmax[1], "max": rep.max_value}
        ok = ok and on_axis
    return ok, details


def _check_strictness(fld, rng, params):
    levels = [float(c) for c in params.get("levels", [0.5, 1.0, 2.0])]
    cls = levelset.classify_strictness(fld, levels, window=fld.default_window,
                                       h=float(params.get("h", 0.02)))
    want = params.get("expect_tag", "strictly_convex_everywhere")
    ok = all(tag == want for tag in cls.tags.values())
    return ok, {"tags": {str(k): v for k, v in cls.tags.items()}}


AUDIT_CHECKS = {
    "harmonicity": _check_harmonicity,
    "boundary_vanishing": _check_boundary,
    "convexity": _check_convexity,
    "slice_maxima": _check_slice_maxima,
    "strictness": _check_strictness,
}


def cmd_audit(args):
    cfg = ExperimentConfig.load(args.config, out_dir=args.out, seed=args.seed)
    fld = cfg.field()
    spec_list = cfg.raw.get("checks")
    if not spec_list or not isinstance(spec_list, list):
        raise ConfigError("audit config needs a nonempty 'checks' list")
    jobs = []
    for item in spec_list:
        if isinstance(item, str):
            item = {"name": item}
        if not isinstance(item, dict):
            raise ConfigError(f"a check must be a name or a mapping, got {item!r}")
        name = item.get("name")
        if name not in AUDIT_CHECKS:
            raise ConfigError(f"unknown check {name!r}; known: {sorted(AUDIT_CHECKS)}")
        jobs.append((name, item))

    verdicts = {}
    timings = {}
    failed_required = False
    for name, item in jobs:
        # process-independent per-check seed (hash() is salted per process)
        rng = XorShift64Star(cfg.seed ^ zlib.crc32(name.encode()))
        t0 = time.perf_counter()
        try:
            passed, details = AUDIT_CHECKS[name](fld, rng, item.get("params", {}))
            err = None
        except Exception as e:   # a failing check must not kill the audit
            passed, details, err = False, {}, f"{type(e).__name__}: {e}"
        dt = time.perf_counter() - t0
        expected = bool(item.get("expected", True))
        required = bool(item.get("required", True))
        ok = (passed == expected)
        verdicts[name] = {"passed": passed, "expected": expected, "ok": ok,
                          "required": required, "details": details}
        if err:
            verdicts[name]["error"] = err
        timings[name] = dt
        if required and not ok:
            failed_required = True
        if args.verbose:
            flag = "ok" if ok else "FAIL"
            print(f"[{flag}] {name}: passed={passed} expected={expected} ({dt:.1f}s)")

    report = RunReport(command="audit", config=cfg.raw, verdicts=verdicts, seed=cfg.seed)
    path = _write_report(cfg.out_dir, "report.json", report, timings)
    if args.verbose:
        print(f"audit report -> {path}")
    return 1 if failed_required else 0


# ---------------------------------------------------------------------------
# green
# ---------------------------------------------------------------------------

_RATIO_ORACLES = {
    "strip": "strip",
    "halfplane_minus_disk": "exterior",
}


def _probe_half_height(domain, x0, x1, pole):
    """Smallest bounded slice half-width over [x0, x1], capped by the
    truncation window of the first pole, so a symmetric probe window of
    that half-height stays inside the region."""
    half = domain.truncation_window(pole).upper[1]
    for t in np.linspace(x0, x1, 65):
        if t <= 0.0:        # empty slice; martin_ratio checks these probes itself
            continue
        sl = domain.slice_at(t)
        if sl.bounded:
            half = min(half, -sl.intervals[0][0], sl.intervals[-1][1])
    return half


def _green_ring_mode(domain, raw, args, out_path):
    """Theorem-style ring run: direct solve plus per-level convexity verdicts."""
    h = _parse(args.h or raw.get("h", 0.05), "h")
    levels = _parse(raw.get("levels", [0.25, 0.5, 0.75]), "levels", sep=",")
    lo = domain.outer.vertices.min(axis=0)
    hi = domain.outer.vertices.max(axis=0)
    grid = greenratio.build_grid(domain, geometry.WindowBox(tuple(lo), tuple(hi)), h)
    sol = greenratio.solve_dirichlet(grid, boundary_values=greenratio.ring_dirichlet_data(grid))
    interior = grid.mask == greenratio.INTERIOR
    inner = greenratio.inner_body_nodes(grid)
    verdicts = {}
    for c in levels:
        cloud = greenratio.superlevel_boundary_nodes(sol, c, extra_member=inner)
        rep = levelset.convexity_test(cloud, tol=2 * grid.h)
        verdicts[f"{c:g}"] = {"verdict": rep.verdict, "hull_deviation": rep.hull_deviation}
    payload = {
        "mode": "ring",
        "h": h,
        "levels": levels,
        "interior_nodes": grid.interior_count(),
        "cg_iterations": sol.stats.iterations,
        "cg_residual": sol.stats.residual,
        "value_range": [float(sol.values[interior].min()), float(sol.values[interior].max())],
        "max_principle": bool(sol.values[interior].min() >= 0.0
                              and sol.values[interior].max() <= 1.0),
        "convexity": verdicts,
    }
    export.write_json(out_path, payload)
    if args.verbose:
        print(f"green (ring mode): {verdicts} -> {out_path}")
    return 0


def cmd_green(args):
    if args.config:
        cfg = ExperimentConfig.load(args.config, out_dir=args.out, seed=args.seed)
        raw = cfg.raw
    else:
        raw = {}
        cfg = ExperimentConfig(raw=raw, seed=args.seed or 0, out_dir=args.out or ".")
    domain_name = args.domain or raw.get("domain")
    if not domain_name:
        raise ConfigError("green needs --domain or a config 'domain'")
    domain = geometry.domain_from_config(domain_name)
    ring = isinstance(domain, geometry.ConvexRing)
    out_path = os.path.join(cfg.out_dir, args.ratio_out
                            or _path(raw, "ratio_out", "ring.json" if ring else "ratio.json"))
    if ring:
        return _green_ring_mode(domain, raw, args, out_path)
    x0 = _parse(args.x0 or raw.get("x0", []), "x0", sep=",")
    poles = _parse(args.poles or raw.get("poles", []), "poles", sep=",")
    if len(x0) != 2 or not poles:
        raise ConfigError("green needs --x0 x,y and --poles s1,s2,...")
    h = _parse(args.h or raw.get("h", 0.05), "h")
    probe_vals = _parse(args.probe or raw.get("probe", []), "probe", sep=",")
    if not probe_vals:
        raise ConfigError("green needs --probe x0,x1[,y0,y1]")
    if len(probe_vals) == 2:
        half = 0.8 * _probe_half_height(domain, probe_vals[0], probe_vals[1], poles[0])
        probe = geometry.WindowBox((probe_vals[0], -half), (probe_vals[1], half))
    elif len(probe_vals) == 4:
        probe = geometry.WindowBox((probe_vals[0], probe_vals[2]), (probe_vals[1], probe_vals[3]))
    else:
        raise ConfigError("--probe takes 2 or 4 comma-separated values")

    mcfg = greenratio.MartinApproxConfig(x0=tuple(x0), poles=tuple(poles), probe_window=probe)

    t0 = time.perf_counter()
    result = greenratio.martin_ratio(domain, mcfg, h)
    probe_vals_final = result.final.value(result.probe_points)

    payload = {
        "domain": domain.kind,
        "h": h,
        "x0": list(mcfg.x0),
        "poles": list(mcfg.poles),
        "cauchy": result.cauchy,
        "probe_window": [list(probe.lower), list(probe.upper)],
        "probe_shape": list(greenratio.PROBE_SHAPE),
        "probe_order": "row-major over (x, y): x varies slowest, y fastest",
        "probe_values": [float(v) for v in probe_vals_final],
        "iterates": [{"pole": it.pole,
                      "window": [list(it.ratio.grid.window.lower),
                                 list(it.ratio.grid.window.upper)],
                      "interior_nodes": it.ratio.grid.interior_count(),
                      "cg_iterations": it.ratio.stats.iterations,
                      "cg_residual": it.ratio.stats.residual}
                     for it in result.iterates],
    }
    oracle = _RATIO_ORACLES.get(domain.kind)
    if oracle:
        fld = fields.field_from_name(oracle)
        exact = fld.value(result.probe_points) / fld.value(np.asarray(mcfg.x0))
        rel = np.abs(probe_vals_final - exact) / np.abs(exact)
        payload["closed_form"] = {"field": oracle, "max_rel_error": float(rel.max())}
    export.write_json(out_path, payload)
    export.write_json(out_path.replace(".json", ".timings.json"),
                      {"total": time.perf_counter() - t0})
    if args.verbose:
        print(f"green: {len(poles)} poles, cauchy={result.cauchy} -> {out_path}")
    return 0


# ---------------------------------------------------------------------------
# slice-scan
# ---------------------------------------------------------------------------

def cmd_slice_scan(args):
    try:
        fld = fields.field_from_name(args.field)
    except fields.FieldError as e:
        raise ConfigError(str(e))
    ts = _parse(args.t, "t", sep=",")
    if not ts:
        raise ConfigError("slice-scan needs --t t1,t2,...")
    span = _parse(args.span, "span") if args.span else None
    out = {}
    for t in ts:
        rep = slices.slice_scan(fld, t, span=span)
        rays = []
        for direction in (+1.0, -1.0):
            try:
                ray = slices.ray_monotonicity(fld, t, direction, length=span)
                rays.append({"direction": direction, "decreasing": ray.decreasing,
                             "first_violation": list(ray.first_violation) if ray.first_violation else None})
            except geometry.GeometryError:
                rays.append({"direction": direction, "decreasing": None,
                             "first_violation": None})
        out[f"{t:g}"] = {"argmax": list(rep.argmax), "max": rep.max_value,
                         "center": rep.center_value, "rays": rays}
    path = args.out_file or "slices.json"
    export.write_json(os.path.join(args.out or ".", path), {"field": fld.name, "slices": out})
    return 0


# ---------------------------------------------------------------------------
# asymptotics
# ---------------------------------------------------------------------------

def _parse_radii(text):
    vals = _parse(text, "--radii", sep=":")
    if len(vals) != 3 or min(vals[:2]) <= 0.0 or vals[2] < 0 or not vals[2].is_integer():
        raise ConfigError("--radii takes lo:hi:count with positive bounds and a count >= 0")
    return np.geomspace(vals[0], vals[1], int(vals[2]))


def cmd_asymptotics(args):
    checks = [c.strip() for c in (args.check or "f-decay,hess-residual").split(",") if c.strip()]
    radii = _parse_radii(args.radii or "5:80:12")
    payload = {}
    u = fields.slit_sector_martin()
    v = fields.halfplane_v()
    for check in checks:
        if check == "f-decay":
            # f = v - u on the real axis, from the two fields' holomorphic triples
            f1 = slices.decay_fit(lambda r: abs(v.dF(complex(r)) - u.dF(complex(r))), radii)
            f2 = slices.decay_fit(lambda r: abs(v.d2F(complex(r)) - u.d2F(complex(r))), radii)
            payload["f-decay"] = {"fprime_slope": f1.slope, "fsecond_slope": f2.slope,
                                  "radii": [float(r) for r in radii]}
        elif check == "hess-residual":
            fit, largest = slices.tangent_form_asymptotic(u, v, radii)
            payload["hess-residual"] = {"slope": fit.slope,
                                        "largest_nonnegative_radius": largest,
                                        "radii": [float(r) for r in radii]}
        else:
            raise ConfigError(f"unknown asymptotics check {check!r}")
    path = os.path.join(args.out or ".", args.out_file or "decay.json")
    export.write_json(path, payload)
    return 0


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def build_parser():
    p = argparse.ArgumentParser(prog="martin",
                                description="level-set convexity and Green-ratio experiments")
    sub = p.add_subparsers(dest="command", required=True)

    def run_flags(sp):
        sp.add_argument("--config", default=None)
        sp.add_argument("--out")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--verbose", action="store_true")

    sp = sub.add_parser("levelsets", help="extract contours and emit JSON/CSV/SVG")
    run_flags(sp)
    sp.set_defaults(func=cmd_levelsets, needs_config=True)

    sp = sub.add_parser("audit", help="run a configured check suite")
    run_flags(sp)
    sp.set_defaults(func=cmd_audit, needs_config=True)

    sp = sub.add_parser("green", help="Green-ratio pipeline")
    run_flags(sp)
    sp.add_argument("--domain")
    sp.add_argument("--x0")
    sp.add_argument("--poles")
    sp.add_argument("--h")
    sp.add_argument("--probe")
    sp.add_argument("--ratio-out", dest="ratio_out")
    sp.set_defaults(func=cmd_green, needs_config=False)

    sp = sub.add_parser("slice-scan", help="slice maxima and ray monotonicity")
    sp.add_argument("--out", default=".")
    sp.add_argument("--field", required=True)
    sp.add_argument("--t", required=True)
    sp.add_argument("--span")
    sp.add_argument("--out-file", dest="out_file")
    sp.set_defaults(func=cmd_slice_scan, needs_config=False)

    sp = sub.add_parser("asymptotics", help="decay and residual slope fits")
    sp.add_argument("--out", default=".")
    sp.add_argument("--check")
    sp.add_argument("--radii")
    sp.add_argument("--out-file", dest="out_file")
    sp.set_defaults(func=cmd_asymptotics, needs_config=False)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    if getattr(args, "needs_config", False) and not args.config:
        print("error: this command needs --config PATH", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (ConfigError, geometry.GeometryError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (greenratio.SolverError, fields.FieldError, levelset.LevelSetError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
