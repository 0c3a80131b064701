"""Command-line surface: reproducible level-set, audit, and Green-ratio runs.

Subcommands: levelsets | audit | green | slice-scan | asymptotics.
levelsets, audit and green take --config PATH, --out DIR, --seed N and
--verbose; slice-scan and asymptotics take --out DIR.  Exit codes: 0
success, 1 runtime/solver failure, 2 invalid configuration or geometry.

All randomness used for sample placement comes from Python's seeded
``random.Random``, and all JSON/CSV outputs are deterministic for a fixed
config and seed; wall-clock timings go to a separate ``*.timings.json``
sidecar so the main reports stay byte-reproducible.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
import zlib
from itertools import chain

import numpy as np

from . import export, fields, geometry, greenratio, levelset, slices


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

#: the config keys that every command knows
_COMMON_KEYS = ("seed", "out")


def _load(args):
    """The mapping of ``--config`` ({} without one), the seed (``--seed``,
    else the config's, default 0) and the output directory (``--out``, else
    the config's ``out``, default ".")."""
    raw = {}
    if args.config:
        try:
            with open(args.config) as f:
                raw = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            raise ConfigError(f"cannot read config {args.config}: {e}")
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
    seed = geometry.parse_value(raw.get("seed", 0), "seed", int) if args.seed is None else args.seed
    return raw, seed, args.out or geometry.parse_value(raw.get("out", "."), "config 'out'", str)


def _field(name):
    if not name:
        raise ConfigError("config needs a 'field' registry name")
    try:
        return fields.field_from_name(geometry.parse_value(name, "config 'field'", str))
    except fields.FieldError as e:
        raise ConfigError(str(e))


# ---------------------------------------------------------------------------
# levelsets
# ---------------------------------------------------------------------------

def _csv_lines(k, curve):
    """``curve,level,x,y`` per vertex of curve number k, in the bytes the csv
    module writes for those rows (floats by their repr): one prefix for the
    curve and one join per vertex."""
    prefix = f"{k},{float(curve.level)!r},"
    xs, ys = curve.vertices.T.tolist()
    return map(prefix.__add__, map(",".join, zip(map(float.__repr__, xs), map(float.__repr__, ys))))


def cmd_levelsets(args):
    raw, _, out = _load(args)
    fld = _field(raw.get("field"))
    geometry.check_keys(raw, ("field", "window", "levels", "h") + _COMMON_KEYS, "config key")
    w = raw.get("window")
    try:
        window = (fld.default_window if w is None else geometry.WindowBox(
            *(geometry.parse_value(corner, "window corner", sep=",") for corner in w)))
    except (ValueError, TypeError) as e:  # GeometryError is a ValueError
        raise ConfigError(f"bad window {w!r}: {e}")
    levels = geometry.parse_value(raw.get("levels", []), "level grid", sep=",", above=0.0)
    h = geometry.parse_value(raw.get("h", 0.02), "h")
    t0 = time.perf_counter()
    curves = []
    for c in levels:
        curves.extend(levelset.extract_level_curve(fld, c, window, h))
    if not curves:
        print("no level curve found in the window", file=sys.stderr)
        return 1
    payload = {"field": fld.name, "h": h,
               "window": [list(window.lower), list(window.upper)],
               "curves": [{"level": c.level, "closed": c.closed, "points": c.vertices.tolist()}
                          for c in curves]}
    export.write_json(os.path.join(out, "levels.json"), payload)
    export.write_csv(os.path.join(out, "levels.csv"), ["curve", "level", "x", "y"],
                     chain.from_iterable(_csv_lines(k, c) for k, c in enumerate(curves)))
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
    pts = fields.interior_points(fld, params.get("n_points", 30), rng)
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
    rep = fields.boundary_vanishing(fld, **params)
    return rep.passed, {"max_abs": rep.max_abs, "worst_point": list(rep.worst_point)}


def _check_convexity(fld, rng, params):
    verdicts = {}
    ok = True
    for c in params["levels"]:
        rep = levelset.certify_level(fld, c, fld.default_window, params["h"])
        verdicts[str(c)] = "level not attained" if rep is None else rep.verdict
        ok = ok and verdicts[str(c)] == "convex"
    return ok, {"levels": verdicts}


def _check_slice_maxima(fld, rng, params):
    ts = params.get("t", [1.0, 2.0])
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
    cls = levelset.classify_strictness(fld, params["levels"], window=fld.default_window,
                                       h=params["h"])
    ok = all(tag == levelset.STRICTLY_CONVEX for tag in cls.tags.values())
    return ok, {"tags": {str(k): v for k, v in cls.tags.items()}}


#: the lattice spacing and the levels that the convexity and strictness checks share
_LEVEL_GRID = {"h": (float, None, 0, 0.02), "levels": (float, ",", 0, [0.5, 1.0, 2.0])}
#: each check and the params it reads, each with the arguments of
#: :func:`geometry.parse_value` after the value and its name (the kind, then
#: the list separator, None for one value, and the bound it must exceed),
#: then for a shared param its default; any other param left out takes the
#: default of the check, or of the library call it passes through to
AUDIT_CHECKS = {
    "harmonicity": (_check_harmonicity, {"n_points": (int, None, 0)}),
    "boundary_vanishing": (_check_boundary, {"n_samples": (int, None, 1), "tol": (float,)}),
    "convexity": (_check_convexity, _LEVEL_GRID),
    "slice_maxima": (_check_slice_maxima, {"t": (float, ","), "span": (float, None, 0)}),
    "strictness": (_check_strictness, _LEVEL_GRID),
}


def cmd_audit(args):
    raw, seed, out = _load(args)
    fld = _field(raw.get("field"))
    geometry.check_keys(raw, ("field", "checks") + _COMMON_KEYS, "config key")
    spec_list = raw.get("checks")
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
        geometry.check_keys(item, ("name", "params", "expected"), f"check {name!r} key")
        params = item.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError(f"check {name!r}: 'params' must be a JSON object")
        expected = item.get("expected", True)
        if not isinstance(expected, bool):
            raise ConfigError(f"check {name!r}: 'expected' must be true or false")
        kinds = AUDIT_CHECKS[name][1]
        geometry.check_keys(params, kinds, f"check {name!r} param")
        defaults = {key: spec[3] for key, spec in kinds.items() if len(spec) > 3}
        parsed = {key: geometry.parse_value(value, f"check {name!r} param {key!r}", *kinds[key][:3])
                  for key, value in {**defaults, **params}.items()}
        jobs.append((name, parsed, expected))

    verdicts = {}
    timings = {}
    for name, params, expected in jobs:
        # process-independent per-check seed (hash() is salted per process)
        rng = random.Random(seed ^ zlib.crc32(name.encode()))
        t0 = time.perf_counter()
        try:
            passed, details = AUDIT_CHECKS[name][0](fld, rng, params)
            err = None
        except Exception as e:   # a failing check must not kill the audit
            passed, details, err = False, {}, f"{type(e).__name__}: {e}"
        dt = time.perf_counter() - t0
        ok = err is None and passed == expected
        verdicts[name] = {"passed": passed, "expected": expected, "ok": ok, "details": details}
        if err:
            verdicts[name]["error"] = err
        timings[name] = dt
        if args.verbose:
            flag = "ok" if ok else "FAIL"
            print(f"[{flag}] {name}: passed={passed} expected={expected} ({dt:.1f}s)")

    path = os.path.join(out, "report.json")
    export.write_json(path, {"command": "audit", "config": raw, "seed": seed,
                             "tool_version": export.TOOL_VERSION, "verdicts": verdicts})
    export.write_json(os.path.join(out, "report.timings.json"), timings)
    if args.verbose:
        print(f"audit report -> {path}")
    return 0 if all(v["ok"] for v in verdicts.values()) else 1


# ---------------------------------------------------------------------------
# green
# ---------------------------------------------------------------------------

def _probe_half_height(domain, x0, x1, pole):
    """Smallest half-width over [x0, x1] of the slice intervals whose closure
    holds y = 0, capped by the first pole's truncation window, so a symmetric
    probe of that half-height stays inside; a slice missing y = 0 is an error."""
    half = domain.truncation_window(pole).upper[1]
    for t in np.linspace(x0, x1, 65):
        if t <= 0.0:        # empty slice; martin_ratio checks these probes itself
            continue
        axis = [(a, b) for a, b in domain.slice_at(t).intervals if a <= 0.0 <= b]
        if not axis:
            raise ConfigError(f"probe points leave the domain: the slice at t = {t:g} "
                              f"does not reach the axis y = 0")
        half = min(half, -axis[0][0], axis[-1][1])
    return half


def _green_ring_mode(domain, raw, h, args):
    """Theorem-style ring run: direct solve plus per-level convexity verdicts."""
    if args.x0 or args.poles or args.probe:
        raise ConfigError("a ring run takes no --x0, --poles or --probe")
    levels = geometry.parse_value(raw.get("levels", [0.25, 0.5, 0.75]), "levels", sep=",")
    if not all(0.0 < c < 1.0 for c in levels):
        raise ConfigError(f"ring levels must lie in (0, 1), got {levels}")
    lo = domain.outer.vertices.min(axis=0)
    hi = domain.outer.vertices.max(axis=0)
    grid = greenratio.build_grid(domain, geometry.WindowBox(tuple(lo), tuple(hi)), h)
    try:
        sol = greenratio.solve_dirichlet(grid, greenratio.ring_dirichlet_data(grid))
    except greenratio.SolverError as e:
        raise greenratio.SolverError(f"ring solve (h = {h:.3g}): {e}") from None
    umin = float(np.min(sol.values, where=grid.interior, initial=np.inf))
    umax = float(np.max(sol.values, where=grid.interior, initial=-np.inf))
    verdicts = {}
    for c in levels:
        cloud = greenratio.superlevel_boundary_nodes(sol, c)
        rep = levelset.convexity_test(cloud, tol=2 * grid.h)
        verdicts[f"{c:g}"] = {"verdict": rep.verdict, "hull_deviation": rep.hull_deviation}
    return "ring", {
        "mode": "ring",
        "h": h,
        "levels": levels,
        "interior_nodes": grid.interior_count(),
        "cg_iterations": sol.stats.iterations,
        "cg_residual": sol.stats.residual,
        "value_range": [umin, umax],
        "max_principle": umin >= 0.0 and umax <= 1.0,
        "convexity": verdicts,
    }


def _green_ratio_mode(domain, raw, h, args):
    """Green-ratio run: normalized Green functions at escaping poles, sampled
    on the probe window, and their error against the closed form that the
    domain's declaration keys, if there is one."""
    x0 = geometry.parse_value(args.x0 or raw.get("x0", []), "x0", sep=",")
    if len(x0) != 2:
        raise ConfigError(f"green needs --x0 x,y, got {x0}")
    # before the probe's half-height reads the first pole's truncation window
    poles = greenratio.check_poles(
        geometry.parse_value(args.poles or raw.get("poles", []), "poles", sep=","))
    probe_vals = geometry.parse_value(args.probe or raw.get("probe", []), "probe", sep=",")
    if len(probe_vals) == 2:
        half = 0.8 * _probe_half_height(domain, probe_vals[0], probe_vals[1], poles[0])
        probe = geometry.WindowBox((probe_vals[0], -half), (probe_vals[1], half))
    elif len(probe_vals) == 4:
        probe = geometry.WindowBox((probe_vals[0], probe_vals[2]), (probe_vals[1], probe_vals[3]))
    else:
        raise ConfigError("--probe takes 2 or 4 comma-separated values")

    mcfg = greenratio.MartinApproxConfig(x0=tuple(x0), poles=tuple(poles), probe_window=probe)
    result = greenratio.martin_ratio(domain, mcfg, h)
    probe_vals_final = result.iterates[-1].samples

    payload = {
        "h": h,
        "x0": list(mcfg.x0),
        "poles": list(mcfg.poles),
        "cauchy": result.cauchy,
        "probe_window": [list(probe.lower), list(probe.upper)],
        "probe_shape": list(greenratio.PROBE_SHAPE),
        "probe_order": "row-major over (x, y): x varies slowest, y fastest",
        "probe_values": [float(v) for v in probe_vals_final],
        "iterates": [{"pole": it.pole,
                      "levels": [{"window": [list(lv.window.lower), list(lv.window.upper)],
                                  "h": lv.h, "interior_nodes": lv.interior_nodes,
                                  "cg_iterations": lv.stats.iterations,
                                  "cg_residual": lv.stats.residual} for lv in it.levels]}
                     for it in result.iterates],
    }
    # compared on the probes in the open domain: on a wall or on the slit the
    # closed form is 0 or undefined
    name = fields.CLOSED_FORMS.get(fields.declaration_key(domain.declaration))
    if name:
        oracle = fields.FIELDS[name]()
        inside = domain.contains(result.probe_points)
        exact = oracle.value(result.probe_points[inside]) / oracle.value(np.asarray(mcfg.x0))
        rel = np.abs(probe_vals_final[inside] - exact) / np.abs(exact)
        payload["closed_form"] = {"field": oracle.name, "max_rel_error": float(rel.max())}
    return "ratio", payload


def cmd_green(args):
    raw, _, out = _load(args)
    domain_name = args.domain or raw.get("domain")
    if not domain_name:
        raise ConfigError("green needs --domain or a config 'domain'")
    domain = geometry.domain_from_config(domain_name)
    ring = isinstance(domain, geometry.ConvexRing)
    geometry.check_keys(raw, ("domain", "h") + _COMMON_KEYS
                        + (("levels",) if ring else ("x0", "poles", "probe")), "config key")
    h = geometry.parse_value(args.h or raw.get("h", 0.05), "h")
    t0 = time.perf_counter()
    report, payload = (_green_ring_mode if ring else _green_ratio_mode)(domain, raw, h, args)
    out_path = os.path.join(out, f"{report}.json")
    export.write_json(out_path, {"domain": domain.declaration, **payload})
    export.write_json(os.path.join(out, f"{report}.timings.json"),
                      {"total": time.perf_counter() - t0})
    if args.verbose:
        print(f"green ({report} mode) -> {out_path}")
    return 0


# ---------------------------------------------------------------------------
# slice-scan
# ---------------------------------------------------------------------------

def cmd_slice_scan(args):
    fld = _field(args.field)
    ts = geometry.parse_value(args.t, "--t", sep=",")
    span = geometry.parse_value(args.span, "--span", above=0.0) if args.span else None
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
    export.write_json(os.path.join(args.out, "slices.json"), {"field": fld.name, "slices": out})
    return 0


# ---------------------------------------------------------------------------
# asymptotics
# ---------------------------------------------------------------------------

def _parse_radii(text):
    vals = geometry.parse_value(text, "--radii", sep=":")
    if len(vals) != 3 or min(vals[:2]) <= 1.0 or vals[2] < 0 or not vals[2].is_integer():
        raise ConfigError("--radii takes lo:hi:count with both bounds above 1, the slit tip, "
                          "and a count >= 0")
    return np.geomspace(vals[0], vals[1], int(vals[2]))


def cmd_asymptotics(args):
    checks = geometry.parse_value(args.check or "f-decay,hess-residual", "--check", str, sep=",")
    unknown = [c for c in checks if c not in ("f-decay", "hess-residual")]
    if unknown:
        raise ConfigError(f"unknown asymptotics check {unknown[0]!r}")
    radii = _parse_radii(args.radii or "5:80:12")
    payload = {}
    u = fields.slit_sector_martin()
    v = fields.sector_martin(2)
    for check in checks:
        if check == "f-decay":
            # f = v - u on the real axis, from the two fields' holomorphic triples
            f1 = slices.decay_fit(lambda r: abs(v.dF(complex(r)) - u.dF(complex(r))), radii)
            f2 = slices.decay_fit(lambda r: abs(v.d2F(complex(r)) - u.d2F(complex(r))), radii)
            payload["f-decay"] = {"fprime_slope": f1.slope, "fsecond_slope": f2.slope,
                                  "radii": [float(r) for r in radii]}
        else:
            fit, largest = slices.tangent_form_asymptotic(u, v, radii)
            payload["hess-residual"] = {"slope": fit.slope,
                                        "largest_nonnegative_radius": largest,
                                        "radii": [float(r) for r in radii]}
    export.write_json(os.path.join(args.out, "decay.json"), payload)
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
    sp.set_defaults(func=cmd_green, needs_config=False)

    sp = sub.add_parser("slice-scan", help="slice maxima and ray monotonicity")
    sp.add_argument("--out", default=".")
    sp.add_argument("--field", required=True)
    sp.add_argument("--t", required=True)
    sp.add_argument("--span")
    sp.set_defaults(func=cmd_slice_scan, needs_config=False)

    sp = sub.add_parser("asymptotics", help="decay and residual slope fits")
    sp.add_argument("--out", default=".")
    sp.add_argument("--check")
    sp.add_argument("--radii")
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
