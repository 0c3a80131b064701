"""Slice maxima, ray monotonicity, rescaling toward the cylinder, and
asymptotic decay fits.

Asymptotic "sufficiently large" claims are resolved empirically: the
operations report bracketing thresholds, fitted slopes, and witnesses
rather than asserting limits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fields import CylinderMode, FieldError, fd_hessian
from .geometry import (GeometryError, Strip, WindowBox, hausdorff_distance,
                       rescaled_domain, strip_as_profile)
from .levelset import convexity_test, extract_level_curve, window_closure_points


@dataclass
class RayReport:
    direction: float                  # +1 or -1 along the slice coordinate
    decreasing: bool
    first_violation: tuple = None     # (y, u_prev, u_here)
    n_steps: int = 0


@dataclass
class SliceReport:
    t: float
    argmax: tuple
    max_value: float
    center_value: float
    monotone_rays: list = field(default_factory=list)


@dataclass
class RescaleResult:
    s: float
    window: WindowBox
    mode_coefficients: tuple          # fitted (A, B), both >= 0
    sup_mode_error: float
    hausdorff_to_cylinder: float
    center_value: float               # v_s(0) <= 1


@dataclass
class DecayFit:
    radii: np.ndarray
    magnitudes: np.ndarray
    slope: float
    intercept: float
    residual: float


@dataclass
class ThresholdReport:
    per_level: dict                   # level -> ConvexityReport
    largest_nonconvex: float = None
    smallest_convex: float = None


def _slice_of(fld, t):
    return fld.domain.slice_at(t)


def _slice_points(t, ys):
    return np.column_stack([np.full(len(ys), float(t)), ys])


def slice_scan(fld, t, n_samples=512, span=None, check_rays=False):
    """Locate the maximum of the field on the slice at axial coordinate t.

    Dense sampling over the slice (clipped to ``span`` when unbounded)
    followed by golden-section refinement around the best sample, position
    tolerance 1e-8.  With ``check_rays`` the report also carries the
    monotonicity verdicts along both rays from (t, 0).
    """
    sl = _slice_of(fld, t)
    ys = sl.sample(n_samples, span=span)
    ys = np.append(ys, 0.0) if sl.contains(0.0) else ys
    vals = np.asarray(fld.value(_slice_points(t, ys)), dtype=float)
    k = int(np.argmax(vals))
    y_best = float(ys[k])
    step = float(np.min(np.diff(np.sort(ys)))) if len(ys) > 1 else 1e-3
    lo, hi = y_best - step, y_best + step
    lo = max(lo, float(ys.min()))
    hi = min(hi, float(ys.max()))
    y_star = _golden_max(lambda y: float(fld.value(np.array([t, y]))), lo, hi, tol=1e-8)
    u_star = float(fld.value(np.array([t, y_star])))
    if u_star < vals[k]:
        y_star, u_star = y_best, float(vals[k])
    center = float(fld.value(np.array([t, 0.0]))) if sl.contains(0.0) else float("nan")
    rays = []
    if check_rays:
        length = span if span is not None else None
        for direction in (+1.0, -1.0):
            rays.append(ray_monotonicity(fld, t, direction, length=length))
    return SliceReport(t=float(t), argmax=(float(t), y_star), max_value=u_star,
                       center_value=center, monotone_rays=rays)


def _golden_max(f, lo, hi, tol=1e-8):
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def ray_monotonicity(fld, t, direction, n_steps=512, length=None, eq_tol=1e-12):
    """Strict-decrease check along a slice ray from (t, 0) toward the boundary.

    Samples n_steps points with the boundary endpoint excluded; a violation
    is the first step failing u_{k+1} < u_k - eq_tol * scale (differences
    within the tolerance count as equality, hence as violations of strict
    decrease).
    """
    direction = float(np.sign(direction))
    if direction == 0.0:
        raise GeometryError("ray direction must be nonzero")
    sl = _slice_of(fld, t)
    if length is None:
        ends = [b if direction > 0 else a for a, b in sl.intervals if a < 0.0 < b]
        if not ends:
            raise GeometryError(f"slice at t={t} has no interval containing the axis point")
        if not np.isfinite(ends[0]):
            raise GeometryError("unbounded slice ray needs an explicit length")
        length = abs(ends[0])
    ys = direction * length * (np.arange(n_steps) / n_steps)   # endpoint excluded
    vals = np.asarray(fld.value(_slice_points(t, ys)), dtype=float)
    scale = float(np.abs(vals).max())
    tol = eq_tol * scale
    for k in range(len(vals) - 1):
        if not (vals[k + 1] < vals[k] - tol):
            return RayReport(direction=direction, decreasing=False,
                             first_violation=(float(ys[k + 1]), float(vals[k]), float(vals[k + 1])),
                             n_steps=n_steps)
    return RayReport(direction=direction, decreasing=True, n_steps=n_steps)


def slice_superharmonicity(fld, t, n_samples=256, span=None, fd_step=None):
    """Minimum of the axial second derivative d_tt u over slice samples.

    A positive minimum certifies that the slice restriction is superharmonic
    (for one transverse dimension: u_yy = -d_tt u < 0).  Points where the
    Hessian is unavailable (boundary or branch singularities) are skipped
    and counted.
    """
    sl = _slice_of(fld, t)
    ys = sl.sample(n_samples, span=span)
    worst = math.inf
    skipped = 0
    for y in ys:
        p = np.array([t, y])
        try:
            if fd_step is None:
                utt = float(fld.hessian(p)[0, 0])
            else:
                utt = float(fd_hessian(fld, p, h=fd_step)[0, 0])
        except (FieldError, ValueError):
            skipped += 1
            continue
        worst = min(worst, utt)
    if not np.isfinite(worst):
        raise FieldError("no valid slice samples for the second-derivative scan")
    return worst, skipped


# ---------------------------------------------------------------------------
# Rescaling toward the cylinder
# ---------------------------------------------------------------------------

def _nonnegative_mode_fit(E, y):
    """Least squares with both coefficients clamped nonnegative (2 columns)."""
    coef, *_ = np.linalg.lstsq(E, y, rcond=None)
    if np.all(coef >= 0.0):
        return coef
    best = None
    for keep in (0, 1):
        col = E[:, keep]
        a = max(0.0, float(col @ y / (col @ col)))
        cand = np.zeros(2)
        cand[keep] = a
        r = float(np.linalg.norm(E @ cand - y))
        if best is None or r < best[0]:
            best = (r, cand)
    return best[1]


def rescale_and_compare(fld, s, window, mode: CylinderMode, n_lattice=41):
    """Zoomed field v_s(xi) = u(f(s) xi + s e1)/M(s) against the best cylinder mode.

    M(s) is found by a slice scan at t = s; the mode coefficients (A, B >= 0)
    are fitted on the axis and the sup-norm error is taken over the lattice
    of the window intersected with the zoomed domain.  Also reports the
    Hausdorff distance between boundary samples of the zoomed domain and the
    unit cylinder inside the window.
    """
    domain = fld.domain
    profile_view = strip_as_profile() if isinstance(domain, Strip) else domain
    zoomed = rescaled_domain(profile_view, s)
    f_s = zoomed.f_s

    scan = slice_scan(fld, s)
    M = scan.max_value
    if M <= 0.0:
        raise FieldError(f"slice maximum at s={s} is not positive")

    ts = np.linspace(window.lower[0], window.upper[0], n_lattice)
    ys = np.linspace(window.lower[1], window.upper[1], n_lattice)

    def v_s(t, y):
        return fld.value(np.stack([s + f_s * t, f_s * y], axis=-1)) / M

    rt = math.sqrt(mode.lam)
    axis_ts = ts[np.abs(ts) < zoomed.s / 2.0]
    axis_vals = v_s(axis_ts, np.zeros_like(axis_ts))
    E = np.column_stack([np.exp(rt * axis_ts), np.exp(-rt * axis_ts)])
    A, B = _nonnegative_mode_fit(E, axis_vals)

    lattice = np.stack(np.meshgrid(ts, ys, indexing="ij"), axis=-1)
    t_in, y_in = lattice[zoomed.contains(lattice)].T
    model = (A * np.exp(rt * t_in) + B * np.exp(-rt * t_in)) * mode.phi(y_in)
    sup_err = np.max(np.abs(v_s(t_in, y_in) - model), initial=0.0)

    cyl_ts = np.linspace(window.lower[0], window.upper[0], 801)
    cyl = np.vstack([np.column_stack([cyl_ts, np.ones_like(cyl_ts)]),
                     np.column_stack([cyl_ts, -np.ones_like(cyl_ts)])])
    dh = hausdorff_distance(zoomed.boundary_points(window, 801), cyl)

    return RescaleResult(s=float(s), window=window, mode_coefficients=(float(A), float(B)),
                         sup_mode_error=float(sup_err), hausdorff_to_cylinder=float(dh),
                         center_value=float(v_s(0.0, 0.0)))


# ---------------------------------------------------------------------------
# Decay fits
# ---------------------------------------------------------------------------

def decay_fit(g, radii):
    """Log-log least-squares slope of |g| over the given radii.

    Radii must span at least a factor 8 with >= 4 samples; nonpositive
    magnitudes are an error since the fit works on log |g|.
    """
    radii = np.asarray(sorted(float(r) for r in radii))
    if len(radii) < 4 or radii[-1] < 8.0 * radii[0]:
        raise GeometryError("need >= 4 radii spanning a factor >= 8")
    mags = np.asarray([abs(float(g(r))) for r in radii])
    if np.any(mags <= 0.0):
        raise FieldError("decay fit needs strictly positive magnitudes")
    lx, ly = np.log(radii), np.log(mags)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = float(np.sqrt(np.mean((ly - (slope * lx + intercept)) ** 2)))
    return DecayFit(radii=radii, magnitudes=mags, slope=float(slope),
                    intercept=float(intercept), residual=resid)


def tangent_form_residual(u_field, v_field, z):
    """r(z) = T_u* H_u T_u (z) + 8 v(z), from the exact analytic Hessians."""
    p = np.array([z.real, z.imag]) if isinstance(z, complex) else np.asarray(z, dtype=float)
    g = u_field.gradient(p)
    H = u_field.hessian(p)
    T = np.array([g[1], -g[0]])
    form = float(T @ H @ T)
    return form + 8.0 * float(v_field.value(p, check=False)), form


def tangent_form_asymptotic(u_field, v_field, radii, ray_angle=0.0, threshold_scan=4096):
    """Decay fit of the tangent-form residual along a ray, plus the largest
    radius at which the total form is still nonnegative.

    The residual uses analytic Hessians only; finite differences would bury
    the O(r^-2) signal under roundoff at the outer radii.
    """
    direction = complex(math.cos(ray_angle), math.sin(ray_angle))

    def resid_mag(r):
        z = r * direction
        resid, _ = tangent_form_residual(u_field, v_field, z)
        return resid

    fit = decay_fit(resid_mag, radii)

    r_hi = max(radii)
    scan = 1.0 + (r_hi - 1.0) * (np.arange(1, threshold_scan + 1) / threshold_scan)
    largest_nonneg = None
    for r in scan:
        z = r * direction
        p = np.array([z.real, z.imag])
        if not u_field.domain.contains(p):
            continue
        try:
            _, form = tangent_form_residual(u_field, v_field, z)
        except (FieldError, ValueError):
            continue
        if form >= 0.0:
            largest_nonneg = float(r)
    return fit, largest_nonneg


# ---------------------------------------------------------------------------
# Convexity threshold scan
# ---------------------------------------------------------------------------

def convexity_threshold(fld, c_grid, window=None, h=0.02):
    """Per-level convexity verdicts plus the empirical threshold bracket.

    Runs extraction and the hull certificate for each level of the
    increasing grid; returns the largest tested level with a non-convex
    superlevel set and the smallest with a convex one.
    """
    window = window or fld.default_window
    c_grid = sorted(float(c) for c in c_grid)
    per_level = {}
    largest_nc, smallest_cx = None, None
    for c in c_grid:
        curves = extract_level_curve(fld, c, window, h)
        if not curves:
            continue
        closure = window_closure_points(curves, window, fld, c)
        report = convexity_test(curves, closure=closure, tol=2.0 * h, fld=fld, level=c)
        per_level[c] = report
        if report.verdict == "non_convex":
            largest_nc = c if largest_nc is None else max(largest_nc, c)
        elif report.verdict == "convex":
            smallest_cx = c if smallest_cx is None else min(smallest_cx, c)
    if not per_level or all(r.verdict == "inconclusive" for r in per_level.values()):
        raise FieldError("all tested levels inconclusive; refine the extraction grid")
    return ThresholdReport(per_level=per_level, largest_nonconvex=largest_nc,
                           smallest_convex=smallest_cx)
