"""Slice maxima, ray monotonicity, rescaling toward the cylinder, and
asymptotic decay fits.

Asymptotic "sufficiently large" claims are resolved empirically: the
operations report bracketing thresholds, fitted slopes, and witnesses
rather than asserting limits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import CylinderModeField, FieldError
from .geometry import GeometryError, rescaled_domain
from .levelset import _tangent_forms, certify_level


@dataclass
class RayReport:
    direction: float                  # +1 or -1 along the slice coordinate
    decreasing: bool
    first_violation: tuple = None     # (y, u_prev, u_here)


@dataclass
class SliceReport:
    t: float
    argmax: tuple
    max_value: float
    center_value: float | None        # None when no slice interval holds y = 0


@dataclass
class RescaleResult:
    mode_coefficients: tuple          # fitted (A, B), both >= 0
    sup_mode_error: float
    center_value: float               # v_s(0) <= 1


@dataclass
class DecayFit:
    slope: float


@dataclass
class ThresholdReport:
    per_level: dict                   # level -> ConvexityReport
    largest_nonconvex: float = None
    smallest_convex: float = None


def _slice_points(t, ys):
    return np.column_stack([np.full(len(ys), float(t)), ys])


def slice_scan(fld, t, span=None):
    """Locate the maximum of the field on the slice at axial coordinate t.

    512 samples per slice interval (clipped to ``span`` when unbounded)
    followed by golden-section refinement around the best sample, position
    tolerance 1e-8.  A FieldError naming t when a value is not finite.
    """
    sl = fld.domain.slice_at(t)
    ys = sl.sample(512, span=span)
    ys = np.append(ys, 0.0) if sl.contains(0.0) else ys
    vals = _finite_values(fld, t, ys)
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
    center = float(fld.value(np.array([t, 0.0]))) if sl.contains(0.0) else None
    return SliceReport(t=float(t), argmax=(float(t), y_star), max_value=u_star,
                       center_value=center)


def _finite_values(fld, t, ys):
    """The field's values at the points (t, ys); a FieldError naming t, and
    no floating-point warning, when one of them is not finite."""
    with np.errstate(all="ignore"):
        vals = np.asarray(fld.value(_slice_points(t, ys)), dtype=float)
    if not np.isfinite(vals).all():
        raise FieldError(f"field {fld.name!r} is not finite on the slice at t = {t:g}")
    return vals


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


def ray_monotonicity(fld, t, direction, length=None):
    """Strict-decrease check along a slice ray from (t, 0) toward the boundary.

    The ray runs to the end of the slice interval containing the axis point,
    or for ``length`` when that is shorter.  Samples 512 points with the far
    endpoint excluded; a violation is the first step failing
    u_{k+1} < u_k - 1e-12 * max |u| (differences within the tolerance count
    as equality, hence as violations of strict decrease).  Raises
    :class:`GeometryError` when no slice interval contains the axis point,
    and a FieldError naming t when a value is not finite.
    """
    direction = float(np.sign(direction))
    if direction == 0.0:
        raise GeometryError("ray direction must be nonzero")
    ends = [b if direction > 0 else a for a, b in fld.domain.slice_at(t).intervals if a < 0.0 < b]
    if not ends:
        raise GeometryError(f"slice at t={t} has no interval containing the axis point")
    end = abs(ends[0])
    if length is None and not np.isfinite(end):
        raise GeometryError("unbounded slice ray needs an explicit length")
    length = end if length is None else min(float(length), end)
    ys = direction * length * (np.arange(512) / 512)   # endpoint excluded
    vals = _finite_values(fld, t, ys)
    tol = 1e-12 * float(np.abs(vals).max())
    bad = np.flatnonzero(~(vals[1:] < vals[:-1] - tol))
    if not len(bad):
        return RayReport(direction=direction, decreasing=True)
    k = int(bad[0])
    return RayReport(direction=direction, decreasing=False,
                     first_violation=(float(ys[k + 1]), float(vals[k]), float(vals[k + 1])))


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


def rescale_and_compare(fld, s, window):
    """Zoomed field v_s(xi) = u(f(s) xi + s e1)/M(s) against the best cylinder mode.

    M(s) is found by a slice scan at t = s; the mode coefficients (A, B >= 0)
    are fitted on the axis and the sup-norm error is taken over the 41 x 41
    lattice of the window intersected with the zoomed domain.
    """
    zoomed = rescaled_domain(fld.domain, s)
    f_s = zoomed.f_s

    scan = slice_scan(fld, s)
    M = scan.max_value
    if M <= 0.0:
        raise FieldError(f"slice maximum at s={s} is not positive")

    ts = np.linspace(window.lower[0], window.upper[0], 41)
    ys = np.linspace(window.lower[1], window.upper[1], 41)

    def v_s(t, y):
        return fld.value(np.stack([s + f_s * t, f_s * y], axis=-1)) / M

    rt = math.sqrt(CylinderModeField.lam)
    axis_ts = ts[np.abs(ts) < zoomed.s / 2.0]
    axis_vals = v_s(axis_ts, np.zeros_like(axis_ts))
    E = np.column_stack([np.exp(rt * axis_ts), np.exp(-rt * axis_ts)])
    A, B = _nonnegative_mode_fit(E, axis_vals)

    lattice = np.stack(np.meshgrid(ts, ys, indexing="ij"), axis=-1)
    t_in, y_in = lattice[zoomed.contains(lattice)].T
    model = (A * np.exp(rt * t_in) + B * np.exp(-rt * t_in)) * CylinderModeField.phi(y_in)
    sup_err = np.max(np.abs(v_s(t_in, y_in) - model), initial=0.0)
    return RescaleResult(mode_coefficients=(float(A), float(B)),
                         sup_mode_error=float(sup_err), center_value=float(v_s(0.0, 0.0)))


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
    slope, _ = np.polyfit(np.log(radii), np.log(mags), 1)
    return DecayFit(slope=float(slope))


def tangent_form_residual(u_field, v_field, z):
    """r(z) = T_u* H_u T_u (z) + 8 v(z) and the form T_u* H_u T_u (z), from
    the exact analytic Hessians, at complex points z or points ``(..., 2)``."""
    z = np.asarray(z)
    p = np.stack([z.real, z.imag], axis=-1) if np.iscomplexobj(z) else z.astype(float)
    form = _tangent_forms(u_field.gradient(p), u_field.hessian(p))[()]
    return form + 8.0 * v_field.value(p, check=False), form


#: radii of the scan for the largest radius with a nonnegative form
_THRESHOLD_SCAN = 4096


def tangent_form_asymptotic(u_field, v_field, radii):
    """Decay fit of the tangent-form residual along the positive real axis,
    plus the largest radius there at which the total form is still
    nonnegative (scanned on 4096 radii in (1, max radii]).

    The residual uses analytic Hessians only; finite differences would bury
    the O(r^-2) signal under roundoff at the outer radii.
    """
    fit = decay_fit(lambda r: tangent_form_residual(u_field, v_field, complex(r))[0], radii)
    scan = 1.0 + (max(radii) - 1.0) * (np.arange(1, _THRESHOLD_SCAN + 1) / _THRESHOLD_SCAN)
    pts = np.column_stack([scan, np.zeros_like(scan)])
    ok = u_field.regular(pts)
    _, forms = tangent_form_residual(u_field, v_field, pts[ok])
    nonneg = scan[ok][forms >= 0.0]
    return fit, float(nonneg[-1]) if len(nonneg) else None


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
        report = certify_level(fld, c, window, h)
        if report is None:
            continue
        per_level[c] = report
        if report.verdict == "non_convex":
            largest_nc = c if largest_nc is None else max(largest_nc, c)
        elif report.verdict == "convex":
            smallest_cx = c if smallest_cx is None else min(smallest_cx, c)
    if not per_level or all(r.verdict == "inconclusive" for r in per_level.values()):
        raise FieldError("all tested levels inconclusive; refine the extraction grid")
    return ThresholdReport(per_level=per_level, largest_nonconvex=largest_nc,
                           smallest_convex=smallest_cx)
