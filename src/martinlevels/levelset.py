"""Level-curve extraction and convexity certificates.

Two certificates are provided for a superlevel region {u > c}:

* a discrete hull test: boundary samples of the region must lie within a
  tolerance of their own convex hull boundary (reflex samples sit strictly
  inside the hull and produce a midpoint witness);
* the pointwise tangent form: with T = (u_y, -u_x) spanning the level-line
  tangent in 2-d, strict convexity at a level point means T* H_u T < 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import WindowBox, convex_hull_2d


class LevelSetError(ValueError):
    pass


@dataclass
class LevelCurve:
    """Ordered polyline extracted at a fixed level."""

    level: float
    vertices: np.ndarray
    closed: bool
    window: WindowBox = None

    def __len__(self):
        return len(self.vertices)


@dataclass
class ConvexityReport:
    verdict: str                      # convex | non_convex | inconclusive
    hull_deviation: float
    tolerance: float
    witness: tuple = None             # (p, q, midpoint) for non_convex
    witness_verified: bool = False
    tangent_form_max: float = None
    n_points: int = 0
    note: str = ""


@dataclass
class StrictnessClassification:
    tags: dict                        # level -> strictly_convex_everywhere | nowhere_strict | mixed/inconclusive
    diagnostics: dict


# ---------------------------------------------------------------------------
# Marching squares
# ---------------------------------------------------------------------------

def _field_values_on_lattice(fld, xs, ys):
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    mask = np.asarray(fld.domain.contains(np.stack([X, Y], axis=-1)))
    vals = np.full(X.shape, np.nan)
    pts = np.stack([X[mask], Y[mask]], axis=-1)
    if pts.size:
        vals[mask] = np.asarray(fld.value(pts, check=False), dtype=float)
    return vals, mask


def extract_level_curve(fld, c, window, h):
    """Marching-squares contours of the field at level c inside the window.

    Returns a list of :class:`LevelCurve`; vertices interpolate linearly
    along cell edges, so each satisfies |u - c| = O(h * |grad u|) locally.
    An unattained level yields an empty list.
    """
    xs, ys = window.lattice(h)
    vals, mask = _field_values_on_lattice(fld, xs, ys)
    segments, positions = _marching_squares(vals, mask, xs, ys, float(c))
    curves = []
    for chain, closed in _stitch(segments):
        verts = np.asarray([positions[e] for e in chain])
        curves.append(LevelCurve(level=float(c), vertices=verts, closed=closed, window=window))
    return curves


def _marching_squares(vals, mask, xs, ys, c):
    above = np.where(mask, vals > c, False)
    ok = mask
    cell_ok = ok[:-1, :-1] & ok[1:, :-1] & ok[:-1, 1:] & ok[1:, 1:]
    idx = (above[:-1, :-1].astype(np.int8)
           + 2 * above[1:, :-1]
           + 4 * above[1:, 1:]
           + 8 * above[:-1, 1:])
    active = cell_ok & (idx > 0) & (idx < 15)

    positions = {}

    def xedge(i, j):
        key = ("x", i, j)
        if key not in positions:
            t = (c - vals[i, j]) / (vals[i + 1, j] - vals[i, j])
            positions[key] = (xs[i] + t * (xs[i + 1] - xs[i]), ys[j])
        return key

    def yedge(i, j):
        key = ("y", i, j)
        if key not in positions:
            t = (c - vals[i, j]) / (vals[i, j + 1] - vals[i, j])
            positions[key] = (xs[i], ys[j] + t * (ys[j + 1] - ys[j]))
        return key

    segments = []
    for i, j in zip(*np.nonzero(active)):
        k = int(idx[i, j])
        if k in (1, 14):
            segs = [(xedge(i, j), yedge(i, j))]
        elif k in (2, 13):
            segs = [(xedge(i, j), yedge(i + 1, j))]
        elif k in (3, 12):
            segs = [(yedge(i, j), yedge(i + 1, j))]
        elif k in (4, 11):
            segs = [(yedge(i + 1, j), xedge(i, j + 1))]
        elif k in (6, 9):
            segs = [(xedge(i, j), xedge(i, j + 1))]
        elif k in (7, 8):
            segs = [(yedge(i, j), xedge(i, j + 1))]
        else:  # saddle cases 5 and 10: split by the cell-center value
            center_above = 0.25 * (vals[i, j] + vals[i + 1, j] + vals[i, j + 1] + vals[i + 1, j + 1]) > c
            if (k == 5) == center_above:
                segs = [(xedge(i, j), yedge(i + 1, j)), (xedge(i, j + 1), yedge(i, j))]
            else:
                segs = [(xedge(i, j), yedge(i, j)), (yedge(i + 1, j), xedge(i, j + 1))]
        segments.extend(segs)
    return segments, positions


def _stitch(segments):
    adj = {}
    for a, b in segments:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    used = set()
    chains = []

    def walk(start):
        chain = [start]
        used.add(start)
        cur, prev = start, None
        while True:
            nxt = [n for n in adj[cur] if n != prev and n not in used]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            chain.append(cur)
            used.add(cur)
        return chain

    for node in list(adj):             # open chains first, from degree-1 nodes
        if node not in used and len(adj[node]) == 1:
            chains.append((walk(node), False))
    for node in list(adj):             # remaining components are loops
        if node not in used:
            chains.append((walk(node), True))
    return chains


# ---------------------------------------------------------------------------
# Hull-based convexity certificate
# ---------------------------------------------------------------------------

def hull_boundary_deviation(points, hull):
    """Distance from each point to the hull boundary polyline."""
    pts = np.asarray(points, dtype=float)
    m = len(hull)
    dmin = np.full(len(pts), np.inf)
    for k in range(m):
        a = hull[k]
        b = hull[(k + 1) % m]
        ab = b - a
        L2 = float(ab @ ab)
        if L2 == 0.0:
            d = np.linalg.norm(pts - a, axis=1)
        else:
            t = np.clip((pts - a) @ ab / L2, 0.0, 1.0)
            d = np.linalg.norm(pts - (a + t[:, None] * ab), axis=1)
        dmin = np.minimum(dmin, d)
    return dmin


def _gather_points(curve_or_cloud):
    if isinstance(curve_or_cloud, LevelCurve):
        return curve_or_cloud.vertices
    if isinstance(curve_or_cloud, (list, tuple)) and curve_or_cloud \
            and isinstance(curve_or_cloud[0], LevelCurve):
        return np.vstack([c.vertices for c in curve_or_cloud])
    return np.atleast_2d(np.asarray(curve_or_cloud, dtype=float))


def convexity_test(curve_or_cloud, closure=None, tol=1e-9, fld=None, level=None):
    """Hull-deviation convexity certificate for a region-boundary sample.

    Parameters
    ----------
    curve_or_cloud : LevelCurve, list of LevelCurve, or (n, 2) array
        Boundary samples of the region under test.
    closure : None | "chord" | (m, 2) array
        Extra points closing an open curve against its window (e.g. the
        window-edge path on the superlevel side); they enlarge the hull but
        are not themselves tested.
    tol : float
        Deviation threshold; deviations in (tol, 2*tol] are inconclusive.
    fld, level : optional
        When given, non-convex verdicts carry a midpoint witness verified
        against the field: u(p) > c, u(q) > c, u(mid) <= c.
    """
    pts = _gather_points(curve_or_cloud)
    if len(pts) < 8:
        raise LevelSetError("convexity test needs at least 8 points")
    hull_input = pts
    if closure is not None and not isinstance(closure, str):
        hull_input = np.vstack([pts, np.atleast_2d(np.asarray(closure, dtype=float))])
    hull = convex_hull_2d(hull_input)
    if len(hull) < 3:
        return ConvexityReport(verdict="inconclusive", hull_deviation=float("nan"),
                               tolerance=tol, n_points=len(pts), note="degenerate (collinear) input")
    dev = hull_boundary_deviation(pts, hull)
    worst = float(dev.max())
    if worst <= tol:
        return ConvexityReport(verdict="convex", hull_deviation=worst, tolerance=tol,
                               n_points=len(pts))
    if worst <= 2.0 * tol:
        return ConvexityReport(verdict="inconclusive", hull_deviation=worst, tolerance=tol,
                               n_points=len(pts), note="deviation within [1, 2] * tol band")
    report = ConvexityReport(verdict="non_convex", hull_deviation=worst, tolerance=tol,
                             n_points=len(pts))
    deepest = pts[int(np.argmax(dev))]
    report.witness = _geometric_witness(deepest, pts, hull)
    if fld is not None and level is not None:
        w = _verified_witness(fld, float(level), deepest, hull, scale=tol)
        if w is not None:
            report.witness = w
            report.witness_verified = True
    return report


def _geometric_witness(deepest, pts, hull):
    k = _nearest_hull_edge(deepest, hull)
    a, b = hull[k], hull[(k + 1) % len(hull)]
    return (tuple(a), tuple(b), tuple(0.5 * (a + b)))


def _nearest_hull_edge(p, hull):
    best, best_k = math.inf, 0
    m = len(hull)
    for k in range(m):
        a, b = hull[k], hull[(k + 1) % m]
        ab = b - a
        L2 = float(ab @ ab)
        t = 0.0 if L2 == 0.0 else float(np.clip((p - a) @ ab / L2, 0.0, 1.0))
        d = float(np.linalg.norm(p - (a + t * ab)))
        if d < best:
            best, best_k = d, k
    return best_k


def _excluded(fld, c, p):
    """True when p is certainly not in the open superlevel set {u > c}."""
    p = np.asarray(p, dtype=float)
    if not fld.domain.contains(p):
        return True
    return float(fld.value(p, check=False)) <= c


def _nudge_inward(fld, c, p, scales):
    """Push a near-level point into {u > c} along the gradient direction."""
    p = np.asarray(p, dtype=float)
    try:
        g = np.asarray(fld.gradient(p), dtype=float)
    except Exception:
        return None
    n = np.linalg.norm(g)
    if n == 0.0:
        return None
    g = g / n
    for s in scales:
        q = p + s * g
        if not _excluded(fld, c, q):
            return q
    return None


def _verified_witness(fld, c, deepest, hull, scale):
    """Search along the violated hull chord for p, q in {u > c} whose exact
    midpoint is excluded.

    Hull vertices sit on the level itself, so the chord endpoints are first
    nudged into the region along the gradient.
    """
    k = _nearest_hull_edge(deepest, hull)
    a, b = hull[k], hull[(k + 1) % len(hull)]
    scales = [0.25 * scale, scale, 4.0 * scale]
    ends_a = [a] + [p for p in [_nudge_inward(fld, c, a, scales)] if p is not None]
    ends_b = [b] + [p for p in [_nudge_inward(fld, c, b, scales)] if p is not None]
    n_scan = 129
    ts = np.linspace(0.0, 1.0, n_scan)
    for a2 in reversed(ends_a):
        for b2 in reversed(ends_b):
            chord = a2[None, :] + ts[:, None] * (b2 - a2)[None, :]
            bad = [i for i in range(n_scan) if _excluded(fld, c, chord[i])]
            for i in bad:
                for r in range(1, min(i, n_scan - 1 - i) + 1):
                    p, q = chord[i - r], chord[i + r]
                    if not _excluded(fld, c, p) and not _excluded(fld, c, q):
                        mid = 0.5 * (p + q)
                        if _excluded(fld, c, mid):
                            return (tuple(p), tuple(q), tuple(mid))
    return None


def midpoint_witness_search(fld, c, candidate_pairs):
    """First pair (p, q) with u > c at both and u((p+q)/2) <= c, else None."""
    for p, q in candidate_pairs:
        p = np.asarray(p, dtype=float)
        q = np.asarray(q, dtype=float)
        if _excluded(fld, c, p) or _excluded(fld, c, q):
            continue
        mid = 0.5 * (p + q)
        if _excluded(fld, c, mid):
            return (tuple(p), tuple(q), tuple(mid))
    return None


def window_closure_points(curves, window, fld, c, n=33):
    """Window-edge path closing open level curves on the superlevel side.

    Samples the window edges and keeps the points with u > c (plus the
    window corners whose value exceeds c); used as the ``closure`` argument
    of :func:`convexity_test` for unbounded regions.
    """
    (x0, y0), (x1, y1) = window.lower, window.upper
    edges = [np.column_stack([np.linspace(x0, x1, n), np.full(n, y0)]),
             np.column_stack([np.linspace(x0, x1, n), np.full(n, y1)]),
             np.column_stack([np.full(n, x0), np.linspace(y0, y1, n)]),
             np.column_stack([np.full(n, x1), np.linspace(y0, y1, n)])]
    keep = []
    for edge in edges:
        for p in edge:
            if not _excluded(fld, c, p):
                keep.append(p)
    return np.asarray(keep) if keep else None


# ---------------------------------------------------------------------------
# Tangent-space Hessian certificate
# ---------------------------------------------------------------------------

def tangent_hessian_form(fld, p):
    """Tangent-space second-derivative form at a level point.

    In 2-d returns T* H_u T with T = (u_y, -u_x) (unnormalized); in higher
    dimensions returns the maximum of xi* H_u xi over unit xi orthogonal to
    grad u.  Strict convexity of the level surface through p means the
    result is negative.
    """
    p = np.asarray(p, dtype=float)
    g = np.asarray(fld.gradient(p), dtype=float)
    scale = 1.0 + abs(float(fld.value(p, check=False)))
    if np.linalg.norm(g) < 1e-12 * scale:
        raise LevelSetError(f"critical point at {p}: |grad u| < 1e-12 * scale")
    H = np.asarray(fld.hessian(p), dtype=float)
    if p.size == 2:
        T = np.array([g[1], -g[0]])
        return float(T @ H @ T)
    # rows 1.. of V^T in the SVD of g as a 1 x n matrix span g's complement
    Q = np.linalg.svd(g[None, :])[2][1:].T
    return float(np.linalg.eigvalsh(Q.T @ H @ Q).max())


def classify_strictness(fld, levels, window=None, h=0.02, samples_per_level=64, band_scale=1e-7):
    """Sign classification of the tangent form along extracted level curves.

    Everywhere negative (beyond the tolerance band) means the superlevel
    boundaries are strictly convex at the samples; everywhere inside the
    band means nowhere strict (flat level lines); anything else is
    mixed/inconclusive.  The band is ``band_scale * (1 + ||H_u||)`` per
    point, separating exact product-case zeros from numerical noise.
    """
    window = window or fld.default_window
    tags, diags = {}, {}
    for c in levels:
        curves = extract_level_curve(fld, c, window, h)
        pts = np.vstack([cv.vertices for cv in curves]) if curves else np.empty((0, 2))
        if len(pts) > samples_per_level:
            step = len(pts) // samples_per_level
            pts = pts[::step]
        forms, bands = [], []
        for p in pts:
            try:
                H = np.asarray(fld.hessian(p), dtype=float)
                forms.append(tangent_hessian_form(fld, p))
                bands.append(band_scale * (1.0 + float(np.abs(H).max())))
            except (LevelSetError, ValueError):
                continue
        if len(forms) < 8:
            tags[c] = "mixed/inconclusive"
            diags[c] = {"n_samples": len(forms), "note": "too few valid samples"}
            continue
        forms = np.asarray(forms)
        bands = np.asarray(bands)
        if np.all(forms < -bands):
            tags[c] = "strictly_convex_everywhere"
        elif np.all(np.abs(forms) <= bands):
            tags[c] = "nowhere_strict"
        else:
            tags[c] = "mixed/inconclusive"
        diags[c] = {"n_samples": int(len(forms)), "form_min": float(forms.min()),
                    "form_max": float(forms.max())}
    return StrictnessClassification(tags=tags, diagnostics=diags)


def product_direction_detect(fld, samples, tol=1e-8, span=1.0, n_span=5):
    """Unit direction along which the field is flat, or None.

    Looks for a common null direction of the sampled Hessians, then checks
    that the gradient is orthogonal to it and that values are constant
    along +-span at the samples (points leaving the domain are skipped).
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    n = samples.shape[1]
    # a flat direction must annihilate every sampled Hessian and gradient
    M = np.zeros((n, n))
    for p in samples:
        H = np.asarray(fld.hessian(p), dtype=float)
        g = np.asarray(fld.gradient(p), dtype=float)
        M += H.T @ H + np.outer(g, g)
    eigs, vecs = np.linalg.eigh(M)
    if eigs[0] > tol * max(1.0, eigs[-1]):
        return None
    e = vecs[:, 0]
    scale = 1.0
    for p in samples:
        g = np.asarray(fld.gradient(p), dtype=float)
        scale = max(scale, abs(float(fld.value(p, check=False))))
        if abs(g @ e) > tol * (1.0 + np.linalg.norm(g)):
            return None
    for p in samples:
        u0 = float(fld.value(p, check=False))
        for s in np.linspace(-span, span, n_span):
            q = p + s * e
            if not fld.domain.contains(q):
                continue
            if abs(float(fld.value(q, check=False)) - u0) > tol * scale:
                return None
    return e
