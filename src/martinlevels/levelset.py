"""Level-curve extraction and convexity certificates.

Two certificates are provided for a superlevel region {u > c}:

* a discrete hull test: boundary samples of the region must lie within a
  tolerance of their own convex hull boundary (reflex samples sit strictly
  inside the hull and produce a midpoint witness);
* the pointwise tangent form: with T = (u_y, -u_x) spanning the level-line
  tangent in 2-d, strict convexity at a level point means T* H_u T < 0.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .geometry import check_lattice_memory, convex_hull_2d, edge_distances, lattice_blocks


class LevelSetError(ValueError):
    pass


@dataclass
class LevelCurve:
    """Ordered polyline extracted at a fixed level."""

    level: float
    vertices: np.ndarray
    closed: bool


@dataclass
class ConvexityReport:
    verdict: str                      # convex | non_convex | inconclusive
    hull_deviation: float
    witness: tuple = None             # (p, q, midpoint) for non_convex
    witness_verified: bool = False


@dataclass
class StrictnessClassification:
    tags: dict                        # level -> strictly_convex_everywhere | nowhere_strict | mixed/inconclusive
    diagnostics: dict


# ---------------------------------------------------------------------------
# Marching squares
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=1)
def _lattice(fld, window, h):
    """The window's lattice of spacing h with the field's values (NaN off
    the domain) and the domain mask, read-only; evaluated once for a run of
    calls with the same field, window and h (fields and windows are
    immutable, so the key decides the values).  A GeometryError when the
    values and the mask would not fit in physical memory."""
    xs, ys = window.lattice(h)
    check_lattice_memory(xs, ys, 8 + 1, "a level-set lattice's values and mask")
    mask = np.empty((len(xs), len(ys)), dtype=bool)
    vals = np.full(mask.shape, np.nan)
    for rows, pts in lattice_blocks(xs, ys):
        inside = mask[rows] = fld.domain.contains(pts)
        if inside.any():
            vals[rows][inside] = fld.value(pts[inside], check=False)
    for a in (xs, ys, vals, mask):
        a.setflags(write=False)
    return xs, ys, vals, mask


def extract_level_curve(fld, c, window, h):
    """Marching-squares contours of the field at level c inside the window.

    Returns a list of :class:`LevelCurve`; vertices interpolate linearly
    along cell edges, so each satisfies |u - c| = O(h * |grad u|) locally.
    An unattained level yields an empty list.  Successive calls with the
    same field, window and h share one lattice evaluation.
    """
    xs, ys, vals, mask = _lattice(fld, window, float(h))
    segments, positions = _marching_squares(vals, mask, xs, ys, float(c))
    return [LevelCurve(level=float(c), vertices=positions[chain], closed=closed)
            for chain, closed in _stitch(segments)]


# Segments of each cell case as pairs of cell edges, numbered 0: x-edge (i, j),
# 1: y-edge (i+1, j), 2: x-edge (i, j+1), 3: y-edge (i, j); -1 pads the
# single-segment cases.  _CASES[k, cut] splits the saddles 5 and 10 by
# cutting off corners (i, j) and (i+1, j+1) (cut 0) or the other two (cut 1).
_CASES = np.full((16, 2, 2, 2), -1, dtype=np.intp)
for _ks, _seg in (((1, 14), (0, 3)), ((2, 13), (0, 1)), ((3, 12), (3, 1)),
                  ((4, 11), (1, 2)), ((6, 9), (0, 2)), ((7, 8), (3, 2))):
    _CASES[list(_ks), :, 0] = _seg
_CASES[[5, 10], 0] = [(0, 3), (1, 2)]
_CASES[[5, 10], 1] = [(0, 1), (2, 3)]


def _marching_squares(vals, mask, xs, ys, c):
    """Level-c segments of the lattice, cell by cell in row-major order.

    Returns ``(segments, positions)``: a list of node pairs, each node an
    index into the ``(m, 2)`` array of edge-crossing positions.  A saddle
    cell (cases 5 and 10) keeps the corners on the side of c that its
    center value lies on connected.
    """
    above = vals > c                  # read only at cells with all corners in the mask
    # a cell is active when its corners differ, that is when the level
    # crosses one of its x-edges or its first y-edge
    cross_x = above[1:] != above[:-1]
    active = cross_x[:, :-1] | cross_x[:, 1:]
    active |= above[:-1, 1:] != above[:-1, :-1]
    active &= mask[:-1, :-1] & mask[1:, :-1] & mask[:-1, 1:] & mask[1:, 1:]
    i, j = np.divmod(np.flatnonzero(active), active.shape[1])    # row-major
    k = above[i, j] + 2 * above[i + 1, j] + 4 * above[i + 1, j + 1] + 8 * above[i, j + 1]
    cut = np.zeros(len(k), dtype=np.intp)
    saddle = (k == 5) | (k == 10)
    si, sj = i[saddle], j[saddle]
    center_above = 0.25 * (vals[si, sj] + vals[si + 1, sj] + vals[si, sj + 1]
                           + vals[si + 1, sj + 1]) > c
    cut[saddle] = (k[saddle] == 5) == center_above
    # edge id: 2 * node for the x-edge, 2 * node + 1 for the y-edge leaving it
    ny = len(ys)
    node = i * ny + j
    edges = np.column_stack([2 * node, 2 * (node + ny) + 1, 2 * (node + 1), 2 * node + 1])
    local = _CASES[k, cut].reshape(-1, 2)
    keep = local[:, 0] >= 0
    ids = np.take_along_axis(np.repeat(edges, 2, axis=0), np.maximum(local, 0), axis=1)[keep]
    uniq, inverse = np.unique(ids.ravel(), return_inverse=True)
    ei, ej = np.divmod(uniq // 2, ny)
    on_y = (uniq % 2).astype(bool)
    v0 = vals[ei, ej]
    t = (c - v0) / (vals[ei + ~on_y, ej + on_y] - v0)
    positions = np.column_stack([xs[ei], ys[ej]])
    on_x = ~on_y
    x0 = positions[on_x, 0]
    positions[on_x, 0] = x0 + t[on_x] * (xs[ei[on_x] + 1] - x0)
    y0 = positions[on_y, 1]
    positions[on_y, 1] = y0 + t[on_y] * (ys[ej[on_y] + 1] - y0)
    return list(map(tuple, inverse.reshape(-1, 2).tolist())), positions


def _stitch(segments):
    """Chains of the graph whose edges are the node pairs ``segments``, in
    which every node has degree 1 or 2.

    Open chains come first, each walked from the end node met first in the
    segment list; then the loops, each walked from its node met first,
    towards the neighbor that node first met.  Returns a list of
    ``(nodes, closed)``.
    """
    ends = np.asarray(segments, dtype=np.intp).reshape(-1)    # segment k: ends 2k, 2k + 1
    by_node = np.argsort(ends, kind="stable")
    pair = ends[by_node[1:]] == ends[by_node[:-1]]
    other = np.full(len(ends), -1)                              # the node's other end
    other[by_node[1:][pair]] = by_node[:-1][pair]
    other[by_node[:-1][pair]] = by_node[1:][pair]
    # leaving through end t and crossing segment t // 2, the walk goes on
    # from the other end of the node it reaches (-1: a degree-1 node)
    nxt = other[np.arange(len(ends)) ^ 1].tolist()
    used = np.zeros(len(ends), dtype=bool)
    chains = []

    def walk(t0):
        ts = [t0]
        t = nxt[t0]
        while t >= 0 and t != t0:
            ts.append(t)
            t = nxt[t]
        ts = np.array(ts)
        used[ts] = used[ts ^ 1] = True
        closed = t >= 0
        nodes = ends[ts] if closed else np.append(ends[ts], ends[ts[-1] ^ 1])
        chains.append((nodes.tolist(), closed))

    for t0 in np.flatnonzero(other < 0).tolist():              # degree-1 nodes in order
        if not used[t0]:
            walk(t0)
    while not used.all():               # the first unused end starts the next loop
        walk(int(np.argmin(used)))
    return chains


# ---------------------------------------------------------------------------
# Hull-based convexity certificate
# ---------------------------------------------------------------------------

# points x edges per block of the point-to-hull distance matrix
_BLOCK = 1 << 16


def hull_boundary_deviation(points, hull):
    """Distance from each point to the hull boundary polyline.

    Hull vertices score exactly 0; the other points are measured against
    every edge, a bounded block of points at a time.
    """
    pts = np.asarray(points, dtype=float)
    hull = np.asarray(hull, dtype=float)
    dev = np.zeros(len(pts))
    keys = np.sort(hull[:, 0] + 1j * hull[:, 1])
    z = pts[:, 0] + 1j * pts[:, 1]
    off = np.flatnonzero(keys[np.searchsorted(keys, z).clip(max=len(keys) - 1)] != z)
    step = max(1, _BLOCK // len(hull))
    for s in range(0, len(off), step):
        rows = off[s:s + step]
        dev[rows] = edge_distances(pts[rows], hull).min(axis=1)
    return dev


def _gather_points(curve_or_cloud):
    if isinstance(curve_or_cloud, (list, tuple)) and curve_or_cloud \
            and isinstance(curve_or_cloud[0], LevelCurve):
        return np.vstack([c.vertices for c in curve_or_cloud])
    return np.atleast_2d(np.asarray(curve_or_cloud, dtype=float))


def convexity_test(curve_or_cloud, closure=None, tol=1e-9, fld=None, level=None):
    """Hull-deviation convexity certificate for a region-boundary sample.

    Parameters
    ----------
    curve_or_cloud : list of LevelCurve, or (n, 2) array
        Boundary samples of the region under test.
    closure : None or (m, 2) array
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
    if closure is not None:
        hull_input = np.vstack([pts, np.atleast_2d(np.asarray(closure, dtype=float))])
    hull = convex_hull_2d(hull_input)
    if len(hull) < 3:
        return ConvexityReport(verdict="inconclusive", hull_deviation=float("nan"))
    dev = hull_boundary_deviation(pts, hull)
    worst = float(dev.max())
    if worst <= tol:
        return ConvexityReport(verdict="convex", hull_deviation=worst)
    if worst <= 2.0 * tol:
        return ConvexityReport(verdict="inconclusive", hull_deviation=worst)
    report = ConvexityReport(verdict="non_convex", hull_deviation=worst)
    deepest = pts[int(np.argmax(dev))]
    k = _nearest_hull_edge(deepest, hull)
    a, b = hull[k], hull[(k + 1) % len(hull)]
    report.witness = (tuple(a), tuple(b), tuple(0.5 * (a + b)))
    if fld is not None and level is not None:
        w = _verified_witness(fld, float(level), deepest, hull, scale=tol)
        if w is not None:
            report.witness = w
            report.witness_verified = True
    return report


def _nearest_hull_edge(p, hull):
    return int(np.argmin(edge_distances(np.asarray(p, dtype=float)[None, :], hull)[0]))


def _excluded(fld, c, pts):
    """Per point of ``(n, 2)`` pts: True when it is certainly not in the open
    superlevel set {u > c} (outside the domain, or u <= c there)."""
    pts = np.asarray(pts, dtype=float)
    out = ~np.asarray(fld.domain.contains(pts), dtype=bool)
    inside = ~out
    if inside.any():
        out[inside] = np.asarray(fld.value(pts[inside], check=False)) <= c
    return out


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
    qs = p + np.asarray(scales)[:, None] * g
    ok = np.flatnonzero(~_excluded(fld, c, qs))
    return qs[ok[0]] if len(ok) else None


def _verified_witness(fld, c, deepest, hull, scale):
    """Search along the violated hull chord for p, q in {u > c} whose exact
    midpoint is excluded.

    Hull vertices sit on the level itself, so the chord endpoints are first
    nudged into the region along the gradient.  On each chord the pairs
    around each excluded chord point, by increasing distance from it, go to
    :func:`midpoint_witness_search` in one call.
    """
    k = _nearest_hull_edge(deepest, hull)
    a, b = hull[k], hull[(k + 1) % len(hull)]
    scales = [0.25 * scale, scale, 4.0 * scale]
    ends_a = [a] + [p for p in [_nudge_inward(fld, c, a, scales)] if p is not None]
    ends_b = [b] + [p for p in [_nudge_inward(fld, c, b, scales)] if p is not None]
    ts = np.linspace(0.0, 1.0, 129)
    for a2 in reversed(ends_a):
        for b2 in reversed(ends_b):
            chord = a2[None, :] + ts[:, None] * (b2 - a2)[None, :]
            pairs = np.array([(i - r, i + r) for i in np.flatnonzero(_excluded(fld, c, chord))
                              for r in range(1, min(i, 128 - i) + 1)], dtype=np.intp)
            w = midpoint_witness_search(fld, c, chord[pairs.reshape(-1, 2)])
            if w is not None:
                return w
    return None


def midpoint_witness_search(fld, c, candidate_pairs):
    """First pair (p, q) with u > c at both and u((p+q)/2) <= c, else None."""
    pairs = np.asarray(candidate_pairs, dtype=float).reshape(-1, 2, 2)
    ends_out = _excluded(fld, c, pairs.reshape(-1, 2)).reshape(-1, 2)
    ok = np.flatnonzero(~ends_out.any(axis=1))
    p, q = pairs[ok, 0], pairs[ok, 1]
    mids = 0.5 * (p + q)
    hit = np.flatnonzero(_excluded(fld, c, mids))
    if not len(hit):
        return None
    m = hit[0]
    return (tuple(p[m]), tuple(q[m]), tuple(mids[m]))


def window_closure_points(window, fld, c):
    """Window-edge path closing open level curves on the superlevel side.

    Samples each window edge at 33 points and keeps those with u > c (the
    corners included); used as the ``closure`` argument of
    :func:`convexity_test` for unbounded regions.
    """
    (x0, y0), (x1, y1) = window.lower, window.upper
    n = 33
    edges = np.vstack([np.column_stack([np.linspace(x0, x1, n), np.full(n, y0)]),
                       np.column_stack([np.linspace(x0, x1, n), np.full(n, y1)]),
                       np.column_stack([np.full(n, x0), np.linspace(y0, y1, n)]),
                       np.column_stack([np.full(n, x1), np.linspace(y0, y1, n)])])
    keep = edges[~_excluded(fld, c, edges)]
    return keep if len(keep) else None


def certify_level(fld, c, window, h):
    """Hull certificate of {u > c} in the window: the level curves on the lattice of
    spacing h, closed along the window edges on the superlevel side, tested at
    tolerance 2h with verified witnesses; None when the level is not attained."""
    curves = extract_level_curve(fld, c, window, h)
    if not curves:
        return None
    closure = window_closure_points(window, fld, c)
    return convexity_test(curves, closure=closure, tol=2.0 * h, fld=fld, level=c)


# ---------------------------------------------------------------------------
# Tangent-space Hessian certificate
# ---------------------------------------------------------------------------

def _tangent_forms(g, H):
    """T* H T with T = (u_y, -u_x), per point of gradients (..., 2) and
    Hessians (..., 2, 2)."""
    T = np.stack([g[..., 1], -g[..., 0]], axis=-1)
    TH = T[..., 0, None] * H[..., 0, :] + T[..., 1, None] * H[..., 1, :]
    return TH[..., 0] * T[..., 0] + TH[..., 1] * T[..., 1]


def _critical(fld, p, g):
    """Mask of the points where |grad u| < 1e-12 * (1 + |u|)."""
    scale = 1.0 + np.abs(np.asarray(fld.value(p, check=False), dtype=float))
    return np.linalg.norm(g, axis=-1) < 1e-12 * scale


def tangent_hessian_form(fld, p):
    """Tangent-space second-derivative form T* H_u T with T = (u_y, -u_x)
    (unnormalized) at level points ``(..., 2)``.

    Strict convexity of the level line through a point means the form is
    negative there.  Raises :class:`LevelSetError` at a critical point.
    """
    p = np.asarray(p, dtype=float)
    g = np.asarray(fld.gradient(p), dtype=float)
    crit = _critical(fld, p, g)
    if np.any(crit):
        raise LevelSetError(f"critical point at {p.reshape(-1, 2)[np.ravel(crit)][0]}: "
                            "|grad u| < 1e-12 * scale")
    return _tangent_forms(g, np.asarray(fld.hessian(p), dtype=float))[()]


def classify_strictness(fld, levels, window=None, h=0.02):
    """Sign classification of the tangent form along extracted level curves.

    Everywhere negative (beyond the tolerance band) means the superlevel
    boundaries are strictly convex at the samples; everywhere inside the
    band means nowhere strict (flat level lines); anything else is
    mixed/inconclusive.  The band is ``1e-7 * (1 + ||H_u||)`` per point,
    separating exact product-case zeros from numerical noise.  About 64
    vertices per level are sampled; those where the derivatives are
    undefined (see ``fld.regular``) or the gradient vanishes are skipped.
    """
    window = window or fld.default_window
    tags, diags = {}, {}
    for c in levels:
        curves = extract_level_curve(fld, c, window, h)
        pts = np.vstack([cv.vertices for cv in curves]) if curves else np.empty((0, 2))
        if len(pts) > 64:
            pts = pts[::len(pts) // 64]
        pts = pts[fld.regular(pts)]
        g = np.asarray(fld.gradient(pts), dtype=float)
        keep = ~_critical(fld, pts, g)
        H = np.asarray(fld.hessian(pts[keep]), dtype=float)
        forms = _tangent_forms(g[keep], H)
        bands = 1e-7 * (1.0 + np.abs(H).max(axis=(-2, -1), initial=0.0))
        if len(forms) < 8:
            tags[c] = "mixed/inconclusive"
            diags[c] = {"n_samples": len(forms), "note": "too few valid samples"}
            continue
        if np.all(forms < -bands):
            tags[c] = "strictly_convex_everywhere"
        elif np.all(np.abs(forms) <= bands):
            tags[c] = "nowhere_strict"
        else:
            tags[c] = "mixed/inconclusive"
        diags[c] = {"n_samples": int(len(forms)), "form_min": float(forms.min()),
                    "form_max": float(forms.max())}
    return StrictnessClassification(tags=tags, diagnostics=diags)
