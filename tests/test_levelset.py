import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from martinlevels import cli
from martinlevels import fields as flds
from martinlevels import geometry as geo
from martinlevels import greenratio as gr
from martinlevels import levelset as ls


class ScaledField(flds.ScalarField):
    """kappa * u, for scale-invariance checks."""

    def __init__(self, base, kappa):
        self.base = base
        self.kappa = kappa
        self.domain = base.domain
        self.name = f"{kappa}*{base.name}"
        self.default_window = base.default_window

    def value(self, p, check=True):
        return self.kappa * self.base.value(p, check=check)

    def gradient(self, p):
        return self.kappa * self.base.gradient(p)

    def hessian(self, p):
        return self.kappa * self.base.hessian(p)


class TestExtraction:
    def test_strip_single_open_curve_through_axis(self):
        s = flds.strip_martin()
        w = geo.WindowBox((0.0, -np.pi / 2), (3.0, np.pi / 2))
        curves = ls.extract_level_curve(s, math.sinh(1.0), w, 0.01)
        assert len(curves) == 1
        curve = curves[0]
        assert not curve.closed
        d = np.linalg.norm(curve.vertices - [1.0, 0.0], axis=1)
        assert d.min() <= 0.01

    def test_level_not_attained_gives_empty(self):
        s = flds.strip_martin()
        w = geo.WindowBox((0.0, -np.pi / 2), (1.0, np.pi / 2))
        assert ls.extract_level_curve(s, 100.0, w, 0.02) == []

    def test_exterior_curve_through_known_point(self):
        e = flds.exterior_martin()
        w = geo.WindowBox((0.0, -3.0), (6.0, 3.0))
        curves = ls.extract_level_curve(e, 1.5, w, 0.02)
        pts = np.vstack([c.vertices for c in curves])
        assert np.linalg.norm(pts - [2.0, 0.0], axis=1).min() <= 0.02

    def test_vertex_level_residual(self):
        s = flds.strip_martin()
        w = geo.WindowBox((0.0, -np.pi / 2), (3.0, np.pi / 2))
        h = 0.02
        for curve in ls.extract_level_curve(s, 1.0, w, h):
            for p in curve.vertices[::5]:
                grad = np.linalg.norm(s.gradient(p))
                assert abs(s.value(p, check=False) - 1.0) <= 0.25 * h * grad

    def test_consecutive_vertices_are_close(self):
        s = flds.strip_martin()
        w = geo.WindowBox((0.0, -np.pi / 2), (3.0, np.pi / 2))
        h = 0.02
        for curve in ls.extract_level_curve(s, 2.0, w, h):
            gaps = np.linalg.norm(np.diff(curve.vertices, axis=0), axis=1)
            assert gaps.max() <= 2.0 * h * math.sqrt(2.0)

    def test_closed_loop_detected(self):
        class Bump(flds.ScalarField):
            name = "bump"
            domain = geo.Sector(math.inf)
            default_window = None

            def value(self, p, check=True):
                p = np.asarray(p)
                return np.exp(-((p[..., 0] - 2.0) ** 2 + p[..., 1] ** 2))[()]

        curves = ls.extract_level_curve(Bump(), 0.5, geo.WindowBox((0.5, -2.0), (4.0, 2.0)), 0.02)
        assert len(curves) == 1
        assert curves[0].closed


class TestConvexityTest:
    def test_circle_samples_convex(self):
        th = np.linspace(0, 2 * np.pi, 100, endpoint=False)
        pts = np.column_stack([np.cos(th), np.sin(th)])
        rep = ls.convexity_test(pts, tol=1e-9)
        assert rep.verdict == "convex"
        assert rep.hull_deviation <= 1e-12

    def test_l_shape_nonconvex(self):
        corners = np.array([[0, 0], [1, 0], [1, 0.4], [0.4, 0.4], [0.4, 1], [0, 1], [0, 0]],
                           dtype=float)
        pts = []
        for a, b in zip(corners, corners[1:]):
            ts = np.linspace(0, 1, 12, endpoint=False)
            pts.append(a + ts[:, None] * (b - a))
        rep = ls.convexity_test(np.vstack(pts), tol=1e-6)
        assert rep.verdict == "non_convex"
        assert rep.witness is not None

    def test_degenerate_collinear_inconclusive(self):
        xs = np.linspace(0, 1, 20)
        pts = np.column_stack([xs, xs])
        rep = ls.convexity_test(pts, tol=1e-9)
        assert rep.verdict == "inconclusive"

    def test_too_few_points_raises(self):
        with pytest.raises(ls.LevelSetError):
            ls.convexity_test(np.zeros((4, 2)))

    def test_strip_levels_convex(self):
        s = flds.strip_martin()
        w = geo.WindowBox((0.0, -np.pi / 2), (4.0, np.pi / 2))
        h = 0.01
        for c in (0.5, 1.0, 2.0, 5.0):
            curves = ls.extract_level_curve(s, c, w, h)
            closure = ls.window_closure_points(w, s, c)
            rep = ls.convexity_test(np.vstack([cv.vertices for cv in curves]), closure=closure,
                                    tol=2 * h, fld=s, level=c)
            assert rep.verdict == "convex", f"c={c}: {rep.hull_deviation}"

    def test_hull_idempotence(self):
        th = np.linspace(0, 2 * np.pi, 64, endpoint=False)
        pts = np.column_stack([2 * np.cos(th), np.sin(th)])
        rep = ls.convexity_test(pts, tol=1e-9)
        assert rep.verdict == "convex"
        hull = ls.convex_hull_2d(pts)
        rep2 = ls.convexity_test(hull, tol=1e-9)
        assert rep2.verdict == "convex"
        assert rep2.hull_deviation == 0.0

    def test_witness_soundness(self):
        e = flds.exterior_martin()
        w = geo.WindowBox((0.0, -3.0), (6.0, 3.0))
        c = 1.5
        curves = ls.extract_level_curve(e, c, w, 0.02)
        closure = ls.window_closure_points(w, e, c)
        rep = ls.convexity_test(np.vstack([cv.vertices for cv in curves]), closure=closure,
                                tol=0.04, fld=e, level=c)
        assert rep.verdict == "non_convex"
        assert rep.witness_verified
        p, q, mid = (np.asarray(v) for v in rep.witness)
        assert e.value(p) > c and e.value(q) > c
        assert np.allclose(mid, 0.5 * (p + q))
        assert (not e.domain.contains(mid)) or e.value(mid) <= c

    def test_witness_search_lets_field_errors_through(self):
        # a bug in a field's gradient is an error, not an unverified witness
        class BrokenGradient(ScaledField):
            def gradient(self, p):
                raise TypeError("broken gradient")

        e = BrokenGradient(flds.exterior_martin(), 1.0)
        w = geo.WindowBox((0.0, -3.0), (6.0, 3.0))
        c = 1.5
        curves = ls.extract_level_curve(e, c, w, 0.02)
        closure = ls.window_closure_points(w, e, c)
        with pytest.raises(TypeError, match="broken gradient"):
            ls.convexity_test(np.vstack([cv.vertices for cv in curves]), closure=closure,
                              tol=0.04, fld=e, level=c)

    def test_certificates_agree_where_form_is_negative(self):
        # strictly negative tangent form along the whole extracted curve
        # implies the hull certificate also returns convex
        u = flds.slit_sector_martin()
        w = geo.WindowBox((0.0, -4.0), (4.0, 4.0))
        h = 0.02
        c = 8.0
        curves = ls.extract_level_curve(u, c, w, h)
        pts = np.vstack([cv.vertices for cv in curves])
        forms = [ls.tangent_hessian_form(u, p) for p in pts[::5]]
        assert max(forms) < -1e-6
        closure = ls.window_closure_points(w, u, c)
        rep = ls.convexity_test(pts, closure=closure, tol=2 * h)
        assert rep.verdict == "convex"

    def test_scale_invariance_of_verdicts(self):
        base = flds.strip_martin()
        w = geo.WindowBox((0.0, -np.pi / 2), (3.0, np.pi / 2))
        h = 0.02
        for kappa in (0.125, 7.5):
            scaled = ScaledField(base, kappa)
            for c in (0.5, 2.0):
                r1, r2 = (ls.convexity_test(np.vstack([cv.vertices for cv in
                                                       ls.extract_level_curve(f, level, w, h)]),
                                            tol=2 * h)
                          for f, level in ((base, c), (scaled, kappa * c)))
                assert r1.verdict == r2.verdict


class TestMidpointWitness:
    def test_exterior_symmetric_pair(self):
        e = flds.exterior_martin()
        w = ls.midpoint_witness_search(e, 1.5, [((2.0, 1.0), (2.0, -1.0))])
        assert w is not None
        p, q, mid = w
        assert e.value(np.asarray(p)) == pytest.approx(1.6)
        assert mid == (2.0, 0.0)

    def test_exterior_every_axis_level(self):
        e = flds.exterior_martin()
        x0 = 3.0
        c = e.value(np.array([x0, 0.0]))
        assert c == pytest.approx(8.0 / 3.0)
        pairs = [((x0, y), (x0, -y)) for y in (0.25, 0.5, 1.0)]
        assert ls.midpoint_witness_search(e, c, pairs) is not None

    def test_strip_has_no_witness(self):
        s = flds.strip_martin()
        rng = np.random.default_rng(17)
        for c in (0.5, 1.0, 2.0):
            pairs = []
            for _ in range(60):
                x, y = rng.uniform(0.2, 3.5), rng.uniform(0.0, 1.5)
                pairs.append(((x, y), (x, -y)))
                x2, y2 = rng.uniform(0.2, 3.5), rng.uniform(-1.5, 1.5)
                x3, y3 = rng.uniform(0.2, 3.5), rng.uniform(-1.5, 1.5)
                pairs.append(((x2, y2), (x3, y3)))
            assert ls.midpoint_witness_search(s, c, pairs) is None


class TestTangentForm:
    def test_halfplane_v_identity(self):
        v = flds.sector_martin(2)
        rng = np.random.default_rng(23)
        for _ in range(100):
            x = rng.uniform(0.2, 4.0)
            y = rng.uniform(-0.95, 0.95) * x
            p = np.array([x, y])
            form = ls.tangent_hessian_form(v, p)
            val = v.value(p)
            assert abs(form + 8.0 * val) <= 1e-9 * (1.0 + abs(form))

    def test_strip_closed_form(self):
        s = flds.strip_martin()
        got = ls.tangent_hessian_form(s, np.array([1.0, 0.0]))
        expected = -math.sinh(1.0) * (math.sin(0.0) ** 2 + math.cosh(1.0) ** 2)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(-2.79827, abs=1e-5)

    def test_strip_symbolic_identity_on_level_points(self):
        s = flds.strip_martin()
        rng = np.random.default_rng(29)
        for _ in range(100):
            x, y = rng.uniform(0.2, 3.0), rng.uniform(-1.4, 1.4)
            p = np.array([x, y])
            form = ls.tangent_hessian_form(s, p)
            u = s.value(p)
            ref = -u * (math.sin(y) ** 2 + math.cosh(x) ** 2)
            assert abs(form - ref) <= 1e-9 * (1.0 + abs(ref))

    def test_exterior_positive_on_axis(self):
        e = flds.exterior_martin()
        assert ls.tangent_hessian_form(e, np.array([2.0, 0.0])) > 0.0

    def test_critical_point_raises(self):
        v = flds.sector_martin(2)

        class Shift(ScaledField):
            def gradient(self, p):
                return np.zeros(2)

        with pytest.raises(ls.LevelSetError):
            ls.tangent_hessian_form(Shift(v, 1.0), np.array([1.0, 0.0]))


class TestStrictness:
    def test_strip_strictly_convex_everywhere(self):
        s = flds.strip_martin()
        cls = ls.classify_strictness(s, [0.5, 1.0, 2.0], window=s.default_window, h=0.02)
        assert all(tag == "strictly_convex_everywhere" for tag in cls.tags.values())

    def test_flat_field_nowhere_strict(self):
        hx = flds.sector_martin(1)
        cls = ls.classify_strictness(hx, [0.5, 1.0], window=hx.default_window, h=0.02)
        assert all(tag == "nowhere_strict" for tag in cls.tags.values())

    def test_cylinder_mode_sign_reported(self):
        # A = B modes have positive tangent form at the waist and negative
        # on the far branches; the classifier reports whatever the sampled
        # signs support together with diagnostics
        cyl = flds.cylinder_martin(1.0, 1.0)
        w = geo.WindowBox((-2.0, -1.0), (2.0, 1.0))
        cls = ls.classify_strictness(cyl, [1.0, 2.5], window=w, h=0.01)
        assert cls.tags[1.0] == "mixed/inconclusive"
        assert cls.diagnostics[1.0]["form_max"] > 0.0
        assert cls.tags[2.5] == "strictly_convex_everywhere"

    def test_unattained_level_inconclusive(self):
        s = flds.strip_martin()
        cls = ls.classify_strictness(s, [1e9], window=s.default_window, h=0.02)
        assert cls.tags[1e9] == "mixed/inconclusive"


# ---------------------------------------------------------------------------
# The per-cell, per-edge and per-point loops the array passes replaced,
# kept here as references.
# ---------------------------------------------------------------------------

def reference_marching_squares(vals, mask, xs, ys, c):
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
        else:
            center_above = 0.25 * (vals[i, j] + vals[i + 1, j] + vals[i, j + 1] + vals[i + 1, j + 1]) > c
            if (k == 5) == center_above:
                segs = [(xedge(i, j), yedge(i + 1, j)), (xedge(i, j + 1), yedge(i, j))]
            else:
                segs = [(xedge(i, j), yedge(i, j)), (yedge(i + 1, j), xedge(i, j + 1))]
        segments.extend(segs)
    return segments, positions


def reference_hull_boundary_deviation(points, hull):
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


def reference_nearest_hull_edge(p, hull):
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


def reference_excluded(fld, c, p):
    p = np.asarray(p, dtype=float)
    if not fld.domain.contains(p):
        return True
    return float(fld.value(p, check=False)) <= c


def reference_nudge_inward(fld, c, p, scales):
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
        if not reference_excluded(fld, c, q):
            return q
    return None


def reference_verified_witness(fld, c, deepest, hull, scale):
    k = reference_nearest_hull_edge(deepest, hull)
    a, b = hull[k], hull[(k + 1) % len(hull)]
    scales = [0.25 * scale, scale, 4.0 * scale]
    ends_a = [a] + [p for p in [reference_nudge_inward(fld, c, a, scales)] if p is not None]
    ends_b = [b] + [p for p in [reference_nudge_inward(fld, c, b, scales)] if p is not None]
    n_scan = 129
    ts = np.linspace(0.0, 1.0, n_scan)
    for a2 in reversed(ends_a):
        for b2 in reversed(ends_b):
            chord = a2[None, :] + ts[:, None] * (b2 - a2)[None, :]
            bad = [i for i in range(n_scan) if reference_excluded(fld, c, chord[i])]
            for i in bad:
                for r in range(1, min(i, n_scan - 1 - i) + 1):
                    p, q = chord[i - r], chord[i + r]
                    if not reference_excluded(fld, c, p) and not reference_excluded(fld, c, q):
                        mid = 0.5 * (p + q)
                        if reference_excluded(fld, c, mid):
                            return (tuple(p), tuple(q), tuple(mid))
    return None


def reference_window_closure_points(window, fld, c, n=33):
    (x0, y0), (x1, y1) = window.lower, window.upper
    edges = [np.column_stack([np.linspace(x0, x1, n), np.full(n, y0)]),
             np.column_stack([np.linspace(x0, x1, n), np.full(n, y1)]),
             np.column_stack([np.full(n, x0), np.linspace(y0, y1, n)]),
             np.column_stack([np.full(n, x1), np.linspace(y0, y1, n)])]
    keep = [p for edge in edges for p in edge if not reference_excluded(fld, c, p)]
    return np.asarray(keep) if keep else None


@st.composite
def masked_lattices(draw):
    """Small lattices of small integer values (so that saddles of both kinds
    and exact ties with the level are common) with NaN-masked nodes."""
    nx = draw(st.integers(2, 7))
    ny = draw(st.integers(2, 7))
    vals = np.array(draw(st.lists(st.integers(-2, 2), min_size=nx * ny, max_size=nx * ny)),
                    dtype=float).reshape(nx, ny)
    mask = np.array(draw(st.lists(st.sampled_from([True, True, True, False]),
                                  min_size=nx * ny, max_size=nx * ny))).reshape(nx, ny)
    vals[~mask] = np.nan
    c = draw(st.sampled_from([0.0, 0.5, -0.5, 1.25]))
    xs = np.linspace(0.0, 1.0, nx) ** 1.3
    ys = -1.0 + np.cumsum(np.linspace(0.5, 1.5, ny))
    return vals, mask, xs, ys, c


def _saddles(center):
    """2x2 lattices in saddle cases 5 and 10 with the given center value sign."""
    hi, lo = (2.0, -1.0) if center > 0 else (1.0, -2.0)
    case5 = np.array([[hi, lo], [lo, hi]])
    return [(case5, np.ones((2, 2), bool), np.array([0.0, 1.0]), np.array([0.0, 1.0]), 0.0),
            (case5[::-1].copy(), np.ones((2, 2), bool), np.array([0.0, 1.0]),
             np.array([0.0, 1.0]), 0.0)]


class TestArrayPassesMatchReferences:
    @settings(max_examples=300, deadline=None)
    @given(masked_lattices())
    @example(_saddles(+1)[0]).via("saddle 5, center above")
    @example(_saddles(+1)[1]).via("saddle 10, center above")
    @example(_saddles(-1)[0]).via("saddle 5, center below")
    @example(_saddles(-1)[1]).via("saddle 10, center below")
    def test_marching_squares(self, lattice):
        vals, mask, xs, ys, c = lattice
        ref_segments, ref_positions = reference_marching_squares(vals, mask, xs, ys, c)
        segments, positions = ls._marching_squares(vals, mask, xs, ys, c)
        assert len(segments) == len(ref_segments)
        node_of = {}
        for (a, b), (ra, rb) in zip(segments, ref_segments):
            for node, key in ((a, ra), (b, rb)):
                assert node_of.setdefault(key, node) == node
                assert tuple(positions[node]) == ref_positions[key]
        assert len(set(node_of.values())) == len(node_of) == len(positions)
        relabeled = [(node_of[a], node_of[b]) for a, b in ref_segments]
        assert ls._stitch(relabeled) == ls._stitch(segments) == reference_stitch(segments)

    def test_saddle_examples_cover_both_splits(self):
        cuts = set()
        for center in (+1, -1):
            for vals, mask, xs, ys, c in _saddles(center):
                segments, _ = ls._marching_squares(vals, mask, xs, ys, c)
                assert len(segments) == 2
                cuts.add(tuple(sorted(map(tuple, map(sorted, segments)))))
        assert len(cuts) == 2

    @pytest.mark.parametrize("seed", range(6))
    def test_hull_boundary_deviation(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 400))
        pts = rng.normal(size=(n, 2)) * rng.uniform(0.1, 10.0, size=2)
        pts = np.vstack([pts, pts[: n // 4]])             # duplicate points
        hull = geo.convex_hull_2d(pts)
        on_hull = (pts[:, None, :] == hull[None, :, :]).all(axis=2).any(axis=1)
        for h in (hull, np.insert(hull, 2, hull[2], axis=0)):   # with a zero-length edge
            dev = ls.hull_boundary_deviation(pts, h)
            ref = reference_hull_boundary_deviation(pts, h)
            assert np.all(dev[on_hull] == 0.0)
            assert np.all(ref[on_hull] == 0.0)
            # the reference projects through BLAS gemv, which may fuse the
            # multiply-add: the two agree to an ulp of the coordinates
            assert np.max(np.abs(dev - ref)) <= 1e-15 * max(1.0, np.abs(pts).max())
            for p in pts[:: max(1, n // 20)]:
                assert ls._nearest_hull_edge(p, h) == reference_nearest_hull_edge(p, h)

    def test_hull_deviation_blocks(self, monkeypatch):
        rng = np.random.default_rng(11)
        pts = rng.uniform(-1.0, 1.0, size=(500, 2))
        hull = geo.convex_hull_2d(pts)
        whole = ls.hull_boundary_deviation(pts, hull)
        monkeypatch.setattr(ls, "_BLOCK", 1)
        assert np.array_equal(ls.hull_boundary_deviation(pts, hull), whole)

    @pytest.mark.parametrize("c", [1.5, 3.0])
    def test_verified_witness_on_exterior(self, c):
        e = flds.exterior_martin()
        w, h = e.default_window, 0.02
        curves = ls.extract_level_curve(e, c, w, h)
        closure = ls.window_closure_points(w, e, c)
        ref_closure = reference_window_closure_points(w, e, c)
        assert np.array_equal(closure, ref_closure)
        pts = np.vstack([cv.vertices for cv in curves])
        hull = geo.convex_hull_2d(np.vstack([pts, closure]))
        dev = ls.hull_boundary_deviation(pts, hull)
        deepest = pts[int(np.argmax(dev))]
        assert dev.max() > 2 * 2 * h
        k = ls._nearest_hull_edge(deepest, hull)
        got = ls._verified_witness(e, c, hull[k], hull[(k + 1) % len(hull)], scale=2 * h)
        assert got is not None
        assert got == reference_verified_witness(e, c, deepest, hull, scale=2 * h)


class CountingField(flds.ScalarField):
    """Wraps a field and counts its value calls."""

    def __init__(self, base):
        self.base = base
        self.domain = base.domain
        self.name = base.name
        self.default_window = base.default_window
        self.calls = 0

    def value(self, p, check=True):
        self.calls += 1
        return self.base.value(p, check=check)


def reference_lattice(fld, window, h):
    """The whole-lattice evaluation that the row-blocked one replaced."""
    xs, ys = window.lattice(h)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    mask = np.asarray(fld.domain.contains(np.stack([X, Y], axis=-1)))
    vals = np.full(X.shape, np.nan)
    if mask.any():
        vals[mask] = np.asarray(fld.value(np.stack([X[mask], Y[mask]], axis=-1),
                                          check=False), dtype=float)
    return xs, ys, vals, mask


def lattice_value_calls(window, h):
    """Value calls of one lattice evaluation: one per block of lattice rows."""
    return -(-len(window.lattice(h)[0]) // geo.LATTICE_BLOCK)


class TestLatticeMemo:
    def test_levels_share_one_evaluation(self):
        fld = CountingField(flds.strip_martin())
        w = geo.WindowBox((0.0, -np.pi / 2), (4.0, np.pi / 2))
        fresh = [ls.extract_level_curve(flds.strip_martin(), c, w, 0.02)
                 for c in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)]
        got = [ls.extract_level_curve(fld, c, w, 0.02) for c in (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)]
        assert fld.calls == lattice_value_calls(w, 0.02) == 4
        for a, b in zip(got, fresh):
            assert [cv.vertices.tolist() for cv in a] == [cv.vertices.tolist() for cv in b]

    def test_a_new_field_window_or_h_evaluates_again(self):
        fld = CountingField(flds.strip_martin())
        w = geo.WindowBox((0.0, -np.pi / 2), (3.0, np.pi / 2))
        ls.extract_level_curve(fld, 1.0, w, 0.02)
        ls.extract_level_curve(fld, 1.0, geo.WindowBox((0.0, -np.pi / 2), (3.0, np.pi / 2)), 0.02)
        first = lattice_value_calls(w, 0.02)
        assert fld.calls == first                    # equal windows share the lattice
        ls.extract_level_curve(fld, 1.0, w, 0.05)
        w2 = geo.WindowBox((0.0, -1.0), (3.0, 1.0))
        ls.extract_level_curve(fld, 1.0, w2, 0.05)
        assert fld.calls == first + lattice_value_calls(w, 0.05) + lattice_value_calls(w2, 0.05)

    def test_two_fields_on_one_window_get_their_own_curves(self):
        w = geo.WindowBox((0.0, -3.0), (6.0, 3.0))
        s, e = flds.strip_martin(), flds.exterior_martin()
        for _ in range(2):
            strip_pts = np.vstack([cv.vertices for cv in ls.extract_level_curve(s, 1.0, w, 0.05)])
            ext_pts = np.vstack([cv.vertices for cv in ls.extract_level_curve(e, 1.0, w, 0.05)])
            assert np.allclose(np.sinh(strip_pts[:, 0]) * np.cos(strip_pts[:, 1]), 1.0, atol=0.02)
            assert np.allclose(e.value(ext_pts, check=False), 1.0, atol=0.02)

    @pytest.mark.parametrize("make", [flds.strip_martin, flds.exterior_martin,
                                      flds.slit_sector_martin,
                                      lambda: flds.cylinder_martin(1.0, 1.0)],
                             ids=["strip", "exterior", "slit_sector", "cylinder"])
    def test_blocks_equal_the_whole_lattice(self, make):
        fld = make()
        got = ls._lattice(fld, fld.default_window, 0.01)
        want = reference_lattice(fld, fld.default_window, 0.01)
        assert len(got[0]) > 2 * geo.LATTICE_BLOCK
        for a, b in zip(got, want):
            assert np.array_equal(a, b, equal_nan=a.dtype.kind == "f")

    def test_grid_field_values_cannot_go_stale_under_the_memo(self):
        # doubling the values in place used to succeed, and the memo then
        # returned the curves of the old values
        fld = strip_grid_field()
        w = fld.default_window
        ls.extract_level_curve(fld, 1.0, w, 0.05)
        try:
            fld.values *= 2.0
        except ValueError:
            pass
        got = ls.extract_level_curve(fld, 1.0, w, 0.05)
        want = ls.extract_level_curve(gr.GridField(fld.grid, fld.values.copy()), 1.0, w, 0.05)
        assert [c.vertices.tolist() for c in got] == [c.vertices.tolist() for c in want]
        assert not fld.values.flags.writeable

    def test_lattice_over_physical_memory_is_refused_before_allocating(self, monkeypatch):
        fld = flds.strip_martin()
        xs, ys = fld.default_window.lattice(0.05)
        need = len(xs) * len(ys) * (8 + 1)                # float values, bool mask
        monkeypatch.setattr(geo, "physical_memory", lambda: need - 1)

        def no_blocks(*args):
            raise AssertionError("the lattice was allocated")

        monkeypatch.setattr(ls, "lattice_blocks", no_blocks)
        with pytest.raises(geo.GeometryError, match=f"{len(xs)} x {len(ys)} nodes needs "):
            ls.extract_level_curve(fld, 1.0, fld.default_window, 0.05)
        monkeypatch.undo()
        monkeypatch.setattr(geo, "physical_memory", lambda: need)
        assert ls.extract_level_curve(fld, 1.0, fld.default_window, 0.05)

    def test_a_refused_lattice_allocates_no_coordinates(self, monkeypatch):
        monkeypatch.setattr(geo, "physical_memory", lambda: 8 * 2 ** 30)
        fld = flds.strip_martin()
        tracemalloc.start()
        try:
            with pytest.raises(geo.GeometryError, match="300001 x 314161 nodes needs "):
                ls.extract_level_curve(fld, 1.0, fld.default_window, 1e-5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_memo_arrays_are_read_only(self):
        s = flds.strip_martin()
        xs, ys, vals, mask, _ = ls._lattice(s, s.default_window, 0.05)
        for a in (xs, ys, vals, mask):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = a[0]


#: the benchmark's 5-check strip audit
STRIP_AUDIT = {"field": "strip", "checks": [
    "harmonicity", "boundary_vanishing", {"name": "convexity", "params": {"h": 0.005}},
    {"name": "strictness", "params": {"h": 0.005}},
    {"name": "slice_maxima", "params": {"t": [1.0, 2.0, 5.0]}}]}


class TestLevelCurveMemo:
    def test_curves_are_shared_and_read_only(self):
        s = flds.strip_martin()
        first = ls.extract_level_curve(s, 1.0, s.default_window, 0.05)
        kept = list(first)
        first.clear()                 # a caller's list is its own
        again = ls.extract_level_curve(s, 1, s.default_window, 0.05)
        assert kept and len(again) == len(kept)
        assert all(a is b for a, b in zip(again, kept))
        for curve in again:
            with pytest.raises(ValueError):
                curve.vertices[0] = curve.vertices[0]

    @staticmethod
    def audit(tmp_path, monkeypatch, clear_between_checks):
        levels = []
        marching_squares = ls._marching_squares

        def counting(vals, mask, xs, ys, c):
            levels.append(c)
            return marching_squares(vals, mask, xs, ys, c)

        monkeypatch.setattr(ls, "_marching_squares", counting)
        if clear_between_checks:
            def clearing(run):
                return lambda *args: ls._lattice.cache_clear() or run(*args)

            monkeypatch.setattr(cli, "AUDIT_CHECKS", {
                name: (clearing(run), kinds) for name, (run, kinds) in cli.AUDIT_CHECKS.items()})
        cfg = tmp_path / "audit.json"
        cfg.write_text(json.dumps(STRIP_AUDIT))
        out = tmp_path / str(clear_between_checks)
        assert cli.main(["audit", "--config", str(cfg), "--out", str(out)]) == 0
        monkeypatch.undo()
        return levels, (out / "report.json").read_bytes()

    def test_strip_audit_marches_each_level_once(self, tmp_path, monkeypatch):
        levels, report = self.audit(tmp_path, monkeypatch, False)
        assert levels == [0.5, 1.0, 2.0]
        cleared_levels, cleared_report = self.audit(tmp_path, monkeypatch, True)
        assert cleared_levels == [0.5, 1.0, 2.0] * 2
        assert report == cleared_report


def boolean_index_lattice(fld, window, h):
    """The row-blocked lattice with its inside points gathered by boolean indexing."""
    xs, ys = window.lattice(h)
    mask = np.empty((len(xs), len(ys)), dtype=bool)
    vals = np.full(mask.shape, np.nan)
    for rows, pts in geo.lattice_blocks(xs, ys):
        inside = mask[rows] = fld.domain.contains(pts)
        if inside.any():
            vals[rows][inside] = fld.value(pts[inside], check=False)
    return xs, ys, vals, mask


def boolean_index_excluded(fld, c, pts):
    """``_excluded`` with its inside points gathered by boolean indexing."""
    out = ~np.asarray(fld.domain.contains(pts), dtype=bool)
    inside = ~out
    if inside.any():
        out[inside] = np.asarray(fld.value(pts[inside], check=False)) <= c
    return out


def solved_ring_field(h=0.05):
    ring = geo.ConvexRing(geo.square_body(2.0), geo.square_body(0.5))
    grid = gr.build_grid(ring, geo.WindowBox((-2.0, -2.0), (2.0, 2.0)), h)
    return gr.solve_dirichlet(grid, gr.ring_dirichlet_data(grid))


GATHER_CASES = {
    # the levelsets window of the benchmark, at its h
    "strip": (flds.strip_martin, geo.WindowBox((0.0, -np.pi / 2), (4.0, np.pi / 2)), 0.005, 1.0),
    "exterior-cut-disk": (flds.exterior_martin, geo.WindowBox((0.0, -2.0), (3.0, 2.0)), 0.01, 1.5),
    "solved-grid": (solved_ring_field, geo.WindowBox((-2.0, -2.0), (2.0, 2.0)), 0.013, 0.5),
}


class TestCompressedGathers:
    @pytest.mark.parametrize("case", GATHER_CASES)
    def test_lattice_and_exclusion_equal_boolean_indexing(self, case):
        make, window, h, c = GATHER_CASES[case]
        fld = make()
        got = ls._lattice(fld, window, h)
        want = boolean_index_lattice(fld, window, h)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        mask = got[3]
        assert mask.any() and not mask.all()
        xs, ys = window.lattice(h)
        pts = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)
        out = ls._excluded(fld, c, pts)
        assert out.dtype == bool and out.any() and not out.all()
        assert out.tobytes() == boolean_index_excluded(fld, c, pts).tobytes()


# ---------------------------------------------------------------------------
# References for the array stitch and strictness classification
# ---------------------------------------------------------------------------

def reference_stitch(segments):
    """The node-by-node walk replaced by the array stitch."""
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

    for node in list(adj):
        if node not in used and len(adj[node]) == 1:
            chains.append((walk(node), False))
    for node in list(adj):
        if node not in used:
            chains.append((walk(node), True))
    return chains


@st.composite
def path_and_cycle_graphs(draw):
    """Segment lists of disjoint paths (>= 2 nodes) and cycles (>= 3 nodes) on
    scattered node ids, each segment in either orientation, in any order."""
    kinds = draw(st.lists(st.tuples(st.booleans(), st.integers(2, 9)), max_size=6))
    sizes = [n + closed for closed, n in kinds]
    ids = draw(st.permutations(range(3 * sum(sizes) + 1)))
    segments, k = [], 0
    for (closed, _), n in zip(kinds, sizes):
        nodes = ids[k:k + n]
        k += n
        pairs = list(zip(nodes, nodes[1:])) + ([(nodes[-1], nodes[0])] if closed else [])
        segments += [(b, a) if draw(st.booleans()) else (a, b) for a, b in pairs]
    return draw(st.permutations(segments))


class TestStitchMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(path_and_cycle_graphs())
    def test_random_paths_and_cycles(self, segments):
        assert ls._stitch(segments) == reference_stitch(segments)

    @pytest.mark.parametrize("fld,c", [(flds.strip_martin(), 1.0), (flds.exterior_martin(), 1.5),
                                       (flds.slit_sector_martin(), 2.0),
                                       (flds.cylinder_martin(1.0, 1.0), 2.5)])
    def test_level_curve_segments(self, fld, c):
        xs, ys, vals, mask, _ = ls._lattice(fld, fld.default_window, 0.01)
        segments, _ = ls._marching_squares(vals, mask, xs, ys, c)
        assert ls._stitch(segments) == reference_stitch(segments)


def reference_tangent_hessian_form(fld, p):
    """The per-point planar tangent form replaced by the array one."""
    p = np.asarray(p, dtype=float)
    g = np.asarray(fld.gradient(p), dtype=float)
    scale = 1.0 + abs(float(fld.value(p, check=False)))
    if np.linalg.norm(g) < 1e-12 * scale:
        raise ls.LevelSetError(f"critical point at {p}: |grad u| < 1e-12 * scale")
    H = np.asarray(fld.hessian(p), dtype=float)
    T = np.array([g[1], -g[0]])
    return float(T @ H @ T)


def reference_classify_strictness(fld, levels, window, h, samples_per_level=64, band_scale=1e-7):
    """The per-point classification loop replaced by the array one; also
    returns the largest |H| entry over the valid samples of each level."""
    tags, diags, hmax = {}, {}, {}
    for c in levels:
        curves = ls.extract_level_curve(fld, c, window, h)
        pts = np.vstack([cv.vertices for cv in curves]) if curves else np.empty((0, 2))
        if len(pts) > samples_per_level:
            step = len(pts) // samples_per_level
            pts = pts[::step]
        forms, bands, hs = [], [], []
        for p in pts:
            try:
                H = np.asarray(fld.hessian(p), dtype=float)
                forms.append(reference_tangent_hessian_form(fld, p))
                bands.append(band_scale * (1.0 + float(np.abs(H).max())))
                hs.append(float(np.abs(H).max()))
            except (ls.LevelSetError, ValueError):
                continue
        hmax[c] = max(hs, default=0.0)
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
    return tags, diags, hmax


class FlatBelow(ScaledField):
    """The strip field with its gradient zeroed for x < 1: critical samples."""

    def gradient(self, p):
        p = np.asarray(p, dtype=float)
        return self.base.gradient(p) * (p[..., 0] >= 1.0)[..., None]


def strip_grid_field(h=0.05):
    """A GridField holding the strip field at the nodes of its default window."""
    s = flds.strip_martin()
    grid = gr.build_grid(s.domain, s.default_window, h)
    X, Y = np.meshgrid(grid.xs, grid.ys, indexing="ij")
    return gr.GridField(grid, np.sinh(X) * np.cos(Y), name="strip-grid")


STRICTNESS_CASES = {
    "strip": (flds.strip_martin, [0.5, 1.0, 2.0, 1e9], 0.02),
    "exterior": (flds.exterior_martin, [1.5, 3.0], 0.02),
    "slit_sector": (flds.slit_sector_martin, [0.5, 2.0, 8.0], 0.02),
    "halfplane_x": (lambda: flds.sector_martin(1), [0.5, 1.0], 0.02),
    "cylinder": (lambda: flds.cylinder_martin(1.0, 1.0), [1.0, 2.5], 0.01),
    "grid": (strip_grid_field, [0.5, 1.0, 2.0], 0.05),
    "critical": (lambda: FlatBelow(flds.strip_martin(), 1.0), [0.5, 1.0, 2.0, 4.0], 0.02),
}


class TestStrictnessMatchesReference:
    @pytest.mark.parametrize("name", sorted(STRICTNESS_CASES))
    def test_tags_samples_and_extremes(self, name):
        make, levels, h = STRICTNESS_CASES[name]
        fld = make()
        got = ls.classify_strictness(fld, levels, window=fld.default_window, h=h)
        tags, diags, hmax = reference_classify_strictness(fld, levels, fld.default_window, h)
        assert got.tags == tags
        for c in levels:
            assert got.diagnostics[c].keys() == diags[c].keys()
            assert got.diagnostics[c]["n_samples"] == diags[c]["n_samples"]
            for key in ("form_min", "form_max"):
                if key in diags[c]:
                    assert abs(got.diagnostics[c][key] - diags[c][key]) <= 1e-12 * (1.0 + hmax[c])

    def test_cases_cover_every_skip(self):
        # the grid field skips samples whose stencil leaves the window and
        # the flattened strip skips critical samples
        for name in ("grid", "critical"):
            make, levels, h = STRICTNESS_CASES[name]
            fld = make()
            for c in levels:
                curves = ls.extract_level_curve(fld, c, fld.default_window, h)
                pts = np.vstack([cv.vertices for cv in curves])
                pts = pts[::max(1, len(pts) // 64)]
                n = ls.classify_strictness(fld, [c], h=h).diagnostics[c]["n_samples"]
                if n < len(pts):
                    break
            else:
                pytest.fail(f"{name}: no level skips a sample")

    def test_tangent_form_on_point_arrays(self):
        s = flds.strip_martin()
        rng = np.random.default_rng(5)
        pts = np.column_stack([rng.uniform(0.2, 3.0, 40), rng.uniform(-1.4, 1.4, 40)])
        forms = ls.tangent_hessian_form(s, pts.reshape(4, 10, 2))
        assert forms.shape == (4, 10)
        ref = [reference_tangent_hessian_form(s, p) for p in pts]
        assert np.allclose(forms.ravel(), ref, rtol=1e-14, atol=0.0)
        with pytest.raises(ls.LevelSetError, match="critical point at"):
            ls.tangent_hessian_form(FlatBelow(s, 1.0), pts)
