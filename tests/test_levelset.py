import math

import numpy as np
import pytest

from martinlevels import fields as flds
from martinlevels import geometry as geo
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
            domain = geo.RightHalfplane()
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
            closure = ls.window_closure_points(curves, w, s, c)
            rep = ls.convexity_test(curves, closure=closure, tol=2 * h, fld=s, level=c)
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
        closure = ls.window_closure_points(curves, w, e, c)
        rep = ls.convexity_test(curves, closure=closure, tol=0.04, fld=e, level=c)
        assert rep.verdict == "non_convex"
        assert rep.witness_verified
        p, q, mid = (np.asarray(v) for v in rep.witness)
        assert e.value(p) > c and e.value(q) > c
        assert np.allclose(mid, 0.5 * (p + q))
        assert (not e.domain.contains(mid)) or e.value(mid) <= c

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
        closure = ls.window_closure_points(curves, w, u, c)
        rep = ls.convexity_test(curves, closure=closure, tol=2 * h)
        assert rep.verdict == "convex"

    def test_scale_invariance_of_verdicts(self):
        base = flds.strip_martin()
        w = geo.WindowBox((0.0, -np.pi / 2), (3.0, np.pi / 2))
        h = 0.02
        for kappa in (0.125, 7.5):
            scaled = ScaledField(base, kappa)
            for c in (0.5, 2.0):
                r1 = ls.convexity_test(ls.extract_level_curve(base, c, w, h), tol=2 * h)
                r2 = ls.convexity_test(ls.extract_level_curve(scaled, kappa * c, w, h), tol=2 * h)
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
        v = flds.halfplane_v()
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
        v = flds.halfplane_v()

        class Shift(ScaledField):
            def gradient(self, p):
                return np.zeros(2)

        with pytest.raises(ls.LevelSetError):
            ls.tangent_hessian_form(Shift(v, 1.0), np.array([1.0, 0.0]))

    def test_higher_dimensional_projection(self):
        class Saddle3(flds.ScalarField):
            """u = t^2 - y1^2/2 - y2^2/2 + y1 (3-d toy field)."""
            name = "saddle3"

            class Dom:
                dim = 3

                def contains(self, p):
                    return True

            domain = Dom()

            def value(self, p, check=True):
                t, a, b = p
                return t * t - 0.5 * a * a - 0.5 * b * b + a

            def gradient(self, p):
                t, a, b = p
                return np.array([2 * t, -a + 1.0, -b])

            def hessian(self, p):
                return np.diag([2.0, -1.0, -1.0])

        p = np.array([1.0, 0.0, 0.0])
        # gradient (2, 1, 0); tangent plane mixes the +2 and -1 axes, so the
        # max projected eigenvalue sits strictly between -1 and 2
        got = ls.tangent_hessian_form(Saddle3(), p)
        g = np.array([2.0, 1.0, 0.0])
        Q = np.linalg.qr(np.column_stack([g / np.linalg.norm(g), np.eye(3)[:, 1:]]))[0][:, 1:]
        expected = np.linalg.eigvalsh(Q.T @ np.diag([2.0, -1.0, -1.0]) @ Q).max()
        assert got == pytest.approx(expected, abs=1e-9)


class TestStrictness:
    def test_strip_strictly_convex_everywhere(self):
        s = flds.strip_martin()
        cls = ls.classify_strictness(s, [0.5, 1.0, 2.0], window=s.default_window, h=0.02)
        assert all(tag == "strictly_convex_everywhere" for tag in cls.tags.values())

    def test_flat_field_nowhere_strict(self):
        hx = flds.halfplane_coordinate()
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


class TestProductDirection:
    def _samples(self, seed=3):
        rng = np.random.default_rng(seed)
        return np.column_stack([rng.uniform(0.5, 3.0, 12), rng.uniform(-1.2, 1.2, 12)])

    def test_flat_coordinate_field(self):
        e = ls.product_direction_detect(flds.halfplane_coordinate(), self._samples())
        assert e is not None
        assert abs(e @ np.array([0.0, 1.0])) == pytest.approx(1.0, abs=1e-9)

    def test_strip_has_no_product_direction(self):
        assert ls.product_direction_detect(flds.strip_martin(), self._samples()) is None

    def test_axial_exponential(self):
        class ExpField(flds.ScalarField):
            name = "exp_t"

            class Dom:
                dim = 2

                def contains(self, p):
                    return True

            domain = Dom()

            def value(self, p, check=True):
                p = np.asarray(p)
                return np.exp(p[..., 0])[()]

            def gradient(self, p):
                return np.array([math.exp(p[0]), 0.0])

            def hessian(self, p):
                return np.array([[math.exp(p[0]), 0.0], [0.0, 0.0]])

        e = ls.product_direction_detect(ExpField(), self._samples())
        assert e is not None
        assert abs(e[1]) == pytest.approx(1.0, abs=1e-9)
