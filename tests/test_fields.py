import cmath
import math
import random

import numpy as np
import pytest

from martinlevels import cli
from martinlevels import fields as flds
from martinlevels import geometry as geo
from martinlevels import greenratio as gr

ALL_MARTIN = ["strip", "exterior", "slit_sector"]


def random_interior_points(fld, n, seed=0):
    rng = np.random.default_rng(seed)
    w = fld.default_window
    pts = []
    while len(pts) < n:
        p = np.array([rng.uniform(w.lower[0], w.upper[0]), rng.uniform(w.lower[1], w.upper[1])])
        if fld.domain.contains(p):
            try:
                if fld.domain.boundary_distance(p) > 0.05:
                    pts.append(p)
            except geo.GeometryError:
                continue
    return pts


class TestClosedFormValues:
    def test_strip_value(self):
        assert flds.strip_martin().value(np.array([1.0, 0.0])) == pytest.approx(math.sinh(1.0))

    def test_exterior_value(self):
        assert flds.exterior_martin().value(np.array([2.0, 0.0])) == pytest.approx(1.5)

    def test_slit_sector_value(self):
        # independent oracle: direct complex arithmetic
        z = 2 + 1j
        expected = cmath.sqrt(z ** 4 - 1).real
        assert expected == pytest.approx(2.940937034462573, abs=1e-12)
        got = flds.slit_sector_martin().value(np.array([2.0, 1.0]))
        assert got == pytest.approx(expected, abs=1e-12)

    def test_outside_domain_raises(self):
        with pytest.raises(flds.FieldError):
            flds.strip_martin().value(np.array([-1.0, 0.0]))
        with pytest.raises(flds.FieldError):
            flds.exterior_martin().value(np.array([0.5, 0.0]))

    def test_outside_error_names_the_count_and_the_first_point(self):
        pts = np.column_stack([np.full(512, 0.5), np.linspace(-2.0, 2.0, 512)])
        with pytest.raises(flds.FieldError) as err:
            flds.exterior_martin().value(pts)
        inside = np.hypot(pts[:, 0], pts[:, 1]) > 1.0
        assert str(err.value) == (f"{int((~inside).sum())} point(s) outside domain of "
                                  f"'exterior', first {pts[~inside][0].tolist()}")


class TestDerivatives:
    def test_halfplane_v_hessian_constant(self):
        v = flds.sector_martin(2)
        rng = np.random.default_rng(1)
        for _ in range(10):
            x = rng.uniform(0.2, 3.0)
            y = rng.uniform(-0.9, 0.9) * x
            H = v.hessian(np.array([x, y]))
            assert np.allclose(H, [[2.0, 0.0], [0.0, -2.0]], atol=1e-12)

    def test_strip_gradient(self):
        g = flds.strip_martin().gradient(np.array([1.0, 0.0]))
        assert g == pytest.approx([math.cosh(1.0), 0.0])
        assert g[0] == pytest.approx(1.543081, abs=1e-6)

    def test_exterior_gradient(self):
        g = flds.exterior_martin().gradient(np.array([2.0, 0.0]))
        assert g == pytest.approx([1.25, 0.0])

    @pytest.mark.parametrize("name", ALL_MARTIN + ["halfplane_v"])
    def test_consistency_with_finite_differences(self, name):
        fld = flds.field_from_name(name)
        for p in random_interior_points(fld, 100, seed=7):
            g = fld.gradient(p)
            g_fd = reference_fd_gradient(fld, p)
            assert np.linalg.norm(g - g_fd) <= 1e-6 * (1.0 + np.linalg.norm(g))
            H = fld.hessian(p)
            H_fd = flds.fd_hessian(fld, p)
            assert np.abs(H - H_fd).max() <= 1e-4 * (1.0 + np.abs(H).max())

    @pytest.mark.parametrize("name", ALL_MARTIN)
    def test_hessian_symmetric_traceless(self, name):
        fld = flds.field_from_name(name)
        for p in random_interior_points(fld, 25, seed=3):
            H = fld.hessian(p)
            assert H[0, 1] == H[1, 0]
            assert abs(H[0, 0] + H[1, 1]) <= 1e-9 * (1.0 + np.abs(H).max())

    def test_slit_branch_guard(self):
        fld = flds.slit_sector_martin()
        with pytest.raises(flds.SingularPointError):
            fld._guard(complex(1.0 + 1e-12, 0.0))
        with pytest.raises(flds.SingularPointError):
            fld._guard(complex(0.5, 1e-11))
        fld._guard(complex(2.0, 1.0))  # far from the tube: no error


#: interior_points(strip_martin(), 4, random.Random(7)): x, then y, per draw
PINNED_STRIP_POINTS = [[0.9714982944994871, -1.0968896701935924],
                       [1.9528034191195611, -1.3432310207468199],
                       [1.6076460129200676, -0.4219507119231096],
                       [0.17399677432412042, 0.023360044761936427]]


class TestHarmonicity:
    def test_strip_residual_small(self):
        res = flds.harmonicity_residual(flds.strip_martin(), (1.0, 0.0), 1e-3)
        assert abs(res) <= 1e-6 * math.sinh(1.0) * 10

    def test_exterior_residual_small(self):
        res = flds.harmonicity_residual(flds.exterior_martin(), (2.0, 1.0), 1e-3)
        assert abs(res) <= 1e-5

    def test_non_harmonic_probe(self):
        class Probe(flds.ScalarField):
            name = "x^2+y^2"
            domain = geo.Sector(math.inf)
            default_window = geo.WindowBox((0.0, -2.0), (4.0, 2.0))

            def value(self, p, check=True):
                p = np.asarray(p)
                return (p[..., 0] ** 2 + p[..., 1] ** 2)[()]

        res = flds.harmonicity_residual(Probe(), (1.0, 0.5), 1e-3)
        assert res == pytest.approx(4.0, abs=1e-6)
        # the residual does not shrink with h and stands far above the rounding floor
        passed, details = cli._check_harmonicity(Probe(), random.Random(3), {})
        assert not passed and abs(details["fitted_order"]) < 1e-3

    def test_interior_points_pin_the_generator_and_draw_order(self):
        pts = flds.interior_points(flds.strip_martin(), 4, random.Random(7))
        assert pts.tolist() == PINNED_STRIP_POINTS

    @pytest.mark.parametrize("name", ALL_MARTIN + ["halfplane_v"])
    def test_matches_pointwise_reference(self, name):
        """The stencil check and the stencil values in one call each give
        the residual of the per-point evaluation, bit for bit."""
        def reference(field, p, h):
            p = np.asarray(p, dtype=float)
            ex, ey = np.array([1.0, 0.0]), np.array([0.0, 1.0])
            pl, hl = p.astype(np.longdouble), np.longdouble(h)
            exl, eyl = ex.astype(np.longdouble), ey.astype(np.longdouble)
            total = (field.value(pl + hl * exl, check=False) + field.value(pl - hl * exl, check=False)
                     + field.value(pl + hl * eyl, check=False) + field.value(pl - hl * eyl, check=False)
                     - 4.0 * field.value(pl, check=False))
            return float(total / hl ** 2)

        fld = flds.field_from_name(name)
        pts = np.array(random_interior_points(fld, 10, seed=5))
        for h in (1e-2, 1e-3, 1e-4):
            ref = [reference(fld, p, h) for p in pts]
            assert [flds.harmonicity_residual(fld, p, h) for p in pts] == ref
            assert flds.harmonicity_residual(fld, pts, h).tolist() == ref

    def test_narrow_long_double_is_rejected(self, monkeypatch):
        monkeypatch.setattr(flds, "_longdouble_eps", lambda: 2.220446049250313e-16)
        with pytest.raises(flds.FieldError, match="2.22e-16"):
            flds.harmonicity_residual(flds.strip_martin(), (1.0, 0.0), 1e-3)
        # a finite-difference field evaluates in float64 and is unaffected
        fd = grid_field()
        assert fd.derivative_kind == "finite-difference"
        assert np.isfinite(flds.harmonicity_residual(fd, (1.0, 0.0), 1e-3))

    def test_platform_long_double_is_extended(self):
        # the precision the check relies on; 80-bit long double gives 1.08e-19
        assert flds._longdouble_eps() <= flds.LONGDOUBLE_EPS_MAX

    def test_stencil_leaving_domain_raises(self):
        with pytest.raises(flds.FieldError):
            flds.harmonicity_residual(flds.strip_martin(), (1e-4, 0.0), 1e-3)

    @pytest.mark.parametrize("name", ALL_MARTIN)
    def test_residual_order(self, name):
        fld = flds.field_from_name(name)
        pts = random_interior_points(fld, 40, seed=13)
        hs = [1e-2, 1e-3, 1e-4]
        worst = [max(abs(flds.harmonicity_residual(fld, p, h)) for p in pts) for h in hs]
        slope = np.polyfit(np.log(hs), np.log(worst), 1)[0]
        assert slope >= 1.9


class TestBoundaryAndPositivity:
    @pytest.mark.parametrize("name", ALL_MARTIN)
    def test_boundary_vanishing_matches_pointwise_reference(self, name):
        fld = flds.field_from_name(name)
        pts = fld.domain.boundary_points(fld.default_window, 200)
        worst, worst_p = -1.0, None
        for q in pts:
            v = abs(float(fld.value(q, check=False)))
            if v > worst:
                worst, worst_p = v, tuple(q)
        rep = flds.boundary_vanishing(fld, n_samples=200, tol=1e-8)
        assert (rep.max_abs, rep.worst_point) == (worst, worst_p)

    def test_boundary_vanishing_keeps_the_first_maximum(self):
        class Ties(flds.ScalarField):
            name = "ties"
            domain = geo.Strip()
            default_window = geo.WindowBox((0.0, -1.0), (3.0, 1.0))

            def value(self, p, check=True):
                return np.ones(np.shape(p)[:-1])[()]

        rep = flds.boundary_vanishing(Ties(), n_samples=50)
        first = Ties.domain.boundary_points(Ties.default_window, 50)[0]
        assert rep.max_abs == 1.0 and rep.worst_point == tuple(first)

    @pytest.mark.parametrize("name", ALL_MARTIN + ["halfplane_v", "halfplane_x",
                                                   "cylinder:A=1,B=1"])
    def test_boundary_vanishing(self, name):
        rep = flds.boundary_vanishing(flds.field_from_name(name), n_samples=200, tol=1e-8)
        assert rep.passed, f"max |u| on boundary = {rep.max_abs} at {rep.worst_point}"

    @pytest.mark.parametrize("name, walls", [
        ("strip", [lambda s: (3 * s, np.full_like(s, np.pi / 2)),
                   lambda s: (3 * s, np.full_like(s, -np.pi / 2)),
                   lambda s: (0 * s, np.pi * (s - 0.5))]),
        ("exterior", [lambda s: (np.cos(np.pi * (s - 0.5)), np.sin(np.pi * (s - 0.5))),
                      lambda s: (0 * s, 1 + 2 * s), lambda s: (0 * s, -1 - 2 * s)]),
        ("slit_sector", [lambda s: (4 * s, 4 * s), lambda s: (4 * s, -4 * s),
                         lambda s: (s, 0 * s)])], ids=["strip", "exterior", "slit_sector"])
    def test_boundary_samples_cover_every_wall(self, name, walls):
        # every point of each wall in the default window lies within one
        # lattice spacing of a sample
        fld = flds.field_from_name(name)
        window = fld.default_window
        xs, ys = window.lattice(max(window.extent()) / 199)
        spacing = max(np.diff(xs).max(), np.diff(ys).max())
        samples = fld.domain.boundary_points(window, 200)
        s = np.linspace(0.0, 1.0, 2001)
        for wall in walls:
            pts = np.column_stack(wall(s))
            gap = np.linalg.norm(pts[:, None] - samples[None], axis=-1).min(axis=1)
            assert gap.max() <= spacing

    @pytest.mark.parametrize("name", ALL_MARTIN)
    def test_interior_positivity(self, name):
        fld = flds.field_from_name(name)
        for p in random_interior_points(fld, 60, seed=5):
            assert fld.value(p) > 0.0

    def test_reflection_symmetry_exact(self):
        rng = np.random.default_rng(2)
        s = flds.strip_martin()
        e = flds.exterior_martin()
        for _ in range(40):
            x, y = rng.uniform(0.2, 3.0), rng.uniform(0.0, 1.4)
            assert s.value(np.array([x, y]), check=False) == s.value(np.array([x, -y]), check=False)
            x2, y2 = rng.uniform(1.2, 4.0), rng.uniform(0.0, 2.0)
            assert e.value(np.array([x2, y2]), check=False) == e.value(np.array([x2, -y2]), check=False)

    def test_exterior_off_axis_excess(self):
        # u(x, y) = u(x, -y) > u(x, 0) for x > 1, y != 0
        e = flds.exterior_martin()
        rng = np.random.default_rng(8)
        for _ in range(40):
            x = rng.uniform(1.05, 5.0)
            y = rng.uniform(0.05, 2.0)
            assert e.value(np.array([x, y])) > e.value(np.array([x, 0.0]))


class TestCylinderMode:
    def test_interval_eigenpair(self):
        mode = flds.cylinder_martin()
        assert mode.lam == pytest.approx(np.pi ** 2 / 4)
        assert mode.phi(1.0) == pytest.approx(0.0, abs=1e-15)
        assert mode.phi(-1.0) == pytest.approx(0.0, abs=1e-15)
        for y in np.linspace(-0.99, 0.99, 21):
            assert mode.phi(y) > 0.0
            # phi'' = -lam phi by centered differences
            h = 1e-4
            dd = (mode.phi(y + h) - 2 * mode.phi(y) + mode.phi(y - h)) / h ** 2
            assert dd == pytest.approx(-mode.lam * mode.phi(y), abs=1e-5)

    def test_axial_second_derivative_positive(self):
        fld = flds.cylinder_martin(1.0, 1.0)
        for t in (-1.5, 0.0, 2.0):
            for y in (-0.7, 0.0, 0.4):
                p = np.array([t, y])
                v = fld.value(p)
                vtt = fld.hessian(p)[0, 0]
                assert vtt == pytest.approx(fld.lam * v, rel=1e-12)
                assert vtt > 0.0

    @pytest.mark.parametrize("A,B", [(1.0, 0.0), (1.0, 0.5), (0.0, 2.0)])
    def test_holomorphic_field_matches_separated_form(self, A, B):
        rng = np.random.default_rng(11)
        p = np.column_stack([rng.uniform(-2.0, 2.0, 200), rng.uniform(-0.99, 0.99, 200)])
        t, y = p[:, 0], p[:, 1]
        # (A e^{rt t} + B e^{-rt t}) phi(y), rt = sqrt(lam), and its derivatives
        lam = (np.pi / 2) ** 2
        rt = math.sqrt(lam)
        axial = A * np.exp(rt * t) + B * np.exp(-rt * t)
        axial_d = rt * (A * np.exp(rt * t) - B * np.exp(-rt * t))
        phi = np.cos(np.pi * y / 2)
        dphi = -(np.pi / 2) * np.sin(np.pi * y / 2)
        value = axial * phi
        mixed = axial_d * dphi
        gradient = np.stack([axial_d * phi, axial * dphi], axis=-1)
        hessian = np.stack([np.stack([lam * value, mixed], axis=-1),
                            np.stack([mixed, axial * (-lam * phi)], axis=-1)], axis=-2)
        fld = flds.cylinder_martin(A, B)
        for got, ref in [(fld.value(p), value), (fld.gradient(p), gradient),
                         (fld.hessian(p), hessian)]:
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_coefficient_validation(self):
        with pytest.raises(flds.FieldError):
            flds.cylinder_martin(A=-1.0, B=0.5)
        with pytest.raises(flds.FieldError):
            flds.cylinder_martin(A=0.0, B=0.0)

    def test_registry_parses_coefficients(self):
        fld = flds.field_from_name("cylinder:A=2,B=0.5")
        assert fld.A == 2.0 and fld.B == 0.5
        with pytest.raises(flds.FieldError):
            flds.field_from_name("nonexistent")


def grid_field():
    s = flds.strip_martin()
    grid = gr.build_grid(s.domain, s.default_window, 0.05)
    X, Y = np.meshgrid(grid.xs, grid.ys, indexing="ij")
    return gr.GridField(grid, np.sinh(X) * np.cos(Y))


DERIVATIVE_FIELDS = {
    **{name: (lambda name=name: flds.field_from_name(name))
       for name in ALL_MARTIN + ["halfplane_v", "halfplane_x", "cylinder:A=1,B=0.5"]},
    "grid": grid_field,
}


def _probe_points(fld, n=60, seed=4):
    """Points of the field's window and a margin around it, plus points on
    and next to the slit, next to the window corners and on the walls."""
    rng = np.random.default_rng(seed)
    (x0, y0), (x1, y1) = fld.default_window.lower, fld.default_window.upper
    mx, my = 0.1 * (x1 - x0), 0.1 * (y1 - y0)
    pts = np.column_stack([rng.uniform(x0 - mx, x1 + mx, n), rng.uniform(y0 - my, y1 + my, n)])
    extra = [[0.5, 0.0], [0.5, 1e-12], [1.0 + 1e-12, 1e-13], [0.7, -3e-9], [0.0, 0.0],
             [x0, y0], [x0 + 1e-3, y0 + 1e-3], [x1 - 0.01, y1 - 0.06], [x1, 0.0]]
    return np.vstack([pts, extra])


def _raises(fn, p):
    try:
        fn(p)
    except ValueError:
        return True
    return False


class TestArrayDerivatives:
    @pytest.mark.parametrize("name", sorted(DERIVATIVE_FIELDS))
    def test_regular_marks_where_single_points_raise(self, name):
        fld = DERIVATIVE_FIELDS[name]()
        pts = _probe_points(fld)
        ok = fld.regular(pts)
        assert ok.shape == (len(pts),) and ok.dtype == bool
        for p, good in zip(pts, ok):
            assert _raises(fld.gradient, p) == _raises(fld.hessian, p) == (not good)
            assert fld.regular(p) == good
        assert 0 < ok.sum() < len(pts)

    @pytest.mark.parametrize("name", sorted(DERIVATIVE_FIELDS))
    def test_arrays_match_single_points(self, name):
        fld = DERIVATIVE_FIELDS[name]()
        pts = _probe_points(fld)
        pts = pts[fld.regular(pts)][:24]
        g, H = fld.gradient(pts), fld.hessian(pts)
        assert g.shape == (len(pts), 2) and H.shape == (len(pts), 2, 2)
        # numpy's complex powers take other code paths on 0-d arrays than on
        # longer ones, so the two agree to a few ulps of the largest entry
        for k, p in enumerate(pts):
            g1, H1 = fld.gradient(p), fld.hessian(p)
            assert g1.shape == (2,) and H1.shape == (2, 2)
            assert np.abs(g[k] - g1).max() <= 1e-14 * np.abs(g1).max()
            assert np.abs(H[k] - H1).max() <= 1e-14 * np.abs(H1).max()
        grid = pts.reshape(4, 6, 2)
        assert fld.gradient(grid).shape == (4, 6, 2)
        assert np.array_equal(fld.hessian(grid), H.reshape(4, 6, 2, 2))

    @pytest.mark.parametrize("name", sorted(DERIVATIVE_FIELDS))
    def test_one_bad_point_raises_for_the_array(self, name):
        fld = DERIVATIVE_FIELDS[name]()
        pts = _probe_points(fld)
        ok = fld.regular(pts)
        mixed = np.vstack([pts[ok][:3], pts[~ok][:1]])
        for fn in (fld.gradient, fld.hessian):
            with pytest.raises(ValueError):
                fn(mixed)

    def test_slit_tube_is_a_mask(self):
        fld = flds.slit_sector_martin()
        z = np.array([1.0 + 1e-12, 0.5 + 1e-11j, 2.0 + 1.0j, 0.5 + 0.5j])
        assert flds._slit_tube(z).tolist() == [True, True, False, False]
        with pytest.raises(flds.SingularPointError, match="z=0.5"):
            fld._guard(z[1:])
        fld._guard(z[2:])


def reference_fd_gradient(field, p, h=None):
    p = np.asarray(p, dtype=float)
    h = h or max(1e-5, 1e-5 * float(np.linalg.norm(p)))
    g = np.zeros(p.size)
    for k in range(p.size):
        e = np.zeros(p.size)
        e[k] = h
        g[k] = (field.value(p + e, check=False) - field.value(p - e, check=False)) / (2 * h)
    return g


def reference_fd_hessian(field, p, h=None):
    p = np.asarray(p, dtype=float)
    h = h or max(1e-4, 1e-4 * float(np.linalg.norm(p)))
    n = p.size
    H = np.zeros((n, n))
    f0 = field.value(p, check=False)
    for i in range(n):
        ei = np.zeros(n); ei[i] = h
        H[i, i] = (field.value(p + ei, check=False) - 2 * f0
                   + field.value(p - ei, check=False)) / h ** 2
        for j in range(i + 1, n):
            ej = np.zeros(n); ej[j] = h
            H[i, j] = H[j, i] = (field.value(p + ei + ej, check=False)
                                 - field.value(p + ei - ej, check=False)
                                 - field.value(p - ei + ej, check=False)
                                 + field.value(p - ei - ej, check=False)) / (4 * h ** 2)
    return H


class TestDifferencesMatchReferences:
    """Finite differences evaluate their stencils in one value call; the
    results equal those of the per-coordinate loops they replaced."""

    # halfplane_v is left out: numpy squares a complex 0-d array by another
    # path than a longer one, and the second difference amplifies that ulp by
    # 1/h^2 (1.9e-8 relative at h = 1e-4)
    @pytest.mark.parametrize("name", ALL_MARTIN + ["cylinder:A=1,B=1"])
    def test_fd_match_per_coordinate_loops(self, name):
        fld = flds.field_from_name(name)
        pts = np.array(random_interior_points(fld, 40, seed=5))
        H = flds.fd_hessian(fld, pts)
        assert H.shape == (40, 2, 2)
        # the default step comes from |p| by a sum of squares here and by a
        # BLAS dot product in the loops, so the two agree to a few ulps
        for k, p in enumerate(pts):
            H1 = reference_fd_hessian(fld, p)
            assert np.abs(H[k] - H1).max() <= 1e-14 * np.abs(H1).max()
            assert flds.fd_hessian(fld, p).shape == (2, 2)
        assert np.array_equal(flds.fd_hessian(fld, pts.reshape(4, 10, 2), h=1e-3),
                              flds.fd_hessian(fld, pts, h=1e-3).reshape(4, 10, 2, 2))

    def test_grid_field_matches_its_old_formulas(self):
        fld = grid_field()
        h = fld.grid.h
        pts = _probe_points(fld, n=200)
        ok = np.ones(len(pts), dtype=bool)
        for dx in (-h, 0.0, h):
            for dy in (-h, 0.0, h):
                ok &= fld._in_window(pts + [dx, dy])[2]
        assert np.array_equal(fld.regular(pts), ok)
        p = pts[ok]
        v = fld.value
        g = np.stack([(v(p + [h, 0.0]) - v(p - [h, 0.0])) / (2 * h),
                      (v(p + [0.0, h]) - v(p - [0.0, h])) / (2 * h)], axis=-1)
        v0 = v(p)
        fxx = (v(p + [h, 0]) - 2 * v0 + v(p - [h, 0])) / h ** 2
        fyy = (v(p + [0, h]) - 2 * v0 + v(p - [0, h])) / h ** 2
        fxy = (v(p + [h, h]) - v(p + [h, -h]) - v(p + [-h, h]) + v(p + [-h, -h])) / (4 * h ** 2)
        assert np.array_equal(fld.gradient(p), g)
        assert np.array_equal(fld.hessian(p), flds._symmetric(fxx, fxy, fyy))


class TestCylinderNames:
    @pytest.mark.parametrize("name,match", [
        ("cylinder:C=1", "unknown cylinder coefficient 'C'"),
        ("cylinder:A=abc", "cannot parse cylinder coefficient 'A=abc'"),
        ("cylinder:A", "cannot parse cylinder coefficient 'A'"),
        ("cylinder:A=1,", "unknown cylinder coefficient ''"),
        ("cylinder:B=inf", "'B=inf' is not finite"),
        ("cylinder:A=nan", "'A=nan' is not finite"),
    ])
    def test_malformed_items_are_named(self, name, match):
        with pytest.raises(flds.FieldError, match=match):
            flds.field_from_name(name)

    def test_well_formed_names(self):
        assert flds.field_from_name("cylinder").B == 0.0
        fld = flds.field_from_name("cylinder: A = 0.5 , B=2")
        assert (fld.A, fld.B) == (0.5, 2.0)
