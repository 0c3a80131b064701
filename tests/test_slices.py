import math

import numpy as np
import pytest

from martinlevels import fields as flds
from martinlevels import geometry as geo
from martinlevels import slices as sa


class TestSliceScan:
    def test_strip_maximum_on_axis(self):
        rep = sa.slice_scan(flds.strip_martin(), 1.0)
        assert rep.argmax[1] == pytest.approx(0.0, abs=1e-6)
        assert rep.max_value == pytest.approx(math.sinh(1.0), rel=1e-9)
        assert rep.max_value >= rep.center_value

    def test_exterior_maximum_off_axis(self):
        rep = sa.slice_scan(flds.exterior_martin(), 2.0, span=2.0)
        assert abs(rep.argmax[1]) > 0.5
        assert rep.max_value > rep.center_value
        assert flds.exterior_martin().value(np.array([2.0, 1.0])) == pytest.approx(1.6)

    def test_cylinder_maximum_at_center(self):
        rep = sa.slice_scan(flds.cylinder_martin(1.0, 1.0), 0.0)
        assert rep.argmax == pytest.approx((0.0, 0.0), abs=1e-6)
        assert rep.max_value == pytest.approx(2.0, rel=1e-9)

    def test_argmax_on_axis_when_rays_decrease(self):
        # symmetric slice with both rays strictly decreasing pins the
        # maximum to the axis
        for fld in (flds.strip_martin(), flds.cylinder_martin(1.0, 1.0)):
            rep = sa.slice_scan(fld, 1.0)
            rays = [sa.ray_monotonicity(fld, 1.0, direction) for direction in (+1.0, -1.0)]
            assert len(rays) == 2
            if all(r.decreasing for r in rays):
                assert abs(rep.argmax[1]) <= 1e-6

    def test_a_value_that_is_not_finite_is_a_field_error(self):
        # sinh(800) overflows; under the suite's warnings-as-errors config an
        # overflow warning would fail this test before the check
        fld = flds.strip_martin()
        with pytest.raises(flds.FieldError, match=r"not finite on the slice at t = 800$"):
            sa.slice_scan(fld, 800.0)
        for direction in (+1.0, -1.0):
            with pytest.raises(flds.FieldError, match=r"not finite on the slice at t = 800$"):
                sa.ray_monotonicity(fld, 800.0, direction)

    def test_unbounded_slice_needs_span(self):
        with pytest.raises(geo.GeometryError):
            sa.slice_scan(flds.exterior_martin(), 2.0)

    def test_sample_skips_what_the_span_clips_away(self):
        sl = flds.exterior_martin().domain.slice_at(0.5)      # |y| > sqrt(0.75)
        ys = sl.sample(8, span=2.0)
        assert len(ys) == 16 and np.all(np.abs(ys) > math.sqrt(0.75))
        one = geo.SliceSet(0.5, ((-np.inf, -2.0), (1.0, np.inf)))
        assert np.array_equal(one.sample(8, span=1.5), 1.0 + 0.5 * (np.arange(8) + 0.5) / 8)
        with pytest.raises(geo.GeometryError, match="leaves no part of the slice"):
            sl.sample(8, span=0.5)
        with pytest.raises(geo.GeometryError, match="leaves no part of the slice"):
            sa.slice_scan(flds.exterior_martin(), 0.5, span=0.5)


class TestSlicesMatchPointwiseReference:
    """Slice samples are evaluated in one call; the reports equal those of
    the per-point loop they replaced."""

    @pytest.mark.parametrize("fld, t, span", [(flds.strip_martin(), 1.0, None),
                                              (flds.strip_martin(), 5.0, None),
                                              (flds.exterior_martin(), 2.0, 2.0),
                                              (flds.cylinder_martin(1.0, 1.0), 0.5, None)])
    def test_slice_scan(self, fld, t, span):
        sl = fld.domain.slice_at(t)
        ys = sl.sample(512, span=span)
        ys = np.append(ys, 0.0) if sl.contains(0.0) else ys
        vals = np.asarray([float(fld.value(np.array([t, y]))) for y in ys])
        k = int(np.argmax(vals))
        step = float(np.min(np.diff(np.sort(ys))))
        lo = max(float(ys[k]) - step, float(ys.min()))
        hi = min(float(ys[k]) + step, float(ys.max()))
        y_star = sa._golden_max(lambda y: float(fld.value(np.array([t, y]))), lo, hi, tol=1e-8)
        u_star = float(fld.value(np.array([t, y_star])))
        if u_star < vals[k]:
            y_star, u_star = float(ys[k]), float(vals[k])
        rep = sa.slice_scan(fld, t, span=span)
        assert (rep.argmax, rep.max_value) == ((t, y_star), u_star)

    @pytest.mark.parametrize("fld, t, length", [(flds.strip_martin(), 1.0, None),
                                                (flds.exterior_martin(), 2.0, 2.0)])
    def test_ray_monotonicity(self, fld, t, length):
        for direction in (+1.0, -1.0):
            rep = sa.ray_monotonicity(fld, t, direction, length=length)
            n = length or math.pi / 2
            ys = direction * n * (np.arange(512) / 512)
            vals = [float(fld.value(np.array([t, y]))) for y in ys]
            tol = 1e-12 * max(abs(v) for v in vals)
            bad = [k for k in range(511) if not vals[k + 1] < vals[k] - tol]
            assert rep.decreasing == (not bad)
            if bad:
                k = bad[0]
                assert rep.first_violation == (float(ys[k + 1]), vals[k], vals[k + 1])


    @pytest.mark.parametrize("radii", [np.geomspace(5, 80, 12), np.geomspace(2, 40, 9)])
    def test_tangent_form_asymptotic(self, radii):
        u, v = flds.slit_sector_martin(), flds.sector_martin(2)

        def residual(z):
            p = np.array([z.real, z.imag])
            g = u.gradient(p)
            T = np.array([g[1], -g[0]])
            form = float(T @ u.hessian(p) @ T)
            return form + 8.0 * float(v.value(p, check=False)), form

        fit = sa.decay_fit(lambda r: residual(r * complex(1.0, 0.0))[0], radii)
        largest = None
        for r in 1.0 + (max(radii) - 1.0) * (np.arange(1, 4097) / 4096):
            z = r * complex(1.0, 0.0)
            if not u.domain.contains(np.array([z.real, z.imag])):
                continue
            try:
                _, form = residual(z)
            except (flds.FieldError, ValueError):
                continue
            if form >= 0.0:
                largest = float(r)
        got, got_largest = sa.tangent_form_asymptotic(u, v, radii)
        assert (got.slope, got_largest) == (fit.slope, largest)

    def test_tangent_form_residual_takes_arrays(self):
        u, v = flds.slit_sector_martin(), flds.sector_martin(2)
        z = np.array([[1.5 + 0.2j, 3.0 - 0.4j], [10.0 + 0.0j, 2.0 + 1.0j]])
        pts = np.stack([z.real, z.imag], axis=-1)
        resid, form = sa.tangent_form_residual(u, v, z)
        assert resid.shape == form.shape == (2, 2)
        resid_p, form_p = sa.tangent_form_residual(u, v, pts)
        assert np.array_equal(resid_p, resid) and np.array_equal(form_p, form)
        for k in np.ndindex(z.shape):
            r1, f1 = sa.tangent_form_residual(u, v, complex(z[k]))
            assert (float(r1), float(f1)) == pytest.approx((resid[k], form[k]), rel=1e-14)


class TestRayMonotonicity:
    def test_strip_strictly_decreasing(self):
        for direction in (+1, -1):
            rep = sa.ray_monotonicity(flds.strip_martin(), 1.0, direction)
            assert rep.decreasing

    def test_exterior_violation_near_axis(self):
        rep = sa.ray_monotonicity(flds.exterior_martin(), 2.0, +1, length=2.0)
        assert not rep.decreasing
        y, u_prev, u_here = rep.first_violation
        assert y <= 0.1
        assert u_here >= u_prev

    def test_cylinder_decreasing(self):
        rep = sa.ray_monotonicity(flds.cylinder_martin(1.0, 1.0), 0.0, +1)
        assert rep.decreasing

    def test_length_past_the_wall_stops_at_the_wall(self):
        fld = flds.strip_martin()
        for direction in (+1, -1):
            assert (sa.ray_monotonicity(fld, 1.0, direction, length=2.0)
                    == sa.ray_monotonicity(fld, 1.0, direction))

    def test_axis_point_outside_the_domain_raises(self):
        # (0.5, 0) lies in the removed unit disk
        for length in (None, 2.0):
            with pytest.raises(geo.GeometryError, match="no interval containing the axis point"):
                sa.ray_monotonicity(flds.exterior_martin(), 0.5, +1, length=length)


class TestRescale:
    def test_strip_mode_error_decreases(self):
        fld = flds.strip_martin()
        window = geo.WindowBox((-2.0, -2.0), (2.0, 2.0))
        r6 = sa.rescale_and_compare(fld, 6.0, window)
        r10 = sa.rescale_and_compare(fld, 10.0, window)
        assert r10.sup_mode_error < r6.sup_mode_error
        for r in (r6, r10):
            assert r.center_value <= 1.0 + 1e-12
            assert r.mode_coefficients[0] >= 0.0 and r.mode_coefficients[1] >= 0.0

    @pytest.mark.parametrize("s", [6.0, 10.0])
    def test_matches_pointwise_reference(self, s):
        # the lattice evaluation written one point at a time
        fld = flds.strip_martin()
        window = geo.WindowBox((-2.0, -2.0), (2.0, 2.0))
        mode = flds.cylinder_martin()
        got = sa.rescale_and_compare(fld, s, window)
        zoomed = geo.rescaled_domain(geo.strip_as_profile(), s)
        M = sa.slice_scan(fld, s).max_value

        def v_s(ti, yi):
            return float(fld.value(np.array([s + zoomed.f_s * ti, zoomed.f_s * yi]))) / M

        ts = np.linspace(-2.0, 2.0, 41)
        rt = math.sqrt(mode.lam)
        axis_ts = [ti for ti in ts if abs(ti) < zoomed.s / 2.0]
        E = np.array([[math.exp(rt * ti), math.exp(-rt * ti)] for ti in axis_ts])
        A, B = sa._nonnegative_mode_fit(E, np.array([v_s(ti, 0.0) for ti in axis_ts]))
        sup_err, scale = 0.0, 0.0
        for ti in ts:
            for yi in ts:
                if zoomed.contains(np.array([ti, yi])):
                    model = (A * math.exp(rt * ti) + B * math.exp(-rt * ti)) * float(mode.phi(yi))
                    sup_err = max(sup_err, abs(v_s(ti, yi) - model))
                    scale = max(scale, abs(v_s(ti, yi)))
        # the error is a difference of lattice values, and np.exp may round
        # differently from math.exp in the last bit: compare on their scale
        assert abs(got.sup_mode_error - sup_err) <= 1e-14 * scale
        assert got.mode_coefficients == pytest.approx((A, B), rel=1e-14, abs=0.0)
        assert got.center_value == pytest.approx(v_s(0.0, 0.0), rel=1e-14, abs=0.0)

    def test_strip_limit_is_pure_growth_mode(self):
        fld = flds.strip_martin()
        window = geo.WindowBox((-2.0, -2.0), (2.0, 2.0))
        r = sa.rescale_and_compare(fld, 10.0, window)
        A, B = r.mode_coefficients
        assert A == pytest.approx(1.0, abs=1e-5)
        assert B == pytest.approx(0.0, abs=1e-8)

    def test_sqrt_profile_hausdorff_monotone(self):
        prof = geo.ProfileRegion("sqrt")
        window = geo.WindowBox((-2.0, -2.0), (2.0, 2.0))
        ts = np.linspace(-2.0, 2.0, 801)
        cyl = np.vstack([np.column_stack([ts, np.ones_like(ts)]),
                         np.column_stack([ts, -np.ones_like(ts)])])
        ds = []
        for s in (100.0, 400.0, 1600.0):
            rd = geo.rescaled_domain(prof, s)
            ds.append(geo.hausdorff_distance(rd.boundary_points(window, 801), cyl))
        assert ds[1] <= 0.052
        assert ds[0] >= ds[1] >= ds[2]


class TestDecayFit:
    def test_exact_power_law(self):
        fit = sa.decay_fit(lambda r: 1.0 / r, np.geomspace(5, 80, 12))
        assert fit.slope == pytest.approx(-1.0, abs=1e-9)

    def test_radii_span_validation(self):
        with pytest.raises(geo.GeometryError):
            sa.decay_fit(lambda r: 1.0 / r, [5, 6, 7, 8])

    def test_nonpositive_magnitude_rejected(self):
        with pytest.raises(flds.FieldError):
            sa.decay_fit(lambda r: 0.0, np.geomspace(5, 80, 12))

    def test_map_difference_derivative_slopes(self):
        # f = z^2 - sqrt(z^4 - 1) has |f'| ~ r^-3 and |f''| ~ r^-4 on the axis
        def fp(r):
            z = complex(r)
            return abs(2 * z - 2 * z ** 3 / np.sqrt(z ** 4 - 1))

        def fpp(r):
            z = complex(r)
            w = np.sqrt(z ** 4 - 1)
            return abs(2 - 6 * z ** 2 / w + 4 * z ** 6 / w ** 3)

        radii = np.geomspace(5, 80, 12)
        assert sa.decay_fit(fp, radii).slope == pytest.approx(-3.0, abs=0.1)
        assert sa.decay_fit(fpp, radii).slope == pytest.approx(-4.0, abs=0.1)

    def test_slope_stable_under_radius_doubling(self):
        def fp(r):
            z = complex(r)
            return abs(2 * z - 2 * z ** 3 / np.sqrt(z ** 4 - 1))

        s1 = sa.decay_fit(fp, np.geomspace(5, 80, 12)).slope
        s2 = sa.decay_fit(fp, np.geomspace(10, 160, 12)).slope
        assert abs(s1 - s2) <= 0.05


class TestTangentFormAsymptotics:
    def test_residual_slope(self):
        u = flds.slit_sector_martin()
        v = flds.sector_martin(2)
        fit, largest = sa.tangent_form_asymptotic(u, v, np.geomspace(5, 80, 12))
        assert fit.slope <= -1.9
        # empirical convexity threshold on the axis: form >= 0 up to 3^(1/4)
        assert largest == pytest.approx(3.0 ** 0.25, abs=2e-2)

    def test_form_negative_at_10(self):
        u = flds.slit_sector_martin()
        v = flds.sector_martin(2)
        _, form = sa.tangent_form_residual(u, v, 10.0 + 0.0j)
        assert form < 0.0

    def test_control_field_residual_identically_zero(self):
        v = flds.sector_martin(2)
        for r in np.geomspace(5, 80, 8):
            resid, form = sa.tangent_form_residual(v, v, complex(r, 0.3))
            assert abs(resid) <= 1e-9 * (1.0 + abs(form))


@pytest.fixture(scope="module")
def threshold():
    u = flds.slit_sector_martin()
    window = geo.WindowBox((0.0, -10.0), (12.0, 10.0))
    return sa.convexity_threshold(u, [0.05, 0.5, 2.0, 8.0, 50.0], window=window, h=0.03)


class TestConvexityThreshold:
    def test_small_level_nonconvex(self, threshold):
        assert threshold.per_level[0.05].verdict == "non_convex"
        assert threshold.per_level[0.05].witness_verified

    def test_large_level_convex(self, threshold):
        assert threshold.per_level[50.0].verdict == "convex"

    def test_bracket_is_ordered(self, threshold):
        assert threshold.largest_nonconvex is not None
        assert threshold.smallest_convex is not None
        assert threshold.largest_nonconvex < threshold.smallest_convex
