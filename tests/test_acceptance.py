"""Acceptance suite: one test per criterion, each printing a verdict line.

Tolerances are pinned here, not computed: fitted orders >= 1.9/1.7, Green
symmetry 1e-9, ratio errors 2%/3%, hull deviations <= 2h, decay slopes
within 0.1, Hausdorff 0.052, identity checks at 1e-9.
"""

import json
import math
import os
import random
import time

import numpy as np
import pytest

from martinlevels import cli
from martinlevels import fields as flds
from martinlevels import geometry as geo
from martinlevels import greenratio as gr
from martinlevels import levelset as ls
from martinlevels import slices as sa


def verdict(num, ok, text):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {text}")
    assert ok, f"criterion {num}: {text}"


class TestCriterion1ClosedFormHarmonicity:
    @pytest.mark.parametrize("name", ["strip", "exterior", "slit_sector"])
    def test_residual_order_and_boundary(self, name):
        fld = flds.field_from_name(name)
        pts = flds.interior_points(fld, 100, random.Random(101))
        hs = [1e-2, 1e-3, 1e-4]
        # the points lie > 0.05 from the boundary, so no stencil leaves the domain
        worst = [float(np.abs(flds.harmonicity_residual(fld, pts, h)).max()) for h in hs]
        order = float(np.polyfit(np.log(hs), np.log(worst), 1)[0])
        boundary = flds.boundary_vanishing(fld, n_samples=200, tol=1e-8)
        ok = order >= 1.9 and boundary.passed
        verdict(1, ok, f"{name}: 5-point residual order {order:.3f} (>= 1.9), "
                       f"boundary max |u| {boundary.max_abs:.2e} (<= 1e-8)")


class TestCriterion2GreenRatio:
    def test_strip_pipeline(self):
        t0 = time.perf_counter()
        cfg = gr.MartinApproxConfig(x0=(0.5, 0.0), poles=(4.0, 6.0, 8.0),
                                    probe_window=geo.WindowBox((0.5, -1.0), (2.0, 1.0)))
        res = gr.martin_ratio(geo.Strip(), cfg, np.pi / 200)
        norm = math.sinh(0.5)
        rel = max(abs(res.final.value(p) - math.sinh(p[0]) * math.cos(p[1]) / norm)
                  / (math.sinh(p[0]) * math.cos(p[1]) / norm)
                  for p in res.probe_points)
        decreasing = all(b < a for a, b in zip(res.cauchy, res.cauchy[1:]))
        elapsed = time.perf_counter() - t0
        ok = rel <= 0.02 and decreasing and elapsed <= 300.0
        verdict(2, ok, f"strip ratio sup rel error {rel:.4%} (<= 2%), cauchy "
                       f"{[f'{e:.1e}' for e in res.cauchy]} decreasing={decreasing}, "
                       f"{elapsed:.0f}s (<= 300s)")


class TestCriterion3ConvexRing:
    def test_ring_levels_and_maximum_principle(self):
        ring = geo.ConvexRing(geo.square_body(2.0), geo.square_body(0.5))
        grid = gr.build_grid(ring, geo.WindowBox((-2.0, -2.0), (2.0, 2.0)), 0.05)
        data = gr.ring_dirichlet_data(grid)
        sol = gr.solve_dirichlet(grid, boundary_values=data)
        interior = grid.interior
        max_principle = bool(sol.values[interior].min() >= 0.0
                             and sol.values[interior].max() <= 1.0)
        inner = gr.inner_body_nodes(grid)
        devs = {}
        all_convex = True
        for c in (0.25, 0.5, 0.75):
            cloud = gr.superlevel_boundary_nodes(sol, c, extra_member=inner)
            rep = ls.convexity_test(cloud, tol=2 * grid.h)
            devs[c] = rep.hull_deviation
            all_convex &= rep.verdict == "convex" and rep.hull_deviation <= 2 * grid.h
        ok = max_principle and all_convex
        verdict(3, ok, f"ring superlevel+inner hull deviations {devs} (<= {2 * grid.h}), "
                       f"max principle exact={max_principle}")


class TestCriterion4StripTheorems:
    def test_convexity_strictness_and_slices(self):
        s = flds.strip_martin()
        window = geo.WindowBox((0.0, -np.pi / 2), (4.0, np.pi / 2))
        h = 0.01
        convex_ok = True
        form_ok = True
        worst_form = -np.inf
        for c in (0.5, 1.0, 2.0, 5.0):
            curves = ls.extract_level_curve(s, c, window, h)
            closure = ls.window_closure_points(window, s, c)
            rep = ls.convexity_test(curves, closure=closure, tol=2 * h, fld=s, level=c)
            convex_ok &= rep.verdict == "convex"
            pts = np.vstack([cv.vertices for cv in curves])[::7]
            for p in pts:
                form = ls.tangent_hessian_form(s, p)
                ref = -s.value(p, check=False) * (math.sin(p[1]) ** 2 + math.cosh(p[0]) ** 2)
                form_ok &= form < 0.0 and abs(form - ref) <= 1e-9 * (1.0 + abs(ref))
                worst_form = max(worst_form, form)
        slice_ok = True
        for t in (1.0, 2.0, 5.0):
            rep = sa.slice_scan(s, t)
            slice_ok &= abs(rep.argmax[1]) <= 1e-6
            for direction in (+1, -1):
                slice_ok &= sa.ray_monotonicity(s, t, direction).decreasing
        ok = convex_ok and form_ok and slice_ok
        verdict(4, ok, f"strip levels convex={convex_ok}, tangent form < 0 and matches "
                       f"-u(sin^2 y + cosh^2 x) to 1e-9 (max form {worst_form:.2e}), "
                       f"slice argmax on axis + strict ray decrease={slice_ok}")


class TestCriterion5ExteriorNegativeControl:
    def test_witnesses_and_off_axis_maximum(self):
        e = flds.exterior_martin()
        witnesses_ok = True
        for x0 in (1.5, 2.0, 3.0, 5.0):
            c = e.value(np.array([x0, 0.0]))
            pairs = [((x0, y), (x0, -y)) for y in (0.25, 0.5, 1.0, 2.0)]
            w = ls.midpoint_witness_search(e, c, pairs)
            witnesses_ok &= w is not None
        spot = e.value(np.array([2.0, 1.0]))
        scan = sa.slice_scan(e, 2.0, span=2.0)
        off_axis = abs(scan.argmax[1]) > 0.1
        ok = witnesses_ok and off_axis and abs(spot - 1.6) < 1e-12
        verdict(5, ok, f"midpoint witnesses at x0 in {{1.5, 2, 3, 5}}={witnesses_ok} "
                       f"(u(2,±1)={spot:g} > 1.5), slice argmax off-axis at t=2: "
                       f"y*={scan.argmax[1]:.3f}")


class TestCriterion6SlitSectorAsymptotics:
    def test_decay_residual_identity_threshold(self):
        u = flds.slit_sector_martin()
        v = flds.sector_martin(2)
        radii = np.geomspace(5.0, 80.0, 12)

        def fp(r):
            z = complex(r)
            return abs(2 * z - 2 * z ** 3 / np.sqrt(z ** 4 - 1))

        def fpp(r):
            z = complex(r)
            w = np.sqrt(z ** 4 - 1)
            return abs(2 - 6 * z ** 2 / w + 4 * z ** 6 / w ** 3)

        s1 = sa.decay_fit(fp, radii).slope
        s2 = sa.decay_fit(fpp, radii).slope
        fit, _ = sa.tangent_form_asymptotic(u, v, radii)
        rng = random.Random(606)
        identity_ok = True
        for _ in range(100):
            x = rng.uniform(0.3, 4.0)
            y = rng.uniform(-0.9, 0.9) * x
            p = np.array([x, y])
            form = ls.tangent_hessian_form(v, p)
            identity_ok &= abs(form + 8.0 * v.value(p, check=False)) <= 1e-9 * (1.0 + abs(form))
        window = geo.WindowBox((0.0, -10.0), (12.0, 10.0))
        thr = sa.convexity_threshold(u, [0.05, 50.0], window=window, h=0.03)
        bracket_ok = (thr.per_level[0.05].verdict == "non_convex"
                      and thr.per_level[50.0].verdict == "convex")
        ok = (abs(s1 + 3.0) <= 0.1 and abs(s2 + 4.0) <= 0.1 and fit.slope <= -1.9
              and identity_ok and bracket_ok)
        verdict(6, ok, f"|f'| slope {s1:.3f} (-3±0.1), |f''| slope {s2:.3f} (-4±0.1), "
                       f"residual slope {fit.slope:.3f} (<= -1.9), T_v H_v T_v = -8v to "
                       f"1e-9={identity_ok}, levels 0.05 non-convex / 50 convex={bracket_ok}")


class TestCriterion7Rescaling:
    def test_cylinder_mode_and_convergence(self):
        cyl = flds.cylinder_martin(1.0, 1.0)
        mode_ok = True
        for t in (-1.0, 0.0, 1.5):
            for y in (-0.6, 0.0, 0.7):
                p = np.array([t, y])
                vtt = cyl.hessian(p)[0, 0]
                lamv = cyl.lam * cyl.value(p)
                fd = flds.fd_hessian(cyl, p, h=1e-3)[0, 0]
                mode_ok &= vtt > 0.0 and abs(vtt - lamv) <= 1e-12 * lamv
                mode_ok &= abs(fd - vtt) <= 1e-6 * max(1.0, abs(vtt))

        prof = geo.ProfileRegion("sqrt")
        window = geo.WindowBox((-2.0, -2.0), (2.0, 2.0))
        ts = np.linspace(-2.0, 2.0, 801)
        cyl_cloud = np.vstack([np.column_stack([ts, np.ones_like(ts)]),
                               np.column_stack([ts, -np.ones_like(ts)])])
        ds = []
        for s in (100.0, 400.0, 1600.0):
            rd = geo.rescaled_domain(prof, s)
            ds.append(geo.hausdorff_distance(rd.boundary_points(window, 801), cyl_cloud))
        hausdorff_ok = ds[1] <= 0.052 and ds[0] >= ds[1] >= ds[2]

        strip = flds.strip_martin()
        r6 = sa.rescale_and_compare(strip, 6.0, window)
        r10 = sa.rescale_and_compare(strip, 10.0, window)
        strip_ok = (r10.sup_mode_error < r6.sup_mode_error
                    and r6.center_value <= 1.0 + 1e-12
                    and r10.center_value <= 1.0 + 1e-12)
        ok = mode_ok and hausdorff_ok and strip_ok
        verdict(7, ok, f"cylinder d_tt v = lam*v > 0 (FD to 1e-6)={mode_ok}; sqrt profile "
                       f"d_H={[f'{d:.4f}' for d in ds]} (s=400: <= 0.052, non-increasing)="
                       f"{hausdorff_ok}; strip rescale sup error {r6.sup_mode_error:.1e} -> "
                       f"{r10.sup_mode_error:.1e}, v_s(0) <= 1={strip_ok}")


class TestCriterion8Infrastructure:
    def test_green_symmetry_polynomial_exactness_determinism(self, tmp_path):
        grid = gr.build_grid(geo.Strip(), geo.WindowBox((0.0, -np.pi / 2), (8.0, np.pi / 2)),
                             np.pi / 100)
        Ga = gr.green_function(grid, (2.0, 0.0))
        Gb = gr.green_function(grid, (4.0, 0.0))
        gab = Ga.values[grid.node_index((4.0, 0.0))]
        gba = Gb.values[grid.node_index((2.0, 0.0))]
        sym = abs(gab - gba) / abs(gab)

        sq = gr.build_grid(geo.Sector(math.inf), geo.WindowBox((0.0, -0.5), (1.0, 0.5)), 1 / 32)
        X, Y = np.meshgrid(sq.xs, sq.ys, indexing="ij")
        sol = gr.solve_dirichlet(sq, boundary_values=X ** 2 - Y ** 2)
        poly_err = float(np.abs(sol.values - (X ** 2 - Y ** 2))[sq.interior].max())

        cfg_path = tmp_path / "lv.json"
        cfg_path.write_text(json.dumps({"field": "strip", "seed": 3,
                                        "levels": [0.5, 2.0],
                                        "window": [[0.0, -1.5707963267948966],
                                                   [3.0, 1.5707963267948966]],
                                        "h": 0.05}))
        outs = []
        for sub in ("d1", "d2"):
            out = str(tmp_path / sub)
            assert cli.main(["levelsets", "--config", str(cfg_path), "--out", out]) == 0
            outs.append(open(os.path.join(out, "levels.json"), "rb").read())
        deterministic = outs[0] == outs[1]

        ok = sym <= 1e-9 and poly_err <= 1e-7 and deterministic
        verdict(8, ok, f"green symmetry {sym:.2e} (<= 1e-9), harmonic-polynomial solve "
                       f"error {poly_err:.2e}, JSON determinism={deterministic}")
