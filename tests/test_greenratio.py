import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis.extra import numpy as hnp

from martinlevels import geometry as geo
from martinlevels import greenratio as gr
from martinlevels import levelset as ls


@pytest.fixture(scope="module")
def strip_grid():
    window = geo.WindowBox((0.0, -np.pi / 2), (8.0, np.pi / 2))
    return gr.build_grid(geo.Strip(), window, np.pi / 100)


@pytest.fixture(scope="module")
def ring_solution():
    ring = geo.ConvexRing(geo.square_body(2.0), geo.square_body(0.5))
    grid = gr.build_grid(ring, geo.WindowBox((-2.0, -2.0), (2.0, 2.0)), 0.05)
    data = gr.ring_dirichlet_data(grid)
    return grid, gr.solve_dirichlet(grid, boundary_values=data)


class TestBuildGrid:
    def test_strip_mask_walls(self):
        grid = gr.build_grid(geo.Strip(), geo.WindowBox((0.0, -np.pi / 2), (10.0, np.pi / 2)),
                             np.pi / 100)
        # every wall node adjacent to the interior is Dirichlet
        assert np.all(grid.mask[1:-1, 0] == gr.BOUNDARY)
        assert np.all(grid.mask[1:-1, -1] == gr.BOUNDARY)
        assert np.all(grid.mask[0, 1:-1] == gr.BOUNDARY)
        assert np.all(grid.mask[-1, 1:-1] == gr.BOUNDARY)
        assert np.all(grid.mask[1:-1, 1:-1] == gr.INTERIOR)
        assert grid.interior_count() == (grid.shape[0] - 2) * (grid.shape[1] - 2)

    def test_ring_mask_is_annular(self, ring_solution):
        grid, _ = ring_solution
        i0, j0 = grid.node_index((0.0, 0.0))
        assert grid.mask[i0, j0] == gr.EXTERIOR
        assert grid.mask[grid.node_index((1.2, 0.0))] == gr.INTERIOR

    def test_disk_hole_masked(self):
        grid = gr.build_grid(geo.HalfplaneMinusDisk(),
                             geo.WindowBox((0.0, -3.0), (6.0, 3.0)), 0.05)
        assert grid.mask[grid.node_index((0.5, 0.0))] == gr.EXTERIOR
        assert grid.mask[grid.node_index((2.0, 0.0))] == gr.INTERIOR

    def test_coarse_spacing_rejected(self):
        with pytest.raises(geo.GeometryError):
            gr.build_grid(geo.Strip(), geo.WindowBox((0.0, -np.pi / 2), (8.0, np.pi / 2)), 1.0)

    def test_no_interior_rejected(self):
        window = geo.WindowBox((-5.0, -0.4), (-1.0, 0.4))
        with pytest.raises(geo.GeometryError):
            gr.build_grid(geo.Strip(), window, 0.02)

    def test_disconnected_interior_rejected(self):
        ring = geo.ConvexRing(geo.square_body(2.0), geo.square_body(0.5))
        with pytest.raises(geo.GeometryError):
            gr.build_grid(ring, geo.WindowBox((-2.0, -0.45), (2.0, 0.45)), 0.02)

    def test_interior_neighbors_never_exterior(self):
        # mask consistency: each interior node touches only interior or
        # Dirichlet nodes, even along the curved disk wall
        grid = gr.build_grid(geo.HalfplaneMinusDisk(),
                             geo.WindowBox((0.0, -3.0), (6.0, 3.0)), 0.05)
        interior = grid.mask == gr.INTERIOR
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            shifted = np.roll(grid.mask, (di, dj), axis=(0, 1))
            assert not np.any(interior & (shifted == gr.EXTERIOR))


def _bfs_connected(member):
    """Reference: breadth-first search from the first member node."""
    todo = np.argwhere(member)
    if len(todo) == 0:
        return False
    seen = {tuple(todo[0])}
    frontier = [tuple(todo[0])]
    while frontier:
        nxt = []
        for i, j in frontier:
            for a, b in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
                if (0 <= a < member.shape[0] and 0 <= b < member.shape[1]
                        and member[a, b] and (a, b) not in seen):
                    seen.add((a, b))
                    nxt.append((a, b))
        frontier = nxt
    return len(seen) == len(todo)


def _spiral(n):
    """A one-node-wide square spiral on an n x n grid (n odd)."""
    m = np.zeros((n, n), dtype=bool)
    lo, hi = 0, n - 1
    while lo <= hi:
        m[lo, lo:hi + 1] = True
        m[lo:hi + 1, hi] = True
        m[hi, lo:hi + 1] = True
        m[lo + 2:hi + 1, lo] = True
        if lo + 2 <= hi:
            m[lo + 2, lo:lo + 3] = True
        lo, hi = lo + 2, hi - 2
    return m


class TestConnected:
    @settings(max_examples=300, deadline=None)
    @given(hnp.arrays(bool, hnp.array_shapes(min_dims=2, max_dims=2, max_side=12)))
    def test_matches_bfs(self, member):
        assert gr._connected(member) == _bfs_connected(member)

    def test_u_shape_joined_by_distant_row(self):
        # each arm is a separate chain of runs until the base row joins them
        m = np.zeros((30, 9), dtype=bool)
        m[:, 1] = m[:, 7] = True
        m[-1, 1:8] = True
        assert gr._connected(m)
        m[-1, 4] = False
        assert not gr._connected(m)

    @pytest.mark.parametrize("n", [5, 9, 21])
    def test_spiral(self, n):
        m = _spiral(n)
        assert _bfs_connected(m)
        assert gr._connected(m)
        m[0, n // 2] = False        # cut the outer arm
        assert not _bfs_connected(m)
        assert not gr._connected(m)


class TestSolveDirichlet:
    def test_discrete_harmonic_polynomial_exact(self):
        # x^2 - y^2 is in the kernel of the 5-point stencil, so the solve
        # reproduces the boundary polynomial at interior nodes exactly
        window = geo.WindowBox((0.0, -0.5), (1.0, 0.5))
        grid = gr.build_grid(geo.RightHalfplane(), window, 1 / 32)
        X, Y = np.meshgrid(grid.xs, grid.ys, indexing="ij")
        exact = X ** 2 - Y ** 2
        sol = gr.solve_dirichlet(grid, boundary_values=exact)
        interior = grid.mask == gr.INTERIOR
        assert np.abs(sol.values - exact)[interior].max() <= 1e-7

    def test_zero_data_zero_solution(self, strip_grid):
        sol = gr.solve_dirichlet(strip_grid, boundary_values=None)
        assert np.abs(sol.values).max() == 0.0

    def test_maximum_principle_random_data(self, strip_grid):
        rng = np.random.default_rng(21)
        data = np.zeros(strip_grid.shape)
        boundary = strip_grid.mask == gr.BOUNDARY
        data[boundary] = rng.uniform(-1.0, 2.0, int(boundary.sum()))
        sol = gr.solve_dirichlet(strip_grid, boundary_values=data)
        interior = strip_grid.mask == gr.INTERIOR
        assert sol.values[interior].max() <= data[boundary].max()
        assert sol.values[interior].min() >= data[boundary].min()

    def test_iteration_cap_raises(self, ring_solution):
        # on the strip the preconditioner is exact, so the cap is exercised
        # on the ring, where 3 iterations leave a relative residual ~9e-2
        grid, _ = ring_solution
        src = np.ones(grid.shape)
        with pytest.raises(gr.SolverError, match="iteration cap of 3 iterations"):
            gr.solve_dirichlet(grid, source=src, tol=1e-13, maxiter=3)

    def test_rectangle_solve_needs_one_iteration(self, strip_grid, monkeypatch):
        # the strip interior fills the window's inner rectangle, where the
        # fast-Poisson preconditioner is the exact inverse; a converged solve
        # makes no preconditioner call after its last update
        matvecs, preconditions = [], []
        apply = gr._apply_neg_laplacian
        fast_poisson = gr._fast_poisson

        def counted_apply(*args):
            matvecs.append(1)
            return apply(*args)

        def counted_fast_poisson(*args):
            solve = fast_poisson(*args)

            def counted_solve(r):
                preconditions.append(1)
                return solve(r)

            return counted_solve

        monkeypatch.setattr(gr, "_apply_neg_laplacian", counted_apply)
        monkeypatch.setattr(gr, "_fast_poisson", counted_fast_poisson)
        G = gr.green_function(strip_grid, (2.0, 0.0))
        assert len(matvecs) == 1
        assert len(preconditions) == 1
        assert G.stats.iterations == 1
        assert G.stats.residual <= 1e-12

    def test_stats_report_the_solve(self, strip_grid, ring_solution):
        _, ring = ring_solution
        assert ring.stats.iterations > 1
        assert 0.0 < ring.stats.residual <= 1e-10
        zero = gr.solve_dirichlet(strip_grid, boundary_values=None)
        assert zero.stats == gr.SolveStats(iterations=0, residual=0.0)


class TestFastPoisson:
    @pytest.mark.parametrize("shape", [(7, 5), (8, 6), (33, 2 * gr._DST_BLOCK + 3),
                                       (2 * gr._DST_BLOCK + 2, 31)])
    @pytest.mark.parametrize("axis", [0, 1])
    def test_dst1_matches_scipy(self, shape, axis):
        scipy_fft = pytest.importorskip("scipy.fft")
        x = np.random.default_rng(3).standard_normal(shape)
        got = gr._dst1(x, axis)
        want = scipy_fft.dst(x, type=1, axis=axis)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("shape, hx, hy", [
        ((40, 23), 0.1, 0.07), ((17, 130), 1 / 32, 1 / 16), ((130, 17), 1 / 32, 1 / 16),
        # strip grids whose axis-0 interval counts 509 and 1019 are prime
        ((510, 201), 8 / 509, np.pi / 200), ((1020, 201), 16 / 1019, np.pi / 200)])
    def test_rectangle_inverse(self, shape, hx, hy):
        interior = np.zeros(shape, dtype=bool)
        interior[1:-1, 1:-1] = True
        v = np.where(interior, np.random.default_rng(4).standard_normal(shape), 0.0)
        inverse = gr._fast_poisson(shape, hx, hy)
        back = inverse(gr._apply_neg_laplacian(v, interior, hx, hy))
        assert np.abs(back - v).max() <= 1e-12 * np.abs(v).max()
        there = gr._apply_neg_laplacian(inverse(v), interior, hx, hy)
        assert np.abs(there - v).max() <= 1e-12 * np.abs(v).max()


class TestGreenFunction:
    def test_pole_is_maximum(self, strip_grid):
        G = gr.green_function(strip_grid, (2.0, 0.0))
        i, j = strip_grid.node_index((2.0, 0.0))
        assert G.values[i, j] == G.values.max()

    def test_positive_on_interior(self, strip_grid):
        G = gr.green_function(strip_grid, (2.0, 0.0))
        assert G.values[strip_grid.mask == gr.INTERIOR].min() > 0.0

    def test_symmetry(self, strip_grid):
        Ga = gr.green_function(strip_grid, (2.0, 0.0))
        Gb = gr.green_function(strip_grid, (4.0, 0.0))
        gab = Ga.values[strip_grid.node_index((4.0, 0.0))]
        gba = Gb.values[strip_grid.node_index((2.0, 0.0))]
        assert abs(gab - gba) / abs(gab) <= 1e-9

    def test_far_field_decay(self, strip_grid):
        G = gr.green_function(strip_grid, (2.0, 0.0))
        assert G.value((7.9, 0.0)) <= G.value((3.0, 0.0))

    def test_pole_outside_interior_raises(self, strip_grid):
        with pytest.raises(geo.GeometryError):
            gr.green_function(strip_grid, (0.0, 0.0))


@pytest.fixture(scope="module")
def strip_ratio():
    cfg = gr.MartinApproxConfig(x0=(0.5, 0.0), poles=(3.0, 4.0, 5.0),
                                probe_window=geo.WindowBox((0.5, -1.0), (2.0, 1.0)))
    return cfg, gr.martin_ratio(geo.Strip(), cfg, np.pi / 100)


class TestMartinRatio:
    def test_normalization_exact(self, strip_ratio):
        cfg, res = strip_ratio
        for it in res.iterates:
            assert it.ratio.value(np.asarray(cfg.x0)) == pytest.approx(1.0, abs=1e-10)

    def test_cauchy_decreasing(self, strip_ratio):
        _, res = strip_ratio
        assert all(b < a for a, b in zip(res.cauchy, res.cauchy[1:]))

    def test_matches_closed_form(self, strip_ratio):
        _, res = strip_ratio
        target = math.sinh(1.0) / math.sinh(0.5)
        assert res.final.value((1.0, 0.0)) == pytest.approx(target, rel=2e-2)

    def test_probe_outside_truncation_raises(self):
        cfg = gr.MartinApproxConfig(x0=(0.5, 0.0), poles=(1.0, 2.0),
                                    probe_window=geo.WindowBox((0.5, -1.0), (3.0, 1.0)))
        with pytest.raises(geo.GeometryError):
            gr.martin_ratio(geo.Strip(), cfg, np.pi / 100)

    def test_poles_must_increase(self):
        with pytest.raises(geo.GeometryError):
            gr.MartinApproxConfig(x0=(0.5, 0.0), poles=(4.0, 3.0),
                                  probe_window=geo.WindowBox((0.5, -1.0), (2.0, 1.0)))

    def test_reference_point_must_be_interior(self):
        cfg = gr.MartinApproxConfig(x0=(-1.0, 0.0), poles=(3.0, 4.0),
                                    probe_window=geo.WindowBox((0.5, -1.0), (2.0, 1.0)))
        with pytest.raises(geo.GeometryError):
            gr.martin_ratio(geo.Strip(), cfg, np.pi / 100)

    def test_truncation_enlargement_within_cauchy(self, strip_ratio):
        # widening the cap at a fixed pole moves the probe ratio by less
        # than the reported inter-iterate diagnostic
        cfg, res = strip_ratio
        pole = 3.0
        h = np.pi / 100
        big = gr.build_grid(geo.Strip(), geo.WindowBox((0.0, -np.pi / 2), (8.0, np.pi / 2)), h)
        G = gr.green_function(big, (pole, 0.0))
        ratio_big = G.values / G.value(np.asarray(cfg.x0))
        fld_big = gr.GridField(big, ratio_big)
        base = res.iterates[0].ratio
        moved = max(abs(fld_big.value(p) - base.value(p)) for p in res.probe_points)
        assert moved <= res.cauchy[0]


class TestHalfplaneRatio:
    def test_exterior_closed_form_within_3pct(self):
        cfg = gr.MartinApproxConfig(x0=(2.0, 0.0), poles=(8.0, 12.0, 16.0),
                                    probe_window=geo.WindowBox((2.0, -1.0), (4.0, 1.0)))
        res = gr.martin_ratio(geo.HalfplaneMinusDisk(), cfg, 0.05)
        target = (3.0 - 1.0 / 3.0) / (2.0 - 1.0 / 2.0)   # = 16/9
        got = res.final.value((3.0, 0.0))
        assert got == pytest.approx(target, rel=3e-2)
        assert all(b < a for a, b in zip(res.cauchy, res.cauchy[1:]))


class TestProfileRatio:
    def test_sqrt_profile_ratio(self):
        # the paper's profile regions enter the same pipeline as the strip
        dom = geo.domain_from_config({"kind": "profile", "f": "sqrt"})
        cfg = gr.MartinApproxConfig(x0=(1.0, 0.0), poles=(2.0, 3.0, 4.0),
                                    probe_window=geo.WindowBox((0.5, -0.5), (1.5, 0.5)))
        res = gr.martin_ratio(dom, cfg, 0.05)
        assert len(res.cauchy) == 2
        assert all(b < a for a, b in zip(res.cauchy, res.cauchy[1:]))
        assert res.final.value(res.probe_points).min() > 0.0
        grid = res.final.grid
        assert grid.mask[grid.node_index((1.0, 0.0))] == gr.INTERIOR
        assert grid.mask[grid.node_index((1.0, 1.5))] == gr.EXTERIOR

    def test_probe_window_must_stay_in_domain(self):
        dom = geo.domain_from_config({"kind": "profile", "f": "sqrt"})
        cfg = gr.MartinApproxConfig(x0=(1.0, 0.0), poles=(2.0, 3.0),
                                    probe_window=geo.WindowBox((0.5, -1.6), (1.5, 1.6)))
        with pytest.raises(geo.GeometryError, match="probe points leave the domain"):
            gr.martin_ratio(dom, cfg, 0.05)


SQUARE_RING = {"kind": "convex_ring", "A": {"vertices": [[-2, -2], [2, -2], [2, 2], [-2, 2]]},
               "B": {"vertices": [[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]]}}


class TestMirrorSymmetry:
    """Domains symmetric under y -> -y get mirror-exact grids and Green
    functions on y-symmetric windows."""

    @pytest.mark.parametrize("cfg, window", [
        ("strip", None), ("right_halfplane", None), ("halfplane_minus_disk", None),
        ({"kind": "profile", "f": "sqrt"}, None), ({"kind": "profile", "f": "log1p"}, None),
        ("sector", geo.WindowBox((0.0, -3.0), (4.0, 3.0))),
        ("sector_minus_slit", geo.WindowBox((0.0, -3.0), (4.0, 3.0))),
        ("cylinder", geo.WindowBox((-2.0, -1.5), (2.0, 1.5))),
        (SQUARE_RING, geo.WindowBox((-2.0, -2.0), (2.0, 2.0)))],
        ids=["strip", "right_halfplane", "halfplane_minus_disk", "sqrt", "log1p", "sector",
             "sector_minus_slit", "cylinder", "ring"])
    @pytest.mark.parametrize("h", [0.05, 0.02, 0.037])
    def test_mask_is_mirror_symmetric(self, cfg, window, h):
        dom = geo.domain_from_config(cfg)
        for w in [window] if window else [dom.truncation_window(s) for s in (4.0, 8.0)]:
            grid = gr.build_grid(dom, w, h)
            assert grid.ys[(len(grid.ys) - 1) // 2] == 0.0
            assert np.array_equal(grid.mask, grid.mask[:, ::-1])

    def test_sqrt_profile_green_function_is_mirror_symmetric(self):
        # y = 0 was not a node before the lattice became mirror-exact; the
        # pole snapped to y = -hy/2 and the asymmetry was 0.29 of max u
        dom = geo.domain_from_config({"kind": "profile", "f": "sqrt"})
        grid = gr.build_grid(dom, dom.truncation_window(4.0), 0.05)
        assert len(grid.ys) == 115
        G = gr.green_function(grid, (4.0, 0.0))
        assert G.values[grid.node_index((4.0, 0.0))] == G.values.max()
        assert np.abs(G.values - G.values[:, ::-1]).max() <= 1e-12 * G.values.max()


class TestSuperlevelClouds:
    def test_strip_iterate_superlevel_convex(self, strip_ratio):
        _, res = strip_ratio
        h = res.final.grid.h
        window = geo.WindowBox((0.1, -1.5), (5.0, 1.5))
        cloud = gr.superlevel_boundary_nodes(res.final, 1.0, window=window)
        rep = ls.convexity_test(cloud, tol=2 * h)
        assert rep.verdict == "convex"

    def test_level_above_max_empty(self, strip_ratio):
        _, res = strip_ratio
        big = float(res.final.values.max()) + 1.0
        assert len(gr.superlevel_of_iterate(res.iterates[-1], big)) == 0

    def test_iterate_superlevel_threshold_positive(self, strip_ratio):
        _, res = strip_ratio
        with pytest.raises(geo.GeometryError):
            gr.superlevel_of_iterate(res.iterates[-1], 0.0)

    def test_halfplane_low_level_nonconvex(self):
        # the unit-disk hole dents the low superlevel sets of the ratio
        grid = gr.build_grid(geo.HalfplaneMinusDisk(), geo.WindowBox((0.0, -8.0), (16.0, 8.0)), 0.05)
        G = gr.green_function(grid, (8.0, 0.0))
        fld = gr.GridField(grid, G.values / G.value((2.0, 0.0)))
        window = geo.WindowBox((0.05, -4.0), (6.0, 4.0))
        cloud = gr.superlevel_boundary_nodes(fld, 0.1, window=window)
        rep = ls.convexity_test(cloud, tol=2 * grid.h)
        assert rep.verdict == "non_convex"


class TestRingHarness:
    def test_interior_strictly_between_data(self, ring_solution):
        grid, sol = ring_solution
        interior = grid.mask == gr.INTERIOR
        assert sol.values[interior].min() > 0.0
        assert sol.values[interior].max() < 1.0

    def test_superlevel_union_inner_convex(self, ring_solution):
        grid, sol = ring_solution
        inner = gr.inner_body_nodes(grid)
        for c in (0.25, 0.5, 0.75):
            cloud = gr.superlevel_boundary_nodes(sol, c, extra_member=inner)
            rep = ls.convexity_test(cloud, tol=2 * grid.h)
            assert rep.verdict == "convex", f"c={c}: deviation {rep.hull_deviation}"

    def test_annulus_alone_nonconvex(self, ring_solution):
        # without the inner body the superlevel cloud is an annulus
        grid, sol = ring_solution
        cloud = gr.superlevel_boundary_nodes(sol, 0.5)
        rep = ls.convexity_test(cloud, tol=2 * grid.h)
        assert rep.verdict == "non_convex"


class TestGridConvergenceOrder:
    def test_strip_order_at_least_1p7(self):
        # probe lattice aligned with the coarsest grid so interpolation does
        # not pollute the solver's O(h^2) signal
        h0 = np.pi / 50
        x0 = (16 * h0, 0.0)
        xs = np.arange(10, 33, 4) * h0
        ys = np.arange(-12, 13, 4) * h0
        exact = np.array([[math.sinh(x) * math.cos(y) / math.sinh(x0[0]) for y in ys] for x in xs])
        errs = []
        for h in (np.pi / 50, np.pi / 100, np.pi / 200):
            grid = gr.build_grid(geo.Strip(), geo.WindowBox((0.0, -np.pi / 2), (16.0, np.pi / 2)), h)
            G = gr.green_function(grid, (8.0, 0.0))
            fld = gr.GridField(grid, G.values / G.value(np.asarray(x0)))
            got = np.array([[fld.value((x, y)) for y in ys] for x in xs])
            errs.append(np.max(np.abs(got - exact) / np.abs(exact)))
        order = np.polyfit(np.log([np.pi / 50, np.pi / 100, np.pi / 200]), np.log(errs), 1)[0]
        assert order >= 1.7, f"errors {errs}, fitted order {order}"
