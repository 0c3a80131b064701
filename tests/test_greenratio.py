import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis.extra import numpy as hnp

from martinlevels import geometry as geo
from martinlevels import greenratio as gr
from martinlevels import levelset as ls


def dirichlet_nodes(interior):
    """The nodes whose data a solve reads: non-interior nodes with an
    interior 4-neighbour."""
    near = np.zeros_like(interior)
    near[1:] |= interior[:-1]
    near[:-1] |= interior[1:]
    near[:, 1:] |= interior[:, :-1]
    near[:, :-1] |= interior[:, 1:]
    return near & ~interior


def compact(rhs):
    """A right-hand side grid array as the (nodes, values) pair that
    ``gr._cg`` takes: its nonzero nodes, in flat order, and their values."""
    nodes = np.flatnonzero(rhs)
    return nodes, rhs.ravel()[nodes]


def spread(b, shape):
    """The (nodes, values) pair of ``gr._cg`` as a grid array."""
    out = np.zeros(shape)
    out.put(*b)
    return out


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
        boundary = dirichlet_nodes(grid.interior)
        assert np.all(boundary[1:-1, 0])
        assert np.all(boundary[1:-1, -1])
        assert np.all(boundary[0, 1:-1])
        assert np.all(boundary[-1, 1:-1])
        assert np.all(grid.interior[1:-1, 1:-1])
        assert grid.interior_count() == (grid.shape[0] - 2) * (grid.shape[1] - 2)

    def test_ring_mask_is_annular(self, ring_solution):
        grid, _ = ring_solution
        i0, j0 = grid.node_index((0.0, 0.0))
        assert not (grid.interior | dirichlet_nodes(grid.interior))[i0, j0]
        assert grid.interior[grid.node_index((1.2, 0.0))]

    def test_disk_hole_masked(self):
        grid = gr.build_grid(geo.HalfplaneMinusDisk(),
                             geo.WindowBox((0.0, -3.0), (6.0, 3.0)), 0.05)
        assert not (grid.interior | dirichlet_nodes(grid.interior))[grid.node_index((0.5, 0.0))]
        assert grid.interior[grid.node_index((2.0, 0.0))]

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

    @pytest.mark.parametrize("domain, window, h", [
        (geo.Strip(), geo.WindowBox((0.0, -np.pi / 2), (8.0, np.pi / 2)), np.pi / 50),
        (geo.ConvexRing(geo.square_body(2.0), geo.regular_polygon(12, 0.6)),
         geo.WindowBox((-2.0, -2.0), (2.0, 2.0)), 0.05),
        (geo.HalfplaneMinusDisk(), geo.WindowBox((0.0, -3.0), (6.0, 3.0)), 0.05),
        (geo.SectorMinusSlit(), geo.WindowBox((0.0, -3.0), (4.0, 3.0)), 0.05),
        (geo.ProfileRegion("sqrt"), geo.ProfileRegion("sqrt").truncation_window(4.0), 0.05),
    ], ids=["strip", "ring", "exterior", "slit_sector", "sqrt"])
    def test_interior_and_boundary_are_disjoint(self, domain, window, h):
        # the grid keeps one mask; the Dirichlet nodes next to it are closure points
        grid = gr.build_grid(domain, window, h)
        assert "boundary" not in {f.name for f in dataclasses.fields(grid)}
        assert not hasattr(grid, "boundary")
        assert grid.interior.dtype == bool
        assert grid.interior_count() == np.count_nonzero(grid.interior) > 0
        ii, jj = np.nonzero(dirichlet_nodes(grid.interior))
        assert len(ii) > 0
        assert np.all(domain.contains_closure(np.column_stack([grid.xs[ii], grid.ys[jj]])))

    def test_grid_over_physical_memory_is_refused_before_allocating(self, monkeypatch):
        window = geo.WindowBox((0.0, -np.pi / 2), (8.0, np.pi / 2))
        xs, ys = window.lattice(0.05)
        need = len(xs) * len(ys) * SOLVE_NODE_BYTES     # one mask, three float arrays
        monkeypatch.setattr(geo, "physical_memory", lambda: need)
        assert gr.build_grid(geo.Strip(), window, 0.05).shape == (len(xs), len(ys))

        def no_lattice(*args):
            raise AssertionError("a node mask was allocated")

        monkeypatch.setattr(geo, "physical_memory", lambda: need - 1)
        monkeypatch.setattr(gr, "lattice_mask", no_lattice)
        with pytest.raises(geo.GeometryError, match=f"{len(xs)} x {len(ys)} nodes needs "):
            gr.build_grid(geo.Strip(), window, 0.05)

    def test_a_refused_grid_allocates_no_lattice(self, monkeypatch):
        # the node counts are checked before the coordinates exist: these
        # alone took 24.5 MiB at h = 1e-5 when the check came after them
        monkeypatch.setattr(geo, "physical_memory", lambda: 8 * 2 ** 30)
        window = geo.WindowBox((0.0, -np.pi / 2), (16.0, np.pi / 2))
        tracemalloc.start()
        try:
            with pytest.raises(geo.GeometryError, match="1600001 x 314161 nodes needs "):
                gr.build_grid(geo.Strip(), window, 1e-5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_classification_holds_no_integer_grid(self):
        # the interior mask, two boolean masks and the lattice's row blocks:
        # 19.1 B per node when the connectivity check numbered the runs in
        # two int64 grids
        grid = gr.build_grid(geo.ConvexRing(geo.square_body(2.0), geo.square_body(0.5)),
                             geo.WindowBox((-2.0, -2.0), (2.0, 2.0)), 0.01)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            again = gr.build_grid(grid.domain, grid.window, 0.01)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert grid.shape == (401, 401)
        assert np.array_equal(again.interior, grid.interior)
        assert peak <= 10 * grid.interior.size

    def test_interior_neighbors_never_exterior(self):
        # mask consistency: each interior node touches only nodes of the
        # closure, even along the curved disk wall
        dom = geo.HalfplaneMinusDisk()
        grid = gr.build_grid(dom, geo.WindowBox((0.0, -3.0), (6.0, 3.0)), 0.05)
        interior = grid.interior
        closure = geo.lattice_mask(grid.xs, grid.ys, dom.contains_closure)
        assert np.any(dirichlet_nodes(interior) & ~geo.lattice_mask(grid.xs, grid.ys, dom.contains))
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            shifted = np.roll(closure, (di, dj), axis=(0, 1))
            assert not np.any(interior & ~shifted)


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


def reference_node_points(xs, ys):
    """The whole-lattice point stack that the row-blocked evaluation replaced."""
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    return np.stack([X, Y], axis=-1)


class TestRowBlockedLattice:
    @pytest.mark.parametrize("domain, window", [
        (geo.ConvexRing(geo.square_body(2.0), geo.regular_polygon(12, 0.6)),
         geo.WindowBox((-2.0, -2.0), (2.0, 2.0))),
        (geo.domain_from_config({"kind": "profile", "f": "sqrt"}), None)], ids=["ring", "sqrt"])
    def test_masks_equal_the_whole_lattice(self, domain, window):
        window = window or domain.truncation_window(3.0)
        xs, ys = window.lattice(0.015)
        assert len(xs) > 2 * geo.LATTICE_BLOCK
        pts = reference_node_points(xs, ys)
        for member in (domain.contains, domain.contains_closure):
            assert np.array_equal(geo.lattice_mask(xs, ys, member), member(pts))

    def test_ring_data_equals_the_whole_lattice(self):
        ring = geo.ConvexRing(geo.square_body(2.0), geo.regular_polygon(12, 0.6))
        grid = gr.build_grid(ring, geo.WindowBox((-2.0, -2.0), (2.0, 2.0)), 0.015)
        pts = reference_node_points(grid.xs, grid.ys)
        closed = ring.inner.contains_closure(pts)
        near = closed | gr._has_neighbor_in(ring.inner.contains(pts))
        assert np.array_equal(gr.inner_body_nodes(grid), closed)
        assert np.array_equal(gr.ring_dirichlet_data(grid), np.where(near, 1.0, 0.0))

    def test_ring_data_takes_the_inner_body_mask(self):
        # 1 on the closed inner body, 0 on the outer wall; a grid that is not
        # a ring's has no inner body
        ring = geo.ConvexRing(geo.square_body(2.0), geo.regular_polygon(12, 0.6))
        grid = gr.build_grid(ring, geo.WindowBox((-2.0, -2.0), (2.0, 2.0)), 0.05)
        data = gr.ring_dirichlet_data(grid)
        assert np.all(data[gr.inner_body_nodes(grid)] == 1.0)
        assert not data[[0, -1]].any() and not data[:, [0, -1]].any()
        strip = gr.build_grid(geo.Strip(), geo.WindowBox((0.0, -np.pi / 2), (8.0, np.pi / 2)),
                              np.pi / 50)
        with pytest.raises(geo.GeometryError, match="needs a convex-ring grid"):
            gr.ring_dirichlet_data(strip)


def reference_interior(domain, window, h):
    """``build_grid``'s interior mask with its closure test written out inline."""
    xs, ys = window.lattice(h)
    in_closure = geo.lattice_mask(xs, ys, domain.contains_closure)
    interior = geo.lattice_mask(xs, ys, domain.contains)
    interior[0, :] = interior[-1, :] = False
    interior[:, 0] = interior[:, -1] = False
    interior[1:-1, 1:-1] &= (in_closure[2:, 1:-1] & in_closure[:-2, 1:-1]
                             & in_closure[1:-1, 2:] & in_closure[1:-1, :-2])
    return interior


def reference_boundary_cloud(fld, c):
    """``superlevel_boundary_nodes`` with its region edge written out inline."""
    g = fld.grid
    member = fld.values > c
    edge = np.zeros_like(member)
    edge[1:-1, 1:-1] = member[1:-1, 1:-1] & ~(member[2:, 1:-1] & member[:-2, 1:-1]
                                              & member[1:-1, 2:] & member[1:-1, :-2])
    edge[0, :] = member[0, :]
    edge[-1, :] = member[-1, :]
    edge[:, 0] |= member[:, 0]
    edge[:, -1] |= member[:, -1]
    ii, jj = np.nonzero(edge)
    return np.column_stack([g.xs[ii], g.ys[jj]])


def reference_fold(grid, data):
    """The right-hand side that Dirichlet data folds into, written out inline."""
    bdata = np.where(grid.interior, 0.0, data)
    rhs = np.zeros(grid.shape)
    rhs[1:-1, 1:-1] += ((bdata[2:, 1:-1] + bdata[:-2, 1:-1]) / grid.hx ** 2
                        + (bdata[1:-1, 2:] + bdata[1:-1, :-2]) / grid.hy ** 2)
    return rhs


TWELVE_GON_RING = geo.ConvexRing(geo.square_body(2.0), geo.regular_polygon(12, 0.6))
SQRT_PROFILE = geo.domain_from_config({"kind": "profile", "f": "sqrt"})


class TestStencilStatedOnce:
    """The 5-point neighbour relation of the grid masks, the region edges and
    the Dirichlet fold equals its inline reference bit for bit."""

    @pytest.mark.parametrize("domain, window, h", [
        (geo.Strip(), geo.WindowBox((0.0, -np.pi / 2), (8.0, np.pi / 2)), np.pi / 50),
        (TWELVE_GON_RING, geo.WindowBox((-2.0, -2.0), (2.0, 2.0)), 0.05),
        (geo.HalfplaneMinusDisk(), geo.HalfplaneMinusDisk().truncation_window(4.0), 0.1),
        (SQRT_PROFILE, SQRT_PROFILE.truncation_window(4.0), 0.05),
    ], ids=["strip", "ring", "exterior", "sqrt"])
    def test_masks_and_clouds_equal_the_references(self, domain, window, h):
        grid = gr.build_grid(domain, window, h)
        assert np.array_equal(grid.interior, reference_interior(domain, window, h))
        # a speckled field puts region edges everywhere, the window border included
        fld = gr.GridField(grid, np.random.default_rng(12).random(grid.shape))
        for c in (0.3, 0.7):
            assert np.array_equal(gr.superlevel_boundary_nodes(fld, c),
                                  reference_boundary_cloud(fld, c))

    def test_ring_fold_equals_the_reference(self):
        grid = gr.build_grid(TWELVE_GON_RING, geo.WindowBox((-2.0, -2.0), (2.0, 2.0)), 0.05)
        data = gr.ring_dirichlet_data(grid)
        self.check_fold(grid, data)

    def test_zoom_fold_equals_the_reference(self, monkeypatch):
        fine = []
        solve = gr.solve_dirichlet

        def spy(grid, boundary_values, **kwargs):
            fine.append((grid, boundary_values.copy()))
            return solve(grid, boundary_values, **kwargs)

        monkeypatch.setattr(gr, "solve_dirichlet", spy)
        cfg = gr.MartinApproxConfig(x0=(2.0, 0.0), poles=(8.0,),
                                    probe_window=geo.WindowBox((1.5, -1.0), (3.0, 1.0)))
        gr.martin_ratio(geo.HalfplaneMinusDisk(), cfg, 0.04)
        monkeypatch.undo()
        [(grid, data)] = fine
        assert grid.window != geo.HalfplaneMinusDisk().truncation_window(8.0)
        self.check_fold(grid, data)

    def test_exterior_fold_equals_the_reference(self):
        # data on the disk's curved wall and on every cap of the window
        dom = geo.HalfplaneMinusDisk()
        grid = gr.build_grid(dom, dom.truncation_window(4.0), 0.05)
        near = dirichlet_nodes(grid.interior)
        data = np.zeros(grid.shape)
        data[near] = np.random.default_rng(35).uniform(-1.0, 2.0, int(near.sum()))
        self.check_fold(grid, data)

    @staticmethod
    def check_fold(grid, data):
        # the fold lives on the interior nodes next to the data: there it is
        # the whole-grid reference bit for bit, and the reference is 0 on
        # the rest of the interior
        assert np.count_nonzero(data[dirichlet_nodes(grid.interior)]) > 0
        u = np.where(grid.interior, 0.0, data)
        nodes, values = gr._dirichlet_fold(u, grid.interior, grid.hx, grid.hy)
        reference = reference_fold(grid, data)
        assert np.all(np.diff(nodes) > 0)
        near = np.zeros(grid.shape, dtype=bool)
        near.ravel()[nodes] = True
        assert np.array_equal(near, grid.interior & gr._has_neighbor_in(~grid.interior))
        assert np.array_equal(values.view(np.int64), reference.ravel()[nodes].view(np.int64))
        assert not reference[grid.interior & ~near].any()
        want = np.empty(grid.shape)
        stats = gr._cg(want, compact(np.where(grid.interior, reference, 0.0)), grid.interior,
                       grid.hx, grid.hy, tol=1e-10)
        want[~grid.interior] = data[~grid.interior]
        got = gr.solve_dirichlet(grid, data)
        assert got.stats == stats
        assert np.array_equal(got.values, want)


class TestSolveDirichlet:
    def test_discrete_harmonic_polynomial_exact(self):
        # x^2 - y^2 is in the kernel of the 5-point stencil, so the solve
        # reproduces the boundary polynomial at interior nodes exactly
        window = geo.WindowBox((0.0, -0.5), (1.0, 0.5))
        grid = gr.build_grid(geo.Sector(math.inf), window, 1 / 32)
        X, Y = np.meshgrid(grid.xs, grid.ys, indexing="ij")
        exact = X ** 2 - Y ** 2
        sol = gr.solve_dirichlet(grid, boundary_values=exact.copy())   # the solve consumes it
        interior = grid.interior
        assert np.abs(sol.values - exact)[interior].max() <= 1e-7

    def test_zero_data_zero_solution(self, strip_grid):
        sol = gr.solve_dirichlet(strip_grid, np.zeros(strip_grid.shape))
        assert np.abs(sol.values).max() == 0.0

    def test_maximum_principle_random_data(self, strip_grid):
        rng = np.random.default_rng(21)
        data = np.zeros(strip_grid.shape)
        boundary = dirichlet_nodes(strip_grid.interior)
        data[boundary] = rng.uniform(-1.0, 2.0, int(boundary.sum()))
        sol = gr.solve_dirichlet(strip_grid, boundary_values=data)
        interior = strip_grid.interior
        assert sol.values[interior].max() <= data[boundary].max()
        assert sol.values[interior].min() >= data[boundary].min()

    def test_iteration_cap_raises(self, ring_solution, monkeypatch):
        # on the strip the preconditioner is exact, so the cap is exercised
        # on the ring, where 3 iterations leave a relative residual ~9e-2
        grid, _ = ring_solution
        rhs = np.where(grid.interior, 1.0, 0.0)
        monkeypatch.setattr(gr, "MAX_ITERATIONS", 3)
        with pytest.raises(gr.SolverError, match="iteration cap of 3 iterations"):
            gr._cg(np.zeros(grid.shape), compact(rhs), grid.interior, grid.hx, grid.hy,
                   tol=1e-13)

    def test_rectangle_solve_needs_one_iteration(self, strip_grid, monkeypatch):
        # the strip interior fills the window's inner rectangle, where the
        # fast-Poisson preconditioner is the exact inverse; a converged solve
        # makes no preconditioner call after its last update, and its one
        # true-residual evaluation applies the operator to every inner row once
        residuals, matvec_rows, preconditions = [], [], []
        residual_norm, apply = gr._residual_norm, gr._apply_neg_laplacian
        fast_poisson = gr._fast_poisson

        def counted_residual(*args):
            residuals.append(1)
            return residual_norm(*args)

        def counted_apply(v, *args, **kwargs):
            matvec_rows.append(len(v) - 2)
            return apply(v, *args, **kwargs)

        def counted_fast_poisson(*args):
            solve = fast_poisson(*args)

            def counted_solve(r, out):
                preconditions.append(1)
                return solve(r, out)

            return counted_solve

        monkeypatch.setattr(gr, "_residual_norm", counted_residual)
        monkeypatch.setattr(gr, "_apply_neg_laplacian", counted_apply)
        monkeypatch.setattr(gr, "_fast_poisson", counted_fast_poisson)
        G = gr.green_function(strip_grid, (2.0, 0.0))
        assert len(residuals) == 1
        assert sum(matvec_rows) == strip_grid.shape[0] - 2
        assert len(preconditions) == 1
        assert G.stats.iterations == 1
        assert G.stats.residual <= 1e-12

    def test_stats_report_the_solve(self, strip_grid, ring_solution):
        _, ring = ring_solution
        assert ring.stats.iterations > 1
        assert 0.0 < ring.stats.residual <= 1e-10
        zero = gr.solve_dirichlet(strip_grid, np.zeros(strip_grid.shape))
        assert zero.stats == gr.SolveStats(iterations=0, residual=0.0)


class TestSolveConsumesItsData:
    def test_float_data_becomes_the_solution(self, ring_solution):
        grid, want = ring_solution
        data = gr.ring_dirichlet_data(grid)
        kept = data[~grid.interior].copy()
        sol = gr.solve_dirichlet(grid, data)
        assert np.shares_memory(sol.values, data)
        assert np.array_equal(sol.values[~grid.interior], kept)
        assert np.array_equal(sol.values, want.values)

    @pytest.mark.parametrize("kind", ["list", "int", "read-only", "fortran"])
    def test_other_data_is_copied(self, ring_solution, kind):
        grid, want = ring_solution
        data = gr.ring_dirichlet_data(grid)
        given = {"list": data.tolist(), "int": data.astype(int), "read-only": data.copy(),
                 "fortran": np.asfortranarray(data)}[kind]
        if kind == "read-only":
            given.setflags(write=False)
        sol = gr.solve_dirichlet(grid, given)
        if kind == "list":
            assert given == data.tolist()
        else:
            assert not np.shares_memory(sol.values, given)
            assert np.array_equal(given, data)
        assert np.array_equal(sol.values, want.values)

    def test_a_failed_solve_gives_its_data_back(self, ring_solution, monkeypatch):
        grid, _ = ring_solution
        data = gr.ring_dirichlet_data(grid)
        given = data.copy()
        monkeypatch.setattr(gr, "MAX_ITERATIONS", 3)
        with pytest.raises(gr.SolverError, match="iteration cap"):
            gr.solve_dirichlet(grid, data)
        assert np.array_equal(data[~grid.interior], given[~grid.interior])

    def test_unread_data_changes_nothing_and_comes_back(self, ring_solution):
        # the inner body's deep nodes and the window corners border no
        # interior node: new data there changes no interior value
        grid, want = ring_solution
        unread = ~grid.interior & ~dirichlet_nodes(grid.interior)
        assert unread[grid.node_index((0.0, 0.0))] and unread[0, 0]
        data = gr.ring_dirichlet_data(grid)
        data[unread] = np.random.default_rng(8).uniform(-5.0, 5.0, int(unread.sum()))
        given = data.copy()
        got = gr.solve_dirichlet(grid, data)
        assert got.stats == want.stats
        assert np.array_equal(got.values[grid.interior], want.values[grid.interior])
        assert np.array_equal(got.values[~grid.interior], given[~grid.interior])


#: bytes per node that a grid budgets for a solve: the grid's mask and three
#: float arrays, kept at three so that no grid refused before is accepted; the
#: solve holds one (a Dirichlet solve's data array becomes its solution, a
#: Green solve allocates its solution)
SOLVE_NODE_BYTES = 1 + 3 * 8
#: the rest, in rows of ny floats: the preconditioner's 64-row blocks (the odd
#: extension and its spectrum), its coefficient vectors, numpy's FFT plan and
#: the copy of the data off the interior; the ring solve below holds 383
#: beyond what exists at the call
SCRATCH_ROWS = 400


class TestSolveMemory:
    @staticmethod
    def traced_peak(run):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            result = run()
            return result, tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()

    def test_solve_adds_only_its_solution(self):
        ring = geo.ConvexRing(geo.square_body(2.0), geo.square_body(0.5))
        grid = gr.build_grid(ring, geo.WindowBox((-2.0, -2.0), (2.0, 2.0)), 0.008)
        assert grid.interior.size >= 250_000
        # above the mask and the data array present at the call: the
        # transient boolean masks, no grid-sized float array (the right-hand
        # side lives on the nodes next to the data)
        allowed = 3 * grid.interior.size + SCRATCH_ROWS * 8 * grid.shape[1]
        data = gr.ring_dirichlet_data(grid)
        sol, peak = self.traced_peak(lambda: gr.solve_dirichlet(grid, data))
        del data
        assert sol.stats.iterations > 1
        assert peak <= allowed
        # green_function allocates its solution, and its right-hand side is one node
        G, peak = self.traced_peak(lambda: gr.green_function(grid, (1.2, 0.0)))
        assert G.stats.iterations > 1
        assert peak <= allowed + 8 * grid.interior.size

    def test_build_grid_counts_what_a_solve_holds(self, monkeypatch):
        counted = []
        monkeypatch.setattr(geo, "check_lattice_memory",
                            lambda nx, ny, node_bytes, what: counted.append(node_bytes))
        gr.build_grid(geo.Strip(), geo.WindowBox((0.0, -np.pi / 2), (8.0, np.pi / 2)), np.pi / 50)
        assert counted == [SOLVE_NODE_BYTES]


def reference_neg_laplacian(v, interior, hx, hy):
    """The whole-array 5-point operator that the row-blocked one replaced."""
    av = np.zeros_like(v)
    av[1:-1, 1:-1] = ((2.0 * v[1:-1, 1:-1] - v[2:, 1:-1] - v[:-2, 1:-1]) / hx ** 2
                      + (2.0 * v[1:-1, 1:-1] - v[1:-1, 2:] - v[1:-1, :-2]) / hy ** 2)
    av[~interior] = 0.0
    return av


DST_SHAPES = [(7, 5), (8, 6), (33, 2 * gr._BLOCK + 3), (2 * gr._BLOCK + 2, 31)]


class TestFastPoisson:
    # _dst1 transforms along axis 1 only; the parameter keeps the test ids
    @pytest.mark.parametrize("shape", DST_SHAPES)
    @pytest.mark.parametrize("axis", [1])
    def test_dst1_matches_scipy(self, shape, axis):
        scipy_fft = pytest.importorskip("scipy.fft")
        x = np.random.default_rng(3).standard_normal(shape)
        got = gr._dst1(x, np.empty_like(x))
        want = scipy_fft.dst(x, type=1, axis=axis)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("shape", DST_SHAPES)
    def test_dst1_in_place(self, shape):
        x = np.random.default_rng(3).standard_normal(shape)
        want = gr._dst1(x, np.empty_like(x))
        assert gr._dst1(x, out=x) is x
        assert np.array_equal(x, want)

    @pytest.mark.parametrize("rows", [2 * gr._BLOCK + 3, 5])
    def test_blocked_matvec_is_bit_identical(self, rows):
        rng = np.random.default_rng(6)
        v = rng.standard_normal((rows, 47))
        interior = rng.random(v.shape) < 0.8
        interior[[0, -1]] = interior[:, [0, -1]] = False
        want = reference_neg_laplacian(v, interior, 0.013, 0.029)
        assert np.array_equal(gr._apply_neg_laplacian(v, interior, 0.013, 0.029), want)
        out = np.full_like(v, np.nan)
        assert gr._apply_neg_laplacian(v, interior, 0.013, 0.029, out=out) is out
        assert np.array_equal(out, want)

    @pytest.mark.parametrize("shape, hx, hy", [
        ((40, 23), 0.1, 0.07), ((17, 130), 1 / 32, 1 / 16), ((130, 17), 1 / 32, 1 / 16),
        # strip grids whose axis-0 interval counts 509 and 1019 are prime
        ((510, 201), 8 / 509, np.pi / 200), ((1020, 201), 16 / 1019, np.pi / 200)]
        # axis-0 interior counts that take every branch of the cyclic
        # reduction: odd and even levels, one row, and 64 +- 1 rows
        + [((n + 2, 13), 0.05, 0.11) for n in (1, 2, 3, 4, 7, 8, 63, 64, 65)])
    def test_rectangle_inverse(self, shape, hx, hy):
        interior = np.zeros(shape, dtype=bool)
        interior[1:-1, 1:-1] = True
        v = np.where(interior, np.random.default_rng(4).standard_normal(shape), 0.0)
        inverse = gr._fast_poisson(shape, hx, hy)
        out = np.full(shape, np.nan)
        back = inverse(gr._apply_neg_laplacian(v, interior, hx, hy), out)
        assert back is out
        assert np.abs(back - v).max() <= 1e-12 * np.abs(v).max()
        there = gr._apply_neg_laplacian(inverse(v, out), interior, hx, hy)
        assert np.abs(there - v).max() <= 1e-12 * np.abs(v).max()

    @pytest.mark.parametrize("nx, ny", [(1, 4), (2, 3), (5, 4), (6, 7), (11, 2)])
    def test_matches_dense_solve(self, nx, ny):
        hx, hy = 0.07, 0.13
        tx = (2 * np.eye(nx) - np.eye(nx, k=1) - np.eye(nx, k=-1)) / hx ** 2
        ty = (2 * np.eye(ny) - np.eye(ny, k=1) - np.eye(ny, k=-1)) / hy ** 2
        dense = np.kron(tx, np.eye(ny)) + np.kron(np.eye(nx), ty)
        r = np.random.default_rng(5).standard_normal((nx + 2, ny + 2))
        want = np.linalg.solve(dense, r[1:-1, 1:-1].ravel()).reshape(nx, ny)
        got = gr._fast_poisson(r.shape, hx, hy)(r, np.empty_like(r))
        assert np.abs(got[1:-1, 1:-1] - want).max() <= 1e-12 * np.abs(want).max()
        assert not got[[0, -1]].any() and not got[:, [0, -1]].any()

    def test_build_keeps_no_grid_sized_table(self):
        # the Thomas sweep's pivot table was one (nx - 2) x (ny - 2) array;
        # the reduction keeps a few vectors of length ny per level
        shape = (1020, 201)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            solve = gr._fast_poisson(shape, 16 / 1019, np.pi / 200)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert callable(solve)
        assert peak < 0.1 * 8 * shape[0] * shape[1]


def reference_pcg(u, b, interior, hx, hy, tol):
    """The full-grid preconditioned CG that the wall-layer solve replaced.

    ``u``'s entries are not read: it is zeroed and the interior solution is
    added into it in place.  ``b`` is the (nodes, values) pair of
    ``gr._cg``; the residual starts as its grid array.  Returns the
    :class:`SolveStats`.  Besides the solution u, the residual r and the
    direction p, one work array w holds A p and then the preconditioned
    residual M r; the mask ``~interior`` is a temporary at each use.  The
    residual is tested right after each update, so a converged solve makes
    no preconditioner call whose result would go unused.
    """
    u.fill(0.0)
    r = spread(b, u.shape)
    b_norm = math.sqrt(gr._dot(r, r))
    if b_norm == 0.0:
        return gr.SolveStats(iterations=0, residual=0.0)
    precondition = gr._fast_poisson(r.shape, hx, hy)
    p = precondition(r, np.empty_like(r))
    p[~interior] = 0.0
    w = np.empty_like(r)
    rz = gr._dot(r, p)
    r_norm = b_norm
    for it in range(1, gr.MAX_ITERATIONS + 1):
        gr._apply_neg_laplacian(p, interior, hx, hy, out=w)
        alpha = rz / gr._dot(p, w)
        w *= alpha
        r -= w
        u += np.multiply(p, alpha, out=w)
        r_norm = math.sqrt(gr._dot(r, r))
        if r_norm <= tol * b_norm:
            return gr.SolveStats(iterations=it, residual=r_norm / b_norm)
        precondition(r, w)
        w[~interior] = 0.0
        rz_new = gr._dot(r, w)
        p *= rz_new / rz
        p += w
        rz = rz_new
    raise gr.SolverError(f"conjugate gradients hit the iteration cap of {gr.MAX_ITERATIONS} "
                         f"iterations; relative residual {r_norm / b_norm:.3e}")


SQUARE_RING_DOMAIN = geo.ConvexRing(geo.square_body(2.0), geo.square_body(0.5))


def ring_problem(h, half=2.0):
    grid = gr.build_grid(SQUARE_RING_DOMAIN, geo.WindowBox((-half, -half), (half, half)), h)
    data = gr.ring_dirichlet_data(grid)
    rhs = np.where(grid.interior, reference_fold(grid, data), 0.0)
    return grid, lambda: gr.solve_dirichlet(grid, data.copy()), rhs, 1e-10


def green_problem(domain, s, h):
    grid = gr.build_grid(domain, domain.truncation_window(s), h)
    source = np.zeros(grid.shape)
    source[grid.node_index((s, 0.0))] = 1.0 / (grid.hx * grid.hy)
    return grid, lambda: gr.green_function(grid, (s, 0.0)), source, 1e-12


WALL_LAYER_CASES = {
    "ring-0.01": lambda: ring_problem(0.01),
    "ring-0.02": lambda: ring_problem(0.02),
    # rows outside the outer square are wholly E: the inverse transform must
    # reach past the rows that hold S
    "ring-wide-window": lambda: ring_problem(0.02, 2.5),
    "strip": lambda: green_problem(geo.Strip(), 4.0, np.pi / 200),
    "sector": lambda: green_problem(geo.domain_from_config("sector"), 8.0, 0.05),
    "exterior": lambda: green_problem(geo.HalfplaneMinusDisk(), 8.0, 0.05),
    "sqrt": lambda: green_problem(SQRT_PROFILE, 4.0, 0.025),
}


class TestWallLayerSolve:
    @pytest.mark.parametrize("case", list(WALL_LAYER_CASES))
    def test_matches_the_full_grid_reference(self, case, monkeypatch):
        grid, solve, rhs, tol = WALL_LAYER_CASES[case]()
        got = solve()
        monkeypatch.setattr(gr, "_cg", reference_pcg)
        want = solve()
        assert abs(got.stats.iterations - want.stats.iterations) <= 1
        scale = np.abs(want.values).max()
        assert np.abs(got.values - want.values).max() <= 10 * tol * scale
        # the reported residual is the true one, b - A u on the interior
        u = np.where(grid.interior, got.values, 0.0)
        true = (np.linalg.norm(rhs - reference_neg_laplacian(u, grid.interior, grid.hx, grid.hy))
                / np.linalg.norm(rhs))
        assert got.stats.residual == pytest.approx(true, rel=1e-12, abs=0.0)
        assert got.stats.residual <= tol

    def test_layer_steps_transform_only_the_wall_rows(self, monkeypatch):
        # the ring's inner square touches 103 of the 399 inner rows; only the
        # first and the last solve transform all of them
        grid, solve, _, _ = ring_problem(0.01)
        sizes = []
        dst1 = gr._dst1

        def counted(x, out, scale=1.0, rows=None):
            sizes.append(len(x) if rows is None else sum(stop - start for start, stop in rows))
            return dst1(x, out, scale, rows)

        monkeypatch.setattr(gr, "_dst1", counted)
        sol = solve()
        inner = grid.shape[0] - 2
        assert inner == 399
        full = [n for n in sizes if n == inner]
        layer = [n for n in sizes if n != inner]
        assert len(full) == 4
        assert len(layer) == 2 * (sol.stats.iterations - 1)
        assert max(layer) <= 110

    def test_a_missed_true_residual_goes_on_iterating(self, monkeypatch):
        # the first true residual is made to miss tol: the solve iterates on
        # from its unchanged right-hand side and still returns the reference
        # solution
        grid, solve, rhs, tol = green_problem(geo.HalfplaneMinusDisk(), 8.0, 0.05)
        want = solve()
        residual_norm = gr._residual_norm
        calls = []

        def spoiled_once(u, b, interior, hx, hy):
            norm = residual_norm(u, b, interior, hx, hy)
            calls.append(1)
            return norm + 1e-6 * np.linalg.norm(rhs) if len(calls) == 1 else norm

        monkeypatch.setattr(gr, "_residual_norm", spoiled_once)
        got, source = np.zeros(grid.shape), compact(rhs)
        stats = gr._cg(got, source, grid.interior, grid.hx, grid.hy, tol=tol)
        assert np.array_equal(spread(source, grid.shape), rhs)
        assert len(calls) == 2
        assert stats.iterations == want.stats.iterations + 1
        assert stats.residual <= tol
        assert np.abs(got - want.values).max() <= 10 * tol * np.abs(want.values).max()

    @pytest.mark.parametrize("case", ["strip", "exterior", "sqrt"])
    def test_a_green_solve_leaves_its_source_unchanged(self, case):
        # the solve only reads its right-hand side, so an iteration that goes
        # on after a missed true residual works on the exact one
        grid, _, rhs, tol = WALL_LAYER_CASES[case]()
        source = compact(rhs)
        gr._cg(np.zeros(grid.shape), source, grid.interior, grid.hx, grid.hy, tol=tol)
        assert np.array_equal(spread(source, grid.shape), rhs)

    def test_a_rectangle_that_misses_tol_raises(self, strip_grid):
        # with no wall layer there is nothing to iterate on
        source = np.zeros(strip_grid.shape)
        source[strip_grid.node_index((2.0, 0.0))] = 1.0
        with pytest.raises(gr.SolverError, match="leaves relative residual .* on a rectangle"):
            gr._cg(np.zeros(strip_grid.shape), compact(source), strip_grid.interior,
                   strip_grid.hx, strip_grid.hy, tol=1e-20)


class TestGreenFunction:
    def test_pole_is_maximum(self, strip_grid):
        G = gr.green_function(strip_grid, (2.0, 0.0))
        i, j = strip_grid.node_index((2.0, 0.0))
        assert G.values[i, j] == G.values.max()

    def test_positive_on_interior(self, strip_grid):
        G = gr.green_function(strip_grid, (2.0, 0.0))
        assert G.values[strip_grid.interior].min() > 0.0

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
        # x0 = (0.5, 0) is node (0, 8) of the probe lattice
        assert np.array_equal(res.probe_points.reshape(*gr.PROBE_SHAPE, 2)[0, 8], cfg.x0)
        for it in res.iterates:
            assert it.samples.reshape(gr.PROBE_SHAPE)[0, 8] == pytest.approx(1.0, abs=1e-10)
        assert res.final.value(np.asarray(cfg.x0)) == pytest.approx(1.0, abs=1e-10)

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

    def test_reference_point_outside_a_truncation_window_names_the_pole(self):
        # x0 lies in the strip but past pole 2's window [0, 4] x [-pi/2, pi/2]
        cfg = gr.MartinApproxConfig(x0=(10.0, 0.0), poles=(2.0, 3.0),
                                    probe_window=geo.WindowBox((0.5, -1.0), (1.0, 1.0)))
        with pytest.raises(geo.GeometryError, match=r"reference point \(10.0, 0.0\) outside "
                                                    r"truncation window for pole 2.0"):
            gr.martin_ratio(geo.Strip(), cfg, 0.05)

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
        moved = np.abs(fld_big.value(res.probe_points) - res.iterates[0].samples).max()
        assert moved <= res.cauchy[0]

    def test_holds_one_grid_at_a_time(self):
        # each iterate's grid is dropped once it is sampled, so the pipeline
        # peaks at the last solve's working set (1.33 of it when every
        # earlier ratio grid stayed alive)
        dom = geo.Strip()
        cfg = gr.MartinApproxConfig(x0=(0.5, 0.0), poles=(3.0, 4.0, 5.0),
                                    probe_window=geo.WindowBox((0.5, -1.0), (2.0, 1.0)))
        h = np.pi / 100
        last = gr.build_grid(dom, dom.truncation_window(5.0), h)
        peaks = []
        for run in (lambda: gr.green_function(last, (5.0, 0.0)),
                    lambda: gr.martin_ratio(dom, cfg, h)):
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                result = run()
                peaks.append(tracemalloc.get_traced_memory()[1] - start)
            finally:
                tracemalloc.stop()
        assert [[lv.stats.iterations for lv in it.levels] for it in result.iterates] == [[1]] * 3
        assert peaks[1] <= 1.2 * peaks[0]


def strip_probe_error(res):
    """Largest relative error of the final ratio on the probe lattice against
    sinh(x) cos(y) / sinh(0.5)."""
    x, y = res.probe_points.T
    exact = np.sinh(x) * np.cos(y) / np.sinh(0.5)
    return float(np.max(np.abs(res.final.value(res.probe_points) - exact) / exact))


GREEN_STRIP = gr.MartinApproxConfig(x0=(0.5, 0.0), poles=(4.0, 6.0, 8.0),
                                    probe_window=geo.WindowBox((0.5, -1.0), (2.0, 1.0)))


class TestTwoLevelRatio:
    def test_fine_window_and_fallback(self, monkeypatch):
        # W = [0.5, 2] x [-1, 1] grown by the margin 2 and clipped to the
        # strip; pole 4 lies within the margin of W, poles 6 and 8 do not
        h = np.pi / 200
        res = gr.martin_ratio(geo.Strip(), GREEN_STRIP, h)
        first, *far = res.iterates
        (only,) = first.levels
        assert only.window == geo.Strip().truncation_window(4.0) and only.h == h
        assert only.interior_nodes == 101092
        for it in far:
            coarse, fine = it.levels
            assert coarse.window == geo.Strip().truncation_window(it.pole)
            assert coarse.h == it.pole / gr.COARSE_STEPS
            assert fine.window == geo.WindowBox((0.0, -np.pi / 2), (4.0, np.pi / 2))
            assert fine.h == h and fine.interior_nodes == 50546
            assert fine.stats.iterations == coarse.stats.iterations == 1
        assert all(b < a for a, b in zip(res.cauchy, res.cauchy[1:]))
        # no worse than one grid over every truncation window
        monkeypatch.setattr(gr, "ZOOM_MARGIN", math.inf)
        one_grid = gr.martin_ratio(geo.Strip(), GREEN_STRIP, h)
        assert all(len(it.levels) == 1 for it in one_grid.iterates)
        assert strip_probe_error(res) <= strip_probe_error(one_grid)

    def test_margin_matters(self, monkeypatch):
        # at h = 1/64 every fine window snaps to the one-grid spacing, so the
        # zoomed probe values differ from the one-grid ones only through the
        # cap data: that difference falls as the margin grows, and at the
        # stated margin it is a small part of the discretization error
        assert gr.ZOOM_MARGIN == 2.0
        runs = {}
        for margin in (math.inf, 3.0, 2.0, 1.0):
            monkeypatch.setattr(gr, "ZOOM_MARGIN", margin)
            runs[margin] = gr.martin_ratio(geo.Strip(), GREEN_STRIP, 1 / 64)
        one_grid = runs.pop(math.inf)
        base = one_grid.final.value(one_grid.probe_points)
        moved = {m: np.max(np.abs(r.final.value(r.probe_points) - base) / base)
                 for m, r in runs.items()}
        assert moved[3.0] < moved[2.0] < moved[1.0]
        assert moved[2.0] <= 3e-3 * strip_probe_error(one_grid)

    def test_large_poles_cost_the_same(self):
        cfg = dataclasses.replace(GREEN_STRIP, poles=(8.0, 16.0, 32.0))
        res = gr.martin_ratio(geo.Strip(), cfg, np.pi / 100)
        assert len({it.levels[-1].interior_nodes for it in res.iterates}) == 1
        # H = s / 160 on a window of fixed height: the coarse grid does not grow
        coarse = [it.levels[0].interior_nodes for it in res.iterates]
        assert coarse == sorted(coarse, reverse=True)
        assert all([lv.stats.iterations for lv in it.levels] == [1, 1] for it in res.iterates)

    @pytest.mark.parametrize("failing_call, stage", [(1, "pole 8, level 1 of 2 (h = 0.05): "),
                                                     (2, "pole 8, level 2 of 2 (h = 0.0314): ")],
                             ids=["level-1", "level-2"])
    def test_solver_error_names_its_stage(self, monkeypatch, failing_call, stage):
        calls = []
        cg = gr._cg

        def failing_cg(*args, **kwargs):
            calls.append(1)
            if len(calls) == failing_call:
                raise gr.SolverError("iteration cap")
            return cg(*args, **kwargs)

        monkeypatch.setattr(gr, "_cg", failing_cg)
        with pytest.raises(gr.SolverError) as err:
            gr.martin_ratio(geo.Strip(), dataclasses.replace(GREEN_STRIP, poles=(8.0,)),
                            np.pi / 100)
        assert str(err.value) == stage + "iteration cap"

    def test_holds_less_than_the_full_grid(self):
        # the far poles' fine grids cover only the probe box, so the run peaks
        # at pole 4's full grid, half the size of pole 8's: under one float
        # array of pole 8's grid (11.5 B per node of it when every pole is
        # solved on its truncation window)
        h = np.pi / 200
        full = gr.build_grid(geo.Strip(), geo.Strip().truncation_window(8.0), h)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            gr.martin_ratio(geo.Strip(), GREEN_STRIP, h)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= 8 * full.interior.size

    def test_exterior_within_10pct_of_the_full_grid(self, monkeypatch):
        dom = geo.HalfplaneMinusDisk()
        cfg = gr.MartinApproxConfig(x0=(2.0, 0.0), poles=(16.0,),
                                    probe_window=geo.WindowBox((1.5, -1.0), (3.0, 1.0)))
        x, y = gr.probe_lattice(cfg.probe_window).T
        exact = (x - x / (x * x + y * y)) / 1.5      # x - x / r^2, normalized at (2, 0)
        errors = []
        for margin, levels in ((gr.ZOOM_MARGIN, 2), (math.inf, 1)):
            monkeypatch.setattr(gr, "ZOOM_MARGIN", margin)
            res = gr.martin_ratio(dom, cfg, 0.05)
            assert len(res.iterates[0].levels) == levels
            errors.append(np.max(np.abs(res.final.value(res.probe_points) - exact) / exact))
        assert errors[0] <= 1.1 * errors[1]


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
        assert grid.interior[grid.node_index((1.0, 0.0))]
        assert not (grid.interior | dirichlet_nodes(grid.interior))[grid.node_index((1.0, 1.5))]

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
            assert np.array_equal(grid.interior, grid.interior[:, ::-1])
            boundary = dirichlet_nodes(grid.interior)
            assert np.array_equal(boundary, boundary[:, ::-1])

    def test_sqrt_profile_green_function_is_mirror_symmetric(self):
        # y = 0 was not a node before the lattice became mirror-exact; the
        # pole snapped to y = -hy/2 and the asymmetry was 0.29 of max u
        dom = geo.domain_from_config({"kind": "profile", "f": "sqrt"})
        grid = gr.build_grid(dom, dom.truncation_window(4.0), 0.05)
        assert len(grid.ys) == 115
        G = gr.green_function(grid, (4.0, 0.0))
        assert G.values[grid.node_index((4.0, 0.0))] == G.values.max()
        assert np.abs(G.values - G.values[:, ::-1]).max() <= 1e-12 * G.values.max()

    def test_green_solve_memory(self):
        # u, the boolean masks and the 64-row blocks: 1.5 grid-sized float
        # arrays (11.8 before the solve ran on four float arrays, 7 with a
        # copy of the source, 5.9 with the Thomas sweep's pivot table, about
        # 5 before the wall-layer solve, 3.6 with its work array, 2.8 with a
        # copy of zero data, 2.5 with a grid-sized right-hand side)
        dom = geo.domain_from_config({"kind": "profile", "f": "sqrt"})
        grid = gr.build_grid(dom, dom.truncation_window(8.0), 0.02)
        assert grid.shape == (801, 401)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            G = gr.green_function(grid, (8.0, 0.0))
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert G.stats.iterations > 1
        assert peak <= 1.6 * 8 * grid.interior.size


class TestSuperlevelClouds:
    def test_strip_iterate_superlevel_convex(self, strip_ratio):
        _, res = strip_ratio
        h = res.final.grid.h
        window = geo.WindowBox((0.1, -1.5), (5.0, 1.5))
        cloud = gr.superlevel_boundary_nodes(res.final, 1.0)
        cloud = cloud[window.contains_closure(cloud)]
        rep = ls.convexity_test(cloud, tol=2 * h)
        assert rep.verdict == "convex"

    def test_level_above_max_empty(self, strip_ratio):
        _, res = strip_ratio
        big = float(res.final.values.max()) + 1.0
        assert len(gr.superlevel_nodes(res.final, big)) == 0

    def test_iterate_superlevel_threshold_positive(self, strip_ratio):
        _, res = strip_ratio
        with pytest.raises(geo.GeometryError):
            gr.superlevel_nodes(res.final, 0.0)

    @pytest.mark.parametrize("c", [0.0, -0.5])
    @pytest.mark.parametrize("cloud", [gr.superlevel_nodes, gr.superlevel_boundary_nodes],
                             ids=["nodes", "boundary_nodes"])
    def test_threshold_must_be_positive(self, ring_solution, cloud, c):
        # off the domain the field is 0, so c <= 0 would take in every node
        _, sol = ring_solution
        with pytest.raises(geo.GeometryError, match="superlevel threshold must be positive"):
            cloud(sol, c)

    def test_halfplane_low_level_nonconvex(self):
        # the unit-disk hole dents the low superlevel sets of the ratio
        grid = gr.build_grid(geo.HalfplaneMinusDisk(), geo.WindowBox((0.0, -8.0), (16.0, 8.0)), 0.05)
        G = gr.green_function(grid, (8.0, 0.0))
        fld = gr.GridField(grid, G.values / G.value((2.0, 0.0)))
        window = geo.WindowBox((0.05, -4.0), (6.0, 4.0))
        cloud = gr.superlevel_boundary_nodes(fld, 0.1)
        cloud = cloud[window.contains_closure(cloud)]
        rep = ls.convexity_test(cloud, tol=2 * grid.h)
        assert rep.verdict == "non_convex"


class TestRingHarness:
    def test_interior_strictly_between_data(self, ring_solution):
        grid, sol = ring_solution
        interior = grid.interior
        assert sol.values[interior].min() > 0.0
        assert sol.values[interior].max() < 1.0

    def test_solution_is_one_on_the_filled_inner_body(self, ring_solution):
        grid, sol = ring_solution
        inner = gr.inner_body_nodes(grid)
        assert np.count_nonzero(inner) > 0
        assert np.all(sol.values[inner] == 1.0)

    def test_superlevel_union_inner_convex(self, ring_solution):
        # the solved field is 1 on the inner body: its superlevel sets are filled
        grid, sol = ring_solution
        for c in (0.25, 0.5, 0.75):
            cloud = gr.superlevel_boundary_nodes(sol, c)
            rep = ls.convexity_test(cloud, tol=2 * grid.h)
            assert rep.verdict == "convex", f"c={c}: deviation {rep.hull_deviation}"

    def test_annulus_alone_nonconvex(self, ring_solution):
        # without the inner body the superlevel cloud is an annulus
        grid, sol = ring_solution
        values = sol.values.copy()
        values[gr.inner_body_nodes(grid)] = 0.0
        cloud = gr.superlevel_boundary_nodes(gr.GridField(grid, values), 0.5)
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
