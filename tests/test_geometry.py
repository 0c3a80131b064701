import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from martinlevels import geometry as geo


@pytest.fixture
def strip():
    return geo.Strip()


@pytest.fixture
def sqrt_profile():
    return geo.ProfileRegion("sqrt")


class TestContainment:
    def test_strip_interior_point(self, strip):
        assert strip.contains((1.0, 0.0))

    def test_halfplane_minus_disk_boundary_circle(self):
        assert not geo.HalfplaneMinusDisk().contains((1.0, 0.0))

    def test_sector_slit_point_on_slit(self):
        assert not geo.SectorMinusSlit().contains((0.5, 0.0))
        assert geo.SectorMinusSlit().contains((0.5, 0.2))

    def test_dimension_mismatch(self, strip):
        with pytest.raises(geo.GeometryError):
            strip.boundary_distance((1.0, 0.0, 0.0))

    def test_vectorized_containment(self, strip):
        pts = np.array([[[1.0, 0.0], [-1.0, 0.0]], [[2.0, 1.0], [2.0, 2.0]]])
        res = strip.contains(pts)
        assert res.tolist() == [[True, False], [True, False]]

    def test_ring_containment(self):
        ring = geo.ConvexRing(geo.square_body(2.0), geo.square_body(0.5))
        assert ring.contains((1.0, 0.0))
        assert not ring.contains((0.25, 0.0))
        assert not ring.contains((2.5, 0.0))


RING = {"kind": "convex_ring", "A": {"vertices": [[-2, -2], [2, -2], [2, 2], [-2, 2]]},
        "B": {"ngon": 7, "radius": 0.6}}
REGISTRY = [{"kind": k} for k in ("strip", "sector", "sector_minus_slit",
                                   "halfplane_minus_disk", "right_halfplane", "cylinder")]
REGISTRY += [RING]
REGISTRY += [{"kind": "profile", "f": name} for name in geo.PROFILES]
REGISTRY += ["rescaled_sqrt"]


def _registry_domain(cfg):
    if cfg == "rescaled_sqrt":
        return geo.rescaled_domain(geo.domain_from_config({"kind": "profile", "f": "sqrt"}), 4.0)
    return geo.domain_from_config(cfg)


#: bodies in both config forms, a y-symmetric and an asymmetric window, and a ring
BODIES_WINDOWS_RING = {
    "vertices-body": geo.body_from_config(
        {"vertices": [[-1.0, -0.5], [2.0, -1.0], [1.5, 1.0], [-0.5, 1.5]]}),
    "ngon-body": geo.body_from_config({"ngon": 7, "radius": 1.5}),
    "symmetric-window": geo.WindowBox((0.0, -1.5), (3.0, 1.5)),
    "asymmetric-window": geo.WindowBox((-1.0, -0.5), (2.0, 1.25)),
    "ring": geo.domain_from_config(RING),
}


def polygons(obj):
    """The vertex loops of a body, a window or both bodies of a ring."""
    if isinstance(obj, geo.ConvexRing):
        return [obj.outer.vertices, obj.inner.vertices]
    if isinstance(obj, geo.WindowBox):
        (x0, y0), (x1, y1) = obj.lower, obj.upper
        return [np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]])]
    return [obj.vertices]


def edge_and_random_points(obj):
    """``(vertices, edges, points)``: the vertices, 7 points inside each
    edge, and both with random points around the object and a NaN point."""
    loops = polygons(obj)
    vertices = np.vstack(loops)
    t = np.linspace(0.0, 1.0, 9)[1:-1, None, None]
    edges = np.vstack([(v + t * (np.roll(v, -1, axis=0) - v)).reshape(-1, 2) for v in loops])
    noise = np.random.default_rng(5).uniform([-2.5, -2.5], [3.5, 2.5], size=(300, 2))
    return vertices, edges, np.vstack([vertices, edges, noise, [[np.nan, 0.0]]])


def reference_edges(body, x, y, test, join=np.logical_and):
    """``ConvexBody._edges`` before bodies were Domains: ``test(cross)``
    joined by ``join`` over the edges, cross being the cross product of an
    edge with the points, positive on the body's side."""
    out = np.full(np.shape(x), join.identity, dtype=bool)
    for (ax, ay), (bx, by) in zip(body.vertices, np.roll(body.vertices, -1, axis=0)):
        join(out, test((bx - ax) * (y - ay) - (by - ay) * (x - ax)), out=out)
    return out


def reference_membership(obj, pts, strict):
    """Membership as the hand-written methods stated it: a body's and a
    window's ``contains(strict=)`` and the ring's edge-join formula."""
    x, y = pts[..., 0], pts[..., 1]
    lt = np.less if strict else np.less_equal
    if isinstance(obj, geo.WindowBox):
        if strict:
            return np.all((pts > obj.lower) & (pts < obj.upper), axis=-1)
        return np.all((pts >= obj.lower) & (pts <= obj.upper), axis=-1)
    if isinstance(obj, geo.ConvexRing):
        return (reference_edges(obj.outer, x, y, lambda cross: lt(0.0, cross))
                & reference_edges(obj.inner, x, y, lambda cross: lt(cross, 0.0), np.logical_or))
    return reference_edges(obj, x, y, lambda cross: lt(0.0, cross))


class TestMembershipContract:
    @pytest.mark.parametrize("cfg", REGISTRY, ids=lambda c: c if isinstance(c, str) else
                             "-".join(str(c[k]) for k in ("kind", "f") if k in c))
    def test_arrays_match_points_and_open_inside_closure(self, cfg):
        dom = _registry_domain(cfg)
        # a lattice through the walls t = 0, y = 0 and y = +-1 plus random points
        X, Y = np.meshgrid(np.linspace(-2.0, 6.0, 33), np.linspace(-3.0, 3.0, 25), indexing="ij")
        lattice = np.stack([X, Y], axis=-1)
        noise = np.random.default_rng(3).uniform([-2.0, -3.0], [6.0, 3.0], size=(4, 25, 2))
        pts = np.concatenate([lattice, noise])
        inside, closure = dom.contains(pts), dom.contains_closure(pts)
        assert inside.shape == closure.shape == pts.shape[:-1]
        assert inside.dtype == closure.dtype == bool
        flat = pts.reshape(-1, 2)
        assert inside.ravel().tolist() == [bool(dom.contains(p)) for p in flat]
        assert closure.ravel().tolist() == [bool(dom.contains_closure(p)) for p in flat]
        assert not np.any(inside & ~closure)
        assert np.any(inside)

    def test_rescaled_wall_in_closure(self, sqrt_profile):
        rd = geo.rescaled_domain(sqrt_profile, 9.0)
        for wall in ((0.0, 1.0), (0.0, -1.0)):
            assert rd.contains_closure(wall)
            assert not rd.contains(wall)

    def test_profile_needs_interval_cross_section(self):
        with pytest.raises(geo.GeometryError):
            geo.ProfileRegion("sqrt", geo.square_body())

    @pytest.mark.parametrize("D", [(0.0, 1.0), (-1.0, 0.0), (1.0, -1.0), (-1.0, 2.0, 3.0),
                                   (-np.inf, 1.0), (np.nan, 1.0), "ab", 1.0],
                             ids=["lo=0", "hi=0", "reversed", "three", "unbounded", "nan",
                                  "string", "number"])
    def test_cross_section_is_an_interval_around_0(self, D):
        with pytest.raises(geo.GeometryError):
            geo.ProfileRegion("sqrt", D)

    def test_cross_section_default_and_walls(self):
        assert geo.ProfileRegion("sqrt").cross_section == (-1.0, 1.0)
        dom = geo.ProfileRegion("sqrt", (-0.5, 2))
        assert dom.slice_at(4.0).intervals == ((-1.0, 4.0),)
        assert dom.contains((4.0, 3.9)) and not dom.contains((4.0, -1.1))

    @pytest.mark.parametrize("cfg", [{"kind": "strip"}, RING, "rescaled_sqrt"],
                             ids=["strip", "convex_ring", "rescaled_sqrt"])
    def test_points_must_be_planar(self, cfg):
        with pytest.raises(geo.GeometryError):
            _registry_domain(cfg).contains(np.zeros((4, 3)))

    # bodies and windows are Domains: contains is the open set, contains_closure its closure
    @pytest.mark.parametrize("name", BODIES_WINDOWS_RING)
    def test_bodies_windows_and_ring_on_edges_vertices_and_random_points(self, name):
        obj = BODIES_WINDOWS_RING[name]
        assert isinstance(obj, geo.Domain)
        vertices, _, pts = edge_and_random_points(obj)
        inside, closure = obj.contains(pts), obj.contains_closure(pts)
        assert inside.shape == closure.shape == pts.shape[:-1]
        assert inside.dtype == closure.dtype == bool
        assert inside.tolist() == [bool(obj.contains(p)) for p in pts]
        assert closure.tolist() == [bool(obj.contains_closure(p)) for p in pts]
        assert not np.any(inside & ~closure)
        assert np.any(inside) and not np.all(closure)
        # every vertex lies on a wall: in the closure, not in the open set
        assert np.all(obj.contains_closure(vertices))
        assert not np.any(obj.contains(vertices))

    @pytest.mark.parametrize("name", [n for n in BODIES_WINDOWS_RING if "window" in n])
    def test_window_edges_are_walls(self, name):
        window = BODIES_WINDOWS_RING[name]
        _, edges, _ = edge_and_random_points(window)
        assert np.all(window.contains_closure(edges))
        assert not np.any(window.contains(edges))

    @pytest.mark.parametrize("name", BODIES_WINDOWS_RING)
    def test_masks_equal_the_hand_written_membership(self, name):
        obj = BODIES_WINDOWS_RING[name]
        _, _, pts = edge_and_random_points(obj)
        assert np.array_equal(obj.contains(pts), reference_membership(obj, pts, True))
        assert np.array_equal(obj.contains_closure(pts), reference_membership(obj, pts, False))

    @pytest.mark.parametrize("name", BODIES_WINDOWS_RING)
    def test_bodies_windows_and_ring_share_the_shape_error(self, name):
        obj = BODIES_WINDOWS_RING[name]
        for member in (obj.contains, obj.contains_closure):
            with pytest.raises(geo.GeometryError, match=r"points must have shape \(\.\.\., 2\)"):
                member(np.zeros((4, 3)))


class TestBoundaryDistance:
    def test_strip_axis_point(self, strip):
        # the left wall at distance 1 is closer than the lines y = +-pi/2
        assert strip.boundary_distance((1.0, 0.0)) == pytest.approx(1.0)

    def test_strip_deep_point(self, strip):
        assert strip.boundary_distance((4.0, 0.0)) == pytest.approx(np.pi / 2)

    def test_halfplane_minus_disk(self):
        assert geo.HalfplaneMinusDisk().boundary_distance((2.0, 0.0)) == pytest.approx(1.0)

    def test_strip_near_wall(self, strip):
        assert strip.boundary_distance((0.1, 1.0)) == pytest.approx(0.1)

    def test_outside_raises(self, strip):
        with pytest.raises(geo.GeometryError):
            strip.boundary_distance((-1.0, 0.0))

    def test_positive_distance_implies_containment(self, strip):
        rng = np.random.default_rng(11)
        for dom in (strip, geo.HalfplaneMinusDisk()):
            for _ in range(50):
                p = (rng.uniform(0.1, 5.0), rng.uniform(-1.5, 1.5))
                try:
                    d = dom.boundary_distance(p)
                except geo.GeometryError:
                    continue
                if d > 0.0:
                    assert dom.contains(p)

    @pytest.mark.parametrize("dom, p, name", [
        (geo.domain_from_config({"kind": "profile", "f": "sqrt"}), (0.5, 0.1), "profile"),
        (geo.domain_from_config(RING), (1.2, 0.0), "convex_ring"),
        (BODIES_WINDOWS_RING["ngon-body"], (0.5, 0.1), "ConvexBody"),
        (BODIES_WINDOWS_RING["symmetric-window"], (0.5, 0.1), "WindowBox"),
    ], ids=["sqrt-profile", "ring", "body", "window"])
    def test_no_closed_form_is_a_geometry_error(self, dom, p, name):
        assert dom.contains(p)
        with pytest.raises(geo.GeometryError, match=f"domain '{name}' has no closed-form"):
            dom.boundary_distance(p)

    @pytest.mark.parametrize("kind", ["strip", "right_halfplane", "sector", "sector_minus_slit",
                                      "halfplane_minus_disk", "cylinder"])
    def test_array_matches_per_point_formulas(self, kind):
        dom = geo.domain_from_config(kind)
        rng = np.random.default_rng(17)
        pts = np.vstack([rng.uniform([-0.5, -3.0], [4.0, 3.0], size=(4000, 2)),
                         # around the slit [0, 1] x {0}, its tip and the corner
                         rng.uniform([0.0, -0.05], [1.2, 0.05], size=(1000, 2)),
                         [[0.5, 1e-12], [1.0 + 1e-9, 0.0], [1e-9, 0.0], [0.3, -1e-300]]])
        pts = pts[dom.contains(pts)]
        ref = np.array([reference_boundary_distance(kind, x, y) for x, y in pts])
        got = dom.boundary_distance(pts)
        assert got.shape == (len(pts),)
        # np.hypot and math.hypot may round the last bit of hypot(x, y) = d + 1 apart
        assert np.all(np.abs(got - ref) <= np.spacing(ref + 1.0))
        if kind != "halfplane_minus_disk":
            assert np.array_equal(got, ref)
        grid = pts[:12].reshape(3, 4, 2)
        assert np.array_equal(dom.boundary_distance(grid), got[:12].reshape(3, 4))
        assert dom.boundary_distance(pts[0]) == got[0]
        with pytest.raises(geo.GeometryError, match="outside"):
            dom.boundary_distance(np.vstack([pts[:5], [[-1.0, 5.0]], pts[5:9]]))


def reference_boundary_distance(kind, x, y):
    """The per-point boundary distances the array forms replaced."""
    rays = (x - abs(y)) / math.sqrt(2.0)
    return float({"strip": lambda: min(x, np.pi / 2 - abs(y)),
                  "right_halfplane": lambda: x,
                  "sector": lambda: rays,
                  "sector_minus_slit": lambda: min(rays, geo.edge_distances(
                      np.array([[x, y]]), geo._SLIT)[0, 0]),
                  "halfplane_minus_disk": lambda: min(x, math.hypot(x, y) - 1.0),
                  "cylinder": lambda: 1.0 - abs(y)}[kind]())


def reference_point_segment_distance(p, a, b):
    """The per-segment distance that edge_distances replaced."""
    ab = b - a
    denom = float(ab @ ab)
    t = 0.0 if denom == 0.0 else float(np.clip((p - a) @ ab / denom, 0.0, 1.0))
    return float(np.linalg.norm(p - (a + t * ab)))


class TestEdgeDistances:
    # the reference's dot products and norm may run through BLAS, which can
    # fuse a multiply-add: both agree to an ulp of the coordinate scale
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_per_segment_reference(self, seed):
        rng = np.random.default_rng(seed)
        scale = 10.0 ** rng.uniform(-3, 3)
        verts = rng.normal(size=(int(rng.integers(2, 9)), 2)) * scale
        verts[1] = verts[0]                           # a zero-length edge
        pts = rng.normal(size=(200, 2)) * 2 * scale
        got = geo.edge_distances(pts, verts)
        m = len(verts)
        ref = np.array([[reference_point_segment_distance(p, verts[k], verts[(k + 1) % m])
                         for k in range(m)] for p in pts])
        assert got.shape == (200, m)
        assert np.max(np.abs(got - ref)) <= 1e-15 * 8 * scale

    def test_slit_distance(self):
        dom = geo.SectorMinusSlit()
        a, b = np.zeros(2), np.array([1.0, 0.0])
        rng = np.random.default_rng(9)
        for x, y in rng.uniform([0.05, -1.0], [3.0, 1.0], size=(200, 2)):
            if not dom.contains((x, y)):
                continue
            ref = min((x - abs(y)) / math.sqrt(2.0),
                      reference_point_segment_distance(np.array([x, y]), a, b))
            assert abs(dom.boundary_distance((x, y)) - ref) <= 1e-15 * 4
        assert dom.boundary_distance((0.5, 0.1)) == pytest.approx(0.1)
        assert dom.boundary_distance((1.2, 0.1)) == pytest.approx(math.hypot(0.2, 0.1))


class TestSupportFunction:
    def test_origin_must_be_inside(self):
        with pytest.raises(geo.GeometryError):
            geo.ConvexBody([[1.0, 1.0], [2.0, 1.0], [2.0, 2.0], [1.0, 2.0]])

    @pytest.mark.parametrize("vertices", [[[-1.0], [1.0]], [-1.0, 1.0], [[[0.0, 1.0]]]],
                             ids=["1-d column", "flat", "3-d array"])
    def test_bodies_are_planar(self, vertices):
        with pytest.raises(geo.GeometryError, match="planar"):
            geo.ConvexBody(vertices)

    @pytest.mark.parametrize("seed", range(6))
    def test_symmetry_and_boundary_match_vertex_loops(self, seed):
        rng = np.random.default_rng(seed)
        th = np.sort(rng.uniform(0.0, np.pi, 5))
        half = np.column_stack([np.cos(th), np.sin(th)]) * rng.uniform(0.5, 2.0, (5, 1))
        for pts in (np.vstack([half, -half]), np.vstack([half, -half + 1e-9]),
                    np.vstack([half, -half[1:], [[0.0, -3.0]]])):
            body = geo.ConvexBody(pts)
            assert np.all(body.contains_closure(pts))


class TestSlices:
    def test_strip_slice(self, strip):
        sl = strip.slice_at(1.0)
        assert sl.intervals == ((-np.pi / 2, np.pi / 2),)

    def test_profile_slice(self, sqrt_profile):
        sl = sqrt_profile.slice_at(4.0)
        (a, b), = sl.intervals
        assert (a, b) == pytest.approx((-2.0, 2.0))

    def test_halfplane_minus_disk_nonconvex_slice(self):
        sl = geo.HalfplaneMinusDisk().slice_at(0.5)
        assert len(sl.intervals) == 2
        (_, a), (b, _) = sl.intervals
        assert a == pytest.approx(-math.sqrt(0.75))
        assert b == pytest.approx(math.sqrt(0.75))
        assert not sl.contains(0.0)

    @pytest.mark.parametrize("cfg", [c for c in REGISTRY if c not in (RING, "rescaled_sqrt")],
                             ids=lambda c: "-".join(str(c[k]) for k in ("kind", "f") if k in c))
    @pytest.mark.parametrize("t", [0.3, 1.0, 2.5])
    def test_slice_agrees_with_membership(self, cfg, t):
        # on a y-lattice, farther than 1e-6 from the interval ends: near them
        # the rounding of a wall (1 + y^2 on the circle) decides membership
        dom = _registry_domain(cfg)
        intervals = dom.slice_at(t).intervals
        ends = np.array([e for interval in intervals for e in interval if np.isfinite(e)])
        ys = np.linspace(-4.0, 4.0, 8001)
        ys = ys[np.all(np.abs(ys[:, None] - ends) > 1e-6, axis=1)]
        in_slice = np.any([(a < ys) & (ys < b) for a, b in intervals], axis=0)
        pts = np.column_stack([np.full_like(ys, t), ys])
        np.testing.assert_array_equal(dom.contains(pts), in_slice)

    def test_empty_slice_raises(self, strip):
        with pytest.raises(geo.GeometryError):
            strip.slice_at(-1.0)

    def test_ring_slice(self):
        # rings have no slices, but boundary samples on both squares, here
        # with the outer one between lattice lines
        ring = geo.ConvexRing(geo.square_body(2.0), geo.square_body(0.5))
        with pytest.raises(geo.GeometryError, match="'convex_ring' has no slices"):
            ring.slice_at(0.0)
        pts = ring.boundary_points(geo.WindowBox((-2.3, -2.3), (2.3, 2.3)), 40)
        side = np.abs(pts).max(axis=1)
        assert np.any(side == 2.0) and np.any(side == 0.5)
        assert np.all((side == 2.0) | (side == 0.5))

    @pytest.mark.parametrize("n", [0, 1])
    def test_boundary_points_needs_two_nodes(self, strip, n):
        with pytest.raises(geo.GeometryError, match="n >= 2"):
            strip.boundary_points(geo.WindowBox((0.0, -1.0), (3.0, 1.0)), n)


class TestRescaledDomain:
    def test_constant_profile_is_unit_cylinder(self):
        prof = geo.ProfileRegion("const")
        rd = geo.rescaled_domain(prof, 10.0)
        for t in np.linspace(-4.9, 4.9, 11):
            assert rd.radius(t) == pytest.approx(1.0)
        assert rd.contains((4.9, 0.5))
        assert not rd.contains((5.1, 0.5))
        assert not rd.contains((0.0, 1.0))

    def test_sqrt_profile_radii(self, sqrt_profile):
        rd = geo.rescaled_domain(sqrt_profile, 400.0)
        # radius(t) = sqrt(1 + t / sqrt(s))
        assert rd.radius(2.0) == pytest.approx(math.sqrt(1.1), abs=1e-12)
        assert rd.radius(-2.0) == pytest.approx(math.sqrt(0.9), abs=1e-12)

    def test_strip_rescale(self):
        rd = geo.rescaled_domain(geo.Strip(), 8.0)
        assert rd.radius(1.3) == pytest.approx(1.0)

    def test_nonpositive_s_raises(self, sqrt_profile):
        with pytest.raises(geo.GeometryError):
            geo.rescaled_domain(sqrt_profile, 0.0)


def _hull_over_rows(points):
    """Reference: the monotone chain over numpy rows and numpy scalars."""
    pts = np.unique(np.asarray(points, dtype=float), axis=0)
    if len(pts) <= 2:
        return pts
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def build(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = build(pts)
    upper = build(pts[::-1])
    return np.array(lower[:-1] + upper[:-1])


class TestConvexHull:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_row_reference(self, seed):
        # duplicates and collinear runs exercise the `<= 0` pops; the float
        # chain must give the same vertices bit for bit
        rng = np.random.default_rng(seed)
        scale = 10.0 ** rng.integers(-3, 4)
        cloud = rng.normal(size=(400, 2)) * scale
        t = rng.uniform(-1.0, 1.0, size=(60, 1))
        line = np.array([0.3, -0.7]) * scale + t * np.array([1.0, 2.0]) * scale
        grid = rng.integers(-4, 5, size=(80, 2)) * 0.25 * scale
        pts = np.vstack([cloud, cloud[:50], line, grid, grid[:20]])
        pts = pts[rng.permutation(len(pts))]
        got = geo.convex_hull_2d(pts)
        want = _hull_over_rows(pts)
        assert got.shape == want.shape
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("pts", [[[1.0, 2.0]], [[1.0, 2.0], [1.0, 2.0]],
                                     [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]],
                                     [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.5, 0.0]]])
    def test_degenerate_inputs_match(self, pts):
        assert np.array_equal(geo.convex_hull_2d(pts), _hull_over_rows(pts))


class TestHausdorff:
    def test_identical_clouds(self):
        pts = np.random.default_rng(0).normal(size=(40, 2))
        assert geo.hausdorff_distance(pts, pts) == 0.0

    def test_singletons(self):
        assert geo.hausdorff_distance([[0.0, 0.0]], [[3.0, 4.0]]) == pytest.approx(5.0)

    def test_empty_raises(self):
        with pytest.raises(geo.GeometryError):
            geo.hausdorff_distance(np.empty((0, 2)), [[1.0, 2.0]])

    def test_rescaled_sqrt_vs_cylinder(self, sqrt_profile):
        rd = geo.rescaled_domain(sqrt_profile, 400.0)
        window = geo.WindowBox((-2.0, -2.0), (2.0, 2.0))
        ts = np.linspace(-2.0, 2.0, 801)
        cyl = np.vstack([np.column_stack([ts, np.ones_like(ts)]),
                         np.column_stack([ts, -np.ones_like(ts)])])
        d = geo.hausdorff_distance(rd.boundary_points(window, 801), cyl)
        assert d <= 0.052

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 31))
    def test_metric_properties(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(12, 2))
        b = rng.normal(size=(9, 2))
        c = rng.normal(size=(15, 2))
        dab = geo.hausdorff_distance(a, b)
        assert dab == pytest.approx(geo.hausdorff_distance(b, a))
        assert dab <= geo.hausdorff_distance(a, c) + geo.hausdorff_distance(c, b) + 1e-12


class TestProfiles:
    def test_registry_profiles_pass_hypotheses(self):
        for name in ("sqrt", "log1p", "const", "saturating"):
            geo.ProfileRegion(name)

    def test_increasing_derivative_rejected(self):
        # concavity is checked on f itself: t^2 is convex
        with pytest.raises(geo.GeometryError, match="not concave"):
            geo.ProfileRegion(lambda t: t * t)

    def test_nonpositive_profile_rejected(self):
        with pytest.raises(geo.GeometryError, match="positive"):
            geo.ProfileRegion(lambda t: t - 1.0)


class TestWindowAndConfig:
    def test_empty_window_raises(self):
        with pytest.raises(geo.GeometryError):
            geo.WindowBox((0.0, 0.0), (0.0, 1.0))

    def test_window_lattice_hits_corners(self):
        w = geo.WindowBox((0.0, -1.0), (2.0, 1.0))
        xs, ys = w.lattice(0.1)
        assert xs[0] == 0.0 and xs[-1] == 2.0
        assert ys[0] == -1.0 and ys[-1] == 1.0

    @pytest.mark.parametrize("half, h", [(1.0, 0.1), (math.pi / 2, math.pi / 200),
                                         (2.0 * math.sqrt(8.0), 0.05), (0.7, 0.3), (3.0, 0.043)])
    def test_symmetric_window_lattice_is_mirror_exact(self, half, h):
        xs, ys = geo.WindowBox((0.0, -half), (2.0, half)).lattice(h)
        n = len(ys) - 1
        assert n % 2 == 0 and abs(n - round(2 * half / h)) <= 1
        assert ys[n // 2] == 0.0 and np.array_equal(ys[::-1], -ys)
        assert ys[0] == -half and ys[-1] == half
        # the lower half keeps the nodes of the plain formula
        np.testing.assert_array_equal(ys[:n // 2], -half + 2 * half * np.arange(n // 2) / n)

    def test_asymmetric_window_lattice_unchanged(self):
        xs, ys = geo.WindowBox((0.0, -1.0), (2.0, 1.5)).lattice(0.1)
        np.testing.assert_array_equal(ys, -1.0 + 2.5 * np.arange(26) / 25)

    def test_domain_from_config(self):
        assert geo.domain_from_config({"kind": "strip"}).kind == "strip"
        ring = geo.domain_from_config({
            "kind": "convex_ring",
            "A": {"vertices": [[-2, -2], [2, -2], [2, 2], [-2, 2]]},
            "B": {"vertices": [[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]]}})
        assert ring.contains((1.0, 0.0))
        prof = geo.domain_from_config({"kind": "profile", "f": "sqrt",
                                       "D": {"vertices": [[-1], [1]]}})
        assert prof.contains((4.0, 1.5))
        with pytest.raises(geo.GeometryError):
            geo.domain_from_config({"kind": "moebius"})

    @pytest.mark.parametrize("cfg,key", [
        ({"kind": "profile"}, "'f'"),
        ({"kind": "convex_ring", "B": {"ngon": 6}}, "'A'"),
        ({"kind": "convex_ring", "A": {"ngon": 6, "radius": 2.0}}, "'B'"),
        ({"kind": "profile", "f": "cubic"}, "'cubic'"),
        ({"kind": "profile", "f": 3}, "callable"),
    ])
    def test_domain_config_names_missing_key(self, cfg, key):
        with pytest.raises(geo.GeometryError, match=key):
            geo.domain_from_config(cfg)

    @pytest.mark.parametrize("cfg, named", [
        ({"kind": "strip", "f": "sqrt"}, "domain kind 'strip' key 'f' is unknown; known: ['kind']"),
        ({"kind": "profile", "f": "sqrt", "d": {}}, "key 'd' is unknown"),
        ({"kind": "convex_ring", "A": {"ngon": 6, "radius": 2.0},
          "B": {"vertices": [[-0.5, -0.5], [0.5, -0.5], [0, 0.5]], "ngon": 6}},
         "ring body 'B': vertices-form key 'ngon' is unknown"),
        ({"kind": ["strip"]}, "unknown domain kind"),
    ], ids=["plain-kind", "profile", "vertices-body", "unhashable-kind"])
    def test_domain_config_rejects_unknown_keys(self, cfg, named):
        with pytest.raises(geo.GeometryError) as exc:
            geo.domain_from_config(cfg)
        assert named in str(exc.value)

    def test_sector_minus_slit_states_the_slit_as_an_inequality(self):
        dom, sector = geo.SectorMinusSlit(), geo.Sector()
        pts = np.array([[0.5, 0.0], [1.0, 0.0], [1.0 + 1e-12, 0.0], [0.5, 1e-12], [0.5, -0.4],
                        [0.0, 0.0], [2.0, 0.0], [0.5, 0.6]])
        assert dom.contains(pts).tolist() == [False, False, True, True, True, False, True, False]
        assert np.array_equal(dom.contains_closure(pts), sector.contains_closure(pts))
        classes, overriding = [geo.Domain], []
        while classes:
            cls = classes.pop()
            classes.extend(cls.__subclasses__())
            if cls is not geo.Domain and {"contains", "contains_closure"} & set(vars(cls)):
                overriding.append(cls)
        # every domain, the ring included, states its inequalities in _member
        assert overriding == []

    def test_ngon_config(self):
        body = geo.body_from_config({"ngon": 64, "radius": 2.0})
        assert len(body.vertices) == 64
        assert np.linalg.norm(body.vertices, axis=1) == pytest.approx(np.full(64, 2.0))


def reference_memberships(dom, p):
    """The open-set and closure masks with each domain's inequalities written
    out twice, once strict and once not."""
    x, y = p[..., 0], p[..., 1]
    if dom.kind == "strip":
        return (x > 0.0) & (np.abs(y) < np.pi / 2), (x >= 0.0) & (np.abs(y) <= np.pi / 2)
    if dom.kind == "right_halfplane":
        return x > 0.0, x >= 0.0
    if dom.kind in ("sector", "sector_minus_slit"):
        closure = (x >= 0.0) & (np.abs(y) <= x)
        inside = (x > 0.0) & (np.abs(y) < x)
        if dom.kind == "sector_minus_slit":
            inside &= ~((y == 0.0) & (x <= 1.0))
        return inside, closure
    if dom.kind == "halfplane_minus_disk":
        return (x > 0.0) & (x * x + y * y > 1.0), (x >= 0.0) & (x * x + y * y >= 1.0)
    if dom.kind == "cylinder":
        return np.abs(y) < 1.0, np.abs(y) <= 1.0
    r = dom.radius(x)
    if dom.kind == "profile":
        axial_open, axial_closed = x > 0.0, x >= 0.0
    else:
        axial_open, axial_closed = np.abs(x) < dom.s / 2.0, np.abs(x) <= dom.s / 2.0
    return (axial_open & (r * dom.lo < y) & (y < r * dom.hi),
            axial_closed & (r * dom.lo <= y) & (y <= r * dom.hi))


#: exact boundary floats: x = 0, y = +-pi/2, |y| = x, (0.6, 0.8), (1, 0),
#: |y| = 1, the slit, the sqrt profile's walls (4, +-2) and (0.25, +-0.5) and
#: the rescaled slab's ends t = +-2 at s = 4
_EDGE_VALUES = [0.0, 0.25, 0.5, 0.6, 0.8, 1.0, np.pi / 2, 2.0, 4.0]
_EDGE_POINTS = np.array([(x, s * y) for x in _EDGE_VALUES + [-0.5, -2.0]
                         for y in _EDGE_VALUES for s in (1.0, -1.0)])


class TestOneInequalitySet:
    @pytest.mark.parametrize("dom", [geo.Strip(), geo.Sector(math.inf), geo.Sector(),
                                     geo.SectorMinusSlit(), geo.HalfplaneMinusDisk(),
                                     geo.CylinderDomain(),
                                     geo.ProfileRegion("sqrt"),
                                     geo.RescaledProfile(geo.ProfileRegion("sqrt"), 4.0)],
                             ids=lambda d: d.kind)
    def test_masks_bit_equal_to_separate_inequalities(self, dom):
        noise = np.random.default_rng(17).uniform([-3.0, -4.0], [6.0, 4.0], size=(10 ** 4, 2))
        pts = np.concatenate([noise, _EDGE_POINTS])
        inside, closure = reference_memberships(dom, pts)
        np.testing.assert_array_equal(dom.contains(pts), inside)
        np.testing.assert_array_equal(dom.contains_closure(pts), closure)
        # the edge points hit walls: some lie in the closure but not the open set
        edge = slice(len(noise), None)
        assert np.any(closure[edge] & ~inside[edge])


class TestLatticeSpacing:
    @pytest.mark.parametrize("h", [0.0, -0.1, math.nan])
    def test_nonpositive_spacing_rejected(self, h):
        with pytest.raises(geo.GeometryError, match="must be positive"):
            geo.WindowBox((0.0, -1.0), (2.0, 1.0)).lattice(h)
