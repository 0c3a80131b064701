"""Unbounded planar domains, convex cross-sections, and point-set utilities.

Points are planar: sequences/ndarrays ``(t, y)`` whose first coordinate is
the axial variable.  Every domain answers membership of the open set and of
its closure on arrays of shape ``(..., 2)`` in one call.  Every object here
is immutable after construction and every operation is pure, so values can
be shared freely between threads.

Domains are built either from the named registry (``strip``,
``sector_minus_slit``, ``halfplane_minus_disk``, ``right_halfplane``,
``cylinder``, ``convex_ring``) or as profile regions
``{(t, y): t > 0, y in f(t) * D}`` for a positive profile ``f`` and a bounded
interval ``D`` containing the origin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class GeometryError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Windows
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WindowBox:
    """Axis-aligned planar box given by lower/upper corners (nonempty interior)."""

    lower: tuple
    upper: tuple

    def __post_init__(self):
        lo = tuple(float(v) for v in self.lower)
        hi = tuple(float(v) for v in self.upper)
        if len(lo) != 2 or len(hi) != 2:
            raise GeometryError("window corners must be planar points")
        if not all(a < b for a, b in zip(lo, hi)):
            raise GeometryError(f"window has empty interior: lower={lo}, upper={hi}")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    def extent(self):
        return tuple(b - a for a, b in zip(self.lower, self.upper))

    def contains(self, p, strict=False):
        """Membership of points ``(..., 2)`` in the closed (or open) box."""
        p = np.asarray(p, dtype=float)
        if strict:
            inside = (p > self.lower) & (p < self.upper)
        else:
            inside = (p >= self.lower) & (p <= self.upper)
        return np.all(inside, axis=-1)[()]

    def lattice(self, h):
        """Node coordinates of a grid of spacing ~h snapped to the corners.

        A window symmetric in y (lower y = -upper y) gets mirror-exact y
        nodes: an even number of intervals, a node at exactly 0 and an upper
        half that is the negation of the lower half.
        """
        if not h > 0.0:
            raise GeometryError(f"lattice spacing h={h} must be positive")
        (x0, y0), (x1, y1) = self.lower, self.upper
        nx, ny = (max(1, int(round((b - a) / h))) for a, b in zip(self.lower, self.upper))
        xs = x0 + (x1 - x0) * np.arange(nx + 1) / nx
        if y0 != -y1:
            return xs, y0 + (y1 - y0) * np.arange(ny + 1) / ny
        ny += ny % 2
        half = y0 + (y1 - y0) * np.arange(ny // 2) / ny
        return xs, np.concatenate([half, [0.0], -half[::-1]])


# lattice rows per block: bounds a lattice pass's point buffer at 64 x len(ys) x 2
LATTICE_BLOCK = 64


def lattice_blocks(xs, ys):
    """Yield ``(rows, points)`` over the lattice xs x ys, 64 rows at a time.

    ``rows`` is the slice of xs in the block and ``points`` the block's node
    coordinates, shape ``(k, len(ys), 2)`` with ``points[i, j] = (xs[i], ys[j])``.
    The points live in one buffer that the next block overwrites.
    """
    buf = np.empty((min(len(xs), LATTICE_BLOCK), len(ys), 2))
    for start in range(0, len(xs), LATTICE_BLOCK):
        rows = slice(start, start + LATTICE_BLOCK)
        pts = buf[:len(xs[rows])]
        pts[..., 0] = xs[rows, None]
        pts[..., 1] = ys
        yield rows, pts


# ---------------------------------------------------------------------------
# Convex bodies (bounded convex polygons containing the origin)
# ---------------------------------------------------------------------------

class ConvexBody:
    """Bounded convex polygon given by its vertices, origin strictly inside.

    The body is reduced to its convex hull, stored in counter-clockwise
    order; smooth bodies are approximated by polygons (see
    :func:`regular_polygon`).
    """

    def __init__(self, vertices, symmetric=None):
        v = np.asarray(vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2:
            raise GeometryError(f"body vertices must be planar points (n, 2), got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise GeometryError("body vertices must be finite")
        self.vertices = convex_hull_2d(v)
        if len(self.vertices) < 3:
            raise GeometryError("body is degenerate (collinear vertices)")
        if not self.contains(np.zeros(2)):
            raise GeometryError("origin not strictly inside body")
        if symmetric is None:
            symmetric = self._detect_symmetry()
        elif symmetric and not self._detect_symmetry():
            raise GeometryError("symmetric flag set but vertex set is not closed under negation")
        self.symmetric = bool(symmetric)

    def _detect_symmetry(self, tol=1e-12):
        """Whether the negation of every vertex is a vertex, to tol * scale."""
        v = self.vertices
        scale = 1.0 + np.abs(v).max()
        gaps = np.linalg.norm(v[:, None, :] + v[None, :, :], axis=-1).min(axis=1)
        return bool(np.all(gaps <= tol * scale))

    def contains(self, w, strict=True):
        """Membership of planar points ``w`` (shape ``(..., 2)``) in D.

        The open body when ``strict``, its closure otherwise.
        """
        w = np.asarray(w, dtype=float)
        if w.shape[-1:] != (2,):
            raise GeometryError(f"membership needs points (..., 2), got {w.shape}")
        v = self.vertices
        n = len(v)
        x, y = w[..., 0], w[..., 1]
        inside = np.ones(np.shape(x), dtype=bool)
        for k in range(n):
            ax, ay = v[k]
            bx, by = v[(k + 1) % n]
            cross = (bx - ax) * (y - ay) - (by - ay) * (x - ax)
            inside &= (cross > 0.0) if strict else (cross >= 0.0)
        return inside[()]

    def boundary_points(self, n):
        """~n points sampled uniformly by arc length along the boundary."""
        v = self.vertices
        edges = np.roll(v, -1, axis=0) - v
        lengths = np.linalg.norm(edges, axis=1)
        m = np.maximum(1, np.rint(n * lengths / lengths.sum()).astype(int))   # points per edge
        k = np.repeat(np.arange(len(v)), m)
        ts = (np.arange(m.sum()) - np.repeat(np.cumsum(m) - m, m)) / m[k]
        return v[k] + ts[:, None] * edges[k]


def convex_hull_2d(points):
    """Convex hull of 2-d points, counter-clockwise, via monotone chain."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    distinct = np.ones(len(pts), dtype=bool)
    distinct[1:] = np.any(pts[1:] != pts[:-1], axis=1)
    pts = pts[distinct]
    if len(pts) <= 2:
        return pts
    # Python floats: the same IEEE double arithmetic as numpy scalars, faster
    pts = pts.tolist()

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


def edge_distances(pts, vertices):
    """(n, m) distances from each of n points to each polygon edge (k, k+1 mod m)."""
    (ax, ay), (bx, by) = vertices.T, (np.roll(vertices, -1, axis=0) - vertices).T
    L2 = bx * bx + by * by
    dx = pts[:, None, 0] - ax
    dy = pts[:, None, 1] - ay
    t = np.divide(dx * bx + dy * by, L2, out=np.zeros_like(dx), where=L2 != 0.0)
    np.clip(t, 0.0, 1.0, out=t)
    ex = pts[:, None, 0] - (ax + t * bx)
    ey = pts[:, None, 1] - (ay + t * by)
    return np.sqrt(ex * ex + ey * ey)


def regular_polygon(n=64, radius=1.0):
    """Regular n-gon approximation of the disk of the given radius."""
    if n < 3:
        raise GeometryError("polygon needs >= 3 vertices")
    th = 2.0 * np.pi * np.arange(n) / n
    return ConvexBody(np.column_stack([radius * np.cos(th), radius * np.sin(th)]))


def square_body(half=1.0):
    return ConvexBody([[-half, -half], [half, -half], [half, half], [-half, half]])


# ---------------------------------------------------------------------------
# Profiles
# ---------------------------------------------------------------------------

#: closed-form (f, f') pairs usable as profile functions
PROFILES = {
    "sqrt": (np.sqrt, lambda t: 0.5 / np.sqrt(t)),
    "log1p": (np.log1p, lambda t: 1.0 / (1.0 + t)),
    "const": (lambda t: np.ones_like(np.asarray(t, dtype=float)), lambda t: np.zeros_like(np.asarray(t, dtype=float))),
    "saturating": (lambda t: t / (1.0 + t), lambda t: 1.0 / (1.0 + t) ** 2),
}

#: geometric sampling grid on which profile hypotheses are checked
_HYPOTHESIS_GRID = 2.0 ** np.arange(-6, 21)


class ProfileDomain:
    """Profile function ``f`` plus cross-section ``D``, an interval
    ``(lo, hi)`` with ``lo < 0 < hi``.

    ``f`` (and ``fprime``) must accept float arrays and act elementwise;
    membership of the closure evaluates ``f`` at ``t = 0``, where it must
    return its limit from the right.  ``f`` may also be a name from
    :data:`PROFILES`.  ``profile_kind`` is ``"lipschitz-concave-derivative"``
    when f' is non-increasing with limit 0 (checked by sampling on a
    geometric grid, tolerance 1e-9) and ``"general"`` otherwise.  When
    ``fprime`` is omitted a centered finite difference of ``f`` is used.
    """

    def __init__(self, f, cross_section=(-1.0, 1.0), fprime=None,
                 profile_kind="lipschitz-concave-derivative", name=None):
        try:
            lo, hi = map(float, cross_section)
        except (TypeError, ValueError):
            raise GeometryError(f"cross-section D must be an interval (lo, hi), "
                                f"got {cross_section!r}") from None
        if not -math.inf < lo < 0.0 < hi < math.inf:
            raise GeometryError(f"cross-section D = ({lo}, {hi}) needs finite lo < 0 < hi")
        if isinstance(f, str):
            if f not in PROFILES:
                raise GeometryError(f"unknown profile {f!r}; known: {sorted(PROFILES)}")
            name = name or f
            f, fp = PROFILES[f]
            fprime = fprime or fp
        elif not callable(f):
            raise GeometryError(f"profile must be a callable or a name from {sorted(PROFILES)}")
        if fprime is None:
            def fprime(t, _f=f):
                h = 1e-6 * (1.0 + np.abs(t))
                return (_f(t + h) - _f(t - h)) / (2.0 * h)
        self.f = f
        self.fprime = fprime
        self.cross_section = (lo, hi)
        self.profile_kind = profile_kind
        self.name = name
        self._validate()

    def _validate(self, tol=1e-9):
        fv = np.asarray(self.f(_HYPOTHESIS_GRID), dtype=float)
        if not np.all(fv > 0.0):
            raise GeometryError("profile must be positive on (0, inf)")
        if self.profile_kind == "lipschitz-concave-derivative":
            dv = np.asarray(self.fprime(_HYPOTHESIS_GRID), dtype=float)
            if not np.all(np.diff(dv) <= tol):
                k = int(np.argmax(np.diff(dv) > tol))
                raise GeometryError(
                    f"profile derivative increases between t={_HYPOTHESIS_GRID[k]:g} "
                    f"and t={_HYPOTHESIS_GRID[k + 1]:g}")


# ---------------------------------------------------------------------------
# Cross-sections (slices)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SliceSet:
    """The cross-section of a domain at a fixed axial coordinate: a tuple of
    open intervals (possibly unbounded)."""

    t: float
    intervals: tuple = ()

    def __post_init__(self):
        if not self.intervals:
            raise GeometryError(f"slice at t={self.t} is empty")

    @property
    def bounded(self):
        return all(np.isfinite(a) and np.isfinite(b) for a, b in self.intervals)

    def contains(self, y):
        return any(a < y < b for a, b in self.intervals)

    def sample(self, n, span=None):
        """n points per interval, endpoints excluded; unbounded needs span."""
        out = []
        for a, b in self.intervals:
            if not (np.isfinite(a) and np.isfinite(b)):
                if span is None:
                    raise GeometryError("unbounded slice needs an explicit span")
                a = max(a, -span)
                b = min(b, span)
            ts = (np.arange(n) + 0.5) / n
            out.append(a + ts * (b - a))
        return np.concatenate(out)


# ---------------------------------------------------------------------------
# Domains
# ---------------------------------------------------------------------------

class Domain:
    """Open connected planar set with membership, boundary, and slice queries.

    ``contains`` and ``contains_closure`` take points of shape ``(..., 2)``
    and return a boolean array of shape ``(...)`` (a numpy bool for one
    point); the open set lies inside its closure.  A domain states its
    inequalities once, in ``_member``, and both memberships derive from it.
    """

    kind = None

    def contains(self, p):
        return np.asarray(self._member(*self._split(p), np.less))[()]

    def contains_closure(self, p):
        return np.asarray(self._member(*self._split(p), np.less_equal))[()]

    def _member(self, x, y, lt):
        """Mask of the coordinate arrays x, y satisfying the domain's
        inequalities, each written ``lt(a, b)``: ``np.less`` for the open
        set, ``np.less_equal`` for its closure."""
        raise NotImplementedError

    def boundary_distance(self, p):
        """Distance to the boundary from points ``(..., 2)`` of the open set
        (a :class:`GeometryError` if one lies outside it), on the domains
        whose ``_distance(x, y)`` gives it in closed form."""
        p = np.asarray(p, dtype=float)
        outside = ~np.asarray(self.contains(p))
        if outside.any():
            raise GeometryError(f"point {p[outside][0].tolist()} outside domain")
        return np.array(self._distance(*self._split(p)))[()]

    def slice_at(self, t):
        raise NotImplementedError

    def boundary_points(self, window, n):
        raise NotImplementedError

    def truncation_window(self, s):
        raise GeometryError(f"domain kind {self.kind!r} has no axial truncation rule")

    def _split(self, p):
        p = np.asarray(p, dtype=float)
        if p.shape[-1:] != (2,):
            raise GeometryError(f"points must have shape (..., 2), got {p.shape}")
        return p[..., 0], p[..., 1]


class Strip(Domain):
    """(0, inf) x (-pi/2, pi/2)."""

    kind = "strip"

    def _member(self, x, y, lt):
        return lt(0.0, x) & lt(np.abs(y), np.pi / 2)

    def _distance(self, x, y):
        return np.minimum(x, np.pi / 2 - np.abs(y))

    def slice_at(self, t):
        if t <= 0.0:
            raise GeometryError(f"slice at t={t} is empty")
        return SliceSet(t, ((-np.pi / 2, np.pi / 2),))

    def truncation_window(self, s):
        return WindowBox((0.0, -np.pi / 2), (2.0 * s, np.pi / 2))

    def boundary_points(self, window, n):
        (x0, y0), (x1, y1) = window.lower, window.upper
        xs = np.linspace(max(x0, 0.0), x1, n)
        ys = np.linspace(max(y0, -np.pi / 2), min(y1, np.pi / 2), n)
        walls = [np.column_stack([xs, np.full_like(xs, np.pi / 2)]),
                 np.column_stack([xs, np.full_like(xs, -np.pi / 2)])]
        if x0 <= 0.0:
            walls.append(np.column_stack([np.zeros_like(ys), ys]))
        return np.vstack(walls)


class RightHalfplane(Domain):
    """{x > 0}."""

    kind = "right_halfplane"

    def _member(self, x, y, lt):
        return lt(0.0, x)

    def _distance(self, x, y):
        return x

    def slice_at(self, t):
        if t <= 0.0:
            raise GeometryError(f"slice at t={t} is empty")
        return SliceSet(t, ((-np.inf, np.inf),))

    def truncation_window(self, s):
        return WindowBox((0.0, -s), (2.0 * s, s))

    def boundary_points(self, window, n):
        ys = np.linspace(window.lower[1], window.upper[1], n)
        return np.column_stack([np.zeros_like(ys), ys])


class Sector(Domain):
    """{x > 0, |y| < x}."""

    kind = "sector"

    def _member(self, x, y, lt):
        return lt(0.0, x) & lt(np.abs(y), x)

    def _distance(self, x, y):
        return (x - np.abs(y)) / math.sqrt(2.0)

    def slice_at(self, t):
        if t <= 0.0:
            raise GeometryError(f"slice at t={t} is empty")
        return SliceSet(t, ((-t, t),))

    def boundary_points(self, window, n):
        x1 = window.upper[0]
        xs = np.linspace(0.0, x1, n)
        return np.vstack([np.column_stack([xs, xs]), np.column_stack([xs, -xs])])


#: the slit [0, 1] as a two-vertex polygon, both of whose edges are the segment
_SLIT = np.array([[0.0, 0.0], [1.0, 0.0]])


class SectorMinusSlit(Sector):
    """{x > 0, |y| < x} minus the segment [0, 1] on the real axis."""

    kind = "sector_minus_slit"

    def contains(self, p):
        x, y = self._split(p)
        on_slit = (y == 0.0) & (x <= 1.0)
        return np.asarray(self._member(x, y, np.less) & ~on_slit)[()]

    def _distance(self, x, y):
        d_slit = edge_distances(np.stack([x, y], axis=-1).reshape(-1, 2), _SLIT)[:, 0]
        return np.minimum(super()._distance(x, y), d_slit.reshape(x.shape))

    def slice_at(self, t):
        if t <= 0.0:
            raise GeometryError(f"slice at t={t} is empty")
        if t <= 1.0:
            return SliceSet(t, ((-t, 0.0), (0.0, t)))
        return SliceSet(t, ((-t, t),))

    def boundary_points(self, window, n):
        pts = super().boundary_points(window, n)
        xs = np.linspace(0.0, 1.0, n)
        return np.vstack([pts, np.column_stack([xs, np.zeros_like(xs)])])


class HalfplaneMinusDisk(Domain):
    """{x > 0, ||(x, y)|| > 1}."""

    kind = "halfplane_minus_disk"

    def _member(self, x, y, lt):
        return lt(0.0, x) & lt(1.0, x * x + y * y)

    def _distance(self, x, y):
        return np.minimum(x, np.hypot(x, y) - 1.0)

    def slice_at(self, t):
        if t <= 0.0:
            raise GeometryError(f"slice at t={t} is empty")
        if t >= 1.0:
            return SliceSet(t, ((-np.inf, np.inf),))
        yb = math.sqrt(1.0 - t * t)
        return SliceSet(t, ((-np.inf, -yb), (yb, np.inf)))

    def truncation_window(self, s):
        return WindowBox((0.0, -s), (2.0 * s, s))

    def boundary_points(self, window, n):
        th = np.linspace(-np.pi / 2, np.pi / 2, n)
        arc = np.column_stack([np.cos(th), np.sin(th)])
        ys = np.linspace(window.lower[1], window.upper[1], n)
        ys = ys[np.abs(ys) >= 1.0]
        wall = np.column_stack([np.zeros_like(ys), ys])
        return np.vstack([arc, wall]) if len(wall) else arc


class CylinderDomain(Domain):
    """R x (-1, 1)."""

    kind = "cylinder"

    def _member(self, x, y, lt):
        return lt(np.abs(y), 1.0)

    def _distance(self, x, y):
        return 1.0 - np.abs(y)

    def slice_at(self, t):
        return SliceSet(t, ((-1.0, 1.0),))

    def boundary_points(self, window, n):
        ts = np.linspace(window.lower[0], window.upper[0], n)
        return np.vstack([np.column_stack([ts, np.ones_like(ts)]),
                          np.column_stack([ts, -np.ones_like(ts)])])


class ConvexRing(Domain):
    """interior(A) minus closure(B) for planar convex bodies B inside A."""

    kind = "convex_ring"

    def __init__(self, outer, inner):
        if not np.all(outer.contains(inner.vertices)):
            raise GeometryError("inner body closure must sit strictly inside the outer body")
        self.outer = outer
        self.inner = inner

    def contains(self, p):
        p = np.asarray(p, dtype=float)
        return np.asarray(self.outer.contains(p, strict=True)
                          & ~self.inner.contains(p, strict=False))[()]

    def contains_closure(self, p):
        p = np.asarray(p, dtype=float)
        return np.asarray(self.outer.contains(p, strict=False)
                          & ~self.inner.contains(p, strict=True))[()]

    def slice_at(self, t):
        outer = _polygon_vertical_section(self.outer.vertices, t)
        if outer is None:
            raise GeometryError(f"slice at t={t} is empty")
        inner = _polygon_vertical_section(self.inner.vertices, t)
        if inner is None:
            return SliceSet(t, (outer,))
        (a, b), (c, d) = outer, inner
        intervals = tuple(iv for iv in ((a, c), (d, b)) if iv[0] < iv[1])
        if not intervals:
            raise GeometryError(f"slice at t={t} is empty")
        return SliceSet(t, intervals)

    def boundary_points(self, window, n):
        return np.vstack([self.outer.boundary_points(n), self.inner.boundary_points(n)])


def _polygon_vertical_section(vertices, t):
    """(ymin, ymax) of the section of a convex polygon with the line x=t."""
    a, b = vertices, np.roll(vertices, -1, axis=0)
    cut = ((a[:, 0] - t) * (b[:, 0] - t) <= 0.0) & (a[:, 0] != b[:, 0])
    a, b = a[cut], b[cut]
    ys = a[:, 1] + (t - a[:, 0]) * (b[:, 1] - a[:, 1]) / (b[:, 0] - a[:, 0])
    lo, hi = ys.min(initial=np.inf), ys.max(initial=-np.inf)
    return (float(lo), float(hi)) if lo < hi else None


class _IntervalProfile(Domain):
    """Region ``{t in T, y in radius(t) * D}`` for an interval ``D = (lo, hi)``.

    Subclasses give the axial range ``T`` (``_axial(t, lt)``, in the
    comparison of ``_member``) and ``radius``, which is NaN where the profile
    is undefined, so those points lie in neither the open set nor its
    closure.
    """

    def __init__(self, profile: ProfileDomain):
        self.profile = profile
        self.lo, self.hi = profile.cross_section

    def _member(self, t, y, lt):
        r = self.radius(t)
        return self._axial(t, lt) & lt(r * self.lo, y) & lt(y, r * self.hi)

    def _walls(self, ts, r):
        return np.vstack([np.column_stack([ts, r * self.hi]), np.column_stack([ts, r * self.lo])])


class ProfileRegion(_IntervalProfile):
    """{(t, y): t > 0, y in f(t) * D} for a profile f and an interval D."""

    kind = "profile"

    def radius(self, t):
        """Transverse scale f(t) for t >= 0 (NaN for t < 0)."""
        t = np.asarray(t, dtype=float)
        return np.where(t >= 0.0, self.profile.f(np.maximum(t, 0.0)), np.nan)

    def _axial(self, t, lt):
        return lt(0.0, t)

    def slice_at(self, t):
        if t <= 0.0:
            raise GeometryError(f"slice at t={t} is empty")
        scale = float(self.profile.f(t))
        return SliceSet(t, ((scale * self.lo, scale * self.hi),))

    def truncation_window(self, s):
        r = float(np.max(self.profile.f(np.linspace(1e-6, 2.0 * s, 257))))
        w = max(abs(self.lo), abs(self.hi), 1.0)
        return WindowBox((0.0, -r * w), (2.0 * s, r * w))

    def boundary_points(self, window, n):
        ts = np.linspace(max(window.lower[0], 1e-9), window.upper[0], n)
        return self._walls(ts, np.asarray(self.profile.f(ts), dtype=float))


class RescaledProfile(_IntervalProfile):
    """Zoomed slab ``{|t| < s/2, y in r(t) * D}`` with r(t) = f(s + t f(s)) / f(s).

    This is the profile region seen in coordinates centered at (s, 0) and
    scaled by f(s); as the zoom point s grows it converges to the unit
    cylinder on compact windows.
    """

    kind = "rescaled_profile"

    def __init__(self, profile: ProfileDomain, s):
        if s <= 0.0:
            raise GeometryError("rescale parameter must be positive")
        super().__init__(profile)
        self.s = float(s)
        self.f_s = float(profile.f(s))
        if not self.f_s > 0.0:
            raise GeometryError("profile must be positive at the zoom point")

    def radius(self, t):
        """Transverse scale factor at axial coordinate t (NaN where undefined)."""
        t = np.asarray(t, dtype=float)
        base = self.s + t * self.f_s
        with np.errstate(invalid="ignore"):
            r = np.where(base > 0.0, np.asarray(self.profile.f(np.maximum(base, 1e-300))), np.nan)
        return r / self.f_s

    def _axial(self, t, lt):
        return lt(np.abs(t), self.s / 2.0)

    def boundary_points(self, window, n):
        t0 = max(window.lower[0], -self.s / 2.0)
        t1 = min(window.upper[0], self.s / 2.0)
        ts = np.linspace(t0, t1, n)
        r = self.radius(ts)
        keep = np.isfinite(r)
        return self._walls(ts[keep], r[keep])


def rescaled_domain(domain, s):
    """Zoom a profile region (or the strip) at axial coordinate s.

    A constant profile yields exactly the unit cylinder restricted to
    |t| < s/2.
    """
    if isinstance(domain, Strip):
        domain = strip_as_profile()
    if isinstance(domain, ProfileRegion):
        return RescaledProfile(domain.profile, s)
    if isinstance(domain, ProfileDomain):
        return RescaledProfile(domain, s)
    raise GeometryError(f"cannot rescale domain kind {getattr(domain, 'kind', None)!r}")


def strip_as_profile():
    """The strip viewed as the constant-profile region (pi/2) * (-1, 1)."""
    prof = ProfileDomain(lambda t: np.full_like(np.asarray(t, dtype=float), np.pi / 2),
                         fprime=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
                         name="const_pi_over_2")
    return ProfileRegion(prof)


# ---------------------------------------------------------------------------
# Hausdorff distance
# ---------------------------------------------------------------------------

#: points per block of the Hausdorff distance matrix
_HAUSDORFF_CHUNK = 2048


def hausdorff_distance(cloud_a, cloud_b):
    """max of the two directed sup-min distances between point clouds."""
    a = np.asarray(cloud_a, dtype=float).reshape(-1, 2)
    b = np.asarray(cloud_b, dtype=float).reshape(-1, 2)
    if a.size == 0 or b.size == 0:
        raise GeometryError("hausdorff distance needs nonempty clouds")

    def directed(p, q):
        worst = 0.0
        for k in range(0, len(p), _HAUSDORFF_CHUNK):
            blk = p[k:k + _HAUSDORFF_CHUNK]
            d2 = np.sum((blk[:, None, :] - q[None, :, :]) ** 2, axis=2)
            worst = max(worst, float(np.sqrt(d2.min(axis=1).max())))
        return worst

    return max(directed(a, b), directed(b, a))


# ---------------------------------------------------------------------------
# JSON configuration
# ---------------------------------------------------------------------------

def body_from_config(cfg) -> ConvexBody:
    """A body from ``{"vertices": [[x, y], ...]}`` or ``{"ngon": n, "radius": r}``."""
    if isinstance(cfg, dict) and "vertices" in cfg:
        return ConvexBody(_config_value(cfg, "vertices", lambda v: np.asarray(v, dtype=float)),
                          symmetric=cfg.get("symmetric"))
    if isinstance(cfg, dict) and "ngon" in cfg:
        return regular_polygon(_config_value(cfg, "ngon", int),
                               _config_value(cfg, "radius", float, 1.0))
    raise GeometryError(f"cannot build a convex body from {cfg!r}")


def _config_value(cfg, key, kind, default=None):
    """``kind`` of ``cfg[key]`` (default if absent), or a GeometryError naming the key."""
    try:
        return kind(cfg.get(key, default))
    except (TypeError, ValueError):
        raise GeometryError(f"cannot parse {key!r}: {cfg.get(key)!r}") from None


def domain_from_config(cfg) -> Domain:
    """Build a domain from a JSON-style mapping, e.g. {"kind": "strip"}."""
    if isinstance(cfg, str):
        cfg = {"kind": cfg}
    if not isinstance(cfg, dict):
        raise GeometryError(f"domain must be a kind name or a mapping with a 'kind', got {cfg!r}")
    kind = cfg.get("kind")
    if kind == "strip":
        return Strip()
    if kind == "sector":
        return Sector()
    if kind == "sector_minus_slit":
        return SectorMinusSlit()
    if kind == "halfplane_minus_disk":
        return HalfplaneMinusDisk()
    if kind == "right_halfplane":
        return RightHalfplane()
    if kind == "cylinder":
        return CylinderDomain()
    if kind == "convex_ring":
        bodies = []
        for key in ("A", "B"):
            body = _required(cfg, key)
            try:
                bodies.append(body_from_config(body))
            except GeometryError as e:
                raise GeometryError(f"ring body {key!r}: {e}") from None
        return ConvexRing(*bodies)
    if kind == "profile":
        D = cfg.get("D", {"vertices": [[-1.0], [1.0]]})
        try:
            (lo,), (hi,) = D["vertices"]
        except (KeyError, TypeError, ValueError):
            raise GeometryError(f"a profile cross-section D is an interval "
                                f"{{'vertices': [[lo], [hi]]}}, got {D!r}") from None
        prof = ProfileDomain(_required(cfg, "f"), (lo, hi),
                             profile_kind=cfg.get("profile_kind", "lipschitz-concave-derivative"))
        return ProfileRegion(prof)
    raise GeometryError(f"unknown domain kind {kind!r}")


def _required(cfg, key):
    if key not in cfg:
        raise GeometryError(f"domain kind {cfg.get('kind')!r} needs key {key!r}")
    return cfg[key]
