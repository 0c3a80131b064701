"""Unbounded planar domains, convex cross-sections, and point-set utilities.

Points are planar: sequences/ndarrays ``(t, y)`` whose first coordinate is
the axial variable.  Every domain, bodies and windows included, answers
membership of the open set and of its closure on ``(..., 2)`` arrays in
one call.  Every object here is immutable after construction and every
operation is pure, so values can be shared freely between threads.

Domains are built either from the named registry (``strip``, ``sector``,
``sector_minus_slit``, ``halfplane_minus_disk``, ``right_halfplane``,
``cylinder``, ``convex_ring``) or as profile regions
``{(t, y): t > 0, y in f(t) * D}`` for a positive profile ``f`` and a bounded
interval ``D`` containing the origin.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np


class GeometryError(ValueError):
    pass


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
        whose ``_distance(x, y)`` gives it in closed form (a GeometryError
        naming the domain on the others)."""
        p = np.asarray(p, dtype=float)
        outside = ~np.asarray(self.contains(p))
        if outside.any():
            raise GeometryError(f"point {p[outside][0].tolist()} outside domain")
        return np.array(self._distance(*self._split(p)))[()]

    def _distance(self, x, y):
        raise GeometryError(f"domain {self.kind or type(self).__name__!r} has no "
                            f"closed-form boundary distance")

    def slice_at(self, t):
        raise GeometryError(f"domain kind {self.kind!r} has no slices")

    def boundary_points(self, window, n):
        """Boundary points in the window from membership alone: on its lattice
        with about n nodes along the longer side, the nodes in the closure but
        not in the open set, then on each edge whose ends differ in
        ``contains`` (along x, then y) the first float outside the open set,
        by bisection in float order (one float past a rounded wall that no
        float lies on).  A zero-width wall (the slit) is found only on a
        lattice row, as the mirror-exact lattice of a y-symmetric window gives.
        A GeometryError for n < 2."""
        if not n >= 2:
            raise GeometryError(f"boundary sampling needs n >= 2, got {n}")
        xs, ys = window.lattice(max(window.extent()) / (n - 1))
        inside = lattice_mask(xs, ys, self.contains)
        ii, jj = np.nonzero(lattice_mask(xs, ys, self.contains_closure) & ~inside)
        out = [np.column_stack([xs[ii], ys[jj]])]
        for axis, nodes in enumerate((xs, ys)):
            ii, jj = np.nonzero(np.diff(inside, axis=axis))
            k = (ii, jj)[axis]
            keys = _float_keys(np.stack([nodes[k], nodes[k + 1]]).view(np.int64))
            a, b = np.where(inside[ii, jj], keys, keys[::-1])
            pts = np.column_stack([xs[ii], ys[jj]])
            for _ in range(64):
                mid = (a >> 1) + (b >> 1) + (a & b & 1)
                pts[:, axis] = _float_keys(mid).view(float)
                a, b = np.where(self.contains(pts), (mid, b), (a, mid))
            pts[:, axis] = _float_keys(b).view(float)
            out.append(pts)
        return np.vstack(out)

    def truncation_window(self, s):
        raise GeometryError(f"domain kind {self.kind!r} has no axial truncation rule")

    def _split(self, p):
        p = np.asarray(p, dtype=float)
        if p.shape[-1:] != (2,):
            raise GeometryError(f"points must have shape (..., 2), got {p.shape}")
        return p[..., 0], p[..., 1]


# ---------------------------------------------------------------------------
# Windows
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WindowBox(Domain):
    """Axis-aligned planar box given by lower/upper corners (nonempty interior):
    ``contains`` is the open box and ``contains_closure`` the closed one."""

    lower: tuple
    upper: tuple

    def __post_init__(self):
        lo = tuple(float(v) for v in self.lower)
        hi = tuple(float(v) for v in self.upper)
        if len(lo) != 2 or len(hi) != 2:
            raise GeometryError("window corners must be planar points")
        if not all(map(math.isfinite, lo + hi)):
            raise GeometryError(f"window corners must be finite: lower={lo}, upper={hi}")
        if not all(a < b for a, b in zip(lo, hi)):
            raise GeometryError(f"window has empty interior: lower={lo}, upper={hi}")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    def extent(self):
        return tuple(b - a for a, b in zip(self.lower, self.upper))

    def _member(self, x, y, lt):
        (x0, y0), (x1, y1) = self.lower, self.upper
        return lt(x0, x) & lt(x, x1) & lt(y0, y) & lt(y, y1)

    def lattice(self, h):
        """Node coordinates of a grid of spacing ~h snapped to the corners.

        A window symmetric in y (lower y = -upper y) gets mirror-exact y
        nodes: an even number of intervals, a node at exactly 0 and an upper
        half that is the negation of the lower half.
        """
        if not h > 0.0:
            raise GeometryError(f"lattice spacing h={h} must be positive")
        (x0, y0), (x1, y1) = self.lower, self.upper
        steps = [(b - a) / h for a, b in zip(self.lower, self.upper)]
        try:
            nx, ny = (max(1, int(round(n))) for n in steps)
            xs = x0 + (x1 - x0) * np.arange(nx + 1) / nx
            if y0 != -y1:
                return xs, y0 + (y1 - y0) * np.arange(ny + 1) / ny
            ny += ny % 2
            half = y0 + (y1 - y0) * np.arange(ny // 2) / ny
            return xs, np.concatenate([half, [0.0], -half[::-1]])
        except (OverflowError, ValueError, MemoryError) as e:
            raise GeometryError(f"cannot build the lattice of window lower={self.lower}, "
                                f"upper={self.upper} at h={h}: {steps[0] + 1:.3g} x "
                                f"{steps[1] + 1:.3g} nodes ({e})") from None


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


def lattice_mask(xs, ys, member):
    """``member(points)`` on the nodes of the lattice xs x ys, by row blocks."""
    out = np.empty((len(xs), len(ys)), dtype=bool)
    for rows, pts in lattice_blocks(xs, ys):
        out[rows] = member(pts)
    return out


def physical_memory():
    """The machine's physical memory in bytes."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def check_lattice_memory(xs, ys, node_bytes, what):
    """A GeometryError, before anything is allocated, when ``what`` (``node_bytes``
    bytes per node of the lattice xs x ys) would exceed physical memory."""
    need, have = len(xs) * len(ys) * node_bytes / 2 ** 30, physical_memory() / 2 ** 30
    if need > have:
        raise GeometryError(f"{what} on {len(xs)} x {len(ys)} nodes needs {need:.3g} GiB, "
                            f"more than the {have:.3g} GiB of physical memory")


def _float_keys(bits):
    """float64 bit patterns as int64 keys in numeric order, and back."""
    return bits ^ ((bits >> 63) & 0x7FFFFFFFFFFFFFFF)


# ---------------------------------------------------------------------------
# Convex bodies (bounded convex polygons containing the origin)
# ---------------------------------------------------------------------------

class ConvexBody(Domain):
    """Bounded convex polygon given by its vertices, origin strictly inside.

    The body is reduced to its convex hull, stored in counter-clockwise
    order; smooth bodies are approximated by polygons (see
    :func:`regular_polygon`).
    """

    def __init__(self, vertices):
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

    def _member(self, x, y, lt):
        # the cross product of each edge with the points is positive on the body's side
        out = np.ones(np.shape(x), dtype=bool)
        for (ax, ay), (bx, by) in zip(self.vertices, np.roll(self.vertices, -1, axis=0)):
            out &= lt(0.0, (bx - ax) * (y - ay) - (by - ay) * (x - ax))
        return out


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

#: closed-form profile functions, by name
PROFILES = {
    "sqrt": np.sqrt,
    "log1p": np.log1p,
    "const": lambda t: np.ones_like(np.asarray(t, dtype=float)),
    "saturating": lambda t: t / (1.0 + t),
}

#: geometric sampling grid on which profile hypotheses are checked
_HYPOTHESIS_GRID = 2.0 ** np.arange(-6, 21)


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

    def contains(self, y):
        return any(a < y < b for a, b in self.intervals)

    def sample(self, n, span=None):
        """n points per interval, endpoints excluded; an unbounded interval
        needs span, is clipped to [-span, span] and is skipped when that
        leaves it empty (a GeometryError when no interval is left)."""
        out = []
        for a, b in self.intervals:
            if not (np.isfinite(a) and np.isfinite(b)):
                if span is None:
                    raise GeometryError("unbounded slice needs an explicit span")
                a = max(a, -span)
                b = min(b, span)
                if b <= a:
                    continue
            ts = (np.arange(n) + 0.5) / n
            out.append(a + ts * (b - a))
        if not out:
            raise GeometryError(f"span {span} leaves no part of the slice at t={self.t}")
        return np.concatenate(out)


# ---------------------------------------------------------------------------
# Domains
# ---------------------------------------------------------------------------

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


class Sector(Domain):
    """{x > 0, |y| < m x}: the sector of half-angle alpha about the positive
    x-axis, given by its wall slope m = tan(alpha), stated exactly: m = 1 is
    the quarter sector (kind "sector"), m = inf the right half-plane (kind
    "right_halfplane").  Re z^(pi / (2 alpha)) is its Martin function."""

    kind = "sector"

    def __init__(self, slope=1.0):
        self.slope = float(slope)
        if self.slope == math.inf:
            self.kind = "right_halfplane"

    def _member(self, x, y, lt):
        return lt(np.abs(y) / self.slope, x)

    def _distance(self, x, y):
        return (x - np.abs(y) / self.slope) / math.sqrt(1.0 + 1.0 / self.slope ** 2)

    def slice_at(self, t):
        if t <= 0.0:
            raise GeometryError(f"slice at t={t} is empty")
        return SliceSet(t, ((-self.slope * t, self.slope * t),))

    def truncation_window(self, s):
        return WindowBox((0.0, -s), (2.0 * s, s))


#: the slit [0, 1] as a two-vertex polygon, both of whose edges are the segment
_SLIT = np.array([[0.0, 0.0], [1.0, 0.0]])


class SectorMinusSlit(Sector):
    """{x > 0, |y| < x} minus the segment [0, 1] on the real axis."""

    kind = "sector_minus_slit"

    def _member(self, x, y, lt):
        return super()._member(x, y, lt) & (lt(0.0, np.abs(y)) | lt(1.0, x))

    def _distance(self, x, y):
        d_slit = edge_distances(np.stack([x, y], axis=-1).reshape(-1, 2), _SLIT)[:, 0]
        return np.minimum(super()._distance(x, y), d_slit.reshape(x.shape))

    def slice_at(self, t):
        if 0.0 < t <= 1.0:
            return SliceSet(t, ((-t, 0.0), (0.0, t)))
        return super().slice_at(t)


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
        if t > 1.0:
            return SliceSet(t, ((-np.inf, np.inf),))
        yb = math.sqrt(1.0 - t * t)
        return SliceSet(t, ((-np.inf, -yb), (yb, np.inf)))

    truncation_window = Sector.truncation_window


class CylinderDomain(Domain):
    """R x (-1, 1)."""

    kind = "cylinder"

    def _member(self, x, y, lt):
        return lt(np.abs(y), 1.0)

    def _distance(self, x, y):
        return 1.0 - np.abs(y)

    def slice_at(self, t):
        return SliceSet(t, ((-1.0, 1.0),))


#: the dual comparison (``<`` for ``<=`` and back), for the set that a complement leaves out
_DUAL = {np.less: np.less_equal, np.less_equal: np.less}


class ConvexRing(Domain):
    """interior(A) minus closure(B) for planar convex bodies B inside A."""

    kind = "convex_ring"

    def __init__(self, outer, inner):
        if not np.all(outer.contains(inner.vertices)):
            raise GeometryError("inner body closure must sit strictly inside the outer body")
        self.outer = outer
        self.inner = inner

    def _member(self, x, y, lt):
        # the open ring leaves out the closed inner body, its closure the open one
        return self.outer._member(x, y, lt) & ~self.inner._member(x, y, _DUAL[lt])


class _IntervalProfile(Domain):
    """Region ``{t in T, y in radius(t) * D}`` for a profile ``f`` and an
    interval ``D = (lo, hi)``.

    Subclasses give the axial range ``T`` (``_axial(t, lt)``, in the
    comparison of ``_member``) and ``radius``, which is NaN where the profile
    is undefined, so those points lie in neither the open set nor its
    closure.
    """

    def _member(self, t, y, lt):
        r = self.radius(t)
        return self._axial(t, lt) & lt(r * self.lo, y) & lt(y, r * self.hi)


class ProfileRegion(_IntervalProfile):
    """{(t, y): t > 0, y in f(t) * D} for a profile f and a cross-section D,
    an interval ``(lo, hi)`` with ``lo < 0 < hi``.

    ``f`` must accept float arrays and act elementwise; membership of the
    closure evaluates ``f`` at ``t = 0``, where it must return its limit
    from the right.  ``f`` may also be a name from :data:`PROFILES`.  f must
    be positive and concave: both are checked on a geometric grid, where
    the secant slopes of f must not increase (tolerance 1e-9).
    """

    kind = "profile"

    def __init__(self, f, cross_section=(-1.0, 1.0)):
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
            f = PROFILES[f]
        elif not callable(f):
            raise GeometryError(f"profile must be a callable or a name from {sorted(PROFILES)}")
        fv = np.asarray(f(_HYPOTHESIS_GRID), dtype=float)
        if not np.all(fv > 0.0):
            raise GeometryError("profile must be positive on (0, inf)")
        rise = np.diff(np.diff(fv) / np.diff(_HYPOTHESIS_GRID))
        if not np.all(rise <= 1e-9):
            k = int(np.argmax(~(rise <= 1e-9)))
            raise GeometryError(
                f"profile is not concave: its secant slope increases between "
                f"t={_HYPOTHESIS_GRID[k]:g} and t={_HYPOTHESIS_GRID[k + 2]:g}")
        self.f = f
        self.lo, self.hi = self.cross_section = (lo, hi)

    def radius(self, t):
        """Transverse scale f(t) for t >= 0 (NaN for t < 0)."""
        t = np.asarray(t, dtype=float)
        return np.where(t >= 0.0, self.f(np.maximum(t, 0.0)), np.nan)

    def _axial(self, t, lt):
        return lt(0.0, t)

    def slice_at(self, t):
        if t <= 0.0:
            raise GeometryError(f"slice at t={t} is empty")
        scale = float(self.f(t))
        return SliceSet(t, ((scale * self.lo, scale * self.hi),))

    def truncation_window(self, s):
        r = float(np.max(self.f(np.linspace(1e-6, 2.0 * s, 257))))
        w = max(abs(self.lo), abs(self.hi), 1.0)
        return WindowBox((0.0, -r * w), (2.0 * s, r * w))


class RescaledProfile(_IntervalProfile):
    """Zoomed slab ``{|t| < s/2, y in r(t) * D}`` with r(t) = f(s + t f(s)) / f(s).

    This is the profile region seen in coordinates centered at (s, 0) and
    scaled by f(s); as the zoom point s grows it converges to the unit
    cylinder on compact windows.
    """

    kind = "rescaled_profile"

    def __init__(self, region: ProfileRegion, s):
        if s <= 0.0:
            raise GeometryError("rescale parameter must be positive")
        self.f, self.lo, self.hi = region.f, region.lo, region.hi
        self.s = float(s)
        self.f_s = float(self.f(s))
        if not self.f_s > 0.0:
            raise GeometryError("profile must be positive at the zoom point")

    def radius(self, t):
        """Transverse scale factor at axial coordinate t (NaN where undefined)."""
        t = np.asarray(t, dtype=float)
        base = self.s + t * self.f_s
        with np.errstate(invalid="ignore"):
            r = np.where(base > 0.0, np.asarray(self.f(np.maximum(base, 1e-300))), np.nan)
        return r / self.f_s

    def _axial(self, t, lt):
        return lt(np.abs(t), self.s / 2.0)


def rescaled_domain(domain, s):
    """Zoom a profile region (or the strip) at axial coordinate s.

    A constant profile yields exactly the unit cylinder restricted to
    |t| < s/2.
    """
    if isinstance(domain, Strip):
        domain = strip_as_profile()
    if isinstance(domain, ProfileRegion):
        return RescaledProfile(domain, s)
    raise GeometryError(f"cannot rescale domain kind {getattr(domain, 'kind', None)!r}")


def strip_as_profile():
    """The strip viewed as the constant-profile region (pi/2) * (-1, 1)."""
    return ProfileRegion(lambda t: np.full_like(np.asarray(t, dtype=float), np.pi / 2))


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

def check_keys(cfg, known, what):
    """A GeometryError naming the first key of the mapping ``cfg`` outside
    ``known`` as "``what`` 'key' is unknown", and the known keys."""
    unknown = sorted(set(cfg) - set(known))
    if unknown:
        raise GeometryError(f"{what} {unknown[0]!r} is unknown; known: {sorted(known)}")


def parse_value(value, what, kind=float, sep=None, above=None):
    """``value`` read as ``kind`` (float, int or str), or with ``sep`` the
    list of ``kind`` of each item of a config list or of each field of a
    string split at ``sep``, stripped, blank fields dropped.  A GeometryError
    naming ``what`` when a value does not parse (an int must be integral:
    8.0 reads as 8, 8.5 is an error), a string is not a string, a number is
    not finite, the list is empty or a number is not above ``above``."""
    if sep is not None and not isinstance(value, list):
        value = [v.strip() for v in str(value).split(sep) if v.strip()]
    items = [value] if sep is None else value
    if kind is str:
        if not all(isinstance(v, str) for v in items):
            raise GeometryError(f"{what} must be a string, got {value!r}")
        vals = items
    else:
        try:
            vals = [_integral(v) if kind is int else kind(v) for v in items]
        except (TypeError, ValueError, OverflowError):
            raise GeometryError(f"cannot parse {what} {value!r}") from None
    if kind is float and not all(map(math.isfinite, vals)):
        raise GeometryError(f"{what} {value!r} is not finite")
    if not vals:
        raise GeometryError(f"{what} must not be empty")
    if above is not None and not all(v > above for v in vals):
        raise GeometryError(f"{what} must be > {above}, got {value!r}")
    return vals[0] if sep is None else vals


def _integral(v):
    """``int(v)``, a ValueError for a float with a fraction (or not finite)."""
    if isinstance(v, float) and not v.is_integer():
        raise ValueError
    return int(v)


def body_from_config(cfg) -> ConvexBody:
    """A body from ``{"vertices": [[x, y], ...]}`` or ``{"ngon": n, "radius": r}``."""
    if isinstance(cfg, dict) and "vertices" in cfg:
        check_keys(cfg, ("vertices",), "vertices-form key")
        try:
            vertices = np.asarray(cfg["vertices"], dtype=float)
        except (TypeError, ValueError):
            raise GeometryError(f"cannot parse 'vertices' {cfg['vertices']!r}") from None
        return ConvexBody(vertices)
    if isinstance(cfg, dict) and "ngon" in cfg:
        check_keys(cfg, ("ngon", "radius"), "ngon-form key")
        return regular_polygon(parse_value(cfg["ngon"], "'ngon'", int),
                               parse_value(cfg.get("radius", 1.0), "'radius'"))
    raise GeometryError(f"cannot build a convex body from {cfg!r}")


#: the domains that a config names by their kind alone
_PLAIN_DOMAINS = {"strip": Strip, "sector": Sector, "sector_minus_slit": SectorMinusSlit,
                  "halfplane_minus_disk": HalfplaneMinusDisk,
                  "right_halfplane": lambda: Sector(math.inf), "cylinder": CylinderDomain}
#: the keys of each domain kind's config
_DOMAIN_KEYS = {**dict.fromkeys(_PLAIN_DOMAINS, ("kind",)),
                ConvexRing.kind: ("kind", "A", "B"), ProfileRegion.kind: ("kind", "f", "D")}


def domain_from_config(cfg) -> Domain:
    """Build a domain from a JSON-style mapping, e.g. {"kind": "strip"}."""
    if isinstance(cfg, str):
        cfg = {"kind": cfg}
    if not isinstance(cfg, dict):
        raise GeometryError(f"domain must be a kind name or a mapping with a 'kind', got {cfg!r}")
    kind = cfg.get("kind")
    if not isinstance(kind, str) or kind not in _DOMAIN_KEYS:
        raise GeometryError(f"unknown domain kind {kind!r}")
    check_keys(cfg, _DOMAIN_KEYS[kind], f"domain kind {kind!r} key")
    if kind in _PLAIN_DOMAINS:
        return _PLAIN_DOMAINS[kind]()
    if kind == "convex_ring":
        bodies = []
        for key in ("A", "B"):
            body = _required(cfg, key)
            try:
                bodies.append(body_from_config(body))
            except GeometryError as e:
                raise GeometryError(f"ring body {key!r}: {e}") from None
        return ConvexRing(*bodies)
    D = cfg.get("D", {"vertices": [[-1.0], [1.0]]})
    try:
        (lo,), (hi,) = D["vertices"]
    except (KeyError, TypeError, ValueError):
        raise GeometryError(f"a profile cross-section D is an interval "
                            f"{{'vertices': [[lo], [hi]]}}, got {D!r}") from None
    return ProfileRegion(_required(cfg, "f"), (lo, hi))


def _required(cfg, key):
    if key not in cfg:
        raise GeometryError(f"domain kind {cfg.get('kind')!r} needs key {key!r}")
    return cfg[key]
