"""Finite-difference Dirichlet solver, discrete Green functions, and the
Green-ratio construction of positive harmonic limit functions.

The ratio pipeline places a delta source at escaping poles x_n = (s_n, 0),
solves the 5-point Laplace problem with zero boundary data on the domain
truncated at axial coordinate 2 s_n, and normalizes each Green field by its
value at a fixed reference point x_0.  Successive normalized ratios
u_n = G(., x_n)/G(x_0, x_n) converge on a probe window; the Cauchy
diagnostic max |u_{n+1} - u_n| certifies the truncation empirically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import _STENCIL, ScalarField, _centered_gradient, _centered_hessian
from .geometry import ConvexRing, Domain, GeometryError, WindowBox

EXTERIOR, INTERIOR, BOUNDARY = 0, 1, 2


class SolverError(RuntimeError):
    pass


@dataclass(frozen=True)
class SolveStats:
    """Conjugate-gradient iterations and final relative residual of a solve."""

    iterations: int
    residual: float


@dataclass
class Grid2D:
    """Uniform grid on a window with a per-node domain mask.

    ``mask`` is 0 exterior, 1 interior, 2 boundary (Dirichlet).  Boundary
    nodes are closure points of the domain adjacent to an interior node, so
    walls that align with grid lines carry their data exactly; artificial
    window edges cutting through the domain become zero-Dirichlet caps.

    The per-axis spacings hx, hy equal the requested h up to corner
    snapping (windows keep their exact corners); the Laplacian stencil uses
    them separately, so the snap does not bias the operator.
    """

    domain: Domain
    window: WindowBox
    hx: float
    hy: float
    xs: np.ndarray
    ys: np.ndarray
    mask: np.ndarray

    @property
    def h(self):
        return max(self.hx, self.hy)

    @property
    def shape(self):
        return self.mask.shape

    def node_index(self, p):
        i = int(round((p[0] - self.xs[0]) / self.hx))
        j = int(round((p[1] - self.ys[0]) / self.hy))
        return i, j

    def interior_count(self):
        return int(np.count_nonzero(self.mask == INTERIOR))


def build_grid(domain, window, h):
    """Classify window nodes against the domain at spacing ~h.

    Raises when the interior is empty or disconnected, or when h is too
    coarse for the window (h must be <= extent / 16).
    """
    if h <= 0.0 or h > min(window.extent()) / 16.0:
        raise GeometryError(f"grid spacing h={h} too coarse for window extent {window.extent()}")
    xs, ys = window.lattice(h)
    hx = float((xs[-1] - xs[0]) / (len(xs) - 1))
    hy = float((ys[-1] - ys[0]) / (len(ys) - 1))
    pts = _node_points(xs, ys)
    in_closure = domain.contains_closure(pts)
    interior = np.array(domain.contains(pts), dtype=bool)
    interior[0, :] = interior[-1, :] = False
    interior[:, 0] = interior[:, -1] = False
    interior[1:-1, 1:-1] &= (in_closure[2:, 1:-1] & in_closure[:-2, 1:-1]
                             & in_closure[1:-1, 2:] & in_closure[1:-1, :-2])
    boundary = in_closure & ~interior & _has_neighbor_in(interior)

    mask = np.zeros(interior.shape, dtype=np.int8)
    mask[interior] = INTERIOR
    mask[boundary] = BOUNDARY
    n_int = int(np.count_nonzero(interior))
    if n_int == 0:
        raise GeometryError("grid has no interior nodes")
    if not _connected(interior):
        raise GeometryError("grid interior is disconnected")
    return Grid2D(domain=domain, window=window, hx=hx, hy=hy, xs=xs, ys=ys, mask=mask)


def _node_points(xs, ys):
    """Grid node coordinates as an array of shape (len(xs), len(ys), 2)."""
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    return np.stack([X, Y], axis=-1)


def _has_neighbor_in(member):
    """Nodes with at least one of their four grid neighbors in ``member``."""
    out = np.zeros_like(member)
    out[1:, :] |= member[:-1, :]
    out[:-1, :] |= member[1:, :]
    out[:, 1:] |= member[:, :-1]
    out[:, :-1] |= member[:, 1:]
    return out


def _connected(interior):
    """Whether the True nodes form one 4-connected component.

    Nodes are grouped into runs along axis 1.  Runs in adjacent rows touch
    where both rows are True; each maximal such overlap segment contributes
    one edge between two runs, and a union-find over those few edges counts
    the components.
    """
    starts = interior.copy()
    starts[:, 1:] &= ~interior[:, :-1]
    n_runs = int(np.count_nonzero(starts))
    if n_runs == 0:
        return False
    run = np.cumsum(starts, axis=None).reshape(interior.shape) - 1
    both = interior[:-1] & interior[1:]
    seg = both.copy()
    seg[:, 1:] &= ~both[:, :-1]
    ii, jj = np.nonzero(seg)
    parent = list(range(n_runs))

    def root(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    components = n_runs
    for a, b in zip(run[ii, jj].tolist(), run[ii + 1, jj].tolist()):
        ra, rb = root(a), root(b)
        if ra != rb:
            parent[ra] = rb
            components -= 1
    return components == 1


class GridField(ScalarField):
    """Node values on a grid; bilinear interpolation between nodes.

    ``stats`` describes the solve that produced the values, if any.
    """

    derivative_kind = "finite-difference"

    def __init__(self, grid: Grid2D, values, name="grid", stats=None):
        self.grid = grid
        self.domain = grid.domain
        self.values = np.asarray(values, dtype=float)
        self.name = name
        self.default_window = grid.window
        self.stats = stats

    def _in_window(self, p):
        """Grid coordinates of points ``(..., 2)`` and the mask of those inside
        the window (to 1e-9 of a cell)."""
        g = self.grid
        fx = (p[..., 0] - g.xs[0]) / g.hx
        fy = (p[..., 1] - g.ys[0]) / g.hy
        inside = ((-1e-9 <= fx) & (fx <= len(g.xs) - 1 + 1e-9)
                  & (-1e-9 <= fy) & (fy <= len(g.ys) - 1 + 1e-9))
        return fx, fy, inside

    def value(self, p, check=True):
        """Bilinear interpolation at points of shape ``(..., 2)``."""
        p = np.asarray(p, dtype=float)
        g = self.grid
        fx, fy, inside = self._in_window(p)
        if check and not np.all(inside):
            raise GeometryError(f"point {p[~inside][0]} outside grid window")
        i = np.clip(np.floor(fx), 0, len(g.xs) - 2).astype(int)
        j = np.clip(np.floor(fy), 0, len(g.ys) - 2).astype(int)
        tx, ty = fx - i, fy - j
        v = self.values
        return ((1 - tx) * (1 - ty) * v[i, j] + tx * (1 - ty) * v[i + 1, j]
                + (1 - tx) * ty * v[i, j + 1] + tx * ty * v[i + 1, j + 1])[()]

    def regular(self, p):
        """True where every difference stencil node lies in the window."""
        p = np.asarray(p, dtype=float)
        return self._in_window(p[..., None, :] + self.grid.h * _STENCIL)[2].all(axis=-1)

    def gradient(self, p):
        """Centered differences of step h at points ``(..., 2)``."""
        return _centered_gradient(self.value, np.asarray(p, dtype=float), self.grid.h)

    def hessian(self, p):
        """Second differences of step h at points ``(..., 2)``."""
        return _centered_hessian(self.value, np.asarray(p, dtype=float), self.grid.h)


def _apply_neg_laplacian(v, interior, hx, hy):
    av = np.zeros_like(v)
    av[1:-1, 1:-1] = ((2.0 * v[1:-1, 1:-1] - v[2:, 1:-1] - v[:-2, 1:-1]) / hx ** 2
                      + (2.0 * v[1:-1, 1:-1] - v[1:-1, 2:] - v[1:-1, :-2]) / hy ** 2)
    av[~interior] = 0.0
    return av


# columns per type-I DST batch: bounds the odd-extension buffer at 2 (n + 1) x 64
_DST_BLOCK = 64


def _dst1(x, axis):
    """Type-I discrete sine transform of a 2-d array along axis 0 or 1.

    Unnormalized, as ``scipy.fft.dst(x, type=1, axis=axis)``:
    y_k = 2 sum_n x_n sin(pi (k + 1)(n + 1) / (N + 1)), so applying it twice
    multiplies by 2 (N + 1).  Computed as the real FFT of the odd extension
    [0, x, 0, -x reversed], a batch of columns at a time.
    """
    if axis == 1:
        return _dst1(x.T, 0).T
    n, m = x.shape
    out = np.empty((n, m))
    ext = np.zeros((2 * n + 2, min(m, _DST_BLOCK)))
    for c in range(0, m, _DST_BLOCK):
        block = x[:, c:c + _DST_BLOCK]
        e = ext[:, :block.shape[1]]
        e[1:n + 1] = block
        np.negative(block[::-1], out=e[n + 2:])
        out[:, c:c + block.shape[1]] = np.fft.rfft(e, axis=0)[1:n + 1].imag
    return np.negative(out, out=out)


def _fast_poisson(shape, hx, hy):
    """Exact inverse of the 5-point -lap on the inner rectangle of a window.

    Returns a function that maps a right-hand side on the window's nodes to
    the solution on ``[1:-1, 1:-1]`` with zero data on the window edge (the
    edge entries of the result are 0).  This is Hockney's FACR(0): a DST-I
    along axis 1 splits the operator into one tridiagonal system per sine
    mode k, tridiag(-1, 2 + lam_k hx^2, -1) / hx^2 along axis 0 with
    lam_k = (2 - 2 cos(pi k / (ny + 1))) / hy^2; a Thomas sweep solves them
    all at once and the inverse DST maps back.  The systems are diagonally
    dominant, so the sweep needs no pivoting, and its pivots depend only on
    the shape and the spacings, so they are computed once here.
    """
    nx, ny = shape[0] - 2, shape[1] - 2
    lam_y = (2.0 - 2.0 * np.cos(np.pi * np.arange(1, ny + 1) / (ny + 1))) / hy ** 2
    diag = 2.0 + lam_y * hx ** 2
    # inverse pivots of the forward elimination, one per axis-0 node
    inv_pivots = [1.0 / diag]
    for _ in range(nx - 1):
        inv_pivots.append(1.0 / (diag - inv_pivots[-1]))
    # hx^2 from the scaled systems, 1 / (2 (ny + 1)) from the inverse transform
    scale = hx ** 2 / (2.0 * (ny + 1))

    def solve(r):
        # C order, so that the modes of one axis-0 node are one contiguous row
        t = np.ascontiguousarray(_dst1(r[1:-1, 1:-1], 1))
        t *= scale
        rows = list(t)                  # views: the sweep updates t in place
        rows[0] *= inv_pivots[0]
        for prev, row, w in zip(rows, rows[1:], inv_pivots[1:]):
            row += prev
            row *= w
        for nxt, row, w in zip(rows[:0:-1], rows[-2::-1], inv_pivots[-2::-1]):
            row += w * nxt
        z = np.zeros(shape)
        z[1:-1, 1:-1] = _dst1(t, 1)
        return z

    return solve


def solve_dirichlet(grid, boundary_values=None, source=None, tol=1e-10, maxiter=10 ** 6):
    """Solve the 5-point Laplace problem -lap u = source with Dirichlet node values.

    Fast-Poisson preconditioned conjugate gradients on the interior
    unknowns: the preconditioner is the exact inverse of the operator on the
    window's inner rectangle (a DST along axis 1 and a tridiagonal sweep
    along axis 0), restricted to the interior, so a domain that fills that
    rectangle converges in one iteration.  Stops at relative residual <= tol
    or raises :class:`SolverError` naming the iteration cap and the residual.
    The returned field's ``stats`` hold the iteration count and the final
    relative residual.  With zero source the discrete maximum principle
    bounds interior values by the boundary data.
    """
    interior = grid.mask == INTERIOR
    boundary = grid.mask == BOUNDARY
    hx, hy = grid.hx, grid.hy
    bdata = np.zeros(grid.shape)
    if boundary_values is not None:
        bdata = np.where(boundary, np.asarray(boundary_values, dtype=float), 0.0)
    rhs = np.zeros(grid.shape)
    if source is not None:
        rhs[...] = source
    # fold Dirichlet neighbors into the right-hand side
    rhs[1:-1, 1:-1] += ((bdata[2:, 1:-1] + bdata[:-2, 1:-1]) / hx ** 2
                        + (bdata[1:-1, 2:] + bdata[1:-1, :-2]) / hy ** 2)
    rhs[~interior] = 0.0

    u, stats = _cg(rhs, interior, hx, hy, tol=tol, maxiter=maxiter)
    u[boundary] = bdata[boundary]
    return GridField(grid, u, stats=stats)


def _cg(b, interior, hx, hy, tol, maxiter):
    """Preconditioned conjugate gradients for -lap u = b on the interior.

    ``b`` is zero off the interior and becomes the residual in place.
    Returns the solution and its :class:`SolveStats`.  The residual is tested
    right after each update, so a converged solve makes no preconditioner
    call whose result would go unused.
    """
    u = np.zeros_like(b)
    r = b
    b_norm = float(np.sqrt(np.vdot(r, r)))
    if b_norm == 0.0:
        return u, SolveStats(iterations=0, residual=0.0)
    exterior = ~interior
    precondition = _fast_poisson(b.shape, hx, hy)
    z = precondition(r)
    z[exterior] = 0.0
    p = z
    rz = float(np.vdot(r, z))
    r_norm = b_norm
    for it in range(1, maxiter + 1):
        ap = _apply_neg_laplacian(p, interior, hx, hy)
        alpha = rz / float(np.vdot(p, ap))
        u += alpha * p
        r -= alpha * ap
        r_norm = float(np.sqrt(np.vdot(r, r)))
        if r_norm <= tol * b_norm:
            return u, SolveStats(iterations=it, residual=r_norm / b_norm)
        z = precondition(r)
        z[exterior] = 0.0
        rz_new = float(np.vdot(r, z))
        p *= rz_new / rz
        p += z
        rz = rz_new
    raise SolverError(f"conjugate gradients hit the iteration cap of {maxiter} iterations; "
                      f"relative residual {r_norm / b_norm:.3e}")


def green_function(grid, pole):
    """Discrete Green field: -lap G = delta_pole / h^2, zero Dirichlet data.

    Solved tighter than the generic Dirichlet tolerance so that the
    symmetry G_p(q) = G_q(p) holds to ~1e-12 relative.
    """
    i, j = grid.node_index(pole)
    if not (0 <= i < grid.shape[0] and 0 <= j < grid.shape[1]) or grid.mask[i, j] != INTERIOR:
        raise GeometryError(f"pole {pole} does not snap to an interior node")
    source = np.zeros(grid.shape)
    source[i, j] = 1.0 / (grid.hx * grid.hy)
    fld = solve_dirichlet(grid, boundary_values=None, source=source, tol=1e-12)
    fld.name = f"green[{pole}]"
    return fld


# ---------------------------------------------------------------------------
# Martin ratio pipeline
# ---------------------------------------------------------------------------

@dataclass
class MartinApproxConfig:
    """Reference point, escaping pole sequence, and probe window.

    Poles sit on the axis at (s, 0) with strictly increasing s; the domain
    is truncated at axial coordinate 2 s per pole (and at +-s transversely
    for domains unbounded in y), with zero data on the artificial caps.
    """

    x0: tuple
    poles: tuple
    probe_window: WindowBox

    def __post_init__(self):
        s = tuple(float(v) for v in self.poles)
        if len(s) < 1 or any(b <= a for a, b in zip(s, s[1:])) or s[0] <= 0.0:
            raise GeometryError("poles must be strictly increasing and positive")
        object.__setattr__(self, "poles", s)


@dataclass
class MartinIterate:
    index: int
    pole: float
    ratio: GridField
    grid: Grid2D


@dataclass
class MartinRatioResult:
    iterates: list
    cauchy: list                       # eps_n = max |u_{n+1} - u_n| on the probe lattice
    final: GridField
    probe_points: np.ndarray


#: probe nodes along x and along y
PROBE_SHAPE = (25, 17)


def probe_lattice(window):
    xs = np.linspace(window.lower[0], window.upper[0], PROBE_SHAPE[0])
    ys = np.linspace(window.lower[1], window.upper[1], PROBE_SHAPE[1])
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    return np.stack([X.ravel(), Y.ravel()], axis=-1)


def martin_ratio(domain, cfg: MartinApproxConfig, h):
    """Normalized Green ratios along the pole sequence plus diagnostics.

    Each iterate satisfies u_n(x0) = 1 exactly (normalization by the
    interpolated Green value); the final iterate is the limit approximation
    and the Cauchy diagnostics bound the observed inter-iterate movement.
    """
    if not domain.contains(np.asarray(cfg.x0, dtype=float)):
        raise GeometryError(f"reference point {cfg.x0} not inside the domain")
    probes = probe_lattice(cfg.probe_window)
    outside = ~domain.contains_closure(probes)
    if np.any(outside):
        # the ratio reads 0 there, which would pass unnoticed into the diagnostics
        raise GeometryError(f"{int(outside.sum())} probe points leave the domain, "
                            f"e.g. {probes[outside][0].tolist()}")
    iterates = []
    samples = []
    for n, s in enumerate(cfg.poles):
        window = domain.truncation_window(s)
        if not (window.contains(cfg.probe_window.lower) and window.contains(cfg.probe_window.upper)):
            raise GeometryError(f"probe window not inside truncation window for pole {s}")
        if not window.contains((s, 0.0), strict=True):
            raise GeometryError(f"pole {s} not inside its truncation window")
        grid = build_grid(domain, window, h)
        G = green_function(grid, (s, 0.0))
        g0 = G.value(np.asarray(cfg.x0, dtype=float))
        if g0 <= 0.0:
            raise SolverError(f"nonpositive Green value at the reference point for pole {s}")
        ratio = GridField(grid, G.values / g0, name=f"ratio[{s}]", stats=G.stats)
        iterates.append(MartinIterate(index=n, pole=s, ratio=ratio, grid=grid))
        samples.append(ratio.value(probes))
    cauchy = [float(np.max(np.abs(b - a))) for a, b in zip(samples, samples[1:])]
    return MartinRatioResult(iterates=iterates, cauchy=cauchy,
                             final=iterates[-1].ratio, probe_points=probes)


# ---------------------------------------------------------------------------
# Superlevel node clouds
# ---------------------------------------------------------------------------

def superlevel_nodes(fld: GridField, c, window=None):
    """Grid nodes (interior or boundary) where the field exceeds c."""
    g = fld.grid
    member = (g.mask != EXTERIOR) & (fld.values > c)
    return _clip_nodes(g, member, window)


def superlevel_of_iterate(iterate: MartinIterate, c, window=None):
    """Node cloud of {u_n > c} for one normalized ratio iterate.

    Empty levels return an empty cloud (reported, not an error).
    """
    if c <= 0.0:
        raise GeometryError("superlevel threshold must be positive")
    return superlevel_nodes(iterate.ratio, c, window=window)


def superlevel_boundary_nodes(fld: GridField, c, window=None, extra_member=None):
    """Region-boundary nodes of {values > c} (union an extra node mask).

    A member node belongs to the discrete region boundary when one of its
    4-neighbors is not a member; these are the points tested by the hull
    certificate.
    """
    g = fld.grid
    member = (g.mask != EXTERIOR) & (fld.values > c)
    if extra_member is not None:
        member = member | extra_member
    edge = np.zeros_like(member)
    inner = member[1:-1, 1:-1]
    edge[1:-1, 1:-1] = inner & ~(member[2:, 1:-1] & member[:-2, 1:-1]
                                 & member[1:-1, 2:] & member[1:-1, :-2])
    edge[0, :] = member[0, :]
    edge[-1, :] = member[-1, :]
    edge[:, 0] |= member[:, 0]
    edge[:, -1] |= member[:, -1]
    return _clip_nodes(g, edge, window)


def _clip_nodes(grid, member, window):
    ii, jj = np.nonzero(member)
    pts = np.column_stack([grid.xs[ii], grid.ys[jj]])
    return pts if window is None else pts[window.contains(pts)]


def ring_dirichlet_data(grid):
    """Boundary data for a convex-ring grid: 1 on the inner wall, 0 outside.

    A boundary node is on the inner wall when it lies in the closed inner
    body or has a grid neighbor in the open one.
    """
    if not isinstance(grid.domain, ConvexRing):
        raise GeometryError("ring data needs a convex-ring grid")
    inner = grid.domain.inner
    pts = _node_points(grid.xs, grid.ys)
    near_inner = inner.contains(pts, strict=False) | _has_neighbor_in(inner.contains(pts))
    return np.where((grid.mask == BOUNDARY) & near_inner, 1.0, 0.0)


def inner_body_nodes(grid):
    """Mask of grid nodes lying in the closed inner body of a ring grid."""
    if not isinstance(grid.domain, ConvexRing):
        raise GeometryError("needs a convex-ring grid")
    return grid.domain.inner.contains(_node_points(grid.xs, grid.ys), strict=False)
