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

import math
from dataclasses import dataclass

import numpy as np

from .fields import _STENCIL, ScalarField, _centered_gradient, _centered_hessian
from .geometry import (ConvexRing, Domain, GeometryError, WindowBox, check_lattice_memory,
                       lattice_mask)


class SolverError(RuntimeError):
    pass


@dataclass(frozen=True)
class SolveStats:
    """Conjugate-gradient iterations and final relative residual of a solve."""

    iterations: int
    residual: float


@dataclass
class Grid2D:
    """Uniform grid on a window with two disjoint boolean node masks.

    ``interior`` marks the unknowns, ``boundary`` the Dirichlet nodes: the
    closure points of the domain adjacent to an interior node, so walls
    that align with grid lines carry their data exactly; artificial window
    edges cutting through the domain become zero-Dirichlet caps.

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
    interior: np.ndarray
    boundary: np.ndarray

    @property
    def h(self):
        return max(self.hx, self.hy)

    @property
    def shape(self):
        return self.interior.shape

    def node_index(self, p):
        i = int(round((p[0] - self.xs[0]) / self.hx))
        j = int(round((p[1] - self.ys[0]) / self.hy))
        return i, j

    def interior_count(self):
        return int(np.count_nonzero(self.interior))


def build_grid(domain, window, h):
    """Classify window nodes against the domain at spacing ~h.

    Raises when the interior is empty or disconnected, when h is not
    positive or too coarse for the window (h must be <= extent / 16), or
    when the masks and a solve's four float arrays would exceed memory.
    """
    if h > min(window.extent()) / 16.0:
        raise GeometryError(f"grid spacing h={h} too coarse for window extent {window.extent()}")
    xs, ys = window.lattice(h)
    check_lattice_memory(xs, ys, 2 + 4 * 8, "a grid's masks and solve arrays")
    hx = float((xs[-1] - xs[0]) / (len(xs) - 1))
    hy = float((ys[-1] - ys[0]) / (len(ys) - 1))
    in_closure = lattice_mask(xs, ys, domain.contains_closure)
    interior = lattice_mask(xs, ys, domain.contains)
    interior[0, :] = interior[-1, :] = False
    interior[:, 0] = interior[:, -1] = False
    interior &= ~_has_neighbor_in(~in_closure)
    boundary = in_closure & ~interior & _has_neighbor_in(interior)
    if not interior.any():
        raise GeometryError("grid has no interior nodes")
    if not _connected(interior):
        raise GeometryError("grid interior is disconnected")
    return Grid2D(domain=domain, window=window, hx=hx, hy=hy, xs=xs, ys=ys,
                  interior=interior, boundary=boundary)


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

    ``stats`` describes the solve that produced the values, if any.  The
    values are read-only: a field's values never change once it is built.
    """

    derivative_kind = "finite-difference"

    def __init__(self, grid: Grid2D, values, name="grid", stats=None):
        self.grid = grid
        self.domain = grid.domain
        self.values = np.asarray(values, dtype=float)
        self.values.setflags(write=False)
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


# grid rows per block of the matvec and of the type-I DST: bounds their
# scratch buffers at 64 rows
_BLOCK = 64


def _apply_neg_laplacian(v, interior, hx, hy, out=None):
    """The 5-point -lap of v on the interior nodes, 0 elsewhere, into ``out``
    (a new array when None; it must not be ``v``).

    Computed 64 rows at a time as (2 v - v_E - v_W) / hx^2 + (2 v - v_N - v_S)
    / hy^2, with the operations of that whole-array expression in its order.
    """
    if out is None:
        out = np.empty_like(v)
    hx2, hy2 = hx ** 2, hy ** 2
    nx = v.shape[0] - 2
    scratch = np.empty((2, min(nx, _BLOCK), v.shape[1] - 2))
    out[0] = out[-1] = 0.0
    out[:, 0] = out[:, -1] = 0.0
    for i in range(1, nx + 1, _BLOCK):
        k = min(_BLOCK, nx + 1 - i)
        centre = v[i:i + k, 1:-1]
        ax, ay = scratch[:, :k]
        np.multiply(centre, 2.0, out=ax)
        ax -= v[i + 1:i + k + 1, 1:-1]
        ax -= v[i - 1:i + k - 1, 1:-1]
        ax /= hx2
        np.multiply(centre, 2.0, out=ay)
        ay -= v[i:i + k, 2:]
        ay -= v[i:i + k, :-2]
        ay /= hy2
        o = out[i:i + k, 1:-1]
        np.add(ax, ay, out=o)
        o[~interior[i:i + k, 1:-1]] = 0.0
    return out


def _dst1(x, out, scale=1.0):
    """Type-I discrete sine transform of a 2-d array along axis 1, into ``out``.

    Unnormalized, as ``scipy.fft.dst(x, type=1, axis=1)``:
    y_k = 2 sum_n x_n sin(pi (k + 1)(n + 1) / (N + 1)), so applying it twice
    multiplies by 2 (N + 1).  Computed as the real FFT of the odd extension
    [0, x, 0, -x reversed] of 64 rows at a time, in one reused buffer;
    ``out`` may be ``x``.  Each y_k is multiplied by ``scale`` (a scalar or
    one factor per k) as it is written, which saves a pass over ``out``.
    """
    neg_scale = -np.asarray(scale, dtype=float)
    m, n = x.shape
    ext = np.zeros((min(m, _BLOCK), 2 * n + 2))
    for i in range(0, m, _BLOCK):
        block = x[i:i + _BLOCK]
        k = len(block)
        ext[:k, 1:n + 1] = block
        np.negative(block[:, ::-1], out=ext[:k, n + 2:])
        # the spectrum is a temporary: the next block's is built after it is freed
        np.multiply(np.fft.rfft(ext[:k], axis=1)[:, 1:n + 1].imag, neg_scale, out=out[i:i + k])
    return out


def _fast_poisson(shape, hx, hy):
    """Exact inverse of the 5-point -lap on the inner rectangle of a window.

    Returns ``solve(r, out)``, which writes into ``out`` the solution on
    ``[1:-1, 1:-1]`` for the right-hand side r on the window's nodes, with
    zero data on the window edge (the edge entries of ``out`` are set to 0).
    This is Hockney's FACR(0): a DST-I along axis 1 splits the operator into
    one tridiagonal system per sine mode k, tridiag(-1, 2 + lam_k hx^2, -1)
    / hx^2 along axis 0 with lam_k = (2 - 2 cos(pi k / (ny + 1))) / hy^2.
    Odd-even cyclic reduction (Buzbee, Golub and Nielson 1970) solves them
    all at once and the inverse DST maps back.  Normalized, a system reads
    x_i - beta (x_{i-1} + x_{i+1}) = g_i with beta = 1 / (2 + lam_k hx^2) and
    x_{-1} = x_m = 0, except that its last row reads x_{m-1} - b x_{m-2} =
    g_{m-1}.  Eliminating the even rows leaves a system of the same form in
    the odd rows: beta' = beta^2 / (1 - 2 beta^2) and a new b, whose update
    depends on the parity of m.  The systems are diagonally dominant
    (b <= beta < 1/2 at every level), so no pivoting is needed.  The
    coefficients depend only on the shape and the spacings and are computed
    once here, one vector per mode and level.  The transforms, the reduction
    and the back-substitution run in place on the rows of ``out``, whose
    modes are contiguous; their temporaries are 64-row blocks.
    """
    nx, ny = shape[0] - 2, shape[1] - 2
    lam_y = (2.0 - 2.0 * np.cos(np.pi * np.arange(1, ny + 1) / (ny + 1))) / hy ** 2
    beta = 1.0 / (2.0 + lam_y * hx ** 2)
    # hx^2 from the scaled systems, 1 / (2 (ny + 1)) from the inverse
    # transform, beta from the normalization
    scale = beta * (hx ** 2 / (2.0 * (ny + 1)))
    levels = []                         # (m, beta, b, 1 / (1 - 2 beta^2), last-row 1 / D)
    m, b = nx, beta
    while m > 1:
        c = 1.0 / (1.0 - 2.0 * beta ** 2)
        inv_d = 1.0 / (1.0 - beta * (beta + b) if m % 2 else 1.0 - b * beta)
        levels.append((m, beta, b, c, inv_d))
        b = (beta if m % 2 else b) * beta * inv_d
        beta = beta ** 2 * c
        m //= 2

    def solve(r, out):
        t = _dst1(r[1:-1, 1:-1], out=out[1:-1, 1:-1], scale=scale)
        w = np.empty((min(nx // 2, _BLOCK), ny))
        # level d holds every 2^d-th row of t; its odd rows go on to level d + 1
        halves = [(t[2 ** d - 1::2 ** d][1::2], t[2 ** d - 1::2 ** d][::2])
                  for d in range(len(levels))]
        for (kept, dropped), (m, beta, b, c, inv_d) in zip(halves, levels):
            p = m // 2
            for j in range(0, p - 1, _BLOCK):
                k = min(_BLOCK, p - 1 - j)
                np.add(dropped[j:j + k], dropped[j + 1:j + k + 1], out=w[:k])
                w[:k] *= beta
                w[:k] += kept[j:j + k]
                np.multiply(w[:k], c, out=kept[j:j + k])
            # the last kept row: the level's last row if m is even, its neighbor if odd
            kept[p - 1] += beta * (dropped[p - 1] + dropped[p]) if m % 2 else b * dropped[p - 1]
            kept[p - 1] *= inv_d
        for (kept, dropped), (m, beta, b, c, inv_d) in zip(halves[::-1], levels[::-1]):
            p = m // 2
            for j in range(1, p, _BLOCK):
                k = min(_BLOCK, p - j)
                np.add(kept[j - 1:j + k - 1], kept[j:j + k], out=w[:k])
                w[:k] *= beta
                dropped[j:j + k] += w[:k]
            dropped[0] += beta * kept[0]
            if m % 2:
                dropped[p] += b * kept[p - 1]
        del w                           # before the inverse transform's own blocks
        _dst1(t, out=t)
        out[0] = out[-1] = 0.0
        out[:, 0] = out[:, -1] = 0.0
        return out

    return solve


def solve_dirichlet(grid, boundary_values=None, source=None, tol=1e-10, maxiter=10 ** 6):
    """Solve the 5-point Laplace problem -lap u = source with Dirichlet node values.

    Fast-Poisson preconditioned conjugate gradients on the interior
    unknowns: the preconditioner is the exact inverse of the operator on the
    window's inner rectangle (a DST along axis 1 and cyclic reduction of
    the tridiagonal systems along axis 0), restricted to the interior, so a
    domain that fills that rectangle converges in one iteration.  Stops at
    relative residual <= tol or raises :class:`SolverError` naming the
    iteration cap and the residual.
    The returned field's ``stats`` hold the iteration count and the final
    relative residual.  With zero source the discrete maximum principle
    bounds interior values by the boundary data, which is read on the
    boundary nodes.  Both inputs are arrays of the grid's shape and are
    consumed: ``source`` becomes the right-hand side and then the residual,
    and ``boundary_values``, when it is a writable C-contiguous float64
    array, becomes the solution, its boundary entries kept and the others
    overwritten (anything else is copied once).  The solve keeps four
    grid-sized float arrays, the given inputs among them; the
    preconditioner adds only 64-row blocks and vectors of length ny per
    reduction level.
    """
    interior, boundary = grid.interior, grid.boundary
    hx, hy = grid.hx, grid.hy
    if boundary_values is None:
        u = np.zeros(grid.shape)
        rhs = np.zeros(grid.shape) if source is None else source
    else:
        u = np.require(boundary_values, dtype=float, requirements="CW")
        u[~boundary] = 0.0
        # fold Dirichlet neighbors into the right-hand side (u is 0 on the interior)
        rhs = _apply_neg_laplacian(u, interior, hx, hy)
        if source is None:
            np.subtract(0.0, rhs, out=rhs)      # 0 - fold, not -fold: no negative zeros
        else:
            source -= rhs
            rhs = source                # frees the fold before the solve's arrays exist
    rhs[~interior] = 0.0
    stats = _cg(u, rhs, interior, hx, hy, tol=tol, maxiter=maxiter)
    return GridField(grid, u, stats=stats)


def _dot(a, b):
    """Inner product of two grid arrays, summed in an order that does not
    depend on the BLAS thread count (``np.vdot`` does) and with no temporary."""
    return float(np.einsum("ij,ij->", a, b))


def _cg(u, b, interior, hx, hy, tol, maxiter):
    """Preconditioned conjugate gradients for -lap u = b on the interior.

    ``u`` is zero on the interior and holds the Dirichlet data elsewhere;
    the interior solution is added into it in place.  ``b`` is zero off the
    interior and becomes the residual in place.  Returns the
    :class:`SolveStats`.  Besides the solution u, the residual r and the
    direction p, one work array w holds A p and then the preconditioned
    residual M r; the mask ``~interior`` is a temporary at each use.  The
    residual is tested right after each update, so a converged solve makes
    no preconditioner call whose result would go unused.
    """
    r = b
    b_norm = math.sqrt(_dot(r, r))
    if b_norm == 0.0:
        return SolveStats(iterations=0, residual=0.0)
    precondition = _fast_poisson(b.shape, hx, hy)
    p = precondition(r, np.empty_like(b))
    p[~interior] = 0.0
    w = np.empty_like(b)
    rz = _dot(r, p)
    r_norm = b_norm
    for it in range(1, maxiter + 1):
        _apply_neg_laplacian(p, interior, hx, hy, out=w)
        alpha = rz / _dot(p, w)
        w *= alpha
        r -= w
        u += np.multiply(p, alpha, out=w)
        r_norm = math.sqrt(_dot(r, r))
        if r_norm <= tol * b_norm:
            return SolveStats(iterations=it, residual=r_norm / b_norm)
        precondition(r, w)
        w[~interior] = 0.0
        rz_new = _dot(r, w)
        p *= rz_new / rz
        p += w
        rz = rz_new
    raise SolverError(f"conjugate gradients hit the iteration cap of {maxiter} iterations; "
                      f"relative residual {r_norm / b_norm:.3e}")


def green_function(grid, pole):
    """Discrete Green field: -lap G = delta_pole / h^2, zero Dirichlet data.

    Solved tighter than the generic Dirichlet tolerance so that the
    symmetry G_p(q) = G_q(p) holds to ~1e-12 relative.
    """
    i, j = grid.node_index(pole)
    if not (0 <= i < grid.shape[0] and 0 <= j < grid.shape[1]) or not grid.interior[i, j]:
        raise GeometryError(f"pole {pole} does not snap to an interior node")
    source = np.zeros(grid.shape)
    source[i, j] = 1.0 / (grid.hx * grid.hy)
    # the solve consumes source as its right-hand side: no second copy
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


@dataclass(frozen=True)
class CoarseSolve:
    """The coarse level of a two-level iterate: spacing H, interior nodes, solve."""

    h: float
    interior_nodes: int
    stats: SolveStats


@dataclass
class MartinIterate:
    """What outlives an iterate's grids: its truncation and fine windows, its
    solves (no coarse one for one level) and the ratio u_n on the probes."""

    pole: float
    window: WindowBox
    fine_window: WindowBox
    interior_nodes: int
    stats: SolveStats
    coarse: CoarseSolve | None
    samples: np.ndarray                # u_n at the probe points


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


#: the fine window W's margin around x0 and the probe; a pole this near W gets one level
ZOOM_MARGIN = 2.0
#: the coarse spacing is H = s / COARSE_STEPS for the pole s
COARSE_STEPS = 160


def _solve_pole(domain, cfg, window, s, h):
    """The Green field of the pole s on its fine window W, and the coarse solve.

    W is the box around x0 and the probe window grown by ZOOM_MARGIN and
    clipped to the truncation window.  A Green solve on the truncation window
    at H = s / COARSE_STEPS (at most 1/16 of its smaller extent), bilinearly
    interpolated, gives W's edges inside the domain their data (walls get
    zero) and is freed before the Dirichlet solve at h on W.  A pole within
    the margin of W, or H <= h, gets one Green solve at h on the whole window.
    """
    lo = np.maximum(np.minimum(cfg.x0, cfg.probe_window.lower) - ZOOM_MARGIN, window.lower)
    hi = np.minimum(np.maximum(cfg.x0, cfg.probe_window.upper) + ZOOM_MARGIN, window.upper)
    H = min(s / COARSE_STEPS, min(window.extent()) / 16.0)
    stage = fine = f"pole {s:g}, fine grid (h = {h:.3g})"
    try:
        if np.all((lo - ZOOM_MARGIN < (s, 0.0)) & ((s, 0.0) < hi + ZOOM_MARGIN)) or H <= h:
            return green_function(build_grid(domain, window, h), (s, 0.0)), None
        stage = f"pole {s:g}, coarse grid (H = {H:.3g})"
        G = green_function(build_grid(domain, window, H), (s, 0.0))
        coarse = CoarseSolve(h=H, interior_nodes=G.grid.interior_count(), stats=G.stats)
        grid = build_grid(domain, WindowBox(tuple(lo), tuple(hi)), h)
        data = np.ones(grid.shape)
        data[1:-1, 1:-1] = 0.0
        ii, jj = np.nonzero(data)       # the window's edge nodes
        pts = np.column_stack([grid.xs[ii], grid.ys[jj]])
        data[ii, jj] = np.where(domain.contains(pts), G.value(pts), 0.0)
        del G                           # one grid's solve at a time
        stage = fine
        return solve_dirichlet(grid, data, tol=1e-12), coarse
    except SolverError as e:
        raise SolverError(f"{stage}: {e}") from None


def martin_ratio(domain, cfg: MartinApproxConfig, h):
    """Normalized Green ratios along the pole sequence plus diagnostics.

    Each iterate satisfies u_n(x0) = 1 exactly (normalization by the
    interpolated Green value); the final iterate is the limit approximation
    and the Cauchy diagnostics bound the observed inter-iterate movement.
    A far pole's fine grid covers only the box around x0 and the probe
    window (see :func:`_solve_pole`).  Only the final iterate keeps its
    grid: each earlier one is reduced to its probe samples and solve record
    before the next grid is built.
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
    for s in cfg.poles:
        window = domain.truncation_window(s)
        if not np.all(window.contains_closure([cfg.probe_window.lower, cfg.probe_window.upper])):
            raise GeometryError(f"probe window not inside truncation window for pole {s}")
        if not window.contains((s, 0.0)):
            raise GeometryError(f"pole {s} not inside its truncation window")
        ratio = None                    # free the previous grid before building the next
        ratio, coarse = _solve_pole(domain, cfg, window, s, h)
        g0 = ratio.value(np.asarray(cfg.x0, dtype=float))
        if g0 <= 0.0:
            raise SolverError(f"nonpositive Green value at the reference point for pole {s}")
        ratio = GridField(ratio.grid, ratio.values / g0, name=f"ratio[{s}]", stats=ratio.stats)
        iterates.append(MartinIterate(pole=s, window=window, fine_window=ratio.grid.window,
                                      interior_nodes=ratio.grid.interior_count(),
                                      stats=ratio.stats, coarse=coarse,
                                      samples=ratio.value(probes)))
    cauchy = [float(np.max(np.abs(b.samples - a.samples))) for a, b in zip(iterates, iterates[1:])]
    return MartinRatioResult(iterates=iterates, cauchy=cauchy, final=ratio, probe_points=probes)


# ---------------------------------------------------------------------------
# Superlevel node clouds
# ---------------------------------------------------------------------------

def superlevel_nodes(fld: GridField, c):
    """Grid nodes (interior or boundary) where the field exceeds c > 0.

    Empty levels return an empty cloud (reported, not an error).
    """
    if c <= 0.0:
        raise GeometryError("superlevel threshold must be positive")
    g = fld.grid
    ii, jj = np.nonzero((g.interior | g.boundary) & (fld.values > c))
    return np.column_stack([g.xs[ii], g.ys[jj]])


def superlevel_boundary_nodes(fld: GridField, c, extra_member=None):
    """Region-boundary nodes of {values > c} (union an extra node mask).

    A member node belongs to the discrete region boundary when one of its
    4-neighbors is not a member or it lies on the grid's border; these are
    the points tested by the hull certificate.
    """
    g = fld.grid
    member = (g.interior | g.boundary) & (fld.values > c)
    if extra_member is not None:
        member = member | extra_member
    edge = member & _has_neighbor_in(~member)
    edge[[0, -1]] = member[[0, -1]]
    edge[:, [0, -1]] = member[:, [0, -1]]
    ii, jj = np.nonzero(edge)
    return np.column_stack([g.xs[ii], g.ys[jj]])


def ring_dirichlet_data(grid, closed=None):
    """Boundary data for a convex-ring grid: 1 on the inner wall, 0 outside.

    A boundary node is on the inner wall when it lies in the closed inner
    body (the mask ``closed`` of :func:`inner_body_nodes`, computed when not
    given) or has a grid neighbor in the open one.
    """
    if not isinstance(grid.domain, ConvexRing):
        raise GeometryError("ring data needs a convex-ring grid")
    closed = inner_body_nodes(grid) if closed is None else closed
    near_inner = closed | _has_neighbor_in(lattice_mask(grid.xs, grid.ys,
                                                        grid.domain.inner.contains))
    return np.where(grid.boundary & near_inner, 1.0, 0.0)


def inner_body_nodes(grid):
    """Mask of grid nodes lying in the closed inner body of a ring grid."""
    if not isinstance(grid.domain, ConvexRing):
        raise GeometryError("needs a convex-ring grid")
    return lattice_mask(grid.xs, grid.ys, grid.domain.inner.contains_closure)
