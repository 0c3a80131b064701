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
from .geometry import ConvexRing, Domain, GeometryError, WindowBox, lattice_mask


class SolverError(RuntimeError):
    pass


@dataclass(frozen=True)
class SolveStats:
    """Conjugate-gradient iterations and final relative residual of a solve."""

    iterations: int
    residual: float


@dataclass
class Grid2D:
    """Uniform grid on a window with one boolean node mask, ``interior``.

    ``interior`` marks the unknowns; every other node holds Dirichlet data,
    read where an interior node's stencil reaches it, so walls that align
    with grid lines carry their data exactly and artificial window edges
    cutting through the domain become caps.

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
    when the mask and three float arrays would exceed memory (a solve holds
    one: its data array becomes the solution).  Besides the interior mask,
    the classification holds two boolean masks and no integer grid.
    """
    if h > min(window.extent()) / 16.0:
        raise GeometryError(f"grid spacing h={h} too coarse for window extent {window.extent()}")
    xs, ys = window.lattice(h, 1 + 3 * 8, "a grid's mask and solve arrays")
    hx = float((xs[-1] - xs[0]) / (len(xs) - 1))
    hy = float((ys[-1] - ys[0]) / (len(ys) - 1))
    outside = lattice_mask(xs, ys, domain.contains_closure)
    np.logical_not(outside, out=outside)
    interior = lattice_mask(xs, ys, domain.contains)
    interior[0, :] = interior[-1, :] = False
    interior[:, 0] = interior[:, -1] = False
    interior[_has_neighbor_in(outside)] = False
    del outside
    if not interior.any():
        raise GeometryError("grid has no interior nodes")
    if not _connected(interior):
        raise GeometryError("grid interior is disconnected")
    return Grid2D(domain=domain, window=window, hx=hx, hy=hy, xs=xs, ys=ys, interior=interior)


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
    the components.  A node's run is the last run start at or before its
    flat index, so no grid of run ids is made.
    """
    starts = interior.copy()
    starts[:, 1:] &= ~interior[:, :-1]
    first = np.flatnonzero(starts)
    del starts
    n_runs = len(first)
    if n_runs == 0:
        return False
    both = interior[:-1] & interior[1:]
    seg = both.copy()
    seg[:, 1:] &= ~both[:, :-1]
    del both
    above = np.flatnonzero(seg)         # flat indices in interior of the segments' upper nodes
    run_above = np.searchsorted(first, above, side="right") - 1
    run_below = np.searchsorted(first, above + interior.shape[1], side="right") - 1
    parent = list(range(n_runs))

    def root(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    components = n_runs
    for a, b in zip(run_above.tolist(), run_below.tolist()):
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


# grid rows per block of the matvec, of the type-I DST and of the residual's
# slabs: bounds their scratch buffers at 64 rows
_BLOCK = 64


def _neg_laplacian_terms(centre, east, west, north, south, hx2, hy2, ax, ay, out):
    """(2 c - e - w) / hx2 + (2 c - n - s) / hy2 into ``out``, through the
    buffers ``ax`` and ``ay`` (``out`` may be ``ax``): the 5-point arithmetic
    of :func:`_apply_neg_laplacian` and of :func:`_dirichlet_fold`, stated
    once so that both round alike."""
    np.multiply(centre, 2.0, out=ax)
    ax -= east
    ax -= west
    ax /= hx2
    np.multiply(centre, 2.0, out=ay)
    ay -= north
    ay -= south
    ay /= hy2
    return np.add(ax, ay, out=out)


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
        o = out[i:i + k, 1:-1]
        _neg_laplacian_terms(v[i:i + k, 1:-1], v[i + 1:i + k + 1, 1:-1], v[i - 1:i + k - 1, 1:-1],
                             v[i:i + k, 2:], v[i:i + k, :-2], hx2, hy2, *scratch[:, :k], o)
        o[~interior[i:i + k, 1:-1]] = 0.0
    return out


def _dst1(x, out, scale=1.0, rows=None):
    """Type-I discrete sine transform of a 2-d array along axis 1, into ``out``.

    Unnormalized, as ``scipy.fft.dst(x, type=1, axis=1)``:
    y_k = 2 sum_n x_n sin(pi (k + 1)(n + 1) / (N + 1)), so applying it twice
    multiplies by 2 (N + 1).  Computed as the real FFT of the odd extension
    [0, x, 0, -x reversed] of 64 rows at a time, in one reused buffer;
    ``out`` may be ``x``.  Each y_k is multiplied by ``scale`` (a scalar or
    one factor per k) as it is written, which saves a pass over ``out``.
    ``rows`` lists (start, stop) runs of the rows to transform, all rows
    when None; the other rows of ``out`` are left as they are.
    """
    neg_scale = -np.asarray(scale, dtype=float)
    m, n = x.shape
    rows = ((0, m),) if rows is None else rows
    ext = np.zeros((min(sum(stop - start for start, stop in rows), _BLOCK), 2 * n + 2))
    for start, stop in rows:
        for i in range(start, stop, _BLOCK):
            block = x[i:min(i + _BLOCK, stop)]
            k = len(block)
            ext[:k, 1:n + 1] = block
            # copies, then in-place ufuncs on contiguous rows: a ufunc reading
            # the reversed block or the strided spectrum would allocate buffers
            tail = ext[:k, n + 2:]
            tail[...] = block[:, ::-1]
            np.negative(tail, out=tail)
            o = out[i:i + k]
            # the spectrum is a temporary: the next block's is built after it is freed
            np.copyto(o, np.fft.rfft(ext[:k], axis=1)[:, 1:n + 1].imag)
            o *= neg_scale
    return out


def _fast_poisson(shape, hx, hy):
    """Exact inverse of the 5-point -lap on the inner rectangle of a window.

    Returns ``solve(r, out, rows_in=None, rows_out=None)``, which writes into
    ``out`` the solution on ``[1:-1, 1:-1]`` for the right-hand side r on
    the window's nodes, with zero data on the window edge (the edge entries
    of ``out`` are set to 0); ``out`` may be ``r``.  ``rows_in`` and
    ``rows_out`` are (start, stop) runs of inner rows (row i of the window is
    inner row i - 1): r is read only on ``rows_in`` and taken as zero on the
    others, and only the ``rows_out`` of the solution are written, the other
    inner rows of ``out`` holding sine coefficients.  None means every row.
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

    def solve(r, out, rows_in=None, rows_out=None):
        t = out[1:-1, 1:-1]
        if rows_in is not None:
            # the sine coefficients of the rows that are not read are 0
            stop = 0
            for start, end in rows_in:
                t[stop:start] = 0.0
                stop = end
            t[stop:] = 0.0
        _dst1(r[1:-1, 1:-1], out=t, scale=scale, rows=rows_in)
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
        _dst1(t, out=t, rows=rows_out)
        out[0] = out[-1] = 0.0
        out[:, 0] = out[:, -1] = 0.0
        return out

    return solve


def solve_dirichlet(grid, boundary_values, tol=1e-10):
    """Solve the 5-point Laplace problem -lap u = 0 with Dirichlet node values.

    ``boundary_values`` is an array of the grid's shape.  Off the interior it
    is the Dirichlet data, read where an interior node's stencil reaches it
    (the discrete maximum principle bounds interior values by it there) and
    returned bit for bit, also when the solve raises.  The array is consumed:
    a writable C-contiguous float64 array becomes the solution, anything else
    is copied once.  The data folds into a right-hand side on the interior
    nodes next to it (:func:`_dirichlet_fold`) and waits in a copy of its
    values off the interior while :func:`_cg` uses the array as its work
    array, so the data array is the solve's one grid-sized float array.
    The returned field's ``stats``, and the :class:`SolverError` of a solve
    that cannot reach ``tol``, are those of :func:`_cg`.
    """
    interior = grid.interior
    u = np.require(boundary_values, dtype=float, requirements="CW")
    u[interior] = 0.0
    b = _dirichlet_fold(u, interior, grid.hx, grid.hy)
    data = u[~interior]
    try:
        stats = _cg(u, b, interior, grid.hx, grid.hy, tol=tol)
    finally:
        u[~interior] = data
    return GridField(grid, u, stats=stats)


def _dirichlet_fold(u, interior, hx, hy):
    """The right-hand side that the values of u off the interior fold into,
    for u zero on the interior, as the pair (nodes, values) that :func:`_cg`
    takes: ``nodes`` are the sorted flat indices of the interior nodes with
    a non-interior 4-neighbour (the window edge's nodes are non-interior),
    and ``values`` is 0 - (-lap u) there, bit for bit the whole-grid
    :func:`_apply_neg_laplacian` of u on those nodes; it is 0 on the rest
    of the interior.
    """
    near = _has_neighbor_in(~interior)
    near &= interior
    nodes = np.flatnonzero(near)
    v, ny = u.ravel(), u.shape[1]
    ax, ay = np.empty((2, len(nodes)))
    _neg_laplacian_terms(v[nodes], v[nodes + ny], v[nodes - ny], v[nodes + 1], v[nodes - 1],
                         hx ** 2, hy ** 2, ax, ay, ax)
    return nodes, np.subtract(0.0, ax, out=ax)  # 0 - fold, not -fold: no negative zeros


def _dot(a, b):
    """Inner product of two arrays of one shape, summed in an order that does
    not depend on the BLAS thread count (``np.vdot`` does) and with no
    temporary."""
    return float(np.einsum("i,i->", a.ravel(), b.ravel()))


def _runs(member):
    """The (start, stop) runs of the True entries of a boolean vector."""
    edges = np.flatnonzero(np.diff(np.concatenate(([False], member, [False]))))
    return tuple(zip(edges[0::2].tolist(), edges[1::2].tolist()))


class _WallLayer:
    """The interior nodes S next to E, the nodes of the window's inner
    rectangle that are not interior, and the coupling C between them.

    For v on the inner rectangle, C(v)_i = sum of v_e / h_e^2 over the
    4-neighbours e of i in E, with h_e the spacing along the edge i-e; it
    lives on S.  ``nodes`` are the flat indices of S, ``rows`` the runs of
    inner rows that hold S, and ``reach`` the runs that hold S or an
    E-neighbour of S.
    """

    def __init__(self, interior, hx, hy):
        outside = np.zeros(interior.shape, dtype=bool)
        outside[1:-1, 1:-1] = ~interior[1:-1, 1:-1]
        self.nodes = np.flatnonzero(interior & _has_neighbor_in(outside))
        ny = interior.shape[1]
        slots, nbrs, weights = [], [], []
        for step, h in ((ny, hx), (-ny, hx), (1, hy), (-1, hy)):
            hit = np.flatnonzero(outside.ravel()[self.nodes + step])
            slots.append(hit)
            nbrs.append(self.nodes[hit] + step)
            weights.append(np.full(len(hit), 1.0 / h ** 2))
        self._slot, self._nbr, self._weight = map(np.concatenate, (slots, nbrs, weights))
        row = np.zeros(interior.shape[0] - 2, dtype=bool)
        row[self.nodes // ny - 1] = True
        self.rows = _runs(row)
        row[self._nbr // ny - 1] = True
        self.reach = _runs(row)

    def couple(self, v):
        """C(v) on S, read from v's entries at the E-neighbours of S."""
        return np.bincount(self._slot, np.take(v, self._nbr) * self._weight, len(self.nodes))


def _residual_norm(u, b, interior, hx, hy):
    """||b - A u|| over the interior nodes, for u zero off the interior and
    b the (nodes, values) pair of :func:`_cg`.

    A u is formed by :func:`_apply_neg_laplacian` on slabs of 64 rows of u
    with one halo row on each side and negated in place; b's values on the
    slab are then added in, so no grid-sized array is made.
    """
    nodes, values = b
    total = 0.0
    m, ny = u.shape[0] - 1, u.shape[1]
    slab = np.empty((min(m + 1, _BLOCK + 2), ny))
    for i in range(1, m, _BLOCK):
        k = min(_BLOCK, m - i)
        s = slab[:k + 2]
        _apply_neg_laplacian(u[i - 1:i + k + 1], interior[i - 1:i + k + 1], hx, hy, out=s)
        r = s[1:-1]
        np.negative(r, out=r)
        lo, hi = np.searchsorted(nodes, (i * ny, (i + k) * ny))
        r.ravel()[nodes[lo:hi] - i * ny] += values[lo:hi]
        total += _dot(r, r)
    return math.sqrt(total)


#: conjugate-gradient iterations after which a solve gives up
MAX_ITERATIONS = 10 ** 6


def _cg(u, b, interior, hx, hy, tol):
    """Preconditioned conjugate gradients for -lap u = b on the interior,
    run on the wall layer (the capacitance-matrix method of Buzbee, Dorr,
    George and Golub 1971 and Proskurowski and Widlund 1976).

    ``u`` is the work array of every fast-Poisson solve: its entries are not
    read, and on return it holds the solution on the interior and 0 off it.
    ``b`` is the pair (nodes, values): the sorted flat indices of the
    interior nodes where the right-hand side may be nonzero and its values
    there, 0 on every other node; it is only read.  Returns the
    :class:`SolveStats` once the true relative residual ||b - A u|| / ||b||
    is <= tol: 1 iteration for the first full solve plus one per wall-layer
    step, and that residual.  Raises :class:`SolverError` naming the cap
    and the residual after MAX_ITERATIONS iterations.

    The preconditioner M is the exact inverse A_R^-1 of the operator on the
    window's inner rectangle (:func:`_fast_poisson`), restricted to the
    interior.  For q on the interior, A M q = q + C(A_R^-1 q) with the
    coupling C of :class:`_WallLayer`, which lives on the wall layer S.  CG
    starts from u0 = M b, one full solve that counts as iteration 1, whose
    residual -C(A_R^-1 b) lives on S; so do every later residual r_k and
    direction generator q_k (the direction is p_k = M q_k) and every A p_k.
    Each later iteration is one fast-Poisson solve of r_k, transformed only
    on the rows that S holds and back only on the rows that S or its
    E-neighbours hold, and vector work on S.  The solution u0 + M(sum of
    alpha_k q_k) is one more full solve, skipped when u0 meets tol.  The
    two full solves start from b scattered into u.  The true residual is
    tested once the residual on S meets tol; while it misses tol, the
    iteration goes on from the unchanged b and tests it again after each
    step.  A domain that fills the inner rectangle has no layer: one full
    solve.  u is the one grid-sized float array: besides it and b, the
    solve holds boolean masks while it finds the layer, 64-row blocks,
    vectors of length ny per reduction level and the wall layer vectors
    on its nodes.
    """
    nodes, values = b
    b_norm = math.sqrt(_dot(values, values))
    if b_norm == 0.0:
        u.fill(0.0)
        return SolveStats(iterations=0, residual=0.0)
    solve = _fast_poisson(u.shape, hx, hy)
    u.fill(0.0)
    np.put(u, nodes, values)
    solve(u, u)
    # E empty: nothing of the layer is built
    layer = None if interior[1:-1, 1:-1].all() else _WallLayer(interior, hx, hy)
    r = np.zeros(0) if layer is None else -layer.couple(u)
    q, gq, cq, total = (np.zeros_like(r) for _ in range(4))
    rz = math.inf                       # the first direction generator is r itself
    r_norm = math.sqrt(_dot(r, r))
    it = 1
    while True:
        if r_norm <= tol * b_norm:
            if it > 1:                  # else u still holds u0 = M b
                u.fill(0.0)
                np.put(u, nodes, values)
                np.put(u, layer.nodes, np.take(u, layer.nodes) + total)
                solve(u, u)
            u[~interior] = 0.0
            true_norm = _residual_norm(u, b, interior, hx, hy)
            if true_norm <= tol * b_norm:
                return SolveStats(iterations=it, residual=true_norm / b_norm)
            if layer is None:
                raise SolverError(f"the fast-Poisson solve leaves relative residual "
                                  f"{true_norm / b_norm:.3e} on a rectangle")
        if it == MAX_ITERATIONS:
            raise SolverError(f"conjugate gradients hit the iteration cap of {MAX_ITERATIONS} "
                              f"iterations; relative residual {r_norm / b_norm:.3e}")
        # y = A_R^-1 r on S (M r there) and C(y)
        for start, stop in layer.rows:
            u[start + 1:stop + 1] = 0.0
        np.put(u, layer.nodes, r)
        solve(u, u, layer.rows, layer.reach)
        y = np.take(u, layer.nodes)
        rz_new = _dot(r, y)
        beta = rz_new / rz
        q = r + beta * q
        gq = y + beta * gq              # A_R^-1 q on S: M q there
        cq = layer.couple(u) + beta * cq
        rz = rz_new
        ap = q + cq                     # A M q
        alpha = rz / _dot(gq, ap)
        total += alpha * q
        r -= alpha * ap
        r_norm = math.sqrt(_dot(r, r))
        it += 1


def green_function(grid, pole):
    """Discrete Green field: -lap G = delta_pole / h^2, zero Dirichlet data.

    Zero data folds into nothing, so the right-hand side is the pole node
    alone, and :func:`_cg` solves into a new solution array, the only
    grid-sized float array.  Solved to relative residual 1e-12 so that the
    symmetry G_p(q) = G_q(p) holds to ~1e-12 relative.
    """
    i, j = grid.node_index(pole)
    if not (0 <= i < grid.shape[0] and 0 <= j < grid.shape[1]) or not grid.interior[i, j]:
        raise GeometryError(f"pole {pole} does not snap to an interior node")
    b = (np.array([i * grid.shape[1] + j]), np.array([1.0 / (grid.hx * grid.hy)]))
    u = np.empty(grid.shape)
    stats = _cg(u, b, grid.interior, grid.hx, grid.hy, tol=1e-12)
    return GridField(grid, u, name=f"green[{pole}]", stats=stats)


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
        object.__setattr__(self, "poles", check_poles(self.poles))


def check_poles(poles):
    """The poles as a tuple of floats; they must be strictly increasing and positive."""
    s = tuple(float(v) for v in poles)
    if len(s) < 1 or any(b <= a for a, b in zip(s, s[1:])) or s[0] <= 0.0:
        raise GeometryError("poles must be strictly increasing and positive")
    return s


@dataclass(frozen=True)
class Level:
    """One solve of a pole's chain: its window, spacing, interior nodes and solve."""

    window: WindowBox
    h: float
    interior_nodes: int
    stats: SolveStats


@dataclass
class MartinIterate:
    """What outlives an iterate's grids: its levels, the first on the
    truncation window, and the ratio u_n on the probes."""

    pole: float
    levels: list
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


#: the last window W's margin around x0 and the probe; a pole this near W gets one level
ZOOM_MARGIN = 2.0
#: a far pole s gets a first level at spacing H = s / COARSE_STEPS
COARSE_STEPS = 160


def _solve_pole(domain, cfg, window, s, h):
    """The field of the pole s on the last window of its plan, and one
    :class:`Level` per solve.

    The plan lists (window, spacing) pairs.  W is the box around x0 and the
    probe window grown by ZOOM_MARGIN and clipped to the truncation window.
    A pole within the margin of W, or H = s / COARSE_STEPS (at most 1/16 of
    the window's smaller extent) <= h, gets the truncation window at h;
    any other pole the truncation window at H, then W at h.  Level 1 is the
    Green solve.  Each later level is a Dirichlet solve whose window edges
    inside the domain take the previous level's field, bilinearly
    interpolated (walls get zero); that field is freed before the solve.
    """
    lo = np.maximum(np.minimum(cfg.x0, cfg.probe_window.lower) - ZOOM_MARGIN, window.lower)
    hi = np.minimum(np.maximum(cfg.x0, cfg.probe_window.upper) + ZOOM_MARGIN, window.upper)
    H = min(s / COARSE_STEPS, min(window.extent()) / 16.0)
    near = np.all((lo - ZOOM_MARGIN < (s, 0.0)) & ((s, 0.0) < hi + ZOOM_MARGIN)) or H <= h
    plan = [(window, h)] if near else [(window, H), (WindowBox(tuple(lo), tuple(hi)), h)]
    fld, levels = None, []
    for k, (w, step) in enumerate(plan, 1):
        grid = build_grid(domain, w, step)
        try:
            if fld is None:
                fld = green_function(grid, (s, 0.0))
            else:
                data = np.ones(grid.shape)
                data[1:-1, 1:-1] = 0.0
                ii, jj = np.nonzero(data)       # the window's edge nodes
                pts = np.column_stack([grid.xs[ii], grid.ys[jj]])
                data[ii, jj] = np.where(domain.contains(pts), fld.value(pts), 0.0)
                fld = None                      # one grid's solve at a time
                fld = solve_dirichlet(grid, data, tol=1e-12)
        except SolverError as e:
            stage = f"pole {s:g}, level {k} of {len(plan)} (h = {step:.3g})"
            raise SolverError(f"{stage}: {e}") from None
        levels.append(Level(w, step, grid.interior_count(), fld.stats))
    return fld, levels


def martin_ratio(domain, cfg: MartinApproxConfig, h):
    """Normalized Green ratios along the pole sequence plus diagnostics.

    Each iterate satisfies u_n(x0) = 1 exactly (normalization by the
    interpolated Green value); the final iterate is the limit approximation
    and the Cauchy diagnostics bound the observed inter-iterate movement.
    A far pole's last level covers only the box around x0 and the probe
    window (see :func:`_solve_pole`).  Only the final iterate keeps its
    grid: each earlier one is reduced to its probe samples and level records
    before the next grid is built.
    """
    x0 = np.asarray(cfg.x0, dtype=float)
    if not domain.contains(x0):
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
        if not window.contains(x0):
            raise GeometryError(f"reference point {cfg.x0} outside truncation window for pole {s}")
        if not window.contains((s, 0.0)):
            raise GeometryError(f"pole {s} not inside its truncation window")
        ratio = None                    # free the previous grid before building the next
        ratio, levels = _solve_pole(domain, cfg, window, s, h)
        g0 = ratio.value(x0)
        if g0 <= 0.0:
            raise SolverError(f"nonpositive Green value at the reference point for pole {s}")
        # the pole's field is dropped here, and its array, which nothing else
        # holds, is normalized in place: no second grid array
        ratio.values.setflags(write=True)
        np.divide(ratio.values, g0, out=ratio.values)
        ratio = GridField(ratio.grid, ratio.values, name=f"ratio[{s}]", stats=ratio.stats)
        iterates.append(MartinIterate(pole=s, levels=levels, samples=ratio.value(probes)))
    cauchy = [float(np.max(np.abs(b.samples - a.samples))) for a, b in zip(iterates, iterates[1:])]
    return MartinRatioResult(iterates=iterates, cauchy=cauchy, final=ratio, probe_points=probes)


# ---------------------------------------------------------------------------
# Superlevel node clouds
# ---------------------------------------------------------------------------

def _superlevel(fld, c):
    """Mask of the nodes where the field exceeds c; c must be positive."""
    if c <= 0.0:
        raise GeometryError("superlevel threshold must be positive")
    return fld.values > c


def superlevel_nodes(fld: GridField, c):
    """Grid nodes where the field exceeds c > 0.

    Empty levels return an empty cloud (reported, not an error).
    """
    g = fld.grid
    ii, jj = np.nonzero(_superlevel(fld, c))
    return np.column_stack([g.xs[ii], g.ys[jj]])


def superlevel_boundary_nodes(fld: GridField, c):
    """Region-boundary nodes of {values > c}, c > 0.

    A member node belongs to the discrete region boundary when one of its
    4-neighbors is not a member or it lies on the grid's border; these are
    the points tested by the hull certificate.
    """
    g = fld.grid
    member = _superlevel(fld, c)
    edge = member & _has_neighbor_in(~member)
    edge[[0, -1]] = member[[0, -1]]
    edge[:, [0, -1]] = member[:, [0, -1]]
    ii, jj = np.nonzero(edge)
    return np.column_stack([g.xs[ii], g.ys[jj]])


def ring_dirichlet_data(grid):
    """Dirichlet data for a convex-ring grid: 1 on the filled inner body (the
    closed one and the nodes next to the open one), 0 elsewhere, so the
    solved ring field is 1 there and its superlevel sets are filled."""
    closed = inner_body_nodes(grid)     # raises unless the grid is a ring's
    near = _has_neighbor_in(lattice_mask(grid.xs, grid.ys, grid.domain.inner.contains))
    return (closed | near).astype(float)


def inner_body_nodes(grid):
    """Mask of grid nodes lying in the closed inner body of a ring grid."""
    if not isinstance(grid.domain, ConvexRing):
        raise GeometryError("needs a convex-ring grid")
    return lattice_mask(grid.xs, grid.ys, grid.domain.inner.contains_closure)
