"""Scalar fields: closed-form positive harmonic functions with analytic
derivatives, and cylinder modes.

All closed forms are the real part u of an explicit holomorphic function
F.  Values come from u written in real arithmetic; gradients and Hessians
come from F', F'' via the Cauchy-Riemann relations:

    grad u = (Re F', -Im F'),  H_u = [[Re F'', -Im F''],
                                      [-Im F'', -Re F'']].

Value oracles preserve the floating dtype of their input; passing
``np.longdouble`` points evaluates in extended precision, which the
5-point harmonicity check relies on at small steps.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .geometry import (CylinderDomain, GeometryError, HalfplaneMinusDisk, Sector,
                       SectorMinusSlit, Strip, WindowBox, check_keys, nearest_distances,
                       parse_value)


class FieldError(ValueError):
    pass


class SingularPointError(FieldError):
    """Evaluation requested on or too close to a branch/singular point."""


class PrecisionError(FieldError):
    """The platform lacks the floating-point precision a check relies on."""


#: half-width of the excluded tube around the branch segment of sqrt(z^4 - 1)
BRANCH_GUARD = 1e-8


def _complex_of(p):
    p = np.asarray(p)
    dtype = np.clongdouble if p.dtype == np.longdouble else complex
    return p[..., 0].astype(dtype) + 1j * p[..., 1].astype(dtype)


class ScalarField:
    """Evaluation contract: value, gradient, Hessian on a domain."""

    derivative_kind = "analytic"
    name = None
    domain = None
    #: window used by default for boundary sampling and level extraction
    default_window = None

    def value(self, p, check=True):
        raise NotImplementedError

    def gradient(self, p):
        """Gradient at points ``(..., 2)``, shape ``(..., 2)``."""
        raise NotImplementedError

    def hessian(self, p):
        """Hessian at points ``(..., 2)``, shape ``(..., 2, 2)``."""
        raise NotImplementedError

    def regular(self, p):
        """Per point of ``(..., 2)`` p: True where ``gradient`` and ``hessian``
        are defined, False where they raise."""
        return np.asarray(self.domain.contains(np.asarray(p, dtype=float)), dtype=bool)

    def _require_inside(self, p):
        p = np.asarray(p, dtype=float)
        inside = np.asarray(self.domain.contains(p))
        if not inside.all():
            outside = p[~inside].reshape(-1, 2)
            raise FieldError(f"{len(outside)} point(s) outside domain of {self.name!r}, "
                             f"first {outside[0].tolist()}")


class HolomorphicReField(ScalarField):
    """u = Re(F) for holomorphic F: ``u(x, y)`` in real arithmetic, and F', F''.

    The derivatives are public as ``dF`` and ``d2F``, so other consumers of
    the closed form (the asymptotic fits) take them from here.
    ``tube``, if given, maps complex points to a mask of the points too close
    to a branch or singular point for the derivatives to be trusted.
    """

    def __init__(self, domain, u, dF, d2F, name, default_window=None, tube=None):
        self.domain = domain
        self.u = u
        self.dF = dF
        self.d2F = d2F
        self.name = name
        self.default_window = default_window
        self._tube = tube

    def value(self, p, check=True):
        if check:
            self._require_inside(p)
        p = np.asarray(p)
        p = p if p.dtype == np.longdouble else p.astype(float, copy=False)
        return np.asarray(self.u(p[..., 0], p[..., 1]))[()]

    def _guard(self, z):
        """Raise :class:`SingularPointError` if a complex point lies in the tube."""
        if self._tube is not None:
            bad = np.asarray(self._tube(z))
            if bad.any():
                raise SingularPointError(f"z={complex(np.asarray(z)[bad].flat[0]):g} is within "
                                         "the branch guard tube")

    def regular(self, p):
        ok = super().regular(p)
        if self._tube is not None:
            ok &= ~self._tube(_complex_of(np.asarray(p, dtype=float)))
        return ok

    def _derivative(self, dF, p):
        self._require_inside(p)
        self._guard(_complex_of(np.asarray(p, dtype=float)))
        w = dF(_complex_of(p))
        return np.asarray(np.real(w), dtype=float), np.asarray(-np.imag(w), dtype=float)

    def gradient(self, p):
        return np.stack(self._derivative(self.dF, p), axis=-1)

    def hessian(self, p):
        a, b = self._derivative(self.d2F, p)
        return _symmetric(a, b, -a)


def _symmetric(a, b, c):
    """Stack entries of shape ``(...)`` into ``[[a, b], [b, c]]`` of shape ``(..., 2, 2)``."""
    return np.stack([np.stack([a, b], axis=-1), np.stack([b, c], axis=-1)], axis=-2)


def _slit_tube(z):
    """Mask of the points whose z^4 lies within BRANCH_GUARD of the segment [0, 1]."""
    w = z ** 4
    x, y = np.real(w), np.imag(w)
    d = np.where(x < 0.0, np.hypot(x, y), np.where(x > 1.0, np.hypot(x - 1.0, y), np.abs(y)))
    return d < BRANCH_GUARD


def strip_martin():
    """sinh(x) cos(y) on the half-strip (0, inf) x (-pi/2, pi/2)."""
    return HolomorphicReField(Strip(), lambda x, y: np.sinh(x) * np.cos(y),
                              np.cosh, np.sinh, "strip",
                              default_window=WindowBox((0.0, -np.pi / 2), (3.0, np.pi / 2)))


def exterior_martin():
    """x - x/(x^2 + y^2) on the half-plane minus the closed unit disk."""
    return HolomorphicReField(HalfplaneMinusDisk(),
                              lambda x, y: x - x / (x * x + y * y),
                              lambda z: 1.0 + z ** -2,
                              lambda z: -2.0 * z ** -3,
                              "exterior",
                              default_window=WindowBox((0.0, -3.0), (6.0, 3.0)))


def slit_sector_martin():
    """Re sqrt(z^4 - 1) on the quarter sector minus the slit [0, 1].

    On the open domain, z^4 - 1 avoids the ray (-inf, 0], so the principal
    square root is the positive branch; derivatives are guarded near the
    slit where 1/sqrt blows up or flips sign.
    """
    def u(x, y):
        return np.real(np.sqrt((x + 1j * y) ** 4 - 1.0))

    def dF(z):
        return 2.0 * z ** 3 / np.sqrt(z ** 4 - 1.0)

    def d2F(z):
        w = np.sqrt(z ** 4 - 1.0)
        return 6.0 * z ** 2 / w - 4.0 * z ** 6 / w ** 3

    return HolomorphicReField(SectorMinusSlit(), u, dF, d2F, "slit_sector",
                              default_window=WindowBox((0.0, -4.0), (4.0, 4.0)),
                              tube=_slit_tube)


#: registry name, wall slope, default window half-height and u = Re z^k, by k
_SECTOR_FIELDS = {2: ("halfplane_v", 1.0, 4.0, lambda x, y: x * x - y * y),
                  1: ("halfplane_x", math.inf, 2.0, lambda x, y: x.copy())}


def sector_martin(k):
    """Re z^k on the sector of half-angle pi/(2k), where it is the Martin
    function: k = 2 on the quarter sector (halfplane_v, the comparison field
    of the slit sector), k = 1 on the right half-plane (halfplane_x, flat
    level lines).  F'' = k(k - 1) is constant for both."""
    name, slope, half, u = _SECTOR_FIELDS[k]
    return HolomorphicReField(Sector(slope), u,
                              lambda z: k * z ** (k - 1),
                              lambda z: k * (k - 1) * np.ones_like(z),
                              name,
                              default_window=WindowBox((0.0, -half), (4.0, half)))


# ---------------------------------------------------------------------------
# Cylinder modes
# ---------------------------------------------------------------------------

class CylinderModeField(HolomorphicReField):
    """(A e^{kt} + B e^{-kt}) phi(y) on R x (-1, 1) with A, B >= 0 and
    A + B > 0, over the principal Dirichlet eigenpair of the cross-section
    (-1, 1): lam = k^2 = pi^2/4 and phi(y) = cos(k y).  Every positive
    harmonic function on the cylinder has this separated form.  It is Re F
    for F(z) = A e^{kz} + B e^{-kz}, since cos is even, and F'' = k^2 F."""

    lam = (np.pi / 2) ** 2

    def __init__(self, A=1.0, B=0.0):
        if A < 0.0 or B < 0.0 or A + B <= 0.0:
            raise FieldError("mode coefficients need A, B >= 0 and A + B > 0")
        self.A, self.B = A, B
        k = np.pi / 2

        def F(z):
            return A * np.exp(k * z) + B * np.exp(-k * z)

        def dF(z):
            return k * (A * np.exp(k * z) - B * np.exp(-k * z))

        super().__init__(CylinderDomain(), lambda x, y: F(x) * np.cos(k * y), dF,
                         lambda z: k * k * F(z), f"cylinder:A={A:g},B={B:g}",
                         default_window=WindowBox((-2.0, -1.0), (2.0, 1.0)))

    @staticmethod
    def phi(y):
        return np.cos(np.pi * np.asarray(y) / 2)


cylinder_martin = CylinderModeField


# ---------------------------------------------------------------------------
# Field registry
# ---------------------------------------------------------------------------

#: each registry name's constructor; every field but the cylinder mode is the
#: Martin function of its domain, and only the cylinder mode takes coefficients
FIELDS = {
    "strip": strip_martin,
    "exterior": exterior_martin,
    "slit_sector": slit_sector_martin,
    "halfplane_v": lambda: sector_martin(2),
    "halfplane_x": lambda: sector_martin(1),
    "cylinder": cylinder_martin,
}


def declaration_key(declaration):
    """A domain's declaration as the canonical JSON text that keys :data:`CLOSED_FORMS`."""
    return json.dumps(declaration, sort_keys=True)


#: the registry name of each domain's closed-form Martin function, by the domain's
#: declaration; none for the cylinder, whose mode is one Martin function of many
CLOSED_FORMS = {declaration_key({"kind": kind}): name for kind, name in [
    ("strip", "strip"), ("halfplane_minus_disk", "exterior"), ("sector", "halfplane_v"),
    ("right_halfplane", "halfplane_x"), ("sector_minus_slit", "slit_sector")]}


def field_from_name(name) -> ScalarField:
    """Resolve a registry name of :data:`FIELDS`, the cylinder's as
    ``cylinder:A=..,B=..`` with coefficients read by :func:`geometry.parse_value`."""
    base, _, params = name.partition(":")
    if base not in FIELDS:
        raise FieldError(f"unknown field name {name!r}")
    items = [item.partition("=") for item in params.split(",")] if params else []
    coefficients = {key.strip(): value for key, _, value in items}
    try:
        check_keys(coefficients, ("A", "B") if base == "cylinder" else (), f"{base} coefficient")
        return FIELDS[base](**{key: parse_value(value, f"{base} coefficient {key!r}")
                               for key, value in coefficients.items()})
    except GeometryError as e:
        raise FieldError(f"field {name!r}: {e}") from None


# ---------------------------------------------------------------------------
# Pointwise checks
# ---------------------------------------------------------------------------

#: stencil offsets: the 5-point Laplacian's (the center last), then the
#: diagonals of the centered mixed difference
_STENCIL = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [0.0, 0.0],
                     [1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
#: largest long-double epsilon with which the stencil resolves O(h^2) at h = 1e-4
LONGDOUBLE_EPS_MAX = 1e-18


def _longdouble_eps():
    return float(np.finfo(np.longdouble).eps)


def harmonicity_residual(field, p, h):
    """5-point discrete Laplacian of the value oracle at points ``(..., 2)``, step h.

    The stencil of an analytic field is evaluated in extended precision; in
    plain float64 the per-value rounding of ~1e-16/h^2 would swamp the
    O(h^2) truncation term already at h = 1e-4, so a platform whose long
    double is no wider than float64 is rejected.
    """
    p = np.asarray(p, dtype=float)
    bad = ~np.all(field.domain.contains(p[..., None, :] + 2 * h * _STENCIL[:4]), axis=-1)
    if bad.any():
        raise FieldError(f"stencil of radius 2h around {p[bad][0].tolist()} leaves the domain")
    dtype = float
    if field.derivative_kind == "analytic":
        eps = _longdouble_eps()
        if eps > LONGDOUBLE_EPS_MAX:
            raise PrecisionError(f"long double eps {eps:.3g} > {LONGDOUBLE_EPS_MAX:g}: the "
                                 "harmonicity stencil needs 80-bit extended precision")
        dtype = np.longdouble
    v = field.value(p[..., None, :].astype(dtype) + dtype(h) * _STENCIL[:5].astype(dtype),
                    check=False)
    total = v[..., 0] + v[..., 1] + v[..., 2] + v[..., 3] - 4.0 * v[..., 4]
    return np.asarray(total / dtype(h) ** 2, dtype=float)[()]


#: rounds of n draws before a window short of interior points is an error
SAMPLE_ROUNDS = 100
#: wall samples along the longer side of the window, from which interior
#: points keep clear (boundary_vanishing's default)
WALL_SAMPLES = 200


def interior_points(fld, n, rng):
    """The first n points drawn uniformly from the field's default window
    (x, then y, from the seeded ``random.Random`` rng) that lie in the open
    domain farther than 0.05 + sqrt(2) s from every sample of
    ``fld.domain.boundary_points(window, WALL_SAMPLES)``, shape ``(n, 2)``.
    s = max(window extent)/(WALL_SAMPLES - 1) is the sampling lattice's
    spacing: every wall point in the window lies within one cell diagonal of
    a sample, sqrt(2) s for square cells (the shorter side's spacing is s up to
    rounding to whole cells), so the points lie about 0.05 or farther from
    the wall.  A FieldError naming the window if SAMPLE_ROUNDS rounds of n
    draws give fewer."""
    window = fld.default_window
    lower, upper = np.array(window.lower), np.array(window.upper)
    walls = fld.domain.boundary_points(window, WALL_SAMPLES)
    margin = 0.05 + math.sqrt(2.0) * max(window.extent()) / (WALL_SAMPLES - 1)
    pts = np.empty((0, 2))
    for _ in range(SAMPLE_ROUNDS):
        p = lower + (upper - lower) * np.reshape([rng.random() for _ in range(2 * n)], (-1, 2))
        p = p[fld.domain.contains(p)]
        pts = np.vstack([pts, p[nearest_distances(p, walls) > margin]])
        if len(pts) >= n:
            return pts[:n]
    raise FieldError(f"field {fld.name!r}: {SAMPLE_ROUNDS * n} draws from the window "
                     f"{lower.tolist()} to {upper.tolist()} gave {len(pts)} of {n} points "
                     f"{margin:.3g} clear of its wall samples")


@dataclass
class BoundaryReport:
    max_abs: float
    worst_point: tuple
    tol: float

    @property
    def passed(self):
        return self.max_abs <= self.tol


def boundary_vanishing(field, n_samples=WALL_SAMPLES, tol=1e-8):
    """Max |u| over boundary samples in the default window, via the continuous extension of u."""
    pts = field.domain.boundary_points(field.default_window, n_samples)
    vals = np.abs(np.asarray(field.value(pts, check=False), dtype=float))
    k = int(np.argmax(vals))
    return BoundaryReport(max_abs=float(vals[k]), worst_point=tuple(pts[k]), tol=tol)


def _centered_gradient(value, p, h):
    """Centered differences of step h (a scalar or one per point) of the
    value function at points ``(..., 2)``, in one call of it."""
    h = np.asarray(h, dtype=float)[..., None]
    v = value(p[..., None, :] + h[..., None] * _STENCIL[:4])
    return (v[..., 0::2] - v[..., 1::2]) / (2 * h)


def _centered_hessian(value, p, h):
    """Second centered differences of step h (a scalar or one per point) of
    the value function at points ``(..., 2)``, in one call of it."""
    h = np.asarray(h, dtype=float)[..., None]
    v = value(p[..., None, :] + h[..., None] * _STENCIL)
    d2 = (v[..., 0:4:2] - 2 * v[..., 4, None] + v[..., 1:4:2]) / h ** 2
    fxy = (v[..., 5] - v[..., 6] - v[..., 7] + v[..., 8]) / (4 * h[..., 0] ** 2)
    return _symmetric(d2[..., 0], fxy, d2[..., 1])


def fd_hessian(field, p, h=None):
    """Centered-difference Hessian at points ``(..., 2)``, step max(1e-4, 1e-4 |p|)."""
    p = np.asarray(p, dtype=float)
    if h is None:
        h = np.maximum(1e-4, 1e-4 * np.linalg.norm(p, axis=-1))
    return _centered_hessian(lambda q: field.value(q, check=False), p, h)
