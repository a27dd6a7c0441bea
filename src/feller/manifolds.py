"""Built-in Riemannian manifolds with analytic geometry.

Every built-in carries a canonical global chart:

* ``Euclidean(d)`` - Cartesian coordinates ``x1..xd``;
* ``Circle`` - angle ``theta`` reduced to ``[0, 2*pi)``;
* ``Torus2`` - angles ``(theta1, theta2)``, each reduced to ``[0, 2*pi)``;
* ``HyperbolicHalfPlane`` - ``(x, y)`` with ``y > 0`` and metric
  ``(dx^2 + dy^2) / y^2`` (curvature -1);
* ``Sphere2`` - points stored extrinsically as unit vectors in R^3; chart
  quantities are evaluated in an on-demand orthographic tangent-plane chart
  centered at the query point, which avoids the coordinate singularities of
  spherical angles.

Geodesics, log maps and distances are analytic for all built-ins; they act
as ground truth for the numerical integrators elsewhere in the package.
All objects are immutable and every operation is a pure function, so
concurrent use is safe by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BeyondInjectivityRadiusError,
    IncompatibleBaseError,
    InvalidPointError,
    NotParallelizableError,
    UnsupportedOperationError,
)

TWO_PI = 2.0 * np.pi

# Cut-locus guard: log maps refuse targets within this slack of the
# injectivity radius.
_CUT_TOL = 1e-9


def wrap_angle(a):
    """Reduce angles to [0, 2*pi); idempotent.

    ``np.mod`` rounds tiny negative angles up to 2*pi itself, which is mapped
    to 0 in place.
    """
    out = np.asarray(np.mod(a, TWO_PI))
    np.copyto(out, 0.0, where=out == TWO_PI)
    return out


def _column_rows(coords, h) -> np.ndarray:
    """An empty float array of the broadcast shape of ``coords`` and ``h``,
    coordinate axis first in memory: each coordinate is one contiguous column
    (a 2-D result is F-contiguous)."""
    shape = np.broadcast_shapes(np.shape(coords), np.shape(h))
    return np.moveaxis(np.empty(shape[-1:] + shape[:-1]), 0, -1)


def wrap_signed(a):
    """Reduce angle differences to (-pi, pi]."""
    return np.pi - np.mod(np.pi - np.asarray(a), TWO_PI)


@dataclass(frozen=True)
class Point:
    """A manifold point in the canonical global chart."""

    manifold: "Manifold"
    coords: np.ndarray

    def __repr__(self):
        return f"Point({self.manifold.name}, {np.array2string(self.coords, precision=6)})"


@dataclass(frozen=True)
class TangentVector:
    """Tangent vector with chart-basis components (ambient for Sphere2)."""

    base: Point
    comps: np.ndarray

    def __repr__(self):
        return f"TangentVector({self.base!r}, {np.array2string(self.comps, precision=6)})"


@dataclass(frozen=True)
class MetricData:
    """Metric, inverse and volume density at one point."""

    g: np.ndarray
    g_inv: np.ndarray
    sqrt_det: float


class Manifold:
    """Base class; subclasses implement chart geometry on coordinate arrays.

    Batch methods take arrays of shape ``(n, chart_dim)`` and are the hot
    path; the ``Point``-level operations below wrap them.

    Every parallelizable built-in is a Lie group with a left-invariant frame
    (R^d, the circle and torus2 under addition, H2 as the ``ax+b`` group).
    It sets ``identity`` and implements ``compose(coords, h)``,
    right-multiplication of each row by the group element ``h`` (one element,
    or one per row; rows and elements broadcast), returned column-major, and
    ``geodesic_shift(v, t)`` and ``frame_shift(k, t)``,
    the elements reached from the identity along the geodesic with initial
    velocity ``v`` and along the k-th frame field.  A frame geodesic or a
    frame-field flow from any point is then one ``compose``.  The frame
    components are affine in the chart (``y e_k`` on H2, else constant).  A
    chart has a global frame exactly when it sets ``identity``.

    A chart with a canonical grid names the kind of each axis in
    ``grid_axes``: ``"periodic"`` (n equispaced angles) or ``"polar"`` (n
    cell-centred latitudes between the two poles), the interpolation orders
    it supports in ``grid_orders``, the first the fallback, and maps its
    coordinates to the per-axis angles and back (``grid_angles``,
    ``grid_point``).  On a chart with a group whose grid axes are all
    periodic (the circle, torus2), node 0, at grid angle 0 on every axis, is
    the identity, and right-multiplication translates the grid angles.  A
    chart with ``uniform_volume`` has constant density.
    """

    name: str = "abstract"
    dim: int = 0          # intrinsic dimension
    chart_dim: int = 0    # stored coordinate length (3 for Sphere2)
    coord_names: tuple = ()  # the stored coordinates' names in expressions
    injectivity_radius: float = np.inf
    identity = None       # group identity in the chart; None: no group and no global frame
    uniform_volume = False  # sqrt(det g) constant in the chart: constant fields are divergence-free
    grid_axes: tuple = ()   # kinds of the canonical grid's axes; () for no grid
    grid_orders: tuple = ()  # interpolation orders of the grid

    # -- points ---------------------------------------------------------

    def point(self, coords) -> Point:
        c = np.atleast_1d(np.asarray(coords, dtype=float)).copy()
        if c.shape != (self.chart_dim,):
            raise InvalidPointError(
                f"{self.name}: expected {self.chart_dim} coordinates, got {c.shape}"
            )
        if not np.all(np.isfinite(c)):
            raise InvalidPointError(f"{self.name}: non-finite coordinates")
        c = self._validate(c)
        c.setflags(write=False)
        return Point(self, c)

    def tangent(self, base: Point, comps) -> TangentVector:
        self._check_point(base)
        v = np.atleast_1d(np.asarray(comps, dtype=float)).copy()
        if v.shape != (self.chart_dim,):
            raise IncompatibleBaseError(
                f"{self.name}: expected {self.chart_dim} components, got {v.shape}"
            )
        self._validate_tangent(base.coords, v)
        v.setflags(write=False)
        return TangentVector(base, v)

    def _check_point(self, x: Point):
        if x.manifold is not self:
            raise IncompatibleBaseError(
                f"point on {x.manifold.name} used with {self.name}"
            )

    def _validate(self, c: np.ndarray) -> np.ndarray:
        return c

    def _validate_tangent(self, x: np.ndarray, v: np.ndarray):
        pass

    # -- chart geometry (single point) -----------------------------------

    def metric(self, x: Point) -> MetricData:
        raise NotImplementedError

    def christoffel(self, x: Point) -> np.ndarray:
        raise NotImplementedError

    # -- batch geometry ---------------------------------------------------

    def wrap(self, coords: np.ndarray) -> np.ndarray:
        """Reduce chart coordinates to their canonical representatives."""
        return coords

    def project(self, coords: np.ndarray) -> np.ndarray:
        """Coordinates moved back onto an embedded chart (RK4 stages); else unchanged."""
        return coords

    def in_chart(self, coords: np.ndarray) -> np.ndarray:
        """Per row of ``coords``: finite and inside the chart's domain."""
        return np.isfinite(coords).all(axis=-1)

    def tangent_coords(self, coords: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Components ``v`` (n, ..., chart_dim) at ``coords`` in a basis of the
        tangent plane, shape (n, ..., dim): here the chart basis itself."""
        return v

    def tangent_field(self, comps, jacobian):
        """Maps of a field's components and partials, projected onto the tangent
        planes where the stored coordinates are ambient; else unchanged."""
        return comps, jacobian

    def geodesic_batch(self, xs, vs, t):
        raise NotImplementedError

    def compose(self, coords, h):
        raise UnsupportedOperationError(f"{self.name}: no group structure")

    def geodesic_shift(self, v, t):
        raise UnsupportedOperationError(f"{self.name}: no group structure")

    def grid_angles(self, coords) -> list:
        """Per grid axis, the grid angle of each row of ``coords``: here its coordinates."""
        return [coords[:, a] for a in range(self.dim)]

    def grid_point(self, angles) -> np.ndarray:
        """The coordinates of the points with the given per-axis grid angles."""
        return np.stack(angles, axis=-1)

    def log_batch(self, xs, ys):
        raise NotImplementedError

    def distance_batch(self, xs, ys):
        raise NotImplementedError

    def frame_batch(self, xs) -> np.ndarray:
        """Frame components, shape (dim, n, chart_dim)."""
        raise NotParallelizableError(f"{self.name} admits no global smooth frame")

    def dlog_sqrt_det_batch(self, xs):
        """Chart gradient of log(sqrt(det g)), shape like xs."""
        raise NotImplementedError

    def random_points(self, n, rng) -> np.ndarray:
        raise NotImplementedError


class Euclidean(Manifold):
    """Flat R^d with the standard metric."""

    uniform_volume = True

    def __init__(self, d: int, name: str = ""):
        if d < 1:
            raise InvalidPointError("Euclidean dimension must be >= 1")
        self.name = name or f"euclidean:{d}"
        self.dim = d
        self.chart_dim = d
        self.coord_names = tuple(f"x{i + 1}" for i in range(d))
        self.identity = np.zeros(d)
        self.identity.setflags(write=False)

    def metric(self, x):
        self._check_point(x)
        eye = np.eye(self.dim)
        return MetricData(eye, eye.copy(), 1.0)

    def christoffel(self, x):
        self._check_point(x)
        return np.zeros((self.dim,) * 3)

    def geodesic_batch(self, xs, vs, t):
        t = np.asarray(t, dtype=float)
        return self.wrap(xs + (t[..., None] if t.ndim else t) * vs)

    def compose(self, coords, h):
        # the rows broadcast against the elements (nodes (N, 1, d) with
        # products (1, L, d) give (N, L, d)) and come back column-major
        return self.wrap(np.add(coords, h, out=_column_rows(coords, h)))

    def geodesic_shift(self, v, t):
        return t * np.asarray(v)

    def frame_shift(self, k, t):
        return np.asarray(t, dtype=float)[..., None] * np.eye(self.dim)[k - 1]

    def log_batch(self, xs, ys):
        return ys - xs

    def distance_batch(self, xs, ys):
        return np.linalg.norm(ys - xs, axis=-1)

    def frame_batch(self, xs):
        return np.repeat(np.eye(self.dim)[:, None, :], xs.shape[0], axis=1)

    def dlog_sqrt_det_batch(self, xs):
        return np.zeros_like(xs)

    def random_points(self, n, rng):
        return rng.uniform(-3.0, 3.0, size=(n, self.dim))


class FlatTorus(Euclidean):
    """R^d modulo 2*pi in every coordinate: Circle (d=1) or Torus2 (d=2)."""

    injectivity_radius = np.pi
    grid_orders = ("linear", "cubic")

    def __init__(self, d: int, name: str = ""):
        super().__init__(d, name)
        self.coord_names = ("theta",) if d == 1 else tuple(f"theta{i + 1}" for i in range(d))
        self.grid_axes = ("periodic",) * d

    def _validate(self, c):
        return wrap_angle(c)

    def wrap(self, coords):
        return wrap_angle(coords)

    def log_batch(self, xs, ys):
        d = wrap_signed(ys - xs)
        if np.any(np.abs(d) > np.pi - _CUT_TOL):
            raise BeyondInjectivityRadiusError(
                f"{self.name}: target on the cut locus (half-lattice)"
            )
        return d

    def distance_batch(self, xs, ys):
        # |y - x| first keeps the result bitwise symmetric in (x, y)
        d = np.mod(np.abs(ys - xs), TWO_PI)
        d = np.minimum(d, TWO_PI - d)
        return np.linalg.norm(d, axis=-1)

    def random_points(self, n, rng):
        return rng.uniform(0.0, TWO_PI, size=(n, self.dim))


# squares and products in this range are normal, far from overflow and from
# the subnormal squares that round a sum of two squares
_SAFE_LO, _SAFE_HI = 2.0**-960, 2.0**960


class HyperbolicHalfPlane(Manifold):
    """Upper half plane with metric (dx^2 + dy^2)/y^2, as the ``ax+b`` group.

    Geodesics and logs are one closed form each at the identity i = (0, 1),
    where the frame is the standard basis, moved to x by ``compose``; with
    the distance they have no case split near vertical and keep their digits
    at short range.  The distance takes |y - x| as the root of a sum of
    squares, and falls back to ``hypot`` and sqrt(y_x) sqrt(y_y) on the rows
    where the squares or y_x y_y would under- or overflow.
    """

    name = "hyperbolic-h2"
    dim = 2
    chart_dim = 2
    coord_names = ("x", "y")
    identity = np.array([0.0, 1.0])
    identity.setflags(write=False)

    def _validate(self, c):
        if c[1] <= 0.0:
            raise InvalidPointError("hyperbolic-h2: y must be > 0")
        return c

    def in_chart(self, coords):
        return super().in_chart(coords) & (coords[..., 1] > 0.0)

    def metric(self, x):
        self._check_point(x)
        y = x.coords[1]
        g = np.diag([1.0 / y**2, 1.0 / y**2])
        g_inv = np.diag([y**2, y**2])
        return MetricData(g, g_inv, 1.0 / y**2)

    def christoffel(self, x):
        self._check_point(x)
        y = x.coords[1]
        gamma = np.zeros((2, 2, 2))
        gamma[0, 0, 1] = gamma[0, 1, 0] = -1.0 / y
        gamma[1, 0, 0] = 1.0 / y
        gamma[1, 1, 1] = -1.0 / y
        return gamma

    def geodesic_batch(self, xs, vs, t):
        # the frame at x is y_x times the standard basis at the identity
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        return self.compose(xs, self.geodesic_shift(np.atleast_2d(vs) / xs[:, 1:], t))

    def compose(self, coords, h):
        # (x, y) * (a, b) = (x + y a, y b): left-multiplication by (x, y) is
        # the isometry z -> x + y z, which takes (0, 1) to (x, y).  The rows
        # broadcast against the elements (nodes (N, 1, 2) with products
        # (1, L, 2) give (N, L, 2)) and come back column-major, so x and y are
        # contiguous columns, written in place: no temporaries
        h = np.asarray(h)
        out = _column_rows(coords, h)
        x, y = out[..., 0], out[..., 1]
        np.multiply(coords[..., 1], h[..., 0], out=x)
        np.add(coords[..., 0], x, out=x)
        np.multiply(coords[..., 1], h[..., 1], out=y)
        return out

    def geodesic_shift(self, v, t):
        # From i along the unit direction (a, b) = v / |v| for arclength
        # sigma = |v| t: (a sinh sigma, 1) / D with
        # D = ((1 - b) e^sigma + (1 + b) e^-sigma) / 2.  The smaller of 1 -+ b
        # is a^2 / (1 + |b|), so nothing cancels near vertical.
        v = np.asarray(v, dtype=float)
        s = np.hypot(v[..., 0], v[..., 1])
        sigma = s * np.asarray(t, dtype=float)
        with np.errstate(invalid="ignore"):  # v = 0 is sigma = 0, the identity
            a, b = v[..., 0] / s, v[..., 1] / s
        big = 1.0 + np.abs(b)
        e = np.exp(np.where(b < 0.0, -sigma, sigma))
        den = 0.5 * (a * a / big * e + big / e)
        out = np.stack([a * np.sinh(sigma) / den, 1.0 / den], axis=-1)
        return np.where((sigma == 0.0)[..., None], self.identity, out)

    def frame_shift(self, k, t):
        # the one-parameter groups of y d/dx and y d/dy: (t, 1) and (0, e^t)
        t = np.asarray(t, dtype=float)
        pair = (t, np.ones_like(t)) if k == 1 else (np.zeros_like(t), np.exp(t))
        return np.stack(pair, axis=-1)

    def log_batch(self, xs, ys):
        # z = x^-1 y = (p, q); the geodesic from i to z leaves along
        # (2p, p^2 + (q - 1)(q + 1)), of euclidean norm |z - i| |z + i|
        xs = np.atleast_2d(xs)
        ys = np.atleast_2d(ys)
        y = xs[:, 1]
        p = (ys[:, 0] - xs[:, 0]) / y
        q_1 = (ys[:, 1] - y) / y  # q - 1 from the inputs keeps its digits
        q = ys[:, 1] / y
        r = np.hypot(p, q_1)
        d = 2.0 * np.arcsinh(r / (2.0 * np.sqrt(q)))
        k = np.divide(y * d, r * np.hypot(p, q + 1.0), out=np.zeros_like(d), where=r > 0.0)
        return k[:, None] * np.stack([2.0 * p, p * p + q_1 * (q + 1.0)], axis=-1)

    def distance_batch(self, xs, ys):
        # 2 asinh(|y - x| / (2 sqrt(y_x y_y))), bitwise symmetric in (x, y).
        # |y - x| is sqrt(d^2 + h^2) and the root sqrt(y_x y_y) where the
        # squared sum (or an exact 0) and y_x y_y lie in [_SAFE_LO, _SAFE_HI];
        # other rows take hypot(d, h) / (sqrt(y_x) sqrt(y_y)), which neither
        # underflows nor overflows
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        ys = np.atleast_2d(np.asarray(ys, dtype=float))
        d = np.subtract(ys[:, 0], xs[:, 0])
        h = np.subtract(ys[:, 1], xs[:, 1])
        lo, hi = _SAFE_LO, _SAFE_HI
        with np.errstate(all="ignore"):  # the careful rows are redone below
            r = d * d
            r += h * h
            yy = xs[:, 1] * ys[:, 1]
            careful = np.empty(0, dtype=np.intp)
            bounded = lambda a: lo <= a.min() and a.max() <= hi
            if r.size and not (bounded(r) and bounded(yy)):
                safe = (r >= lo) & (r <= hi) | (d == 0.0) & (h == 0.0)
                careful = np.flatnonzero(~(safe & (yy >= lo) & (yy <= hi)))
            np.sqrt(r, out=r)
            np.sqrt(yy, out=yy)
            np.divide(r, yy, out=r)
        if careful.size:
            root = np.sqrt(xs[careful, 1]) * np.sqrt(ys[careful, 1])
            r[careful] = np.hypot(d[careful], h[careful]) / root
        r *= 0.5
        np.arcsinh(r, out=r)
        r *= 2.0
        return r

    def frame_batch(self, xs):
        # y d/dx and y d/dy: globally smooth orthonormal frame
        out = np.zeros((2, xs.shape[0], 2))
        out[0, :, 0] = out[1, :, 1] = xs[:, 1]
        return out

    def dlog_sqrt_det_batch(self, xs):
        out = np.zeros_like(xs)
        out[..., 1] = -2.0 / xs[..., 1]
        return out

    def random_points(self, n, rng):
        pts = np.empty((n, 2))
        pts[:, 0] = rng.uniform(-2.0, 2.0, n)
        pts[:, 1] = np.exp(rng.uniform(-1.0, 1.0, n))
        return pts


class Sphere2(Manifold):
    """Unit sphere in R^3, stored extrinsically.

    Chart quantities (metric, Christoffels, field derivatives) refer to the
    orthographic tangent-plane chart centered at the query point, where the
    metric is the identity and the connection coefficients vanish.  The
    distance is 2 atan2(|y - x|, |y + x|) and the log is that distance times
    the unit tangential part of y - x, so both keep their digits at short
    range and are exactly 0 at y = x.
    """

    name = "sphere2"
    dim = 2
    chart_dim = 3
    coord_names = ("x", "y", "z")
    injectivity_radius = np.pi
    grid_axes = ("polar", "periodic")  # latitude, longitude
    grid_orders = ("linear",)

    def _validate(self, c):
        r = np.linalg.norm(c)
        if abs(r - 1.0) > 1e-12:
            raise InvalidPointError(f"sphere2: |coords| = {r!r}, expected 1")
        return c

    def _validate_tangent(self, x, v):
        if abs(float(np.dot(x, v))) > 1e-10:
            raise IncompatibleBaseError("sphere2: components not tangent to the sphere")

    @staticmethod
    def _renorm(q):
        return q / np.linalg.norm(q, axis=-1, keepdims=True)

    wrap = project = _renorm  # onto the sphere

    def metric(self, x):
        self._check_point(x)
        eye = np.eye(2)
        return MetricData(eye, eye.copy(), 1.0)

    def christoffel(self, x):
        self._check_point(x)
        return np.zeros((2, 2, 2))

    def tangent_basis(self, xs) -> np.ndarray:
        """Deterministic orthonormal tangent pairs, shape (n, 3, 2)."""
        xs = np.atleast_2d(xs)
        n = xs.shape[0]
        ref = np.zeros((n, 3))
        polar = np.abs(xs[:, 2]) > 0.9
        ref[~polar, 2] = 1.0
        ref[polar, 0] = 1.0
        e1 = np.cross(ref, xs)
        e1 = self._renorm(e1)
        e2 = np.cross(xs, e1)
        return np.stack([e1, e2], axis=-1)

    def tangent_coords(self, coords, v):
        return np.einsum("n...j,njk->n...k", v, self.tangent_basis(coords))

    def grid_angles(self, coords):
        return [np.arcsin(np.clip(coords[:, 2], -1.0, 1.0)), np.arctan2(coords[:, 1], coords[:, 0])]

    def grid_point(self, angles):
        lat, lon = angles
        cl = np.cos(lat)
        return np.stack([cl * np.cos(lon), cl * np.sin(lon), np.sin(lat)], axis=-1)

    def tangent_field(self, comps, jacobian):
        # X = a - (a.q) q, and its partials J - q (J^T q + a)^T - (a.q) I
        def tangent_comps(q):
            q = np.atleast_2d(q)
            a = comps(q)
            return a - np.einsum("ni,ni->n", a, q)[:, None] * q

        def tangent_jacobian(q):
            q = np.atleast_2d(q)
            a, jac = comps(q), jacobian(q)
            row = np.einsum("nij,ni->nj", jac, q) + a
            out = jac - q[:, :, None] * row[:, None, :]
            out -= np.einsum("ni,ni->n", a, q)[:, None, None] * np.eye(3)
            return out

        return tangent_comps, tangent_jacobian

    def geodesic_batch(self, xs, vs, t):
        xs = np.atleast_2d(xs)
        vs = np.atleast_2d(vs)
        speed = np.linalg.norm(vs, axis=-1, keepdims=True)
        ang = speed * np.asarray(t, dtype=float)[..., None]
        with np.errstate(invalid="ignore"):  # v = 0 is ang = 0: x itself, not renormed
            out = self._renorm(np.cos(ang) * xs + np.sin(ang) * (vs / speed))
        return np.where(ang == 0.0, xs, out)

    def log_batch(self, xs, ys):
        # d times the unit tangential part of y - x
        xs = np.atleast_2d(xs)
        ys = np.atleast_2d(ys)
        d = self.distance_batch(xs, ys)
        if np.any(d > np.pi - _CUT_TOL):
            raise BeyondInjectivityRadiusError("sphere2: antipodal target")
        w = ys - xs
        w -= np.einsum("ij,ij->i", w, xs)[:, None] * xs
        nrm = np.sqrt(np.einsum("ij,ij->i", w, w))
        return np.divide(d, nrm, out=np.zeros_like(d), where=nrm > 0.0)[:, None] * w

    def distance_batch(self, xs, ys):
        # 2 atan2(|y - x|, |y + x|) keeps its digits at short range, where
        # the arccos of the dot product loses them
        xs = np.atleast_2d(xs)
        ys = np.atleast_2d(ys)
        diff, tot = ys - xs, ys + xs
        return 2.0 * np.arctan2(np.sqrt(np.einsum("ij,ij->i", diff, diff)),
                                np.sqrt(np.einsum("ij,ij->i", tot, tot)))

    def dlog_sqrt_det_batch(self, xs):
        # orthographic chart centered at the evaluation point
        return np.zeros_like(xs)

    def random_points(self, n, rng):
        q = rng.normal(size=(n, 3))
        return self._renorm(q)


# -- registry -----------------------------------------------------------------

_CIRCLE = FlatTorus(1, "circle")
_TORUS2 = FlatTorus(2, "torus2")
_H2 = HyperbolicHalfPlane()
_SPHERE2 = Sphere2()
_EUCLID_CACHE: dict[int, Euclidean] = {}


def euclidean(d: int) -> Euclidean:
    if d not in _EUCLID_CACHE:
        _EUCLID_CACHE[d] = Euclidean(d)
    return _EUCLID_CACHE[d]


def circle() -> FlatTorus:
    return _CIRCLE


def torus2() -> FlatTorus:
    return _TORUS2


def hyperbolic_h2() -> HyperbolicHalfPlane:
    return _H2


def sphere2() -> Sphere2:
    return _SPHERE2


def manifold_from_string(spec: str) -> Manifold:
    """Resolve a config string: euclidean:<d>, circle, torus2, hyperbolic-h2, sphere2."""
    s = spec.strip().lower()
    if s.startswith("euclidean:"):
        return euclidean(int(s.split(":", 1)[1]))
    if s == "euclidean":
        return euclidean(1)
    table = {
        "circle": _CIRCLE,
        "torus2": _TORUS2,
        "hyperbolic-h2": _H2,
        "sphere2": _SPHERE2,
    }
    if s not in table:
        raise ValueError(f"unknown manifold {spec!r}")
    return table[s]


# -- operation-level API -------------------------------------------------------


def metric_at(m: Manifold, x: Point) -> MetricData:
    """Canonical-chart metric at x."""
    return m.metric(x)


def christoffel_at(m: Manifold, x: Point) -> np.ndarray:
    """Levi-Civita coefficients Gamma^a_{bc}, symmetric in (b, c)."""
    return m.christoffel(x)


def geodesic(m: Manifold, x: Point, v: TangentVector, t: float) -> Point:
    """Point gamma_{x,v}(t) on the geodesic with initial velocity v."""
    m._check_point(x)
    if v.base is not x and not np.array_equal(v.base.coords, x.coords):
        raise IncompatibleBaseError("velocity not based at x")
    return m.point(m.geodesic_batch(x.coords[None, :], v.comps[None, :], float(t))[0])


def log_map(m: Manifold, x: Point, y: Point) -> TangentVector:
    """Initial velocity of the shortest geodesic with gamma(0)=x, gamma(1)=y."""
    m._check_point(x)
    m._check_point(y)
    v = m.log_batch(x.coords[None, :], y.coords[None, :])[0]
    return TangentVector(x, v)


def distance(m: Manifold, x: Point, y: Point) -> float:
    """Geodesic distance."""
    m._check_point(x)
    m._check_point(y)
    return float(m.distance_batch(x.coords[None, :], y.coords[None, :])[0])


def frame_at(m: Manifold, x: Point) -> list[TangentVector]:
    """Orthonormal parallelizing frame e_1..e_d at x; NotParallelizableError
    on a chart without one."""
    m._check_point(x)
    comps = m.frame_batch(x.coords[None, :])
    return [TangentVector(x, np.array(comps[k, 0])) for k in range(m.dim)]
