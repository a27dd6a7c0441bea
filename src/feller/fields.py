"""Vector fields and generator data for second-order elliptic operators.

A generator is assembled from ``r >= d`` fields ``A_1..A_r``, a drift policy
for ``A_0`` and an optional bounded potential ``c``:

    L f = 1/2 sum_k A_k(A_k f) + A_0 f + c f.

Under the ``derived`` policy the drift is ``A_0 = 1/2 sum_i (div A_i) A_i``
(covariant divergence), which makes the operator formally symmetric with
respect to the Riemannian volume measure.

Field components live in the canonical chart of the manifold; on the sphere
they are ambient tangent 3-vectors and chart derivatives are taken in the
orthographic tangent-plane chart at the evaluation point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import manifolds as mf
from .errors import DegenerateFieldsError, IncompatibleBaseError, VariantIncompatibleError
from .expressions import compile_scalar, compile_expression, coordinate_names
from .manifolds import Manifold, Point, Sphere2, TangentVector

_H_FD = 1e-5     # first-order central differences
_H_FD2 = 1e-4    # second differences along integral curves

_SVD_TOL = 1e-8  # ellipticity spot-check threshold


def _fd_scale(coords: np.ndarray) -> np.ndarray:
    return np.maximum(1.0, np.linalg.norm(coords, axis=-1))


class VectorField:
    """A smooth vector field given by vectorized chart components.

    Parameters
    ----------
    manifold:
        The manifold the field lives on.
    comps:
        Map from coordinate arrays ``(n, chart_dim)`` to component arrays of
        the same shape.
    jacobian:
        Optional analytic chart-basis partials ``J[i, j] = d_j A^i`` as a map
        ``(n, cd) -> (n, cd, cd)``.  Central finite differences with step
        ``1e-5 * max(1, |x|)`` substitute when absent.
    flow:
        Optional exact flow map ``(coords, t) -> coords``; integral curves
        fall back to the ODE integrator when absent.
    declared_bounds:
        Optional ``(c1, c2)`` with ``c1 >= sup |A|_g`` and
        ``c2 >= sup |grad A|_g``, quoted in monotonicity reports.
    """

    def __init__(
        self,
        manifold: Manifold,
        comps: Callable[[np.ndarray], np.ndarray],
        jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        flow: Optional[Callable[[np.ndarray, float], np.ndarray]] = None,
        declared_bounds: Optional[tuple[float, float]] = None,
        name: str = "field",
        is_zero: bool = False,
    ):
        self.manifold = manifold
        self._comps = comps
        self.jacobian = jacobian
        self.flow = flow
        self.declared_bounds = declared_bounds
        self.name = name
        self.is_zero = is_zero

    def comps(self, coords: np.ndarray) -> np.ndarray:
        if self.is_zero:
            return np.zeros_like(np.atleast_2d(coords))
        return self._comps(np.atleast_2d(coords))

    def eval(self, x: Point) -> TangentVector:
        self.manifold._check_point(x)
        return TangentVector(x, self.comps(x.coords[None, :])[0])

    def __call__(self, x: Point) -> TangentVector:
        return self.eval(x)

    def jacobian_batch(self, coords: np.ndarray) -> np.ndarray:
        """Chart partials d_j A^i, shape (n, cd, cd); FD when not analytic."""
        coords = np.atleast_2d(coords)
        if self.is_zero:
            n, cd = coords.shape
            return np.zeros((n, cd, cd))
        if self.jacobian is not None:
            return self.jacobian(coords)
        n, cd = coords.shape
        h = _H_FD * _fd_scale(coords)
        out = np.empty((n, cd, cd))
        for j in range(cd):
            e = np.zeros(cd)
            e[j] = 1.0
            step = h[:, None] * e
            out[:, :, j] = (self.comps(coords + step) - self.comps(coords - step)) / (
                2.0 * h[:, None]
            )
        return out

    def g_norm(self, coords: np.ndarray) -> np.ndarray:
        coords = np.atleast_2d(coords)
        return self.manifold.g_norm_batch(coords, self.comps(coords))


def divergence_batch(A: VectorField, coords: np.ndarray) -> np.ndarray:
    """Covariant divergence sum_j (d_j A^j + A^j d_j log sqrt|g|)."""
    m = A.manifold
    coords = np.atleast_2d(coords)
    if A.is_zero:
        return np.zeros(coords.shape[0])
    if isinstance(m, Sphere2):
        return _sphere_divergence(A, coords)
    jac = A.jacobian_batch(coords)
    div = np.trace(jac, axis1=1, axis2=2)
    dlog = m.dlog_sqrt_det_batch(coords)
    if np.any(dlog):
        div = div + np.einsum("ni,ni->n", A.comps(coords), dlog)
    return div


def _sphere_divergence(A: VectorField, q: np.ndarray) -> np.ndarray:
    # In the orthographic chart centered at q the volume gradient vanishes,
    # so the divergence is the tangential trace of the ambient jacobian.
    if A.jacobian is not None:
        jac = A.jacobian(q)
        return np.trace(jac, axis1=1, axis2=2) - np.einsum("ni,nij,nj->n", q, jac, q)
    basis = A.manifold.tangent_basis(q)  # (n, 3, 2)
    h = _H_FD
    div = np.zeros(q.shape[0])
    for j in range(2):
        e = basis[:, :, j]
        qp = np.sqrt(1.0 - h * h) * q + h * e
        qm = np.sqrt(1.0 - h * h) * q - h * e
        div += np.einsum("ni,ni->n", A.comps(qp) - A.comps(qm), e) / (2.0 * h)
    return div


def covariant_divergence(A: VectorField, x: Point) -> float:
    """Covariant divergence of A at x."""
    A.manifold._check_point(x)
    return float(divergence_batch(A, x.coords[None, :])[0])


# -- built-in field constructors ----------------------------------------------


def zero_field(manifold: Manifold) -> VectorField:
    return VectorField(
        manifold,
        lambda c: np.zeros_like(np.atleast_2d(c)),
        jacobian=lambda c: np.zeros((np.atleast_2d(c).shape[0],) + (manifold.chart_dim,) * 2),
        flow=lambda c, t: np.atleast_2d(c).copy(),
        declared_bounds=(0.0, 0.0),
        name="zero",
        is_zero=True,
    )


def constant_field(manifold: Manifold, values: Sequence[float]) -> VectorField:
    if isinstance(manifold, Sphere2):
        raise VariantIncompatibleError("constant fields are not tangent to sphere2")
    a = np.asarray(values, dtype=float)
    if a.shape != (manifold.chart_dim,):
        raise ValueError(f"expected {manifold.chart_dim} components")
    cd = manifold.chart_dim
    return VectorField(
        manifold,
        lambda c: np.broadcast_to(a, np.atleast_2d(c).shape).copy(),
        jacobian=lambda c: np.zeros((np.atleast_2d(c).shape[0], cd, cd)),
        flow=lambda c, t: manifold.wrap(np.atleast_2d(c) + np.multiply(t, 1.0) * a),
        name=f"constant:{list(a)}",
        is_zero=bool(np.all(a == 0.0)),
    )


def frame_field(manifold: Manifold, k: int) -> VectorField:
    """k-th orthonormal frame field (1-based) of a parallelizable built-in."""
    if not manifold.parallelizable:
        raise VariantIncompatibleError(f"{manifold.name} has no global frame")
    if not 1 <= k <= manifold.dim:
        raise ValueError(f"frame index {k} out of range 1..{manifold.dim}")
    if isinstance(manifold, mf.HyperbolicHalfPlane):
        if k == 1:
            def flow(c, t):
                c = np.atleast_2d(c)
                out = c.copy()
                out[:, 0] = c[:, 0] + np.multiply(t, c[:, 1])
                return out

            return VectorField(
                manifold,
                lambda c: np.stack(
                    [np.atleast_2d(c)[:, 1], np.zeros(np.atleast_2d(c).shape[0])], axis=-1
                ),
                jacobian=lambda c: np.broadcast_to(
                    np.array([[0.0, 1.0], [0.0, 0.0]]), (np.atleast_2d(c).shape[0], 2, 2)
                ).copy(),
                flow=flow,
                declared_bounds=(1.0, 1.0),
                name="frame:1",
            )

        def flow(c, t):
            c = np.atleast_2d(c)
            out = c.copy()
            out[:, 1] = c[:, 1] * np.exp(np.multiply(t, 1.0))
            return out

        return VectorField(
            manifold,
            lambda c: np.stack(
                [np.zeros(np.atleast_2d(c).shape[0]), np.atleast_2d(c)[:, 1]], axis=-1
            ),
            jacobian=lambda c: np.broadcast_to(
                np.array([[0.0, 0.0], [0.0, 1.0]]), (np.atleast_2d(c).shape[0], 2, 2)
            ).copy(),
            flow=flow,
            declared_bounds=(1.0, 1.0),
            name="frame:2",
        )
    basis = np.zeros(manifold.chart_dim)
    basis[k - 1] = 1.0
    f = constant_field(manifold, basis)
    f.name = f"frame:{k}"
    f.declared_bounds = (1.0, 0.0)
    return f


def rotational_field(manifold: Manifold, k: int) -> VectorField:
    """Killing field of rotation about the k-th axis (1-based) on sphere2."""
    if not isinstance(manifold, Sphere2):
        raise VariantIncompatibleError("rotational fields live on sphere2")
    if not 1 <= k <= 3:
        raise ValueError("rotational index must be 1, 2 or 3")
    axis = np.zeros(3)
    axis[k - 1] = 1.0
    cross_mat = np.array(
        [
            [0.0, -axis[2], axis[1]],
            [axis[2], 0.0, -axis[0]],
            [-axis[1], axis[0], 0.0],
        ]
    )

    def flow(c, t):
        # Rodrigues rotation by angle t about the axis
        c = np.atleast_2d(c)
        ct, st = np.cos(t), np.sin(t)
        cross = np.cross(axis, c)
        dot = c @ axis
        out = ct * c + np.atleast_1d(st)[..., None] * cross + np.atleast_1d(
            (1.0 - ct) * dot
        )[..., None] * axis
        return out / np.linalg.norm(out, axis=-1, keepdims=True)

    return VectorField(
        manifold,
        lambda c: np.cross(axis, np.atleast_2d(c)),
        jacobian=lambda c: np.broadcast_to(cross_mat, (np.atleast_2d(c).shape[0], 3, 3)).copy(),
        flow=flow,
        declared_bounds=(1.0, 1.0),
        name=f"rotational:{k}",
    )


def expression_field(manifold: Manifold, sources: Sequence[str]) -> VectorField:
    """Field with components given by expression strings over the chart."""
    names = coordinate_names(manifold)
    if len(sources) != manifold.chart_dim:
        raise ValueError(
            f"{manifold.name} needs {manifold.chart_dim} component expressions"
        )
    comps_fns = [compile_expression(s, names) for s in sources]

    if isinstance(manifold, Sphere2):

        def comps(c):
            c = np.atleast_2d(c)
            amb = np.stack([fn(c) for fn in comps_fns], axis=-1)
            return amb - np.einsum("ni,ni->n", amb, c)[:, None] * c

    else:

        def comps(c):
            c = np.atleast_2d(c)
            return np.stack([fn(c) for fn in comps_fns], axis=-1)

    return VectorField(manifold, comps, name="custom:" + ",".join(sources))


def field_from_string(manifold: Manifold, spec: str) -> VectorField:
    """Resolve a field constructor string.

    Formats: ``constant:[a,b,..]``, ``frame:<k>``, ``rotational:<k>``,
    ``custom:<expr>[,<expr>..]``, ``zero``.
    """
    s = spec.strip()
    if s == "zero":
        return zero_field(manifold)
    kind, _, arg = s.partition(":")
    kind = kind.strip().lower()
    if kind == "constant":
        vals = [float(v) for v in arg.strip().strip("[]").split(",")]
        return constant_field(manifold, vals)
    if kind == "frame":
        return frame_field(manifold, int(arg))
    if kind == "rotational":
        return rotational_field(manifold, int(arg))
    if kind == "custom":
        return expression_field(manifold, [p.strip() for p in arg.split(",")])
    raise ValueError(f"unknown field constructor {spec!r}")


# -- generator spec -------------------------------------------------------------


@dataclass(frozen=True)
class DominanceReport:
    ok: bool
    c_estimate: float


class GeneratorSpec:
    """Data of the operator ``1/2 sum A_k A_k + A_0 + c``.

    Parameters
    ----------
    fields:
        The diffusion fields ``A_1..A_r`` (``r >= d``, all on one manifold).
    drift_policy:
        ``"explicit"`` (``drift`` is ``A_0``, default zero),
        ``"derived"`` (``A_0 = 1/2 sum (div A_i) A_i``), or
        ``"derived_plus"`` (derived drift plus the field ``drift``).
    potential:
        Optional scalar map (callable on coordinate arrays, or an expression
        string).  ``feller=True`` asserts ``c <= 0`` at sampled points.
    """

    def __init__(
        self,
        fields: Sequence[VectorField],
        drift_policy: str = "explicit",
        drift: Optional[VectorField] = None,
        potential=None,
        feller: bool = True,
    ):
        if not fields:
            raise ValueError("need at least one diffusion field")
        manifold = fields[0].manifold
        for f in fields:
            if f.manifold is not manifold:
                raise IncompatibleBaseError("all fields must share one manifold")
        if len(fields) < manifold.dim:
            raise DegenerateFieldsError(
                f"r = {len(fields)} < d = {manifold.dim}: cannot be elliptic"
            )
        if drift_policy not in ("explicit", "derived", "derived_plus"):
            raise ValueError(f"unknown drift policy {drift_policy!r}")
        if drift_policy == "derived_plus" and drift is None:
            raise ValueError("derived_plus requires the extra field B")
        if drift is not None and drift.manifold is not manifold:
            raise IncompatibleBaseError("drift field on a different manifold")
        self.manifold = manifold
        self.fields = list(fields)
        self.drift_policy = drift_policy
        self.drift = drift if drift is not None else (
            zero_field(manifold) if drift_policy == "explicit" else None
        )
        if isinstance(potential, str):
            potential = compile_scalar(potential, manifold)
        self.potential = potential
        self.feller = feller
        self._drift_field_cache: Optional[VectorField] = None

    @property
    def r(self) -> int:
        return len(self.fields)

    @property
    def d(self) -> int:
        return self.manifold.dim

    # -- drift ---------------------------------------------------------------

    def drift_comps(self, coords: np.ndarray) -> np.ndarray:
        coords = np.atleast_2d(coords)
        if self.drift_policy == "explicit":
            return self.drift.comps(coords)
        acc = np.zeros_like(coords)
        for f in self.fields:
            acc += 0.5 * divergence_batch(f, coords)[:, None] * f.comps(coords)
        if self.drift_policy == "derived_plus":
            acc = acc + self.drift.comps(coords)
        return acc

    def drift_field(self) -> VectorField:
        """The drift A_0 as a vector field (flowable)."""
        if self.drift_policy == "explicit":
            return self.drift
        if self._drift_field_cache is None:
            self._drift_field_cache = VectorField(
                self.manifold, self.drift_comps, name=f"drift[{self.drift_policy}]"
            )
        return self._drift_field_cache

    # -- potential -------------------------------------------------------------

    def potential_values(self, coords: np.ndarray) -> np.ndarray:
        coords = np.atleast_2d(coords)
        if self.potential is None:
            return np.zeros(coords.shape[0])
        return np.asarray(self.potential(coords), dtype=float)

    # -- ellipticity ------------------------------------------------------------

    def component_matrix(self, coords: np.ndarray) -> np.ndarray:
        """Chart components of A_1..A_r, shape (n, r, d)."""
        coords = np.atleast_2d(coords)
        amb = np.stack([f.comps(coords) for f in self.fields], axis=1)
        if isinstance(self.manifold, Sphere2):
            basis = self.manifold.tangent_basis(coords)  # (n, 3, 2)
            return np.einsum("nrj,njk->nrk", amb, basis)
        return amb

    def ellipticity_margin(self, coords: np.ndarray) -> float:
        """Smallest singular value of the component matrix over the sample."""
        sig = self.component_matrix(coords)
        return float(np.linalg.svd(sig, compute_uv=False)[:, -1].min())

    def validate(self, sample_coords: np.ndarray) -> None:
        """Spot-check ellipticity (and the sign of c when flagged feller)."""
        margin = self.ellipticity_margin(sample_coords)
        if margin <= _SVD_TOL:
            raise DegenerateFieldsError(
                f"fields do not span the tangent space: margin {margin:.2e}"
            )
        if self.potential is not None and self.feller:
            c = self.potential_values(sample_coords)
            if np.any(c > 0.0):
                raise ValueError(
                    "potential flagged feller but c > 0 at a sampled point"
                )


def derive_drift(spec: GeneratorSpec, x: Point) -> TangentVector:
    """Drift A_0(x) = 1/2 sum_i (div A_i)(x) A_i(x) (+ B(x) when present)."""
    if spec.drift_policy == "explicit":
        raise ValueError("derive_drift requires a derived drift policy")
    spec.manifold._check_point(x)
    return TangentVector(x, spec.drift_comps(x.coords[None, :])[0])


def check_dominance(
    spec: GeneratorSpec, B: VectorField, sample: Sequence[Point]
) -> DominanceReport:
    """Smallest c with (B.xi)^2 <= c sum_i (A_i.xi)^2 over the sample.

    For each sampled x the extremal covector gives exactly
    ``B^T G(x)^{-1} B`` with ``G = sum_i A_i A_i^T``; the reported estimate is
    the maximum over the sample.
    """
    coords = np.stack([p.coords for p in sample])
    sig = spec.component_matrix(coords)  # (n, r, d)
    if np.linalg.svd(sig, compute_uv=False)[:, -1].min() <= _SVD_TOL:
        raise DegenerateFieldsError("fields degenerate at a sampled point")
    if isinstance(spec.manifold, Sphere2):
        basis = spec.manifold.tangent_basis(coords)
        b = np.einsum("nj,njk->nk", B.comps(coords), basis)
    else:
        b = B.comps(coords)
    gram = np.einsum("nri,nrj->nij", sig, sig)
    ratio = np.einsum("ni,nij,nj->n", b, np.linalg.inv(gram), b)
    c_est = float(ratio.max())
    return DominanceReport(ok=bool(np.isfinite(c_est)), c_estimate=c_est)


def apply_generator(
    spec: GeneratorSpec,
    f: Callable[[np.ndarray], np.ndarray],
    x: Point,
    f_grad=None,
    f_hess=None,
) -> float:
    """(L_0 f)(x) + c(x) f(x).

    With ``f_grad`` and ``f_hess`` (chart gradient/Hessian; ambient on the
    sphere) the second-order terms are evaluated exactly from the field data.
    Otherwise nested central differences along the integral curves of the
    fields are used: ``A_k(A_k f)(x) = d^2/dt^2 f(gamma_{x,A_k}(t))|_0``.
    """
    spec.manifold._check_point(x)
    c = x.coords[None, :]
    fx = float(np.asarray(f(c))[0])
    pot = float(spec.potential_values(c)[0]) * fx
    if f_grad is not None and f_hess is not None:
        return _apply_generator_exact(spec, c, f_grad, f_hess) + pot
    return _apply_generator_fd(spec, f, c, fx) + pot


def _apply_generator_exact(spec, c, f_grad, f_hess) -> float:
    m = spec.manifold
    grad = np.asarray(f_grad(c))[0]
    hess = np.asarray(f_hess(c))[0]
    if isinstance(m, Sphere2):
        q = c[0]
        basis = m.tangent_basis(c)[0]  # (3, 2)
        grad_c = basis.T @ grad
        hess_c = basis.T @ hess @ basis - np.eye(2) * float(grad @ q)
        sig = np.einsum("rj,jk->rk", np.stack([f.comps(c)[0] for f in spec.fields]), basis)
        jacs = [basis.T @ f.jacobian_batch(c)[0] @ basis for f in spec.fields]
        drift_c = basis.T @ spec.drift_comps(c)[0]
    else:
        grad_c, hess_c = grad, hess
        sig = np.stack([f.comps(c)[0] for f in spec.fields])
        jacs = [f.jacobian_batch(c)[0] for f in spec.fields]
        drift_c = spec.drift_comps(c)[0]
    acc = 0.0
    for k in range(spec.r):
        s = sig[k]
        acc += 0.5 * (s @ hess_c @ s + (jacs[k] @ s) @ grad_c)
    return float(acc + drift_c @ grad_c)


def _apply_generator_fd(spec, f, c, fx) -> float:
    from .flows import flow_batch, OdeSettings  # local import to avoid a cycle

    m = spec.manifold
    scale = float(_fd_scale(c)[0])
    h2 = _H_FD2 * scale
    ode = OdeSettings(h_init=h2, tol=1e-13, max_steps=64)
    acc = 0.0
    for fld in spec.fields:
        fp = float(np.asarray(f(flow_batch(fld, c, h2, ode)))[0])
        fm = float(np.asarray(f(flow_batch(fld, c, -h2, ode)))[0])
        acc += 0.5 * (fp - 2.0 * fx + fm) / (h2 * h2)
    h1 = _H_FD * scale
    drift = spec.drift_field()
    if drift.is_zero:
        return acc
    dp = float(np.asarray(f(flow_batch(drift, c, h1, ode)))[0])
    dm = float(np.asarray(f(flow_batch(drift, c, -h1, ode)))[0])
    return acc + (dp - dm) / (2.0 * h1)
