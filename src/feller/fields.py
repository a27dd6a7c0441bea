"""Vector fields and generator data for second-order elliptic operators.

A generator is assembled from ``r >= d`` fields ``A_1..A_r``, a drift policy
for ``A_0`` and an optional bounded potential ``c``:

    L f = 1/2 sum_k A_k(A_k f) + A_0 f + c f.

The drift is ``A_0 = [derived] 1/2 sum_i (div A_i) A_i + B`` (covariant
divergence, and ``B`` a given field): the derived part makes the operator
formally symmetric with respect to the Riemannian volume measure.

Field components and their partials live in the stored coordinates of the
manifold; on the sphere those are ambient tangent 3-vectors and their ambient
partials, and ``Manifold.tangent_coords`` and ``Manifold.tangent_field`` carry
them to and from the tangent planes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DegenerateFieldsError, IncompatibleBaseError, VariantIncompatibleError
from .expressions import compile_expression, compile_partials, compile_scalar
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
        Optional analytic partials ``J[i, j] = d_j A^i`` in the stored
        coordinates as a map ``(n, cd) -> (n, cd, cd)``.  Every built-in
        constructor passes one, ``custom:`` fields their symbolic partials.
        Central finite differences with step ``1e-5 * max(1, |x|)``
        substitute when absent.
    flow:
        Optional exact flow map ``(coords, t) -> coords``, with ``t`` a
        scalar or one time per row; integral curves fall back to the ODE
        integrator when absent.
    divergence_free:
        Asserts that the covariant divergence is identically zero.  The
        built-in constructors set it where this holds exactly (rotations of
        sphere2, frame fields of the flat charts and ``frame:1`` of H2, the
        constant fields of a ``uniform_volume`` chart, the zero field);
        ``divergence_batch`` then returns zeros and a derived drift leaves the
        field out, so a derived drift of such fields is the zero field and
        costs no integration.  Implied by ``is_zero``.
    """

    def __init__(
        self,
        manifold: Manifold,
        comps: Callable[[np.ndarray], np.ndarray],
        jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        flow: Optional[Callable[[np.ndarray, float], np.ndarray]] = None,
        name: str = "field",
        is_zero: bool = False,
        divergence_free: bool = False,
    ):
        self.manifold = manifold
        self._comps = comps
        self.jacobian = jacobian
        self.flow = flow
        self.name = name
        self.is_zero = is_zero
        self.divergence_free = divergence_free or is_zero

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
            step = h[:, None] * np.eye(cd)[j]
            out[:, :, j] = (self.comps(coords + step) - self.comps(coords - step)) / (
                2.0 * h[:, None]
            )
        return out


def divergence_batch(A: VectorField, coords: np.ndarray) -> np.ndarray:
    """Covariant divergence tr(B^T J B) + A . d log sqrt|g|.

    ``B`` is the tangent basis of ``Manifold.tangent_coords``: the identity on
    the intrinsic charts, and on the sphere an orthonormal pair spanning the
    tangent plane, where the volume gradient of the orthographic chart vanishes.
    """
    m = A.manifold
    coords = np.atleast_2d(coords)
    if A.divergence_free:
        return np.zeros(coords.shape[0])
    jb = m.tangent_coords(coords, A.jacobian_batch(coords))  # J B
    # the trace of (J B)^T B, which is that of B^T J B
    div = np.trace(m.tangent_coords(coords, jb.transpose(0, 2, 1)), axis1=1, axis2=2)
    if m.uniform_volume:  # d log sqrt|g| is zero
        return div
    dlog = m.dlog_sqrt_det_batch(coords)
    if np.any(dlog):
        div = div + np.einsum("ni,ni->n", A.comps(coords), dlog)
    return div


def covariant_divergence(A: VectorField, x: Point) -> float:
    """Covariant divergence of A at x."""
    A.manifold._check_point(x)
    return float(divergence_batch(A, x.coords[None, :])[0])


# -- built-in field constructors ----------------------------------------------


def _column(t) -> np.ndarray:
    """A flow time, scalar or one per row, as a column that broadcasts over the rows."""
    return np.reshape(np.asarray(t, dtype=float), (-1, 1))


def zero_field(manifold: Manifold) -> VectorField:
    return VectorField(
        manifold,
        lambda c: np.zeros_like(np.atleast_2d(c)),
        jacobian=lambda c: np.zeros((np.atleast_2d(c).shape[0],) + (manifold.chart_dim,) * 2),
        flow=lambda c, t: np.atleast_2d(c).copy(),
        name="zero",
        is_zero=True,
    )


def constant_field(manifold: Manifold, values: Sequence[float]) -> VectorField:
    if manifold.chart_dim != manifold.dim:
        raise VariantIncompatibleError(f"constant fields are not tangent to {manifold.name}")
    a = np.asarray(values, dtype=float)
    if a.shape != (manifold.chart_dim,):
        raise ValueError(f"expected {manifold.chart_dim} components")
    cd = manifold.chart_dim
    return VectorField(
        manifold,
        lambda c: np.broadcast_to(a, np.atleast_2d(c).shape).copy(),
        jacobian=lambda c: np.zeros((np.atleast_2d(c).shape[0], cd, cd)),
        flow=lambda c, t: manifold.wrap(np.atleast_2d(c) + _column(t) * a),
        name=f"constant:{list(a)}",
        is_zero=bool(np.all(a == 0.0)),
        divergence_free=manifold.uniform_volume,
    )


def frame_field(manifold: Manifold, k: int) -> VectorField:
    """k-th orthonormal frame field (1-based) of a parallelizable built-in.

    The field is left-invariant: its flow is ``compose(x, frame_shift(k, t))``,
    its partials are constant (one unit difference of the affine
    ``frame_batch`` at the identity), and so is its divergence, whose value
    at the identity sets ``divergence_free``.
    """
    if manifold.identity is None:
        raise VariantIncompatibleError(f"{manifold.name} has no global frame")
    if not 1 <= k <= manifold.dim:
        raise ValueError(f"frame index {k} out of range 1..{manifold.dim}")
    comps = lambda c: manifold.frame_batch(np.atleast_2d(c))[k - 1]
    e = manifold.identity
    jac = (comps(e + np.eye(manifold.chart_dim)) - comps(e)).T  # J[i, j] = d_j A^i
    field = VectorField(
        manifold,
        comps,
        jacobian=lambda c: np.broadcast_to(jac, (np.atleast_2d(c).shape[0],) + jac.shape).copy(),
        flow=lambda c, t: manifold.compose(np.atleast_2d(c), manifold.frame_shift(k, t)),
        name=f"frame:{k}",
    )
    field.divergence_free = bool(divergence_batch(field, e[None, :])[0] == 0.0)
    return field


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
        t = _column(t)
        ct, st = np.cos(t), np.sin(t)
        cross = np.cross(axis, c)
        dot = (c @ axis)[:, None]
        out = ct * c + st * cross + ((1.0 - ct) * dot) * axis
        return out / np.linalg.norm(out, axis=-1, keepdims=True)

    return VectorField(
        manifold,
        lambda c: np.cross(axis, np.atleast_2d(c)),
        jacobian=lambda c: np.broadcast_to(cross_mat, (np.atleast_2d(c).shape[0], 3, 3)).copy(),
        flow=flow,
        name=f"rotational:{k}",
        divergence_free=True,
    )


def expression_field(manifold: Manifold, sources: Sequence[str]) -> VectorField:
    """Field with components given by expression strings over the chart.

    The partials are symbolic; on the sphere ``Manifold.tangent_field``
    projects the components and their partials onto the tangent planes.
    """
    names = manifold.coord_names
    if len(sources) != manifold.chart_dim:
        raise ValueError(
            f"{manifold.name} needs {manifold.chart_dim} component expressions"
        )
    comps_fns = [compile_expression(s, names).inner for s in sources]
    # [i][j] = d_j A^i
    partials = [[fn.inner for fn in compile_partials(s, names)] for s in sources]

    # each component and partial is written into one array: a literal broadcasts
    def comps(c):
        c = np.atleast_2d(np.asarray(c, dtype=float))
        out = np.empty(c.shape)
        for i, fn in enumerate(comps_fns):
            out[:, i] = fn(c)
        return out

    def jacobian(c):
        c = np.atleast_2d(np.asarray(c, dtype=float))
        out = np.empty(c.shape + c.shape[-1:])
        for i, row in enumerate(partials):
            for j, fn in enumerate(row):
                out[:, i, j] = fn(c)
        return out

    comps, jacobian = manifold.tangent_field(comps, jacobian)
    return VectorField(manifold, comps, jacobian=jacobian, name="custom:" + ",".join(sources))


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
    """Data of the operator ``1/2 sum A_k A_k + A_0 + c``, with the drift
    ``A_0 = [derived] 1/2 sum_k (div A_k) A_k + B``.

    Parameters
    ----------
    fields:
        The diffusion fields ``A_1..A_r`` (``r >= d``, all on one manifold).
    drift_policy:
        ``"explicit"`` (``[derived] = 0``, so ``A_0 = B``) or ``"derived"``
        (``A_0 = D + B``, D the derived part); any other value is refused.
    drift:
        The field ``B``; the zero field when absent.
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
        if drift_policy not in ("explicit", "derived"):
            raise ValueError(f"unknown drift policy {drift_policy!r}")
        if drift is not None and drift.manifold is not manifold:
            raise IncompatibleBaseError("drift field on a different manifold")
        self.manifold = manifold
        self.fields = list(fields)
        self.drift_policy = drift_policy
        self.derived = drift_policy != "explicit"
        self.drift = drift if drift is not None else zero_field(manifold)
        if isinstance(potential, str):
            potential = compile_scalar(potential, manifold)
        self.potential = potential
        self.feller = feller

    @property
    def r(self) -> int:
        return len(self.fields)

    @property
    def d(self) -> int:
        return self.manifold.dim

    # -- drift ---------------------------------------------------------------

    def divergence_drift(self, coords: np.ndarray) -> np.ndarray:
        """The derived part ``1/2 sum_k (div A_k) A_k`` at the rows of ``coords``,
        whatever the policy; divergence-free fields add nothing."""
        coords = np.atleast_2d(coords)
        acc = np.zeros_like(coords)
        for f in self.fields:
            if not f.divergence_free:
                acc += 0.5 * divergence_batch(f, coords)[:, None] * f.comps(coords)
        return acc

    def drift_comps(self, coords: np.ndarray) -> np.ndarray:
        """``A_0`` at the rows of ``coords``."""
        if not self.derived:
            return self.drift.comps(coords)
        acc = self.divergence_drift(coords)
        return acc if self.drift.is_zero else acc + self.drift.comps(coords)

    def drift_field(self) -> VectorField:
        """The drift A_0 as a flowable field: ``B`` itself when the derived part
        vanishes (explicit, or every field divergence-free), so ``is_zero``
        tells whether ``A_0 = 0``."""
        if not self.derived or all(f.divergence_free for f in self.fields):
            return self.drift
        return VectorField(self.manifold, self.drift_comps, name="drift")

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
        return self.manifold.tangent_coords(coords, amb)

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
    """Drift A_0(x) = 1/2 sum_i (div A_i)(x) A_i(x) + B(x)."""
    if not spec.derived:
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
    b = spec.manifold.tangent_coords(coords, B.comps(coords))
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

    With ``f_grad`` and ``f_hess`` (gradient and Hessian in the stored
    coordinates; ambient on the sphere) the second-order terms are evaluated
    exactly from the field data.
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
    # A(Af) = A^T H A + grad f . (J A) in the stored coordinates: on the
    # sphere too, since a tangent A differentiates along the sphere
    grad = np.asarray(f_grad(c))[0]
    hess = np.asarray(f_hess(c))[0]
    acc = 0.0
    for fld in spec.fields:
        s = fld.comps(c)[0]
        acc += 0.5 * (s @ hess @ s + (fld.jacobian_batch(c)[0] @ s) @ grad)
    return float(acc + spec.drift_comps(c)[0] @ grad)


def _apply_generator_fd(spec, f, c, fx) -> float:
    from .flows import flow_batch, OdeSettings  # local import to avoid a cycle

    m = spec.manifold
    scale = float(_fd_scale(c)[0])
    h2 = _H_FD2 * scale
    ode = OdeSettings(tol=1e-13, max_steps=64)
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
