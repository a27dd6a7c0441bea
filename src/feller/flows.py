"""Integral curves of vector fields and the distance-monotonicity horizon.

One engine backs the flow maps: fixed-step RK4 over a batch of starts, with
the step count doubled until a Richardson comparison meets the tolerance.
``flow_batch`` is the vectorized hot path used by the Chernoff branches and
the walk samplers; ``integral_curve`` runs the same engine on a single start
and reports its step count and error estimate.

Fields that carry an exact flow map (constants, frame fields of the
built-ins, sphere rotations) short-circuit the engine, which keeps the
quadratic-exactness checks exact to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import StepLimitExceededError
from .fields import VectorField
from .manifolds import Manifold, Point, Sphere2

_DEFAULT_TOL = 1e-9
_DEFAULT_MAX_STEPS = 10**6


@dataclass(frozen=True)
class OdeSettings:
    """Configuration of the step-doubling RK4 engine.

    ``h_init`` sets the first step count ``ceil(t / h_init)`` and defaults to
    ``t / 16`` at call time when ``None``.
    """

    h_init: Optional[float] = None
    tol: float = _DEFAULT_TOL
    max_steps: int = _DEFAULT_MAX_STEPS

    def __post_init__(self):
        if self.tol <= 0.0:
            raise ValueError("tol must be > 0")
        if self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")


DEFAULT_ODE = OdeSettings()


@dataclass(frozen=True)
class FlowResult:
    endpoint: Point
    steps_taken: int
    est_error: float


def negate(A: VectorField) -> VectorField:
    """The field -A (flows run backwards)."""
    flow = None
    if A.flow is not None:
        flow = lambda c, t: A.flow(c, -t)
    return VectorField(
        A.manifold,
        lambda c: -A._comps(np.atleast_2d(c)),
        jacobian=(lambda c: -A.jacobian(np.atleast_2d(c))) if A.jacobian else None,
        flow=flow,
        declared_bounds=A.declared_bounds,
        name=f"-({A.name})",
        is_zero=A.is_zero,
    )


def _rhs(A: VectorField, m: Manifold):
    if isinstance(m, Sphere2):
        # keep stage states admissible for the components callback
        def rhs(c):
            q = c / np.linalg.norm(c, axis=-1, keepdims=True)
            return A.comps(q)

        return rhs
    return A.comps


def _post(m: Manifold, c: np.ndarray) -> np.ndarray:
    if isinstance(m, Sphere2):
        return c / np.linalg.norm(c, axis=-1, keepdims=True)
    return m.wrap(c)


def _check_domain(m: Manifold, c: np.ndarray):
    if m.name == "hyperbolic-h2" and np.any(c[..., 1] <= 0.0):
        raise StepLimitExceededError(
            "hyperbolic-h2: integral curve left the chart domain y > 0"
        )
    if not np.all(np.isfinite(c)):
        raise StepLimitExceededError("integral curve diverged (non-finite state)")


def _rk4_fixed(A: VectorField, coords: np.ndarray, t: float, steps: int) -> np.ndarray:
    rhs = _rhs(A, A.manifold)
    h = t / steps
    c = coords.astype(float).copy()
    for _ in range(steps):
        k1 = rhs(c)
        k2 = rhs(c + 0.5 * h * k1)
        k3 = rhs(c + 0.5 * h * k2)
        k4 = rhs(c + h * k3)
        c = c + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if isinstance(A.manifold, Sphere2):
            c = c / np.linalg.norm(c, axis=-1, keepdims=True)
    _check_domain(A.manifold, c)
    return c


def _integrate(A: VectorField, coords: np.ndarray, t: float, ode: OdeSettings):
    """(endpoints, RK4 steps, Richardson error estimate) of the flow of A after time t.

    Uses the exact flow when the field has one (reported as one step);
    otherwise fixed-step RK4 with step doubling until the Richardson error
    estimate meets ``ode.tol``.
    """
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    if t == 0.0 or A.is_zero:
        return _post(A.manifold, coords.copy()), 0, 0.0
    if A.flow is not None:
        out = A.flow(coords, t)
        _check_domain(A.manifold, out)
        return _post(A.manifold, out), 1, 0.0
    h0 = ode.h_init if ode.h_init is not None else abs(t) / 16.0
    steps = max(1, min(int(math.ceil(abs(t) / max(h0, 1e-300))), ode.max_steps))
    tol = ode.tol * max(1.0, abs(t))
    coarse = _rk4_fixed(A, coords, t, steps)
    while True:
        fine = _rk4_fixed(A, coords, t, 2 * steps)
        err = float(np.max(np.abs(fine - coarse))) / 15.0
        if err <= tol or 2 * steps >= ode.max_steps:
            if err > tol:
                raise StepLimitExceededError(
                    f"flow: error {err:.2e} > tol {tol:.2e} at max_steps"
                )
            return _post(A.manifold, fine), 2 * steps, err
        coarse = fine
        steps *= 2


def flow_batch(
    A: VectorField, coords: np.ndarray, t: float, ode: OdeSettings = DEFAULT_ODE
) -> np.ndarray:
    """Endpoints of the integral curves of A after time t, for a batch of starts."""
    return _integrate(A, coords, t, ode)[0]


def integral_curve(
    A: VectorField, x: Point, t: float, settings: OdeSettings = DEFAULT_ODE
) -> FlowResult:
    """Endpoint of the maximal integral curve of A started at x, after time t."""
    m = A.manifold
    m._check_point(x)
    if t < 0.0:
        raise ValueError("integral_curve expects t >= 0")
    c, steps, err = _integrate(A, x.coords, t, settings)
    return FlowResult(m.point(c[0]), steps, err)


# -- distance monotonicity -------------------------------------------------------


def monotone_distance_horizon(M2: float, d: int) -> float:
    """Supremum of the horizon T < ln(1 + 1/d) / (M2 sqrt(d)).

    Flows of a field whose chart-level derivative bound is M2 have
    non-decreasing distance from their start on [0, T].
    """
    if M2 <= 0.0:
        raise ValueError("M2 must be > 0")
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return math.log(1.0 + 1.0 / d) / (M2 * math.sqrt(d))


@dataclass(frozen=True)
class MonotonicityReport:
    violations: int
    worst_decrease: float
    horizon: float          # the T actually swept
    stated_horizon: Optional[float]  # ln(1+1/d)/(M2 sqrt d) when m2 was supplied
    within_horizon: Optional[bool]
    starts: int
    steps: int


def verify_distance_monotonicity(
    A: VectorField,
    starts: Sequence[Point],
    T: float,
    steps: int,
    m2: Optional[float] = None,
    ode: Optional[OdeSettings] = None,
    tol: float = 1e-9,
) -> MonotonicityReport:
    """Sweep t -> d(gamma(0), gamma(t)) on [0, T] and count strict decreases.

    ``m2`` is the caller-supplied chart-level derivative bound; when given,
    the implied horizon is recorded in the report (respecting it is the
    caller's responsibility).
    """
    coords = np.stack([p.coords for p in starts])
    m = A.manifold
    ode = ode or OdeSettings(tol=1e-12)
    ts = np.linspace(0.0, T, steps)
    current = coords.copy()
    dists = np.zeros((steps, coords.shape[0]))
    for i in range(1, steps):
        current = flow_batch(A, current, ts[i] - ts[i - 1], ode)
        dists[i] = m.distance_batch(coords, current)
    drops = dists[:-1] - dists[1:]
    violations = int(np.sum(drops > tol))
    worst = float(max(0.0, drops.max())) if drops.size else 0.0
    stated = monotone_distance_horizon(m2, m.dim) if m2 is not None else None
    return MonotonicityReport(
        violations=violations,
        worst_decrease=worst,
        horizon=T,
        stated_horizon=stated,
        within_horizon=(T <= stated) if stated is not None else None,
        starts=coords.shape[0],
        steps=steps,
    )
