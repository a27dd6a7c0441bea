"""Integral curves of vector fields and the distance-monotonicity horizon.

One engine backs the flow maps: fixed-step RK4 over a batch of starts, with
step doubling.  ``flow_batch`` is the vectorized hot path used by the Chernoff
branches and the walk samplers.  It takes one time for the batch or one time
per row, and each row converges on its own: every row starts at 1 step, and a
row leaves the doubling loop, keeping its own fine result, at the first pass
whose Richardson estimate meets ``tol * max(1, |t_i|)`` and has fallen at the
fourth-order rate from the doubling before (see ``OdeSettings``).  The first
passes, of 1, 2 and 4 steps, run as one stacked batch that evaluates the slope
at the start once (``_rk4_passes``), over blocks of rows small enough that the
field's temporaries stay small; the rows not kept at 4 steps then double one
pass at a time.  A row's endpoint is therefore the same in any batch, and
the same as alone.  Passes of fewer than 16 steps may leave the chart
(``Manifold.in_chart``) or overflow; such a row is just not kept there.
``_integrate`` also reports each row's step count (the fine pass it kept)
and its Richardson estimate.

Fields that carry an exact flow map (constants, frame fields of the
built-ins, sphere rotations) short-circuit the engine, and the zero field's
rows come back untouched, which keeps the quadratic-exactness checks exact
to rounding; they too take one time per row.  Times may be negative: a flow
for ``-t`` gives the bits of the negated field's flow for ``t``, so one call
can move rows both ways.  A time that is NaN or infinite is refused with
``ValueError`` before any pass.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import StepLimitExceededError
from .fields import VectorField
from .manifolds import Point

_DEFAULT_TOL = 1e-9
_DEFAULT_MAX_STEPS = 10**6


@dataclass(frozen=True)
class OdeSettings:
    """Configuration of the step-doubling RK4 engine.

    Every row starts at 1 step and doubles its step count.  Each doubling
    compares a coarse pass with the fine pass of twice its steps, and a row
    keeps that fine pass once all three hold:

    * its Richardson estimate ``est = max|fine - coarse| / 15`` meets
      ``tol_i = tol * max(1, |t_i|)``;
    * the estimate ``prev`` of the doubling before is at most
      ``max(tol_i, 32 * est)``.  For a fourth-order method the estimate falls
      about 16x per doubling; passes not yet in that regime can understate
      their error.  The first doubling (1 to 2 steps) has no ``prev``, so the
      smallest pass kept is 4 steps;
    * the fine pass is inside the chart (``Manifold.in_chart``: finite, and
      on H2 ``y > 0``).

    The passes of 1, 2 and 4 steps therefore always run.  They run as one
    stacked batch, the longest first, that evaluates the slope at the start
    once: a block of rows kept at 4 steps calls its field 16 times rather
    than 28, with the bits of three separate passes.  A pass of fewer than 16
    steps may leave the chart or overflow without raising; from 16 steps on,
    such a pass raises ``StepLimitExceededError``.  No pass runs more than
    ``max_steps`` steps; a row not kept when the next doubling would exceed it
    raises ``StepLimitExceededError``.  ``max_steps`` must be an integer (not
    a bool) of at least 4.

    ``tol`` bounds the estimate of the pass a row keeps, not that pass's true
    error, which can be larger: over 16 (field, t) cases with 400 starts each
    on the circle, H2 and R^1 the worst was 2.23 ``tol_i`` (``1+x1^2`` on R^1
    at t = 1), then 2.13 (H2 ``0.5*x,-y^3``) and 2.06 (R^1 ``-x1^3``); see
    ``BENCH_26.json``.  ``tol`` must be ``> 0`` and finite; NaN and inf are
    refused.
    """

    tol: float = _DEFAULT_TOL
    max_steps: int = _DEFAULT_MAX_STEPS

    def __post_init__(self):
        if not 0.0 < self.tol < math.inf:
            raise ValueError(f"tol must be > 0 and finite, got {self.tol}")
        if isinstance(self.max_steps, bool) or not isinstance(self.max_steps, numbers.Integral):
            raise ValueError(f"max_steps must be an integer, got {self.max_steps!r}")
        if self.max_steps < 4:
            raise ValueError("max_steps must be >= 4 (a coarse pass and two doublings)")


DEFAULT_ODE = OdeSettings()


# A stacked batch runs over blocks of rows whose stacked state holds at most
# this many coordinates (32 KB of float64).  With larger blocks the field's
# temporaries grew the heap afresh on every RHS call: a walk-rk4 job, whose
# batches reach 5,100 rows, took a median 34,593 minor page faults unblocked,
# 25,325 in blocks of 8,192 and 594 in blocks of 4,096, and ran fastest at
# this size in spite of more RHS calls (BENCH_31.json, "in_process").
_BLOCK_COORDS = 4096


def _rk4_passes(A: VectorField, coords: np.ndarray, t, counts) -> list:
    """One RK4 pass of each step count in ``counts`` from the rows of ``coords``.

    The pass of ``s`` steps moves each row by ``s`` steps of size ``t / s``; ``t``
    is a scalar or one per row.  The passes run as one stacked batch, longest
    first, so the rows still stepping are always a prefix of the stack, and the
    slope at the start, the same for every pass, is evaluated once.  A batch
    of more than ``_BLOCK_COORDS`` stacked coordinates runs in blocks of rows.
    Returns the ``(n, d)`` endpoints of each pass, in the order of ``counts``;
    each row's arithmetic, and so its bits, is that of the pass run alone.

    Stage states and steps go through ``Manifold.project`` (on sphere2 the
    renormalisation), so the components callback sees admissible points only.
    """
    n, d = coords.shape
    steps = sorted(counts, reverse=True)
    t = np.broadcast_to(np.reshape(t, (-1, 1)), (n, 1))
    blocks = max(1, -(-n * len(steps) * d // _BLOCK_COORDS))
    if blocks == 1:
        out = _rk4_stack(A, coords, t, steps)
    else:
        out = np.empty((len(steps), n, d))
        size = -(-n // blocks)
        for i in range(0, n, size):
            out[:, i : i + size] = _rk4_stack(A, coords[i : i + size], t[i : i + size], steps)
    return [out[steps.index(s)] for s in counts]


def _rk4_stack(A: VectorField, coords: np.ndarray, t: np.ndarray, steps: list) -> np.ndarray:
    """The passes of ``steps`` (descending) from ``coords``, one time per row in
    the column ``t``, as one stacked batch: shape ``(len(steps), n, d)``."""
    project = A.manifold.project
    rhs = lambda c: A.comps(project(c))
    n = coords.shape[0]
    h = np.concatenate([t / s for s in steps])
    half, sixth = 0.5 * h, h / 6.0
    c = np.tile(np.asarray(coords, dtype=float), (len(steps), 1))
    k_start = rhs(c[:n])
    live = len(steps)  # passes still stepping: the first ``live`` of the stack
    for j in range(steps[0]):
        while steps[live - 1] <= j:
            live -= 1
        m = live * n
        x = c[:m]
        k1 = np.tile(k_start, (live, 1)) if j == 0 else rhs(x)
        k2 = rhs(x + half[:m] * k1)
        k3 = rhs(x + half[:m] * k2)
        k4 = rhs(x + h[:m] * k3)
        c[:m] = project(x + sixth[:m] * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
    return c.reshape(len(steps), n, c.shape[1])


def _rk4_fixed(A: VectorField, coords: np.ndarray, t, steps: int) -> np.ndarray:
    """``steps`` RK4 steps of size ``t / steps`` from each row; ``t`` a scalar or one per row."""
    return _rk4_passes(A, coords, t, (steps,))[0]


# Passes shorter than this may leave the chart or blow up without raising: the
# row is then not kept at that pass.  From this many steps on, they raise.
_CHECKED_STEPS = 16


def _checked_passes(A: VectorField, coords: np.ndarray, t, counts) -> list:
    m = A.manifold
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        passes = _rk4_passes(A, coords, t, counts)
    for steps, c in zip(counts, passes):
        if steps >= _CHECKED_STEPS and not m.in_chart(c).all():
            raise StepLimitExceededError(f"{m.name}: integral curve left the chart or diverged")
    return passes


def _integrate(A: VectorField, coords: np.ndarray, t, ode: OdeSettings):
    """(endpoints, RK4 steps per row, Richardson error estimate per row) of the flow of A.

    ``t`` is one time for the batch or one per row, finite; rows with
    ``t_i = 0`` stay put and report 0 steps, and a zero field returns its rows
    untouched (no ``wrap``).  An exact flow reports one step per moving row;
    otherwise each row doubles its RK4 step count until its own fine pass is
    kept (see ``OdeSettings`` for the rule).  The passes of 1, 2 and 4 steps
    run as one stacked batch; each later doubling runs the rows still left.
    """
    m = A.manifold
    times = np.broadcast_to(np.asarray(t, dtype=float), coords.shape[:1])
    if not np.isfinite(times).all():
        raise ValueError("t must be finite")
    moving = times != 0.0
    err = np.zeros(coords.shape[0])
    if A.is_zero or not moving.any():
        out = coords.copy() if A.is_zero else m.wrap(coords.copy())
        return out, np.zeros(coords.shape[0], dtype=np.int64), err
    if A.flow is not None:
        out = A.flow(coords, t)
        if not moving.all():  # as a scalar call with t = 0 would
            out[~moving] = coords[~moving]
        if not m.in_chart(out).all():
            raise StepLimitExceededError(f"{m.name}: integral curve left the chart or diverged")
        return m.wrap(out), moving.astype(np.int64), err
    steps = 1
    out = coords.copy()
    taken = np.zeros(coords.shape[0], dtype=np.int64)
    rows = np.flatnonzero(moving)
    start, t_rows = coords[rows], times[rows]
    tol = ode.tol * np.maximum(1.0, np.abs(t_rows))
    prev = np.full(rows.size, np.inf)  # the estimate of the doubling before
    # max_steps >= 4, so the first two doublings always run
    coarse, *first = _checked_passes(A, start, t_rows, (1, 2, 4))
    while True:
        fine = first.pop(0) if first else _checked_passes(A, start, t_rows, (2 * steps,))[0]
        with np.errstate(invalid="ignore"):
            est = np.max(np.abs(fine - coarse), axis=1) / 15.0
        # keep a row once its estimate meets tol and has fallen at the fourth-order
        # rate (about 16x per doubling) from the one before
        done = (est <= tol) & (prev <= np.maximum(tol, 32.0 * est)) & m.in_chart(fine)
        kept = rows[done]
        out[kept], taken[kept], err[kept] = fine[done], 2 * steps, est[done]
        if done.all():
            return m.wrap(out), taken, err
        if 4 * steps > ode.max_steps:
            raise StepLimitExceededError(
                f"flow: no pass kept by {2 * steps} steps (estimate up to "
                f"{est[~done].max():.2e}, tol {tol[~done].min():.2e}); "
                f"doubling would exceed max_steps = {ode.max_steps}"
            )
        left = ~done
        rows, start, t_rows, tol = rows[left], start[left], t_rows[left], tol[left]
        coarse, prev = fine[left], est[left]
        first = [f[left] for f in first]
        steps *= 2


def flow_batch(
    A: VectorField, coords: np.ndarray, t, ode: OdeSettings = DEFAULT_ODE
) -> np.ndarray:
    """Endpoints of the integral curves of A after time t, for a batch of starts.

    ``t`` is a scalar or an ``(n,)`` array, one time per row, of either
    sign; each row's endpoint is the one it would have alone.  ``ode.tol`` bounds each row's
    Richardson estimate, not its true error (see ``OdeSettings``).
    """
    return _integrate(A, coords, t, ode)[0]


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
    caller's responsibility).  ValueError unless ``steps >= 2`` (0 and 1
    sweep nothing) and ``0 < T < inf``.
    """
    if steps < 2:
        raise ValueError(f"steps must be >= 2, got {steps}")
    if not 0.0 < T < math.inf:
        raise ValueError(f"T must be > 0 and finite, got {T}")
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
