"""Chernoff shift-operator families S(t) and the iterated composition S(t/n)^n.

The general family averages function values along integral curves of the
generator's fields,

    (S(t)f)(x) = 1/(4r) sum_j [ f(gamma_{x,A_j}(sqrt(2rt)))
                              + f(gamma_{x,-A_j}(sqrt(2rt))) ]
               + 1/2 f(gamma_{x,A_0}(2t)) + t c(x) f(x),

and satisfies S(t)f = f + t (L f) + o(t), so S(t/n)^n converges to the
semigroup generated by L.  Variants:

* ``GENERAL`` - the family above;
* ``DRIFTLESS_CORRECTED`` - drift-free form with weights 1/(2r) and flow
  time sqrt(rt): consistent with the same generator;
* ``DRIFTLESS_LITERAL`` - drift-free form with weights 1/(2r) but flow time
  sqrt(2rt).  Its first-order expansion is f + 2t L f, i.e. it approximates
  the semigroup at double speed; it is provided so the discrepancy can be
  measured (see ``consistency_defect``), not silently repaired;
* ``HEAT_GEODESIC`` - geodesic steps with initial velocities
  +-sqrt(d) e_k for time sqrt(t), weights 1/(2d), realizing half the
  Laplace-Beltrami operator on parallelizable manifolds.

``branch_moves`` is the one description of a step: the branch table of
S(.) in draw order (for ``GENERAL`` the drift first, then +A_1, -A_1, ..,
+A_r, -A_r), each branch with its exact weight and a move evaluated at the
step time s.  Three evaluation strategies for S(t/n)^n f read it at s = t/n:
exact tree recursion (``iterate_tree``, the oracle), semi-Lagrangian grid
sweeps (``iterate_grid``) and Monte-Carlo path sampling (``iterate_mc``).
``sample_steps`` is the one sample loop, shared by ``iterate_mc`` and the
random walks of ``walks`` (which read the ``GENERAL`` table at s = 1/n).
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence

import numpy as np

from ._kernels import step_uniforms, substream
from .errors import BudgetExceededError, VariantIncompatibleError
from .fields import GeneratorSpec
from .flows import DEFAULT_ODE, OdeSettings, flow_batch, negate
from .grids import GridFunction
from .manifolds import Point

DEFAULT_TREE_BUDGET = 10**7


class ChernoffVariant(enum.Enum):
    GENERAL = "general"
    DRIFTLESS_CORRECTED = "driftless-corrected"
    DRIFTLESS_LITERAL = "driftless-literal"
    HEAT_GEODESIC = "heat-geodesic"

    @classmethod
    def from_string(cls, s: str) -> "ChernoffVariant":
        key = s.strip().lower().replace("_", "-")
        for v in cls:
            if v.value == key:
                return v
        raise ValueError(f"unknown Chernoff variant {s!r}")


@dataclass(frozen=True)
class BranchSet:
    """Shifted evaluation points and weights for one application of S(t)."""

    points: list
    weights: np.ndarray
    potential_term: float


def _require_driftless(spec: GeneratorSpec, variant: ChernoffVariant):
    if spec.potential is not None:
        raise VariantIncompatibleError(f"{variant.value} requires c = 0")
    if not (spec.drift_policy == "explicit" and spec.drift.is_zero):
        raise VariantIncompatibleError(f"{variant.value} requires A_0 = 0")


def check_steps(t: float, n: int) -> None:
    """Refuse a step count below 1 and a negative time (every strategy and walk)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if t < 0.0:
        raise ValueError("t must be >= 0")


@dataclass(frozen=True)
class Branch:
    """One branch of S(s): exact weight, label and move.

    ``move(coords, s)`` sends a coordinate batch to its shifted batch for the
    step time ``s``; it is the one place that turns ``s`` into a flow time
    (``2s``, ``sqrt(2rs)``, ``sqrt(rs)``) or a geodesic time (``sqrt(s)``).
    """

    weight: Fraction
    label: str
    move: Callable[[np.ndarray, float], np.ndarray]


def branch_moves(
    spec: GeneratorSpec,
    variant: ChernoffVariant,
    ode: OdeSettings = DEFAULT_ODE,
) -> list[Branch]:
    """The branch table of S(.): every branch in draw order with its exact weight.

    ``GENERAL`` lists the drift first, then ``+A_1, -A_1, .., +A_r, -A_r``;
    the driftless variants list ``+-A_j``; ``HEAT_GEODESIC`` lists the
    geodesics with initial velocities ``+-sqrt(d) e_k``.
    """
    m = spec.manifold
    branches: list[Branch] = []

    def flow_move(field, tau):
        return lambda coords, s: flow_batch(field, coords, tau(s), ode)

    def field_pairs(weight, tau, tau_label):
        for j, f in enumerate(spec.fields, start=1):
            branches.append(Branch(weight, f"flow(+A_{j}, {tau_label})", flow_move(f, tau)))
            branches.append(
                Branch(weight, f"flow(-A_{j}, {tau_label})", flow_move(negate(f), tau))
            )

    if variant is ChernoffVariant.GENERAL:
        r = spec.r
        drift = flow_move(spec.drift_field(), lambda s: 2.0 * s)
        branches.append(Branch(Fraction(1, 2), "flow(A_0, 2s)", drift))
        field_pairs(Fraction(1, 4 * r), lambda s: math.sqrt(2.0 * r * s), "sqrt(2rs)")
    elif variant in (ChernoffVariant.DRIFTLESS_CORRECTED, ChernoffVariant.DRIFTLESS_LITERAL):
        _require_driftless(spec, variant)
        r = spec.r
        if variant is ChernoffVariant.DRIFTLESS_CORRECTED:
            field_pairs(Fraction(1, 2 * r), lambda s: math.sqrt(r * s), "sqrt(rs)")
        else:
            field_pairs(Fraction(1, 2 * r), lambda s: math.sqrt(2.0 * r * s), "sqrt(2rs)")
    elif variant is ChernoffVariant.HEAT_GEODESIC:
        if spec.potential is not None:
            raise VariantIncompatibleError("heat-geodesic requires c = 0")
        if not m.parallelizable:
            raise VariantIncompatibleError(
                f"heat-geodesic requires a parallelizable manifold, not {m.name}"
            )
        d = m.dim
        root_d = math.sqrt(d)

        def geo_move(k, sign):
            def move(coords, s):
                frame = m.frame_batch(np.atleast_2d(coords))
                out = m.geodesic_batch(
                    np.atleast_2d(coords), sign * root_d * frame[k], math.sqrt(s)
                )
                return m.wrap(out)

            return move

        for k in range(d):
            for sign, mark in ((+1.0, "+"), (-1.0, "-")):
                branches.append(
                    Branch(
                        Fraction(1, 2 * d),
                        f"geodesic({mark}sqrt(d) e_{k + 1}, sqrt(s))",
                        geo_move(k, sign),
                    )
                )
    else:  # pragma: no cover
        raise ValueError(variant)

    assert sum(b.weight for b in branches) == 1
    return branches


def sample_steps(
    branches: Sequence[Branch],
    s: float,
    coords: np.ndarray,
    streams: np.ndarray,
    steps: int,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The branch chain: ``steps`` draws moving the rows of ``coords`` in place.

    Step m draws ``u = step_uniforms(streams, m)`` per row and takes the first
    branch whose cumulative weight exceeds u.  Yields each step's branch
    indices and ``coords`` as they are before the move (the live array: copy
    what must be kept); the move runs when the caller asks for the next step.
    """
    cumw = np.cumsum([float(b.weight) for b in branches])
    cumw[-1] = 1.0
    for step in range(steps):
        drawn = np.searchsorted(cumw, step_uniforms(streams, step), side="right")
        yield drawn, coords
        for b, br in enumerate(branches):
            mask = drawn == b
            if np.any(mask):
                coords[mask] = br.move(coords[mask], s)


def branch_set(
    spec: GeneratorSpec,
    variant: ChernoffVariant,
    t: float,
    x: Point,
    ode: OdeSettings = DEFAULT_ODE,
) -> BranchSet:
    """Shifted points, weights and potential term of S(t) at x."""
    spec.manifold._check_point(x)
    check_steps(t, 1)
    branches = branch_moves(spec, variant, ode)
    c = x.coords[None, :]
    pts = [spec.manifold.point(spec.manifold.wrap(br.move(c, t)[0])) for br in branches]
    pot = 0.0
    if variant is ChernoffVariant.GENERAL and spec.potential is not None:
        pot = t * float(spec.potential_values(c)[0])
    weights = np.array([float(br.weight) for br in branches])
    return BranchSet(points=pts, weights=weights, potential_term=pot)


def apply_S_batch(
    spec: GeneratorSpec,
    variant: ChernoffVariant,
    t: float,
    f: Callable[[np.ndarray], np.ndarray],
    coords: np.ndarray,
    ode: OdeSettings = DEFAULT_ODE,
) -> np.ndarray:
    """(S(t)f) evaluated at a batch of coordinate rows."""
    check_steps(t, 1)
    coords = np.atleast_2d(coords)
    acc = np.zeros(coords.shape[0])
    for br in branch_moves(spec, variant, ode):
        acc += float(br.weight) * np.asarray(f(br.move(coords, t)), dtype=float)
    if variant is ChernoffVariant.GENERAL and spec.potential is not None:
        acc += t * spec.potential_values(coords) * np.asarray(f(coords), dtype=float)
    return acc


def apply_S(
    spec: GeneratorSpec,
    variant: ChernoffVariant,
    t: float,
    f: Callable[[np.ndarray], np.ndarray],
    x: Point,
    ode: OdeSettings = DEFAULT_ODE,
) -> float:
    """(S(t)f)(x) = sum_i w_i f(p_i) + t c(x) f(x)."""
    spec.manifold._check_point(x)
    return float(apply_S_batch(spec, variant, t, f, x.coords[None, :], ode)[0])


def iterate_tree(
    spec: GeneratorSpec,
    variant: ChernoffVariant,
    t: float,
    n: int,
    f: Callable[[np.ndarray], np.ndarray],
    x: Point,
    budget: int = DEFAULT_TREE_BUDGET,
    ode: OdeSettings = DEFAULT_ODE,
) -> float:
    """Exact (S(t/n)^n f)(x) by full expansion of the branch tree.

    Breadth-first expansion over coordinate/weight arrays; deterministic and
    bit-reproducible for fixed ode settings.  The leaf count is
    ``branches^n`` (+1 branch when a potential is present) and must stay
    within ``budget``.
    """
    spec.manifold._check_point(x)
    check_steps(t, n)
    dt = t / n
    branches = branch_moves(spec, variant, ode)
    has_pot = variant is ChernoffVariant.GENERAL and spec.potential is not None
    b = len(branches) + (1 if has_pot else 0)
    if b**n > budget:
        raise BudgetExceededError(
            f"{b}^{n} leaf evaluations exceed the budget of {budget}"
        )
    weights = [float(br.weight) for br in branches]
    pts = x.coords[None, :].copy()
    wts = np.ones(1)
    for _ in range(n):
        blocks = [br.move(pts, dt) for br in branches]
        wblocks = [w * wts for w in weights]
        if has_pot:
            blocks.append(pts)
            wblocks.append(dt * spec.potential_values(pts) * wts)
        pts = np.concatenate(blocks, axis=0)
        wts = np.concatenate(wblocks)
    return float(np.asarray(f(pts), dtype=float) @ wts)


def iterate_grid(
    spec: GeneratorSpec,
    variant: ChernoffVariant,
    t: float,
    n: int,
    f0: GridFunction,
    ode: OdeSettings = DEFAULT_ODE,
) -> GridFunction:
    """n semi-Lagrangian sweeps of S(t/n) applied to a grid function.

    The branch displacement of every node is precomputed once (the fields
    are autonomous), so each sweep is a handful of stencil gathers:
    cost O(n * nodes * branches).
    """
    if f0.manifold is not spec.manifold:
        raise VariantIncompatibleError("grid and generator live on different manifolds")
    check_steps(t, n)
    dt = t / n
    branches = branch_moves(spec, variant, ode)
    weights = [float(br.weight) for br in branches]
    nodes = f0.node_coords()
    stencils = []
    max_disp = 0.0
    for br in branches:
        target = br.move(nodes, dt)
        max_disp = max(max_disp, float(spec.manifold.distance_batch(nodes, target).max()))
        stencils.append(f0.build_stencil(target))
    if f0.interp == "linear" and 0.0 < max_disp < f0.cell_size():
        warnings.warn(
            "branch displacement below one grid cell with linear interpolation; "
            "results may be dominated by interpolation error",
            stacklevel=2,
        )
    pot = None
    if variant is ChernoffVariant.GENERAL and spec.potential is not None:
        pot = dt * spec.potential_values(nodes)
    values = f0.values.ravel().copy()
    for _ in range(n):
        flat = f0.flat_values(values)
        new = weights[0] * stencils[0].apply(flat)
        for w, st in zip(weights[1:], stencils[1:]):
            new += w * st.apply(flat)
        if pot is not None:
            new += pot * values
        values = new
    return f0.with_values(values)


@dataclass(frozen=True)
class McEstimate:
    mean: float
    stderr: float
    samples: int
    seed: int


def iterate_mc(
    spec: GeneratorSpec,
    variant: ChernoffVariant,
    t: float,
    n: int,
    f: Callable[[np.ndarray], np.ndarray],
    x: Point,
    samples: int,
    seed: int,
    ode: OdeSettings = DEFAULT_ODE,
) -> McEstimate:
    """Monte-Carlo estimate of (S(t/n)^n f)(x).

    One branch is drawn per step with probability equal to its weight; with a
    potential present the multiplicative factor (1 + (t/n) c(state)) is
    accumulated along the path.  For c = 0 this is an unbiased estimator of
    ``iterate_tree``; substreams are derived statelessly from
    (seed, path index), so results are reproducible and independent of any
    worker decomposition.
    """
    spec.manifold._check_point(x)
    check_steps(t, n)
    if samples < 2:
        raise ValueError("samples must be >= 2")
    dt = t / n
    branches = branch_moves(spec, variant, ode)
    coords = np.broadcast_to(x.coords, (samples, x.coords.shape[0])).copy()
    streams = substream(seed, np.arange(samples))
    has_pot = variant is ChernoffVariant.GENERAL and spec.potential is not None
    factor = np.ones(samples) if has_pot else None
    for _, before in sample_steps(branches, dt, coords, streams, n):
        if has_pot:
            factor *= 1.0 + dt * spec.potential_values(before)
    vals = np.asarray(f(coords), dtype=float)
    if has_pot:
        vals = vals * factor
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(samples))
    return McEstimate(mean=mean, stderr=stderr, samples=samples, seed=seed)


def consistency_defect(
    spec: GeneratorSpec,
    variant: ChernoffVariant,
    t: float,
    f: Callable[[np.ndarray], np.ndarray],
    sample: Sequence[Point],
    f_grad=None,
    f_hess=None,
    ode: OdeSettings = DEFAULT_ODE,
) -> float:
    """max over the sample of |(S(t)f - f)/t - (L_0 f + c f)|.

    Measures the first-order consistency of the Chernoff family with the
    generator; O(t) for the consistent variants, and converging to the
    non-zero residual |L_0 f| for the literal driftless form.
    """
    from .fields import apply_generator

    if t <= 0.0:
        raise ValueError("consistency_defect requires t > 0")
    coords = np.stack([p.coords for p in sample])
    s_vals = apply_S_batch(spec, variant, t, f, coords, ode)
    f_vals = np.asarray(f(coords), dtype=float)
    gen = np.array(
        [apply_generator(spec, f, p, f_grad=f_grad, f_hess=f_hess) for p in sample]
    )
    return float(np.abs((s_vals - f_vals) / t - gen).max())
