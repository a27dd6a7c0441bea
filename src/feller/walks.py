"""Random-walk approximations of the diffusion generated by L_0 (c = 0).

The walks are the branch chain of the ``GENERAL`` Chernoff family taken at
the step time s = 1/n: ``chernoff.branch_moves`` is their branch table and
``chernoff.sample_steps`` their sample loop.  At each of the ``floor(n t)``
steps a branch xi in {0, .., 2r} is drawn in table order,

    P(xi = 0) = 1/2        -> move along A_0 for time 2s,
    P(xi = k) = 1/(4r)     -> move along +A_j (k = 2j-1) or -A_j (k = 2j)
                              for time sqrt(2 r s),

matching the one-step kernel of the jump process.  Three path constructions
share this skeleton and differ only between skeleton times:

* ``jump`` - piecewise constant between jumps;
* ``geodesic`` - consecutive skeleton points joined by shortest geodesics;
* ``flow`` - the drawn branch evaluated at its local step time s < 1/n, so
  the within-step move is traversed continuously along the integral curve.

For a shared seed all three samplers reproduce identical skeleton values
bit-for-bit; ``walk_endpoints`` runs the same loop on a batch of paths.
Substreams are mixed statelessly from (seed, path index), so sampling is
reproducible and independent of any worker decomposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from ._kernels import substream
from .chernoff import ChernoffVariant, branch_moves, check_steps, sample_steps
from .errors import EmptySampleError
from .fields import GeneratorSpec
from .flows import DEFAULT_ODE, OdeSettings
from .manifolds import Point

GENERAL = ChernoffVariant.GENERAL


@dataclass(frozen=True)
class StepDistribution:
    """One-step kernel of the walk: (move descriptor, probability) pairs."""

    branches: list

    @property
    def probabilities(self) -> list[Fraction]:
        return [p for _, p in self.branches]


def _walk_steps(t: float, n: int) -> int:
    """Number of whole steps of the n-th walk in [0, t]."""
    check_steps(t, n)
    return int(math.floor(n * t + 1e-12))


def step_distribution(spec: GeneratorSpec, n: int) -> StepDistribution:
    """The transition kernel of the n-th walk (probabilities are exact).

    Descriptors name the flow time as a function of the step time s = 1/n.
    """
    check_steps(0.0, n)
    return StepDistribution(
        branches=[(br.label, br.weight) for br in branch_moves(spec, GENERAL)]
    )


@dataclass(frozen=True)
class PathSample:
    """A sampled trajectory with its time grid.

    ``times[0] = 0`` and skeleton instants m/n carry the skeleton values
    verbatim.  ``xi`` records the branch drawn in each step.
    """

    kind: str              # "jump" | "geodesic" | "flow"
    times: np.ndarray
    points: np.ndarray
    n: int
    seed_path: int
    spec: GeneratorSpec
    xi: np.ndarray

    def at(self, t: float) -> np.ndarray:
        """State at time t (piecewise-constant lookup on the stored grid)."""
        i = int(np.searchsorted(self.times, t, side="right") - 1)
        return self.points[max(i, 0)]

    def check_interpolation(self, ode: OdeSettings = DEFAULT_ODE, tol: float = 1e-8) -> float:
        """Recompute the declared connecting curves; return the worst deviation."""
        if self.kind == "jump":
            return 0.0
        m = self.spec.manifold
        branches = branch_moves(self.spec, GENERAL, ode)
        worst = 0.0
        skeleton_times = self.times * self.n
        step_starts = np.where(np.abs(skeleton_times - np.round(skeleton_times)) < 1e-9)[0]
        for s_idx, i0 in enumerate(step_starts[:-1]):
            i1 = step_starts[s_idx + 1]
            a = self.points[i0]
            b = self.points[i1]
            local = self.times[i0 + 1 : i1] - self.times[i0]
            if local.size == 0:
                continue
            if self.kind == "geodesic":
                v = m.log_batch(a[None, :], b[None, :])[0]
                frac = local * self.n
                cur = m.wrap(
                    m.geodesic_batch(
                        np.broadcast_to(a, (local.size, a.size)).copy(),
                        np.broadcast_to(v, (local.size, v.size)).copy(),
                        frac,
                    )
                )
            else:
                move = branches[int(self.xi[s_idx])].move
                cur = np.empty((local.size, a.size))
                for k, s in enumerate(local):
                    cur[k] = move(a[None, :], float(s))[0]
            worst = max(worst, float(np.abs(cur - self.points[i0 + 1 : i1]).max()))
        if worst > tol:
            raise AssertionError(f"interpolation deviates by {worst:.2e} > {tol:.0e}")
        return worst


def _sample_skeleton(
    spec: GeneratorSpec, x: Point, n: int, steps: int, seed: int, path_index: int, ode
):
    """Skeleton points (steps+1, cd), branch draws (steps,) and branch table of one path."""
    branches = branch_moves(spec, GENERAL, ode)
    coords = x.coords[None, :].copy()
    stream = substream(seed, np.array([path_index]))
    pts = np.empty((steps + 1, x.coords.shape[0]))
    xi = np.empty(steps, dtype=np.int64)
    for m, (drawn, before) in enumerate(sample_steps(branches, 1.0 / n, coords, stream, steps)):
        xi[m] = drawn[0]
        pts[m] = before[0]
    pts[steps] = coords[0]
    return pts, xi, branches


def sample_jump_path(
    spec: GeneratorSpec,
    x: Point,
    t_max: float,
    n: int,
    seed: int,
    path_index: int = 0,
    ode: OdeSettings = DEFAULT_ODE,
) -> PathSample:
    """Jump process path: piecewise constant, jumping at the instants m/n."""
    spec.manifold._check_point(x)
    steps = _walk_steps(t_max, n)
    pts, xi, _ = _sample_skeleton(spec, x, n, steps, seed, path_index, ode)
    times = np.arange(steps + 1) / n
    return PathSample("jump", times, pts, n, seed, spec, xi)


def _interp_times(n: int, t_max: float, steps: int, partial: float):
    """Global time grid: skeleton instants plus sub-samples at t_max/(8n)."""
    sub = t_max / (8.0 * n)
    times = [0.0]
    for m in range(steps):
        t0 = m / n
        k = 1
        while t0 + k * sub < (m + 1) / n - 1e-15:
            times.append(t0 + k * sub)
            k += 1
        times.append((m + 1) / n)
    if partial > 1e-12 / n:
        t0 = steps / n
        k = 1
        while t0 + k * sub < t_max - 1e-15:
            times.append(t0 + k * sub)
            k += 1
        times.append(t_max)
    return np.array(times)


def sample_geodesic_interp(
    spec: GeneratorSpec,
    x: Point,
    t_max: float,
    n: int,
    seed: int,
    path_index: int = 0,
    ode: OdeSettings = DEFAULT_ODE,
) -> PathSample:
    """Skeleton joined by shortest geodesics (same skeleton as the jump path)."""
    spec.manifold._check_point(x)
    m = spec.manifold
    steps = _walk_steps(t_max, n)
    partial = t_max - steps / n
    draw_steps = steps + (1 if partial > 1e-12 / n else 0)
    pts, xi, _ = _sample_skeleton(spec, x, n, draw_steps, seed, path_index, ode)
    times = _interp_times(n, t_max, steps, partial)
    out = np.empty((times.size, x.coords.shape[0]))
    for i, t in enumerate(times):
        s = t * n
        k = min(int(math.floor(s + 1e-12)), draw_steps)
        frac = s - k
        if frac <= 1e-12 or k >= draw_steps:
            out[i] = pts[k]
        else:
            v = m.log_batch(pts[k][None, :], pts[k + 1][None, :])[0]
            out[i] = m.wrap(m.geodesic_batch(pts[k][None, :], v[None, :], frac))[0]
    return PathSample("geodesic", times, out, n, seed, spec, xi)


def sample_flow_interp(
    spec: GeneratorSpec,
    x: Point,
    t_max: float,
    n: int,
    seed: int,
    path_index: int = 0,
    ode: OdeSettings = DEFAULT_ODE,
) -> PathSample:
    """Skeleton traversed continuously along the drawn integral curves.

    Between skeleton instants the drawn branch is evaluated at its local
    step time ``frac / n`` < 1/n.
    """
    spec.manifold._check_point(x)
    steps = _walk_steps(t_max, n)
    partial = t_max - steps / n
    draw_steps = steps + (1 if partial > 1e-12 / n else 0)
    pts, xi, branches = _sample_skeleton(spec, x, n, draw_steps, seed, path_index, ode)
    times = _interp_times(n, t_max, steps, partial)
    out = np.empty((times.size, x.coords.shape[0]))
    for i, t in enumerate(times):
        s = t * n
        k = min(int(math.floor(s + 1e-12)), draw_steps)
        frac = s - k
        if frac <= 1e-12 or k >= draw_steps:
            out[i] = pts[k]
        else:
            out[i] = branches[int(xi[k])].move(pts[k][None, :], frac / n)[0]
    return PathSample("flow", times, out, n, seed, spec, xi)


@dataclass(frozen=True)
class WalkStats:
    t: float
    n: int
    n_samples: int
    mean_f: float
    stderr_f: float
    ks_distance: Optional[float] = None
    moc_tail: Optional[list] = None


def walk_endpoints(
    spec: GeneratorSpec,
    x: Point,
    t: float,
    n: int,
    n_samples: int,
    seed: int,
    ode: OdeSettings = DEFAULT_ODE,
) -> np.ndarray:
    """Vectorized endpoints X_n(t) for n_samples jump paths."""
    spec.manifold._check_point(x)
    steps = _walk_steps(t, n)
    coords = np.broadcast_to(x.coords, (n_samples, x.coords.shape[0])).copy()
    streams = substream(seed, np.arange(n_samples))
    for _ in sample_steps(branch_moves(spec, GENERAL, ode), 1.0 / n, coords, streams, steps):
        pass
    return coords


def estimate_expectation(
    spec: GeneratorSpec,
    f: Callable[[np.ndarray], np.ndarray],
    x: Point,
    t: float,
    n: int,
    n_samples: int,
    seed: int,
    ode: OdeSettings = DEFAULT_ODE,
) -> WalkStats:
    """Monte-Carlo estimate of E[f(X_n(t))] over jump-walk endpoints."""
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2")
    coords = walk_endpoints(spec, x, t, n, n_samples, seed, ode)
    vals = np.asarray(f(coords), dtype=float)
    return WalkStats(
        t=t,
        n=n,
        n_samples=n_samples,
        mean_f=float(vals.mean()),
        stderr_f=float(vals.std(ddof=1) / math.sqrt(n_samples)),
    )


def ks_distance_to(reference_cdf: Callable[[np.ndarray], np.ndarray], samples) -> float:
    """Two-sided Kolmogorov-Smirnov statistic of samples against a CDF.

    The downward excursion is evaluated at the left limits of the sample
    points (via nextafter), so step references (point masses, lattice CDFs)
    are handled exactly rather than through the continuous-CDF shortcut.
    """
    s = np.sort(np.asarray(samples, dtype=float))
    if s.size == 0:
        raise EmptySampleError("KS distance of an empty sample")
    cdf_right = np.asarray(reference_cdf(s), dtype=float)
    cdf_left = np.asarray(reference_cdf(np.nextafter(s, -np.inf)), dtype=float)
    ranks = np.arange(1, s.size + 1) / s.size
    d_plus = float(np.max(ranks - cdf_right))
    d_minus = float(np.max(cdf_left - (ranks - 1.0 / s.size)))
    return max(d_plus, d_minus, 0.0)


def modulus_of_continuity(path: PathSample, delta: float) -> float:
    """sup of d(path(s), path(t)) over stored grid pairs with |s - t| < delta."""
    if delta <= 0.0:
        raise ValueError("delta must be > 0")
    m = path.spec.manifold
    times, pts = path.times, path.points
    worst = 0.0
    for off in range(1, times.size):
        gaps = times[off:] - times[:-off]
        sel = gaps < delta
        if not np.any(sel):
            break
        d = m.distance_batch(pts[:-off][sel], pts[off:][sel])
        worst = max(worst, float(d.max()))
    return worst
