"""Random-walk approximations of the diffusion generated by L_0 (c = 0).

The walks are the branch chain of the ``GENERAL`` Chernoff family taken at
the step time s = 1/n: ``chernoff.branch_moves`` is their branch table and
``chernoff.sample_steps`` their sample loop.  No path realises the table's
signed potential branch, so every walk refuses c != 0.  At each of the
``floor(n t)`` steps a branch xi in {0, .., 2r} is drawn in table order,

    P(xi = 0) = 1/2        -> move along A_0 for time 2s,
    P(xi = k) = 1/(4r)     -> move along +A_j (k = 2j-1) or -A_j (k = 2j)
                              for time sqrt(2 r s),

matching the one-step kernel of the jump process.  ``sample_path`` is the
one path sampler: it draws this skeleton once, and fills the times between
skeleton instants (sub-samples t_max/(8n) apart) with one connector per kind:

* ``jump`` - piecewise constant between jumps;
* ``geodesic`` - consecutive skeleton points joined by shortest geodesics;
* ``flow`` - the drawn branch evaluated at its local step time s < 1/n, so
  the within-step move is traversed continuously along the integral curve;
  every sub-sample moves in one ``chernoff.move_rows`` call, with one step
  time per row.

Every move, of the skeleton and of the ``flow`` connector, is
``chernoff.move_rows``, which flows the rows of ``+A_j`` and ``-A_j`` in
one call (``-A_j`` is ``A_j`` flowed for ``-sqrt(2 r s)``).  For a shared
seed all kinds reproduce identical skeleton values bit-for-bit;
``walk_endpoints`` runs the same loop on a batch of paths through
``chernoff.sample_endpoints``, which moves one row per draw history while
few exist.  Substreams are mixed statelessly from (seed, path index), so
sampling is reproducible and independent of any worker decomposition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ._kernels import substream
from .chernoff import (
    ChernoffVariant, branch_moves, check_steps, move_rows, sample_endpoints, sample_steps,
)
from .errors import EmptySampleError, VariantIncompatibleError
from .fields import GeneratorSpec
from .flows import DEFAULT_ODE, OdeSettings
from .manifolds import Point

GENERAL = ChernoffVariant.GENERAL


def _walk_table(spec: GeneratorSpec, ode: OdeSettings = DEFAULT_ODE) -> list:
    """The ``GENERAL`` table, refused if it holds the signed potential branch."""
    if (branches := branch_moves(spec, GENERAL, ode))[-1].signed is not None:
        raise VariantIncompatibleError("walks realise the diffusion of L_0 and require c = 0")
    return branches


def _walk_steps(t: float, n: int) -> int:
    """Number of whole steps of the n-th walk in [0, t]."""
    check_steps(t, n)
    return int(math.floor(n * t + 1e-12))


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


PATH_KINDS = ("jump", "geodesic", "flow")


def _time_grid(t_max: float, n: int, steps: int, partial: bool) -> np.ndarray:
    """Skeleton instants m/n (and t_max after a partial step) with sub-samples t0 + k t_max/(8n)."""
    sub = t_max / (8.0 * n)
    starts = np.arange(steps + partial) / n
    ends = np.append(np.arange(1, steps + 1) / n, [t_max] if partial else [])
    if not ends.size:
        return np.zeros(1)
    # the last k lands a whole sub past the end of the longest segment
    k = np.arange(1, math.ceil((ends - starts).max() / sub) + 2)
    inner = starts[:, None] + k * sub
    keep = np.column_stack([inner < ends[:, None] - 1e-15, np.ones(ends.size, dtype=bool)])
    return np.concatenate([[0.0], np.column_stack([inner, ends])[keep]])


def sample_path(
    kind: str,
    spec: GeneratorSpec,
    x: Point,
    t_max: float,
    n: int,
    seed: int,
    path_index: int = 0,
    ode: OdeSettings = DEFAULT_ODE,
) -> PathSample:
    """One path of the n-th walk on [0, t_max] with the connector of ``kind``.

    ``geodesic`` and ``flow`` draw one more step when ``n t_max`` is not an
    integer, so the partial last segment has an end to head for.
    ValueError unless ``0 <= path_index < 2^64``.
    """
    if kind not in PATH_KINDS:
        raise ValueError(f"unknown path kind {kind!r}")
    if not 0 <= path_index < 2**64:
        raise ValueError(f"path_index must be in [0, 2^64), got {path_index}")
    spec.manifold._check_point(x)
    steps = _walk_steps(t_max, n)
    partial = kind != "jump" and t_max - steps / n > 1e-12 / n
    draws = steps + partial
    branches = _walk_table(spec, ode)
    coords = x.coords[None, :].copy()
    pts = np.empty((draws + 1, coords.shape[1]))
    xi = np.empty(draws, dtype=np.int64)
    stream = substream(seed, np.array([path_index]))
    for step, (drawn, before) in enumerate(sample_steps(branches, 1.0 / n, coords, stream, draws)):
        xi[step] = drawn[0]
        pts[step] = before[0]
    pts[draws] = coords[0]
    if kind == "jump":
        return PathSample(kind, np.arange(steps + 1) / n, pts, n, seed, spec, xi)

    times = _time_grid(t_max, n, steps, partial)
    s = times * n
    k = np.minimum(np.floor(s + 1e-12).astype(np.int64), draws)
    frac = s - k
    inner = np.flatnonzero((frac > 1e-12) & (k < draws))
    out = pts[k]
    if kind == "geodesic":
        m, a = spec.manifold, pts[k[inner]]
        out[inner] = m.geodesic_batch(a, m.log_batch(a, pts[k[inner] + 1]), frac[inner])
    else:
        out[inner] = move_rows(branches, pts[k[inner]], xi[k[inner]], frac[inner] / n)
    return PathSample(kind, times, out, n, seed, spec, xi)


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
    return sample_path("jump", spec, x, t_max, n, seed, path_index, ode)


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
    return sample_path("geodesic", spec, x, t_max, n, seed, path_index, ode)


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
    return sample_path("flow", spec, x, t_max, n, seed, path_index, ode)


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
    """Endpoints X_n(t) of n_samples jump paths, sampled by ``chernoff.sample_endpoints``."""
    spec.manifold._check_point(x)
    steps = _walk_steps(t, n)
    out = np.empty((n_samples, x.coords.shape[0]))
    branches = _walk_table(spec, ode)
    for lo, coords, _ in sample_endpoints(branches, 1.0 / n, x, n_samples, seed, steps):
        out[lo : lo + coords.shape[0]] = coords
    return out


def endpoint_values(
    spec: GeneratorSpec,
    f: Callable[[np.ndarray], np.ndarray],
    x: Point,
    t: float,
    n: int,
    n_samples: int,
    seed: int,
    ode: OdeSettings = DEFAULT_ODE,
) -> np.ndarray:
    """f(X_n(t)) at the endpoints of n_samples >= 2 jump walks."""
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2")
    return np.asarray(f(walk_endpoints(spec, x, t, n, n_samples, seed, ode)), dtype=float)


def endpoint_stats(t: float, n: int, vals: np.ndarray) -> WalkStats:
    """Mean and standard error of the endpoint values ``vals`` of f."""
    stderr = float(vals.std(ddof=1) / math.sqrt(vals.size))
    return WalkStats(t=t, n=n, n_samples=vals.size, mean_f=float(vals.mean()), stderr_f=stderr)


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
    return endpoint_stats(t, n, endpoint_values(spec, f, x, t, n, n_samples, seed, ode))


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
    if not delta > 0.0:
        raise ValueError(f"delta must be > 0, got {delta}")
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
