"""Independent ground-truth oracles: closed-form heat semigroups and a
Crank-Nicolson finite-difference solver.

These never touch the Chernoff/walk code paths; they exist to certify them.
The finite-difference solver runs on the grids whose axes are all periodic
(the circle and torus2): one operator builder assembles L on the periodic
grid of any d, axis by axis.
Series and quadrature truncations are chosen so the oracle error sits at
least an order below every tolerance it is used to check, and doubling any
truncation is verified to move the result by less than 1e-10.

The closed-form kernels, H2's McKean integral among them, are numpy alone.
scipy is imported inside the functions that call it (``fd_solve`` and its
operator builder import ``scipy.sparse``), so importing this module, and with
it ``feller`` and ``feller.cli``, loads no scipy module, and neither does any
``exact_semigroup`` call.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import OracleUnavailableError, TruncationBudgetError, VariantIncompatibleError
from .fields import GeneratorSpec
from .grids import GridFunction
from .manifolds import Manifold, Point, TWO_PI, circle, euclidean, hyperbolic_h2, sphere2, torus2


@dataclass(frozen=True)
class HeatKernelId:
    """Closed-form heat-kernel selector for e^{t (1/2) Laplacian}; its points
    are in the stored coordinates of ``chart()``."""

    tag: str                     # gauss-rd | wrapped-gauss-s1 | torus-product
    #                            | sphere-harmonics | hyperbolic-h2
    d: int = 1                   # gauss-rd only
    l_max: int = 64              # sphere-harmonics only

    @classmethod
    def from_string(cls, s: str) -> "HeatKernelId":
        name, _, arg = s.strip().lower().partition(":")
        if name == "gauss-rd":
            return cls("gauss-rd", d=int(arg) if arg else 1)
        if name == "sphere-harmonics":
            lm = int(arg) if arg else 64
            if lm < 8:
                raise ValueError("sphere-harmonics requires l_max >= 8")
            return cls("sphere-harmonics", l_max=lm)
        if name in _CHARTS:
            return cls(name)
        raise ValueError(f"unknown heat kernel {s!r}")

    def chart(self) -> Manifold:
        """The manifold whose stored coordinates the kernel's points are."""
        if self.tag not in _CHARTS:
            raise OracleUnavailableError(f"no oracle for {self.tag}")
        return _CHARTS[self.tag](self)

    def covers(self, manifold: Manifold) -> bool:
        """Whether the kernel is the heat flow of runs on ``manifold``: those on
        its chart, and for gauss-rd:d those on a chart with d periodic axes (the
        flat tori), where a periodic f flows as it does on R^d."""
        if manifold.name == self.chart().name:
            return True
        return self.tag == "gauss-rd" and manifold.grid_axes == ("periodic",) * self.d


_CHARTS = {
    "gauss-rd": lambda k: euclidean(k.d),
    "wrapped-gauss-s1": lambda k: circle(),
    "torus-product": lambda k: torus2(),
    "sphere-harmonics": lambda k: sphere2(),
    "hyperbolic-h2": lambda k: hyperbolic_h2(),
}


def _as_callable(f):
    if isinstance(f, GridFunction):
        return lambda coords: f.interpolate(coords)
    return f


# -- Gauss-Hermite on R^d -------------------------------------------------------

_GH_NODES = 64


def _gauss_rd(f, t, x, d):
    if d > 3:
        raise OracleUnavailableError("gauss-rd oracle supports d <= 3")
    u, w = np.polynomial.hermite.hermgauss(_GH_NODES)
    scale = math.sqrt(2.0 * t)
    grids = np.meshgrid(*([u] * d), indexing="ij")
    wgrids = np.meshgrid(*([w] * d), indexing="ij")
    offsets = np.stack([g.ravel() for g in grids], axis=-1)
    weight = np.prod(np.stack([g.ravel() for g in wgrids], axis=-1), axis=-1)
    pts = x[None, :] + scale * offsets
    return float(weight @ np.asarray(f(pts)) / math.pi ** (d / 2.0))


# -- wrapped Gaussian on S^1 ------------------------------------------------------


def _wrapped_gauss_kernel(delta: np.ndarray, t: float) -> np.ndarray:
    """Heat kernel of (1/2) d^2/dtheta^2 on the circle at time t."""
    k_max = int(math.ceil(6.0 / math.sqrt(t))) + 3
    acc = np.zeros_like(delta)
    norm = 1.0 / math.sqrt(TWO_PI * t)
    for k in range(-k_max, k_max + 1):
        acc += np.exp(-((delta + TWO_PI * k) ** 2) / (2.0 * t))
    # enforced truncation check: the next shell must be negligible
    tail = np.exp(-((np.abs(delta) + TWO_PI * (k_max + 1) - np.pi) ** 2) / (2.0 * t))
    if float(tail.max()) * norm > 1e-12:
        raise TruncationBudgetError("wrapped Gaussian series truncated too early")
    return norm * acc


def _periodic_product(f, t, x, m, n):
    """Product of wrapped Gaussians over the grid of n nodes per axis of the
    periodic chart m, contracted one axis at a time."""
    nodes = GridFunction(m, np.empty((n,) * m.dim))
    vals = np.asarray(f(nodes.node_coords()), dtype=float).reshape(nodes.values.shape)
    g = TWO_PI * np.arange(n) / n  # the node angles of each axis
    for xa in x:
        vals = _wrapped_gauss_kernel(xa - g, t) @ vals
    return float(vals * (TWO_PI / n) ** m.dim)


# -- spherical-harmonic series on S^2 ---------------------------------------------


def _legendre_sum(c: np.ndarray, t: float, l_max: int) -> np.ndarray:
    """p_t(c) = sum_l (2l+1)/(4pi) e^{-l(l+1)t/2} P_l(c), with tail check."""
    p_prev = np.ones_like(c)
    p_cur = c.copy()
    acc = (1.0 / (4.0 * math.pi)) * p_prev
    acc += (3.0 / (4.0 * math.pi)) * math.exp(-1.0 * t) * p_cur
    last_term = np.inf
    for l in range(2, l_max + 1):
        p_next = ((2 * l - 1) * c * p_cur - (l - 1) * p_prev) / l
        coef = (2 * l + 1) / (4.0 * math.pi) * math.exp(-0.5 * l * (l + 1) * t)
        acc += coef * p_next
        p_prev, p_cur = p_cur, p_next
        last_term = coef  # |P_l| <= 1
    if last_term > 1e-12:
        raise TruncationBudgetError(
            f"spherical-harmonic series: term at l={l_max} is {last_term:.1e}; raise l_max"
        )
    return acc


def _sphere_harmonics(f, t, x, l_max):
    n_c, n_phi = 256, 256
    c, w = np.polynomial.legendre.leggauss(n_c)
    phi = TWO_PI * np.arange(n_phi) / n_phi
    e1, e2 = sphere2().tangent_basis(x)[0].T  # orthonormal tangent pair at x
    s = np.sqrt(np.maximum(1.0 - c**2, 0.0))
    y = (
        c[:, None, None] * x[None, None, :]
        + s[:, None, None]
        * (np.cos(phi)[None, :, None] * e1 + np.sin(phi)[None, :, None] * e2)
    )
    vals = np.asarray(f(y.reshape(-1, 3)), dtype=float).reshape(n_c, n_phi)
    kern = _legendre_sum(c, t, l_max)
    return float((w * kern) @ vals.mean(axis=1) * TWO_PI)


# -- hyperbolic plane --------------------------------------------------------------


_H2_NODES = 128   # the coarse Gauss-Legendre rule; the fine rule has twice as many
_H2_TAIL = 50.0   # truncate where the Gaussian has fallen by e^-50 from its value at s = rho


@functools.lru_cache(maxsize=None)
def _legendre01(n: int) -> tuple:
    """The n-node Gauss-Legendre rule on [0, 1] as read-only (nodes, weights).

    numpy builds a rule from an n x n eigenproblem (7 ms at n = 256 on a 2-core
    x86_64 VM), so each n is built once per process.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    x, w = 0.5 * (x + 1.0), 0.5 * w
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _mckean_integral(rho: np.ndarray, t: float, n: int) -> np.ndarray:
    """int_rho^inf s e^{-s^2/(4t)} / sqrt(cosh s - cosh rho) ds at each rho, by an
    n-node Gauss-Legendre rule truncated at s^2 - rho^2 = 4 t _H2_TAIL.

    At rho = 0 the rule runs in s, where cosh s - 1 = 2 sinh^2(s/2).  Otherwise
    it runs in w with s = rho cosh w: there cosh s - cosh rho =
    2 sinh((s + rho)/2) sinh(rho sinh^2(w/2)) has no cancellation, and the
    integrand times ds/dw = rho sinh w is smooth at w = 0.  Where s + rho >
    1420 (live distances reach that once t > 200), sinh((s + rho)/2)
    overflows to inf and the node adds 0 in place of a term below e^-355
    times the rest of its integrand: the overflow is expected and silenced.
    """
    x, w = _legendre01(n)
    reach = math.sqrt(4.0 * t * _H2_TAIL)  # sqrt(s^2 - rho^2) at the truncation
    out = np.empty_like(rho)
    zero = rho < 1e-12
    with np.errstate(over="ignore"):
        s = reach * x
        f0 = s * np.exp(-s * s / (4.0 * t)) / (math.sqrt(2.0) * np.sinh(0.5 * s))
        out[zero] = reach * float(f0 @ w)
        r = rho[~zero, None]
        top = np.arcsinh(reach / r)  # the w where s^2 - rho^2 = rho^2 sinh^2 w reaches reach^2
        ws = top * x
        s, lift = r * np.cosh(ws), r * np.sinh(ws)  # lift = ds/dw = sqrt(s^2 - rho^2)
        half = np.sinh(0.5 * ws)
        den = np.sqrt(2.0 * np.sinh(0.5 * (s + r)) * np.sinh(r * half * half))
        # the Gaussian as e^{-rho^2/4t} e^{-(s^2 - rho^2)/4t}, its first factor out of the sum
        f = s * np.exp(-lift * lift / (4.0 * t)) * lift / den
    out[~zero] = np.exp(-rho[~zero] ** 2 / (4.0 * t)) * top[:, 0] * (f @ w)
    return out


def h2_heat_kernel(rho: np.ndarray, t: float) -> np.ndarray:
    """Heat kernel of the full Laplacian on H^2 at time t, distance rho.

    McKean's integral: p_t(rho) = sqrt(2) e^{-t/4} / (4 pi t)^{3/2}
                       * int_rho^inf s e^{-s^2/(4t)} / sqrt(cosh s - cosh rho) ds,
    one vectorised Gauss-Legendre rule over all distances at once
    (``_mckean_integral``).  The convergence gate: the rules of ``_H2_NODES``
    and twice as many nodes agree to 1e-8 relative at every distance, or
    TruncationBudgetError; the finer one is returned.
    """
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    out = np.zeros_like(rho)
    pref = math.sqrt(2.0) * math.exp(-t / 4.0) / (4.0 * math.pi * t) ** 1.5
    # far tail, rho^2/4t > 600: below 1e-260, irrelevant at double precision
    live = rho * rho / (4.0 * t) <= 600.0
    coarse = _mckean_integral(rho[live], t, _H2_NODES)
    fine = _mckean_integral(rho[live], t, 2 * _H2_NODES)
    if not np.all(np.abs(fine - coarse) <= 1e-8 * np.abs(fine)):
        raise TruncationBudgetError(
            f"H2 kernel quadrature: the {_H2_NODES}- and {2 * _H2_NODES}-node rules disagree"
        )
    out[live] = pref * fine
    return out


def _hyperbolic_h2(f, t, xs):
    # polar quadrature around each row x of xs:
    # u(x) = int p_{t/2}(rho) f(exp_x(rho, phi)) sinh(rho); the kernel values
    # are shared by every row, and each row's polar nodes are one batch
    m = hyperbolic_h2()
    th = t / 2.0  # e^{t (1/2) Laplacian} = heat kernel at time t/2
    rho_max = 12.0 * math.sqrt(th) + 6.0
    n_rho, n_phi = 192, 256
    nodes, w = _legendre01(n_rho)
    rho = rho_max * nodes
    kern = h2_heat_kernel(rho, th)
    phi = TWO_PI * np.arange(n_phi) / n_phi
    radii = np.repeat(rho, n_phi)
    out = np.empty(len(xs))
    for j, x in enumerate(xs):
        e1, e2 = m.frame_batch(x[None, :])[:, 0]  # the frame at x
        dirs = np.cos(phi)[:, None] * e1 + np.sin(phi)[:, None] * e2  # unit g-norm
        starts = np.broadcast_to(x, (n_rho * n_phi, 2)).copy()
        pts = m.geodesic_batch(starts, np.tile(dirs, (n_rho, 1)), radii)
        acc = np.asarray(f(pts), dtype=float).reshape(n_rho, n_phi).mean(axis=1)
        integrand = kern * np.sinh(rho) * acc * TWO_PI
        out[j] = float(integrand @ w * rho_max)
    return out


def exact_semigroup(kernel: HeatKernelId, f, t: float, x) -> float:
    """(e^{t (1/2) Laplacian} f)(x) from the closed-form kernel, for finite t > 0."""
    coords = x.coords if isinstance(x, Point) else np.atleast_1d(np.asarray(x, dtype=float))
    return float(exact_semigroup_batch(kernel, f, t, coords[None, :])[0])


def exact_semigroup_batch(kernel: HeatKernelId, f, t: float, coords) -> np.ndarray:
    """``exact_semigroup`` at every row of ``coords``; ValueError unless each
    row has the ``chart_dim`` coordinates of the kernel's chart.

    The H2 kernel values depend on t alone, so one call computes them once
    for all rows; the other oracles run row by row.
    """
    if not 0.0 < t < math.inf:
        raise ValueError(f"exact_semigroup requires a finite t > 0, not {t!r}")
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    m, fn = kernel.chart(), _as_callable(f)
    if coords.ndim != 2 or coords.shape[1] != m.chart_dim:
        raise ValueError(f"{kernel.tag} takes points of {m.chart_dim} coordinates")
    if kernel.tag == "hyperbolic-h2":
        return _hyperbolic_h2(fn, t, coords)
    if kernel.tag == "gauss-rd":
        one = lambda x: _gauss_rd(fn, t, x, kernel.d)
    elif kernel.tag == "sphere-harmonics":
        one = lambda x: _sphere_harmonics(fn, t, x, kernel.l_max)
    else:  # the circle's and the torus's products of wrapped Gaussians
        one = lambda x: _periodic_product(fn, t, x, m, 4096 if m.dim == 1 else 512)
    return np.array([one(x) for x in coords], dtype=float)


# -- Crank-Nicolson finite differences ---------------------------------------------

_MAX_DT = 1e-2


@dataclass(frozen=True)
class FdSolverSettings:
    """Crank-Nicolson settings; the spatial grid comes from the input grid."""

    steps: int

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")


def _axis_shift(shape: tuple, axis: int, k: int) -> scipy.sparse.csr_matrix:
    """Periodic shift along one axis of a row-major grid: (S u)_i = u_{i + k e_axis}."""
    from scipy import sparse

    n = math.prod(shape)
    cols = np.roll(np.arange(n).reshape(shape), -k, axis=axis).ravel()
    return sparse.csr_matrix((np.ones(n), (np.arange(n), cols)), shape=(n, n))


def _advection_beta(spec: GeneratorSpec, nodes: np.ndarray) -> np.ndarray:
    """First-order coefficient left over after the conservative part.

    In the flat periodic charts the operator splits as
    L = 1/2 d_j(a^{jk} d_k .) + beta . grad + c with
    beta = A_0 - 1/2 sum_k (div A_k) A_k, exactly zero under the derived
    drift without an extra field.
    """
    return spec.drift_comps(nodes) - spec.divergence_drift(nodes)


def _a_entry(spec: GeneratorSpec, pts: np.ndarray, j: int, k: int) -> np.ndarray:
    """The diffusion coefficient a^{jk} = sum_f A_f^j A_f^k at each row of ``pts``."""
    acc = np.zeros(pts.shape[0])
    for f in spec.fields:
        s = f.comps(pts)
        acc += s[:, j] * s[:, k]
    return acc


def _operator(spec: GeneratorSpec, f0: GridFunction) -> scipy.sparse.csr_matrix:
    """L on the periodic grid of ``f0`` (row-major nodes), as a CSR matrix.

    Per axis k: the flux term d_k(a^{kk} d_k .) from the midpoint values of
    a^{kk}, and the central difference D_k; on torus2 also the symmetrized
    cross term 1/2 (D_1 a^{12} D_2 + D_2 a^{12} D_1).
    """
    from scipy import sparse

    shape = f0.values.shape
    nodes = f0.node_coords()
    eye = sparse.eye(nodes.shape[0], format="csr")
    beta = _advection_beta(spec, nodes)
    flux, drift, central = [], [], []
    for k, n in enumerate(shape):
        h = TWO_PI / n
        sp, sm = _axis_shift(shape, k, 1), _axis_shift(shape, k, -1)
        mid = nodes.copy()
        mid[:, k] += 0.5 * h
        a_p = _a_entry(spec, mid, k, k)
        # the midpoint below each node: roll by one cell along the axis
        a_m = np.roll(a_p.reshape(shape), 1, axis=k).ravel()
        up, down = sparse.diags(a_p) @ (sp - eye), sparse.diags(a_m) @ (eye - sm)
        flux.append((up - down) / (2.0 * h * h))
        central.append((sp - sm) / (2.0 * h))
        drift.append(sparse.diags(beta[:, k]) @ central[k])
    # summation order is part of the result: fluxes, the cross term, then all drift terms
    lap = sum(flux[1:], flux[0])
    if len(shape) == 2:
        d1, d2 = central
        a12 = sparse.diags(_a_entry(spec, nodes, 0, 1))
        lap = lap + 0.5 * (d1 @ a12 @ d2 + d2 @ a12 @ d1)
    adv = sum(drift[1:], drift[0])
    op = lap + adv
    if spec.potential is not None:
        op = op + sparse.diags(spec.potential_values(nodes))
    return op.tocsr()


def fd_solve(
    spec: GeneratorSpec, f0: GridFunction, t: float, settings: FdSolverSettings
) -> GridFunction:
    """Crank-Nicolson solution of du/dt = L u on circle or torus2 grids.

    The second-order part is discretized in conservative (flux) form, so
    with the derived drift and c = 0 the discrete volume integral is
    conserved to rounding.  Second-order accurate in space and time.  Each
    step is one ``scipy.sparse`` product and one solve with the ``splu``
    factors of ``I - dt/2 L``, computed once.
    """
    from scipy import sparse
    from scipy.sparse.linalg import splu

    if any(kind != "periodic" for kind in f0.manifold.grid_axes):
        raise VariantIncompatibleError(
            f"fd_solve supports the circle and torus2, not {f0.manifold.name}"
        )
    if f0.manifold is not spec.manifold:
        raise VariantIncompatibleError("grid and generator live on different manifolds")
    dt = t / settings.steps
    if dt > _MAX_DT + 1e-15:
        raise ValueError(
            f"time step {dt:.3g} exceeds the accuracy cap {_MAX_DT}; raise steps"
        )
    op = _operator(spec, f0)
    n_tot = op.shape[0]
    eye = sparse.eye(n_tot, format="csr")
    lhs = splu((eye - 0.5 * dt * op).tocsc())
    rhs = (eye + 0.5 * dt * op).tocsr()
    u = f0.values.ravel().copy()
    for _ in range(settings.steps):
        u = lhs.solve(rhs @ u)
    return f0.with_values(u)
