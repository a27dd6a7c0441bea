"""The acceptance suite: every validation criterion with its pinned tolerance.

Each criterion is a self-contained callable returning (ok, detail); the
pytest acceptance module and the ``feller validate`` subcommand both run
this registry, printing one line per criterion.

Two sub-criteria are marked as expected failures (``defect`` is set) because
they are analytically unattainable as stated; the registry entries carry the
full argument and the suite verifies they fail for exactly the predicted
reason:

* ``09a``: the jump walk's endpoint at t=1 is supported on the lattice
  sqrt(2/n) Z with an atom of mass C(2n, n)/4^n at the start, so its
  Kolmogorov distance to the Gaussian limit is ~ 0.035 at n = 64 (and
  ~ 0.018 at n = 256, where the quoted 0.02 threshold does hold).  No
  sampling strategy can beat the distributional lower bound.
* ``11b``: the flow of sin(theta) d/dtheta on the circle is monotone in
  theta toward the fixed point at pi from either side, so the distance
  from the start is non-decreasing for ALL horizons, not only below the
  guaranteed one; the T = 5 control cannot record a decrease.  A circle
  field without zeros (e.g. 2 + sin(theta)) does wrap around and shows
  thousands of decreases at T = 5, which is how the diagnostic's power is
  demonstrated in the unit suite.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.special import ndtr

from . import fields as fd
from . import flows as fw
from . import manifolds as mf
from . import reference as rf
from . import walks as wk
from .chernoff import (
    ChernoffVariant,
    consistency_defect,
    iterate_grid,
    iterate_mc,
    iterate_tree,
)
from .grids import GridFunction

GENERAL = ChernoffVariant.GENERAL
HEAT = ChernoffVariant.HEAT_GEODESIC


@dataclass(frozen=True)
class CriterionResult:
    cid: str
    description: str
    passed: bool
    expected_failure: bool
    detail: str
    elapsed: float
    budget: float

    @property
    def status(self) -> str:
        if self.passed:
            return "XPASS" if self.expected_failure else "PASS"
        return "XFAIL" if self.expected_failure else "FAIL"

    @property
    def ok(self) -> bool:
        """True when the suite should count this criterion as green."""
        return self.passed != self.expected_failure

    def line(self) -> str:
        return f"[{self.status:5s}] {self.cid}  ({self.elapsed:.2f}s/{self.budget:.0f}s)  {self.detail}"


# -- shared fixtures -------------------------------------------------------------


def _circle_heat_general() -> fd.GeneratorSpec:
    circ = mf.circle()
    return fd.GeneratorSpec([fd.frame_field(circ, 1)], drift_policy="explicit")


def _circle_heat_geodesic_spec() -> fd.GeneratorSpec:
    circ = mf.circle()
    return fd.GeneratorSpec([fd.frame_field(circ, 1)], drift_policy="derived")


def _euclid_quadratic_spec() -> fd.GeneratorSpec:
    e1 = mf.euclidean(1)
    return fd.GeneratorSpec([fd.constant_field(e1, [1.0])], drift_policy="explicit")


def _cos(c):
    return np.cos(c[:, 0])


def _cos_grad(c):
    return -np.sin(c[:, 0])[:, None]


def _cos_hess(c):
    return -np.cos(c[:, 0])[:, None, None]


# -- criteria --------------------------------------------------------------------


def _c01():
    spec = _euclid_quadratic_spec()
    x = mf.euclidean(1).point([0.4])
    f = lambda c: c[:, 0] ** 2
    t = 0.7
    worst = 0.0
    for n in (1, 2, 4, 8):
        val = iterate_tree(spec, GENERAL, t, n, f, x)
        worst = max(worst, abs(val - (0.4**2 + t)))
    return worst <= 1e-10, f"max |tree - (x^2+t)| = {worst:.2e} (tol 1e-10)"


def _c02():
    spec = _circle_heat_geodesic_spec()
    circ = mf.circle()
    g0 = GridFunction.from_function(circ, 512, _cos, interp="cubic")
    theta = g0.node_coords()[:, 0]
    t = 1.0
    errs = {}
    for n in (8, 16, 32, 64, 128):
        g = iterate_grid(spec, HEAT, t, n, g0)
        errs[n] = float(np.abs(g.values - np.exp(-0.5) * np.cos(theta)).max())
        if n == 128:
            closed = np.cos(theta) * math.cos(math.sqrt(t / n)) ** n
            closed_err = float(np.abs(g.values - closed).max())
    slope = float(
        np.polyfit(np.log(list(errs.keys())), np.log(list(errs.values())), 1)[0]
    )
    ok = errs[128] <= 1e-3 and closed_err <= 1e-6 and -1.2 <= slope <= -0.8
    return ok, (
        f"sup err(n=128) = {errs[128]:.2e} (tol 1e-3), vs closed form "
        f"{closed_err:.2e} (tol 1e-6), slope {slope:.3f} (in [-1.2,-0.8])"
    )


def _c03():
    circ = mf.circle()
    a1 = fd.expression_field(circ, ["1+0.3*sin(theta)"])
    spec = fd.GeneratorSpec([a1], drift_policy="derived")
    g0 = GridFunction.from_function(circ, 512, _cos, interp="cubic")
    gch = iterate_grid(spec, GENERAL, 0.5, 256, g0)
    gfd = rf.fd_solve(spec, g0, 0.5, rf.FdSolverSettings(steps=400))
    err = float(np.abs(gch.values - gfd.values).max())
    return err <= 5e-3, f"sup |grid - fd| = {err:.2e} (tol 5e-3)"


def _c04():
    s2 = mf.sphere2()
    spec = fd.GeneratorSpec(
        [fd.rotational_field(s2, k) for k in (1, 2, 3)], drift_policy="derived"
    )
    rng = np.random.default_rng(202)
    pts = s2.random_points(64, rng)
    drift_norm = float(np.linalg.norm(spec.drift_comps(pts), axis=-1).max())
    margin = spec.ellipticity_margin(pts)
    fz = lambda c: c[:, 2]
    g0 = GridFunction.from_function(s2, (192, 384), fz, interp="linear")
    g1 = iterate_grid(spec, GENERAL, 1.0, 128, g0)
    exact = math.exp(-1.0) * g0.node_coords()[:, 2]
    err = float(np.abs(g1.values.ravel() - exact).max())
    ok = drift_norm <= 1e-8 and err <= 5e-3 and margin > 1e-8
    return ok, (
        f"|A_0| <= {drift_norm:.1e} (tol 1e-8), ellipticity margin {margin:.3f}, "
        f"sup err vs e^-1 z = {err:.2e} (tol 5e-3)"
    )


def _c05():
    h2 = mf.hyperbolic_h2()
    spec = fd.GeneratorSpec(
        [fd.frame_field(h2, 1), fd.frame_field(h2, 2)], drift_policy="explicit"
    )
    center = np.array([0.0, 1.0])

    def f(c):
        c = np.atleast_2d(c)
        d = h2.distance_batch(np.broadcast_to(center, c.shape).copy(), c)
        return np.exp(-0.5 * d**2)

    kernel = rf.HeatKernelId.from_string("hyperbolic-h2")
    t = 0.5
    worst_tree = worst_mc = 0.0
    for xy in [(0.0, 1.0), (0.5, 1.0), (-0.3, 0.7), (0.2, 1.8), (1.0, 1.0)]:
        x = h2.point(list(xy))
        oracle = rf.exact_semigroup(kernel, f, t, x)
        tree = iterate_tree(spec, HEAT, t, 11, f, x)  # 4^11 < 1e7 leaf budget
        mc = iterate_mc(spec, HEAT, t, 32, f, x, samples=10**6, seed=9181)
        worst_tree = max(worst_tree, abs(tree - oracle))
        mc_err = abs(mc.mean - oracle)
        mc_tol = max(1e-2, 4.0 * mc.stderr)
        worst_mc = max(worst_mc, mc_err / mc_tol)
    ok = worst_tree <= 1e-2 and worst_mc <= 1.0
    return ok, (
        f"max |tree - oracle| = {worst_tree:.2e} (tol 1e-2), "
        f"max mc err / max(1e-2, 4 stderr) = {worst_mc:.2f} (<= 1)"
    )


def _c06():
    spec = _circle_heat_general()
    circ = mf.circle()
    sample = [circ.point([v]) for v in np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)]
    defects = [
        consistency_defect(
            spec, GENERAL, t, _cos, sample, f_grad=_cos_grad, f_hess=_cos_hess
        )
        for t in (0.1, 0.05, 0.025)
    ]
    ratios = [defects[i] / defects[i + 1] for i in range(2)]
    decreasing = defects[0] > defects[1] > defects[2]
    ok = decreasing and all(1.3 <= r <= 2.9 for r in ratios)
    return ok, f"defects {[f'{d:.2e}' for d in defects]}, ratios {[f'{r:.2f}' for r in ratios]}"


def _c07():
    circ = mf.circle()
    spec0 = _circle_heat_general()
    spec_c = fd.GeneratorSpec(
        [fd.frame_field(circ, 1)],
        drift_policy="explicit",
        potential="-1-sin(theta)^2",
    )
    rng = np.random.default_rng(77)
    t = 0.1
    worst_contr = worst_pos = worst_c = 0.0
    for _ in range(200):
        # random oscillation plus a random bias: the bias term makes the
        # check sensitive to any weight-normalization fault
        vals = rng.uniform(0.0, 1.0) * rng.uniform(-1.0, 1.0, 64) + rng.uniform(-2.0, 2.0)
        f0 = GridFunction(circ, vals, interp="linear")
        s0 = iterate_grid(spec0, GENERAL, t, 1, f0)
        worst_contr = max(worst_contr, s0.sup_norm() - f0.sup_norm())
        fpos = GridFunction(circ, np.abs(vals), interp="linear")
        worst_pos = max(worst_pos, -float(iterate_grid(spec0, GENERAL, t, 1, fpos).values.min()))
        sc = iterate_grid(spec_c, GENERAL, t, 1, f0)
        worst_c = max(worst_c, sc.sup_norm() - f0.sup_norm())
    ok = worst_contr <= 1e-12 and worst_pos <= 1e-12 and worst_c <= 1e-12
    return ok, (
        f"contraction excess {worst_contr:.1e}, negativity {worst_pos:.1e}, "
        f"with c: excess {worst_c:.1e} (all tol 1e-12)"
    )


def _c08():
    e1 = mf.euclidean(1)
    quad = _euclid_quadratic_spec()
    heat = _circle_heat_general()
    circ = mf.circle()
    fsq = lambda c: c[:, 0] ** 2
    worst = 0.0
    lines = []
    for n in (2, 3, 4, 5):
        tree = iterate_tree(quad, GENERAL, 1.0, n, fsq, e1.point([0.0]))
        est = wk.estimate_expectation(quad, fsq, e1.point([0.0]), 1.0, n, 10**6, seed=31 + n)
        z1 = abs(est.mean_f - tree) / est.stderr_f
        tree2 = iterate_tree(heat, GENERAL, 1.0, n, _cos, circ.point([0.7]))
        est2 = wk.estimate_expectation(heat, _cos, circ.point([0.7]), 1.0, n, 10**6, seed=63 + n)
        z2 = abs(est2.mean_f - tree2) / est2.stderr_f
        worst = max(worst, z1, z2)
        lines.append(f"n={n}: z=({z1:.2f},{z2:.2f})")
    return worst <= 4.0, f"max |mean - tree| / stderr = {worst:.2f} (<= 4); " + " ".join(lines)


_KS_N_SAMPLES = 50_000


def _heat_walk_ks(n: int, seed: int) -> float:
    e1 = mf.euclidean(1)
    spec = _euclid_quadratic_spec()
    pts = wk.walk_endpoints(spec, e1.point([0.0]), 1.0, n, _KS_N_SAMPLES, seed=seed)
    return wk.ks_distance_to(ndtr, pts[:, 0])


def _c09a():
    ks64 = _heat_walk_ks(64, seed=505)
    lattice = math.comb(128, 64) / 4**64 / 2.0
    return ks64 <= 0.02, (
        f"KS(n=64) = {ks64:.4f} vs threshold 0.02; distributional lower bound "
        f"from the lattice atom is {lattice:.4f}, so 0.02 is unattainable at n=64 "
        f"(it corresponds to n ~ 256)"
    )


def _c09b():
    sigma3 = 3.0 * 0.5 / math.sqrt(_KS_N_SAMPLES)
    ks = {n: _heat_walk_ks(n, seed=505) for n in (8, 32, 128)}
    ok = ks[32] <= ks[8] + sigma3 and ks[128] <= ks[32] + sigma3
    return ok, (
        f"KS schedule {[f'{n}:{v:.4f}' for n, v in ks.items()]} non-increasing "
        f"within 3 sigma = {sigma3:.4f}"
    )


def _c10():
    spec = _circle_heat_general()
    circ = mf.circle()
    x = circ.point([0.3])
    t_max, n = 1.37, 16
    steps = int(math.floor(n * t_max))
    bad = 0
    for seed in range(100):
        pj = wk.sample_jump_path(spec, x, t_max, n, seed=seed)
        pg = wk.sample_geodesic_interp(spec, x, t_max, n, seed=seed)
        pf = wk.sample_flow_interp(spec, x, t_max, n, seed=seed)
        for m in range(steps + 1):
            a = pj.at(m / n)
            if not (np.array_equal(a, pg.at(m / n)) and np.array_equal(a, pf.at(m / n))):
                bad += 1
    return bad == 0, f"{bad} skeleton mismatches over 100 seeds x {steps + 1} instants (bit-exact)"


def _monotonicity(field, starts, T):
    return fw.verify_distance_monotonicity(field, starts, T, 50, m2=1.0)


def _c11a():
    e1 = mf.euclidean(1)
    tanh_field = fd.expression_field(e1, ["tanh(x1)"])
    starts_e = [e1.point([v]) for v in np.linspace(-3.0, 3.0, 100)]
    rep_e = _monotonicity(tanh_field, starts_e, 0.99 * math.log(2.0))
    circ = mf.circle()
    sin_field = fd.expression_field(circ, ["sin(theta)"])
    starts_c = [circ.point([v]) for v in np.linspace(0.0, 2.0 * np.pi, 100, endpoint=False)]
    rep_c = _monotonicity(sin_field, starts_c, 0.99 * math.log(2.0))
    ok = rep_e.violations == 0 and rep_c.violations == 0
    return ok, (
        f"violations: tanh {rep_e.violations}, sin {rep_c.violations} "
        f"(worst decreases {rep_e.worst_decrease:.1e}, {rep_c.worst_decrease:.1e})"
    )


def _c11b():
    circ = mf.circle()
    sin_field = fd.expression_field(circ, ["sin(theta)"])
    starts = [circ.point([v]) for v in np.linspace(0.0, 2.0 * np.pi, 100, endpoint=False)]
    rep = _monotonicity(sin_field, starts, 5.0)
    return rep.violations >= 1, (
        f"control T=5 recorded {rep.violations} decreases; the sin flow is "
        f"monotone toward its fixed point at pi, so the distance never "
        f"decreases for any horizon (a non-vanishing field such as "
        f"2+sin(theta) does violate at T=5; see the unit suite)"
    )


def _c12():
    spec = _circle_heat_general()
    circ = mf.circle()
    sample = [circ.point([v]) for v in np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)]
    ts = (0.1, 0.05, 0.025, 0.0125)
    lit = [
        consistency_defect(spec, ChernoffVariant.DRIFTLESS_LITERAL, t, _cos, sample,
                           f_grad=_cos_grad, f_hess=_cos_hess)
        for t in ts
    ]
    cor = [
        consistency_defect(spec, ChernoffVariant.DRIFTLESS_CORRECTED, t, _cos, sample,
                           f_grad=_cos_grad, f_hess=_cos_hess)
        for t in ts
    ]
    l0_norm = 0.5  # sup |(1/2) d^2 cos| on the circle
    lit_ok = abs(lit[-1] - l0_norm) <= 0.1 * l0_norm
    cor_ok = cor[-1] <= 0.1 * lit[-1] and all(c1 > c2 for c1, c2 in zip(cor, cor[1:]))
    return lit_ok and cor_ok, (
        f"literal defect -> {lit[-1]:.4f} (|L0 f| = {l0_norm}, within 10%), "
        f"corrected defect -> {cor[-1]:.2e} (decreasing to 0)"
    )


@dataclass(frozen=True)
class Criterion:
    cid: str
    description: str
    fn: Callable[[], tuple[bool, str]]
    budget: float           # runtime limit, seconds
    defect: Optional[str] = None  # analysis string for expected failures


CRITERIA: list[Criterion] = [
    Criterion("01-quadratic-exactness", "tree iteration is exact on quadratics", _c01, 1.0),
    Criterion("02-circle-eigenfunction", "cos eigenfunction convergence on S^1", _c02, 10.0),
    Criterion("03-variable-coefficient", "variable field vs finite differences", _c03, 30.0),
    Criterion("04-sphere-overcomplete", "sphere with r=3 > d=2 rotational fields", _c04, 60.0),
    Criterion("05-hyperbolic-pointwise", "H^2 tree/mc vs kernel quadrature", _c05, 120.0),
    Criterion("06-consistency-order", "consistency defect is O(t)", _c06, 5.0),
    Criterion("07-contraction-positivity", "sup-norm contraction and positivity", _c07, 5.0),
    Criterion("08-walk-operator-equivalence", "walk expectations match the tree", _c08, 60.0),
    Criterion(
        "09a-ks-threshold",
        "KS to Normal(0,1) <= 0.02 at n=64",
        _c09a,
        60.0,
        defect=(
            "the endpoint law at n=64 is lattice-supported with an atom of mass "
            "C(128,64)/4^64 ~ 0.070 at 0, forcing KS ~ 0.035 against any "
            "continuous reference; the 0.02 threshold matches n ~ 256"
        ),
    ),
    Criterion("09b-ks-trend", "KS non-increasing across n in {8,32,128}", _c09b, 60.0),
    Criterion("10-skeleton-equality", "three samplers share skeletons bit-exactly", _c10, 5.0),
    Criterion("11a-horizon-no-violations", "no distance decrease inside the horizon", _c11a, 10.0),
    Criterion(
        "11b-violated-control",
        "sin-field control at T=5 records a decrease",
        _c11b,
        10.0,
        defect=(
            "one-dimensional autonomous flows are monotone in the chart and the "
            "sin field's zeros at 0 and pi cap the winding below pi, so its "
            "distance from the start is non-decreasing for every horizon; no "
            "decrease can be recorded at T=5"
        ),
    ),
    Criterion("12-driftless-discrepancy", "literal driftless form is inconsistent", _c12, 5.0),
]


def run_criterion(c: Criterion) -> CriterionResult:
    t0 = time.perf_counter()
    passed, detail = c.fn()
    elapsed = time.perf_counter() - t0
    if elapsed > c.budget:
        passed = False
        detail += f"; RUNTIME {elapsed:.1f}s exceeded budget {c.budget:.0f}s"
    return CriterionResult(
        cid=c.cid,
        description=c.description,
        passed=passed,
        expected_failure=c.defect is not None,
        detail=detail,
        elapsed=elapsed,
        budget=c.budget,
    )


def run_all(filter_substr: Optional[str] = None) -> list[CriterionResult]:
    results = []
    for c in CRITERIA:
        if filter_substr and filter_substr not in c.cid:
            continue
        results.append(run_criterion(c))
    return results
