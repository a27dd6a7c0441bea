import math
from fractions import Fraction

import numpy as np
import pytest

import feller as fl
from feller.chernoff import ChernoffVariant as CV
from feller.chernoff import branch_moves
from feller.errors import BudgetExceededError, VariantIncompatibleError
from feller.grids import GridFunction


def quad_spec():
    e1 = fl.euclidean(1)
    return fl.GeneratorSpec([fl.constant_field(e1, [1.0])]), e1


def circle_heat():
    circ = fl.circle()
    return fl.GeneratorSpec([fl.frame_field(circ, 1)], drift_policy="explicit"), circ


def cos_grid(n, interp="cubic"):
    return GridFunction.from_function(fl.circle(), n, lambda c: np.cos(c[:, 0]), interp)


# -- branch sets --------------------------------------------------------------------


@pytest.mark.parametrize("variant", list(CV))
def test_branch_set_at_time_zero(variant):
    spec, circ = circle_heat()
    x = circ.point([1.2])
    bs = fl.branch_set(spec, variant, 0.0, x)
    for p in bs.points:
        assert p.coords[0] == pytest.approx(1.2, abs=1e-15)
    assert math.fsum(bs.weights) == 1.0


def test_branch_set_general_euclid():
    spec, e1 = quad_spec()
    bs = fl.branch_set(spec, CV.GENERAL, 0.5, e1.point([2.0]))
    got = sorted((p.coords[0], w) for p, w in zip(bs.points, bs.weights))
    assert got == [(1.0, 0.25), (2.0, 0.5), (3.0, 0.25)]
    assert bs.potential_term == 0.0


def test_branch_set_heat_geodesic_circle():
    spec, circ = circle_heat()
    bs = fl.branch_set(spec, CV.HEAT_GEODESIC, 0.25, circ.point([1.0]))
    got = sorted(p.coords[0] for p in bs.points)
    np.testing.assert_allclose(got, [0.5, 1.5])
    np.testing.assert_array_equal(bs.weights, [0.5, 0.5])


@pytest.mark.parametrize("r", [1, 2, 3, 5])
def test_weights_exact_rationals(r):
    e = fl.euclidean(1)
    spec = fl.GeneratorSpec([fl.constant_field(e, [float(k + 1)]) for k in range(r)])
    for variant in (CV.GENERAL, CV.DRIFTLESS_CORRECTED, CV.DRIFTLESS_LITERAL):
        weights = [br.weight for br in branch_moves(spec, variant)]
        assert sum(weights) == Fraction(1)
        assert math.fsum(float(w) for w in weights) == 1.0


def test_driftless_variants_reject_drift_and_potential():
    circ = fl.circle()
    derived = fl.GeneratorSpec([fl.frame_field(circ, 1)], drift_policy="derived")
    with pytest.raises(VariantIncompatibleError):
        branch_moves(derived, CV.DRIFTLESS_LITERAL)
    with_c = fl.GeneratorSpec([fl.frame_field(circ, 1)], potential="-1")
    with pytest.raises(VariantIncompatibleError):
        branch_moves(with_c, CV.DRIFTLESS_CORRECTED)
    with pytest.raises(VariantIncompatibleError):
        branch_moves(with_c, CV.HEAT_GEODESIC)


def test_heat_geodesic_needs_parallelizable():
    s2 = fl.sphere2()
    spec = fl.GeneratorSpec([fl.rotational_field(s2, k) for k in (1, 2, 3)])
    with pytest.raises(VariantIncompatibleError):
        branch_moves(spec, CV.HEAT_GEODESIC)


# -- single application -------------------------------------------------------------


def test_apply_S_normalizes_constants():
    spec, circ = circle_heat()
    one = lambda c: np.ones(c.shape[0])
    for t in (0.0, 0.2, 2.0):
        assert fl.apply_S(spec, CV.GENERAL, t, one, circ.point([0.4])) == 1.0


def test_apply_S_quadratic_identity():
    spec, e1 = quad_spec()
    f = lambda c: c[:, 0] ** 2
    for t in (0.1, 0.5, 2.0):
        for x in (-1.0, 0.0, 0.7):
            got = fl.apply_S(spec, CV.GENERAL, t, f, e1.point([x]))
            assert got == pytest.approx(x * x + t, abs=1e-14)


def test_apply_S_heat_geodesic_cos():
    spec, circ = circle_heat()
    f = lambda c: np.cos(c[:, 0])
    for t in (0.04, 0.25, 1.0):
        got = fl.apply_S(spec, CV.HEAT_GEODESIC, t, f, circ.point([0.7]))
        assert got == pytest.approx(math.cos(0.7) * math.cos(math.sqrt(t)), abs=1e-14)


# -- exact tree ----------------------------------------------------------------------


def test_tree_single_step_equals_apply_S():
    spec, circ = circle_heat()
    f = lambda c: np.cos(c[:, 0])
    x = circ.point([0.3])
    assert fl.iterate_tree(spec, CV.GENERAL, 0.4, 1, f, x) == pytest.approx(
        fl.apply_S(spec, CV.GENERAL, 0.4, f, x), abs=1e-15
    )


def test_tree_quadratic_telescopes():
    spec, e1 = quad_spec()
    f = lambda c: c[:, 0] ** 2
    for n in (1, 2, 4, 8):
        got = fl.iterate_tree(spec, CV.GENERAL, 0.7, n, f, e1.point([0.4]))
        assert got == pytest.approx(0.4**2 + 0.7, abs=1e-12)


def test_tree_heat_geodesic_closed_form():
    spec, circ = circle_heat()
    f = lambda c: np.cos(c[:, 0])
    got = fl.iterate_tree(spec, CV.HEAT_GEODESIC, 1.0, 4, f, circ.point([0.9]))
    want = math.cos(0.9) * math.cos(0.5) ** 4
    assert got == pytest.approx(want, abs=1e-13)


def test_tree_budget_guard():
    spec, circ = circle_heat()
    f = lambda c: np.cos(c[:, 0])
    with pytest.raises(BudgetExceededError):
        fl.iterate_tree(spec, CV.GENERAL, 1.0, 40, f, circ.point([0.0]), budget=10**6)


def test_tree_with_potential_matches_direct_composition():
    circ = fl.circle()
    spec = fl.GeneratorSpec(
        [fl.frame_field(circ, 1)], drift_policy="explicit", potential="-1-sin(theta)^2"
    )
    f = lambda c: np.cos(c[:, 0])
    x = circ.point([0.5])
    t = 0.4
    # reference: apply S(t/2) twice through the functional composition
    g = lambda c: np.array(
        [fl.apply_S(spec, CV.GENERAL, t / 2, f, circ.point([v])) for v in c[:, 0]]
    )
    want = fl.apply_S(spec, CV.GENERAL, t / 2, g, x)
    got = fl.iterate_tree(spec, CV.GENERAL, t, 2, f, x)
    assert got == pytest.approx(want, abs=1e-12)


# -- grid strategy ---------------------------------------------------------------------


def test_grid_preserves_constants():
    spec, circ = circle_heat()
    g0 = GridFunction(circ, np.full(64, 3.25), interp="cubic")
    out = fl.iterate_grid(spec, CV.GENERAL, 1.0, 57, g0)
    np.testing.assert_allclose(out.values, 3.25, atol=1e-12)


def test_grid_identity_at_time_zero():
    spec, circ = circle_heat()
    g0 = cos_grid(64)
    out = fl.iterate_grid(spec, CV.GENERAL, 0.0, 1, g0)
    np.testing.assert_array_equal(out.values, g0.values)


def test_grid_circle_closed_form():
    spec, circ = circle_heat()
    g0 = cos_grid(512)
    out = fl.iterate_grid(spec, CV.HEAT_GEODESIC, 1.0, 128, g0)
    theta = g0.node_coords()[:, 0]
    want = np.cos(theta) * math.cos(math.sqrt(1.0 / 128)) ** 128
    assert np.abs(out.values - want).max() <= 1e-6


def test_grid_torus_factorizes():
    torus = fl.torus2()
    spec = fl.GeneratorSpec(
        [fl.frame_field(torus, 1), fl.frame_field(torus, 2)], drift_policy="explicit"
    )
    f = lambda c: np.cos(c[:, 0])
    g0 = GridFunction.from_function(torus, (256, 256), f, interp="cubic")
    out = fl.iterate_grid(spec, CV.HEAT_GEODESIC, 1.0, 128, g0)
    # uniform in theta2
    assert np.abs(out.values - out.values[:, :1]).max() <= 1e-12
    # matches the angle-addition closed form: each sweep multiplies the
    # first-axis cosine by (1 + cos(sqrt(2 t / n))) / 2
    theta1 = 2 * np.pi * np.arange(256) / 256
    factor = 0.5 * (1.0 + math.cos(math.sqrt(2.0 / 128)))
    want = np.cos(theta1) * factor**128
    assert np.abs(out.values[:, 0] - want).max() <= 1e-6
    # and agrees with the circle run of the general variant (same branch law)
    cspec, circ = circle_heat()
    cg = fl.iterate_grid(cspec, CV.GENERAL, 1.0, 128, cos_grid(256))
    assert np.abs(out.values[:, 0] - cg.values).max() <= 2e-6


def test_grid_coarse_displacement_warns():
    spec, circ = circle_heat()
    g0 = cos_grid(64, interp="linear")
    with pytest.warns(UserWarning, match="displacement"):
        fl.iterate_grid(spec, CV.HEAT_GEODESIC, 1e-6, 1, g0)


def test_grid_requires_matching_manifold():
    spec, _ = quad_spec()
    with pytest.raises(VariantIncompatibleError):
        fl.iterate_grid(spec, CV.GENERAL, 0.1, 1, cos_grid(64))


# -- monte-carlo strategy ------------------------------------------------------------------


def test_mc_constant_function():
    spec, circ = circle_heat()
    one = lambda c: np.ones(c.shape[0])
    est = fl.iterate_mc(spec, CV.GENERAL, 1.0, 4, one, circ.point([0.0]), 64, seed=1)
    assert est.mean == 1.0 and est.stderr == 0.0


def test_mc_matches_tree_quadratic():
    spec, e1 = quad_spec()
    f = lambda c: c[:, 0] ** 2
    est = fl.iterate_mc(spec, CV.GENERAL, 1.0, 8, f, e1.point([0.0]), 10**5, seed=71)
    assert abs(est.mean - 1.0) <= 4.0 * est.stderr


@pytest.mark.parametrize("n", [1, 2, 5])
def test_mc_unbiased_vs_tree(n):
    spec, circ = circle_heat()
    f = lambda c: np.cos(c[:, 0])
    x = circ.point([0.7])
    tree = fl.iterate_tree(spec, CV.GENERAL, 1.0, n, f, x)
    est = fl.iterate_mc(spec, CV.GENERAL, 1.0, n, f, x, 2 * 10**5, seed=13 + n)
    assert abs(est.mean - tree) <= 4.0 * est.stderr


def test_mc_deterministic_per_seed():
    spec, circ = circle_heat()
    f = lambda c: np.cos(c[:, 0])
    a = fl.iterate_mc(spec, CV.GENERAL, 1.0, 6, f, circ.point([0.2]), 5000, seed=3)
    b = fl.iterate_mc(spec, CV.GENERAL, 1.0, 6, f, circ.point([0.2]), 5000, seed=3)
    c = fl.iterate_mc(spec, CV.GENERAL, 1.0, 6, f, circ.point([0.2]), 5000, seed=4)
    assert a.mean == b.mean and a.stderr == b.stderr
    assert a.mean != c.mean


# -- strategy agreement ----------------------------------------------------------------------


def test_strategies_agree_on_circle():
    spec, circ = circle_heat()
    f = lambda c: np.cos(c[:, 0])
    n = 6
    g0 = cos_grid(512)
    grid = fl.iterate_grid(spec, CV.HEAT_GEODESIC, 1.0, n, g0)
    node_idx = 37
    x = circ.point(g0.node_coords()[node_idx])
    tree = fl.iterate_tree(spec, CV.HEAT_GEODESIC, 1.0, n, f, x)
    assert abs(grid.values[node_idx] - tree) <= 1e-5
    mc = fl.iterate_mc(spec, CV.HEAT_GEODESIC, 1.0, n, f, x, 10**5, seed=8)
    assert abs(mc.mean - tree) <= 4.0 * mc.stderr


# -- contraction / positivity ------------------------------------------------------------------


def test_contraction_and_positivity_linear_grid(rng):
    spec, circ = circle_heat()
    for _ in range(25):
        vals = rng.uniform(-1.0, 1.0, 64)
        f0 = GridFunction(circ, vals, interp="linear")
        out = fl.iterate_grid(spec, CV.GENERAL, 0.3, 1, f0)
        assert out.sup_norm() <= f0.sup_norm() + 1e-12
        pos = fl.iterate_grid(spec, CV.GENERAL, 0.3, 1, f0.with_values(np.abs(vals)))
        assert pos.values.min() >= -1e-12


def test_bounded_potential_growth(rng):
    # with general bounded c the family satisfies |S(t)f| <= e^{t sup|c|} |f|
    circ = fl.circle()
    spec = fl.GeneratorSpec(
        [fl.frame_field(circ, 1)], drift_policy="explicit",
        potential="sin(theta)", feller=False,
    )
    t = 0.25
    bound = math.exp(t * 1.0)
    for _ in range(20):
        vals = rng.uniform(-1.0, 1.0, 64)
        f0 = GridFunction(circ, vals, interp="linear")
        out = fl.iterate_grid(spec, CV.GENERAL, t, 1, f0)
        assert out.sup_norm() <= bound * f0.sup_norm() + 1e-12


# -- consistency defect ---------------------------------------------------------------------


def cos_triplet():
    return (
        lambda c: np.cos(c[:, 0]),
        lambda c: -np.sin(c[:, 0])[:, None],
        lambda c: -np.cos(c[:, 0])[:, None, None],
    )


def sample_circle(n=48):
    circ = fl.circle()
    return [circ.point([v]) for v in np.linspace(0, 2 * np.pi, n, endpoint=False)]


def test_defect_constant_function():
    spec, circ = circle_heat()
    one = lambda c: np.ones(c.shape[0])
    zero = lambda c: np.zeros(c.shape[0] * 1).reshape(c.shape[0], 1)
    zero_h = lambda c: np.zeros((c.shape[0], 1, 1))
    for t in (0.01, 0.1, 1.0):
        d = fl.consistency_defect(spec, CV.GENERAL, t, one, sample_circle(),
                                  f_grad=zero, f_hess=zero_h)
        assert d <= 1e-12


def test_defect_quadratic_exact():
    spec, e1 = quad_spec()
    f = lambda c: c[:, 0] ** 2
    grad = lambda c: 2.0 * c
    hess = lambda c: np.full((c.shape[0], 1, 1), 2.0)
    pts = [e1.point([v]) for v in np.linspace(-2, 2, 9)]
    for t in (0.01, 0.1, 1.0):
        d = fl.consistency_defect(spec, CV.GENERAL, t, f, pts, f_grad=grad, f_hess=hess)
        assert d <= 1e-10


def test_defect_decreases_linearly():
    spec, _ = circle_heat()
    f, grad, hess = cos_triplet()
    defects = [
        fl.consistency_defect(spec, CV.GENERAL, t, f, sample_circle(),
                              f_grad=grad, f_hess=hess)
        for t in (0.1, 0.05, 0.025)
    ]
    assert defects[0] > defects[1] > defects[2]
    for a, b in zip(defects, defects[1:]):
        assert 1.3 <= a / b <= 2.9


def test_driftless_literal_vs_corrected():
    spec, _ = circle_heat()
    f, grad, hess = cos_triplet()
    lit = fl.consistency_defect(spec, CV.DRIFTLESS_LITERAL, 0.01, f, sample_circle(),
                                f_grad=grad, f_hess=hess)
    cor = fl.consistency_defect(spec, CV.DRIFTLESS_CORRECTED, 0.01, f, sample_circle(),
                                f_grad=grad, f_hess=hess)
    assert abs(lit - 0.5) <= 0.05   # converges to |L0 f| = 1/2, not to 0
    assert cor <= 1e-3              # consistent variant
