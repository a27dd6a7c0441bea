import math

import numpy as np
import pytest

import feller as fl
from feller.errors import StepLimitExceededError
from feller.fields import VectorField
from feller.flows import OdeSettings, _rk4_fixed, flow_batch, negate


def exp_series(t: float) -> float:
    # independent high-precision oracle for e^t
    terms, term, k = [1.0], 1.0, 0
    while abs(term) > 1e-20:
        k += 1
        term *= t / k
        terms.append(term)
    return math.fsum(terms)


def linear_field():
    e1 = fl.euclidean(1)
    return fl.expression_field(e1, ["x1"]), e1


# -- integral curves ----------------------------------------------------------------


def test_zero_field_stationary():
    e2 = fl.euclidean(2)
    res = fl.integral_curve(fl.zero_field(e2), e2.point([1.0, -2.0]), 5.0)
    np.testing.assert_array_equal(res.endpoint.coords, [1.0, -2.0])
    assert res.est_error == 0.0


def test_exponential_flow_vs_series():
    A, e1 = linear_field()
    res = fl.integral_curve(A, e1.point([1.0]), 1.0)
    assert res.endpoint.coords[0] == pytest.approx(exp_series(1.0), abs=1e-9)
    assert res.est_error <= 1e-9 * max(1.0, 1.0)
    assert res.steps_taken >= 1


def test_circle_constant_rotation():
    circ = fl.circle()
    A = fl.constant_field(circ, [1.0])
    res = fl.integral_curve(A, circ.point([0.0]), 3.0 * np.pi)
    assert res.endpoint.coords[0] == pytest.approx(np.pi)


def test_t_zero_and_negative():
    A, e1 = linear_field()
    assert fl.integral_curve(A, e1.point([2.0]), 0.0).endpoint.coords[0] == 2.0
    with pytest.raises(ValueError):
        fl.integral_curve(A, e1.point([2.0]), -1.0)


def test_semigroup_law():
    A, e1 = linear_field()
    tol = 1e-9
    settings = OdeSettings(tol=tol)
    mid = fl.integral_curve(A, e1.point([0.5]), 0.6, settings).endpoint
    two_leg = fl.integral_curve(A, mid, 0.7, settings).endpoint.coords[0]
    one_leg = fl.integral_curve(A, e1.point([0.5]), 1.3, settings).endpoint.coords[0]
    assert abs(two_leg - one_leg) <= 10 * tol


def test_time_reversal():
    e1 = fl.euclidean(1)
    A = fl.expression_field(e1, ["tanh(x1)"])
    tol = 1e-9
    settings = OdeSettings(tol=tol)
    fwd = fl.integral_curve(A, e1.point([0.3]), 1.0, settings).endpoint
    back = fl.integral_curve(negate(A), fwd, 1.0, settings).endpoint.coords[0]
    assert abs(back - 0.3) <= 10 * tol


def test_rk4_richardson_order():
    A, e1 = linear_field()
    exact = exp_series(1.0)
    errs = []
    for steps in (10, 20):
        end = _rk4_fixed(A, np.array([[1.0]]), 1.0, steps)
        errs.append(abs(end[0, 0] - exact))
    ratio = errs[0] / errs[1]
    assert 12.0 <= ratio <= 20.0


def test_step_limit_exceeded():
    e1 = fl.euclidean(1)
    A = fl.expression_field(e1, ["x1^2"])  # blows up in finite time from x=1
    with pytest.raises(StepLimitExceededError):
        fl.integral_curve(A, e1.point([1.0]), 2.0, OdeSettings(max_steps=2000))


def test_half_plane_domain_guard():
    h2 = fl.hyperbolic_h2()
    A = fl.constant_field(h2, [0.0, -1.0])
    with pytest.raises(StepLimitExceededError):
        fl.integral_curve(A, h2.point([0.0, 0.5]), 1.0)


def test_flow_batch_matches_integral_curve():
    e1 = fl.euclidean(1)
    A = fl.expression_field(e1, ["tanh(x1)"])
    starts = np.linspace(-2.0, 2.0, 7)[:, None]
    batch = flow_batch(A, starts, 0.9, OdeSettings(tol=1e-12))
    for s, b in zip(starts, batch):
        res = fl.integral_curve(A, e1.point(s), 0.9, OdeSettings(tol=1e-12))
        assert b[0] == pytest.approx(res.endpoint.coords[0], abs=1e-10)


def test_analytic_flows_match_integrator(rng):
    # frame-field flows on H2 carry exact formulas; cross-check vs RK paths
    h2 = fl.hyperbolic_h2()
    for k in (1, 2):
        A = fl.frame_field(h2, k)
        rk_field = VectorField(h2, A.comps)  # flow formula withheld
        starts = h2.random_points(10, rng)
        exact = flow_batch(A, starts, 0.7)
        numeric = flow_batch(rk_field, starts, 0.7, OdeSettings(tol=1e-12))
        np.testing.assert_allclose(numeric, exact, atol=1e-9)
    s2 = fl.sphere2()
    L2 = fl.rotational_field(s2, 2)
    rk_field = VectorField(s2, L2.comps)
    starts = s2.random_points(10, rng)
    np.testing.assert_allclose(
        flow_batch(rk_field, starts, 1.1, OdeSettings(tol=1e-12)),
        flow_batch(L2, starts, 1.1),
        atol=1e-9,
    )


# -- monotone-distance horizon -------------------------------------------------------


def test_horizon_values():
    assert fl.monotone_distance_horizon(1.0, 1) == pytest.approx(math.log(2.0))
    assert fl.monotone_distance_horizon(2.0, 1) == pytest.approx(math.log(2.0) / 2.0)
    assert fl.monotone_distance_horizon(1.0, 4) == pytest.approx(0.5 * math.log(1.25))


def test_horizon_rejects_bad_input():
    with pytest.raises(ValueError):
        fl.monotone_distance_horizon(0.0, 1)
    with pytest.raises(ValueError):
        fl.monotone_distance_horizon(-1.0, 2)
    with pytest.raises(ValueError):
        fl.monotone_distance_horizon(1.0, 0)


def test_monotonicity_zero_field():
    e1 = fl.euclidean(1)
    rep = fl.verify_distance_monotonicity(
        fl.zero_field(e1), [e1.point([0.3])], 1.0, 20
    )
    assert rep.violations == 0 and rep.worst_decrease == 0.0


def test_monotonicity_tanh_within_horizon():
    e1 = fl.euclidean(1)
    A = fl.expression_field(e1, ["tanh(x1)"])
    starts = [e1.point([v]) for v in np.linspace(-3.0, 3.0, 100)]
    rep = fl.verify_distance_monotonicity(A, starts, 0.99 * math.log(2.0), 50, m2=1.0)
    assert rep.violations == 0
    assert rep.within_horizon


def test_monotonicity_sin_within_horizon():
    circ = fl.circle()
    A = fl.expression_field(circ, ["sin(theta)"])
    starts = [circ.point([v]) for v in np.linspace(0, 2 * np.pi, 100, endpoint=False)]
    rep = fl.verify_distance_monotonicity(A, starts, 0.99 * math.log(2.0), 50, m2=1.0)
    assert rep.violations == 0


def test_monotonicity_detects_wraparound():
    # power check: a non-vanishing circle field circulates, so the distance
    # from the start must decrease once the winding passes pi
    circ = fl.circle()
    A = fl.expression_field(circ, ["2+sin(theta)"])
    starts = [circ.point([v]) for v in np.linspace(0, 2 * np.pi, 20, endpoint=False)]
    rep = fl.verify_distance_monotonicity(A, starts, 5.0, 50, m2=1.0)
    assert rep.violations >= 1
    assert rep.worst_decrease > 0.1
    assert rep.within_horizon is False


def test_monotonicity_random_bounded_fields(rng):
    # fields built from tanh/sin compositions with known chart bound M2
    e1 = fl.euclidean(1)
    circ = fl.circle()
    for i in range(20):
        a = rng.uniform(0.2, 2.0)
        b = rng.uniform(0.2, 2.0)
        c = rng.uniform(-1.0, 1.0)
        if i % 2 == 0:
            field = fl.expression_field(e1, [f"{a}*tanh({b}*x1+{c})"])
            starts = [e1.point([v]) for v in rng.uniform(-3, 3, 25)]
        else:
            b = float(max(1, round(b)))
            field = fl.expression_field(circ, [f"{a}*sin({b}*theta+{c})"])
            starts = [circ.point([v]) for v in rng.uniform(0, 2 * np.pi, 25)]
        m2 = a * b
        T = 0.99 * fl.monotone_distance_horizon(m2, 1)
        rep = fl.verify_distance_monotonicity(field, starts, T, 40, m2=m2)
        assert rep.violations == 0, (i, a, b, c)


def test_ode_settings_validation():
    with pytest.raises(ValueError):
        OdeSettings(tol=0.0)
    with pytest.raises(ValueError):
        OdeSettings(max_steps=0)
