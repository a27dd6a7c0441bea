import math
import warnings

import numpy as np
import pytest

import feller as fl
from feller.errors import StepLimitExceededError
from feller.fields import VectorField
from feller import flows
from feller.cli import main
from feller.flows import DEFAULT_ODE, OdeSettings, _integrate, _rk4_fixed, flow_batch


def negate(A: VectorField) -> VectorField:
    """The field -A, built from A's components, jacobian and exact flow: the
    reference that a flow of A for -t is checked against."""
    flow = None if A.flow is None else (lambda c, t: A.flow(c, -t))
    return VectorField(
        A.manifold,
        lambda c: -A._comps(np.atleast_2d(c)),
        jacobian=(lambda c: -A.jacobian(np.atleast_2d(c))) if A.jacobian else None,
        flow=flow,
        name=f"-({A.name})",
        is_zero=A.is_zero,
        divergence_free=A.divergence_free,
    )


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


def curve(A, start, t, ode=DEFAULT_ODE):
    """(endpoint, RK4 steps, Richardson estimate) of the flow of A from one
    start: one row of ``_integrate``."""
    out, steps, err = _integrate(A, np.array([start], dtype=float), t, ode)
    return out[0], int(steps[0]), float(err[0])


# -- integral curves ----------------------------------------------------------------


def test_zero_field_stationary():
    e2 = fl.euclidean(2)
    end, _, err = curve(fl.zero_field(e2), [1.0, -2.0], 5.0)
    np.testing.assert_array_equal(end, [1.0, -2.0])
    assert err == 0.0


@pytest.mark.parametrize("name", ["circle", "sphere2"])
def test_zero_field_returns_its_rows_untouched(name, rng):
    # no wrap either: off-chart angles stay, and sphere points are not renormalised
    m = fl.manifold_from_string(name)
    rows = m.random_points(50, rng) * (1.0 + 1e-12) + (7.0 if name == "circle" else 0.0)
    for t in (0.0, 0.7, np.linspace(-1.0, 1.0, 50)):
        assert flow_batch(fl.zero_field(m), rows, t).tobytes() == rows.tobytes()


def test_exponential_flow_vs_series():
    A, _ = linear_field()
    end, steps, err = curve(A, [1.0], 1.0)
    assert end[0] == pytest.approx(exp_series(1.0), abs=1e-9)
    assert err <= 1e-9 * max(1.0, 1.0)
    assert steps >= 1


def test_circle_constant_rotation():
    circ = fl.circle()
    A = fl.constant_field(circ, [1.0])
    assert curve(A, [0.0], 3.0 * np.pi)[0][0] == pytest.approx(np.pi)


def test_t_zero_and_negative():
    A, _ = linear_field()
    assert curve(A, [2.0], 0.0)[0][0] == 2.0
    # a negative time flows backwards; a time that is not finite is refused
    assert curve(A, [2.0], -1.0)[0][0] == pytest.approx(2.0 / exp_series(1.0), abs=1e-9)
    circ = fl.circle()
    B = fl.expression_field(circ, ["1+0.5*sin(theta)"])
    for t in (math.nan, math.inf):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused before any RK4 step on NaN
            with pytest.raises(ValueError, match="t must be finite"):
                curve(B, [0.3], t)


def test_semigroup_law():
    A, _ = linear_field()
    tol = 1e-9
    settings = OdeSettings(tol=tol)
    mid = curve(A, [0.5], 0.6, settings)[0]
    two_leg = curve(A, mid, 0.7, settings)[0][0]
    one_leg = curve(A, [0.5], 1.3, settings)[0][0]
    assert abs(two_leg - one_leg) <= 10 * tol


def test_time_reversal():
    e1 = fl.euclidean(1)
    A = fl.expression_field(e1, ["tanh(x1)"])
    tol = 1e-9
    settings = OdeSettings(tol=tol)
    fwd = curve(A, [0.3], 1.0, settings)[0]
    back = curve(negate(A), fwd, 1.0, settings)[0][0]
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
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow warning escapes a checked pass
        with pytest.raises(StepLimitExceededError, match="left the chart or diverged"):
            curve(A, [1.0], 2.0, OdeSettings(max_steps=2000))


def test_half_plane_domain_guard():
    h2 = fl.hyperbolic_h2()
    A = fl.constant_field(h2, [0.0, -1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StepLimitExceededError, match="hyperbolic-h2: .* left the chart"):
            curve(A, [0.0, 0.5], 1.0)


def test_flow_batch_matches_integral_curve():
    e1 = fl.euclidean(1)
    A = fl.expression_field(e1, ["tanh(x1)"])
    starts = np.linspace(-2.0, 2.0, 7)[:, None]
    batch = flow_batch(A, starts, 0.9, OdeSettings(tol=1e-12))
    for s, b in zip(starts, batch):
        end = curve(A, s, 0.9, OdeSettings(tol=1e-12))[0]
        assert b[0] == pytest.approx(end[0], abs=1e-10)


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


@pytest.fixture
def pass_steps(monkeypatch):
    """The step count of every RK4 pass run while the test runs, each count of a
    stacked batch in the order the batch was asked for."""
    seen = []
    run = flows._rk4_passes

    def recording(A, coords, t, counts):
        seen.extend(counts)
        return run(A, coords, t, counts)

    monkeypatch.setattr(flows, "_rk4_passes", recording)
    return seen


@pytest.mark.parametrize("max_steps, passes", [(48, [1, 2, 4, 8, 16, 32]), (20, [1, 2, 4, 8, 16])])
def test_max_steps_is_never_exceeded(max_steps, passes, pass_steps):
    # x' = x^2 from 0.5 needs a 64-step fine pass for tol 1e-9 at t = 1
    e1 = fl.euclidean(1)
    A = fl.expression_field(e1, ["x1^2"])
    with pytest.raises(StepLimitExceededError, match="exceed max_steps"):
        curve(A, [0.5], 1.0, OdeSettings(max_steps=max_steps))
    assert pass_steps == passes
    pass_steps.clear()
    _, steps, err = curve(A, [0.5], 1.0, OdeSettings(max_steps=64))
    assert steps == 64 and err <= 1e-9
    assert pass_steps == [1, 2, 4, 8, 16, 32, 64]


def test_max_steps_needs_a_coarse_and_a_fine_pass():
    with pytest.raises(ValueError):
        OdeSettings(max_steps=3)
    # passes of 1, 2 and 4 steps: a row can be kept at the limit
    circ = fl.circle()
    A = fl.field_from_string(circ, "custom:1+0.3*sin(theta)")
    assert curve(A, [1.0], 0.25, OdeSettings(max_steps=4))[1] == 4
    assert main(["chernoff", "run", "--ode-max-steps", "3"]) == 2


def test_a_row_is_kept_only_once_its_estimate_falls_at_fourth_order():
    # at 8 steps this row's estimate (9.5e-10) meets tol while its true error is
    # 10.7 tol; the estimate before it (5.3e-7) shows the passes are not yet
    # asymptotic, so the row goes on to 16 steps
    circ = fl.circle()
    A = fl.field_from_string(circ, "custom:1+0.99*sin(5*theta)")
    start = np.array([[0.87249094]])
    end, steps, _ = curve(A, start[0], 1.0)
    ref = circ.wrap(_rk4_fixed(A, start, 1.0, 16384))[0, 0]
    assert steps >= 16
    assert abs(end[0] - ref) <= DEFAULT_ODE.tol


@pytest.mark.parametrize("case", ["circle-rk4", "h2-rk4", "sphere-rk4"])
def test_each_kept_row_is_one_fixed_pass_of_its_step_count(case, rng):
    # whatever pass a row is kept at, its endpoint is the bits of a lone
    # fixed-step pass of that many steps
    A = _per_row_cases()[case]
    m = A.manifold
    starts = m.random_points(40, rng)
    times = rng.uniform(-1.0, 1.0, 40)
    out, steps, _ = _integrate(A, starts, times, DEFAULT_ODE)
    assert len(set(steps.tolist())) > 1
    for i, (s, t, n) in enumerate(zip(starts, times, steps)):
        alone = m.wrap(_rk4_fixed(A, s[None, :], np.array([t]), int(n)))
        assert out[i].tobytes() == alone[0].tobytes(), i


def test_walk_rk4_rows_are_kept_at_four_steps():
    # once a row's 1-to-2-step estimate shows the fourth-order fall, its 4-step
    # pass can be kept: most rows of the walk-rk4 field, and every row of its
    # derived drift, which is off by about 1e-13 there
    circ = fl.circle()
    spec = fl.GeneratorSpec([fl.field_from_string(circ, "custom:1+0.3*sin(theta)")],
                            drift_policy="derived")
    starts = np.random.default_rng(0).uniform(0.0, 2.0 * np.pi, (400, 1))
    A = spec.fields[0]
    out, steps, _ = _integrate(A, starts, 0.25, DEFAULT_ODE)
    assert np.mean(steps == 4) >= 0.9
    gap = np.abs(out - circ.wrap(_rk4_fixed(A, starts, 0.25, 16384)))
    assert np.minimum(gap, 2.0 * np.pi - gap).max() <= DEFAULT_ODE.tol
    _, steps, _ = _integrate(spec.drift_field(), starts, 0.0625, DEFAULT_ODE)
    assert (steps == 4).all()


def test_h2_flow_within_three_tol_of_its_closed_form():
    # x' = x/2, y' = -y^3: (x e^{t/2}, 1/sqrt(1/y^2 + 2t)); 6.40 tol when rows
    # were kept on the estimate alone
    h2 = fl.hyperbolic_h2()
    A = fl.field_from_string(h2, "custom:0.5*x,-y^3")
    rng = np.random.default_rng(0)
    starts = np.column_stack([rng.uniform(-2.0, 2.0, 400), rng.uniform(0.5, 2.0, 400)])
    t = 1.0
    exact = np.column_stack([starts[:, 0] * math.exp(t / 2), 1.0 / np.sqrt(1.0 / starts[:, 1] ** 2 + 2 * t)])
    assert np.abs(flow_batch(A, starts, t) - exact).max() <= 3 * DEFAULT_ODE.tol


def test_short_passes_may_leave_the_chart():
    # the 2-, 4- and 8-step passes of y' = -5y^3 from y = 2 reach y <= 0
    h2 = fl.hyperbolic_h2()
    A = fl.field_from_string(h2, "custom:0,-5*y^3")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        end = curve(A, [0.0, 2.0], 1.0)[0]
    assert abs(end[1] - 1.0 / math.sqrt(0.25 + 10.0)) <= DEFAULT_ODE.tol
    B = fl.field_from_string(h2, "custom:0,-exp(y)")
    with pytest.raises(StepLimitExceededError, match="chart"):
        curve(B, [0.0, 2.0], 1.0)


@pytest.mark.parametrize("kw", [
    {"tol": -0.0}, {"tol": -math.inf}, {"tol": -1.0},
    {"tol": 0.0}, {"tol": -1e-9}, {"tol": math.nan},
])
def test_ode_settings_refuse_non_positive_and_nan(kw):
    # tol = nan never converged; -0.0 compares equal to 0.0
    with pytest.raises(ValueError, match="must be > 0"):
        OdeSettings(**kw)


@pytest.mark.parametrize("kw, message", [
    ({"tol": math.inf}, "tol must be > 0 and finite, got inf"),
    ({"max_steps": 100.7}, "max_steps must be an integer, got 100.7"),
    ({"max_steps": math.inf}, "max_steps must be an integer, got inf"),
    ({"max_steps": 64.0}, "max_steps must be an integer, got 64.0"),
    ({"max_steps": True}, "max_steps must be an integer, got True"),
])
def test_ode_settings_refuse_what_they_cannot_honour(kw, message):
    # tol = inf kept the first 8-step pass of every row; max_steps = inf
    # let a row that never meets tol double without a cap
    with pytest.raises(ValueError, match=message):
        OdeSettings(**kw)


@pytest.mark.parametrize("t", [0.3, 1.0])
def test_flow_batch_rows_are_batch_independent(t):
    # a hard row needs 128 steps; in one batch the parent ran every row at 128
    circ = fl.circle()
    A = fl.field_from_string(circ, "custom:1+0.99*sin(5*theta)")
    starts = np.linspace(0.0, 2.0 * np.pi, 200, endpoint=False)[:, None]
    batch = flow_batch(A, starts, t)
    alone = np.concatenate([flow_batch(A, s[None, :], t) for s in starts])
    assert batch.tobytes() == alone.tobytes()


def test_each_row_reports_its_own_steps_and_error():
    circ = fl.circle()
    A = fl.field_from_string(circ, "custom:1+0.99*sin(5*theta)")
    starts = np.linspace(0.0, 2.0 * np.pi, 40, endpoint=False)[:, None]
    _, steps, err = _integrate(A, starts, 1.0, DEFAULT_ODE)
    assert len(set(steps.tolist())) > 1  # rows converge at different passes
    for s, n_steps, e in zip(starts, steps, err):
        assert curve(A, s, 1.0)[1:] == (n_steps, e)
        assert e <= DEFAULT_ODE.tol


def _per_row_cases():
    e2, circ, tor, h2, s2 = (fl.euclidean(2), fl.circle(), fl.torus2(), fl.hyperbolic_h2(),
                             fl.sphere2())
    return {
        "zero": fl.zero_field(e2),
        "euclidean-constant": fl.constant_field(e2, [0.7, -1.3]),
        "euclidean-frame": fl.frame_field(e2, 2),
        "circle-frame": fl.frame_field(circ, 1),
        "torus-constant": fl.constant_field(tor, [2.5, -0.4]),
        "h2-constant": fl.constant_field(h2, [0.3, 0.1]),
        "h2-frame1": fl.frame_field(h2, 1),
        "h2-frame2": fl.frame_field(h2, 2),
        "h2-frame2-negated": negate(fl.frame_field(h2, 2)),
        "sphere-rotational1": fl.rotational_field(s2, 1),
        "sphere-rotational2": fl.rotational_field(s2, 2),
        "sphere-rotational3-negated": negate(fl.rotational_field(s2, 3)),
        "circle-rk4": fl.field_from_string(circ, "custom:1+0.99*sin(5*theta)"),
        "h2-rk4": fl.field_from_string(h2, "custom:y,0.2*x*y"),
        "sphere-rk4": fl.field_from_string(s2, "custom:-y,x,0.3*x*z"),
    }


@pytest.mark.parametrize("case", list(_per_row_cases()))
def test_per_row_times_give_the_bits_of_scalar_calls(case, rng):
    A = _per_row_cases()[case]
    m = A.manifold
    starts = m.random_points(12, rng)
    times = np.concatenate([[0.0, -0.4, 1.3], rng.uniform(-1.0, 1.0, 9)])
    if A.flow is not None:  # the exact flow map itself takes one time per row
        direct = A.flow(starts, times)
        for i in np.flatnonzero(times):
            assert direct[i].tobytes() == A.flow(starts[i : i + 1], times[i])[0].tobytes()
    batch = flow_batch(A, starts, times)
    for i, (s, t) in enumerate(zip(starts, times)):
        assert batch[i].tobytes() == flow_batch(A, s[None, :], float(t))[0].tobytes(), i


@pytest.mark.parametrize("case", list(_per_row_cases()))
def test_negative_times_flow_the_negated_field(case, rng):
    # the -A_j branch of a Chernoff step flows A_j for -tau, and moves the rows of
    # both branches of the pair in one call with one signed time per row
    A = _per_row_cases()[case]
    starts = A.manifold.random_points(12, rng)
    tau = 0.6
    backwards = flow_batch(A, starts, -tau)
    assert backwards.tobytes() == flow_batch(negate(A), starts, tau).tobytes()
    sign = np.where(np.arange(12) % 3 == 0, -1.0, 1.0)
    paired = flow_batch(A, starts, sign * tau)
    back = sign < 0.0
    assert paired[back].tobytes() == flow_batch(A, starts[back], -tau).tobytes()
    assert paired[~back].tobytes() == flow_batch(A, starts[~back], tau).tobytes()


def _doubling_reference(A, start, t, ode):
    """(endpoint, steps, estimate) of one row by the doubling loop with every
    pass its own run of RK4 steps from the start: the reference for the
    stacked first passes."""
    m = A.manifold
    rhs = lambda c: A.comps(m.project(c))

    def fixed(steps):
        h = np.reshape(t, (-1, 1)) / steps
        c = start[None, :].astype(float).copy()
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for _ in range(steps):
                k1 = rhs(c)
                k2 = rhs(c + 0.5 * h * k1)
                k3 = rhs(c + 0.5 * h * k2)
                k4 = rhs(c + h * k3)
                c = m.project(c + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
        if steps >= 16 and not m.in_chart(c).all():
            raise StepLimitExceededError("left the chart")
        return c

    if t == 0.0:
        return m.wrap(start[None, :].copy())[0], 0, 0.0
    tol = ode.tol * max(1.0, abs(t))
    steps, prev, coarse = 1, math.inf, fixed(1)
    while True:
        fine = fixed(2 * steps)
        with np.errstate(invalid="ignore"):
            est = float(np.max(np.abs(fine - coarse)) / 15.0)
        if est <= tol and prev <= max(tol, 32.0 * est) and m.in_chart(fine).all():
            return m.wrap(fine)[0], 2 * steps, est
        if 4 * steps > ode.max_steps:
            raise StepLimitExceededError("exceed max_steps")
        coarse, prev, steps = fine, est, 2 * steps


def _stacked_cases():
    rng = np.random.default_rng(7)
    per_row = _per_row_cases()
    cases = {}
    for name in ("circle-rk4", "h2-rk4", "sphere-rk4"):
        A = per_row[name]
        times = rng.uniform(-1.0, 1.0, 24)
        times[::5] = 0.0
        cases[name] = (A, A.manifold.random_points(24, rng), times)
    circ, h2 = fl.circle(), fl.hyperbolic_h2()
    # kept at 4 steps: every row, either way
    cases["circle-gentle"] = (fl.field_from_string(circ, "custom:1+0.3*sin(theta)"),
                              circ.random_points(16, rng), np.tile([0.0625, -0.0625], 8))
    # the 1-step pass of the first two rows, and the 2-step pass of the second,
    # end below y = 0
    cases["h2-leaves"] = (fl.field_from_string(h2, "custom:0.2*x,-y^2"),
                          np.array([[0.3, 2.0], [-0.1, 4.0], [0.5, 1.0]]),
                          np.array([1.0, 1.0, -0.2]))
    # the 2-step pass of the first two rows overflows to inf, and the second
    # row's 4-step pass ends at NaN
    cases["h2-overflows"] = (fl.field_from_string(h2, "custom:0,-2*y^3"),
                             np.array([[0.3, 2.0], [0.0, 4.0], [0.1, 0.7]]),
                             np.array([1.0, 0.3, 0.5]))
    return cases


@pytest.mark.parametrize("block", [flows._BLOCK_COORDS, 7])
@pytest.mark.parametrize("max_steps", [DEFAULT_ODE.max_steps, 4])
@pytest.mark.parametrize("case", list(_stacked_cases()))
def test_stacked_passes_give_the_bits_of_the_sequential_loop(case, max_steps, block,
                                                            monkeypatch):
    # endpoints, step counts and estimates of every row, in a batch and alone,
    # are those of the loop that runs the 1-, 2- and 4-step passes one by one;
    # at a block of 7 coordinates a batch runs in blocks of 1 to 3 rows
    monkeypatch.setattr(flows, "_BLOCK_COORDS", block)
    A, starts, times = _stacked_cases()[case]
    ode = OdeSettings(max_steps=max_steps)
    want = []
    for s, t in zip(starts, times):
        try:
            want.append(_doubling_reference(A, s, t, ode))
        except StepLimitExceededError:
            want.append(None)
    if max_steps == 4 and case == "circle-gentle":
        assert all(w is not None for w in want)
    batches = [(starts[i : i + 1], times[i : i + 1], want[i : i + 1]) for i in range(len(want))]
    for rows, ts, ws in batches + [(starts, times, want)]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if any(w is None for w in ws):
                with pytest.raises(StepLimitExceededError):
                    _integrate(A, rows, ts, ode)
                continue
            out, steps, est = _integrate(A, rows, ts, ode)
        for i, (end, n, e) in enumerate(ws):
            assert (out[i].tobytes(), steps[i], est[i]) == (end.tobytes(), n, e), (case, i)


def test_a_batch_kept_at_four_steps_calls_its_field_16_times_a_block(monkeypatch):
    # one shared slope at the start, then 3 + 4 + 4 + 4 stages (3R, 2R, R and R
    # rows): 26 row-stages per row where three separate passes took 28 calls
    # and 28 row-stages
    circ = fl.circle()
    calls = []

    def comps(c):
        calls.append(c.shape[0])
        return 1.0 + 0.3 * np.sin(c)

    A = VectorField(circ, comps)
    starts = np.linspace(0.0, 2.0 * np.pi, 50, endpoint=False)[:, None]
    _, steps, _ = _integrate(A, starts, 0.0625, DEFAULT_ODE)
    assert (steps == 4).all()
    assert len(calls) == 16 and sum(calls) == 26 * 50
    # 150 stacked coordinates in blocks of at most 75: two blocks of 25 rows
    monkeypatch.setattr(flows, "_BLOCK_COORDS", 75)
    calls.clear()
    _integrate(A, starts, 0.0625, DEFAULT_ODE)
    assert calls == [25, 75, 75, 75, 50, 50, 50, 50, 25, 25, 25, 25, 25, 25, 25, 25] * 2


@pytest.mark.parametrize("case", ["circle-rk4", "h2-frame2", "sphere-rotational1", "zero"])
def test_flow_batch_refuses_a_time_that_is_not_finite(case, pass_steps):
    # an RK4 field ran every doubling up to 16 steps on NaN, and like an exact
    # flow then reported that the curve had left the chart
    A = _per_row_cases()[case]
    starts = A.manifold.random_points(3, np.random.default_rng(1))
    for t in (math.nan, math.inf, -math.inf, np.array([0.5, math.nan, 0.2])):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="t must be finite"):
                flow_batch(A, starts, t)
    assert pass_steps == []


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


@pytest.mark.parametrize("T, steps, why", [
    (5.0, 0, "steps must be >= 2"),
    (5.0, 1, "steps must be >= 2"),
    (-5.0, 50, "T must be > 0 and finite"),
    (0.0, 50, "T must be > 0 and finite"),
    (math.nan, 50, "T must be > 0 and finite"),
    (math.inf, 50, "T must be > 0 and finite"),
])
def test_monotonicity_refuses_a_sweep_that_checks_nothing(T, steps, why):
    # steps 0 and 1 swept no interval and reported 0 violations where 50
    # steps find 370, and T = -5 reported a horizon of -5, within the stated one
    circ = fl.circle()
    A = fl.expression_field(circ, ["2+sin(theta)"])
    starts = [circ.point([v]) for v in np.linspace(0, 2 * np.pi, 20, endpoint=False)]
    with pytest.raises(ValueError, match=why):
        fl.verify_distance_monotonicity(A, starts, T, steps, m2=1.0)


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
