import math
import warnings

import numpy as np
import pytest

import feller as fl
from feller.errors import IncompatibleBaseError, TruncationBudgetError, VariantIncompatibleError
from feller.grids import GridFunction
from feller.reference import (
    FdSolverSettings,
    HeatKernelId,
    _advection_beta,
    _wrapped_gauss_kernel,
    exact_semigroup,
    exact_semigroup_batch,
    fd_solve,
    h2_heat_kernel,
)

COS = lambda c: np.cos(c[:, 0])


def variable_circle_spec():
    circ = fl.circle()
    return fl.GeneratorSpec(
        [fl.expression_field(circ, ["1+0.3*sin(theta)"])], drift_policy="derived"
    )


# -- closed-form kernels ----------------------------------------------------------


@pytest.mark.parametrize("t", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_exact_semigroup_refuses_a_time_that_is_not_finite_and_positive(t):
    # the parent raised "cannot convert float NaN to integer" for NaN and
    # returned 0.0 for +inf
    k = HeatKernelId.from_string("wrapped-gauss-s1")
    h2 = HeatKernelId.from_string("hyperbolic-h2")
    for call in (
        lambda: exact_semigroup(k, COS, t, np.array([0.3])),
        lambda: exact_semigroup_batch(k, COS, t, np.array([[0.3], [1.0]])),
        lambda: exact_semigroup_batch(h2, COS, t, np.array([[0.0, 1.0]])),
    ):
        with pytest.raises(ValueError, match="requires a finite t > 0"):
            call()


def test_kernel_id_parsing():
    assert HeatKernelId.from_string("gauss-rd:2").d == 2
    assert HeatKernelId.from_string("sphere-harmonics:32").l_max == 32
    with pytest.raises(ValueError):
        HeatKernelId.from_string("sphere-harmonics:4")
    with pytest.raises(ValueError):
        HeatKernelId.from_string("mystery")


def test_wrapped_gauss_eigenfunction():
    k = HeatKernelId.from_string("wrapped-gauss-s1")
    for t in (0.05, 0.3, 1.0):
        for th in (0.0, 0.7, 4.0):
            got = exact_semigroup(k, COS, t, np.array([th]))
            assert got == pytest.approx(math.exp(-t / 2.0) * math.cos(th), abs=1e-11)


def test_wrapped_gauss_truncation_stable():
    # doubling the series range moves the kernel by < 1e-10
    delta = np.linspace(-np.pi, np.pi, 101)
    t = 0.05
    base = _wrapped_gauss_kernel(delta, t)
    k_max = int(math.ceil(6.0 / math.sqrt(t))) + 3
    wide = np.zeros_like(delta)
    for k in range(-2 * k_max, 2 * k_max + 1):
        wide += np.exp(-((delta + 2 * np.pi * k) ** 2) / (2.0 * t))
    wide /= math.sqrt(2 * np.pi * t)
    assert np.abs(base - wide).max() < 1e-10


def test_gauss_rd_second_moment():
    k = HeatKernelId.from_string("gauss-rd:1")
    f = lambda c: c[:, 0] ** 2
    for t in (0.1, 0.7):
        got = exact_semigroup(k, f, t, np.array([0.4]))
        assert got == pytest.approx(0.16 + t, abs=1e-12)


def test_gauss_rd_1d_is_the_gauss_hermite_sum():
    # the d-axis Gauss-Hermite product at d = 1 is the 1-D sum, bit for bit
    u, w = np.polynomial.hermite.hermgauss(64)
    f = lambda c: np.cos(c[:, 0]) + c[:, 0] ** 3
    for x, t in ((0.4, 0.1), (-1.3, 0.7)):
        want = float(w @ f(x + math.sqrt(2.0 * t) * u[:, None]) / math.sqrt(math.pi))
        got = exact_semigroup(HeatKernelId.from_string("gauss-rd:1"), f, t, np.array([x]))
        assert got == want


def test_gauss_rd_2d_product():
    k = HeatKernelId.from_string("gauss-rd:2")
    f = lambda c: np.cos(c[:, 0]) * c[:, 1]
    got = exact_semigroup(k, f, 0.5, np.array([0.3, -1.0]))
    assert got == pytest.approx(math.exp(-0.25) * math.cos(0.3) * (-1.0), abs=1e-12)


def test_torus_product_eigenfunction():
    k = HeatKernelId.from_string("torus-product")
    f = lambda c: np.cos(c[:, 0])
    got = exact_semigroup(k, f, 0.8, np.array([0.6, 2.0]))
    assert got == pytest.approx(math.exp(-0.4) * math.cos(0.6), abs=1e-10)


def test_sphere_harmonics_eigenfunctions():
    k = HeatKernelId.from_string("sphere-harmonics")
    q = np.array([0.3, -0.5, math.sqrt(1 - 0.34)])
    z = lambda c: c[:, 2]
    got = exact_semigroup(k, z, 1.0, q)
    assert got == pytest.approx(math.exp(-1.0) * q[2], abs=1e-10)
    # l = 2 harmonic: eigenvalue of (1/2) Laplacian is -3
    xy = lambda c: c[:, 0] * c[:, 1]
    got2 = exact_semigroup(k, xy, 0.5, q)
    assert got2 == pytest.approx(math.exp(-1.5) * q[0] * q[1], abs=1e-10)


def test_sphere_harmonics_truncation_guard():
    k = HeatKernelId(tag="sphere-harmonics", l_max=8)
    with pytest.raises(TruncationBudgetError):
        exact_semigroup(k, lambda c: c[:, 2], 0.01, np.array([0.0, 0.0, 1.0]))


def h2_kernel_mass(t: float) -> float:
    """int p_t 2 pi sinh(rho) drho over [0, 12 sqrt(t) + 6] by 256-node Gauss-Legendre."""
    rho_max = 12.0 * math.sqrt(t) + 6.0
    nodes, w = np.polynomial.legendre.leggauss(256)
    rho = 0.5 * rho_max * (nodes + 1.0)
    vals = h2_heat_kernel(rho, t) * 2.0 * math.pi * np.sinh(rho)
    return float(vals @ w * 0.5 * rho_max)


def test_h2_kernel_mass():
    # the kernel is a probability density: its mass is 1
    for t in (0.1, 0.25, 1.0):
        assert h2_kernel_mass(t) == pytest.approx(1.0, abs=1e-8)


def test_h2_kernel_decreasing():
    rho = np.array([0.0, 0.5, 1.0, 2.0])
    vals = h2_heat_kernel(rho, 0.3)
    assert np.all(np.diff(vals) < 0.0)
    assert np.all(vals > 0.0)


def mckean_by_quad(rho: float, t: float) -> float:
    """p_t(rho) by ``scipy.integrate.quad`` in u, s = rho + u^2, with no cancellation:
    e^{-s^2/4t} = e^{-rho^2/4t} e^{-(s^2 - rho^2)/4t}, and
    cosh s - cosh rho = u^2 sinh(rho + u^2/2) sinh(u^2/2)/(u^2/2)."""
    from scipy import integrate

    if rho * rho / (4.0 * t) > 600.0:
        return 0.0

    def integrand(u):
        h = 0.5 * u * u
        s = rho + u * u
        sinhc = math.sinh(h) / h if h > 0.0 else 1.0
        return 2.0 * s * math.exp(-(s * s - rho * rho) / (4.0 * t)) / math.sqrt(
            math.sinh(rho + h) * sinhc
        )

    u_max = math.sqrt(math.sqrt(rho * rho + 240.0 * t) - rho)  # the Gaussian at e^-60
    knee = [math.sqrt(rho)] if 0.0 < math.sqrt(rho) < u_max else None
    val, _ = integrate.quad(integrand, 0.0, u_max, epsabs=0.0, epsrel=2e-14, limit=500,
                            points=knee)
    pref = math.sqrt(2.0) * math.exp(-t / 4.0) / (4.0 * math.pi * t) ** 1.5
    return pref * math.exp(-rho * rho / (4.0 * t)) * val


@pytest.mark.parametrize("t", [0.02, 0.05, 0.25, 1.0, 4.0])
def test_h2_kernel_matches_a_cancellation_free_quadrature(t):
    # cosh s - cosh rho cancels near s = rho: an integrand written with it loses
    # up to 5e-7 on this grid (t = 0.05, rho = 3), so the reference avoids it
    rho = np.array([0.0, 1e-13, 1e-6, 1e-3, 0.05, 0.3, 1.0, 3.0, 5.0, 8.0])
    got = h2_heat_kernel(rho, t)
    want = np.array([mckean_by_quad(r, t) for r in rho])
    assert np.all((want == 0.0) == (rho * rho / (4.0 * t) > 600.0))
    np.testing.assert_array_equal(got[want == 0.0], 0.0)
    live = want > 0.0
    assert np.max(np.abs(got[live] - want[live]) / want[live]) <= 1e-12


@pytest.mark.parametrize("t", [500.0, 1000.0])
def test_h2_kernel_at_large_time_overflows_silently(t):
    # far nodes overflow sinh((s + rho)/2) to inf and add 0: no warning
    rho = np.linspace(0.0, math.sqrt(2400.0 * t), 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = h2_heat_kernel(rho, t)
    assert np.all(np.isfinite(got)) and np.all(got >= 0.0) and np.all(np.diff(got) <= 0.0)
    want = np.array([mckean_by_quad(r, t) for r in rho[:2]])
    assert np.max(np.abs(got[:2] - want) / want) <= 1e-12


def test_h2_kernel_raises_when_its_two_rules_disagree(monkeypatch):
    import feller.reference as rf

    monkeypatch.setattr(rf, "_H2_NODES", 4)
    with pytest.raises(TruncationBudgetError, match="4- and 8-node rules disagree"):
        h2_heat_kernel(np.array([0.0, 0.5, 3.0]), 0.25)


def test_h2_semigroup_preserves_constants():
    k = HeatKernelId.from_string("hyperbolic-h2")
    one = lambda c: np.ones(np.atleast_2d(c).shape[0])
    got = exact_semigroup(k, one, 0.5, np.array([0.3, 2.0]))
    assert got == pytest.approx(1.0, abs=1e-9)


def test_exact_semigroup_accepts_grid_input():
    # a grid enters as its interpolant, a function of the coordinates
    k = HeatKernelId.from_string("wrapped-gauss-s1")
    grid = GridFunction.from_function(fl.circle(), 512, COS)
    got = exact_semigroup(k, grid.interpolate, 0.4, np.array([1.1]))
    assert got == pytest.approx(math.exp(-0.2) * math.cos(1.1), abs=1e-8)


@pytest.mark.parametrize("kernel, rows", [
    ("wrapped-gauss-s1", [[0.3], [1.0], [5.9]]),
    ("torus-product", [[0.3, 1.0], [2.0, -1.0], [6.0, 0.1]]),
])
def test_a_periodic_oracle_samples_f_once_per_call(kernel, rows):
    # the grid samples of f serve every row; each row's value is the one it gets alone
    k = HeatKernelId.from_string(kernel)
    calls = []

    def f(c):
        calls.append(len(c))
        return np.cos(c[:, 0]) * np.sin(c[:, -1] + 0.3)

    got = exact_semigroup_batch(k, f, 0.4, np.array(rows))
    assert len(calls) == 1
    one_by_one = np.array([exact_semigroup(k, f, 0.4, np.array(x)) for x in rows])
    assert len(calls) == 1 + len(rows)
    assert got.tobytes() == one_by_one.tobytes()


def test_the_sphere_oracle_builds_its_kernel_once_per_call(monkeypatch):
    import feller.reference as rf

    k = HeatKernelId.from_string("sphere-harmonics")
    rows = np.array([[0.0, 0.0, 1.0], [0.6, 0.0, 0.8], [0.0, -0.8, -0.6]])
    f = lambda c: c[:, 2] + c[:, 0] * c[:, 1]
    one_by_one = np.array([exact_semigroup(k, f, 0.3, x) for x in rows])
    legendre_sum, calls = rf._legendre_sum, []
    monkeypatch.setattr(rf, "_legendre_sum", lambda *a: calls.append(1) or legendre_sum(*a))
    got = exact_semigroup_batch(k, f, 0.3, rows)
    assert len(calls) == 1
    assert got.tobytes() == one_by_one.tobytes()


@pytest.mark.parametrize("kernel, x, why", [
    ("hyperbolic-h2", [0.0, -1.0], "y must be > 0"),
    ("hyperbolic-h2", [0.0, 0.0], "y must be > 0"),
    ("sphere-harmonics", [0.0, 0.0, 2.0], "expected 1"),
    ("wrapped-gauss-s1", [math.nan], "non-finite coordinates"),
])
def test_exact_semigroup_refuses_raw_coordinates_off_the_chart(kernel, x, why):
    from feller.errors import InvalidPointError

    with pytest.raises(InvalidPointError, match=why):
        exact_semigroup(HeatKernelId.from_string(kernel), COS, 0.5, np.array(x))


def test_exact_semigroup_rejects_nonpositive_time():
    k = HeatKernelId.from_string("wrapped-gauss-s1")
    with pytest.raises(ValueError):
        exact_semigroup(k, COS, 0.0, np.array([0.0]))


def test_kernel_chart():
    assert HeatKernelId.from_string("gauss-rd:2").chart() is fl.euclidean(2)
    assert HeatKernelId.from_string("gauss-rd").chart() is fl.euclidean(1)
    assert HeatKernelId.from_string("wrapped-gauss-s1").chart() is fl.circle()
    assert HeatKernelId.from_string("torus-product").chart() is fl.torus2()
    assert HeatKernelId.from_string("sphere-harmonics").chart() is fl.sphere2()
    assert HeatKernelId.from_string("hyperbolic-h2").chart() is fl.hyperbolic_h2()


def test_a_kernel_covers_its_chart_and_gauss_rd_the_flat_tori():
    charts = ["euclidean:1", "euclidean:2", "circle", "torus2", "sphere2", "hyperbolic-h2"]
    for tag, covered in [
        ("gauss-rd:1", {"euclidean:1", "circle"}),
        ("gauss-rd:2", {"euclidean:2", "torus2"}),
        ("wrapped-gauss-s1", {"circle"}),
        ("torus-product", {"torus2"}),
        ("sphere-harmonics", {"sphere2"}),
        ("hyperbolic-h2", {"hyperbolic-h2"}),
    ]:
        kid = HeatKernelId.from_string(tag)
        assert {c for c in charts if kid.covers(fl.manifold_from_string(c))} == covered


@pytest.mark.parametrize("kernel, chart, x", [
    ("sphere-harmonics", "euclidean:3", [0.0, 0.0, 2.0]),
    ("hyperbolic-h2", "torus2", [0.3, 1.0]),
    ("wrapped-gauss-s1", "euclidean:1", [0.3]),
    ("gauss-rd:1", "torus2", [0.3, 0.4]),
], ids=["sphere-harmonics", "hyperbolic-h2", "wrapped-gauss-s1", "gauss-rd"])
def test_exact_semigroup_refuses_a_point_of_a_manifold_it_does_not_cover(kernel, chart, x):
    with pytest.raises(IncompatibleBaseError, match=chart):
        exact_semigroup(HeatKernelId.from_string(kernel), COS, 0.5,
                        fl.manifold_from_string(chart).point(x))


def test_exact_semigroup_takes_a_flat_torus_point_on_gauss_rd():
    # gauss-rd:2 covers torus2: a periodic f flows as it does on R^2
    k = HeatKernelId.from_string("gauss-rd:2")
    x = [0.3, 1.1]
    got = exact_semigroup(k, COS, 0.5, fl.torus2().point(x))
    assert got == exact_semigroup(k, COS, 0.5, fl.euclidean(2).point(x))
    assert got == pytest.approx(math.exp(-0.25) * math.cos(0.3), abs=1e-12)


XY = lambda c: c[:, 0] * c[:, 1]


@pytest.mark.parametrize("kernel, f, x", [
    ("gauss-rd:1", XY, [0.0, 0.0]),
    ("wrapped-gauss-s1", COS, [0.3, 1.0]),
    ("torus-product", COS, [0.3]),
    ("hyperbolic-h2", COS, [0.3, 1.0, 2.0]),
    ("sphere-harmonics", COS, [0.0, 1.0]),
], ids=["gauss-rd", "wrapped-gauss-s1", "torus-product", "hyperbolic-h2", "sphere-harmonics"])
def test_exact_semigroup_refuses_a_point_off_the_kernel_chart(kernel, f, x):
    k = HeatKernelId.from_string(kernel)
    with pytest.raises(ValueError, match="coordinates"):
        exact_semigroup(k, f, 0.5, np.array(x))
    with pytest.raises(ValueError, match="coordinates"):
        exact_semigroup_batch(k, f, 0.5, np.array([x, x]))


# -- finite differences ----------------------------------------------------------------


def test_fd_constants_stationary():
    spec = variable_circle_spec()
    g0 = GridFunction(fl.circle(), np.full(128, 2.5))
    out = fd_solve(spec, g0, 1.0, FdSolverSettings(steps=100))
    np.testing.assert_allclose(out.values, 2.5, atol=1e-10)


def test_fd_circle_heat_eigenfunction():
    circ = fl.circle()
    spec = fl.GeneratorSpec([fl.frame_field(circ, 1)], drift_policy="derived")
    g0 = GridFunction.from_function(circ, 512, COS)
    out = fd_solve(spec, g0, 1.0, FdSolverSettings(steps=200))
    theta = g0.node_coords()[:, 0]
    err = np.abs(out.values - math.exp(-0.5) * np.cos(theta)).max()
    assert err <= 2e-4


def test_fd_second_order_convergence():
    circ = fl.circle()
    spec = fl.GeneratorSpec([fl.frame_field(circ, 1)], drift_policy="derived")
    errs = []
    for nodes, steps in ((64, 25), (128, 50), (256, 100)):
        g0 = GridFunction.from_function(circ, nodes, COS)
        out = fd_solve(spec, g0, 0.25, FdSolverSettings(steps=steps))
        theta = g0.node_coords()[:, 0]
        errs.append(np.abs(out.values - math.exp(-0.125) * np.cos(theta)).max())
    assert 3.0 <= errs[0] / errs[1] <= 5.0
    assert 3.0 <= errs[1] / errs[2] <= 5.0


def test_fd_variable_field_self_convergence():
    spec = variable_circle_spec()
    g0 = GridFunction.from_function(fl.circle(), 512, COS)
    coarse = fd_solve(spec, g0, 0.5, FdSolverSettings(steps=200))
    g1 = GridFunction.from_function(fl.circle(), 1024, COS)
    fine = fd_solve(spec, g1, 0.5, FdSolverSettings(steps=400))
    assert np.abs(fine.values[::2] - coarse.values).max() <= 1e-4


def _volume_weights(g: GridFunction) -> np.ndarray:
    """Riemannian volume per node of a uniform grid on the circle or torus2 (flat)."""
    return np.full(g.values.size, np.prod(2 * np.pi / np.array(g.values.shape)))


def test_fd_mass_conservation():
    spec = variable_circle_spec()
    g0 = GridFunction.from_function(fl.circle(), 256, COS)
    out = fd_solve(spec, g0, 1.0, FdSolverSettings(steps=100))
    w = _volume_weights(g0)
    drift = abs(out.values.ravel() @ w - g0.values.ravel() @ w)
    assert drift <= 1e-8


def test_fd_maximum_principle(rng):
    circ = fl.circle()
    spec = fl.GeneratorSpec(
        [fl.expression_field(circ, ["1+0.3*sin(theta)"])],
        drift_policy="derived",
        potential="-1-sin(theta)^2",
    )
    vals = np.cos(3 * np.linspace(0, 2 * np.pi, 256, endpoint=False)) + 0.2 * rng.uniform(
        -1, 1, 256
    )
    g0 = GridFunction(circ, vals)
    out = fd_solve(spec, g0, 0.5, FdSolverSettings(steps=100))
    assert out.values.max() <= vals.max() + 1e-8


def test_fd_torus_heat():
    torus = fl.torus2()
    spec = fl.GeneratorSpec(
        [fl.frame_field(torus, 1), fl.frame_field(torus, 2)], drift_policy="derived"
    )
    f = lambda c: np.cos(c[:, 0]) + 0.5 * np.sin(c[:, 1])
    g0 = GridFunction.from_function(torus, (64, 64), f)
    out = fd_solve(spec, g0, 0.5, FdSolverSettings(steps=50))
    t1, t2 = np.meshgrid(
        2 * np.pi * np.arange(64) / 64, 2 * np.pi * np.arange(64) / 64, indexing="ij"
    )
    want = math.exp(-0.25) * (np.cos(t1) + 0.5 * np.sin(t2))
    assert np.abs(out.values - want).max() <= 2e-3
    w = _volume_weights(g0)
    assert abs(out.values.ravel() @ w - g0.values.ravel() @ w) <= 1e-8


def test_fd_torus_cross_terms():
    # fields with a genuine mixed second-order coefficient
    torus = fl.torus2()
    spec = fl.GeneratorSpec(
        [
            fl.constant_field(torus, [1.0, 0.5]),
            fl.constant_field(torus, [0.0, 1.0]),
        ],
        drift_policy="derived",
    )
    f = lambda c: np.cos(c[:, 0] + c[:, 1])
    g0 = GridFunction.from_function(torus, (96, 96), f)
    out = fd_solve(spec, g0, 0.4, FdSolverSettings(steps=40))
    # a = [[1, .5], [.5, 1.25]]; L cos(u) with u = t1 + t2 gives factor
    # exp(-t/2 * (a11 + 2 a12 + a22))
    lam = 0.5 * (1.0 + 2 * 0.5 + 1.25)
    t1, t2 = np.meshgrid(
        2 * np.pi * np.arange(96) / 96, 2 * np.pi * np.arange(96) / 96, indexing="ij"
    )
    want = math.exp(-lam * 0.4) * np.cos(t1 + t2)
    assert np.abs(out.values - want).max() <= 2e-3


def test_fd_torus_of_a_function_of_theta1_is_the_circle_solve():
    # a field and potential of theta1 alone, the frame field along theta2, and
    # an f of theta1: every theta2 row of the torus solve is the circle solve
    circ, torus = fl.circle(), fl.torus2()
    pot = "-1-sin(theta1)^2"
    spec_t = fl.GeneratorSpec(
        [fl.field_from_string(torus, "custom:1+0.3*sin(theta1),0"), fl.frame_field(torus, 2)],
        drift_policy="derived", potential=pot,
    )
    spec_c = fl.GeneratorSpec(
        [fl.expression_field(circ, ["1+0.3*sin(theta)"])],
        drift_policy="derived", potential=pot.replace("theta1", "theta"),
    )
    settings = FdSolverSettings(steps=50)
    on_circle = fd_solve(spec_c, GridFunction.from_function(circ, 64, COS), 0.5, settings)
    on_torus = fd_solve(spec_t, GridFunction.from_function(torus, (64, 16), COS), 0.5, settings)
    assert np.abs(on_torus.values - on_circle.values[:, None]).max() <= 1e-13


@pytest.mark.parametrize("manifold, fields", [
    ("circle", ["custom:1+0.3*sin(theta)"]),
    ("torus2", ["custom:1+0.3*sin(theta1),0.2*cos(theta2)", "frame:2",
                "custom:0.1*cos(theta1),1+0.2*sin(theta2)"]),
])
def test_fd_advection_is_the_drift_left_over_by_the_derived_part(manifold, fields):
    m = fl.manifold_from_string(manifold)
    A = [fl.field_from_string(m, s) for s in fields]
    B = fl.constant_field(m, [0.5, -0.25][:m.dim])
    nodes = GridFunction(m, np.zeros((24,) * m.dim)).node_coords()
    derived = fl.GeneratorSpec(A, drift_policy="derived")
    np.testing.assert_array_equal(_advection_beta(derived, nodes), 0.0)
    with_b = fl.GeneratorSpec(A, drift_policy="derived", drift=B)
    np.testing.assert_allclose(_advection_beta(with_b, nodes), B.comps(nodes), rtol=0, atol=1e-15)
    explicit = fl.GeneratorSpec(A, drift=B)
    np.testing.assert_allclose(_advection_beta(explicit, nodes),
                               B.comps(nodes) - derived.drift_comps(nodes), rtol=0, atol=1e-15)


def test_fd_rejects_large_time_step():
    spec = variable_circle_spec()
    g0 = GridFunction.from_function(fl.circle(), 64, COS)
    with pytest.raises(ValueError):
        fd_solve(spec, g0, 1.0, FdSolverSettings(steps=10))


def test_fd_rejects_sphere():
    s2 = fl.sphere2()
    spec = fl.GeneratorSpec([fl.rotational_field(s2, k) for k in (1, 2, 3)])
    g0 = GridFunction.from_function(s2, (16, 32), lambda c: c[:, 2], interp="linear")
    with pytest.raises(VariantIncompatibleError):
        fd_solve(spec, g0, 0.1, FdSolverSettings(steps=20))


def test_fd_solve_refuses_a_grid_with_a_polar_axis():
    s2 = fl.sphere2()
    spec = fl.GeneratorSpec([fl.rotational_field(s2, k) for k in (1, 2, 3)])
    with pytest.raises(VariantIncompatibleError, match="not sphere2"):
        fd_solve(spec, GridFunction(s2, np.zeros((16, 32))), 0.1, FdSolverSettings(steps=10))
