import numpy as np
import pytest

import feller as fl
from feller.errors import DegenerateFieldsError, VariantIncompatibleError
from feller.expressions import ExpressionError, compile_scalar
from feller.fields import VectorField, divergence_batch
from feller.flows import flow_batch
from test_flows import negate


def heat_circle(drift="explicit"):
    circ = fl.circle()
    return fl.GeneratorSpec([fl.frame_field(circ, 1)], drift_policy=drift)


def sphere_rotational_spec():
    s2 = fl.sphere2()
    return fl.GeneratorSpec([fl.rotational_field(s2, k) for k in (1, 2, 3)],
                            drift_policy="derived")


# -- covariant divergence ----------------------------------------------------------


def test_a_sphere_derived_drift_evaluates_each_component_once(rng):
    # each projected map evaluates the components once, and the drift has
    # the bits of 1/2 (div A) A from the projected components and partials
    s2 = fl.sphere2()
    A = fl.field_from_string(s2, "custom:0.3*z,0.2*x*y,sin(x)")
    spec = fl.GeneratorSpec([A, fl.rotational_field(s2, 1)], drift_policy="derived")
    q = s2.random_points(50, rng)
    want = 0.5 * divergence_batch(A, q)[:, None] * A.comps(q)
    assert spec.drift_comps(q).tobytes() == want.tobytes()


@pytest.mark.parametrize("name, exprs", [
    ("circle", ["1+0.3*sin(theta)"]),
    ("torus2", ["sin(theta2)", "cos(theta1)*sin(theta2)"]),
    ("euclidean:2", ["x1*x2", "sin(x1)"]),
])
def test_a_uniform_volume_divergence_skips_the_volume_term(monkeypatch, rng, name, exprs):
    # d log sqrt|g| is zero on these charts: the divergence is the trace alone,
    # with the bits it had when the zero term was built and scanned
    m = fl.manifold_from_string(name)
    A = fl.expression_field(m, exprs)
    q = m.random_points(50, rng)
    want = np.trace(A.jacobian_batch(q), axis1=1, axis2=2)
    monkeypatch.setattr(type(m), "dlog_sqrt_det_batch",
                        lambda self, xs: pytest.fail("dlog_sqrt_det_batch"))
    assert divergence_batch(A, q).tobytes() == want.tobytes()


@pytest.mark.parametrize("k", [1, 2])
def test_an_h2_frame_field_builds_only_its_own_component(rng, k):
    # the field is field k of frame_batch: y d/dx or y d/dy, the other zero
    h2 = fl.hyperbolic_h2()
    A = fl.frame_field(h2, k)
    c = h2.random_points(200, rng)
    want = np.zeros((200, 2))
    want[:, k - 1] = c[:, 1]
    assert h2.frame_batch(c)[k - 1].tobytes() == want.tobytes()
    assert A.comps(c).tobytes() == want.tobytes()


def test_divergence_linear_field():
    e1 = fl.euclidean(1)
    A = fl.expression_field(e1, ["x1"])
    assert divergence_batch(A, np.array([[0.7]]))[0] == pytest.approx(1.0, abs=1e-9)


def test_divergence_half_plane_frame():
    h2 = fl.hyperbolic_h2()
    e2 = fl.frame_field(h2, 2)
    for y in (0.4, 1.0, 3.7):
        assert divergence_batch(e2, np.array([[0.1, y]]))[0] == pytest.approx(-1.0, abs=1e-9)
    e1 = fl.frame_field(h2, 1)
    assert divergence_batch(e1, np.array([[0.1, 2.0]]))[0] == pytest.approx(0.0, abs=1e-9)


def test_divergence_rotational_field(rng):
    # Killing fields are divergence-free; check the analytic-jacobian path
    # against plain finite differences of the components
    s2 = fl.sphere2()
    L3 = fl.rotational_field(s2, 3)
    fd_only = VectorField(s2, L3.comps)  # jacobian withheld -> central differences
    pts = s2.random_points(20, rng)
    np.testing.assert_allclose(divergence_batch(L3, pts), 0.0, atol=1e-12)
    np.testing.assert_allclose(divergence_batch(fd_only, pts), 0.0, atol=1e-8)


def _tangent_basis_divergence(A, q):
    """Sphere divergence by central differences along the great circles of
    the tangent basis: the projection of the difference onto each direction."""
    basis = A.manifold.tangent_basis(q)  # (n, 3, 2)
    h = 1e-5
    div = np.zeros(q.shape[0])
    for j in range(2):
        e = basis[:, :, j]
        qp = np.sqrt(1.0 - h * h) * q + h * e
        qm = np.sqrt(1.0 - h * h) * q - h * e
        div += np.einsum("ni,ni->n", A.comps(qp) - A.comps(qm), e) / (2.0 * h)
    return div


SPHERE_CUSTOM = ["custom:-y,x,0", "custom:1,0,0", "custom:0.3*z,0.2*x*y,sin(x)",
                 "custom:exp(0.5*y),x*z^2,0.4*cos(z)"]


@pytest.mark.parametrize("spec", SPHERE_CUSTOM)
def test_sphere_divergence_matches_tangent_basis_differences(spec, rng):
    s2 = fl.sphere2()
    A = fl.field_from_string(s2, spec)
    q = s2.random_points(40, rng)
    want = _tangent_basis_divergence(A, q)
    np.testing.assert_array_equal(s2.dlog_sqrt_det_batch(q), np.zeros_like(q))
    np.testing.assert_allclose(divergence_batch(A, q), want, rtol=0.0, atol=1e-8)
    fd_only = VectorField(s2, A.comps)  # the generic ambient differences
    np.testing.assert_allclose(divergence_batch(fd_only, q), want, rtol=0.0, atol=1e-8)


@pytest.mark.parametrize("spec", SPHERE_CUSTOM)
def test_sphere_custom_partials_match_central_differences(spec, rng):
    s2 = fl.sphere2()
    A = fl.field_from_string(s2, spec)
    q = s2.random_points(40, rng)
    h = 1e-6
    fd = np.stack([(A.comps(q + h * e) - A.comps(q - h * e)) / (2.0 * h) for e in np.eye(3)],
                  axis=-1)
    np.testing.assert_allclose(A.jacobian(q), fd, rtol=0.0, atol=1e-8)


# -- derived drift ------------------------------------------------------------------


def test_drift_constant_fields_zero():
    e2 = fl.euclidean(2)
    spec = fl.GeneratorSpec(
        [fl.constant_field(e2, [1.0, 0.0]), fl.constant_field(e2, [0.3, -1.2])],
        drift_policy="derived",
    )
    v = spec.drift_comps(np.array([[0.4, 0.5]]))[0]
    np.testing.assert_allclose(v, 0.0, atol=1e-12)


def test_drift_half_plane_frame():
    h2 = fl.hyperbolic_h2()
    spec = fl.GeneratorSpec(
        [fl.frame_field(h2, 1), fl.frame_field(h2, 2)], drift_policy="derived"
    )
    for x, y in ((0.0, 1.0), (0.5, 2.0), (-1.0, 0.3)):
        v = spec.drift_comps(np.array([[x, y]]))[0]
        np.testing.assert_allclose(v, [0.0, -y / 2.0], atol=1e-9)


def test_drift_rotational_zero(rng):
    spec = sphere_rotational_spec()
    s2 = spec.manifold
    for c in s2.random_points(10, rng):
        v = spec.drift_comps(c[None, :])[0]
        assert np.linalg.norm(v) <= 1e-8


def test_derived_plus_adds_extra_field():
    # the derived drift with a field B is D + B
    h2 = fl.hyperbolic_h2()
    B = fl.frame_field(h2, 1)
    spec = fl.GeneratorSpec(
        [fl.frame_field(h2, 1), fl.frame_field(h2, 2)],
        drift_policy="derived",
        drift=B,
    )
    v = spec.drift_comps(np.array([[0.0, 2.0]]))[0]
    np.testing.assert_allclose(v, [2.0, -1.0], atol=1e-9)


@pytest.mark.parametrize("policy", ["derived_plus", "derived+", "Derived", "", None])
def test_drift_policy_is_explicit_or_derived(policy):
    frame = fl.frame_field(fl.circle(), 1)
    with pytest.raises(ValueError, match="unknown drift policy"):
        fl.GeneratorSpec([frame], drift_policy=policy, drift=fl.constant_field(fl.circle(), [0.5]))


# -- divergence-free flag ---------------------------------------------------------------

BUILTIN_MANIFOLDS = ["euclidean:1", "euclidean:3", "circle", "torus2", "sphere2", "hyperbolic-h2"]


def _builtin_fields(m):
    """Every built-in constructor string the manifold accepts, resolved."""
    cd = m.chart_dim
    consts = [[0.7, -1.3, 0.4][:cd], [0.0, 1.0, 0.0][:cd]]
    specs = ["zero"]
    specs += ["constant:[" + ",".join(map(str, c)) + "]" for c in consts]
    specs += [f"frame:{k}" for k in range(1, m.dim + 1)]
    specs += [f"rotational:{k}" for k in (1, 2, 3)]
    specs += ["custom:" + ",".join(f"0.3*sin({v})" for v in m.coord_names)]
    out = []
    for spec in specs:
        try:
            out.append(fl.field_from_string(m, spec))
        except VariantIncompatibleError:
            continue
    return out


def _general_divergences(A, coords):
    """Divergence of A by the general path, with the flag bypassed: from A's
    partials, and from central differences."""
    m = A.manifold
    return [divergence_batch(VectorField(m, A.comps, jacobian=A.jacobian), coords),
            divergence_batch(VectorField(m, A.comps), coords)]


@pytest.mark.parametrize("name", BUILTIN_MANIFOLDS)
def test_divergence_free_flag_matches_the_maths(name, rng):
    m = fl.manifold_from_string(name)
    coords = m.random_points(50, rng)
    fields = _builtin_fields(m)
    assert any(A.divergence_free for A in fields)
    for A in fields:
        np.testing.assert_array_equal(
            divergence_batch(negate(A), coords), -divergence_batch(A, coords), err_msg=A.name
        )
        if A.name.startswith("custom:"):
            assert not A.divergence_free
        if A.divergence_free:
            np.testing.assert_array_equal(divergence_batch(A, coords), 0.0)
            for div in _general_divergences(A, coords):
                np.testing.assert_allclose(div, 0.0, atol=1e-8, err_msg=A.name)


@pytest.mark.parametrize("spec", ["frame:2", "constant:[0,1]"])
def test_half_plane_fields_with_divergence_unflagged(spec, rng):
    h2 = fl.hyperbolic_h2()
    A = fl.field_from_string(h2, spec)
    assert not A.divergence_free
    coords = h2.random_points(20, rng)
    assert np.abs(divergence_batch(A, coords)).min() > 1e-3


# -- frame fields -------------------------------------------------------------------


def _h2_frame_closed_form(k, c, t):
    """The H2 frame flows in closed form: x + t y along y d/dx, y e^t along y d/dy."""
    out = c.copy()
    if k == 1:
        out[:, 0] = c[:, 0] + np.multiply(t, c[:, 1])
    else:
        out[:, 1] = c[:, 1] * np.exp(t)
    return out


@pytest.mark.parametrize("k", [1, 2])
def test_h2_frame_flows_are_their_closed_forms(k, rng):
    h2 = fl.hyperbolic_h2()
    A = fl.frame_field(h2, k)
    c = h2.random_points(60, rng)
    per_row = np.concatenate([-rng.uniform(0.0, 2.0, 30), rng.uniform(0.0, 2.0, 30)])
    for t in (0.7, -0.7, per_row):
        want = _h2_frame_closed_form(k, c, t)
        assert A.flow(c, t).tobytes() == want.tobytes()
        assert flow_batch(A, c, t).tobytes() == want.tobytes()
    # y e_k, with the partials e_k (x) e_y and the divergence 0 (k = 1) or -1 (k = 2)
    np.testing.assert_array_equal(A.comps(c), np.eye(2)[k - 1] * c[:, 1:])
    np.testing.assert_array_equal(A.jacobian_batch(c), np.broadcast_to(
        np.outer(np.eye(2)[k - 1], [0.0, 1.0]), (60, 2, 2)))
    assert A.divergence_free == (k == 1)
    want = 0.0 if k == 1 else -1.0
    np.testing.assert_allclose(divergence_batch(A, c), want, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("name", ["euclidean:1", "euclidean:3", "circle", "torus2"])
def test_flat_frame_fields_are_unit_translations(name, rng):
    m = fl.manifold_from_string(name)
    c = m.random_points(20, rng)
    t = rng.uniform(-1.0, 1.0, 20)
    for k in range(1, m.dim + 1):
        A, e = fl.frame_field(m, k), np.eye(m.dim)[k - 1]
        assert A.divergence_free
        np.testing.assert_array_equal(A.comps(c), np.broadcast_to(e, c.shape))
        np.testing.assert_array_equal(A.jacobian_batch(c), 0.0)
        np.testing.assert_array_equal(A.flow(c, t), m.wrap(c + t[:, None] * e))


def torus_frame_spec(drift_policy="derived", drift=None):
    t2 = fl.torus2()
    return fl.GeneratorSpec(
        [fl.frame_field(t2, 1), fl.frame_field(t2, 2)], drift_policy=drift_policy, drift=drift
    )


@pytest.mark.parametrize("make_spec", [sphere_rotational_spec, torus_frame_spec])
def test_derived_drift_of_divergence_free_fields_costs_nothing(make_spec, rng, monkeypatch):
    spec = make_spec()
    drift = spec.drift_field()
    assert drift.is_zero
    coords = spec.manifold.random_points(40, rng)
    called = []
    comps = VectorField.comps
    monkeypatch.setattr(
        VectorField, "comps", lambda self, c: called.append(self.name) or comps(self, c)
    )
    out = flow_batch(drift, coords, 0.25)
    assert called == []
    np.testing.assert_allclose(out, coords, rtol=0.0, atol=1e-15)


def test_derived_plus_of_divergence_free_fields_is_B():
    B = fl.constant_field(fl.torus2(), [0.3, -0.2])
    assert torus_frame_spec("derived", B).drift_field() is B


def test_derived_drift_with_a_custom_field_still_integrates(rng):
    t2 = fl.torus2()
    fields = [
        fl.frame_field(t2, 1),
        fl.frame_field(t2, 2),
        fl.field_from_string(t2, "custom:0.3*sin(theta1),0"),
    ]
    spec = fl.GeneratorSpec(fields, drift_policy="derived")
    drift = spec.drift_field()
    assert not drift.is_zero

    def unflagged_drift(c):
        acc = np.zeros_like(c)
        for f in fields:
            acc += 0.5 * _general_divergences(f, c)[0][:, None] * f.comps(c)
        return acc

    coords = t2.random_points(40, rng)
    reference = VectorField(t2, unflagged_drift)
    np.testing.assert_array_equal(spec.drift_comps(coords), unflagged_drift(coords))
    np.testing.assert_array_equal(
        flow_batch(drift, coords, 0.25), flow_batch(reference, coords, 0.25)
    )


# -- dominance -----------------------------------------------------------------------


def test_dominance_member_field(rng):
    s2spec = sphere_rotational_spec()
    pts = [s2spec.manifold.point(c) for c in s2spec.manifold.random_points(12, rng)]
    rep = fl.check_dominance(s2spec, s2spec.fields[0], pts)
    assert rep.ok and rep.c_estimate <= 1.0 + 1e-8


def test_dominance_zero_field():
    e1 = fl.euclidean(1)
    spec = fl.GeneratorSpec([fl.constant_field(e1, [1.0])])
    rep = fl.check_dominance(spec, fl.zero_field(e1), [e1.point([0.0])])
    assert rep.c_estimate == pytest.approx(0.0, abs=1e-15)


def test_dominance_scaled_field_brute_force():
    e1 = fl.euclidean(1)
    spec = fl.GeneratorSpec([fl.constant_field(e1, [1.0])])
    rep = fl.check_dominance(spec, fl.constant_field(e1, [3.0]), [e1.point([0.0])])
    # brute-force covector sweep oracle
    xi = np.linspace(-2.0, 2.0, 801)
    xi = xi[xi != 0.0]
    oracle = np.max((3.0 * xi) ** 2 / xi**2)
    assert rep.c_estimate == pytest.approx(oracle, rel=1e-12)
    assert oracle == pytest.approx(9.0)


def test_dominance_2d_brute_force():
    e2 = fl.euclidean(2)
    spec = fl.GeneratorSpec(
        [fl.constant_field(e2, v) for v in ([1.0, 0.0], [0.0, 1.0], [1.0, 1.0])]
    )
    B = fl.constant_field(e2, [2.0, 1.0])
    rep = fl.check_dominance(spec, B, [e2.point([0.0, 0.0])])
    ang = np.linspace(0.0, np.pi, 20001)
    xi = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    num = (xi @ np.array([2.0, 1.0])) ** 2
    den = sum((xi @ np.asarray(a)) ** 2 for a in ([1.0, 0.0], [0.0, 1.0], [1.0, 1.0]))
    assert rep.c_estimate == pytest.approx(np.max(num / den), rel=1e-6)


def test_dominance_degenerate_raises():
    e2 = fl.euclidean(2)
    spec = fl.GeneratorSpec(
        [fl.constant_field(e2, [1.0, 0.0]), fl.constant_field(e2, [2.0, 0.0])]
    )
    with pytest.raises(DegenerateFieldsError):
        fl.check_dominance(spec, fl.zero_field(e2), [e2.point([0.0, 0.0])])


@pytest.mark.parametrize("name", ["euclidean:2", "circle", "hyperbolic-h2", "sphere2"])
def test_the_zero_field_is_its_own_maps(name, rng):
    # no branch on is_zero in the field: its closures serve, and the flow
    # engine returns its rows untouched, so it carries no flow map
    m = fl.manifold_from_string(name)
    A = fl.field_from_string(m, "zero")
    q = m.random_points(5, rng)
    assert A.is_zero and A.divergence_free and A.flow is None
    np.testing.assert_array_equal(A.comps(q), np.zeros_like(q))
    np.testing.assert_array_equal(A.jacobian_batch(q), np.zeros((5, m.chart_dim, m.chart_dim)))
    np.testing.assert_array_equal(divergence_batch(A, q), np.zeros(5))
    assert flow_batch(A, q, 0.7).tobytes() == q.tobytes()


# -- generator application --------------------------------------------------------------


def test_generator_quadratic():
    e1 = fl.euclidean(1)
    spec = fl.GeneratorSpec([fl.constant_field(e1, [1.0])])
    f = lambda c: c[:, 0] ** 2
    grad = lambda c: 2.0 * c
    hess = lambda c: np.full((c.shape[0], 1, 1), 2.0)
    got = fl.apply_generator(spec, f, np.array([[0.4]]), f_grad=grad, f_hess=hess)
    assert got.shape == (1,) and got[0] == 1.0


def test_generator_circle_eigenfunction():
    spec = heat_circle("derived")
    f = lambda c: np.cos(c[:, 0])
    grad = lambda c: -np.sin(c[:, 0])[:, None]
    hess = lambda c: -np.cos(c[:, 0])[:, None, None]
    got = fl.apply_generator(spec, f, np.array([[0.0]]), f_grad=grad, f_hess=hess)[0]
    assert got == pytest.approx(-0.5, abs=1e-7)


def test_generator_sphere_harmonic():
    spec = sphere_rotational_spec()
    s2 = spec.manifold
    f = lambda c: c[:, 2]
    grad = lambda c: np.broadcast_to(np.array([0.0, 0.0, 1.0]), c.shape).copy()
    hess = lambda c: np.zeros((c.shape[0], 3, 3))
    rows = np.array([[0.0, 0.0, 1.0], [0.6, 0.0, 0.8]])  # the north pole, and q
    got = fl.apply_generator(spec, f, rows, f_grad=grad, f_hess=hess)
    assert got == pytest.approx([-1.0, -0.8])


def _circle_generator_case():
    circ = fl.circle()
    spec = fl.GeneratorSpec([fl.expression_field(circ, ["1+0.3*sin(theta)"])],
                            drift_policy="derived")
    f = lambda c: np.cos(c[:, 0])
    grad = lambda c: -np.sin(c[:, 0])[:, None]
    hess = lambda c: -np.cos(c[:, 0])[:, None, None]
    return spec, f, grad, hess


def _sphere_generator_case():
    s2 = fl.sphere2()
    fields = [fl.field_from_string(s2, "custom:0.3*z,0.2*x*y,sin(x)")]
    fields += [fl.rotational_field(s2, k) for k in (1, 2, 3)]
    spec = fl.GeneratorSpec(fields, drift_policy="derived")
    f = lambda c: c[:, 0] * c[:, 2] + c[:, 1]  # x z + y, with ambient derivatives
    grad = lambda c: np.stack([c[:, 2], np.ones(len(c)), c[:, 0]], axis=-1)
    hess = lambda c: np.broadcast_to(
        np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]), (len(c), 3, 3))
    return spec, f, grad, hess


def _generator_by_differences(spec, f, c):
    """(L_0 f + c f) at the row c by nested central differences along the
    integral curves, ``A(Af)(x) = d^2/dt^2 f(gamma_{x,A}(t))|_0``: a reference
    that reads no derivative of f."""
    ode = fl.OdeSettings(tol=1e-13, max_steps=64)
    h = 1e-4 * max(1.0, float(np.linalg.norm(c)))
    along = lambda A, t: float(f(flow_batch(A, c, t, ode))[0])
    fx = float(f(c)[0])
    acc = sum(0.5 * (along(A, h) - 2.0 * fx + along(A, -h)) / (h * h) for A in spec.fields)
    h1 = 1e-5 * max(1.0, float(np.linalg.norm(c)))
    drift = spec.drift_field()
    if not drift.is_zero:
        acc += (along(drift, h1) - along(drift, -h1)) / (2.0 * h1)
    return acc + float(spec.potential_values(c)[0]) * fx


@pytest.mark.parametrize("case", [_circle_generator_case, _sphere_generator_case],
                         ids=["circle", "sphere2"])
def test_generator_fd_matches_exact(rng, case):
    # variable-coefficient case with a derived drift: the exact generator agrees
    # with second differences of f along the flows
    spec, f, grad, hess = case()
    cs = spec.manifold.random_points(12, rng)
    for c, exact in zip(cs, fl.apply_generator(spec, f, cs, f_grad=grad, f_hess=hess)):
        numeric = _generator_by_differences(spec, f, c[None, :])
        assert numeric == pytest.approx(exact, abs=5e-6)


def test_generator_with_potential():
    circ = fl.circle()
    spec = fl.GeneratorSpec(
        [fl.frame_field(circ, 1)], drift_policy="explicit", potential="-1-sin(theta)^2"
    )
    f = lambda c: np.cos(c[:, 0])
    grad = lambda c: -np.sin(c[:, 0])[:, None]
    hess = lambda c: -np.cos(c[:, 0])[:, None, None]
    want = -0.5 * np.cos(0.3) + (-1.0 - np.sin(0.3) ** 2) * np.cos(0.3)
    got = fl.apply_generator(spec, f, np.array([[0.3]]), f_grad=grad, f_hess=hess)[0]
    assert got == pytest.approx(want)


def _generator_at_row(spec, f, c, f_grad, f_hess):
    """(L_0 f + c f) at the one row ``c``, as a sum of floats over the fields:
    a reference for the batch."""
    grad, hess = f_grad(c)[0], f_hess(c)[0]
    acc = 0.0
    for fld in spec.fields:
        s = fld.comps(c)[0]
        acc += 0.5 * (s @ hess @ s + (fld.jacobian_batch(c)[0] @ s) @ grad)
    return float(acc + spec.drift_comps(c)[0] @ grad) + float(spec.potential_values(c)[0] * f(c)[0])


def _line_generator_case():
    e1 = fl.euclidean(1)
    spec = fl.GeneratorSpec([fl.expression_field(e1, ["1+0.3*x1^2"])], drift_policy="derived",
                            drift=fl.expression_field(e1, ["sin(x1)"]), potential="-1-0.1*x1^2")
    f = lambda c: np.sin(c[:, 0])
    grad = lambda c: np.cos(c[:, 0])[:, None]
    hess = lambda c: -np.sin(c[:, 0])[:, None, None]
    return spec, f, grad, hess


@pytest.mark.parametrize("case", [_line_generator_case, _circle_generator_case,
                                  _sphere_generator_case], ids=["euclidean:1", "circle", "sphere2"])
def test_generator_rows_are_the_per_row_formula(rng, case):
    spec, f, grad, hess = case()
    cs = spec.manifold.random_points(40, rng)
    got = fl.apply_generator(spec, f, cs, f_grad=grad, f_hess=hess)
    want = np.array([_generator_at_row(spec, f, c[None, :], grad, hess) for c in cs])
    assert got.shape == (40,)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15)


# -- symmetry and negativity of the derived-drift operator -------------------------------


def test_formal_symmetry_on_grids():
    # <h, L f> - <L h, f> with trapezoid quadrature vanishes as the grid refines
    circ = fl.circle()
    A = fl.expression_field(circ, ["1+0.3*sin(theta)"])
    spec = fl.GeneratorSpec([A], drift_policy="derived")
    f = (lambda c: np.cos(c[:, 0]),
         lambda c: -np.sin(c[:, 0])[:, None],
         lambda c: -np.cos(c[:, 0])[:, None, None])
    h = (lambda c: np.sin(2 * c[:, 0]),
         lambda c: 2 * np.cos(2 * c[:, 0])[:, None],
         lambda c: -4 * np.sin(2 * c[:, 0])[:, None, None])

    def residual(n):
        coords = 2 * np.pi * np.arange(n)[:, None] / n
        lf = fl.apply_generator(spec, f[0], coords, f_grad=f[1], f_hess=f[2])
        lh = fl.apply_generator(spec, h[0], coords, f_grad=h[1], f_hess=h[2])
        w = 2 * np.pi / n
        return abs(np.sum(h[0](coords) * lf) * w - np.sum(lh * f[0](coords)) * w)

    # smooth periodic: trapezoid is spectrally accurate; the floor is set by
    # the finite-difference divergence inside the derived drift (~1e-10)
    assert residual(128) < 1e-8


@pytest.mark.parametrize("name, shape, fields", [
    ("circle", 128, ["custom:1+0.3*sin(theta)"]),
    ("torus2", (24, 20),
     ["custom:1+0.3*sin(theta2),0.2*cos(theta1)", "custom:0.1,1+0.2*sin(theta1)"]),
], ids=["circle", "torus2"])
def test_negativity_on_grids(rng, name, shape, fields):
    # -<f, L f> >= 0 for the discrete conservative realization of the
    # derived-drift operator
    from feller.reference import _operator

    m = fl.manifold_from_string(name)
    spec = fl.GeneratorSpec([fl.field_from_string(m, f) for f in fields], drift_policy="derived")
    op = _operator(spec, fl.GridFunction(m, np.zeros(shape))).toarray()
    # the symmetric part is negative semidefinite to rounding
    assert np.linalg.eigvalsh(0.5 * (op + op.T)).max() <= 1e-12
    w = np.prod(2 * np.pi / np.atleast_1d(shape))
    for _ in range(25):
        fvals = rng.uniform(-1, 1, op.shape[0])
        assert (fvals @ (op @ fvals)) * w <= 1e-8


# -- ellipticity ---------------------------------------------------------------------------


def test_ellipticity_margin(rng):
    spec = sphere_rotational_spec()
    pts = spec.manifold.random_points(40, rng)
    assert spec.ellipticity_margin(pts) > 1e-8
    spec.validate(pts)


def test_ellipticity_requires_r_ge_d():
    e2 = fl.euclidean(2)
    with pytest.raises(DegenerateFieldsError):
        fl.GeneratorSpec([fl.constant_field(e2, [1.0, 0.0])])


def test_validate_rejects_degenerate():
    e2 = fl.euclidean(2)
    spec = fl.GeneratorSpec(
        [fl.constant_field(e2, [1.0, 0.0]), fl.constant_field(e2, [-1.0, 0.0])]
    )
    with pytest.raises(DegenerateFieldsError):
        spec.validate(np.zeros((1, 2)))


def test_feller_flag_rejects_positive_potential():
    circ = fl.circle()
    spec = fl.GeneratorSpec([fl.frame_field(circ, 1)], potential="sin(theta)")
    with pytest.raises(ValueError):
        spec.validate(np.linspace(0, 2 * np.pi, 16)[:, None])
    relaxed = fl.GeneratorSpec(
        [fl.frame_field(circ, 1)], potential="sin(theta)", feller=False
    )
    relaxed.validate(np.linspace(0, 2 * np.pi, 16)[:, None])


# -- constructors and expressions --------------------------------------------------------


def test_field_from_string_roundtrip():
    circ = fl.circle()
    f = fl.field_from_string(circ, "custom:1+0.3*sin(theta)")
    np.testing.assert_allclose(
        f.comps(np.array([[0.0], [np.pi / 2]]))[:, 0], [1.0, 1.3]
    )
    assert fl.field_from_string(circ, "frame:1").comps(np.zeros((1, 1)))[0, 0] == 1.0
    s2 = fl.sphere2()
    rot = fl.field_from_string(s2, "rotational:2")
    q = np.array([[0.0, 0.0, 1.0]])
    np.testing.assert_allclose(rot.comps(q), [[1.0, 0.0, 0.0]])
    with pytest.raises(ValueError):
        fl.field_from_string(circ, "spiral:1")


def test_sphere_custom_field_projected(rng):
    s2 = fl.sphere2()
    f = fl.expression_field(s2, ["1", "0", "0"])
    pts = s2.random_points(15, rng)
    vals = f.comps(pts)
    np.testing.assert_allclose(np.einsum("ni,ni->n", vals, pts), 0.0, atol=1e-14)


def test_expression_errors():
    circ = fl.circle()
    with pytest.raises(ExpressionError):
        compile_scalar("import_os", circ)
    with pytest.raises(ExpressionError):
        compile_scalar("theta + phi", circ)
    with pytest.raises(ExpressionError):
        compile_scalar("__import__('os')", circ)
    fn = compile_scalar("sin(theta)^2 + cos(theta)^2", circ)
    np.testing.assert_allclose(fn(np.array([[0.3], [2.0]])), 1.0)


def test_constant_rejected_on_sphere():
    with pytest.raises(VariantIncompatibleError):
        fl.constant_field(fl.sphere2(), [1.0, 0.0, 0.0])
