import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import feller as fl
from feller import chernoff
from feller._kernels import step_uniforms, substream
from feller.chernoff import ChernoffVariant as CV
from feller.chernoff import branch_moves, move_rows, sample_steps
from feller.errors import (
    BudgetExceededError,
    IncompatibleBaseError,
    PotentialStepError,
    VariantIncompatibleError,
)
from feller.flows import flow_batch
from feller.grids import GridFunction
from feller.walks import walk_endpoints


def quad_spec():
    e1 = fl.euclidean(1)
    return fl.GeneratorSpec([fl.constant_field(e1, [1.0])]), e1


def circle_heat():
    circ = fl.circle()
    return fl.GeneratorSpec([fl.frame_field(circ, 1)], drift_policy="explicit"), circ


def cos_grid(n, interp="cubic"):
    return GridFunction.from_function(fl.circle(), n, lambda c: np.cos(c[:, 0]), interp)


def branch_level(spec, variant, t, x):
    """The points and weights of S(t) at the point x: one ``_level`` of the
    branch table, with a potential x itself last, of weight t c(x)."""
    return chernoff._level(branch_moves(spec, variant), x.coords[None, :], np.ones(1), t)


def apply_S(spec, variant, t, f, x):
    """(S(t)f)(x), one row of ``apply_S_batch``."""
    return float(fl.apply_S_batch(spec, variant, t, f, x.coords[None, :])[0])


# -- branch sets --------------------------------------------------------------------


@pytest.mark.parametrize("variant", list(CV))
def test_branch_set_at_time_zero(variant):
    spec, circ = circle_heat()
    x = circ.point([1.2])
    points, weights = branch_level(spec, variant, 0.0, x)
    for p in points:
        assert p[0] == pytest.approx(1.2, abs=1e-15)
    assert math.fsum(weights) == 1.0


def test_branch_set_general_euclid():
    spec, e1 = quad_spec()
    points, weights = branch_level(spec, CV.GENERAL, 0.5, e1.point([2.0]))
    got = sorted((p[0], w) for p, w in zip(points, weights))
    assert got == [(1.0, 0.25), (2.0, 0.5), (3.0, 0.25)]


def test_branch_set_lists_the_potential_last():
    circ = fl.circle()
    spec = fl.GeneratorSpec([fl.frame_field(circ, 1)], drift_policy="explicit",
                            potential="-1-sin(theta)^2")
    x, t = circ.point([0.3]), 0.25
    points, weights = branch_level(spec, CV.GENERAL, t, x)
    assert len(points) == len(weights) == 4
    assert points[-1].tobytes() == x.coords.tobytes()
    assert weights[-1] == t * (-1.0 - math.sin(0.3) ** 2)
    np.testing.assert_array_equal(weights[:-1], [0.5, 0.25, 0.25])


def test_branch_set_heat_geodesic_circle():
    spec, circ = circle_heat()
    points, weights = branch_level(spec, CV.HEAT_GEODESIC, 0.25, circ.point([1.0]))
    got = sorted(p[0] for p in points)
    np.testing.assert_allclose(got, [0.5, 1.5])
    np.testing.assert_array_equal(weights, [0.5, 0.5])


@pytest.mark.parametrize("r", [1, 2, 3, 5])
def test_weights_exact_rationals(r):
    e = fl.euclidean(1)
    spec = fl.GeneratorSpec([fl.constant_field(e, [float(k + 1)]) for k in range(r)])
    for variant in (CV.GENERAL, CV.DRIFTLESS_CORRECTED, CV.DRIFTLESS_LITERAL):
        weights = [br.weight for br in branch_moves(spec, variant)]
        assert sum(weights) == Fraction(1)
        assert math.fsum(float(w) for w in weights) == 1.0


DRIFTLESS = [CV.DRIFTLESS_CORRECTED, CV.DRIFTLESS_LITERAL]


def test_driftless_variants_reject_drift_and_potential():
    circ = fl.circle()
    A = fl.field_from_string(circ, "custom:1+0.3*sin(theta)")
    frame, B = fl.frame_field(circ, 1), fl.constant_field(circ, [0.5])
    refused = [
        fl.GeneratorSpec([A], drift_policy="derived"),  # a non-zero derived drift
        fl.GeneratorSpec([frame], drift=B),
        fl.GeneratorSpec([frame], drift_policy="derived", drift=B),
        fl.GeneratorSpec([frame], potential="-1"),
        fl.GeneratorSpec([frame], drift_policy="derived", potential="-1"),
    ]
    for variant in DRIFTLESS:
        for spec in refused:
            with pytest.raises(VariantIncompatibleError):
                branch_moves(spec, variant)
    with pytest.raises(VariantIncompatibleError):
        branch_moves(refused[-1], CV.HEAT_GEODESIC)


def _zero_drift_fields(chart):
    """Fields whose derived drift is exactly zero, and a point."""
    m = fl.manifold_from_string(chart)
    if chart == "sphere2":
        return [fl.rotational_field(m, k) for k in (1, 2, 3)], m.point([0.6, 0.0, 0.8])
    return [fl.frame_field(m, k) for k in range(1, m.dim + 1)], m.point([0.4, 2.0][:m.dim])


@pytest.mark.parametrize("variant", DRIFTLESS, ids=lambda v: v.value)
@pytest.mark.parametrize("chart", ["circle", "torus2", "sphere2"])
def test_driftless_variants_accept_a_derived_drift_that_is_zero(variant, chart):
    fields, x = _zero_drift_fields(chart)
    f = lambda c: np.cos(c[:, 0]) + c[:, -1] ** 2
    derived = fl.GeneratorSpec(fields, drift_policy="derived")
    assert derived.drift_field().is_zero
    want = fl.iterate_tree(fl.GeneratorSpec(fields), variant, 0.3, 3, f, x)
    assert fl.iterate_tree(derived, variant, 0.3, 3, f, x) == want


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
        assert apply_S(spec, CV.GENERAL, t, one, circ.point([0.4])) == 1.0


def test_apply_S_quadratic_identity():
    spec, e1 = quad_spec()
    f = lambda c: c[:, 0] ** 2
    for t in (0.1, 0.5, 2.0):
        for x in (-1.0, 0.0, 0.7):
            got = apply_S(spec, CV.GENERAL, t, f, e1.point([x]))
            assert got == pytest.approx(x * x + t, abs=1e-14)


def test_apply_S_heat_geodesic_cos():
    spec, circ = circle_heat()
    f = lambda c: np.cos(c[:, 0])
    for t in (0.04, 0.25, 1.0):
        got = apply_S(spec, CV.HEAT_GEODESIC, t, f, circ.point([0.7]))
        assert got == pytest.approx(math.cos(0.7) * math.cos(math.sqrt(t)), abs=1e-14)


# -- exact tree ----------------------------------------------------------------------


def test_tree_single_step_equals_apply_S():
    spec, circ = circle_heat()
    f = lambda c: np.cos(c[:, 0])
    x = circ.point([0.3])
    assert fl.iterate_tree(spec, CV.GENERAL, 0.4, 1, f, x) == pytest.approx(
        apply_S(spec, CV.GENERAL, 0.4, f, x), abs=1e-15
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
    g = lambda c: fl.apply_S_batch(spec, CV.GENERAL, t / 2, f, c)
    want = apply_S(spec, CV.GENERAL, t / 2, g, x)
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


def test_sphere2_zero_moves_gather_one_column():
    # S(0) moves no node on sphere2: every branch's stencil at s = 0, and the
    # zero drift's at any s, is the identity gather of one live column; a
    # rotation about the polar axis keeps its latitude column alone
    s2 = fl.sphere2()
    spec = fl.GeneratorSpec([fl.rotational_field(s2, k) for k in (1, 2, 3)], drift_policy="derived")
    g0 = GridFunction.from_function(s2, (16, 32), lambda c: c[:, 2] + c[:, 0] ** 2, "linear")
    nodes, flat = g0.node_coords(), g0.flat_values()
    branches = branch_moves(spec, CV.GENERAL)
    for j in range(len(branches)):
        st = g0.build_stencil(move_rows(branches, nodes, j, 0.0))
        assert st.cols == (0,)
        np.testing.assert_array_equal(st.apply(flat), g0.values.ravel())
    cols = [g0.build_stencil(move_rows(branches, nodes, j, 1.0 / 64)).cols for j in range(7)]
    assert cols == [(0,)] + [(0, 1, 2, 3)] * 4 + [(0, 1)] * 2


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


def test_sphere_grid_checks_interp_before_bilinear():
    sphere, z = fl.sphere2(), lambda c: c[:, 2]
    with pytest.raises(ValueError, match="unknown interpolation order 'quadratic'"):
        GridFunction.from_function(sphere, (8, 16), z, interp="quadratic")
    assert GridFunction.from_function(sphere, (8, 16), z, interp="cubic").interp == "linear"


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


def _table_draws(monkeypatch, branches, words):
    """The branch indices sample_steps draws when step m's words are words[m]."""
    monkeypatch.setattr(chernoff, "step_uniforms", lambda streams, step: words[step])
    coords = np.zeros((words.shape[1], 1))
    return np.array([d.copy() for d, _ in sample_steps(branches, 0.1, coords, None, len(words))])


def test_branch_draw_matches_searchsorted(monkeypatch):
    # the draw sum_j (T_j <= z) against the first branch whose cumulative
    # weight exceeds z / 2^64, compared exactly, on random words and on every
    # threshold T_j = ceil(cumw_j 2^64); four of the six (7/12, 2/3, 5/6,
    # 11/12) are not dyadic, so their T_j round up
    circ = fl.circle()
    fields = [fl.frame_field(circ, 1), fl.constant_field(circ, [0.5]), fl.constant_field(circ, [2.0])]
    branches = branch_moves(fl.GeneratorSpec(fields), CV.GENERAL)  # weights 1/2, 1/12 x 6
    cumw = np.cumsum([b.weight for b in branches])
    assert cumw[-1] == 1 and sum(w * 2**64 != math.ceil(w * 2**64) for w in cumw) == 4
    edges = [math.ceil(w * 2**64) for w in cumw[:-1]]
    boundary = [0, 2**64 - 1] + [e + d for e in edges for d in (-1, 0, 1)]
    words = np.stack([step_uniforms(substream(5, np.arange(len(boundary))), m) for m in range(50)])
    words = np.concatenate([words, np.array([boundary], dtype=np.uint64)])
    want = [[sum(w <= Fraction(int(z), 2**64) for w in cumw) for z in row] for row in words]
    np.testing.assert_array_equal(_table_draws(monkeypatch, branches, words), want)
    assert np.all(np.bincount(np.ravel(want), minlength=len(branches)) > 0)
    # the largest word draws the last branch
    assert want[-1][1] == len(branches) - 1


# -- the mover ---------------------------------------------------------------------------------

# per chart: a field with an exact flow, an RK4 field and a potential
MOVER_CHARTS = {
    "euclidean:2": ("frame:1", "custom:1+0.2*tanh(x2),0.3*sin(x1)", "-0.5*tanh(x1)^2"),
    "circle": ("frame:1", "custom:1+0.3*sin(theta)", "-0.5-0.5*sin(theta)^2"),
    "torus2": ("frame:2", "custom:1+0.2*cos(theta2),0.3*sin(theta1)", "-0.5*sin(theta1)^2"),
    "hyperbolic-h2": ("frame:1", "custom:y,0.2*x*y", "-0.5/(1+x^2)"),
    "sphere2": ("rotational:1", "custom:-y,x,0.3*x*z", "-0.5*z^2"),
}
MOVER_CASES = [
    (name, variant, table)
    for name in MOVER_CHARTS
    for variant, table in [
        (CV.GENERAL, "derived drift"), (CV.GENERAL, "potential"), (CV.GENERAL, "per-row s"),
        (CV.DRIFTLESS_CORRECTED, ""), (CV.DRIFTLESS_LITERAL, ""), (CV.HEAT_GEODESIC, ""),
    ]
    if not (name == "sphere2" and variant is CV.HEAT_GEODESIC)
]


def _moved_alone(br, row, s):
    """One row moved by one branch, straight from the branch's data."""
    if br.signed is not None:
        return row
    if br.field is not None:
        return flow_batch(br.field, row, br.time(s), br.ode)
    return br.compose(row, br.shift(s))


@pytest.mark.parametrize("name, variant, table", MOVER_CASES)
def test_move_rows_gives_each_row_its_bits_alone(name, variant, table, rng):
    m = fl.manifold_from_string(name)
    exact, rk4, potential = MOVER_CHARTS[name]
    fields = [fl.field_from_string(m, exact), fl.field_from_string(m, rk4)]
    if variant is CV.GENERAL:
        spec = fl.GeneratorSpec(fields, drift_policy="derived",
                                potential=potential if table == "potential" else None)
    else:
        spec = fl.GeneratorSpec(fields, drift_policy="explicit")
    branches = branch_moves(spec, variant)
    b = len(branches)
    idx = rng.permutation(np.arange(4 * b) % b)  # every branch, shuffled
    coords = m.random_points(idx.size, rng)
    s = rng.uniform(0.01, 0.1, idx.size) if table == "per-row s" else 0.05
    moved = move_rows(branches, coords, idx, s)
    assert moved.shape == coords.shape and not np.shares_memory(moved, coords)
    for i, j in enumerate(idx):
        alone = _moved_alone(branches[j], coords[i : i + 1], np.broadcast_to(s, idx.shape)[i])
        assert moved[i].tobytes() == alone[0].tobytes(), (i, branches[j].label)
    if table == "potential":
        assert branches[-1].signed is not None
        stay = idx == b - 1
        assert moved[stay].tobytes() == coords[stay].tobytes()


# -- group shifts ------------------------------------------------------------------------------


GROUP_CHARTS = ["euclidean:1", "euclidean:2", "circle", "torus2", "hyperbolic-h2"]


def _heat_branches(name):
    m = fl.manifold_from_string(name)
    spec = fl.GeneratorSpec([fl.frame_field(m, k) for k in range(1, m.dim + 1)])
    return m, branch_moves(spec, CV.HEAT_GEODESIC)


def _geodesic_moves(m):
    """Reference moves: the closed-form geodesic along +-sqrt(d) e_k(x) for time sqrt(s)."""
    root_d = math.sqrt(m.dim)

    def move(k, sign):
        return lambda c, s: m.geodesic_batch(c, sign * root_d * m.frame_batch(c)[k], math.sqrt(s))

    return [move(k, sign) for k in range(m.dim) for sign in (+1.0, -1.0)]


def _assert_shift_matches(m, got, want):
    # flat charts: the same float operations; H2: the reference velocity y_x v / y_x
    # may round away from v
    if m.name == "hyperbolic-h2":
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
    else:
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("name", GROUP_CHARTS)
@settings(max_examples=60, deadline=None, derandomize=True,
          phases=[Phase.explicit, Phase.generate])
@given(
    x0=st.floats(-2.0, 2.0),
    log_y=st.floats(-2.0, 2.0),
    s=st.floats(0.0, 2.0),
)
def test_compose_with_shift_is_the_move(name, x0, log_y, s):
    m, branches = _heat_branches(name)
    c = [x0, math.exp(log_y)] if name == "hyperbolic-h2" else [x0, log_y][: m.dim]
    x = m.point(c).coords[None, :]
    e = m.identity[None, :]
    assert all(br.shift is not None for br in branches)
    for j, (br, geodesic) in enumerate(zip(branches, _geodesic_moves(m))):
        got = m.compose(x, br.shift(s))
        np.testing.assert_array_equal(m.compose(x, br.shift(s)[None, :]), got)
        np.testing.assert_array_equal(move_rows(branches, x, [j], s), got)
        _assert_shift_matches(m, got, geodesic(x, s))
    h = np.stack([br.shift(s) for br in branches])
    if name != "hyperbolic-h2":
        # a translation by +-sqrt(d s) e_k, its pair the inverse
        np.testing.assert_array_equal(h[0::2], -h[1::2])
        np.testing.assert_array_equal(np.abs(h).sum(axis=1), math.sqrt(m.dim) * math.sqrt(s))
        return
    # geodesics from the identity are not one-parameter subgroups of ax+b, but
    # each ends sqrt(d s) from it: sinh(dist / 2) = |h - e| / (2 sqrt(y_h)),
    # which keeps its digits near 0
    dist = 2.0 * np.arcsinh(np.linalg.norm(h - e, axis=1) / (2.0 * np.sqrt(h[:, 1])))
    np.testing.assert_allclose(dist, math.sqrt(2.0 * s), rtol=1e-12, atol=1e-12)
    # the vertical pair (0, e^{+-t}) is a subgroup: h_b(s) composed with the
    # shift of -b is the identity
    up, down = branches[2].shift(s), branches[3].shift(s)
    np.testing.assert_allclose(m.compose(up[None, :], down), e, atol=1e-12)


def _chain(table, start, n):
    """Every block sample_steps yields for n steps of 1/8 from ``start``, and the endpoints."""
    coords = start.copy()
    streams = substream(3, np.arange(start.shape[0]))
    blocks = [d.copy() for d, _ in sample_steps(table, 1.0 / 8, coords, streams, n)]
    return blocks, coords


def _geodesic_chain(table, moves, start, n):
    """The reference of ``_chain``: step by step, the draws sum_j (T_j <= z) over
    the exact thresholds T_j = ceil(cumw_j 2^64), and each branch's rows moved by
    its closed-form geodesic."""
    coords = start.copy()
    streams = substream(3, np.arange(start.shape[0]))
    cumw = np.cumsum([br.weight for br in table])[:-1]
    T = np.array([math.ceil(w * 2**64) for w in cumw], dtype=np.uint64)
    steps = []
    for m in range(n):
        drawn = np.sum(T[:, None] <= step_uniforms(streams, m), axis=0)
        for j, move in enumerate(moves):
            coords[drawn == j] = move(coords[drawn == j], 1.0 / 8)
        steps.append(drawn)
    return steps, coords


@pytest.mark.parametrize("name", GROUP_CHARTS)
def test_sample_steps_shifts_match_the_moves(name):
    # the folded blocks of k draws, each one gather from a table of group
    # products and one compose, against masked closed-form geodesic moves one
    # step at a time: the same draws, and endpoints equal up to rounding (the
    # products associate differently)
    m, branches = _heat_branches(name)
    b = len(branches)
    k = max(j for j in range(1, 13) if b**j <= 4096)
    assert k == {2: 12, 4: 6}[b]
    start = np.tile(m.random_points(1, np.random.default_rng(4)), (400, 1))
    for n in (1, k - 1, k, k + 1, 2 * k + 3):
        blocks, end = _chain(branches, start, n)
        steps, want = _geodesic_chain(branches, _geodesic_moves(m), start, n)
        sizes = [min(k, n - i) for i in range(0, n, k)]
        assert len(steps) == n and len(blocks) == len(sizes)
        decoded = [idx // b ** (size - 1 - i) % b for idx, size in zip(blocks, sizes) for i in range(size)]
        np.testing.assert_array_equal(decoded, steps)
        np.testing.assert_allclose(end, want, rtol=1e-12, atol=1e-12)
        assert not np.array_equal(end, start)


def test_mc_rows_do_not_depend_on_the_batch():
    h2 = fl.hyperbolic_h2()
    spec = fl.GeneratorSpec([fl.frame_field(h2, 1), fl.frame_field(h2, 2)])
    ends = []

    def f(c):
        ends.append(c.copy())
        return c[:, 1]

    for samples in (20, 10):
        fl.iterate_mc(spec, CV.HEAT_GEODESIC, 0.5, 32, f, h2.point([0.5, 1.0]), samples, seed=9181)
    np.testing.assert_array_equal(ends[0][:10], ends[1])


@pytest.mark.parametrize("equal", [True, False], ids=["equal-rows", "distinct-rows"])
def test_sample_steps_gives_each_row_its_bits_alone(monkeypatch, equal):
    # rows that start at one point move one row per draw history, distinct
    # rows every row; either way a row draws and ends as it does alone
    circ = fl.circle()
    spec = fl.GeneratorSpec([fl.field_from_string(circ, "custom:1+0.3*sin(theta)")],
                            drift_policy="derived")
    branches = branch_moves(spec, CV.GENERAL)
    rows = 48
    start = np.full((rows, 1), 0.7) if equal else circ.random_points(rows, np.random.default_rng(5))
    streams = substream(8, np.arange(rows))
    moved = []
    rows_moved = lambda br, coords, idx, s: moved.append(len(coords)) or move_rows(br, coords, idx, s)
    monkeypatch.setattr(chernoff, "move_rows", rows_moved)
    coords = start.copy()
    drawn = [d.copy() for d, _ in sample_steps(branches, 0.125, coords, streams, 5)]
    assert (moved[0] <= len(branches)) == equal  # equal rows: one row per branch drawn
    for i in range(rows):
        alone = start[i : i + 1].copy()
        drawn_alone = [d.copy() for d, _ in sample_steps(branches, 0.125, alone, streams[i : i + 1], 5)]
        assert [d[i] for d in drawn] == [d[0] for d in drawn_alone]
        assert coords[i].tobytes() == alone[0].tobytes(), i


def test_one_word_per_row_and_step(monkeypatch):
    # the bench reads chernoff.mc.sample_steps and walks.sample_steps as the
    # words step_uniforms returns: one call per step, one word per row
    calls = []

    def counted(streams, step):
        words = step_uniforms(streams, step)
        calls.append(words.size)
        return words

    monkeypatch.setattr(chernoff, "step_uniforms", counted)
    h2 = fl.hyperbolic_h2()
    spec = fl.GeneratorSpec([fl.frame_field(h2, 1), fl.frame_field(h2, 2)])
    fl.iterate_mc(spec, CV.HEAT_GEODESIC, 0.5, 32, lambda c: c[:, 1], h2.point([0.5, 1.0]), 300, seed=1)
    assert calls == [300] * 32
    calls.clear()
    circle_spec, circ = circle_heat()
    walk_endpoints(circle_spec, circ.point([0.3]), 1.37, 16, 50, seed=2)
    assert calls == [50] * 21


# -- the shift draw ----------------------------------------------------------------------------


def _equal_weight_table(b):
    """The heat-geodesic table of R^(b/2): b = 2, 4 or 8 branches of weight 1/b."""
    m = fl.euclidean(b // 2)
    spec = fl.GeneratorSpec([fl.frame_field(m, k + 1) for k in range(m.dim)])
    return m, branch_moves(spec, CV.HEAT_GEODESIC)


def _loop_draws(branches, words):
    """The threshold loop: branch sum_j (T_j <= z) per word z."""
    return sum((T <= words).astype(np.int64) for T in chernoff._thresholds(branches))


def _first_draws(monkeypatch, branches, words, dim):
    """The branch indices sample_steps draws from ``words`` in one step."""
    # sample_steps may shift its words in place: each call gets a copy
    monkeypatch.setattr(chernoff, "step_uniforms", lambda streams, step: words.copy())
    rows = words.size
    steps = sample_steps(branches, 0.1, np.zeros((rows, dim)), np.zeros(rows, np.uint64), 1)
    return next(steps)[0].copy()


@pytest.mark.parametrize("b", [2, 4, 8])
def test_shift_draw_equals_the_threshold_loop(monkeypatch, b):
    # T_j = j 2^(64-m) for b = 2^m equal weights, so the top m bits of a word
    # are its branch: at 0, 2^64 - 1, on and beside every threshold, and at
    # random words
    m, branches = _equal_weight_table(b)
    bits = b.bit_length() - 1
    assert chernoff._draw_shift(branches) == 64 - bits
    T = [int(t) for t in chernoff._thresholds(branches)]
    assert T == [j << (64 - bits) for j in range(1, b)]
    edges = [0, 2**64 - 1] + [t + e for t in T for e in (-1, 0, 1)]
    rng = np.random.default_rng(b)
    words = np.concatenate([np.array(edges, dtype=np.uint64),
                            rng.integers(0, 2**64, 10**5, dtype=np.uint64)])
    want = _loop_draws(branches, words)
    assert want[: len(edges)].tolist() == [z >> (64 - bits) for z in edges]
    np.testing.assert_array_equal(_first_draws(monkeypatch, branches, words, m.dim), want)


def test_unequal_and_signed_tables_keep_the_threshold_loop(monkeypatch):
    circ, s2 = fl.circle(), fl.sphere2()
    general = branch_moves(fl.GeneratorSpec([fl.frame_field(circ, 1)]), CV.GENERAL)
    rotations = branch_moves(
        fl.GeneratorSpec([fl.rotational_field(s2, k) for k in (1, 2, 3)], drift_policy="derived"),
        CV.GENERAL,
    )
    signed = branch_moves(fl.GeneratorSpec([fl.frame_field(circ, 1)], potential="-1-sin(theta)^2"),
                          CV.GENERAL)
    assert [br.weight for br in general] == [Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)]
    assert [br.weight for br in rotations] == [Fraction(1, 2)] + [Fraction(1, 12)] * 6
    # four branches, a power of two, but of unequal weights and the last signed
    assert len(signed) == 4 and signed[-1].signed is not None
    for table in (general, rotations, signed):
        assert chernoff._draw_shift(table) is None
    words = np.random.default_rng(7).integers(0, 2**64, 1000, dtype=np.uint64)
    for table, m in ((general, circ), (rotations, s2)):
        got = _first_draws(monkeypatch, table, words, m.chart_dim)
        np.testing.assert_array_equal(got, _loop_draws(table, words))


@pytest.mark.parametrize("name", ["circle", "torus2", "hyperbolic-h2", "euclidean:4"])
def test_heat_geodesic_branch_frequencies_match_the_weights(name):
    # one folded block of k draws per row from the MC substreams: the count of
    # each branch at each of the k positions against the exact weights 1/b
    from scipy.stats import chi2

    m = fl.manifold_from_string(name)
    spec = fl.GeneratorSpec([fl.frame_field(m, k + 1) for k in range(m.dim)])
    branches = branch_moves(spec, CV.HEAT_GEODESIC)
    b, rows = len(branches), 20_000
    k = chernoff._block_len(b)
    assert chernoff._draw_shift(branches) is not None
    coords = np.tile(m.identity, (rows, 1))
    (idx, _), = list(sample_steps(branches, 0.1, coords, substream(21, np.arange(rows)), k))
    digits = np.stack([idx.astype(np.int64) // b ** (k - 1 - i) % b for i in range(k)])
    counts = np.stack([np.bincount(d, minlength=b) for d in digits])
    expected = rows * float(branches[0].weight)
    stat = float(((counts - expected) ** 2 / expected).sum())
    assert chi2.sf(stat, k * (b - 1)) > 1e-3


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


def strong_potential():
    # dt*|c| = 5 dt at worst: > 1 for dt >= 0.25 where sin^2 > 1/2, and always at dt = 0.5
    circ = fl.circle()
    spec = fl.GeneratorSpec(
        [fl.frame_field(circ, 1)], drift_policy="explicit", potential="-3-2*sin(theta)^2"
    )
    return spec, circ, lambda c: np.cos(c[:, 0]) + 2.0


@pytest.mark.parametrize("n", [2, 4])
def test_potential_step_above_one_is_refused(n):
    # the parent returned 0.6246 (n = 2) and -0.0258 (n = 4) for an f >= 1
    spec, circ, f = strong_potential()
    x = circ.point([0.3])
    with pytest.raises(PotentialStepError, match="> 1"):
        fl.iterate_tree(spec, CV.GENERAL, 1.0, n, f, x)
    with pytest.raises(PotentialStepError):
        fl.iterate_mc(spec, CV.GENERAL, 1.0, n, f, x, 1000, 3)
    with pytest.raises(PotentialStepError):
        fl.iterate_grid(spec, CV.GENERAL, 1.0, n, GridFunction.from_function(circ, 64, f))
    with pytest.raises(PotentialStepError):
        apply_S(spec, CV.GENERAL, 1.0 / n, f, circ.point([1.2]))


@pytest.mark.parametrize("n", [8, 10])
def test_mc_with_a_potential_agrees_with_the_tree(n):
    # the signed draw; the parent's (1 + dt c) factor was off by z = 74 (n = 8)
    # and z = 56 (n = 10) on this case
    circ = fl.circle()
    spec = fl.GeneratorSpec(
        [fl.frame_field(circ, 1)], drift_policy="explicit", potential="-1-sin(theta)^2"
    )
    f = lambda c: np.cos(c[:, 0])
    x = circ.point([0.3])
    tree = fl.iterate_tree(spec, CV.GENERAL, 1.0, n, f, x)
    mc = fl.iterate_mc(spec, CV.GENERAL, 1.0, n, f, x, 400_000, seed=5)
    assert abs(mc.mean - tree) <= 4.0 * mc.stderr


def test_potential_step_guard_reads_the_evaluated_points():
    spec, circ, f = strong_potential()
    x = circ.point([0.3])
    # n = 8: dt*|c| <= 0.625 everywhere
    assert fl.iterate_tree(spec, CV.GENERAL, 1.0, 8, f, x) == pytest.approx(0.02055, abs=1e-5)
    # dt = 0.25 passes at theta = 0.3 (dt*|c| = 0.79) and fails at 1.2 (1.18)
    assert apply_S(spec, CV.GENERAL, 0.25, f, x) > 0.0
    with pytest.raises(PotentialStepError):
        apply_S(spec, CV.GENERAL, 0.25, f, circ.point([1.2]))


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


def test_defect_refuses_a_sample_point_of_another_manifold():
    # the generator takes rows, so the defect checks its Points itself
    spec, circ = circle_heat()
    f, grad, hess = cos_triplet()
    sample = [circ.point([0.3]), fl.euclidean(1).point([0.3])]
    with pytest.raises(IncompatibleBaseError, match="euclidean:1"):
        fl.consistency_defect(spec, CV.GENERAL, 0.1, f, sample, f_grad=grad, f_hess=hess)


def test_driftless_literal_vs_corrected():
    spec, _ = circle_heat()
    f, grad, hess = cos_triplet()
    lit = fl.consistency_defect(spec, CV.DRIFTLESS_LITERAL, 0.01, f, sample_circle(),
                                f_grad=grad, f_hess=hess)
    cor = fl.consistency_defect(spec, CV.DRIFTLESS_CORRECTED, 0.01, f, sample_circle(),
                                f_grad=grad, f_hess=hess)
    assert abs(lit - 0.5) <= 0.05   # converges to |L0 f| = 1/2, not to 0
    assert cor <= 1e-3              # consistent variant
