import math

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import feller as fl
from feller.errors import (
    BeyondInjectivityRadiusError,
    InvalidPointError,
    NotParallelizableError,
)
from feller.manifolds import TWO_PI, wrap_angle

ALL = lambda: [fl.euclidean(1), fl.euclidean(2), fl.circle(), fl.torus2(),
               fl.hyperbolic_h2(), fl.sphere2()]


def _g_norm(m, xs, vs):
    """Riemannian length of the vectors vs at xs: |v| / y on H2, |v| on the others."""
    norm = np.linalg.norm(vs, axis=-1)
    return norm / xs[..., 1] if m.name == "hyperbolic-h2" else norm


# -- metric ---------------------------------------------------------------------


def test_metric_euclidean_identity():
    m = fl.euclidean(2)
    md = fl.metric_at(m, m.point([3.0, -1.0]))
    np.testing.assert_array_equal(md.g, np.eye(2))
    assert md.sqrt_det == 1.0


def test_metric_half_plane():
    m = fl.hyperbolic_h2()
    md = fl.metric_at(m, m.point([0.0, 2.0]))
    np.testing.assert_allclose(md.g, np.diag([0.25, 0.25]))
    np.testing.assert_allclose(md.g_inv, np.diag([4.0, 4.0]))
    assert md.sqrt_det == pytest.approx(0.25)


def test_metric_circle():
    m = fl.circle()
    md = fl.metric_at(m, m.point([np.pi]))
    np.testing.assert_array_equal(md.g, [[1.0]])
    assert md.sqrt_det == 1.0


def test_metric_consistency_random(rng):
    for m in ALL():
        pts = m.random_points(20, rng)
        for c in pts:
            md = fl.metric_at(m, m.point(c))
            np.testing.assert_allclose(md.g @ md.g_inv, np.eye(md.g.shape[0]), atol=1e-10)
            assert md.sqrt_det == pytest.approx(np.sqrt(np.linalg.det(md.g)), abs=1e-10)


# -- christoffels ------------------------------------------------------------------


def test_christoffel_flat_zero():
    for m in (fl.euclidean(3), fl.torus2(), fl.circle()):
        x = m.point([0.5] * m.chart_dim)
        assert not np.any(fl.christoffel_at(m, x))


def test_christoffel_half_plane():
    m = fl.hyperbolic_h2()
    g = fl.christoffel_at(m, m.point([0.0, 1.0]))
    expected = np.zeros((2, 2, 2))
    expected[0, 0, 1] = expected[0, 1, 0] = -1.0
    expected[1, 0, 0] = 1.0
    expected[1, 1, 1] = -1.0
    np.testing.assert_allclose(g, expected)
    np.testing.assert_allclose(g, np.swapaxes(g, 1, 2))  # symmetric in (b, c)


# -- geodesics ----------------------------------------------------------------------


def test_geodesic_line():
    m = fl.euclidean(1)
    x = m.point([0.0])
    assert fl.geodesic(m, x, m.tangent(x, [1.0]), 2.0).coords[0] == pytest.approx(2.0)


def test_geodesic_circle_loop():
    m = fl.circle()
    x = m.point([0.0])
    out = fl.geodesic(m, x, m.tangent(x, [1.0]), 2.0 * np.pi)
    assert out.coords[0] == pytest.approx(0.0, abs=1e-12)


def test_geodesic_great_circle():
    m = fl.sphere2()
    x = m.point([1.0, 0.0, 0.0])
    v = m.tangent(x, [0.0, 1.0, 0.0])
    out = fl.geodesic(m, x, v, np.pi / 2.0)
    np.testing.assert_allclose(out.coords, [0.0, 1.0, 0.0], atol=1e-12)


def test_geodesic_speed_constant(rng):
    # speed of gamma measured as d(gamma(t), gamma(t+h))/h at several t;
    # distance along a geodesic is exact arclength, so h need not be tiny
    h = 1e-3
    for m in ALL():
        pts = m.random_points(40, rng)
        for c in pts:
            x = m.point(c)
            v = rng.normal(size=m.chart_dim)
            if m.name == "sphere2":
                v -= (v @ c) * c
            t_end = rng.uniform(0.3, 1.5)
            speeds = []
            for t in (0.0, 0.5 * t_end, t_end):
                a = m.geodesic_batch(c[None, :], v[None, :], t)
                b = m.geodesic_batch(c[None, :], v[None, :], t + h)
                speeds.append(m.distance_batch(a, b)[0] / h)
            speeds = np.array(speeds)
            if speeds[0] > 1e-9:
                assert np.ptp(speeds) / speeds[0] < 1e-8


def test_log_exp_roundtrip(rng):
    for m in ALL():
        xs = m.random_points(60, rng)
        ys = m.random_points(60, rng)
        if m.injectivity_radius < np.inf:
            # stay inside the injectivity radius
            d = m.distance_batch(xs, ys)
            keep = d < 0.9 * m.injectivity_radius
            xs, ys = xs[keep], ys[keep]
        v = m.log_batch(xs, ys)
        back = m.wrap(m.geodesic_batch(xs, v, 1.0))
        if m.name in ("circle", "torus2"):
            err = np.abs(np.pi - np.mod(np.pi - (back - ys), 2 * np.pi))
        else:
            err = np.abs(back - ys)
        assert err.max() < 1e-8
        # |log| equals the distance
        np.testing.assert_allclose(
            _g_norm(m, xs, v), m.distance_batch(xs, ys), atol=1e-10
        )
        # log(x, x) is exactly 0 and its geodesic holds x
        v = m.log_batch(xs, xs)
        np.testing.assert_array_equal(v, 0.0)
        np.testing.assert_array_equal(m.geodesic_batch(xs, v, 0.7), xs)
    _h2_roundtrip_near_and_far(rng)
    _sphere_roundtrip_short_range(rng)


def _ulps(got, want):
    """Error in units in the last place of each row's largest coordinate."""
    return np.abs(got - want) / np.spacing(np.abs(want).max(axis=-1, keepdims=True))


def _h2_roundtrip_near_and_far(rng):
    # y = x + sep y_x (tilt, 1), up and down, near vertical and far from it
    m = fl.hyperbolic_h2()
    xs = m.random_points(2000, rng)
    for sep in (3.0, 1e-3, 1e-6, 1e-9):
        for tilt in (0.0, 1e-12):
            ys = xs + sep * xs[:, 1:] * np.array([tilt, 1.0])
            for a, b in ((xs, ys), (ys, xs)):
                v = m.log_batch(a, b)
                d = m.distance_batch(a, b)
                assert np.all(d > 0.0)
                np.testing.assert_allclose(_g_norm(m, a, v), d, rtol=1e-13, atol=0.0)
                assert _ulps(m.geodesic_batch(a, v, 1.0), b).max() <= 8.0
    # closed forms: the vertical ray (a, b e^+-sigma) and the horizontal
    # geodesic from i, (tanh sigma, sech sigma)
    x = m.random_points(1, rng)
    for sigma in (3.0, 1e-3, 1e-6, 1e-9):
        for sign in (1.0, -1.0):
            want = x * np.array([1.0, np.exp(sign * sigma)])
            got = m.geodesic_batch(x, np.array([[0.0, sign * sigma * x[0, 1]]]), 1.0)
            assert _ulps(got, want).max() <= 4.0
            want = np.array([[sign * np.tanh(sigma), 1.0 / np.cosh(sigma)]])
            got = m.geodesic_batch(m.identity[None, :], np.array([[sign * sigma, 0.0]]), 1.0)
            assert _ulps(got, want).max() <= 4.0
            # to the rounding of the reference point's coordinates
            np.testing.assert_allclose(m.log_batch(m.identity[None, :], want),
                                       [[sign * sigma, 0.0]], rtol=1e-13, atol=1e-15)
    # a velocity 1e-12 rad off vertical still reaches y = e at unit time
    got = m.geodesic_shift(np.array([1e-12, 1.0]), 1.0)
    assert abs(got[1] - np.e) <= 2.0 * np.spacing(np.e)


def _sphere_roundtrip_short_range(rng):
    m = fl.sphere2()
    xs = m.random_points(2000, rng)
    u = rng.normal(size=xs.shape)
    u -= np.einsum("ij,ij->i", u, xs)[:, None] * xs
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    for sep in (1.0, 1e-3, 1e-6, 1e-9):
        ys = m.geodesic_batch(xs, sep * u, 1.0)
        v = m.log_batch(xs, ys)
        np.testing.assert_allclose(_g_norm(m, xs, v), m.distance_batch(xs, ys),
                                   rtol=1e-13, atol=0.0)
        assert _ulps(m.geodesic_batch(xs, v, 1.0), ys).max() <= 8.0
        # to the rounding of the coordinates of y
        np.testing.assert_allclose(m.distance_batch(xs, ys), sep, rtol=1e-13, atol=1e-15)


# -- log map -------------------------------------------------------------------------


def test_log_euclidean():
    m = fl.euclidean(2)
    v = fl.log_map(m, m.point([0.0, 0.0]), m.point([1.0, 1.0]))
    np.testing.assert_array_equal(v.comps, [1.0, 1.0])


def test_log_circle_short_arc():
    m = fl.circle()
    v = fl.log_map(m, m.point([0.0]), m.point([3.0 * np.pi / 2.0]))
    assert v.comps[0] == pytest.approx(-np.pi / 2.0)


def test_log_antipodal_rejected():
    m = fl.sphere2()
    with pytest.raises(BeyondInjectivityRadiusError):
        fl.log_map(m, m.point([1.0, 0.0, 0.0]), m.point([-1.0, 0.0, 0.0]))
    c = fl.circle()
    with pytest.raises(BeyondInjectivityRadiusError):
        fl.log_map(c, c.point([0.0]), c.point([np.pi]))


# -- distance ------------------------------------------------------------------------


def test_distance_examples():
    c = fl.circle()
    assert fl.distance(c, c.point([0.1]), c.point([2 * np.pi - 0.1])) == pytest.approx(0.2)
    h = fl.hyperbolic_h2()
    assert fl.distance(h, h.point([0.0, 1.0]), h.point([0.0, np.e])) == pytest.approx(1.0)
    s = fl.sphere2()
    assert fl.distance(s, s.point([1, 0, 0]), s.point([0, 0, 1])) == pytest.approx(np.pi / 2)
    # short range keeps its digits: arccos of a dot product would not
    x = s.point([1.0, 0.0, 0.0])
    for d in (1e-3, 1e-6, 1e-9):
        y = s.point([np.cos(d), np.sin(d), 0.0])
        assert fl.distance(s, x, y) == pytest.approx(d, rel=1e-13)
        np.testing.assert_allclose(fl.log_map(s, x, y).comps, [0.0, d, 0.0], rtol=1e-13, atol=0.0)
    # H2 closed forms: the vertical ray and the horizontal geodesic from i
    for sigma in (3.0, 1e-3, 1e-6, 1e-9):
        a, b = h.point([0.3, 0.7]), h.point([0.3, 0.7 * np.exp(sigma)])
        assert fl.distance(h, a, b) == pytest.approx(sigma, rel=1e-13)
        c = h.point([np.tanh(sigma), 1.0 / np.cosh(sigma)])
        assert fl.distance(h, h.point([0.0, 1.0]), c) == pytest.approx(sigma, rel=1e-13)
    # distance(x, x) is exactly 0 on every built-in chart
    rng = np.random.default_rng(0)
    for m in ALL():
        xs = m.random_points(50, rng)
        np.testing.assert_array_equal(m.distance_batch(xs, xs), 0.0)


def test_distance_symmetry_triangle(rng):
    for m in ALL():
        a = m.random_points(50, rng)
        b = m.random_points(50, rng)
        c = m.random_points(50, rng)
        dab = m.distance_batch(a, b)
        np.testing.assert_array_equal(dab, m.distance_batch(b, a))
        assert np.all(dab <= m.distance_batch(a, c) + m.distance_batch(c, b) + 1e-10)


# integer points and velocities, one pair per built-in chart
INT_CASES = {
    "euclidean:2": ([[0, 1], [2, -1]], [[2, 3], [1, 1]], [[1, -1], [0, 2]]),
    "circle": ([[1], [5]], [[2], [4]], [[1], [-3]]),
    "torus2": ([[1, 2], [0, 6]], [[2, 1], [1, 5]], [[1, 1], [-2, 0]]),
    "hyperbolic-h2": ([[0, 1], [1, 3]], [[0, 2], [-1, 2]], [[1, 1], [0, -2]]),
    "sphere2": ([[0, 0, 1], [1, 0, 0]], [[1, 0, 0], [0, -1, 0]], [[0, 1, 0], [0, 0, 2]]),
}


@pytest.mark.parametrize("name", list(INT_CASES))
def test_integer_coordinates_give_the_float_results(name):
    # H2's compose builds its output like its input, so int rows once came back int
    m = fl.manifold_from_string(name)
    xs, ys, vs = (np.array(a) for a in INT_CASES[name])
    fx, fy, fv = (a.astype(float) for a in (xs, ys, vs))
    np.testing.assert_array_equal(m.distance_batch(xs, ys), m.distance_batch(fx, fy))
    np.testing.assert_array_equal(m.log_batch(xs, ys), m.log_batch(fx, fy))
    for t in (2, np.array([1, -1])):
        np.testing.assert_array_equal(m.geodesic_batch(xs, vs, t), m.geodesic_batch(fx, fv, t))


def _h2_hypot_distance(xs, ys):
    """The H2 distance with ``hypot`` at every row: 2 asinh(hypot / (2 sqrt(y_x y_y)))."""
    d = np.hypot(ys[:, 0] - xs[:, 0], ys[:, 1] - xs[:, 1])
    return 2.0 * np.arcsinh(d / (2.0 * np.sqrt(xs[:, 1] * ys[:, 1])))


def test_h2_distance_matches_hypot_form(rng):
    m = fl.hyperbolic_h2()
    xs = m.random_points(100_000, rng)
    ys = m.random_points(100_000, rng)
    # half the pairs at separations from 1 down to 1e-12 of y_x
    sep = np.exp(rng.uniform(np.log(1e-12), 0.0, (50_000, 1))) * xs[::2, 1:]
    ys[::2] = xs[::2] + sep * rng.normal(size=(50_000, 2))
    ys[::2, 1] = np.abs(ys[::2, 1])
    got, want = m.distance_batch(xs, ys), _h2_hypot_distance(xs, ys)
    assert np.all(np.abs(got - want) <= 2.0 * np.finfo(float).eps * want)


def _h2_extreme_pairs(rng):
    """Unit-scale pairs, and the same pairs scaled by powers of two near 1e-170,
    1e-300 and 1e200, where squares and products under- or overflow."""
    m = fl.hyperbolic_h2()
    xs, ys = m.random_points(200, rng), m.random_points(200, rng)
    ys[:100] = xs[:100] + 1e-6 * xs[:100, 1:] * rng.normal(size=(100, 2))
    return xs, ys, (2.0**-564, 2.0**-760, 2.0**-990, 2.0**664)


def test_h2_distance_at_extreme_scales_keeps_its_digits(rng):
    # the distance is invariant under (x, y) -> s (x, y)
    m = fl.hyperbolic_h2()
    xs, ys, scales = _h2_extreme_pairs(rng)
    want = m.distance_batch(xs, ys)
    for s in scales:
        np.testing.assert_allclose(m.distance_batch(s * xs, s * ys), want, rtol=1e-15, atol=0.0)
    # one batch that mixes every scale takes the careful form row by row
    mixed = m.distance_batch(np.vstack([s * xs for s in (1.0,) + scales]),
                             np.vstack([s * ys for s in (1.0,) + scales]))
    np.testing.assert_allclose(mixed, np.tile(want, len(scales) + 1), rtol=1e-15, atol=0.0)
    # horizontal separations from 1e-170 to 1e-300 at unit height
    for sep in (1e-170, 1e-200, 1e-250, 1e-300):
        d = m.distance_batch(np.array([[0.0, 1.0]]), np.array([[sep, 1.0]]))
        assert d[0] == pytest.approx(sep, rel=1e-15, abs=0.0)


def test_h2_distance_at_tiny_heights():
    # y_x y_y underflows here: the product form gave nan and inf
    m = fl.hyperbolic_h2()
    assert m.distance_batch([[0.0, 1e-170]], [[0.0, 1e-170]])[0] == 0.0
    d = m.distance_batch([[0.0, 1e-170]], [[1e-170, 2e-170]])[0]
    assert d == pytest.approx(2.0 * math.asinh(0.5), rel=1e-15)


def test_h2_distance_symmetric_and_zero_at_every_scale(rng):
    m = fl.hyperbolic_h2()
    xs, ys, scales = _h2_extreme_pairs(rng)
    a = np.vstack([s * xs for s in (1.0,) + scales])
    b = np.vstack([s * ys for s in (1.0,) + scales])
    assert m.distance_batch(a, b).tobytes() == m.distance_batch(b, a).tobytes()
    for pts in (a, xs, scales[0] * xs, scales[-1] * xs):
        np.testing.assert_array_equal(m.distance_batch(pts, pts), 0.0)


# -- frames ---------------------------------------------------------------------------


def test_frame_examples():
    e = fl.euclidean(2)
    fr = fl.frame_at(e, e.point([0.3, 0.4]))
    np.testing.assert_array_equal(fr[0].comps, [1.0, 0.0])
    np.testing.assert_array_equal(fr[1].comps, [0.0, 1.0])
    h = fl.hyperbolic_h2()
    fr = fl.frame_at(h, h.point([0.0, 2.0]))
    np.testing.assert_allclose(fr[0].comps, [2.0, 0.0])
    np.testing.assert_allclose(fr[1].comps, [0.0, 2.0])
    with pytest.raises(NotParallelizableError):
        fl.frame_at(fl.sphere2(), fl.sphere2().point([0.0, 0.0, 1.0]))


def test_frame_identity(rng):
    # sum_k e_k^i e_k^j = g^{ij} on the parallelizable built-ins
    for m in (fl.euclidean(2), fl.circle(), fl.torus2(), fl.hyperbolic_h2()):
        pts = m.random_points(30, rng)
        frame = m.frame_batch(pts)  # (d, n, d)
        outer = np.einsum("kni,knj->nij", frame, frame)
        for i, c in enumerate(pts):
            ginv = fl.metric_at(m, m.point(c)).g_inv
            np.testing.assert_allclose(outer[i], ginv, atol=1e-10)


def test_sphere_rotational_frame_identity(rng):
    # sum_k L_k^a L_k^b = g^{ab} (identity in the tangent-plane chart)
    m = fl.sphere2()
    pts = m.random_points(30, rng)
    basis = m.tangent_basis(pts)
    fields = [fl.rotational_field(m, k) for k in (1, 2, 3)]
    comps = np.stack([np.einsum("nj,njk->nk", f.comps(pts), basis) for f in fields], axis=1)
    outer = np.einsum("nri,nrj->nij", comps, comps)
    np.testing.assert_allclose(outer, np.broadcast_to(np.eye(2), outer.shape), atol=1e-10)


# -- group products -------------------------------------------------------------------

GROUP_CHARTS = ["euclidean:1", "euclidean:2", "circle", "torus2", "hyperbolic-h2"]


def _row_major_compose(m, coords, h):
    """The group product by its formula on row-major rows: (x + y a, y b) on
    H2, the wrapped sum on the flat charts."""
    if m.name == "hyperbolic-h2":
        return np.stack([coords[:, 0] + coords[:, 1] * h[..., 0], coords[:, 1] * h[..., 1]], axis=-1)
    return m.wrap(coords + h)


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("name", GROUP_CHARTS)
def test_compose_returns_column_major_rows(name, order):
    # one element or one per row, from C or F rows: the bits of the formula,
    # in rows whose every coordinate is one contiguous column
    m = fl.manifold_from_string(name)
    rng = np.random.default_rng(3)
    coords, hs = (np.asarray(m.random_points(500, rng), order=order) for _ in range(2))
    for h in (hs, hs[7]):
        got = m.compose(coords, h)
        assert got.shape == coords.shape and got.flags.f_contiguous
        np.testing.assert_array_equal(got, _row_major_compose(m, coords, h))


@pytest.mark.parametrize("name", GROUP_CHARTS)
def test_compose_broadcasts_rows_against_elements(name):
    # nodes (k, 1, d) against elements (1, L, d): the node-major products of
    # the repeated nodes and the tiled elements, with leaves a view of them
    m = fl.manifold_from_string(name)
    rng = np.random.default_rng(4)
    a, b = m.random_points(5, rng), m.random_points(7, rng)
    got = m.compose(a[:, None], b[None])
    assert got.shape == (5, 7, m.dim)
    leaves = got.reshape(-1, m.dim)
    assert np.shares_memory(leaves, got) and leaves.flags.f_contiguous
    np.testing.assert_array_equal(leaves, m.compose(np.repeat(a, 7, 0), np.tile(b, (5, 1))))


# -- validation and wrapping -----------------------------------------------------------


def test_point_validation():
    with pytest.raises(InvalidPointError):
        fl.hyperbolic_h2().point([0.0, -1.0])
    with pytest.raises(InvalidPointError):
        fl.sphere2().point([1.0, 1.0, 0.0])
    with pytest.raises(InvalidPointError):
        fl.euclidean(2).point([np.nan, 0.0])
    with pytest.raises(InvalidPointError):
        fl.euclidean(2).point([1.0])


def test_periodic_wrap():
    c = fl.circle()
    assert c.point([2 * np.pi + 1.0]).coords[0] == pytest.approx(1.0)
    t = fl.torus2()
    np.testing.assert_allclose(t.point([-0.5, 7.0]).coords,
                               [2 * np.pi - 0.5, 7.0 - 2 * np.pi])


def test_wrap_angle_stays_below_two_pi():
    # np.mod rounds tiny negative angles up to 2 pi itself
    a = np.array([-1e-300, -1e-17, -TWO_PI, TWO_PI])
    assert np.mod(a[1], TWO_PI) == TWO_PI
    out = wrap_angle(a)
    np.testing.assert_array_equal(out, [0.0, 0.0, 0.0, 0.0])
    np.testing.assert_array_equal(wrap_angle(out), out)
    inside = np.array([0.0, 1e-300, 3.0, np.nextafter(TWO_PI, 0.0)])
    np.testing.assert_array_equal(wrap_angle(inside), inside)


def test_point_wraps_tiny_negative_angles_to_zero():
    assert fl.circle().point([-1e-17]).coords[0] == 0.0
    np.testing.assert_array_equal(fl.torus2().point([-1e-300, -TWO_PI]).coords, [0.0, 0.0])


@settings(max_examples=60, deadline=None, derandomize=True,
          phases=[Phase.explicit, Phase.generate])
@given(
    a=st.floats(0.0, 2 * np.pi - 1e-9),
    b=st.floats(0.0, 2 * np.pi - 1e-9),
)
def test_circle_log_exp_property(a, b):
    m = fl.circle()
    d = abs(np.pi - np.mod(np.pi - (b - a), 2 * np.pi))
    if d > np.pi - 1e-6:
        return
    v = m.log_batch(np.array([[a]]), np.array([[b]]))
    back = m.wrap(m.geodesic_batch(np.array([[a]]), v, 1.0))[0, 0]
    assert abs(np.pi - np.mod(np.pi - (back - b), 2 * np.pi)) < 1e-9


def test_manifold_from_string():
    assert fl.manifold_from_string("euclidean:3").dim == 3
    assert fl.manifold_from_string("circle") is fl.circle()
    assert fl.manifold_from_string("hyperbolic-h2") is fl.hyperbolic_h2()
    with pytest.raises(ValueError):
        fl.manifold_from_string("klein-bottle")


@pytest.mark.parametrize("m", ALL(), ids=lambda m: m.name)
def test_in_chart(m, rng):
    xs = m.random_points(6, rng)
    assert m.in_chart(xs).all()
    for k, bad in enumerate([np.nan, np.inf, -np.inf]):
        xs[2 * k, k % m.chart_dim] = bad
    assert m.in_chart(xs).tolist() == [False, True] * 3
    if m.name == "hyperbolic-h2":
        assert m.in_chart(np.array([[0.3, 0.0], [0.3, -1.0], [0.3, 1e-300]])).tolist() == [
            False, False, True]
