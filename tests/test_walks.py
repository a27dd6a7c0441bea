import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import ndtr, ndtri

import feller as fl
from feller import walks
from feller.chernoff import ChernoffVariant as CV
from feller.chernoff import branch_moves, move_rows
from feller.errors import EmptySampleError, VariantIncompatibleError
from feller.walks import walk_endpoints


def euclid_heat():
    e1 = fl.euclidean(1)
    return fl.GeneratorSpec([fl.constant_field(e1, [1.0])]), e1


def circle_heat():
    circ = fl.circle()
    return fl.GeneratorSpec([fl.frame_field(circ, 1)], drift_policy="explicit"), circ


def check_interpolation(path, tol=1e-8):
    """Recompute each segment's connecting curve from its start (up to the next
    skeleton instant, or to t_max) and return the worst deviation: a geodesic
    segment along the shortest geodesic to its end, a flow segment by its drawn
    branch at the local step times, through ``move_rows``."""
    if path.kind == "jump":
        return 0.0
    m = path.spec.manifold
    branches = branch_moves(path.spec, CV.GENERAL)
    worst = 0.0
    skeleton_times = path.times * path.n
    starts = np.flatnonzero(np.abs(skeleton_times - np.round(skeleton_times)) < 1e-9)
    ends = np.append(starts[1:], path.times.size - 1)
    for seg, (i0, i1) in enumerate(zip(starts, ends)):
        if i1 == i0:
            continue
        a = path.points[i0][None, :]
        local = path.times[i0 + 1 : i1 + 1] - path.times[i0]
        xs = np.repeat(a, local.size, axis=0)
        if path.kind == "geodesic":
            vs = np.repeat(m.log_batch(a, path.points[i1][None, :]), local.size, axis=0)
            cur = m.geodesic_batch(xs, vs, local / local[-1])
        else:
            cur = move_rows(branches, xs, np.full(local.size, path.xi[seg]), local)
        worst = max(worst, float(np.abs(cur - path.points[i0 + 1 : i1 + 1]).max()))
    if worst > tol:
        raise AssertionError(f"interpolation deviates by {worst:.2e} > {tol:.0e}")
    return worst


# -- one-step kernel ------------------------------------------------------------------


def test_step_distribution_probabilities():
    s2 = fl.sphere2()
    spec = fl.GeneratorSpec([fl.rotational_field(s2, k) for k in (1, 2, 3)])
    table = walks._walk_table(spec)
    probs = [br.weight for br in table]
    assert probs[0] == Fraction(1, 2)
    assert all(p == Fraction(1, 12) for p in probs[1:])
    assert sum(probs) == 1
    assert len(probs) == 2 * spec.r + 1
    assert table[0].label.startswith("flow(A_0")


def test_zero_fields_constant_path():
    e1 = fl.euclidean(1)
    spec = fl.GeneratorSpec([fl.zero_field(e1)])
    path = fl.sample_jump_path(spec, e1.point([0.4]), 1.0, 8, seed=2)
    np.testing.assert_array_equal(path.points, 0.4)


def test_jump_times_match_clock():
    spec, e1 = euclid_heat()
    path = fl.sample_jump_path(spec, e1.point([0.0]), 1.0, 4, seed=0)
    np.testing.assert_allclose(path.times, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert path.points.shape == (5, 1)


def test_increment_frequencies(rng):
    # one-step law: +-sqrt(2/n) with prob 1/4 each, hold with prob 1/2
    spec, e1 = euclid_heat()
    n, n_paths = 16, 100_000
    pts = walk_endpoints(spec, e1.point([0.0]), 1.0 / n, n, n_paths, seed=99)
    step = math.sqrt(2.0 / n)
    up = np.sum(np.abs(pts[:, 0] - step) < 1e-12)
    down = np.sum(np.abs(pts[:, 0] + step) < 1e-12)
    hold = np.sum(pts[:, 0] == 0.0)
    assert up + down + hold == n_paths
    for count, p in ((up, 0.25), (down, 0.25), (hold, 0.5)):
        sigma = math.sqrt(p * (1 - p) * n_paths)
        assert abs(count - p * n_paths) <= 4.0 * sigma


def test_xi_frequencies_flow_kind():
    spec, circ = circle_heat()
    xs = circ.point([0.0])
    counts = np.zeros(3)
    for pid in range(400):
        path = fl.sample_flow_interp(spec, xs, 1.0, 50, seed=17, path_index=pid)
        for x in path.xi:
            counts[x] += 1
    total = counts.sum()
    for k, p in ((0, 0.5), (1, 0.25), (2, 0.25)):
        sigma = math.sqrt(p * (1 - p) * total)
        assert abs(counts[k] - p * total) <= 4.0 * sigma


# -- skeleton equality ------------------------------------------------------------------


def _skeleton_case(manifold):
    if manifold == "circle":
        spec, circ = circle_heat()
        return spec, circ.point([0.3])
    if manifold == "sphere2":
        s2 = fl.sphere2()
        spec = fl.GeneratorSpec([fl.rotational_field(s2, k) for k in (1, 2, 3)])
        return spec, s2.point([0.6, 0.0, 0.8])
    h2 = fl.hyperbolic_h2()
    spec = fl.GeneratorSpec([fl.frame_field(h2, 1), fl.frame_field(h2, 2)], drift_policy="explicit")
    return spec, h2.point([0.0, 1.0])


@pytest.mark.parametrize("t_max", [1.0, 1.37])
def test_skeleton_equality_bit_exact(t_max):
    n = 16
    steps = int(n * t_max)
    for manifold in ("circle", "sphere2", "hyperbolic-h2"):
        spec, x = _skeleton_case(manifold)
        for seed in range(30):
            pj = fl.sample_jump_path(spec, x, t_max, n, seed=seed)
            pg = fl.sample_geodesic_interp(spec, x, t_max, n, seed=seed)
            pf = fl.sample_flow_interp(spec, x, t_max, n, seed=seed)
            for m in range(steps + 1):
                a = pj.at(m / n)
                assert np.array_equal(a, pg.at(m / n))
                assert np.array_equal(a, pf.at(m / n))


def _loop_time_grid(n, t_max):
    """The time grid built by nested while loops: the reference for the closed form."""
    steps = int(math.floor(n * t_max + 1e-12))
    partial = t_max - steps / n
    sub = t_max / (8.0 * n)
    times = [0.0]
    for m in range(steps):
        t0 = m / n
        k = 1
        while t0 + k * sub < (m + 1) / n - 1e-15:
            times.append(t0 + k * sub)
            k += 1
        times.append((m + 1) / n)
    if partial > 1e-12 / n:
        t0 = steps / n
        k = 1
        while t0 + k * sub < t_max - 1e-15:
            times.append(t0 + k * sub)
            k += 1
        times.append(t_max)
    return np.array(times)


@pytest.mark.parametrize("t_max, n", [(1.0, 1), (1.0, 8), (1.37, 16), (0.3, 7), (2.5, 3)])
def test_time_grid_matches_the_loop(t_max, n):
    spec, circ = circle_heat()
    reference = _loop_time_grid(n, t_max)
    for kind in ("geodesic", "flow"):
        times = fl.sample_path(kind, spec, circ.point([0.3]), t_max, n, seed=0).times
        assert times.tobytes() == reference.tobytes()


def test_reproducibility_bitwise():
    spec, circ = circle_heat()
    x = circ.point([0.3])
    a = fl.sample_geodesic_interp(spec, x, 1.0, 8, seed=5, path_index=3)
    b = fl.sample_geodesic_interp(spec, x, 1.0, 8, seed=5, path_index=3)
    np.testing.assert_array_equal(a.points, b.points)
    np.testing.assert_array_equal(a.times, b.times)
    c = fl.sample_geodesic_interp(spec, x, 1.0, 8, seed=5, path_index=4)
    assert not np.array_equal(a.points, c.points)


# -- interpolation geometry ----------------------------------------------------------------


def test_geodesic_interp_linear_on_euclid():
    spec, e1 = euclid_heat()
    path = fl.sample_geodesic_interp(spec, e1.point([0.0]), 1.0, 4, seed=11)
    # within each step the interpolant is affine in time
    t, p = path.times, path.points[:, 0]
    for m in range(4):
        sel = (t >= m / 4 - 1e-12) & (t <= (m + 1) / 4 + 1e-12)
        tt, pp = t[sel], p[sel]
        lin = pp[0] + (pp[-1] - pp[0]) * (tt - tt[0]) / (tt[-1] - tt[0])
        np.testing.assert_allclose(pp, lin, atol=1e-12)


def test_geodesic_interp_takes_short_arc():
    # a skeleton step crossing the seam interpolates through 0, not pi
    circ = fl.circle()
    big = fl.constant_field(circ, [-0.25 / math.sqrt(2.0)])
    spec = fl.GeneratorSpec([big], drift_policy="explicit")
    x = circ.point([0.1])
    seed = next(
        s for s in range(100)
        if fl.sample_jump_path(spec, x, 1.0, 1, seed=s).xi[0] == 1
    )
    path = fl.sample_geodesic_interp(spec, x, 1.0, 1, seed=seed)
    assert path.points[-1, 0] == pytest.approx(2 * np.pi - 0.15)
    interior = path.points[1:-1, 0]
    assert np.all((interior < 0.2) | (interior > 2 * np.pi - 0.2))
    check_interpolation(path)


def test_flow_interp_square_root_profile():
    spec, e1 = euclid_heat()
    x = e1.point([0.0])
    n = 4
    seed = next(
        s for s in range(100)
        if fl.sample_jump_path(spec, x, 1.0, n, seed=s).xi[0] == 1
    )
    path = fl.sample_flow_interp(spec, x, 1.0, n, seed=seed)
    # midpoint of the first step sits at sqrt(1/n) (tau(1, s) = sqrt(2 s))
    mid = path.at(1.0 / (2 * n))
    assert mid[0] == pytest.approx(math.sqrt(1.0 / n), abs=1e-12)
    end = path.at(1.0 / n)
    assert end[0] == pytest.approx(math.sqrt(2.0 / n), abs=1e-12)
    check_interpolation(path)


def test_interpolation_audit_passes():
    spec, circ = circle_heat()
    for seed in range(5):
        check_interpolation(fl.sample_geodesic_interp(spec, circ.point([0.3]), 1.0, 8, seed=seed))
        check_interpolation(fl.sample_flow_interp(spec, circ.point([0.3]), 1.0, 8, seed=seed))


@pytest.mark.parametrize("kind", ["geodesic", "flow"])
def test_audit_checks_the_partial_segment(kind):
    # t_max * n = 21.92: the points after t = 21/16 form the partial segment
    spec, circ = circle_heat()
    path = fl.sample_path(kind, spec, circ.point([0.3]), 1.37, 16, seed=0)
    assert path.times[-3] > 21 / 16
    check_interpolation(path)
    points = path.points.copy()
    points[-3:] += 0.5
    with pytest.raises(AssertionError, match="interpolation deviates"):
        check_interpolation(replace(path, points=points))


def test_geodesic_interp_constant_speed(rng):
    # interpolants have constant speed within each step
    spec, circ = circle_heat()
    path = fl.sample_geodesic_interp(spec, circ.point([0.0]), 1.0, 4, seed=23)
    t, p = path.times, path.points
    m = circ
    for k in range(len(t) - 2):
        same_step = math.floor(t[k] * 4 + 1e-9) == math.floor(t[k + 2] * 4 - 1e-9)
        if not same_step:
            continue
        d1 = m.distance_batch(p[k][None], p[k + 1][None])[0] / (t[k + 1] - t[k])
        d2 = m.distance_batch(p[k + 1][None], p[k + 2][None])[0] / (t[k + 2] - t[k + 1])
        if d1 > 1e-12:
            assert abs(d1 - d2) / d1 < 1e-6


# -- expectation estimates --------------------------------------------------------------------


def test_expectation_constant():
    spec, e1 = euclid_heat()
    stats = fl.estimate_expectation(
        spec, lambda c: np.full(c.shape[0], 4.5), e1.point([0.0]), 1.0, 8, 500, seed=0
    )
    assert stats.mean_f == 4.5 and stats.stderr_f == 0.0


def test_expectation_quadratic():
    spec, e1 = euclid_heat()
    stats = fl.estimate_expectation(
        spec, lambda c: c[:, 0] ** 2, e1.point([0.0]), 1.0, 8, 10**5, seed=21
    )
    assert abs(stats.mean_f - 1.0) <= 4.0 * stats.stderr_f


@pytest.mark.parametrize("n", [2, 3, 5])
def test_expectation_matches_tree(n):
    spec, circ = circle_heat()
    f = lambda c: np.cos(c[:, 0])
    x = circ.point([0.7])
    tree = fl.iterate_tree(spec, CV.GENERAL, 1.0, n, f, x)
    stats = fl.estimate_expectation(spec, f, x, 1.0, n, 2 * 10**5, seed=40 + n)
    assert abs(stats.mean_f - tree) <= 4.0 * stats.stderr_f


@pytest.mark.parametrize("manifold", ["circle-rk4", "sphere2"])
def test_expectation_is_iterate_mc(manifold):
    # with c = 0 and t = 1 both run one sample loop on one branch table
    if manifold == "circle-rk4":
        circ = fl.circle()
        field = fl.field_from_string(circ, "custom:1+0.3*sin(theta)")
        spec = fl.GeneratorSpec([field], drift_policy="derived")
        f, x, n, samples = (lambda c: np.cos(c[:, 0])), circ.point([0.7]), 8, 4000
    else:
        s2 = fl.sphere2()
        spec = fl.GeneratorSpec([fl.rotational_field(s2, k) for k in (1, 2, 3)])
        f, x, n, samples = (lambda c: c[:, 2]), s2.point([0.6, 0.0, 0.8]), 4, 2000
    mc = fl.iterate_mc(spec, CV.GENERAL, 1.0, n, f, x, samples, seed=11)
    walk = fl.estimate_expectation(spec, f, x, 1.0, n, samples, seed=11)
    assert (mc.mean, mc.stderr) == (walk.mean_f, walk.stderr_f)


def test_jump_path_ends_at_walk_endpoint():
    spec, circ = circle_heat()
    x = circ.point([0.3])
    ends = walk_endpoints(spec, x, 1.37, 16, 12, seed=8)
    for i in range(12):
        path = fl.sample_jump_path(spec, x, 1.37, 16, seed=8, path_index=i)
        assert np.array_equal(path.points[-1], ends[i])


def rk4_circle():
    circ = fl.circle()
    spec = fl.GeneratorSpec([fl.field_from_string(circ, "custom:1+0.3*sin(theta)")],
                            drift_policy="derived")
    return spec, circ.point([0.7])


@pytest.mark.parametrize("field", ["custom:1+0.3*sin(theta)", "custom:1+0.99*sin(5*theta)"])
def test_walk_endpoints_do_not_depend_on_the_batch(field):
    circ = fl.circle()
    spec = fl.GeneratorSpec([fl.field_from_string(circ, field)], drift_policy="derived")
    x = circ.point([0.7])
    many = walk_endpoints(spec, x, 1.0, 16, 20, seed=4)
    few = walk_endpoints(spec, x, 1.0, 16, 10, seed=4)
    assert many[:10].tobytes() == few.tobytes()


# -- the flow connector: one move per drawn branch ------------------------------------


def _flow_cases():
    circ, tor, e1, h2, s2 = (fl.circle(), fl.torus2(), fl.euclidean(1), fl.hyperbolic_h2(),
                             fl.sphere2())
    return {
        "circle": (rk4_circle()[0], circ.point([0.7])),
        "torus2": (fl.GeneratorSpec([fl.field_from_string(tor, "custom:1+0.2*cos(theta2),0.3*sin(theta1)"),
                                     fl.frame_field(tor, 2)], drift_policy="derived"),
                   tor.point([0.3, 1.1])),
        "euclidean:1": (fl.GeneratorSpec([fl.field_from_string(e1, "custom:1+0.5*tanh(x1)")],
                                         drift_policy="derived"), e1.point([0.2])),
        "hyperbolic-h2": (fl.GeneratorSpec([fl.frame_field(h2, 1), fl.frame_field(h2, 2)],
                                           drift_policy="derived"), h2.point([0.5, 1.0])),
        "sphere2": (fl.GeneratorSpec([fl.field_from_string(s2, "custom:-y,x,0.3*x*z"),
                                      fl.rotational_field(s2, 1), fl.rotational_field(s2, 2)],
                                     drift_policy="derived"), s2.point([0.0, 0.6, 0.8])),
    }


def _per_point_flow_points(spec, x, t_max, n, seed):
    """The flow path as the per-point loop filled it: one one-row move per interior point."""
    path = fl.sample_path("flow", spec, x, t_max, n, seed)
    skeleton = fl.sample_path("jump", spec, x, t_max, n, seed).points
    branches = branch_moves(spec, CV.GENERAL)
    s = path.times * n
    k = np.minimum(np.floor(s + 1e-12).astype(np.int64), path.xi.size)
    frac = s - k
    out = skeleton[np.minimum(k, skeleton.shape[0] - 1)]
    for i in np.flatnonzero((frac > 1e-12) & (k < path.xi.size)):
        start = skeleton[k[i]][None, :]
        out[i] = move_rows(branches, start, [path.xi[k[i]]], float(frac[i]) / n)[0]
    return path, out


@pytest.mark.parametrize("case", list(_flow_cases()))
def test_flow_path_matches_the_per_point_loop(case):
    spec, x = _flow_cases()[case]
    for t_max, seed in ((1.0, 3), (1.37, 5)):
        path, reference = _per_point_flow_points(spec, x, t_max, 8, seed)
        assert path.points.tobytes() == reference.tobytes()
        check_interpolation(path)


def h2_heat():
    h2 = fl.hyperbolic_h2()
    return fl.GeneratorSpec([fl.frame_field(h2, 1), fl.frame_field(h2, 2)]), h2


def _entry_points(n, t):
    spec, circ = circle_heat()
    x = circ.point([0.3])
    f = lambda c: np.cos(c[:, 0])
    h2_spec, h2 = h2_heat()
    y = h2.point([0.2, 1.5])
    g = lambda c: np.exp(-c[:, 1])
    return [
        lambda: fl.iterate_tree(h2_spec, CV.HEAT_GEODESIC, t, n, g, y),
        lambda: fl.iterate_mc(h2_spec, CV.HEAT_GEODESIC, t, n, g, y, 10, seed=0),
        lambda: fl.iterate_tree(spec, CV.GENERAL, t, n, f, x),
        lambda: fl.iterate_mc(spec, CV.GENERAL, t, n, f, x, 10, seed=0),
        lambda: walk_endpoints(spec, x, t, n, 10, seed=0),
        lambda: fl.estimate_expectation(spec, f, x, t, n, 10, seed=0),
        lambda: fl.sample_jump_path(spec, x, t, n, seed=0),
        lambda: fl.sample_geodesic_interp(spec, x, t, n, seed=0),
        lambda: fl.sample_flow_interp(spec, x, t, n, seed=0),
    ]


@pytest.mark.parametrize("n", [0, -2])
def test_bad_step_count_refused(n):
    for call in _entry_points(n, 1.0):
        with pytest.raises(ValueError, match="n must be >= 1"):
            call()


def test_negative_time_refused():
    # also NaN and +-inf, and the one-step operator on H2
    h2_spec, h2 = h2_heat()
    y = h2.point([0.2, 1.5])
    for t in (-1.0, math.nan, math.inf, -math.inf):
        apply_S = lambda: fl.apply_S_batch(h2_spec, CV.HEAT_GEODESIC, t, lambda c: c[:, 1],
                                           y.coords[None, :])
        for call in _entry_points(4, t) + [apply_S]:
            with pytest.raises(ValueError, match="t must be >= 0"):
                call()


def test_walks_refuse_a_potential():
    # the parent dropped c: estimate_expectation returned 2.5765427250976765
    # with and without c = -3-2 sin^2
    circ = fl.circle()
    spec = fl.GeneratorSpec([fl.frame_field(circ, 1)], drift_policy="explicit",
                            potential="-3-2*sin(theta)^2")
    x = circ.point([0.3])
    f = lambda c: np.cos(c[:, 0]) + 2.0
    calls = [
        lambda: walks._walk_table(spec),
        lambda: walk_endpoints(spec, x, 1.0, 8, 10, seed=0),
        lambda: fl.estimate_expectation(spec, f, x, 1.0, 8, 10, seed=0),
    ] + [lambda kind=kind: walks.sample_path(kind, spec, x, 1.0, 8, seed=0) for kind in walks.PATH_KINDS]
    for call in calls:
        with pytest.raises(VariantIncompatibleError, match="require c = 0"):
            call()


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_outside_a_word_refused(seed):
    spec, circ = circle_heat()
    x = circ.point([0.3])
    h2_spec, h2 = h2_heat()
    y = h2.point([0.2, 1.5])
    for call in (
        lambda: fl.iterate_mc(h2_spec, CV.HEAT_GEODESIC, 1.0, 4, lambda c: c[:, 1], y, 10, seed),
        lambda: walk_endpoints(spec, x, 1.0, 4, 10, seed),
        lambda: fl.sample_jump_path(spec, x, 1.0, 4, seed),
    ):
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\^64\)"):
            call()


@pytest.mark.parametrize("path_index", [-1, 2**64])
def test_path_index_outside_a_word_refused(path_index):
    # -1 drew the path of index 2^64 - 1, and 2^64 raised OverflowError
    spec, circ = circle_heat()
    x = circ.point([0.3])
    for kind in walks.PATH_KINDS:
        with pytest.raises(ValueError, match=r"path_index must be in \[0, 2\^64\)"):
            walks.sample_path(kind, spec, x, 1.0, 4, seed=0, path_index=path_index)
    last = walks.sample_path("jump", spec, x, 1.0, 4, seed=0, path_index=2**64 - 1)
    assert last.points.shape == (5, 1)


def test_expectation_equivalent_to_iterate_mc():
    # same law; means agree within combined error bars
    spec, circ = circle_heat()
    f = lambda c: np.cos(c[:, 0])
    x = circ.point([0.7])
    a = fl.estimate_expectation(spec, f, x, 1.0, 4, 10**5, seed=3)
    b = fl.iterate_mc(spec, CV.GENERAL, 1.0, 4, f, x, 10**5, seed=4)
    assert abs(a.mean_f - b.mean) <= 4.0 * math.hypot(a.stderr_f, b.stderr)


# -- Kolmogorov-Smirnov -----------------------------------------------------------------------


def test_ks_exact_sampling_dkw(rng):
    n = 40_000
    samples = ndtri(rng.uniform(size=n))
    assert fl.ks_distance_to(ndtr, samples) <= 1.63 / math.sqrt(n)


def test_ks_degenerate_point_mass():
    step = lambda s: (np.asarray(s) >= 0.0).astype(float)
    assert fl.ks_distance_to(step, np.zeros(100)) == 0.0


def test_ks_empty_sample():
    with pytest.raises(EmptySampleError):
        fl.ks_distance_to(ndtr, np.array([]))


def test_heat_walk_ks_decreases():
    spec, e1 = euclid_heat()
    x = e1.point([0.0])
    ks = []
    for n in (8, 64):
        pts = walk_endpoints(spec, x, 1.0, n, 20_000, seed=6)
        ks.append(fl.ks_distance_to(ndtr, pts[:, 0]))
    assert ks[1] < ks[0]


# -- modulus of continuity ---------------------------------------------------------------------


def test_modulus_constant_path():
    e1 = fl.euclidean(1)
    spec = fl.GeneratorSpec([fl.zero_field(e1)])
    path = fl.sample_jump_path(spec, e1.point([0.0]), 1.0, 8, seed=1)
    assert fl.modulus_of_continuity(path, 0.3) == 0.0


def test_modulus_linear_motion():
    # unit-speed straight line sampled densely: w(delta) ~ delta
    e1 = fl.euclidean(1)
    times = np.linspace(0.0, 1.0, 201)
    path = fl.PathSample(
        kind="jump", times=times, points=times[:, None], n=200, seed_path=0,
        spec=fl.GeneratorSpec([fl.constant_field(e1, [1.0])]), xi=np.zeros(200, dtype=int),
    )
    w = fl.modulus_of_continuity(path, 0.1)
    assert w == pytest.approx(0.1, abs=1.0 / 200 + 1e-12)


def test_modulus_rejects_bad_delta():
    e1 = fl.euclidean(1)
    spec = fl.GeneratorSpec([fl.zero_field(e1)])
    path = fl.sample_jump_path(spec, e1.point([0.0]), 1.0, 8, seed=1)
    # NaN compared false with delta <= 0 and gave a tail of 0
    for delta in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="delta must be > 0"):
            fl.modulus_of_continuity(path, delta)


def _circle_interp_trajectories(spec, x0, t, n, n_paths, seed, sub=8):
    """Vectorized geodesic-interpolated circle trajectories (paths, K)."""
    from feller._kernels import substream
    from feller.chernoff import branch_moves, sample_steps
    from feller.manifolds import wrap_angle, wrap_signed

    steps = int(n * t)
    coords = np.full((n_paths, 1), x0)
    streams = substream(seed, np.arange(n_paths))
    skel = np.empty((n_paths, steps + 1))
    loop = sample_steps(branch_moves(spec, CV.GENERAL), 1.0 / n, coords, streams, steps)
    for m, (_, before) in enumerate(loop):
        skel[:, m] = before[:, 0]
    skel[:, steps] = coords[:, 0]
    # shortest-arc interpolation at sub+1 points per step
    fracs = np.arange(sub) / sub
    delta = wrap_signed(skel[:, 1:] - skel[:, :-1])
    interp = skel[:, :-1, None] + fracs[None, None, :] * delta[:, :, None]
    flat = wrap_angle(interp.reshape(n_paths, -1))
    full = np.concatenate([flat, skel[:, -1:]], axis=1)
    times = np.concatenate(
        [(np.arange(steps)[:, None] / n + fracs[None, :] / n).ravel(), [steps / n]]
    )
    return times, full


def _moc_exceed_probs(spec, n, n_paths, deltas, eps, seed=77):
    """P(w(path, delta) > eps) for each delta, from one draw of the paths and
    one pass over the time offsets (gaps grow with the offset, so a delta
    whose columns have all dropped out stays out)."""
    times, paths = _circle_interp_trajectories(spec, 0.0, 1.0, n, n_paths, seed=seed)
    worst = np.zeros((len(deltas), n_paths))
    buf = np.empty_like(paths)
    for off in range(1, times.size):
        gaps = times[off:] - times[:-off]
        keep = [gaps < delta for delta in deltas]
        if not any(k.any() for k in keep):
            break
        # the wrapped distance |pi - ((pi - (b - a)) mod 2 pi)|, computed in place
        d = buf[:, : times.size - off]
        np.subtract(paths[:, off:], paths[:, :-off], out=d)
        np.subtract(np.pi, d, out=d)
        np.mod(d, 2 * np.pi, out=d)
        np.subtract(np.pi, d, out=d)
        np.abs(d, out=d)
        for w, sel in zip(worst, keep):
            if sel.all():
                np.maximum(w, d.max(axis=1), out=w)
            elif sel.any():
                np.maximum(w, d[:, sel].max(axis=1), out=w)
    return [float(np.mean(w > eps)) for w in worst]


def test_tightness_in_delta_on_circle():
    # the tightness statement is a limit in delta: P(w(path, delta) > eps)
    # falls to ~0 as delta shrinks, uniformly over the tail of the schedule.
    # (At fixed (delta, eps) the probability is NOT monotone in n: coarse
    # walks are locally ballistic and under-shoot the Brownian modulus, so
    # the sequence rises toward the Brownian value; measured here and
    # asserted, since it is the distributional fact.)
    spec, circ = circle_heat()
    n_paths = 1200
    probs = {n: _moc_exceed_probs(spec, n, n_paths, (0.05, 0.02, 0.005), 0.5) for n in (16, 64, 256)}
    for n in (64, 256):
        assert probs[n][0] >= probs[n][1] >= probs[n][2]
        assert probs[n][2] <= 0.01
    # across the schedule at fixed (0.05, 0.5) the exceedance approaches the
    # Brownian value from below: coarse walks are locally smoother
    p16, p64, p256 = (probs[n][0] for n in (16, 64, 256))
    sigma3 = 3.0 * 0.5 / math.sqrt(n_paths)
    assert p16 <= p64 + sigma3
    assert p64 <= p256 + sigma3
