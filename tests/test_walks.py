import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import ndtr, ndtri

import feller as fl
from feller.chernoff import ChernoffVariant as CV
from feller.errors import EmptySampleError
from feller.walks import walk_endpoints


def euclid_heat():
    e1 = fl.euclidean(1)
    return fl.GeneratorSpec([fl.constant_field(e1, [1.0])]), e1


def circle_heat():
    circ = fl.circle()
    return fl.GeneratorSpec([fl.frame_field(circ, 1)], drift_policy="explicit"), circ


# -- one-step kernel ------------------------------------------------------------------


def test_step_distribution_probabilities():
    s2 = fl.sphere2()
    spec = fl.GeneratorSpec([fl.rotational_field(s2, k) for k in (1, 2, 3)])
    dist = fl.step_distribution(spec, 16)
    probs = dist.probabilities
    assert probs[0] == Fraction(1, 2)
    assert all(p == Fraction(1, 12) for p in probs[1:])
    assert sum(probs) == 1
    assert len(probs) == 2 * spec.r + 1
    assert dist.branches[0][0].startswith("flow(A_0")


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


@pytest.mark.parametrize("t_max", [1.0, 1.37])
def test_skeleton_equality_bit_exact(t_max):
    spec, circ = circle_heat()
    x = circ.point([0.3])
    n = 16
    steps = int(n * t_max)
    for seed in range(30):
        pj = fl.sample_jump_path(spec, x, t_max, n, seed=seed)
        pg = fl.sample_geodesic_interp(spec, x, t_max, n, seed=seed)
        pf = fl.sample_flow_interp(spec, x, t_max, n, seed=seed)
        for m in range(steps + 1):
            a = pj.at(m / n)
            assert np.array_equal(a, pg.at(m / n))
            assert np.array_equal(a, pf.at(m / n))


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
    path.check_interpolation()


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
    path.check_interpolation()


def test_interpolation_audit_passes():
    spec, circ = circle_heat()
    for seed in range(5):
        fl.sample_geodesic_interp(spec, circ.point([0.3]), 1.0, 8, seed=seed).check_interpolation()
        fl.sample_flow_interp(spec, circ.point([0.3]), 1.0, 8, seed=seed).check_interpolation()


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


def _entry_points(n, t):
    spec, circ = circle_heat()
    x = circ.point([0.3])
    f = lambda c: np.cos(c[:, 0])
    return [
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
    spec, _ = circle_heat()
    for call in _entry_points(n, 1.0) + [lambda: fl.step_distribution(spec, n)]:
        with pytest.raises(ValueError, match="n must be >= 1"):
            call()


def test_negative_time_refused():
    for call in _entry_points(4, -1.0):
        with pytest.raises(ValueError, match="t must be >= 0"):
            call()


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
    with pytest.raises(ValueError):
        fl.modulus_of_continuity(path, 0.0)


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


def _moc_exceed_prob(spec, n, n_paths, delta, eps, seed=77):
    times, paths = _circle_interp_trajectories(spec, 0.0, 1.0, n, n_paths, seed=seed)
    worst = np.zeros(n_paths)
    for off in range(1, times.size):
        gaps = times[off:] - times[:-off]
        sel = gaps < delta
        if not sel.any():
            break
        d = np.abs(np.pi - np.mod(np.pi - (paths[:, off:] - paths[:, :-off]), 2 * np.pi))
        worst = np.maximum(worst, d[:, sel].max(axis=1))
    return float(np.mean(worst > eps))


def test_tightness_in_delta_on_circle():
    # the tightness statement is a limit in delta: P(w(path, delta) > eps)
    # falls to ~0 as delta shrinks, uniformly over the tail of the schedule.
    # (At fixed (delta, eps) the probability is NOT monotone in n: coarse
    # walks are locally ballistic and under-shoot the Brownian modulus, so
    # the sequence rises toward the Brownian value; measured here and
    # asserted, since it is the distributional fact.)
    spec, circ = circle_heat()
    n_paths = 1200
    for n in (64, 256):
        probs = [
            _moc_exceed_prob(spec, n, n_paths, delta, 0.5) for delta in (0.05, 0.02, 0.005)
        ]
        assert probs[0] >= probs[1] >= probs[2]
        assert probs[2] <= 0.01
    # across the schedule at fixed (0.05, 0.5) the exceedance approaches the
    # Brownian value from below: coarse walks are locally smoother
    p16 = _moc_exceed_prob(spec, 16, n_paths, 0.05, 0.5)
    p64 = _moc_exceed_prob(spec, 64, n_paths, 0.05, 0.5)
    p256 = _moc_exceed_prob(spec, 256, n_paths, 0.05, 0.5)
    sigma3 = 3.0 * 0.5 / math.sqrt(n_paths)
    assert p16 <= p64 + sigma3
    assert p64 <= p256 + sigma3
