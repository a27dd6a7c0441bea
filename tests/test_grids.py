import re
import tracemalloc
import warnings

import numpy as np
import pytest

import feller as fl
from feller import grids
from feller._kernels import gather_weighted
from feller.chernoff import ChernoffVariant, branch_moves, move_rows
from feller.errors import ResolutionTooCoarseError, VariantIncompatibleError
from feller.grids import GridFunction, _axis_stencil, _polar_stencil
from feller.manifolds import TWO_PI

CASES = [
    ("circle", 40, "linear"),
    ("circle", 40, "cubic"),
    ("torus2", (24, 32), "linear"),
    ("torus2", (24, 32), "cubic"),
    ("sphere2", (16, 32), "linear"),
]


def _stencil(name, shape, interp, queries):
    m = fl.manifold_from_string(name)
    g = GridFunction.from_function(m, shape, lambda c: np.cos(3.0 * c[:, 0]) + c[:, -1], interp)
    return g, g.build_stencil(queries)


def _queries(name, rng):
    return fl.manifold_from_string(name).random_points(100, rng)


@pytest.mark.parametrize("name, shape, interp", CASES)
def test_stencil_is_column_major(name, shape, interp, rng):
    _, st = _stencil(name, shape, interp, _queries(name, rng))
    assert st.idx.shape == st.w.shape and st.idx.shape[0] == 100
    assert st.idx.flags.f_contiguous and st.w.flags.f_contiguous


@pytest.mark.parametrize("name, shape, interp", CASES)
def test_gather_on_column_major_equals_row_major(name, shape, interp, rng):
    g, st = _stencil(name, shape, interp, _queries(name, rng))
    v = g.flat_values()
    row_major = gather_weighted(v, np.ascontiguousarray(st.idx), np.ascontiguousarray(st.w))
    np.testing.assert_array_equal(st.apply(v), row_major)


@pytest.mark.parametrize("interp", ["linear", "cubic"])
def test_torus_stencil_column_order(interp, rng):
    n1, n2 = 24, 32
    q = _queries("torus2", rng)
    _, st = _stencil("torus2", (n1, n2), interp, q)
    i1, w1 = _axis_stencil(q[:, 0], n1, interp)
    i2, w2 = _axis_stencil(q[:, 1], n2, interp)
    k = len(w1)
    for a in range(k):
        for b in range(k):
            np.testing.assert_array_equal(st.w[:, k * a + b], w1[a] * w2[b])
            np.testing.assert_array_equal(st.idx[:, k * a + b], i1[a] * n2 + i2[b])


def test_sphere_stencil_column_order(rng):
    # polar latitude x periodic longitude: the row index runs over the pole-
    # padded rows 0..n1+1, and a row of the padded values holds n2 nodes
    n1, n2 = 16, 32
    m = fl.manifold_from_string("sphere2")
    q = np.vstack([_queries("sphere2", rng), [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]])
    g, st = _stencil("sphere2", (n1, n2), "linear", q)
    lat, lon = m.grid_angles(q)
    i1, w1 = _polar_stencil(lat, n1)
    i2, w2 = _axis_stencil(lon, n2, "linear")
    assert i1.min() == 0 and i1.max() == n1 + 1
    for a in range(2):
        for b in range(2):
            np.testing.assert_array_equal(st.w[:, 2 * a + b], w1[a] * w2[b])
            np.testing.assert_array_equal(st.idx[:, 2 * a + b], i1[a] * n2 + i2[b])
    assert st.idx.max() < len(g.flat_values()) == (n1 + 2) * n2


@pytest.mark.parametrize("name, shape, error, match", [
    ("circle", (16, 16), ValueError,
     "circle grids take 1 node count (one per axis), got shape (16, 16)"),
    ("torus2", (16,), ValueError, "torus2 grids take 2 node counts (one per axis), got shape (16,)"),
    ("sphere2", (16,), ValueError,
     "sphere2 grids take 2 node counts (one per axis), got shape (16,)"),
    ("euclidean:1", (16,), VariantIncompatibleError, "not euclidean:1"),
    ("hyperbolic-h2", (16, 16), VariantIncompatibleError, "not hyperbolic-h2"),
    ("circle", (7,), ResolutionTooCoarseError, "need >= 8 nodes"),
    ("torus2", (16, 7), ResolutionTooCoarseError, "need >= 8 nodes"),
    ("sphere2", (7, 16), ResolutionTooCoarseError, "need >= 8 nodes"),
])
def test_grid_function_refusals(name, shape, error, match):
    m = fl.manifold_from_string(name)
    with pytest.raises(error, match=re.escape(match)):
        GridFunction(m, np.zeros(shape))

    def never(_):
        raise AssertionError("fn evaluated on a refused grid")

    with pytest.raises(error, match=re.escape(match)):
        GridFunction.from_function(m, shape, never)


GRID_CHARTS = [("circle", 40), ("torus2", (24, 32)), ("sphere2", (16, 32))]


@pytest.mark.parametrize("name, shape", GRID_CHARTS)
def test_grid_angles_map_back_to_the_nodes(name, shape):
    m = fl.manifold_from_string(name)
    nodes = GridFunction(m, np.zeros(shape)).node_coords()
    back = m.grid_point(m.grid_angles(nodes))
    if m.grid_axes == ("periodic",) * m.dim:  # the angles are the coordinates
        np.testing.assert_array_equal(back, nodes)
    else:  # through arcsin and arctan2: to rounding
        np.testing.assert_allclose(back, nodes, rtol=0.0, atol=4 * np.finfo(float).eps)


@pytest.mark.parametrize("name, shape", GRID_CHARTS)
def test_interpolation_at_the_nodes_returns_the_values(name, shape):
    m = fl.manifold_from_string(name)
    for order in m.grid_orders:
        g = GridFunction.from_function(m, shape, lambda c: np.cos(3.0 * c[:, 0]) + c[:, -1], order)
        # nodes snap onto themselves, a latitude recomputed by arcsin too
        np.testing.assert_array_equal(g.interpolate(g.node_coords()), g.values.ravel())


@pytest.mark.parametrize("name, shape, cell", [
    ("circle", 40, TWO_PI / 40),
    ("torus2", (24, 32), TWO_PI / 32),
    ("sphere2", (16, 32), np.pi / 16),
    ("sphere2", (12, 40), TWO_PI / 40),  # longitude finer than latitude
])
def test_cell_size_is_the_smallest_axis_spacing(name, shape, cell):
    assert GridFunction(fl.manifold_from_string(name), np.zeros(shape)).cell_size() == cell


def test_sphere_pole_rows_are_the_means_of_the_edge_rows(rng):
    g = GridFunction(fl.sphere2(), rng.normal(size=(8, 16)))
    flat = g.flat_values().reshape(10, 16)
    np.testing.assert_array_equal(flat[1:-1], g.values)
    np.testing.assert_array_equal(flat[0], g.values[0].mean())
    np.testing.assert_array_equal(flat[-1], g.values[-1].mean())


def _branch_stencils(spec, variant, shape, dt):
    """The stencil of every moved node, per branch of the step table."""
    g = GridFunction(spec.manifold, np.zeros(shape), "cubic")
    nodes, branches = g.node_coords(), branch_moves(spec, variant)
    return [g.build_stencil(move_rows(branches, nodes, j, dt)) for j in range(len(branches))]


def test_a_heat_geodesic_shift_on_torus2_gathers_4_of_16_columns():
    t2 = fl.torus2()
    spec = fl.GeneratorSpec([fl.frame_field(t2, 1), fl.frame_field(t2, 2)], drift_policy="explicit")
    stencils = _branch_stencils(spec, ChernoffVariant.HEAT_GEODESIC, (24, 32), 1.0 / 64)
    assert len(stencils) == 4 and all(st.w.shape[1] == 16 for st in stencils)
    # a shift along one axis: that axis's 4 nodes, and the one node it sits on of the other
    assert {st.cols for st in stencils} == {(1, 5, 9, 13), (4, 5, 6, 7)}


def test_a_general_rk4_stencil_on_the_circle_keeps_every_column():
    circ = fl.circle()
    spec = fl.GeneratorSpec([fl.field_from_string(circ, "custom:1+0.3*sin(theta)")],
                            drift_policy="derived")
    stencils = _branch_stencils(spec, ChernoffVariant.GENERAL, 40, 1.0 / 32)
    assert len(stencils) == 3  # the derived drift and +-A_1
    assert all(st.cols == (0, 1, 2, 3) for st in stencils)


# -- translated stencils of group shifts -----------------------------------------


def _shifts(m, shape, n):
    """Group elements: the heat-geodesic shifts +-sqrt(d/n) e_k, one off every
    axis of the grid, and one that lands on a node, (3, -5) cells."""
    cells = TWO_PI / np.array(shape, dtype=float).reshape(-1)
    hs = [m.geodesic_shift(sign * np.sqrt(m.dim) * e, np.sqrt(1.0 / n))
          for e in np.eye(m.dim) for sign in (1.0, -1.0)]
    return hs + [np.array([0.37, -1.91][: m.dim]), np.array([3.0, -5.0][: m.dim]) * cells]


@pytest.mark.parametrize("name, shape", GRID_CHARTS)
def test_a_periodic_group_grid_has_node_0_at_the_identity_and_shifts_by_translation(
        name, shape, rng):
    # the facts iterate_grid's translated stencils rest on, for every chart
    # with a group whose grid axes are all periodic
    m = fl.manifold_from_string(name)
    g = GridFunction(m, np.zeros(shape))
    if m.identity is None or not g.periodic:
        return
    np.testing.assert_array_equal(g.node_coords()[0], m.identity)
    x, h = g.node_coords(), m.random_points(1, rng)[0]
    moved = np.array(m.grid_angles(m.compose(x, h)))
    offset = np.array(m.grid_angles(x)) + np.array(m.grid_angles(h[None, :]))
    np.testing.assert_allclose(np.mod(moved - offset + np.pi, TWO_PI), np.pi, atol=1e-12)


@pytest.mark.parametrize("name, shape, interp", [c for c in CASES if c[0] != "sphere2"])
@pytest.mark.parametrize("n", [1, 7, 64, 128])
def test_shift_stencil_is_the_stencil_of_every_moved_node(name, shape, interp, n):
    m = fl.manifold_from_string(name)
    g = GridFunction(m, np.zeros(shape), interp)
    nodes = g.node_coords()
    for h in _shifts(m, shape, n):
        per_node = g.build_stencil(m.compose(nodes, h))
        st = g.shift_stencil(m.compose(m.identity, h))
        np.testing.assert_array_equal(st.idx, per_node.idx)
        assert st.cols == per_node.cols
        # one row of weights, read-only, broadcast down the rows: node 0's bits
        assert st.w.shape == per_node.w.shape and st.w.strides[0] == 0
        assert not st.w.flags.writeable
        assert st.w[0].tobytes() == per_node.w[0].tobytes()
        np.testing.assert_allclose(st.w, per_node.w, rtol=0.0, atol=1e-13)
        assert abs(st.w[0].sum() - 1.0) <= 1e-15


def test_a_shift_on_a_node_gathers_one_column():
    t2 = fl.torus2()
    g = GridFunction(t2, np.zeros((24, 32)), "cubic")
    st = g.shift_stencil(t2.compose(t2.identity, np.array([3.0, -5.0]) * TWO_PI / (24, 32)))
    assert st.cols == (5,) and st.w[0, 5] == 1.0  # the snapped node on both axes


@pytest.mark.parametrize("name, shape, interp", CASES)
def test_a_weighted_stencil_is_the_weight_times_the_unit_stencil(name, shape, interp, rng):
    q = _queries(name, rng)
    g, unit = _stencil(name, shape, interp, q)
    per_row = rng.uniform(-1.0, 1.0, size=len(q))
    for weight in (0.25, -1.0 / 3.0, per_row):
        st = g.build_stencil(q, weight)
        np.testing.assert_array_equal(st.idx, unit.idx)
        assert st.cols == unit.cols and st.idx.flags.f_contiguous and st.w.flags.f_contiguous
        want = unit.w * np.reshape(weight, (-1, 1))
        assert np.all(np.abs(st.w - want) <= np.spacing(np.abs(want)))
    assert g.build_stencil(q, 0.0).cols == ()
    assert g.build_stencil(q, np.where(np.arange(len(q)) == 7, 0.5, 0.0)).cols == tuple(
        k for k in unit.cols if unit.w[7, k] != 0.0)


@pytest.mark.parametrize("name, shape, interp", [c for c in CASES if c[0] != "sphere2"])
def test_a_weighted_shift_stencil_is_the_weight_times_the_unit_one(name, shape, interp):
    m = fl.manifold_from_string(name)
    g = GridFunction(m, np.zeros(shape), interp)
    for h in _shifts(m, shape, 7):
        p = m.compose(m.identity, h)
        unit = g.shift_stencil(p)
        for weight in (0.25, -1.0 / 3.0):
            st = g.shift_stencil(p, weight)
            np.testing.assert_array_equal(st.idx, unit.idx)
            assert st.cols == unit.cols and st.w.strides[0] == 0
            want = weight * unit.w[0]
            assert np.all(np.abs(st.w[0] - want) <= np.spacing(np.abs(want)))
        assert g.shift_stencil(p, 0.0).cols == ()


def test_shift_stencil_refuses_a_polar_axis():
    s2 = fl.sphere2()
    with pytest.raises(VariantIncompatibleError, match="not periodic"):
        GridFunction(s2, np.zeros((16, 32))).shift_stencil(np.array([1.0, 0.0, 0.0]))


# -- sweeps into buffers the sweep owns ------------------------------------------


def _flat_by_pad(g, values):
    """Padded flat values as np.pad builds them: zeros around, then the pole rows."""
    v = values.reshape(g.values.shape)
    pads = [int(kind == "polar") for kind in g.manifold.grid_axes]
    out = np.pad(v, [(p, p) for p in pads])
    for a in np.flatnonzero(pads):
        ends = (slice(None),) * a
        out[ends + (0,)] = v[ends + (0,)].mean()
        out[ends + (-1,)] = v[ends + (-1,)].mean()
    return out.ravel()


def _gather_by_index(values, st, acc):
    """``acc`` plus a stencil's gather, one fancy-indexed column at a time,
    each term and each partial sum a new array."""
    for k in st.cols:
        acc = acc + values[st.idx[:, k]] * st.w[:, k]
    return acc


def _sweep_stencil(f0, branches, nodes, j, dt, weight=1.0, per_node=False):
    """Branch j's stencil as iterate_grid takes it, scaled by ``weight``: a
    shift on a periodic group grid moves the identity (node 0) alone and
    translates its stencil, every other branch builds the stencil of all its
    moved nodes; with ``per_node``, every branch builds it so."""
    m = f0.manifold
    if not per_node and branches[j].shift is not None and m.identity is not None and f0.periodic:
        return f0.shift_stencil(move_rows(branches, m.identity[None, :], j, dt)[0], weight)
    return f0.build_stencil(move_rows(branches, nodes, j, dt), weight)


def _reference_sweeps(spec, variant, t, n, f0, per_node=False):
    """The sweep loop of iterate_grid before its buffers: a new padded array
    and a new sum of every weighted stencil's gather in every sweep."""
    dt = t / n
    branches = branch_moves(spec, variant)
    nodes = f0.node_coords()
    stencils = [_sweep_stencil(f0, branches, nodes, j, dt, br.weight_at(nodes, dt), per_node)
                for j, br in enumerate(branches)]
    values = f0.values.ravel().copy()
    for _ in range(n):
        flat = _flat_by_pad(f0, values)
        new = np.zeros_like(values)
        for st in stencils:
            new = _gather_by_index(flat, st, new)
        values = new
    return values


def _per_branch_weight_sweeps(spec, variant, t, n, f0):
    """The sweeps with each branch weight outside its unit stencil and the
    potential's identity as a diagonal: sum_j w_j * gather_j."""
    dt = t / n
    branches = branch_moves(spec, variant)
    nodes = f0.node_coords()
    weights = [br.weight_at(nodes, dt) for br in branches]
    stencils = [_sweep_stencil(f0, branches, nodes, j, dt) if br.signed is None else None
                for j, br in enumerate(branches)]
    values = f0.values.ravel().copy()
    for _ in range(n):
        flat = _flat_by_pad(f0, values)
        new = np.zeros_like(values)
        for w, st in zip(weights, stencils):
            new = new + w * (values if st is None else _gather_by_index(flat, st, 0.0))
        values = new
    return values


def _sweep_case(name):
    """Per grid: the generator, variant, time, initial grid and the number of signed branches."""
    GV, HV = ChernoffVariant.GENERAL, ChernoffVariant.HEAT_GEODESIC
    if name == "circle":  # RK4 flows of the field and its derived drift
        circ = fl.circle()
        spec = fl.GeneratorSpec([fl.field_from_string(circ, "custom:1+0.3*sin(theta)")],
                                drift_policy="derived")
        f0 = GridFunction.from_function(circ, 64, lambda c: np.cos(c[:, 0]), "cubic")
        return spec, GV, 1.0, f0, 0
    if name == "torus2":
        t2 = fl.torus2()
        spec = fl.GeneratorSpec([fl.frame_field(t2, 1), fl.frame_field(t2, 2)])
        f0 = GridFunction.from_function(t2, (24, 32), lambda c: np.cos(c[:, 0]) * np.sin(c[:, 1]),
                                        "cubic")
        return spec, HV, 0.5, f0, 0
    s2 = fl.sphere2()
    spec = fl.GeneratorSpec([fl.rotational_field(s2, k) for k in (1, 2, 3)],
                            drift_policy="derived", potential="-1-x^2")
    f0 = GridFunction.from_function(s2, (16, 32), lambda c: c[:, 2] + c[:, 0] * c[:, 1], "linear")
    return spec, GV, 0.5, f0, 1


@pytest.mark.parametrize("name", ["circle", "torus2", "sphere2"])
def test_iterate_grid_equals_the_allocating_sweeps_bit_for_bit(name):
    spec, variant, t, f0, signed = _sweep_case(name)
    assert sum(br.signed is not None for br in branch_moves(spec, variant)) == signed
    n, before = 6, f0.values.tobytes()
    got = fl.iterate_grid(spec, variant, t, n, f0)
    assert got.values.tobytes() == _reference_sweeps(spec, variant, t, n, f0).tobytes()
    assert f0.values.tobytes() == before


@pytest.mark.parametrize("name", ["circle", "torus2", "sphere2"])
def test_weighted_stencils_stay_within_rounding_of_the_per_branch_weights(name):
    # a branch weight folded into its stencil moves each product by rounding
    spec, variant, t, f0, _ = _sweep_case(name)
    got = fl.iterate_grid(spec, variant, t, 6, f0)
    per_branch = _per_branch_weight_sweeps(spec, variant, t, 6, f0)
    np.testing.assert_allclose(got.values.ravel(), per_branch, rtol=0.0, atol=1e-14)


def test_the_potential_is_one_more_weighted_stencil(monkeypatch):
    # a circle run with c: every branch, the signed identity included, builds
    # one stencil and applies it once per sweep, and the identity's stencil
    # gathers each node alone, weighted by s c(x)
    circ = fl.circle()
    spec = fl.GeneratorSpec([fl.field_from_string(circ, "custom:1+0.3*sin(theta)")],
                            drift_policy="derived", potential="-0.5-0.5*cos(theta)")
    f0 = GridFunction.from_function(circ, 64, lambda c: np.cos(c[:, 0]) + 0.2, "cubic")
    b = len(branch_moves(spec, ChernoffVariant.GENERAL))
    built, applies = [], {}
    build, apply = GridFunction.build_stencil, grids.Stencil.apply

    def counted_build(self, coords, weight=1.0):
        built.append(build(self, coords, weight))
        return built[-1]

    def counted_apply(self, flat, out=None):
        applies[id(self)] = applies.get(id(self), 0) + 1
        return apply(self, flat, out)

    monkeypatch.setattr(GridFunction, "build_stencil", counted_build)
    monkeypatch.setattr(grids.Stencil, "apply", counted_apply)
    n = 5
    got = fl.iterate_grid(spec, ChernoffVariant.GENERAL, 0.5, n, f0)
    monkeypatch.undo()
    assert b == 4 and len(built) == b
    assert [applies[id(st)] for st in built] == [n] * b
    identity = built[-1]
    assert identity.cols == (1,)  # cubic: the node itself is column 1 of (-1, 0, 1, 2)
    np.testing.assert_array_equal(identity.idx[:, 1], np.arange(64))
    pot = (0.5 / n) * spec.potential_values(f0.node_coords())
    np.testing.assert_array_equal(identity.w[:, 1], pot)
    diagonal = _per_branch_weight_sweeps(spec, ChernoffVariant.GENERAL, 0.5, n, f0)
    np.testing.assert_allclose(got.values.ravel(), diagonal, rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("name, shape", [("circle", 48), ("torus2", (24, 32))])
def test_translated_shift_stencils_stay_within_rounding_of_per_node_stencils(name, shape):
    m = fl.manifold_from_string(name)
    spec = fl.GeneratorSpec([fl.frame_field(m, k + 1) for k in range(m.dim)])
    f0 = GridFunction.from_function(m, shape, lambda c: np.cos(c[:, 0]) * np.sin(c[:, -1] + 0.3),
                                    "cubic")
    got = fl.iterate_grid(spec, ChernoffVariant.HEAT_GEODESIC, 0.5, 32, f0)
    per_node = _reference_sweeps(spec, ChernoffVariant.HEAT_GEODESIC, 0.5, 32, f0, per_node=True)
    np.testing.assert_allclose(got.values.ravel(), per_node, rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("name, shape", GRID_CHARTS)
def test_flat_values_into_a_buffer_equals_the_new_array(name, shape, rng):
    g = GridFunction(fl.manifold_from_string(name), rng.normal(size=shape))
    v = rng.normal(size=g.values.size)
    buf = np.full(g.padded_size, np.nan)
    assert g.flat_values(v, out=buf) is buf
    assert buf.tobytes() == g.flat_values(v).tobytes() == _flat_by_pad(g, v).tobytes()
    assert g.flat_values(out=buf).tobytes() == _flat_by_pad(g, g.values).tobytes()


def test_the_sweeps_peak_memory_does_not_grow_with_n():
    spec, variant, t, f0, _ = _sweep_case("sphere2")
    node_bytes = f0.values.nbytes
    peaks = {}
    for n in (2, 64, 2):  # the first call warms every cache
        tracemalloc.start()
        try:
            fl.iterate_grid(spec, variant, t, n, f0)
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[64] - peaks[2] < node_bytes


def _edge_queries(m):
    """Queries on the seams of the grid angles, at the poles, and nan and inf rows."""
    if m.name == "sphere2":
        eps = 1e-300
        rows = [[0, 0, 1], [0, 0, -1], [1, 0, 0], [1, -eps, 0], [-1, eps, 0], [-1, -eps, 0],
                [eps, 0, 1], [0, -eps, -1]]
    else:
        seams = [0.0, -0.0, TWO_PI, -TWO_PI, np.nextafter(TWO_PI, 0), -1e-300, np.pi, 1e6]
        rows = [[a] * m.dim for a in seams]
    bad = [[np.nan] * m.chart_dim, [np.inf] * m.chart_dim, [-np.inf] * m.chart_dim]
    return np.array(rows + bad, dtype=float)


@pytest.mark.parametrize("name, shape, interp", CASES)
def test_stencil_indices_stay_in_range_on_seams_poles_and_bad_rows(name, shape, interp):
    g = GridFunction(fl.manifold_from_string(name), np.zeros(shape), interp)
    with np.errstate(invalid="ignore"):
        st = g.build_stencil(_edge_queries(g.manifold))
    assert 0 <= st.idx.min() and st.idx.max() < g.padded_size


def test_a_stencil_index_out_of_range_is_refused(monkeypatch):
    g = GridFunction(fl.circle(), np.zeros(16), "linear")
    q = np.array([[0.3], [1.0]])
    idx, w = _axis_stencil(q[:, 0], 16, "linear")
    idx[1, 1] = 16  # one past the last node
    monkeypatch.setattr(grids, "_axis_stencil", lambda *a: (idx, w))
    with pytest.raises(IndexError, match="outside the 16 padded values"):
        g.build_stencil(q)


@pytest.mark.parametrize("a, warns, distances", [(0.1, True, 3), (1.0, False, 2)])
def test_the_linear_grid_warns_of_moves_below_one_cell(monkeypatch, a, warns, distances):
    # GENERAL on the circle: a drift that stays put, then +-a sqrt(2 dt), 0.05
    # or 0.5 against a cell of 0.157; once a branch moves a cell, no later
    # branch's displacement is measured
    circ = fl.circle()
    spec = fl.GeneratorSpec([fl.constant_field(circ, [a])], drift_policy="derived")
    f0 = GridFunction.from_function(circ, 40, lambda c: np.cos(c[:, 0]), "linear")
    calls = []
    real = circ.distance_batch
    monkeypatch.setattr(circ, "distance_batch", lambda x, y: calls.append(1) or real(x, y))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fl.iterate_grid(spec, ChernoffVariant.GENERAL, 1.0, 8, f0)
    moved = [w for w in caught if "below one grid cell" in str(w.message)]
    assert bool(moved) == warns and len(calls) == distances
    cubic = GridFunction.from_function(circ, 40, lambda c: np.cos(c[:, 0]), "cubic")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fl.iterate_grid(spec, ChernoffVariant.GENERAL, 1.0, 8, cubic)
    assert not [w for w in caught if "below one grid cell" in str(w.message)]
    assert len(calls) == distances  # a cubic grid measures nothing
