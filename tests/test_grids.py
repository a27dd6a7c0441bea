import numpy as np
import pytest

import feller as fl
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
    ("circle", (16, 16), ValueError, "circle grid values must be 1-D"),
    ("torus2", (16,), ValueError, "torus2 grid values must be 2-D"),
    ("sphere2", (16,), ValueError, "sphere2 grid values must be 2-D"),
    ("euclidean:1", (16,), VariantIncompatibleError, "not euclidean:1"),
    ("hyperbolic-h2", (16, 16), VariantIncompatibleError, "not hyperbolic-h2"),
    ("circle", (7,), ResolutionTooCoarseError, "need >= 8 nodes"),
    ("torus2", (16, 7), ResolutionTooCoarseError, "need >= 8 nodes"),
    ("sphere2", (7, 16), ResolutionTooCoarseError, "need >= 8 nodes"),
])
def test_grid_function_refusals(name, shape, error, match):
    m = fl.manifold_from_string(name)
    with pytest.raises(error, match=match):
        GridFunction(m, np.zeros(shape))

    def never(_):
        raise AssertionError("fn evaluated on a refused grid")

    with pytest.raises(error, match=match):
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
    """The grid stencil of every moving branch of the step table, as iterate_grid builds it."""
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
