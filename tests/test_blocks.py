"""The tree in frontier chunks and the endpoint sampler in row blocks.

Each blocked path is compared with the whole-batch loop it replaced, kept
here as the reference: the sampler bit for bit, the tree to rounding (its
chunks sum in another order, and a heat-geodesic chunk folds its levels into
one product table).  The sampler's shared draw histories and
paired flow calls are compared with each row run alone, bit for bit.  The
memory test pins the bound the blocks exist for.
"""

import math
import tracemalloc

import numpy as np
import pytest

import feller as fl
from feller import chernoff
from feller._kernels import step_uniforms, substream
from feller.chernoff import ChernoffVariant as CV
from feller.chernoff import branch_moves, move_rows, sample_steps
from feller.errors import BudgetExceededError, PotentialStepError
from feller.flows import flow_batch
from feller.walks import walk_endpoints

B = chernoff._SAMPLE_ROWS


def h2_heat():
    h2 = fl.hyperbolic_h2()
    spec = fl.GeneratorSpec([fl.frame_field(h2, 1), fl.frame_field(h2, 2)])
    center = np.array([0.0, 1.0])

    def f(c):
        d = h2.distance_batch(np.broadcast_to(center, c.shape).copy(), c)
        return np.exp(-0.5 * d**2)

    return spec, CV.HEAT_GEODESIC, f, h2.point([0.5, 1.0])


def circle_general(field="const", potential="-0.5-0.5*sin(theta)^2"):
    """A circle GENERAL spec with two fields, a drift and a potential: 6 branches
    (5 without the potential, as the walks require)."""
    circ = fl.circle()
    second = {"const": fl.constant_field(circ, [0.5]),
              "rk4": fl.field_from_string(circ, "custom:1+0.3*sin(theta)")}[field]
    spec = fl.GeneratorSpec(
        [fl.frame_field(circ, 1), second], drift=fl.constant_field(circ, [0.3]),
        potential=potential,
    )
    return spec, CV.GENERAL, (lambda c: np.cos(c[:, 0]) + 2.0), circ.point([0.7])


# -- the sampler ------------------------------------------------------------------


def unblocked_endpoints(spec, variant, s, x, rows, seed, steps):
    """Every row in one batch: endpoints and signed masses."""
    return chain_endpoints(spec, variant, s, x, substream(seed, np.arange(rows)), steps)


def chain_endpoints(spec, variant, s, x, streams, steps):
    """Endpoints and signed masses of one chain per stream, every row in one batch.

    A table without the potential runs sample_steps.  With it, the signed
    draw runs here step by step, each branch on its own rows:
    u = (word >> 11) 2^-53 and M = 1 + s |c|; the potential's identity where
    u M >= 1, else the fixed branch #{j : cumw_j <= u M}; the mass takes M
    and, for the identity, the sign of c.
    """
    branches = branch_moves(spec, variant)
    rows = streams.shape[0]
    coords = np.broadcast_to(x.coords, (rows, x.coords.shape[0])).copy()
    mass = np.ones(rows)
    if spec.potential is None:
        for _ in sample_steps(branches, s, coords, streams, steps):
            pass
        return coords, mass
    cumw = np.cumsum([float(br.weight) for br in branches[:-1]])
    for step in range(steps):
        c = spec.potential_values(coords)
        M = 1.0 + s * np.abs(c)
        u = (step_uniforms(streams, step) >> np.uint64(11)).astype(float) * 2.0**-53
        identity = u * M >= 1.0
        drawn = np.where(identity, len(branches) - 1, np.searchsorted(cumw, u * M, side="right"))
        mass *= np.where(identity & (c < 0.0), -M, M)
        for j in range(len(branches)):
            sel = drawn == j
            coords[sel] = move_rows(branches, coords[sel], drawn[sel], s)
    return coords, mass


def unblocked_mc(spec, variant, t, n, f, x, samples, seed):
    ends, mass = unblocked_endpoints(spec, variant, t / n, x, samples, seed, n)
    vals = np.asarray(f(ends), dtype=float) * mass
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(samples))


@pytest.mark.parametrize("case", [h2_heat, circle_general])
@pytest.mark.parametrize("samples", [B - 1, B, B + 1, 2 * B + 3])
def test_mc_blocks_equal_one_batch(case, samples):
    spec, variant, f, x = case()
    est = fl.iterate_mc(spec, variant, 0.5, 7, f, x, samples, seed=31)
    mean, stderr = unblocked_mc(spec, variant, 0.5, 7, f, x, samples, seed=31)
    assert (est.mean.hex(), est.stderr.hex()) == (mean.hex(), stderr.hex())


@pytest.mark.parametrize("samples", [B - 1, B, B + 1, 2 * B + 3])
def test_walk_endpoint_blocks_equal_one_batch(samples):
    spec, _, _, x = circle_general(potential=None)
    got = walk_endpoints(spec, x, 0.5, 14, samples, seed=17)
    want, _ = unblocked_endpoints(spec, CV.GENERAL, 1.0 / 14, x, samples, 17, 7)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def circle_derived():
    """The walk-rk4 table: an RK4 field and its RK4 derived drift, 3 branches."""
    circ = fl.circle()
    spec = fl.GeneratorSpec([fl.field_from_string(circ, "custom:1+0.3*sin(theta)")],
                            drift_policy="derived")
    return spec, CV.GENERAL, None, circ.point([0.7])


def sphere_derived():
    """Rotations with exact flows and a custom field: an RK4 derived drift, 9 branches."""
    s2 = fl.sphere2()
    fields = [fl.rotational_field(s2, k) for k in (1, 2, 3)]
    fields.append(fl.field_from_string(s2, "custom:0.3*y,0,1"))
    spec = fl.GeneratorSpec(fields, drift_policy="derived")
    return spec, CV.GENERAL, None, s2.point([0.6, 0.0, 0.8])


def circle_potential():
    return circle_general("rk4")


@pytest.mark.parametrize("case, block, rows, steps", [
    (circle_derived, 64, 150, 7), (sphere_derived, 82, 90, 3), (circle_potential, 64, 150, 6),
])
def test_endpoints_equal_each_row_alone(case, block, rows, steps, monkeypatch):
    # rows of one draw history move once, and +-A_j in one call, until the
    # histories outnumber the block's rows over b; each block shares anew
    monkeypatch.setattr(chernoff, "_SAMPLE_ROWS", block)
    moved = []

    def counted(A, coords, t, ode=chernoff.DEFAULT_ODE):
        moved.append(coords.shape[0])
        return flow_batch(A, coords, t, ode)

    monkeypatch.setattr(chernoff, "flow_batch", counted)
    spec, variant, _, x = case()
    s, seed = 0.2 / steps, 23
    branches = branch_moves(spec, variant)
    ends, mass = [], []
    for lo, coords, m in chernoff.sample_endpoints(branches, s, x, rows, seed, steps):
        assert lo == len(ends)
        ends.extend(coords)
        mass.extend(m)
    assert sum(moved) < rows * steps
    monkeypatch.setattr(chernoff, "flow_batch", flow_batch)
    for i in range(rows):
        alone, m = chain_endpoints(spec, variant, s, x, substream(seed, np.array([i])), steps)
        assert ends[i].tobytes() == alone[0].tobytes(), i
        assert mass[i].hex() == m[0].hex(), i
    if spec.potential is not None:
        assert min(mass) < 0.0 < max(mass)


def test_walk_endpoints_of_no_paths():
    spec, _, _, x = circle_general(potential=None)
    assert walk_endpoints(spec, x, 0.5, 14, 0, seed=17).shape == (0, 1)
    h2_spec, _, _, y = h2_heat()
    assert walk_endpoints(h2_spec, y, 0.5, 14, 0, seed=17).shape == (0, 2)
    with pytest.raises(ValueError, match=r"seed must be in \[0, 2\^64\)"):
        walk_endpoints(spec, x, 0.5, 14, 0, seed=-1)


def test_product_tables_built_once_per_call(monkeypatch):
    # 2B + 3 rows in three blocks, 32 steps of k = 6: one table of 6 draws
    # and one of the last 2, not three of each
    built = []
    products = chernoff._products

    def counted(H, k, compose):
        built.append(k)
        return products(H, k, compose)

    monkeypatch.setattr(chernoff, "_products", counted)
    spec, variant, f, x = h2_heat()
    fl.iterate_mc(spec, variant, 0.5, 32, f, x, 2 * B + 3, seed=5)
    assert sorted(built) == [2, 6]


@pytest.mark.parametrize("case", [h2_heat, circle_general, sphere_derived])
def test_sample_endpoints_yields_column_major_blocks(case):
    spec, variant, _, x = case()
    branches = branch_moves(spec, variant)
    blocks = list(chernoff.sample_endpoints(branches, 0.05, x, B + 3, 19, 3))
    assert [coords.shape[0] for _, coords, _ in blocks] == [B, 3]
    assert all(coords.flags.f_contiguous for _, coords, _ in blocks)


# -- the tree ---------------------------------------------------------------------


def breadth_first_tree(spec, variant, t, n, f, x):
    """The whole tree level by level, then one dot product over all leaves.

    The table carries the potential, if any, as its last branch.
    """
    dt = t / n
    branches = branch_moves(spec, variant)
    pts, wts = x.coords[None, :].copy(), np.ones(1)
    for _ in range(n):
        blocks = [move_rows(branches, pts, np.full(len(pts), j), dt)
                  for j in range(len(branches))]
        wblocks = [br.weight_at(pts, dt) * wts for br in branches]
        pts, wts = np.concatenate(blocks), np.concatenate(wblocks)
    return float(np.asarray(f(pts), dtype=float) @ wts)


@pytest.mark.parametrize("case, n", [(h2_heat, 9), (circle_general, 7)])
def test_tree_chunks_agree_with_breadth_first(case, n):
    spec, variant, f, x = case()
    b = len(branch_moves(spec, variant))
    assert b**n >= 4 * chernoff._CHUNK_LEAVES  # several chunks
    got = fl.iterate_tree(spec, variant, 0.5, n, f, x)
    want = breadth_first_tree(spec, variant, 0.5, n, f, x)
    assert got == pytest.approx(want, rel=1e-13, abs=0.0)
    assert fl.iterate_tree(spec, variant, 0.5, n, f, x).hex() == got.hex()


def heat_geodesic(name):
    """A heat-geodesic table on a group chart with a smooth positive f: b = 2d."""
    if name == "hyperbolic-h2":
        return h2_heat()
    m = fl.manifold_from_string(name)
    spec = fl.GeneratorSpec([fl.frame_field(m, k + 1) for k in range(m.dim)])
    if name.startswith("euclidean"):
        f = lambda c: np.exp(-0.5 * np.sum(c * c, axis=1))
    else:
        f = lambda c: 2.0 + np.prod(np.cos(c), axis=1)
    return spec, CV.HEAT_GEODESIC, f, m.point(np.linspace(0.3, 0.9, m.dim))


@pytest.mark.parametrize("name, n, chunks", [
    ("circle", 10, 1), ("circle", 18, 4),
    ("torus2", 8, 1), ("torus2", 9, 4),
    ("hyperbolic-h2", 8, 1), ("hyperbolic-h2", 10, 16),
    ("euclidean:3", 6, 1), ("euclidean:3", 7, 5),
])
def test_folded_tree_agrees_with_breadth_first(name, n, chunks):
    # a heat-geodesic chunk is one compose with the product table
    spec, variant, f, x = heat_geodesic(name)
    b = len(branch_moves(spec, variant))
    rows = []

    def counted(c):
        rows.append(c.shape[0])
        return f(c)

    got = fl.iterate_tree(spec, variant, 0.5, n, counted, x)
    assert sum(rows) == b**n and len(rows) == chunks
    want = breadth_first_tree(spec, variant, 0.5, n, f, x)
    assert got == pytest.approx(want, rel=1e-13, abs=0.0)
    assert fl.iterate_tree(spec, variant, 0.5, n, f, x).hex() == got.hex()


def repeat_tile_tree(spec, variant, t, n, f, x):
    """The folded tree with each chunk's nodes repeated and its product table
    tiled, the formulation the broadcast compose replaced."""
    dt = t / n
    branches = branch_moves(spec, variant)
    b = len(branches)
    depth = min(n, chernoff._block_len(b))
    frontier, fw = x.coords[None, :].copy(), np.ones(1)
    for _ in range(n - depth):
        frontier, fw = chernoff._level(branches, frontier, fw, dt)
    per_chunk = max(chernoff._CHUNK_LEAVES // b**depth, 1)
    compose, leaves = branches[0].compose, b**depth

    def products(H, op):
        P = H
        for _ in range(depth - 1):
            P = op(np.repeat(P, len(H), axis=0), np.tile(H, (len(P), 1)))
        return P

    P = np.tile(products(np.array([br.shift(dt) for br in branches]), compose),
                (min(per_chunk, len(frontier)), 1))
    wP = products(np.array([[float(br.weight)] for br in branches]), np.multiply)[:, 0]
    total = 0.0
    for lo in range(0, frontier.shape[0], per_chunk):
        nodes, wts = frontier[lo : lo + per_chunk], fw[lo : lo + per_chunk]
        pts = compose(np.repeat(nodes, leaves, axis=0), P[: len(nodes) * leaves])
        vals = np.asarray(f(pts), dtype=float).reshape(len(nodes), leaves)
        total += float(wts @ (vals @ wP))
    return total


@pytest.mark.parametrize("name, n", [
    ("circle", 10), ("circle", 18), ("torus2", 8), ("torus2", 9),
    ("euclidean:2", 7), ("euclidean:2", 9), ("hyperbolic-h2", 8), ("hyperbolic-h2", 10),
])
def test_folded_tree_equals_the_repeat_tile_tree(name, n):
    # one broadcast compose per chunk gives the leaves of the repeated nodes
    # and the tiled table, in the same node-major order: the same bits
    spec, variant, f, x = heat_geodesic(name)
    got = fl.iterate_tree(spec, variant, 0.5, n, f, x)
    assert got.hex() == repeat_tile_tree(spec, variant, 0.5, n, f, x).hex()


def test_tree_chunks_of_rk4_rows(monkeypatch):
    # RK4 rows converge on their own, so small chunks reach the same leaves
    spec, variant, f, x = circle_general("rk4")
    want = fl.iterate_tree(spec, variant, 0.5, 4, f, x)  # 6^4 leaves: one chunk
    assert want == breadth_first_tree(spec, variant, 0.5, 4, f, x)
    monkeypatch.setattr(chernoff, "_CHUNK_LEAVES", 64)
    monkeypatch.setattr(chernoff, "_CHUNK_NODES", 2)
    got = fl.iterate_tree(spec, variant, 0.5, 4, f, x)
    assert got == pytest.approx(want, rel=1e-13, abs=0.0)


def test_chunked_tree_keeps_its_refusals(monkeypatch):
    monkeypatch.setattr(chernoff, "_CHUNK_LEAVES", 16)
    monkeypatch.setattr(chernoff, "_CHUNK_NODES", 2)
    spec, variant, f, x = h2_heat()
    with pytest.raises(BudgetExceededError):
        fl.iterate_tree(spec, variant, 0.5, 12, f, x, budget=4**11)
    circ = fl.circle()
    strong = fl.GeneratorSpec([fl.frame_field(circ, 1)], potential="-3-2*sin(theta)^2")
    with pytest.raises(PotentialStepError, match="> 1"):
        fl.iterate_tree(strong, CV.GENERAL, 1.0, 4, f=lambda c: np.cos(c[:, 0]),
                        x=circ.point([0.3]))


# -- memory ------------------------------------------------------------------------

CAP = 64 * 2**20


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_tree_and_mc_memory_does_not_grow_with_the_work():
    # the whole-batch tree of 4^11 leaves peaked near 320 MiB
    spec, variant, f, x = h2_heat()
    tree = _traced_peak(lambda: fl.iterate_tree(spec, variant, 0.5, 11, f, x))
    mc = _traced_peak(lambda: fl.iterate_mc(spec, variant, 0.5, 32, f, x, 500_000, seed=9))
    assert tree < CAP and mc < CAP, (tree / 2**20, mc / 2**20)
