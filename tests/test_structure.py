"""Chart knowledge stays in the charts: the grid, field and oracle modules
name no chart class in their code (docstrings and comments aside), except
``rotational_field``'s input check, which names ``Sphere2``, and a chart's
global frame is declared by its group.  Rows move in one place:
``chernoff.move_rows``, beside the two folded paths; one level of S(s) is
expanded in one place: ``chernoff._level``, and the branch chain runs in one
place: ``chernoff.sample_steps``.  Grid values are gathered in one place:
``Stencil.apply``, which passes the live columns, and a sweep pads its values
once (a chart without padding reads a view of them) and applies each
stencil once.  A group shift on a grid of periodic axes moves one row and
translates its stencil, with no per-node weights; every other branch builds
the stencil of every node.  Words become branch indices in ``sample_steps`` alone, and a
folded tree chunk broadcasts its nodes against the product table.  The
drift policy is read in ``fields`` alone and takes two values, an oracle's
chart is read in ``reference``, the CLI's rows run in one pool and its JSON
is checked by one function.  A field has one map of its components and one
of its partials, and no module reads the environment."""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
import tracemalloc

import numpy as np
import pytest

import feller
from feller import chernoff, cli, fields, grids, manifolds, reference, walks

CHART_CLASSES = {
    name for name, obj in vars(manifolds).items()
    if inspect.isclass(obj) and issubclass(obj, manifolds.Manifold)
} - {"Manifold"}


def _chart_classes_named(module) -> set:
    """Chart classes named in the module's code, bare or as a module attribute."""
    tree = ast.parse(inspect.getsource(module))
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    names |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
    return names & CHART_CLASSES


def test_the_chart_classes_are_the_built_ins():
    assert CHART_CLASSES == {"Euclidean", "FlatTorus", "HyperbolicHalfPlane", "Sphere2"}


@pytest.mark.parametrize("module, allowed", [
    (grids, set()),
    (fields, {"Sphere2"}),
    (reference, set()),
])
def test_module_names_no_chart_class(module, allowed):
    assert _chart_classes_named(module) == allowed
    namespace = {name for name, obj in vars(module).items() if inspect.isclass(obj)}
    assert namespace & CHART_CLASSES == allowed


def test_fields_names_sphere2_only_in_the_rotational_input_check():
    tree = ast.parse(inspect.getsource(fields))
    rot = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "rotational_field")
    uses = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Name) and n.id == "Sphere2"]
    assert uses and all(rot.lineno <= line <= rot.end_lineno for line in uses)


def _called_names(node) -> set:
    """The names called in ``node``'s code, bare or as an attribute."""
    return {getattr(n.func, "id", None) or getattr(n.func, "attr", None)
            for n in ast.walk(node) if isinstance(n, ast.Call)}


def _callers(module, name) -> set:
    """The top-level definitions of ``module`` whose code calls ``name``, bare or
    as an attribute (None for a call outside any definition)."""
    tree = ast.parse(inspect.getsource(module))
    return {getattr(top, "name", None) for top in tree.body if name in _called_names(top)}


def test_move_rows_is_the_only_mover():
    # a flow moves rows only in move_rows; a group product also in the folded
    # paths of the sample loop and the tree, and in their product tables
    assert _callers(chernoff, "flow_batch") == {"move_rows"}
    assert _callers(chernoff, "compose") == {"move_rows", "sample_steps", "iterate_tree", "_products"}
    assert _callers(walks, "flow_batch") == _callers(walks, "compose") == set()
    # a branch is data: no move closure, and no option picks another path
    assert "move" not in {f.name for f in dataclasses.fields(chernoff.Branch)}


def _definition(module, name):
    """The top-level definition ``name`` of ``module``, parsed."""
    tree = ast.parse(inspect.getsource(module))
    return next(top for top in tree.body if getattr(top, "name", None) == name)


def test_the_tree_folds_by_broadcasting():
    # a folded chunk is one broadcast compose of its nodes against the
    # product table: no node is repeated and no table tiled
    assert {"repeat", "tile"}.isdisjoint(_called_names(_definition(chernoff, "iterate_tree")))


def test_words_become_branch_indices_only_in_the_sample_loop():
    # the words, the thresholds and the shift draw are read in sample_steps alone
    callers = set()
    for info in pkgutil.iter_modules(feller.__path__):
        module = importlib.import_module(f"feller.{info.name}")
        callers |= {f"{info.name}.{c}" for c in _callers(module, "step_uniforms")}
    assert callers == {"chernoff.sample_steps"}
    assert _callers(chernoff, "_thresholds") == _callers(chernoff, "_draw_shift") == {"sample_steps"}


def test_level_is_the_only_level_expansion():
    # the tree, apply_S_batch and branch_set expand a level by _level; the
    # sample loop and the grid move their rows directly
    assert _callers(chernoff, "move_rows") == {"_level", "sample_steps", "iterate_grid"}
    assert _callers(chernoff, "_level") == {"iterate_tree", "apply_S_batch", "branch_set"}


def test_sample_steps_is_the_sample_loop():
    # no layer builds the loop for it, and it works out from its rows whether
    # they share one start; no option picks another path
    assert not hasattr(chernoff, "_chain")
    assert {"compose", "shared"}.isdisjoint(inspect.signature(chernoff.sample_steps).parameters)
    assert _callers(chernoff, "sample_steps") == {"sample_endpoints"}


def test_a_chart_declares_its_frame_once():
    # a global frame exists exactly when the chart has a group (``identity``),
    # and frame_batch alone spells the frame: a frame field reads one field of it
    assert not hasattr(manifolds.Manifold, "parallelizable")
    assert not hasattr(manifolds.Manifold, "frame")
    assert not any(hasattr(getattr(manifolds, c), "frame_component") for c in CHART_CLASSES)


def test_a_field_has_one_map_of_its_components_and_one_of_its_partials():
    # no joint map: the divergence evaluates what it needs from the field
    assert "comps_jacobian" not in inspect.signature(fields.VectorField.__init__).parameters
    assert list(inspect.signature(fields.divergence_batch).parameters) == ["A", "coords"]


def test_no_module_reads_the_environment():
    # the package's behaviour is set by its arguments alone
    env = {"environ", "environb", "getenv", "getenvb"}
    readers = set()
    for info in pkgutil.iter_modules(feller.__path__):
        tree = ast.parse(inspect.getsource(importlib.import_module(f"feller.{info.name}")))
        for n in ast.walk(tree):
            if (isinstance(n, ast.Attribute) and n.attr in env
                    or isinstance(n, ast.ImportFrom) and env & {a.name for a in n.names}):
                readers.add(info.name)
    assert readers == set()


def test_cli_runs_every_row_in_one_pool():
    assert _callers(cli, "ThreadPoolExecutor") == {"_rows"}
    assert list(inspect.signature(cli._rows).parameters) == ["schedule", "one_row"]
    assert _callers(cli, "_rows") == {"run_convergence", "_cmd_chernoff_run"}


def test_cli_checks_every_json_object_in_one_function():
    # config, ode, generator and drift objects; oracle fd checks its generator
    # before it reads the chart there
    assert _callers(cli, "_check_keys") == {"_resolve", "_ode_settings", "build_generator",
                                            "_cmd_oracle_fd"}


def test_stencil_apply_is_the_only_gatherer():
    # every interpolation passes the stencil's live columns, so none gathers a dead one
    callers = set()
    for info in pkgutil.iter_modules(feller.__path__):
        tree = ast.parse(inspect.getsource(importlib.import_module(f"feller.{info.name}")))
        for top in tree.body:
            scopes = ([(f"{top.name}.{getattr(d, 'name', None)}", d) for d in top.body]
                      if isinstance(top, ast.ClassDef) else [(getattr(top, "name", None), top)])
            for label, scope in scopes:
                if "gather_weighted" in _called_names(scope):
                    callers.add(f"{info.name}.{label}")
    assert callers == {"grids.Stencil.apply"}
    dead = grids.Stencil(np.zeros((3, 2), dtype=np.int64), np.zeros((3, 2)), ())
    assert not dead.apply(np.array([np.nan])).any()  # apply reads no dead column


def test_a_grid_sweep_pads_once_and_applies_each_stencil_once(monkeypatch):
    # the benchmark's traced node-sweeps and gathers count exactly these calls:
    # n flat_values calls of one node array each, n applies of every stencil
    s2 = manifolds.sphere2()
    spec = fields.GeneratorSpec([fields.rotational_field(s2, k) for k in (1, 2, 3)],
                                drift_policy="derived")
    f0 = grids.GridFunction.from_function(s2, (12, 24), lambda c: c[:, 2], "linear")
    flats, applies, gathers = [], {}, []
    flat_values, apply, gather = (grids.GridFunction.flat_values, grids.Stencil.apply,
                                  grids.gather_weighted)

    def counted_flat(self, values=None, out=None):
        flats.append(np.size(values))
        return flat_values(self, values, out)

    def counted_apply(self, flat, out=None):
        applies[id(self)] = applies.get(id(self), 0) + 1
        return apply(self, flat, out)

    monkeypatch.setattr(grids.GridFunction, "flat_values", counted_flat)
    monkeypatch.setattr(grids.Stencil, "apply", counted_apply)
    monkeypatch.setattr(grids, "gather_weighted", lambda *a: gathers.append(1) or gather(*a))
    n = 5
    chernoff.iterate_grid(spec, chernoff.ChernoffVariant.GENERAL, 0.5, n, f0)
    assert flats == [f0.values.size] * n
    assert list(applies.values()) == [n] * 7 and len(gathers) == 7 * n


@pytest.mark.parametrize("chart, shape, padded", [
    (manifolds.torus2, (8, 10), False), (manifolds.sphere2, (8, 16), True),
])
def test_an_unpadded_sweep_gathers_from_a_view_of_its_values(monkeypatch, chart, shape, padded):
    # flat_values once per sweep; a chart without padding returns a view of
    # the values, so only a padded one is given a buffer to fill
    m = chart()
    frame = (fields.rotational_field(m, k) for k in (1, 2, 3)) if padded else (
        fields.frame_field(m, k) for k in (1, 2))
    spec = fields.GeneratorSpec(list(frame), drift_policy="derived")
    f0 = grids.GridFunction.from_function(m, shape, lambda c: c[:, 0], "linear")
    flat_values, calls = grids.GridFunction.flat_values, []

    def recorded(self, values=None, out=None):
        flat = flat_values(self, values, out)
        calls.append((out is not None, np.shares_memory(flat, values)))
        return flat

    monkeypatch.setattr(grids.GridFunction, "flat_values", recorded)
    chernoff.iterate_grid(spec, chernoff.ChernoffVariant.GENERAL, 0.5, 3, f0)
    assert calls == [(padded, not padded)] * 3


def test_only_fields_reads_the_drift_policy():
    readers = set()
    for info in pkgutil.iter_modules(feller.__path__):
        module = importlib.import_module(f"feller.{info.name}")
        tree = ast.parse(inspect.getsource(module))
        if any(isinstance(n, ast.Attribute) and n.attr == "drift_policy" for n in ast.walk(tree)):
            readers.add(info.name)
    assert readers == {"fields"}


def test_drift_policy_takes_two_values():
    # D + B is "derived" with a field: fields spells no other policy
    strings = {n.value for n in ast.walk(ast.parse(inspect.getsource(fields)))
               if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    assert {s for s in strings if s.startswith(("explicit", "derived"))} == {"explicit", "derived"}


def test_cli_names_no_heat_kernel_tag():
    tags = {"gauss-rd", "wrapped-gauss-s1", "torus-product", "sphere-harmonics", "hyperbolic-h2"}
    strings = [n.value for n in ast.walk(ast.parse(inspect.getsource(cli)))
               if isinstance(n, ast.Constant) and isinstance(n.value, str)]
    assert [s for s in strings if any(tag in s for tag in tags)] == []


def _grid_moves(monkeypatch, spec, variant, f0):
    """iterate_grid's calls: the rows of each move_rows call, and the number of
    build_stencil and shift_stencil calls."""
    rows, built = [], {"build_stencil": 0, "shift_stencil": 0}
    move_rows = chernoff.move_rows

    def counted_move(branches, coords, idx, s):
        rows.append(len(np.atleast_2d(coords)))
        return move_rows(branches, coords, idx, s)

    monkeypatch.setattr(chernoff, "move_rows", counted_move)
    for name in built:
        real = getattr(grids.GridFunction, name)

        def counted(self, coords, _real=real, _name=name):
            built[_name] += 1
            return _real(self, coords)

        monkeypatch.setattr(grids.GridFunction, name, counted)
    chernoff.iterate_grid(spec, variant, 0.5, 3, f0)
    return rows, built


@pytest.mark.parametrize("chart, shape", [(manifolds.circle, 16), (manifolds.torus2, (8, 10))])
def test_a_shift_on_a_periodic_group_grid_moves_one_row_and_builds_no_stencil(
        monkeypatch, chart, shape):
    m = chart()
    spec = fields.GeneratorSpec([fields.frame_field(m, k + 1) for k in range(m.dim)])
    f0 = grids.GridFunction.from_function(m, shape, lambda c: np.cos(c[:, 0]), "cubic")
    rows, built = _grid_moves(monkeypatch, spec, chernoff.ChernoffVariant.HEAT_GEODESIC, f0)
    assert rows == [1] * 2 * m.dim
    assert built == {"build_stencil": 0, "shift_stencil": 2 * m.dim}


@pytest.mark.parametrize("chart, shape, fields_of", [
    (manifolds.sphere2, (8, 16), lambda m: [fields.rotational_field(m, k) for k in (1, 2, 3)]),
    (manifolds.torus2, (8, 10), lambda m: [fields.frame_field(m, k) for k in (1, 2)]),
    (manifolds.circle, 16, lambda m: [fields.field_from_string(m, "custom:1+0.3*sin(theta)")]),
])
def test_flow_branches_build_one_stencil_of_every_node_per_branch(
        monkeypatch, chart, shape, fields_of):
    # GENERAL flows, and every branch on sphere2, whose latitude is polar
    m = chart()
    spec = fields.GeneratorSpec(fields_of(m), drift_policy="derived")
    f0 = grids.GridFunction.from_function(m, shape, lambda c: c[:, 0], "linear")
    b = len(chernoff.branch_moves(spec, chernoff.ChernoffVariant.GENERAL))
    rows, built = _grid_moves(monkeypatch, spec, chernoff.ChernoffVariant.GENERAL, f0)
    assert rows == [f0.values.size] * b
    assert built == {"build_stencil": b, "shift_stencil": 0}


def test_the_translated_stencil_path_names_no_chart():
    # it is chosen from the chart's group (identity), its grid (periodic) and
    # the branch (shift), not from the chart's class or name
    body = _definition(chernoff, "iterate_grid")
    assert {"shift_stencil", "build_stencil"} <= _called_names(body)
    assert _chart_classes_named(chernoff) == set()
    strings = {n.value for n in ast.walk(body) if isinstance(n, ast.Constant)}
    assert not {"circle", "torus2", "sphere2", "periodic"} & strings
    assert {"identity", "periodic", "shift"} <= {n.attr for n in ast.walk(body)
                                                if isinstance(n, ast.Attribute)}


def test_a_torus_heat_geodesic_sweep_allocates_no_per_node_weights():
    # 192 x 192 cubic torus2: 4 branches of 16 columns.  Each branch keeps a
    # per-node index array; a per-node weight array of the same size would
    # lift the peak by at least one more
    t2 = manifolds.torus2()
    spec = fields.GeneratorSpec([fields.frame_field(t2, 1), fields.frame_field(t2, 2)])
    f0 = grids.GridFunction.from_function(t2, (192, 192), lambda c: np.cos(c[:, 0]), "cubic")
    index_bytes = f0.values.size * 16 * 8
    chernoff.iterate_grid(spec, chernoff.ChernoffVariant.HEAT_GEODESIC, 1.0, 2, f0)  # warm
    tracemalloc.start()
    try:
        chernoff.iterate_grid(spec, chernoff.ChernoffVariant.HEAT_GEODESIC, 1.0, 2, f0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 4 * index_bytes <= peak < 5 * index_bytes
