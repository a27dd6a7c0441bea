"""Spans and counts at the public boundaries of feller's modules.

The program itself records nothing.  ``Tracer.install()`` replaces each public
function or method listed in ``TARGETS`` with a wrapper that records one span
(name, start, end, parent span in the same thread) and the counts derived from its
arguments and result, then calls the original unchanged.  Functions are
replaced in every module that bound them (``from .flows import flow_batch``
makes ``chernoff.flow_batch`` and ``walks.flow_batch`` separate bindings);
methods are replaced on the classes that define them.  ``uninstall()``
restores every original.

Spans are kept in memory; ``layer_metrics`` reduces them to the per-layer
metrics named in ``BENCHMARK.json`` and ``summary`` to calls and times per
span name.  A layer's self time is its span's
duration minus the time its child spans in the same thread cover.
"""

from __future__ import annotations

import functools
import sys
import threading
import time

import numpy as np

from feller import _kernels, chernoff, cli, expressions, fields, flows, grids, manifolds, reference, walks


class Span:
    __slots__ = ("name", "parent", "start", "end", "child_s", "counts")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.child_s = 0.0
        self.counts = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


def _rows(a) -> int:
    return int(np.atleast_2d(a).shape[0])


# -- counts recorded at each boundary: (args, kwargs, result) -> dict -----------


def _rows_arg0(args, kw, out):
    return {"rows": _rows(args[0])}


def _rows_arg1(args, kw, out):
    # the coordinate batch of flow_batch(A, coords, ..) and of methods
    return {"rows": _rows(args[1])}


def _stencil_counts(args, kw, out):
    return {"rows": int(out.w.shape[0]), "weights": int(out.w.size),
            "zero_weights": int(np.count_nonzero(out.w == 0.0))}


def _flat_nodes(args, kw, out):
    self, values = args[0], (args[1] if len(args) > 1 else kw.get("values"))
    return {"nodes": int(self.values.size if values is None else np.size(values))}


def _gather_counts(args, kw, out):
    values, idx, w = args[:3]
    # bytes touched, computed from array sizes: index and weight arrays, the
    # gathered values and the output
    nbytes = idx.nbytes + w.nbytes + idx.size * values.itemsize + out.nbytes
    return {"rows": int(idx.shape[0]), "entries": int(idx.size), "bytes": int(nbytes)}


def _draws(args, kw, out):
    return {"draws": int(np.size(out))}


def _path_points(args, kw, out):
    return {"points": int(out.times.size)}


def _kernel_rows(args, kw, out):
    return {"rows": int(np.size(args[0]))}


def _convergence_rows(args, kw, out):
    rows, _ = out
    return {"rows": len(rows), "row_wall_s": float(sum(r.wall_time for r in rows))}


# (span name, owner, attribute, counts); an owner that is a class gets its
# method replaced, a module gets the function replaced wherever it is bound.
TARGETS = [
    ("chernoff.iterate_grid", chernoff, "iterate_grid", None),
    ("chernoff.iterate_tree", chernoff, "iterate_tree", None),
    ("chernoff.iterate_mc", chernoff, "iterate_mc", None),
    ("flows.flow_batch", flows, "flow_batch", _rows_arg1),
    ("fields.comps", fields.VectorField, "comps", _rows_arg1),
    ("fields.jacobian_batch", fields.VectorField, "jacobian_batch", _rows_arg1),
    ("grids.build_stencil", grids.GridFunction, "build_stencil", _stencil_counts),
    ("grids.flat_values", grids.GridFunction, "flat_values", _flat_nodes),
    ("kernels.gather_weighted", _kernels, "gather_weighted", _gather_counts),
    ("kernels.step_uniforms", _kernels, "step_uniforms", _draws),
    ("walks.walk_endpoints", walks, "walk_endpoints", None),
    ("walks.sample_flow_interp", walks, "sample_flow_interp", _path_points),
    ("reference.exact_semigroup", reference, "exact_semigroup", None),
    ("reference.h2_heat_kernel", reference, "h2_heat_kernel", _kernel_rows),
    ("reference.fd_solve", reference, "fd_solve", None),
    ("cli.run_convergence", cli, "run_convergence", _convergence_rows),
    ("expressions.compile_scalar", expressions, "compile_scalar", None),
] + [
    (f"manifolds.{method}", cls, method, _rows_arg1)
    for cls in vars(manifolds).values()
    if isinstance(cls, type) and issubclass(cls, manifolds.Manifold)
    for method in ("geodesic_batch", "frame_batch", "distance_batch")
    if method in vars(cls)
]

# the leaves of iterate_tree are the rows its test function is evaluated on
_TREE_F = "chernoff.tree.f"


def _wrap_tree_f(tracer, args, kw):
    """iterate_tree(spec, variant, t, n, f, ..) with f wrapped in a span."""
    if len(args) > 4:
        return args[:4] + (tracer._wrap(_TREE_F, args[4], _rows_arg0),) + args[5:], kw
    return args, dict(kw, f=tracer._wrap(_TREE_F, kw["f"], _rows_arg0))


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._patches: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def _wrap(self, name, fn, counts):
        local = self._local
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kw):
            parent = getattr(local, "top", None)
            span = Span(name, parent)
            if name == "chernoff.iterate_tree":
                args, kw = _wrap_tree_f(self, args, kw)
            local.top = span
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kw)
            finally:
                span.end = time.perf_counter()
                local.top = parent
                if parent is not None:
                    parent.child_s += span.end - span.start
                spans.append(span)
            if counts is not None:
                span.counts = counts(args, kw, out)
            return out

        return wrapper

    # -- installation ----------------------------------------------------------

    def install(self, extra_modules=()):
        """Wrap every target; ``extra_modules`` are searched for bindings too."""
        modules = [m for k, m in list(sys.modules.items())
                   if k == "feller" or k.startswith("feller.")] + list(extra_modules)
        for name, owner, attr, counts in TARGETS:
            original = vars(owner)[attr]
            wrapped = self._wrap(name, original, counts)
            owners = [owner] if isinstance(owner, type) else [
                m for m in modules if vars(m).get(attr) is original
            ]
            for o in owners:
                self._patches.append((o, attr, original))
                setattr(o, attr, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


# -- reduction to per-layer metrics ---------------------------------------------


def _ratio(num: float, den: float) -> float:
    """num / den, or 0 when the layer did no work on this workload."""
    return num / den if den else 0.0


def _sum(spans, key):
    return sum(s.counts[key] for s in spans)


def summary(spans: list[Span]) -> dict:
    """Calls, total seconds and self seconds per span name."""
    out: dict[str, dict] = {}
    for s in spans:
        row = out.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["s"] += s.duration
        row["self_s"] += s.self_s
    return out


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer metric values (name -> value) from the recorded spans."""
    by_name: dict[str, list[Span]] = {}
    children: dict[int, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append(s)

    def named(name):
        return by_name.get(name, [])

    def kids(span, name):
        return [c for c in children.get(id(span), []) if c.name == name]

    def total(name):
        return sum(s.duration for s in named(name))

    def self_total(name):
        return sum(s.self_s for s in named(name))

    m = {}

    grid = named("chernoff.iterate_grid")
    sweeps = [(g, kids(g, "grids.flat_values")) for g in grid]
    node_sweeps = sum(_sum(fv, "nodes") for _, fv in sweeps)
    sweep_s = sum(g.end - fv[0].start for g, fv in sweeps if fv)
    m["chernoff.iterate_grid.self_s"] = self_total("chernoff.iterate_grid")
    m["chernoff.grid.node_sweeps"] = node_sweeps
    m["chernoff.grid.ns_per_node_sweep"] = _ratio(sweep_s * 1e9, node_sweeps)

    leaves = _sum(named(_TREE_F), "rows")
    m["chernoff.iterate_tree.self_s"] = self_total("chernoff.iterate_tree")
    m["chernoff.tree.leaves"] = leaves
    m["chernoff.tree.ns_per_leaf"] = _ratio(total("chernoff.iterate_tree") * 1e9, leaves)

    mc_steps = sum(_sum(kids(s, "kernels.step_uniforms"), "draws")
                   for s in named("chernoff.iterate_mc"))
    m["chernoff.iterate_mc.self_s"] = self_total("chernoff.iterate_mc")
    m["chernoff.mc.sample_steps"] = mc_steps
    m["chernoff.mc.ns_per_sample_step"] = _ratio(total("chernoff.iterate_mc") * 1e9, mc_steps)

    flow = named("flows.flow_batch")
    rk4 = [(f, kids(f, "fields.comps")) for f in flow]
    rk4 = [(f, c) for f, c in rk4 if c]
    point_steps = sum(_sum(c, "rows") for _, c in rk4) / 4
    rk4_rows = sum(f.counts["rows"] for f, _ in rk4)
    m["flows.flow_batch.calls"] = len(flow)
    m["flows.flow_batch.rows"] = _sum(flow, "rows")
    m["flows.flow_batch.self_s"] = self_total("flows.flow_batch")
    m["flows.rk4_point_steps"] = point_steps
    m["flows.rk4_steps_per_row"] = _ratio(point_steps, rk4_rows)
    m["flows.ns_per_point_step"] = _ratio(sum(f.duration for f, _ in rk4) * 1e9, point_steps)
    m["flows.exact_calls"] = len(flow) - len(rk4)

    comps = named("fields.comps")
    m["fields.comps.calls"] = len(comps)
    m["fields.comps.rows"] = _sum(comps, "rows")
    m["fields.comps.self_s"] = self_total("fields.comps")
    m["fields.rows_per_comps_call"] = _ratio(m["fields.comps.rows"], len(comps))
    m["fields.jacobian_batch.rows"] = _sum(named("fields.jacobian_batch"), "rows")
    m["fields.jacobian_batch.s"] = total("fields.jacobian_batch")

    geo = named("manifolds.geodesic_batch")
    m["manifolds.geodesic_batch.calls"] = len(geo)
    m["manifolds.geodesic_batch.rows"] = _sum(geo, "rows")
    m["manifolds.geodesic_batch.self_s"] = self_total("manifolds.geodesic_batch")
    m["manifolds.geodesic.ns_per_row"] = _ratio(total("manifolds.geodesic_batch") * 1e9,
                                                m["manifolds.geodesic_batch.rows"])
    m["manifolds.frame_batch.s"] = total("manifolds.frame_batch")
    m["manifolds.distance_batch.rows"] = _sum(named("manifolds.distance_batch"), "rows")
    m["manifolds.distance_batch.s"] = total("manifolds.distance_batch")

    stencils = named("grids.build_stencil")
    m["grids.build_stencil.rows"] = _sum(stencils, "rows")
    m["grids.build_stencil.s"] = total("grids.build_stencil")
    m["grids.zero_weight_frac"] = _ratio(_sum(stencils, "zero_weights"), _sum(stencils, "weights"))
    m["grids.flat_values.s"] = total("grids.flat_values")

    gather = named("kernels.gather_weighted")
    m["kernels.gather_weighted.calls"] = len(gather)
    m["kernels.gather_weighted.entries"] = _sum(gather, "entries")
    m["kernels.gather_weighted.s"] = total("kernels.gather_weighted")
    m["kernels.gather_weighted.ns_per_entry"] = _ratio(
        m["kernels.gather_weighted.s"] * 1e9, m["kernels.gather_weighted.entries"])
    m["kernels.gather_weighted.bytes_computed"] = _sum(gather, "bytes")
    draws = named("kernels.step_uniforms")
    m["kernels.step_uniforms.draws"] = _sum(draws, "draws")
    m["kernels.step_uniforms.s"] = total("kernels.step_uniforms")
    m["kernels.step_uniforms.ns_per_draw"] = _ratio(
        m["kernels.step_uniforms.s"] * 1e9, m["kernels.step_uniforms.draws"])

    walk = named("walks.walk_endpoints")
    walk_steps = sum(_sum(kids(s, "kernels.step_uniforms"), "draws") for s in walk)
    paths = named("walks.sample_flow_interp")
    points = _sum(paths, "points")
    m["walks.walk_endpoints.self_s"] = self_total("walks.walk_endpoints")
    m["walks.sample_steps"] = walk_steps
    m["walks.ns_per_sample_step"] = _ratio(total("walks.walk_endpoints") * 1e9, walk_steps)
    m["walks.sample_flow_interp.s"] = total("walks.sample_flow_interp")
    m["walks.path_points"] = points
    m["walks.flow_calls_per_path_point"] = _ratio(
        sum(len(kids(p, "flows.flow_batch")) for p in paths), points)
    m["walks.ns_per_path_point"] = _ratio(m["walks.sample_flow_interp.s"] * 1e9, points)

    m["reference.exact_semigroup.calls"] = len(named("reference.exact_semigroup"))
    m["reference.exact_semigroup.s"] = total("reference.exact_semigroup")
    m["reference.h2_heat_kernel.rows"] = _sum(named("reference.h2_heat_kernel"), "rows")
    m["reference.h2_heat_kernel.s"] = total("reference.h2_heat_kernel")
    m["reference.fd_solve.s"] = total("reference.fd_solve")

    conv = named("cli.run_convergence")
    m["cli.run_convergence.s"] = total("cli.run_convergence")
    m["cli.rows"] = _sum(conv, "rows")
    m["cli.row_overlap"] = _ratio(_sum(conv, "row_wall_s"), m["cli.run_convergence.s"])

    m["expressions.compile_scalar.calls"] = len(named("expressions.compile_scalar"))
    m["expressions.compile_scalar.s"] = total("expressions.compile_scalar")
    m["trace.spans"] = len(spans)
    return m
