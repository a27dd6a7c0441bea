"""Command-line orchestration: experiments, oracles and the validation gate.

Subcommands
-----------
``chernoff run``   evaluate S(t/n)^n f by tree, grid or mc; with an n-schedule
                   and an oracle it emits a convergence table plus a fitted
                   log-log slope.
``walk sample``    write sampled walk trajectories as CSV.
``walk stats``     endpoint statistics (mean/stderr, optional KS distance and
                   modulus-of-continuity tails) across an n-schedule.
``oracle eval``    closed-form heat-kernel point evaluation.
``oracle fd``      Crank-Nicolson reference solution on a periodic grid.
``validate``       run the acceptance criteria; exit 1 on failure.

Every run is reproducible from its config: the resolved configuration is
recorded verbatim in the output header (CSV comment lines, schema=1).
``--config file.json`` supplies defaults that explicit flags override;
``CHERNOFF_THREADS`` caps worker threads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import fields as fd
from . import manifolds as mf
from . import reference as rf
from . import walks as wk
from .chernoff import ChernoffVariant, iterate_grid, iterate_mc, iterate_tree
from .errors import FellerError, OracleUnavailableError
from .expressions import compile_scalar
from .flows import OdeSettings
from .grids import GridFunction

SCHEMA = 1


def _threads() -> int:
    raw = os.environ.get("CHERNOFF_THREADS", "").strip()
    if raw:
        return max(1, int(raw))
    return min(4, os.cpu_count() or 1)


# -- config ----------------------------------------------------------------------


@dataclass
class ExperimentConfig:
    manifold: str = "circle"
    generator: dict = field(default_factory=lambda: {"fields": ["frame:1"], "drift": "zero"})
    variant: str = "general"
    strategy: str = "grid"
    t: float = 1.0
    n_schedule: list = field(default_factory=lambda: [8])
    samples: int = 100_000
    seed: int = 0
    oracle: Optional[str] = None
    out: Optional[str] = None
    grid_nodes: list = field(default_factory=lambda: [512])
    interp: str = "cubic"
    f: str = "cos(theta)"
    x: list = field(default_factory=list)
    kind: str = "jump"
    paths: int = 1000
    reference: Optional[str] = None
    moc: list = field(default_factory=list)
    ode: dict = field(default_factory=dict)

    def resolved(self) -> dict:
        return {k: v for k, v in self.__dict__.items()}


def _load_config(path: Optional[str]) -> dict:
    if not path:
        return {}
    with open(path) as fh:
        return json.load(fh)


def _merge_config(cfg: ExperimentConfig, file_values: dict, args: argparse.Namespace, mapping: dict):
    for key, value in file_values.items():
        if hasattr(cfg, key):
            setattr(cfg, key, value)
    for attr, argname in mapping.items():
        val = getattr(args, argname, None)
        if val is not None:
            setattr(cfg, attr, val)
    return cfg


def build_generator(manifold: mf.Manifold, gen: dict) -> fd.GeneratorSpec:
    """Instantiate a GeneratorSpec from its JSON description."""
    fields = [fd.field_from_string(manifold, s) for s in gen.get("fields", [])]
    drift = gen.get("drift", "zero")
    potential = gen.get("potential")
    feller_flag = bool(gen.get("feller", True))
    if drift in (None, "zero"):
        return fd.GeneratorSpec(fields, "explicit", potential=potential, feller=feller_flag)
    if drift == "derived":
        return fd.GeneratorSpec(fields, "derived", potential=potential, feller=feller_flag)
    if isinstance(drift, dict):
        policy = drift.get("policy", "explicit")
        extra = drift.get("field")
        dfield = fd.field_from_string(manifold, extra) if extra else None
        if policy == "derived+":
            policy = "derived_plus"
        return fd.GeneratorSpec(fields, policy, drift=dfield, potential=potential, feller=feller_flag)
    return fd.GeneratorSpec(
        fields, "explicit", drift=fd.field_from_string(manifold, drift),
        potential=potential, feller=feller_flag,
    )


def _ode_settings(cfg: ExperimentConfig) -> OdeSettings:
    o = cfg.ode or {}
    return OdeSettings(
        h_init=o.get("h0"),
        tol=float(o.get("tol", 1e-9)),
        max_steps=int(o.get("max_steps", 10**6)),
    )


def _header_lines(cfg: ExperimentConfig) -> list[str]:
    resolved = {k: v for k, v in cfg.resolved().items() if k != "out"}
    blob = json.dumps(resolved, sort_keys=True)
    return [f"# schema={SCHEMA}", f"# config={blob}"]


def _write_csv(path: Optional[str], header: list[str], columns: list[str], rows: list):
    lines = header + [",".join(columns)]
    for row in rows:
        lines.append(",".join(str(v) for v in row))
    text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- oracles for convergence tables -------------------------------------------------


def _oracle_fn(cfg: ExperimentConfig, spec, manifold, f):
    """Returns oracle(coords (m, cd)) -> values, or raises OracleUnavailableError."""
    sel = cfg.oracle
    if not sel:
        raise OracleUnavailableError("no oracle configured (use --oracle)")
    kind, _, arg = sel.partition(":")
    if kind == "expr":
        fn = compile_scalar(arg, manifold)
        return lambda coords: np.asarray(fn(coords), dtype=float)
    if kind == "kernel":
        kid = rf.HeatKernelId.from_string(arg)
        return lambda coords: np.array(
            [rf.exact_semigroup(kid, f, cfg.t, c) for c in np.atleast_2d(coords)]
        )
    if kind == "fd":
        steps = int(arg) if arg else max(100, int(math.ceil(cfg.t / 5e-3)))
        shape = tuple(cfg.grid_nodes) if len(cfg.grid_nodes) > 1 else cfg.grid_nodes[0]
        f0 = GridFunction.from_function(manifold, shape, f, interp=cfg.interp)
        sol = rf.fd_solve(spec, f0, cfg.t, rf.FdSolverSettings(steps=steps))
        return lambda coords: sol.interpolate(np.atleast_2d(coords))
    raise OracleUnavailableError(f"unknown oracle {sel!r}")


# -- chernoff run -------------------------------------------------------------------


@dataclass
class ConvergenceRow:
    n: int
    error_sup: float
    stderr: float
    wall_time: float


def run_convergence(cfg: ExperimentConfig):
    """Errors vs the configured oracle across the n-schedule, plus a slope fit.

    Returns (rows, summary dict).  Rows that fail record the error message
    instead of aborting the run.
    """
    manifold = mf.manifold_from_string(cfg.manifold)
    spec = build_generator(manifold, cfg.generator)
    variant = ChernoffVariant.from_string(cfg.variant)
    ode = _ode_settings(cfg)
    f = compile_scalar(cfg.f, manifold)
    xs = [manifold.point(c) for c in cfg.x] if cfg.x else []
    oracle = _oracle_fn(cfg, spec, manifold, f)

    def one_row(n: int):
        t0 = time.perf_counter()
        stderr = 0.0
        if cfg.strategy == "grid":
            shape = tuple(cfg.grid_nodes) if len(cfg.grid_nodes) > 1 else cfg.grid_nodes[0]
            f0 = GridFunction.from_function(manifold, shape, f, interp=cfg.interp)
            sol = iterate_grid(spec, variant, cfg.t, n, f0, ode)
            ref = oracle(f0.node_coords())
            err = float(np.abs(sol.values.ravel() - ref).max())
        elif cfg.strategy == "tree":
            if not xs:
                raise ValueError("tree strategy needs evaluation points (--x)")
            vals = np.array([iterate_tree(spec, variant, cfg.t, n, f, x, ode=ode) for x in xs])
            ref = oracle(np.stack([x.coords for x in xs]))
            err = float(np.abs(vals - ref).max())
        elif cfg.strategy == "mc":
            if not xs:
                raise ValueError("mc strategy needs evaluation points (--x)")
            ests = [
                iterate_mc(spec, variant, cfg.t, n, f, x, cfg.samples, cfg.seed, ode)
                for x in xs
            ]
            ref = oracle(np.stack([x.coords for x in xs]))
            err = float(np.abs(np.array([e.mean for e in ests]) - ref).max())
            stderr = float(max(e.stderr for e in ests))
        else:
            raise ValueError(f"unknown strategy {cfg.strategy!r}")
        return ConvergenceRow(n, err, stderr, time.perf_counter() - t0)

    rows, failures = [], []
    with ThreadPoolExecutor(max_workers=_threads()) as pool:
        futures = {n: pool.submit(one_row, int(n)) for n in cfg.n_schedule}
        for n, fut in futures.items():
            try:
                rows.append(fut.result())
            except (FellerError, ValueError) as exc:
                failures.append({"n": int(n), "error": str(exc)})
    rows.sort(key=lambda r: r.n)
    summary = {"schema": SCHEMA, "config": cfg.resolved(), "failures": failures}
    errs = np.array([r.error_sup for r in rows])
    if len(rows) >= 2 and np.all(errs > 1e-10):
        slope = float(np.polyfit(np.log([r.n for r in rows]), np.log(errs), 1)[0])
        summary["slope"] = slope
    else:
        summary["slope"] = None
        summary["exact"] = bool(len(rows) and np.all(errs <= 1e-10))
    return rows, summary


def _cmd_chernoff_run(args) -> int:
    cfg = _merge_config(
        ExperimentConfig(),
        _load_config(args.config),
        args,
        {
            "manifold": "manifold",
            "variant": "variant",
            "strategy": "strategy",
            "t": "t",
            "samples": "samples",
            "seed": "seed",
            "oracle": "oracle",
            "out": "out",
            "interp": "interp",
            "f": "f",
        },
    )
    if args.generator:
        cfg.generator = _load_config(args.generator)
    if args.n:
        cfg.n_schedule = [int(v) for v in args.n.split(",")]
    if args.grid_nodes:
        cfg.grid_nodes = [int(v) for v in args.grid_nodes.split(",")]
    if args.x:
        cfg.x = [[float(v) for v in s.split(",")] for s in args.x]
    cfg.ode = _ode_override(args, cfg.ode)

    manifold = mf.manifold_from_string(cfg.manifold)
    spec = build_generator(manifold, cfg.generator)
    variant = ChernoffVariant.from_string(cfg.variant)
    ode = _ode_settings(cfg)
    f = compile_scalar(cfg.f, manifold)
    if cfg.strategy in ("tree", "mc") and not cfg.x:
        raise ValueError(f"{cfg.strategy} strategy needs evaluation points (--x)")

    if cfg.oracle:
        rows, summary = run_convergence(cfg)
        _write_csv(
            cfg.out,
            _header_lines(cfg),
            ["n", "error_sup", "stderr", "wall_time"],
            [(r.n, f"{r.error_sup:.12g}", f"{r.stderr:.6g}", f"{r.wall_time:.4f}") for r in rows],
        )
        print(json.dumps({k: v for k, v in summary.items() if k != "config"}), file=sys.stderr)
        return 0

    rows = []
    for n in cfg.n_schedule:
        n = int(n)
        if cfg.strategy == "grid":
            shape = tuple(cfg.grid_nodes) if len(cfg.grid_nodes) > 1 else cfg.grid_nodes[0]
            f0 = GridFunction.from_function(manifold, shape, f, interp=cfg.interp)
            sol = iterate_grid(spec, variant, cfg.t, n, f0, ode)
            for node, val in zip(f0.node_coords(), sol.values.ravel()):
                rows.append((cfg.variant, "grid", cfg.t, n, ";".join(f"{c:.10g}" for c in node),
                             f"{val:.12g}", ""))
        elif cfg.strategy == "tree":
            for c in cfg.x:
                x = manifold.point(c)
                val = iterate_tree(spec, variant, cfg.t, n, f, x, ode=ode)
                rows.append((cfg.variant, "tree", cfg.t, n, ";".join(f"{v:.10g}" for v in c),
                             f"{val:.12g}", ""))
        else:
            for c in cfg.x:
                x = manifold.point(c)
                est = iterate_mc(spec, variant, cfg.t, n, f, x, cfg.samples, cfg.seed, ode)
                rows.append((cfg.variant, "mc", cfg.t, n, ";".join(f"{v:.10g}" for v in c),
                             f"{est.mean:.12g}", f"{est.stderr:.6g}"))
    _write_csv(
        cfg.out,
        _header_lines(cfg),
        ["variant", "strategy", "t", "n", "point_or_node", "value", "stderr"],
        rows,
    )
    return 0


# -- walks ---------------------------------------------------------------------------


_SAMPLERS = {
    "jump": wk.sample_jump_path,
    "geodesic": wk.sample_geodesic_interp,
    "flow": wk.sample_flow_interp,
}


def _cmd_walk_sample(args) -> int:
    cfg = _merge_config(
        ExperimentConfig(),
        _load_config(args.config),
        args,
        {"manifold": "manifold", "t": "t", "seed": "seed", "out": "out", "kind": "kind",
         "paths": "paths"},
    )
    if args.generator:
        cfg.generator = _load_config(args.generator)
    if args.n:
        cfg.n_schedule = [int(args.n)]
    cfg.ode = _ode_override(args, cfg.ode)
    manifold = mf.manifold_from_string(cfg.manifold)
    spec = build_generator(manifold, cfg.generator)
    sampler = _SAMPLERS[cfg.kind]
    ode = _ode_settings(cfg)
    n = int(cfg.n_schedule[0])
    rows = []
    for pid in range(int(cfg.paths)):
        path = sampler(spec, manifold.point(cfg.x[0]) if cfg.x else _default_start(manifold),
                       cfg.t, n, seed=cfg.seed, path_index=pid, ode=ode)
        for tval, pt in zip(path.times, path.points):
            rows.append((pid, f"{tval:.10g}") + tuple(f"{c:.12g}" for c in pt))
    cd = manifold.chart_dim
    _write_csv(cfg.out, _header_lines(cfg),
               ["path_id", "time"] + [f"coord{i + 1}" for i in range(cd)], rows)
    return 0


def run_walk_study(cfg: ExperimentConfig):
    """WalkStats (with optional KS and modulus-of-continuity tails) per n."""
    manifold = mf.manifold_from_string(cfg.manifold)
    spec = build_generator(manifold, cfg.generator)
    f = compile_scalar(cfg.f, manifold)
    x = manifold.point(cfg.x[0]) if cfg.x else _default_start(manifold)
    ode = _ode_settings(cfg)
    ref = _reference_cdf(cfg.reference)
    out = []
    for n in cfg.n_schedule:
        n = int(n)
        stats = wk.estimate_expectation(spec, f, x, cfg.t, n, int(cfg.samples), cfg.seed, ode)
        ks = None
        if ref is not None:
            pts = wk.walk_endpoints(spec, x, cfg.t, n, int(cfg.samples), cfg.seed, ode)
            ks = wk.ks_distance_to(ref, np.asarray(f(pts), dtype=float))
        moc = None
        if cfg.moc:
            moc = []
            for spec_pair in cfg.moc:
                delta, eps = (float(v) for v in str(spec_pair).split(","))
                exceed = 0
                for pid in range(int(cfg.paths)):
                    path = wk.sample_geodesic_interp(spec, x, cfg.t, n, cfg.seed, pid, ode)
                    if wk.modulus_of_continuity(path, delta) > eps:
                        exceed += 1
                moc.append((delta, eps, exceed / int(cfg.paths)))
        out.append(
            wk.WalkStats(
                t=cfg.t, n=n, n_samples=int(cfg.samples),
                mean_f=stats.mean_f, stderr_f=stats.stderr_f,
                ks_distance=ks, moc_tail=moc,
            )
        )
    return out


def _default_start(manifold: mf.Manifold) -> mf.Point:
    if manifold.name == "sphere2":
        return manifold.point([0.0, 0.0, 1.0])
    if manifold.name == "hyperbolic-h2":
        return manifold.point([0.0, 1.0])
    return manifold.point([0.0] * manifold.chart_dim)


def _reference_cdf(name: Optional[str]):
    if not name or name == "none":
        return None
    kind, _, arg = name.partition(":")
    if kind == "normal":
        mean, sd = (0.0, 1.0) if not arg else tuple(float(v) for v in arg.split(","))
        from scipy.special import ndtr

        return lambda s: ndtr((np.asarray(s) - mean) / sd)
    if kind == "pointmass":
        v = float(arg) if arg else 0.0
        return lambda s: (np.asarray(s) >= v).astype(float)
    raise ValueError(f"unknown reference {name!r}")


def _cmd_walk_stats(args) -> int:
    cfg = _merge_config(
        ExperimentConfig(),
        _load_config(args.config),
        args,
        {"manifold": "manifold", "t": "t", "seed": "seed", "out": "out", "f": "f",
         "reference": "reference", "samples": "samples", "paths": "paths"},
    )
    if args.generator:
        cfg.generator = _load_config(args.generator)
    if args.n:
        cfg.n_schedule = [int(v) for v in args.n.split(",")]
    if args.moc:
        cfg.moc = args.moc
    cfg.ode = _ode_override(args, cfg.ode)
    stats = run_walk_study(cfg)
    payload = {
        "schema": SCHEMA,
        "config": cfg.resolved(),
        "stats": [
            {
                "t": s.t, "n": s.n, "n_samples": s.n_samples,
                "mean_f": s.mean_f, "stderr_f": s.stderr_f,
                "ks_distance": s.ks_distance, "moc_tail": s.moc_tail,
            }
            for s in stats
        ],
    }
    text = json.dumps(payload, indent=2)
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


# -- oracle commands -------------------------------------------------------------------


def _cmd_oracle_eval(args) -> int:
    kid = rf.HeatKernelId.from_string(args.kernel)
    manifold = {
        "gauss-rd": mf.euclidean(kid.d),
        "wrapped-gauss-s1": mf.circle(),
        "torus-product": mf.torus2(),
        "sphere-harmonics": mf.sphere2(),
        "hyperbolic-h2": mf.hyperbolic_h2(),
    }[kid.tag]
    f = compile_scalar(args.f, manifold)
    x = np.array([float(v) for v in args.x.split(",")])
    val = rf.exact_semigroup(kid, f, args.t, x)
    print(f"{val:.12g}")
    return 0


def _cmd_oracle_fd(args) -> int:
    gen = _load_config(args.generator)
    manifold = mf.manifold_from_string(gen.get("manifold", args.manifold or "circle"))
    spec = build_generator(manifold, gen)
    f0fn = compile_scalar(args.f0, manifold)
    nodes = [int(v) for v in args.nodes.split(",")]
    shape = tuple(nodes) if len(nodes) > 1 else nodes[0]
    f0 = GridFunction.from_function(manifold, shape, f0fn)
    sol = rf.fd_solve(spec, f0, args.t, rf.FdSolverSettings(steps=args.steps))
    cfg = ExperimentConfig(manifold=manifold.name, generator=gen, t=args.t,
                           grid_nodes=nodes, f=args.f0)
    rows = [
        (";".join(f"{c:.10g}" for c in node), f"{v:.12g}")
        for node, v in zip(f0.node_coords(), sol.values.ravel())
    ]
    _write_csv(args.out, _header_lines(cfg), ["node", "value"], rows)
    return 0


# -- validate ---------------------------------------------------------------------------


def run_validation_suite(filter_substr: Optional[str] = None, out: Optional[str] = None) -> int:
    """Run the acceptance criteria; returns the process exit code."""
    from .validation import run_all

    results = run_all(filter_substr)
    for r in results:
        print(r.line())
    verdict = {
        "schema": SCHEMA,
        "criteria": [
            {
                "id": r.cid,
                "description": r.description,
                "status": r.status,
                "detail": r.detail,
                "elapsed_s": round(r.elapsed, 3),
                "budget_s": r.budget,
            }
            for r in results
        ],
        "ok": all(r.ok for r in results),
    }
    if out:
        with open(out, "w") as fh:
            json.dump(verdict, fh, indent=2)
            fh.write("\n")
    n_bad = sum(not r.ok for r in results)
    print(f"{len(results) - n_bad}/{len(results)} criteria green"
          + (f", {n_bad} FAILING" if n_bad else ""))
    return 0 if verdict["ok"] else 1


# -- argument parsing ----------------------------------------------------------------------


def _add_ode_flags(p: argparse.ArgumentParser):
    p.add_argument("--ode-tol", type=float, default=None)
    p.add_argument("--ode-h0", type=float, default=None)
    p.add_argument("--ode-max-steps", type=int, default=None)


def _ode_override(args, base: dict) -> dict:
    o = dict(base or {})
    if getattr(args, "ode_tol", None) is not None:
        o["tol"] = args.ode_tol
    if getattr(args, "ode_h0", None) is not None:
        o["h0"] = args.ode_h0
    if getattr(args, "ode_max_steps", None) is not None:
        o["max_steps"] = args.ode_max_steps
    return o


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="feller",
        description="Chernoff approximations of Feller semigroups on manifolds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    chernoff = sub.add_parser("chernoff", help="semigroup approximation runs")
    chsub = chernoff.add_subparsers(dest="subcommand", required=True)
    run = chsub.add_parser("run", help="evaluate S(t/n)^n f")
    run.add_argument("--manifold")
    run.add_argument("--generator", help="generator description JSON file")
    run.add_argument("--variant")
    run.add_argument("--t", type=float)
    run.add_argument("--n", help="n or comma-separated n-schedule")
    run.add_argument("--strategy", choices=["tree", "grid", "mc"])
    run.add_argument("--grid-nodes", dest="grid_nodes")
    run.add_argument("--interp", choices=["linear", "cubic"])
    run.add_argument("--samples", type=int)
    run.add_argument("--seed", type=int)
    run.add_argument("--x", action="append", help="evaluation point (comma coords); repeatable")
    run.add_argument("--f", help="test function expression")
    run.add_argument("--oracle", help="expr:<e> | kernel:<tag> | fd[:steps]")
    run.add_argument("--out")
    run.add_argument("--config")
    _add_ode_flags(run)
    run.set_defaults(fn=_cmd_chernoff_run)

    walk = sub.add_parser("walk", help="random-walk sampling and statistics")
    wsub = walk.add_subparsers(dest="subcommand", required=True)
    ws = wsub.add_parser("sample", help="sample walk trajectories to CSV")
    ws.add_argument("--kind", choices=["jump", "geodesic", "flow"])
    ws.add_argument("--manifold")
    ws.add_argument("--generator")
    ws.add_argument("--t", type=float)
    ws.add_argument("--n")
    ws.add_argument("--paths", type=int)
    ws.add_argument("--seed", type=int)
    ws.add_argument("--out")
    ws.add_argument("--config")
    _add_ode_flags(ws)
    ws.set_defaults(fn=_cmd_walk_sample)
    wt = wsub.add_parser("stats", help="endpoint statistics across an n-schedule")
    wt.add_argument("--manifold")
    wt.add_argument("--generator")
    wt.add_argument("--f")
    wt.add_argument("--t", type=float)
    wt.add_argument("--n")
    wt.add_argument("--samples", type=int)
    wt.add_argument("--paths", type=int)
    wt.add_argument("--seed", type=int)
    wt.add_argument("--reference", help="normal[:mean,sd] | pointmass:<v> | none")
    wt.add_argument("--moc", action="append", help="delta,eps pair; repeatable")
    wt.add_argument("--out")
    wt.add_argument("--config")
    _add_ode_flags(wt)
    wt.set_defaults(fn=_cmd_walk_stats)

    oracle = sub.add_parser("oracle", help="reference oracles")
    osub = oracle.add_subparsers(dest="subcommand", required=True)
    oe = osub.add_parser("eval", help="closed-form heat kernel evaluation")
    oe.add_argument("--kernel", required=True)
    oe.add_argument("--f", required=True)
    oe.add_argument("--t", type=float, required=True)
    oe.add_argument("--x", required=True, help="comma-separated coordinates")
    oe.set_defaults(fn=_cmd_oracle_eval)
    of = osub.add_parser("fd", help="Crank-Nicolson reference solve")
    of.add_argument("--generator", required=True)
    of.add_argument("--manifold")
    of.add_argument("--f0", required=True)
    of.add_argument("--t", type=float, required=True)
    of.add_argument("--nodes", required=True)
    of.add_argument("--steps", type=int, required=True)
    of.add_argument("--out")
    of.set_defaults(fn=_cmd_oracle_fd)

    val = sub.add_parser("validate", help="run the acceptance criteria")
    val.add_argument("--filter", help="run only criteria whose id contains this substring")
    val.add_argument("--out", help="write the JSON verdict here")
    val.set_defaults(fn=lambda a: run_validation_suite(a.filter, a.out))

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (FellerError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
