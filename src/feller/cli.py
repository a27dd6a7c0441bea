"""Command-line orchestration: experiments, oracles and the validation gate.

Subcommands
-----------
``chernoff run``   evaluate S(t/n)^n f by tree, grid or mc; with an n-schedule
                   and an oracle it emits a convergence table plus a fitted
                   log-log slope.
``walk sample``    write sampled walk trajectories as CSV (``walks.sample_path``;
                   ``--kind`` picks the jump, geodesic or flow connector).
``walk stats``     endpoint statistics (mean/stderr, optional KS distance and
                   modulus-of-continuity tails) across an n-schedule; per n the
                   endpoints are drawn once, and each geodesic path once for
                   every ``--moc`` pair.
``oracle eval``    closed-form heat-kernel point evaluation.
``oracle fd``      Crank-Nicolson reference solution on a periodic grid.
``validate``       run the acceptance criteria; exit 1 on failure.

``chernoff run``, ``walk sample`` and ``walk stats`` share ``--manifold
--generator --t --seed --out --config --ode-tol --ode-max-steps``
and resolve one ``ExperimentConfig``: the defaults, then the ``--config``
file (keys that are not fields, and values whose JSON type is not that of
the field's default, are refused), then the explicit flags, then
the ``--generator`` file (it replaces the ``generator`` key) and the
``--ode-*`` flags (merged into ``ode``, which takes only ``tol`` and
``max_steps``).  The resolved configuration is recorded in the output header
(CSV comment lines, schema=1), so a run is reproducible from its own header.
``chernoff run`` builds its problem and evaluates its oracle once, before any
row, and runs every row in one pool of ``min(4, cpu_count)`` workers,
longest row (largest n) first; rows and failures are reported in schedule order.
With ``--oracle`` a failed row is listed in the summary and a run whose every
row fails exits 2; without, the first failed row exits 2 and writes no table.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from typing import Optional

import numpy as np

from . import fields as fd
from . import manifolds as mf
from . import reference as rf
from . import walks as wk
from .chernoff import ChernoffVariant, iterate_grid, iterate_mc, iterate_tree
from .errors import FellerError, OracleUnavailableError
from .expressions import compile_scalar
from .flows import DEFAULT_ODE, OdeSettings
from .grids import GridFunction

SCHEMA = 1
STRATEGIES = ("tree", "grid", "mc")


def _threads() -> int:
    """The row pool's width: ``min(4, cpu_count)``."""
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


def _is(*types):
    """The check that a JSON value has one of ``types``; a boolean is no number."""
    return lambda v: isinstance(v, types) and (bool in types or not isinstance(v, bool))


# a JSON schema maps each key to a (check, description) pair; a --config or
# ``ode`` value must have the JSON type of its field's default
_VALUE_TYPES = {list: (_is(list), "a list"), dict: (_is(dict), "an object"),
                int: (_is(int), "an integer"), float: (_is(int, float), "a number"),
                str: (_is(str), "a string"),
                type(None): (_is(str, type(None)), "a string or null")}
_CONFIG_SCHEMA = {k: _VALUE_TYPES[type(v)] for k, v in vars(ExperimentConfig()).items()}
# the step and node counts, as --n and --grid-nodes parse them
_CONFIG_SCHEMA["n_schedule"] = _CONFIG_SCHEMA["grid_nodes"] = (
    lambda v: _is(list)(v) and v != [] and all(map(_is(int), v)), "a list of one or more integers")


def _load_config(path: Optional[str]) -> dict:
    """The JSON object in ``path`` ({} without a path); any other JSON value is refused."""
    if not path:
        return {}
    with open(path) as fh:
        value = json.load(fh)
    if not isinstance(value, dict):
        raise ValueError(f"{path} must hold a JSON object, not {json.dumps(value)}")
    return value


def _check_keys(kind: str, values: dict, schema: dict):
    """Refuse a key of ``values`` outside ``schema``, or a value its check fails."""
    unknown = sorted(set(values) - schema.keys())
    if unknown:
        raise ValueError(f"unknown {kind} keys {unknown}")
    for key, value in values.items():
        check, what = schema[key]
        if not check(value):
            raise ValueError(f"{kind} key {key!r} must be {what}, not {json.dumps(value)}")


def _resolve(args: argparse.Namespace) -> ExperimentConfig:
    """Defaults, then the --config file, then the explicit flags, which win.

    A parsed flag is applied when it was given and its ``dest`` names an
    ExperimentConfig field; the ``--generator`` file and the ``--ode-*``
    flags are applied after those.
    """
    file_values = _load_config(args.config)
    _check_keys("config", file_values, _CONFIG_SCHEMA)
    cfg = ExperimentConfig(**file_values)
    for key, value in vars(args).items():
        if key in _CONFIG_SCHEMA and value is not None:
            setattr(cfg, key, value)
    if cfg.paths < 0:
        raise ValueError("paths must be >= 0")
    if args.generator_file:
        cfg.generator = _load_config(args.generator_file)
    ode = {"tol": args.ode_tol, "max_steps": args.ode_max_steps}
    cfg.ode = {**(cfg.ode or {}), **{k: v for k, v in ode.items() if v is not None}}
    return cfg


_GENERATOR_SCHEMA = {
    # ``oracle fd`` reads the chart from the generator file when no flag gives one
    "manifold": (_is(str), "a string"),
    "fields": (lambda v: _is(list)(v) and all(map(_is(str), v)), "a list of strings"),
    "drift": (_is(type(None), str, dict), "null, a string or an object"),
    "potential": (_is(type(None), str), "null or a string"),
    "feller": (_is(bool), "a boolean"),
}
_DRIFT_SCHEMA = {"policy": (_is(str), "a string"),
                 "field": (_is(type(None), str), "a string or null")}


def build_generator(manifold: mf.Manifold, gen: dict) -> fd.GeneratorSpec:
    """Instantiate a GeneratorSpec from its JSON description.

    ``fields`` is a list of field strings, ``potential`` null or an
    expression, ``feller`` a boolean and ``drift`` an object ``{"policy":
    .., "field": ..}`` (``GeneratorSpec``'s policy and field B: ``"derived"``
    with a field is D + B, D the derived part), null (the zero drift), a
    field string (the explicit B) or ``"derived"`` (D).  ``_check_keys``
    refuses a key outside these and ``manifold``, or outside ``policy`` and
    ``field`` in a drift object, and a value of another JSON type.
    """
    _check_keys("generator", gen, _GENERATOR_SCHEMA)
    fields = [fd.field_from_string(manifold, s) for s in gen.get("fields", [])]
    drift = gen.get("drift")
    if not isinstance(drift, dict):
        drift = {"policy": "derived"} if drift == "derived" else {"field": drift}
    _check_keys("generator drift", drift, _DRIFT_SCHEMA)
    policy, extra = drift.get("policy", "explicit"), drift.get("field")
    return fd.GeneratorSpec(
        fields, policy, drift=fd.field_from_string(manifold, extra) if extra else None,
        potential=gen.get("potential"), feller=gen.get("feller", True),
    )


_ODE_SCHEMA = {k: _VALUE_TYPES[type(v)] for k, v in asdict(DEFAULT_ODE).items()}


def _check_feller(spec: fd.GeneratorSpec, coords: np.ndarray):
    """``spec.validate`` at the evaluation points when ``feller`` flags a
    potential: c > 0 at one of them is refused before any row."""
    if spec.potential is not None and spec.feller:
        spec.validate(coords)


def _ode_settings(cfg: ExperimentConfig) -> OdeSettings:
    """The RK4 settings of the ``ode`` object; another key or JSON type is refused."""
    o = cfg.ode or {}
    _check_keys("ode", o, _ODE_SCHEMA)
    return replace(DEFAULT_ODE, **o)


def _header_lines(cfg: ExperimentConfig) -> list[str]:
    resolved = {k: v for k, v in cfg.resolved().items() if k != "out"}
    blob = json.dumps(resolved, sort_keys=True)
    return [f"# schema={SCHEMA}", f"# config={blob}"]


def _emit(path: Optional[str], text: str):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_csv(path: Optional[str], header: list[str], columns: list[str], rows: list):
    lines = header + [",".join(columns)] + [",".join(str(v) for v in row) for row in rows]
    _emit(path, "\n".join(lines) + "\n")


# -- chernoff run -------------------------------------------------------------------


class ChernoffRun:
    """The problem of one ``chernoff run``, built once from its config.

    ``coords`` are the evaluation coordinates: the grid nodes for ``grid``,
    the ``--x`` points for ``tree`` and ``mc``.
    """

    def __init__(self, cfg: ExperimentConfig):
        if cfg.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {cfg.strategy!r}")
        self.cfg = cfg
        self.manifold = mf.manifold_from_string(cfg.manifold)
        self.spec = build_generator(self.manifold, cfg.generator)
        self.variant = ChernoffVariant.from_string(cfg.variant)
        self.ode = _ode_settings(cfg)
        self.f = compile_scalar(cfg.f, self.manifold)
        if cfg.strategy == "grid":
            self.f0 = GridFunction.from_function(
                self.manifold, cfg.grid_nodes, self.f, interp=cfg.interp
            )
            cfg.interp = self.f0.interp  # record what runs: bilinear on sphere2
            self.coords = self.f0.node_coords()
        else:
            if not cfg.x:
                raise ValueError(f"{cfg.strategy} strategy needs evaluation points (--x)")
            self.points = [self.manifold.point(c) for c in cfg.x]
            self.coords = np.stack([x.coords for x in self.points])
        _check_feller(self.spec, self.coords)

    def evaluate(self, n: int):
        """S(t/n)^n f at ``coords``, and the standard errors (None unless mc)."""
        cfg, spec, variant, ode = self.cfg, self.spec, self.variant, self.ode
        if cfg.strategy == "grid":
            return iterate_grid(spec, variant, cfg.t, n, self.f0, ode).values.ravel(), None
        if cfg.strategy == "tree":
            values = [iterate_tree(spec, variant, cfg.t, n, self.f, x, ode=ode) for x in self.points]
            return np.array(values), None
        ests = [
            iterate_mc(spec, variant, cfg.t, n, self.f, x, cfg.samples, cfg.seed, ode)
            for x in self.points
        ]
        return np.array([e.mean for e in ests]), np.array([e.stderr for e in ests])


def _oracle_values(run: ChernoffRun) -> np.ndarray:
    """The configured oracle at the run's coordinates, or OracleUnavailableError."""
    cfg = run.cfg
    if not cfg.oracle:
        raise OracleUnavailableError("no oracle configured (use --oracle)")
    kind, colon, arg = cfg.oracle.partition(":")
    if kind == "expr":
        return np.asarray(compile_scalar(arg, run.manifold)(run.coords), dtype=float)
    if kind == "kernel":
        kid = rf.HeatKernelId.from_string(arg)
        if not kid.covers(run.manifold):
            raise OracleUnavailableError(f"kernel {arg!r} is no oracle on {run.manifold.name}")
        return rf.exact_semigroup_batch(kid, run.f, cfg.t, run.coords)
    if kind == "fd":
        if colon and not (arg.isascii() and arg.isdigit()):
            raise ValueError(f"oracle {cfg.oracle!r} is not of the form fd[:<steps>]")
        steps = int(arg) if colon else max(100, int(math.ceil(cfg.t / 5e-3)))
        f0 = GridFunction.from_function(run.manifold, cfg.grid_nodes, run.f, interp=cfg.interp)
        sol = rf.fd_solve(run.spec, f0, cfg.t, rf.FdSolverSettings(steps=steps))
        return sol.interpolate(run.coords)
    raise OracleUnavailableError(f"unknown oracle {cfg.oracle!r}")


def _rows(schedule, one_row):
    """``one_row(n)`` for each n of the schedule in a pool of ``_threads()``
    threads: the results in schedule order, and ``(n, exception)`` for each
    row that raised a FellerError or ValueError.

    The rows start longest first, in decreasing n, equal n in schedule
    order (Graham's LPT rule): a row's work grows with n for every strategy
    (n sweeps, n steps or b^n leaves), and the longest row started last
    would run alone while the other workers idle.
    """
    schedule = [int(n) for n in schedule]
    futures = [None] * len(schedule)
    results, failures = [], []
    with ThreadPoolExecutor(max_workers=_threads()) as pool:
        for i in sorted(range(len(schedule)), key=lambda i: -schedule[i]):
            futures[i] = pool.submit(one_row, schedule[i])
        for n, fut in zip(schedule, futures):
            try:
                results.append(fut.result())
            except (FellerError, ValueError) as exc:
                failures.append((n, exc))
    return results, failures


@dataclass
class ConvergenceRow:
    n: int
    error_sup: float
    stderr: float
    wall_time: float


def run_convergence(cfg: ExperimentConfig):
    """Errors vs the configured oracle across the n-schedule, plus a slope fit.

    Returns (rows, summary dict).  The problem and the oracle values are
    built once, before any row; each row is reduced to its ``ConvergenceRow``
    in its worker, and a row that fails records its error message instead.
    """
    run = ChernoffRun(cfg)
    ref = _oracle_values(run)

    def one_row(n: int):
        t0 = time.perf_counter()
        values, stderr = run.evaluate(n)
        err = float(np.abs(values - ref).max())
        se = 0.0 if stderr is None else float(stderr.max())
        return ConvergenceRow(n, err, se, time.perf_counter() - t0)

    rows, failed = _rows(cfg.n_schedule, one_row)
    failures = [{"n": n, "error": str(exc)} for n, exc in failed]
    rows.sort(key=lambda r: r.n)
    summary = {"schema": SCHEMA, "config": cfg.resolved(), "failures": failures}
    errs = np.array([r.error_sup for r in rows])
    # a line through rows of one n is not determined: no slope
    if len({r.n for r in rows}) >= 2 and np.all(errs > 1e-10):
        slope = float(np.polyfit(np.log([r.n for r in rows]), np.log(errs), 1)[0])
        summary["slope"] = slope
    else:
        summary["slope"] = None
        summary["exact"] = bool(len(rows) and np.all(errs <= 1e-10))
    return rows, summary


def _cmd_chernoff_run(args) -> int:
    cfg = _resolve(args)
    if cfg.oracle:
        rows, summary = run_convergence(cfg)
        if summary["failures"] and not rows:  # exit as the run without --oracle would
            messages = dict.fromkeys(f["error"] for f in summary["failures"])
            print(f"error: {'; '.join(messages)}", file=sys.stderr)
            return 2
        _write_csv(
            cfg.out,
            _header_lines(cfg),
            ["n", "error_sup", "stderr", "wall_time"],
            [(r.n, f"{r.error_sup:.12g}", f"{r.stderr:.6g}", f"{r.wall_time:.4f}") for r in rows],
        )
        print(json.dumps({k: v for k, v in summary.items() if k != "config"}), file=sys.stderr)
        return 0

    run = ChernoffRun(cfg)
    # points are labelled as configured: manifold.point wraps circle angles
    labels = [
        ";".join(f"{c:.10g}" for c in point)
        for point in (run.coords if cfg.strategy == "grid" else cfg.x)
    ]

    def one_row(n: int):
        values, stderr = run.evaluate(n)
        errs = [""] * len(values) if stderr is None else [f"{s:.6g}" for s in stderr]
        return [
            (cfg.variant, cfg.strategy, cfg.t, n, label, f"{v:.12g}", e)
            for label, v, e in zip(labels, values, errs)
        ]

    rows, failed = _rows(cfg.n_schedule, one_row)
    if failed:  # the first failure in schedule order; no table
        raise failed[0][1]
    _write_csv(
        cfg.out,
        _header_lines(cfg),
        ["variant", "strategy", "t", "n", "point_or_node", "value", "stderr"],
        [line for lines in rows for line in lines],
    )
    return 0


# -- walks ---------------------------------------------------------------------------


def _cmd_walk_sample(args) -> int:
    cfg = _resolve(args)
    manifold = mf.manifold_from_string(cfg.manifold)
    spec = build_generator(manifold, cfg.generator)
    ode = _ode_settings(cfg)
    x = _start_point(manifold, cfg.x)
    n = int(cfg.n_schedule[0])
    if cfg.kind not in wk.PATH_KINDS:  # also when no path is drawn
        raise ValueError(f"unknown path kind {cfg.kind!r}")
    rows = []
    for pid in range(int(cfg.paths)):
        path = wk.sample_path(cfg.kind, spec, x, cfg.t, n, cfg.seed, pid, ode)
        for tval, pt in zip(path.times, path.points):
            rows.append((pid, f"{tval:.10g}") + tuple(f"{c:.12g}" for c in pt))
    cd = manifold.chart_dim
    _write_csv(cfg.out, _header_lines(cfg),
               ["path_id", "time"] + [f"coord{i + 1}" for i in range(cd)], rows)
    return 0


def run_walk_study(cfg: ExperimentConfig):
    """WalkStats (with optional KS and modulus-of-continuity tails) per n.

    Per n, the endpoints are drawn once for the mean, the stderr and the KS
    distance, and each geodesic path once for every (delta, eps) pair.
    """
    manifold = mf.manifold_from_string(cfg.manifold)
    spec = build_generator(manifold, cfg.generator)
    f = compile_scalar(cfg.f, manifold)
    x = _start_point(manifold, cfg.x)
    ode = _ode_settings(cfg)
    ref = _reference_cdf(cfg.reference)
    pairs = [_moc_pair(pair) for pair in cfg.moc]
    paths = int(cfg.paths)
    if pairs and paths < 1:
        raise ValueError("paths must be >= 1 to estimate a modulus-of-continuity tail")
    out = []
    for n in cfg.n_schedule:
        n = int(n)
        vals = wk.endpoint_values(spec, f, x, cfg.t, n, int(cfg.samples), cfg.seed, ode)
        stats = wk.endpoint_stats(cfg.t, n, vals)
        ks = None if ref is None else wk.ks_distance_to(ref, vals)
        moc = None
        if pairs:
            exceed = [0] * len(pairs)
            for pid in range(paths):
                path = wk.sample_path("geodesic", spec, x, cfg.t, n, cfg.seed, pid, ode)
                for j, (delta, eps) in enumerate(pairs):
                    exceed[j] += wk.modulus_of_continuity(path, delta) > eps
            moc = [(delta, eps, e / paths) for (delta, eps), e in zip(pairs, exceed)]
        out.append(replace(stats, ks_distance=ks, moc_tail=moc))
    return out


def _moc_pair(pair) -> tuple:
    """One ``delta,eps`` pair: two finite numbers with delta > 0 and eps >= 0."""
    try:
        delta, eps = (float(v) for v in str(pair).split(","))
    except ValueError:  # not two numbers
        delta = eps = math.nan
    if not (0.0 < delta < math.inf and 0.0 <= eps < math.inf):
        raise ValueError(f"--moc {pair!r} is not delta,eps with finite delta > 0 and eps >= 0")
    return delta, eps


def _start_point(manifold: mf.Manifold, x: list) -> mf.Point:
    """The first configured point, else the group identity (the north pole on sphere2)."""
    if x:
        return manifold.point(x[0])
    if manifold.identity is not None:
        return manifold.point(manifold.identity)
    return manifold.point([0.0, 0.0, 1.0])


def _reference_cdf(name: Optional[str]):
    if not name or name == "none":
        return None
    kind, _, arg = name.partition(":")
    forms = {"normal": ("normal:<mean>,<sd>", (0.0, 1.0)), "pointmass": ("pointmass:<v>", (0.0,))}
    if kind not in forms:
        raise ValueError(f"unknown reference {name!r}")
    form, default = forms[kind]
    try:
        values = tuple(float(v) for v in arg.split(",")) if arg else default
    except ValueError:
        values = ()
    if len(values) != len(default):
        raise ValueError(f"reference {name!r} is not of the form {form}")
    if kind == "normal":
        mean, sd = values
        if not (math.isfinite(mean) and 0.0 < sd < math.inf):
            raise ValueError(f"reference {name!r} needs a finite mean and a finite sd > 0")
        from scipy.special import ndtr

        return lambda s: ndtr((np.asarray(s) - mean) / sd)
    (v,) = values
    if not math.isfinite(v):
        raise ValueError(f"reference {name!r} needs a finite point")
    return lambda s: (np.asarray(s) >= v).astype(float)


def _cmd_walk_stats(args) -> int:
    cfg = _resolve(args)
    stats = run_walk_study(cfg)
    payload = {"schema": SCHEMA, "config": cfg.resolved(), "stats": [asdict(s) for s in stats]}
    _emit(cfg.out, json.dumps(payload, indent=2) + "\n")
    return 0


# -- oracle commands -------------------------------------------------------------------


def _cmd_oracle_eval(args) -> int:
    kid = rf.HeatKernelId.from_string(args.kernel)
    f = compile_scalar(args.f, kid.chart())
    val = rf.exact_semigroup(kid, f, args.t, np.array(args.x))
    print(f"{val:.12g}")
    return 0


def _cmd_oracle_fd(args) -> int:
    gen = _load_config(args.generator)
    _check_keys("generator", gen, _GENERATOR_SCHEMA)  # before its manifold is read
    manifold = mf.manifold_from_string(args.manifold or gen.get("manifold", "circle"))
    spec = build_generator(manifold, gen)
    f0 = GridFunction.from_function(manifold, args.nodes, compile_scalar(args.f0, manifold))
    _check_feller(spec, f0.node_coords())
    sol = rf.fd_solve(spec, f0, args.t, rf.FdSolverSettings(steps=args.steps))
    # the step count in --oracle's spelling: the header reproduces the table
    cfg = ExperimentConfig(manifold=manifold.name, generator=gen, t=args.t,
                           grid_nodes=args.nodes, f=args.f0, oracle=f"fd:{args.steps}")
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


def _int_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",")]


def _float_list(text: str) -> list[float]:
    return [float(v) for v in text.split(",")]


def _single_int(text: str) -> list[int]:
    return [int(text)]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="feller",
        description="Chernoff approximations of Feller semigroups on manifolds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # the flags every command that calls _resolve reads
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--manifold")
    shared.add_argument("--generator", dest="generator_file", metavar="GENERATOR",
                        help="generator description JSON file")
    shared.add_argument("--t", type=float)
    shared.add_argument("--seed", type=int)
    shared.add_argument("--out")
    shared.add_argument("--config")
    shared.add_argument("--ode-tol", type=float)
    shared.add_argument("--ode-max-steps", type=int)

    chernoff = sub.add_parser("chernoff", help="semigroup approximation runs")
    chsub = chernoff.add_subparsers(dest="subcommand", required=True)
    run = chsub.add_parser("run", parents=[shared], help="evaluate S(t/n)^n f")
    run.add_argument("--variant")
    run.add_argument("--n", dest="n_schedule", metavar="N", type=_int_list,
                     help="n or comma-separated n-schedule")
    run.add_argument("--strategy", choices=STRATEGIES)
    run.add_argument("--grid-nodes", type=_int_list)
    run.add_argument("--interp", choices=["linear", "cubic"])
    run.add_argument("--samples", type=int)
    run.add_argument("--x", action="append", type=_float_list,
                     help="evaluation point (comma coords); repeatable")
    run.add_argument("--f", help="test function expression")
    run.add_argument("--oracle", help="expr:<e> | kernel:<tag> | fd[:steps]")
    run.set_defaults(fn=_cmd_chernoff_run)

    walk = sub.add_parser("walk", help="random-walk sampling and statistics")
    wsub = walk.add_subparsers(dest="subcommand", required=True)
    ws = wsub.add_parser("sample", parents=[shared], help="sample walk trajectories to CSV")
    ws.add_argument("--kind", choices=wk.PATH_KINDS)
    ws.add_argument("--n", dest="n_schedule", metavar="N", type=_single_int)
    ws.add_argument("--paths", type=int)
    ws.set_defaults(fn=_cmd_walk_sample)
    wt = wsub.add_parser("stats", parents=[shared],
                         help="endpoint statistics across an n-schedule")
    wt.add_argument("--f")
    wt.add_argument("--n", dest="n_schedule", metavar="N", type=_int_list)
    wt.add_argument("--samples", type=int)
    wt.add_argument("--paths", type=int)
    wt.add_argument("--reference", help="normal[:mean,sd] | pointmass:<v> | none")
    wt.add_argument("--moc", action="append", help="delta,eps pair; repeatable")
    wt.set_defaults(fn=_cmd_walk_stats)

    oracle = sub.add_parser("oracle", help="reference oracles")
    osub = oracle.add_subparsers(dest="subcommand", required=True)
    oe = osub.add_parser("eval", help="closed-form heat kernel evaluation")
    oe.add_argument("--kernel", required=True)
    oe.add_argument("--f", required=True)
    oe.add_argument("--t", type=float, required=True)
    oe.add_argument("--x", type=_float_list, required=True, help="comma-separated coordinates")
    oe.set_defaults(fn=_cmd_oracle_eval)
    of = osub.add_parser("fd", help="Crank-Nicolson reference solve")
    of.add_argument("--generator", required=True)
    of.add_argument("--manifold")
    of.add_argument("--f0", required=True)
    of.add_argument("--t", type=float, required=True)
    of.add_argument("--nodes", type=_int_list, required=True)
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
