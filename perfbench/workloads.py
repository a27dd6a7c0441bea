"""The four benchmark workloads: set-up, the timed job and the output checks.

Each workload is a class.  Constructing it is the set-up (manifold,
generator, compiled expressions, initial grid); ``run()`` is the timed job
and returns its outputs; ``checks(out)`` compares those outputs with the
acceptance tolerances of ``feller.validation``; ``error(out)`` is the
deterministic strategy's error against its reference; ``work_counts()`` gives
the analytic work counts that the traced run must reproduce exactly.

Monte-Carlo seeds are derived from the benchmark seed.  The grid workloads
draw nothing at random; on ``grid-sphere`` the seed picks the spot-check
points of criterion 04.  ``tiny=True`` shrinks every size for the self-test.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os

import numpy as np

import feller
from feller import cli
from feller import fields as fd
from feller import manifolds as mf
from feller import reference as rf
from feller.chernoff import ChernoffVariant
from feller.expressions import compile_scalar
from feller.grids import GridFunction

GENERAL = ChernoffVariant.GENERAL
HEAT = ChernoffVariant.HEAT_GEODESIC


def derived_seed(seed: int, salt: int) -> int:
    """A 32-bit seed for one random stream of the workload."""
    return int(np.random.SeedSequence([seed, salt]).generate_state(1)[0])


def check(name: str, ok: bool, detail: str) -> tuple:
    return (name, bool(ok), detail)


class GridSphere:
    """Criterion 04: grid sweeps on sphere2 with three rotational fields."""

    name = "grid-sphere"

    def __init__(self, seed: int, tiny: bool = False):
        self.shape = (24, 48) if tiny else (192, 384)
        self.n = 8 if tiny else 128
        self.tol = 2e-2 if tiny else 5e-3
        s2 = mf.sphere2()
        self.spec = fd.GeneratorSpec(
            [fd.rotational_field(s2, k) for k in (1, 2, 3)], drift_policy="derived"
        )
        self.f0 = GridFunction.from_function(s2, self.shape, compile_scalar("z", s2), "linear")
        self.spot = s2.random_points(64, np.random.default_rng(derived_seed(seed, 4)))

    def run(self) -> dict:
        g = feller.iterate_grid(self.spec, GENERAL, 1.0, self.n, self.f0)
        return {
            "values": g.values.ravel(),
            "drift_norm": float(np.linalg.norm(self.spec.drift_comps(self.spot), axis=-1).max()),
            "margin": float(self.spec.ellipticity_margin(self.spot)),
        }

    def error(self, out: dict) -> float:
        exact = math.exp(-1.0) * self.f0.node_coords()[:, 2]
        return float(np.abs(out["values"] - exact).max())

    def checks(self, out: dict) -> list:
        err = self.error(out)
        return [
            check("sup|grid - e^-1 z|", err <= self.tol, f"{err:.3e} <= {self.tol:g}"),
            check("derived drift", out["drift_norm"] <= 1e-8, f"|A_0| {out['drift_norm']:.1e} <= 1e-8"),
            check("ellipticity", out["margin"] > 1e-8, f"margin {out['margin']:.3f} > 1e-8"),
        ]

    def work_counts(self) -> dict:
        nodes = self.shape[0] * self.shape[1]
        return {
            "chernoff.grid.node_sweeps": nodes * self.n,
            "kernels.gather_weighted.calls": 7 * self.n,
            "kernels.gather_weighted.entries": 7 * self.n * nodes * 4,
        }


class GridTorusCli:
    """The sweep-bound grid, run through ``feller chernoff run`` on torus2."""

    name = "grid-torus-cli"
    F = "cos(theta1)*cos(theta2)"

    def __init__(self, seed: int, tiny: bool = False):
        self.nodes = 24 if tiny else 192
        self.schedule = (8, 16, 32) if tiny else (32, 64, 128)
        self.tol = 5e-2 if tiny else 2e-3
        # relative to the working directory, which the runner makes private
        self.gen_path = "torus-generator.json"
        self.out_path = "torus-convergence.csv"
        with open(self.gen_path, "w") as fh:
            json.dump({"fields": ["frame:1", "frame:2"], "drift": "zero"}, fh)
        self.argv = [
            "chernoff", "run", "--manifold", "torus2", "--generator", self.gen_path,
            "--variant", "heat-geodesic", "--strategy", "grid",
            "--grid-nodes", f"{self.nodes},{self.nodes}", "--interp", "cubic",
            "--t", "1", "--n", ",".join(str(n) for n in self.schedule),
            "--f", self.F, "--oracle", f"expr:exp(-1)*{self.F}", "--out", self.out_path,
        ]

    def run(self) -> dict:
        with contextlib.suppress(FileNotFoundError):  # never read a previous job's table
            os.remove(self.out_path)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(self.argv)
        with open(self.out_path) as fh:
            rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
        lines = err.getvalue().strip().splitlines()
        summary = json.loads(lines[-1]) if code == 0 and lines else {}
        return {
            "exit": code,
            "summary": summary,
            "n": [int(r["n"]) for r in rows],
            "error_sup": [float(r["error_sup"]) for r in rows],
            "stderr": [float(r["stderr"]) for r in rows],
        }

    def error(self, out: dict) -> float:
        return out["error_sup"][-1]

    def checks(self, out: dict) -> list:
        slope = out["summary"].get("slope")
        err = self.error(out) if out["n"] == list(self.schedule) else math.inf
        return [
            check("exit code", out["exit"] == 0, f"exit {out['exit']}"),
            check("no failed rows", not out["summary"].get("failures", [True]),
                  str(out["summary"].get("failures"))),
            check("slope", slope is not None and -1.2 <= slope <= -0.8, f"slope {slope}"),
            check(f"error at n={self.schedule[-1]}", err <= self.tol, f"{err:.3e} <= {self.tol:g}"),
        ]

    def work_counts(self) -> dict:
        nodes = self.nodes * self.nodes
        sweeps = sum(self.schedule)
        return {
            "chernoff.grid.node_sweeps": nodes * sweeps,
            "kernels.gather_weighted.calls": 4 * sweeps,
            "kernels.gather_weighted.entries": 4 * sweeps * nodes * 16,
        }


class McH2:
    """Criterion 05 at one point: oracle, 4^11-leaf tree and 5e5-sample MC."""

    name = "mc-h2"
    T = 0.5

    def __init__(self, seed: int, tiny: bool = False):
        self.tree_n = 4 if tiny else 11
        self.mc_n = 8 if tiny else 32
        self.samples = 2000 if tiny else 500_000
        self.mc_seed = derived_seed(seed, 5)
        h2 = mf.hyperbolic_h2()
        self.h2 = h2
        self.spec = fd.GeneratorSpec(
            [fd.frame_field(h2, 1), fd.frame_field(h2, 2)], drift_policy="explicit"
        )
        self.kernel = rf.HeatKernelId.from_string("hyperbolic-h2")
        self.x = h2.point([0.5, 1.0])
        self.center = np.array([0.0, 1.0])

    def f(self, c):
        c = np.atleast_2d(c)
        d = self.h2.distance_batch(np.broadcast_to(self.center, c.shape).copy(), c)
        return np.exp(-0.5 * d**2)

    def run(self) -> dict:
        oracle = rf.exact_semigroup(self.kernel, self.f, self.T, self.x)
        tree = feller.iterate_tree(self.spec, HEAT, self.T, self.tree_n, self.f, self.x)
        mc = feller.iterate_mc(self.spec, HEAT, self.T, self.mc_n, self.f, self.x,
                               samples=self.samples, seed=self.mc_seed)
        return {"oracle": oracle, "tree": tree,
                "mc": mc.mean, "mc_stderr": mc.stderr}

    def error(self, out: dict) -> float:
        return abs(out["tree"] - out["oracle"])

    def checks(self, out: dict) -> list:
        tree_err = self.error(out)
        mc_err = abs(out["mc"] - out["oracle"])
        mc_tol = max(1e-2, 4.0 * out["mc_stderr"])
        return [
            check("|tree - oracle|", tree_err <= 1e-2, f"{tree_err:.3e} <= 1e-2"),
            check("|mc - oracle|", mc_err <= mc_tol, f"{mc_err:.3e} <= {mc_tol:.3e}"),
        ]

    def work_counts(self) -> dict:
        return {
            "chernoff.tree.leaves": 4**self.tree_n,
            "chernoff.mc.sample_steps": self.samples * self.mc_n,
        }


class WalkRk4:
    """Small-batch RK4 on the circle: MC, jump-walk endpoints and one flow path."""

    name = "walk-rk4"
    T = 1.0

    def __init__(self, seed: int, tiny: bool = False):
        self.n = 8 if tiny else 32
        self.samples = 1000 if tiny else 10_000
        self.nodes = 128 if tiny else 512
        self.fd_steps = 100 if tiny else 400
        self.grid_tol = 2e-2 if tiny else 5e-3
        self.mc_seed = derived_seed(seed, 8)
        self.walk_seed = derived_seed(seed, 9)
        self.path_seed = derived_seed(seed, 10)
        circ = mf.circle()
        self.spec = fd.GeneratorSpec(
            [fd.field_from_string(circ, "custom:1+0.3*sin(theta)")], drift_policy="derived"
        )
        self.f = compile_scalar("cos(theta)", circ)
        self.x = circ.point([0.7])
        self.f0 = GridFunction.from_function(circ, self.nodes, self.f, interp="cubic")

    def run(self) -> dict:
        mc = feller.iterate_mc(self.spec, GENERAL, self.T, self.n, self.f, self.x,
                               samples=self.samples, seed=self.mc_seed)
        walk = feller.estimate_expectation(self.spec, self.f, self.x, self.T, self.n,
                                           self.samples, seed=self.walk_seed)
        flow = feller.sample_flow_interp(self.spec, self.x, self.T, self.n, seed=self.path_seed)
        jump = feller.sample_jump_path(self.spec, self.x, self.T, self.n, seed=self.path_seed)
        grid = feller.iterate_grid(self.spec, GENERAL, self.T, self.n, self.f0)
        fdsol = feller.fd_solve(self.spec, self.f0, self.T, feller.FdSolverSettings(steps=self.fd_steps))
        return {
            "mc": mc.mean, "mc_stderr": mc.stderr,
            "walk": walk.mean_f, "walk_stderr": walk.stderr_f,
            "flow_times": flow.times, "flow_points": flow.points,
            "jump_points": jump.points, "skeleton": np.array([flow.at(m / self.n) for m in range(self.n + 1)]),
            "grid": grid.values, "grid_x": float(grid.interpolate(self.x.coords[None, :])[0]),
            "fd": fdsol.values,
        }

    def error(self, out: dict) -> float:
        return float(np.abs(out["grid"] - out["fd"]).max())

    def checks(self, out: dict) -> list:
        g = out["grid_x"]
        z_mc = abs(out["mc"] - g) / out["mc_stderr"]
        z_walk = abs(out["walk"] - g) / out["walk_stderr"]
        same = np.array_equal(out["skeleton"], out["jump_points"])
        err = self.error(out)
        return [
            check("|mc - grid(x)| / stderr", z_mc <= 4.0, f"z {z_mc:.2f} <= 4"),
            check("|walk - grid(x)| / stderr", z_walk <= 4.0, f"z {z_walk:.2f} <= 4"),
            check("jump and flow skeletons", same, "bit-exact" if same else "differ"),
            check("sup|grid - fd|", err <= self.grid_tol, f"{err:.3e} <= {self.grid_tol:g}"),
        ]

    def work_counts(self) -> dict:
        return {
            "chernoff.mc.sample_steps": self.samples * self.n,
            "walks.sample_steps": self.samples * self.n,
            "chernoff.grid.node_sweeps": self.nodes * self.n,
            "walks.path_points": 8 * self.n + 1,
        }


WORKLOADS = {w.name: w for w in (GridSphere, GridTorusCli, McH2, WalkRk4)}
