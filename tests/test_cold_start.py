"""``import feller``, the CLI and the H2 kernel oracle load no scipy module;
``fd_solve`` imports scipy when called and still returns the same numbers."""

import json
import os
import subprocess
import sys
from pathlib import Path

import feller as fl

PROBE = r"""
import hashlib, json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import feller, feller.cli
out = {"after_import": scipy_modules()}
out["cli_exit"] = feller.cli.main([
    "chernoff", "run", "--manifold", "torus2", "--generator", sys.argv[1],
    "--strategy", "grid", "--grid-nodes", "16,16", "--t", "0.2", "--n", "2,4",
    "--f", "cos(theta1)", "--oracle", "expr:exp(-0.1)*cos(theta1)", "--out", sys.argv[2],
])
out["after_cli_run"] = scipy_modules()

import numpy as np
import feller as fl
h2 = fl.hyperbolic_h2()
f = lambda c: 1.0 / (1.0 + c[:, 0] ** 2 + (c[:, 1] - 1.0) ** 2)
v = fl.exact_semigroup(fl.HeatKernelId("hyperbolic-h2"), f, 0.5, h2.point([0.2, 1.3]))
out["h2_hex"] = v.hex()
out["after_h2_oracle"] = scipy_modules()
circ = fl.circle()
spec = fl.GeneratorSpec([fl.field_from_string(circ, "custom:1+0.5*sin(theta)")], "derived",
                        potential="-1-sin(theta)^2")
f0 = fl.GridFunction.from_function(circ, [64], lambda c: np.cos(c[:, 0]))
u = fl.fd_solve(spec, f0, 0.5, fl.FdSolverSettings(steps=50)).values
out["fd_sha256"] = hashlib.sha256(u.tobytes()).hexdigest()
print(json.dumps(out))
"""


VALIDATE_PROBE = r"""
import json, sys
import feller.cli
code = feller.cli.main(["validate", "--filter", "01"])
print(json.dumps({"exit": code,
                  "scipy": sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))}))
"""


def run_probe(probe: str, *args: str) -> dict:
    """Run ``probe`` in a fresh interpreter on this checkout's package; its last
    stdout line is JSON."""
    src = str(Path(fl.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", probe, *args],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_and_cli_run_load_no_scipy(tmp_path):
    gen = tmp_path / "gen.json"
    gen.write_text(json.dumps({"fields": ["frame:1", "frame:2"], "drift": "zero"}))
    out = run_probe(PROBE, str(gen), str(tmp_path / "rows.csv"))
    assert out["after_import"] == []
    assert out["cli_exit"] == 0
    assert out["after_cli_run"] == []
    # two comment lines, the column names and one row per n
    assert len((tmp_path / "rows.csv").read_text().splitlines()) == 5
    # the H2 oracle is numpy alone
    assert out["after_h2_oracle"] == []
    # the value fd_solve gave when scipy was imported with the module
    assert out["fd_sha256"] == "0b64a49bddbedff4304dfb9b90eb8ebe43b7ce9bd9d6306927d68b8e6a9129f2"
    # the H2 oracle's bits under its Gauss-Legendre rule in w, s = rho cosh w; they
    # are within rounding of the 0x1.18a1604d13cdep-1 that scipy.integrate.quad gave
    assert out["h2_hex"] == "0x1.18a1604d13cc6p-1"
    v = float.fromhex(out["h2_hex"])
    assert abs(v - float.fromhex("0x1.18a1604d13cdep-1")) <= 1e-13 * v


def test_a_criterion_without_scipy_loads_none():
    # criterion 01 is the tree on a quadratic; only 03 (fd_solve) loads
    # scipy.sparse and only 09a/09b (the normal CDF) load scipy.special
    out = run_probe(VALIDATE_PROBE)
    assert out["exit"] == 0
    assert out["scipy"] == []
