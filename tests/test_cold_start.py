"""``import feller`` and the CLI load no scipy module; the oracles that use
scipy import it when called and still return the same numbers."""

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
circ = fl.circle()
spec = fl.GeneratorSpec([fl.field_from_string(circ, "custom:1+0.5*sin(theta)")], "derived",
                        potential="-1-sin(theta)^2")
f0 = fl.GridFunction.from_function(circ, [64], lambda c: np.cos(c[:, 0]))
u = fl.fd_solve(spec, f0, 0.5, fl.FdSolverSettings(steps=50)).values
out["fd_sha256"] = hashlib.sha256(u.tobytes()).hexdigest()
h2 = fl.hyperbolic_h2()
f = lambda c: 1.0 / (1.0 + c[:, 0] ** 2 + (c[:, 1] - 1.0) ** 2)
v = fl.exact_semigroup(fl.HeatKernelId("hyperbolic-h2"), f, 0.5, h2.point([0.2, 1.3]))
out["h2_hex"] = v.hex()
print(json.dumps(out))
"""


def test_import_and_cli_run_load_no_scipy(tmp_path):
    gen = tmp_path / "gen.json"
    gen.write_text(json.dumps({"fields": ["frame:1", "frame:2"], "drift": "zero"}))
    src = str(Path(fl.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(gen), str(tmp_path / "rows.csv")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["after_import"] == []
    assert out["cli_exit"] == 0
    assert out["after_cli_run"] == []
    # two comment lines, the column names and one row per n
    assert len((tmp_path / "rows.csv").read_text().splitlines()) == 5
    # the values the oracles gave when scipy was imported with the module
    assert out["fd_sha256"] == "0b64a49bddbedff4304dfb9b90eb8ebe43b7ce9bd9d6306927d68b8e6a9129f2"
    assert out["h2_hex"] == "0x1.18a1604d13cdep-1"
