import json
import math

import numpy as np
import pytest

import feller as fl
from feller import chernoff as ch
from feller.cli import ExperimentConfig, build_generator, main, run_convergence, run_walk_study


@pytest.fixture
def heat_gen(tmp_path):
    p = tmp_path / "gen.json"
    p.write_text(json.dumps({"fields": ["frame:1"], "drift": "zero"}))
    return str(p)


@pytest.fixture
def quad_gen(tmp_path):
    p = tmp_path / "quad.json"
    p.write_text(json.dumps({"fields": ["constant:[1]"], "drift": "zero"}))
    return str(p)


def test_oracle_eval(capsys):
    rc = main([
        "oracle", "eval", "--kernel", "wrapped-gauss-s1",
        "--f", "cos(theta)", "--t", "1.0", "--x", "0.0",
    ])
    assert rc == 0
    out = float(capsys.readouterr().out.strip())
    assert out == pytest.approx(math.exp(-0.5), abs=1e-10)


def test_oracle_fd_matches_library(tmp_path, heat_gen):
    out = tmp_path / "grid.csv"
    rc = main([
        "oracle", "fd", "--generator", heat_gen, "--manifold", "circle",
        "--f0", "cos(theta)", "--t", "0.5", "--nodes", "128", "--steps", "100",
        "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# schema=1"
    assert lines[2] == "node,value"
    first = lines[3].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == pytest.approx(math.exp(-0.25), abs=1e-4)


def test_chernoff_run_tree_quadratic(tmp_path, quad_gen):
    out = tmp_path / "res.csv"
    rc = main([
        "chernoff", "run", "--manifold", "euclidean:1", "--generator", quad_gen,
        "--variant", "general", "--t", "0.7", "--n", "4", "--strategy", "tree",
        "--x", "0.4", "--f", "x1^2", "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text().splitlines()
    header = lines[2].split(",")
    assert header == ["variant", "strategy", "t", "n", "point_or_node", "value", "stderr"]
    row = lines[3].split(",")
    assert float(row[5]) == pytest.approx(0.4**2 + 0.7, abs=1e-10)


def test_chernoff_run_convergence(tmp_path, heat_gen, capsys):
    out = tmp_path / "conv.csv"
    rc = main([
        "chernoff", "run", "--manifold", "circle", "--generator", heat_gen,
        "--variant", "heat-geodesic", "--t", "1.0", "--n", "8,16,32,64",
        "--strategy", "grid", "--grid-nodes", "256", "--f", "cos(theta)",
        "--oracle", f"expr:{math.exp(-0.5)}*cos(theta)", "--out", str(out),
    ])
    assert rc == 0
    summary = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert -1.2 <= summary["slope"] <= -0.8
    rows = [l.split(",") for l in out.read_text().splitlines()[3:]]
    errs = [float(r[1]) for r in rows]
    assert errs == sorted(errs, reverse=True)


def test_run_convergence_exact_flag(quad_gen):
    cfg = ExperimentConfig(
        manifold="euclidean:1",
        generator={"fields": ["constant:[1]"], "drift": "zero"},
        strategy="tree",
        t=0.5,
        n_schedule=[1, 2, 4],
        f="x1^2",
        x=[[0.0]],
        oracle="expr:x1^2+0.5",
    )
    rows, summary = run_convergence(cfg)
    assert summary["slope"] is None and summary["exact"]
    assert all(r.error_sup <= 1e-10 for r in rows)
    assert all(r.wall_time >= 0.0 for r in rows)


def test_run_convergence_mc_records_stderr():
    cfg = ExperimentConfig(
        manifold="euclidean:1",
        generator={"fields": ["constant:[1]"], "drift": "zero"},
        strategy="mc",
        t=1.0,
        n_schedule=[4],
        samples=20000,
        seed=5,
        f="x1^2",
        x=[[0.0]],
        oracle="expr:x1^2+1",
    )
    rows, _ = run_convergence(cfg)
    assert rows[0].stderr > 0.0
    assert rows[0].error_sup <= 5 * rows[0].stderr


def test_run_convergence_records_failures():
    cfg = ExperimentConfig(
        manifold="circle",
        generator={"fields": ["frame:1"], "drift": "zero"},
        strategy="tree",
        t=1.0,
        n_schedule=[2, 50],  # 50 blows the tree budget -> recorded, not fatal
        f="cos(theta)",
        x=[[0.0]],
        oracle="expr:cos(theta)",
    )
    rows, summary = run_convergence(cfg)
    assert len(rows) == 1 and rows[0].n == 2
    assert summary["failures"] and summary["failures"][0]["n"] == 50


def test_walk_sample_reproducible(tmp_path, heat_gen):
    args = [
        "walk", "sample", "--kind", "geodesic", "--manifold", "circle",
        "--generator", heat_gen, "--t", "1.0", "--n", "8", "--paths", "3",
        "--seed", "11",
    ]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_text() == out2.read_text()
    lines = out1.read_text().splitlines()
    assert lines[2] == "path_id,time,coord1"
    assert lines[3].startswith("0,0,")


def test_walk_stats_json(tmp_path, quad_gen, capsys):
    rc = main([
        "walk", "stats", "--manifold", "euclidean:1", "--generator", quad_gen,
        "--f", "x1", "--t", "1.0", "--n", "16,64", "--samples", "20000",
        "--seed", "4", "--reference", "normal:0,1",
    ])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    stats = payload["stats"]
    assert [s["n"] for s in stats] == [16, 64]
    assert stats[1]["ks_distance"] < stats[0]["ks_distance"]
    assert all(abs(s["mean_f"]) < 4 * s["stderr_f"] + 0.05 for s in stats)


def test_walk_stats_degenerate_pointmass():
    cfg = ExperimentConfig(
        manifold="euclidean:1",
        generator={"fields": ["zero"], "drift": "zero"},
        t=1.0,
        n_schedule=[8],
        samples=500,
        f="x1",
        reference="pointmass:0",
    )
    stats = run_walk_study(cfg)
    assert stats[0].ks_distance == 0.0


def test_walk_stats_moc_tail():
    cfg = ExperimentConfig(
        manifold="circle",
        generator={"fields": ["frame:1"], "drift": "zero"},
        t=1.0,
        n_schedule=[16],
        samples=200,
        paths=50,
        f="cos(theta)",
        moc=["0.05,0.5"],
    )
    stats = run_walk_study(cfg)
    (delta, eps, prob) = stats[0].moc_tail[0]
    assert (delta, eps) == (0.05, 0.5)
    assert 0.0 <= prob <= 1.0


def test_config_file_with_flag_override(tmp_path, heat_gen, capsys):
    cfg = {
        "manifold": "circle",
        "generator": {"fields": ["frame:1"], "drift": "zero"},
        "variant": "heat-geodesic",
        "strategy": "tree",
        "t": 1.0,
        "n_schedule": [4],
        "f": "cos(theta)",
        "x": [[0.9]],
    }
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    rc = main(["chernoff", "run", "--config", str(p), "--t", "0.25"])  # t overridden
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    val = float(out[-1].split(",")[5])
    want = math.cos(0.9) * math.cos(math.sqrt(0.25 / 4)) ** 4
    assert val == pytest.approx(want, abs=1e-12)


def test_generator_description_variants():
    circ = fl.circle()
    spec = build_generator(circ, {"fields": ["frame:1"], "drift": "derived"})
    assert spec.drift_policy == "derived"
    spec2 = build_generator(
        circ,
        {"fields": ["frame:1"], "drift": {"policy": "derived+", "field": "constant:[0.5]"},
         "potential": "-1"},
    )
    assert spec2.drift_policy == "derived_plus"
    assert spec2.potential is not None
    spec3 = build_generator(circ, {"fields": ["frame:1"], "drift": "constant:[2]"})
    assert spec3.drift_policy == "explicit"
    assert spec3.drift.comps(np.zeros((1, 1)))[0, 0] == 2.0


def test_usage_error_exit_code():
    assert main([
        "oracle", "eval", "--kernel", "nope", "--f", "1", "--t", "1", "--x", "0",
    ]) == 2


@pytest.mark.parametrize("argv", [
    ["chernoff", "run", "--manifold", "circle", "--strategy", "mc", "--n", "0",
     "--x", "0.3", "--samples", "10"],
    ["walk", "stats", "--manifold", "circle", "--n", "0", "--samples", "10"],
])
def test_zero_steps_is_a_usage_error(argv, capsys):
    assert main(argv) == 2
    assert "error: n must be >= 1" in capsys.readouterr().err


def test_validate_filter_subset(capsys):
    rc = main(["validate", "--filter", "01-quadratic"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "01-quadratic-exactness" in out and "PASS" in out


def test_validate_json_verdict(tmp_path, capsys):
    out = tmp_path / "verdict.json"
    rc = main(["validate", "--filter", "12-", "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    verdict = json.loads(out.read_text())
    assert verdict["ok"] is True
    assert verdict["criteria"][0]["id"].startswith("12")


def test_fault_injection_breaks_contraction(monkeypatch):
    # tampering the branch table (weight 1/4 -> 0.3) must break normalization
    # and the contraction criterion
    from dataclasses import replace
    from fractions import Fraction

    from feller import validation

    original = ch.branch_moves

    def tampered(spec, variant, ode=ch.DEFAULT_ODE):
        return [
            replace(br, weight=0.3) if br.weight == Fraction(1, 4) else br
            for br in original(spec, variant, ode)
        ]

    monkeypatch.setattr(ch, "branch_moves", tampered)
    ok, detail = validation._c07()
    assert not ok

    f = lambda c: np.ones(c.shape[0])
    circ = fl.circle()
    spec = fl.GeneratorSpec([fl.frame_field(circ, 1)], drift_policy="explicit")
    val = ch.apply_S(spec, ch.ChernoffVariant.GENERAL, 0.1, f, circ.point([0.0]))
    assert val != 1.0  # normalization broken
