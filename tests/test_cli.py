import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import feller as fl
from feller import chernoff as ch
from feller import cli
from feller.cli import ExperimentConfig, build_generator, main, run_convergence, run_walk_study
from feller.expressions import compile_scalar


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
    # the header records the step count in --oracle's spelling, and no other key
    header = json.loads(lines[1][len("# config="):])
    assert header["oracle"] == "fd:100"
    assert header.keys() == ExperimentConfig().resolved().keys() - {"out"}
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


@pytest.mark.parametrize("schedule, has_slope", [("4,4", False), ("4,4,8", True)])
def test_a_slope_needs_two_distinct_n(tmp_path, heat_gen, capsys, recwarn, schedule, has_slope):
    rc = main([
        "chernoff", "run", "--manifold", "circle", "--generator", heat_gen,
        "--variant", "heat-geodesic", "--t", "1.0", "--n", schedule,
        "--strategy", "grid", "--grid-nodes", "64", "--f", "cos(theta)",
        "--oracle", f"expr:{math.exp(-0.5)}*cos(theta)", "--out", str(tmp_path / "c.csv"),
    ])
    assert rc == 0
    summary = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert (summary["slope"] is not None) == has_slope
    assert summary.get("exact") is (None if has_slope else False)
    assert not [w for w in recwarn if issubclass(w.category, np.exceptions.RankWarning)]


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


def test_potential_step_above_one_is_a_failed_row():
    cfg = ExperimentConfig(
        manifold="circle",
        generator={"fields": ["frame:1"], "drift": "zero", "potential": "-3-2*sin(theta)^2"},
        strategy="tree",
        t=1.0,
        n_schedule=[2, 4, 8],
        f="cos(theta)+2",
        x=[[0.3]],
        oracle="expr:0",
    )
    rows, summary = run_convergence(cfg)
    assert [r.n for r in rows] == [8]
    assert [f["n"] for f in summary["failures"]] == [2, 4]
    assert all("dt*|c| reaches" in f["error"] for f in summary["failures"])


@pytest.mark.parametrize("n, code", [("2,8", 0), ("2,4", 2)])
def test_exit_2_only_when_every_row_fails(tmp_path, capsys, n, code):
    gen = _write_json(tmp_path / "gen.json", {"fields": ["frame:1"], "drift": "zero",
                                              "potential": "-3-2*sin(theta)^2"})
    out = tmp_path / "conv.csv"
    rc = main(["chernoff", "run", "--manifold", "circle", "--generator", gen,
               "--strategy", "tree", "--t", "1", "--n", n, "--f", "cos(theta)+2",
               "--x", "0.3", "--oracle", "expr:0", "--out", str(out)])
    assert rc == code
    err = capsys.readouterr().err.strip().splitlines()[-1]
    if code == 0:  # n = 2 fails, n = 8 is a row
        assert [f["n"] for f in json.loads(err)["failures"]] == [2]
        assert out.read_text().splitlines()[-1].startswith("8,")
    else:
        assert err.startswith("error: ") and "dt*|c| reaches" in err
        assert not out.exists()


@pytest.mark.parametrize("strategy", ["tree", "mc"])
def test_pooled_rows_without_oracle_write_the_serial_table(tmp_path, monkeypatch, strategy):
    # every row of a run without --oracle runs in the pool: its table is the
    # one a single worker writes, byte for byte
    gen = _write_json(tmp_path / "gen.json", {"fields": ["custom:1+0.3*sin(theta)"],
                                              "drift": "derived"})
    tables = []
    for threads in (4, 1):
        monkeypatch.setattr(cli, "_threads", lambda: threads)
        out = tmp_path / f"table-{threads}.csv"
        assert main(["chernoff", "run", "--manifold", "circle", "--generator", gen,
                     "--strategy", strategy, "--t", "0.5", "--n", "2,4,8", "--f", "cos(theta)",
                     "--x", "0.3", "--x", "2.1", "--samples", "3000", "--seed", "5",
                     "--out", str(out)]) == 0
        tables.append(out.read_bytes())
    assert tables[0] == tables[1]
    assert len(tables[0].decode().splitlines()) == 3 + 3 * 2  # header, columns, 3 n x 2 points


def test_rows_start_longest_first_and_come_back_in_schedule_order(monkeypatch):
    # the pool starts rows in decreasing n, equal n in schedule order; results
    # and failures come back in schedule order whatever order the rows ran in
    monkeypatch.setattr(cli, "_threads", lambda: 1)
    started = []

    def one_row(n):
        call = len(started)
        started.append(n)
        if n == 64:
            raise ValueError(f"row {n}, call {call}")
        return n, call

    rows, failed = cli._rows([32, 128, 64, 32, 64, 8], one_row)
    assert started == [128, 64, 64, 32, 32, 8]
    assert rows == [(32, 3), (128, 0), (32, 4), (8, 5)]
    assert [(n, str(exc)) for n, exc in failed] == [(64, "row 64, call 1"), (64, "row 64, call 2")]


def test_longest_first_rows_write_the_schedule_order_table(tmp_path, monkeypatch, heat_gen):
    # one worker runs the rows of 32,128,64,32 as 128, 64, 32, 32, and the
    # table is still the schedule-order concatenation of one-row tables
    from feller.cli import ChernoffRun

    started, evaluate = [], ChernoffRun.evaluate
    monkeypatch.setattr(ChernoffRun, "evaluate",
                        lambda run, n: started.append(n) or evaluate(run, n))
    monkeypatch.setattr(cli, "_threads", lambda: 1)

    def data_lines(n):
        out = tmp_path / f"table-{n}.csv"
        assert main(["chernoff", "run", "--manifold", "circle", "--generator", heat_gen,
                     "--strategy", "grid", "--grid-nodes", "16", "--t", "0.5", "--n", n,
                     "--f", "cos(theta)", "--out", str(out)]) == 0
        return [line for line in out.read_bytes().splitlines() if not line.startswith(b"#")][1:]

    table = data_lines("32,128,64,32")
    assert started == [128, 64, 32, 32]
    assert table == [line for n in ("32", "128", "64", "32") for line in data_lines(n)]


def test_failed_row_without_oracle_exits_2_before_the_table(tmp_path, capsys):
    # 3^15 and 3^16 leaves exceed the tree budget: the first failure in
    # schedule order is reported, and no table is written
    out = tmp_path / "table.csv"
    rc = main(["chernoff", "run", "--manifold", "circle", "--strategy", "tree", "--t", "1",
               "--n", "2,15,16,4", "--f", "cos(theta)", "--x", "0.3", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: 3^15 leaf evaluations exceed the budget") and "3^16" not in err
    assert not out.exists()


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


@pytest.mark.parametrize("command, flags", [
    ("sample", ["--paths", "2"]),
    ("stats", ["--samples", "10", "--f", "cos(theta)"]),
])
def test_walk_with_a_potential_exits_2(tmp_path, capsys, command, flags):
    gen = _write_json(tmp_path / "gen.json", {"fields": ["frame:1"], "drift": "zero",
                                              "potential": "-1-sin(theta)^2"})
    out = tmp_path / "walk.out"
    rc = main(["walk", command, "--manifold", "circle", "--generator", gen, "--t", "1",
               "--n", "8", "--seed", "3", "--out", str(out)] + flags)
    assert rc == 2
    assert "error: walks realise the diffusion of L_0 and require c = 0" in capsys.readouterr().err


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


def test_unknown_path_kind_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "jmp"}))
    for paths in ("1", "0"):
        assert main(["walk", "sample", "--config", str(bad), "--n", "4", "--paths", paths]) == 2
        assert "error: unknown path kind 'jmp'" in capsys.readouterr().err


def test_walk_stats_moc_without_paths_is_a_usage_error(capsys):
    argv = ["walk", "stats", "--manifold", "circle", "--n", "4", "--samples", "10",
            "--paths", "0", "--moc", "0.1,0.5"]
    assert main(argv) == 2
    assert "error: paths must be >= 1" in capsys.readouterr().err


def test_walk_study_draws_each_sample_once(monkeypatch):
    from feller import walks

    calls = {"walk_endpoints": 0, "sample_path": 0}

    def counted(name):
        original = getattr(walks, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return call

    for name in calls:
        monkeypatch.setattr(walks, name, counted(name))
    cfg = ExperimentConfig(
        manifold="circle",
        generator={"fields": ["frame:1"], "drift": "zero"},
        t=1.0,
        n_schedule=[4, 8],
        samples=100,
        paths=5,
        f="cos(theta)",
        reference="normal",
        moc=["0.05,0.5", "0.2,0.3"],
    )
    stats = run_walk_study(cfg)
    assert calls == {"walk_endpoints": 2, "sample_path": 2 * 5}
    assert all(s.ks_distance is not None and len(s.moc_tail) == 2 for s in stats)


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
        {"fields": ["frame:1"], "drift": {"policy": "derived", "field": "constant:[0.5]"},
         "potential": "-1"},
    )
    assert spec2.drift_policy == "derived"
    assert spec2.drift.comps(np.zeros((1, 1)))[0, 0] == 0.5
    assert spec2.potential is not None
    spec3 = build_generator(circ, {"fields": ["frame:1"], "drift": "constant:[2]"})
    assert spec3.drift_policy == "explicit"
    assert spec3.drift.comps(np.zeros((1, 1)))[0, 0] == 2.0


@pytest.mark.parametrize("fields", [["frame:1"], ["custom:1+0.3*sin(theta)"]])
def test_derived_drift_with_a_field_adds_the_field(fields):
    circ, x = fl.circle(), np.array([[0.3]])
    field = "constant:[0.5]"
    derived, bare = (
        build_generator(circ, {"fields": fields, "drift": drift})
        for drift in ({"policy": "derived", "field": field}, "derived")
    )
    np.testing.assert_allclose(derived.drift_comps(x), bare.drift_comps(x) + 0.5, rtol=1e-15)
    assert derived.drift_comps(x)[0, 0] != 0.0


def test_oracle_eval_takes_each_kernel_chart(capsys):
    for kernel, f, x in [("gauss-rd:2", "x1*x2", "0.3,-1"), ("torus-product", "1", "0,1"),
                         ("sphere-harmonics", "z", "0,0,1")]:
        assert main(["oracle", "eval", "--kernel", kernel, "--f", f, "--t", "0.5", "--x", x]) == 0
    assert [float(v) for v in capsys.readouterr().out.split()] == pytest.approx(
        [-0.3, 1.0, math.exp(-0.5)], abs=1e-10)
    assert main(["oracle", "eval", "--kernel", "torus-product", "--f", "1", "--t", "0.5",
                 "--x", "0"]) == 2


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


def test_validate_filter_matching_nothing_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "verdict.json"
    assert main(["validate", "--filter", "no-such-criterion", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "error: --filter 'no-such-criterion' matches no criterion id" in captured.err
    assert "criteria green" not in captured.out and not out.exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--ode-tol", "nan", "tol must be > 0"),
])
def test_bad_ode_settings_exit_before_any_row(tmp_path, capsys, flag, value, message):
    out = tmp_path / "conv.csv"
    rc = main([
        "chernoff", "run", "--manifold", "euclidean:1", "--variant", "general",
        "--t", "1", "--n", "4", "--strategy", "tree", "--x", "0.0", "--f", "x1^2",
        "--out", str(out), flag, value,
    ])
    assert rc == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("tol", ["inf", "1e400"])
@pytest.mark.parametrize("command", [
    ["chernoff", "run", "--strategy", "tree", "--x", "0.3", "--f", "sin(theta)"],
    ["walk", "sample"],
    ["walk", "stats", "--f", "sin(theta)"],
])
def test_non_finite_ode_tol_exits_2(tmp_path, capsys, command, tol):
    # an infinite tol kept every row's first 8-step pass and exited 0
    gen = _write_json(tmp_path / "gen.json", {"fields": ["custom:1+0.3*sin(theta)"],
                                              "drift": "derived"})
    out = tmp_path / "out.csv"
    argv = command + ["--manifold", "circle", "--generator", gen, "--n", "2",
                      "--ode-tol", tol, "--out", str(out)]
    assert main(argv) == 2
    assert "error: tol must be > 0 and finite, got inf" in capsys.readouterr().err
    assert not out.exists()


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


def _write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def test_unknown_config_key_refused(tmp_path, capsys):
    cfg = _write_json(tmp_path / "cfg.json", {"sampels": 5, "strategy": "mc", "x": [[0.0]]})
    assert main(["chernoff", "run", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert "error: unknown config keys ['sampels']" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("oracle", [[], ["--oracle", "expr:cos(theta)"]])
def test_unknown_strategy_is_a_usage_error(tmp_path, capsys, oracle):
    cfg = _write_json(tmp_path / "cfg.json", {"strategy": "grdi", "x": [[0.0]], "samples": 10})
    assert main(["chernoff", "run", "--config", cfg, "--n", "2,4"] + oracle) == 2
    captured = capsys.readouterr()
    assert "error: unknown strategy 'grdi'" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("changes, message", [
    ({"strategy": "grdi"}, "unknown strategy 'grdi'"),
    ({"strategy": "mc", "x": []}, "mc strategy needs evaluation points"),
])
def test_run_convergence_refuses_bad_config_before_rows(changes, message):
    cfg = ExperimentConfig(**{"strategy": "tree", "n_schedule": [2, 4], "x": [[0.0]],
                              "oracle": "expr:cos(theta)", **changes})
    with pytest.raises(ValueError, match=message):
        run_convergence(cfg)


@pytest.mark.parametrize("argv", [
    ["chernoff", "run", "--manifold", "circle", "--variant", "heat-geodesic",
     "--strategy", "tree", "--n", "2,4", "--x", "0.3", "--x", "2.0", "--t", "0.5"],
    ["chernoff", "run", "--manifold", "circle", "--strategy", "grid", "--n", "2,3",
     "--grid-nodes", "32", "--interp", "linear", "--f", "sin(theta)", "--ode-tol", "1e-8"],
    ["chernoff", "run", "--manifold", "circle", "--strategy", "mc", "--n", "4",
     "--x", "0.3", "--samples", "500", "--seed", "7"],
    ["walk", "sample", "--kind", "jump", "--manifold", "circle", "--n", "4",
     "--paths", "2", "--seed", "3"],
])
def test_output_reproduces_from_its_own_header(tmp_path, heat_gen, argv):
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    assert main(argv + ["--generator", heat_gen, "--out", str(first)]) == 0
    header = first.read_text().splitlines()[1]
    assert header.startswith("# config=")
    cfg = tmp_path / "header.json"
    cfg.write_text(header[len("# config="):])
    assert main(argv[:2] + ["--config", str(cfg), "--out", str(second)]) == 0
    assert second.read_text() == first.read_text()


@pytest.mark.parametrize("oracle", [[], ["--oracle", "expr:exp(-1)*z"]],
                         ids=["values", "convergence"])
def test_sphere_grid_header_records_the_interpolation_that_ran(tmp_path, oracle):
    # sphere2 grids are bilinear: a cubic request runs, and is recorded, as linear
    gen = _write_json(tmp_path / "gen.json",
                      {"fields": ["rotational:1", "rotational:2", "rotational:3"],
                       "drift": "derived"})
    argv = ["chernoff", "run", "--manifold", "sphere2", "--generator", gen,
            "--strategy", "grid", "--grid-nodes", "8,16", "--t", "0.5", "--n", "2,4",
            "--f", "z"] + oracle
    tables = {}
    for interp in ("cubic", "linear"):
        out = tmp_path / f"{interp}.csv"
        assert main(argv + ["--interp", interp, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert json.loads(lines[1][len("# config="):])["interp"] == "linear"
        tables[interp] = [line.rsplit(",", 1)[0] for line in lines]  # drop wall_time
    assert tables["cubic"] == tables["linear"]


@pytest.mark.parametrize("argv", [
    ["chernoff", "run", "--strategy", "tree", "--n", "4", "--x", "0.3"],
    ["chernoff", "run", "--strategy", "mc", "--n", "4", "--x", "0.3", "--samples", "10",
     "--oracle", "expr:cos(theta)"],
    ["chernoff", "run", "--strategy", "grid", "--grid-nodes", "32", "--n", "4"],
    ["oracle", "fd", "--f0", "cos(theta)", "--nodes", "32", "--steps", "50"],
], ids=["tree", "mc-oracle", "grid", "oracle-fd"])
@pytest.mark.parametrize("feller", [True, False])
def test_feller_flag_refuses_c_above_zero_before_any_row(tmp_path, capsys, argv, feller):
    # c = 1 + sin(theta) > 0: S(t) is not contractive (the tree reads 1.369 > sup|cos|)
    gen = _write_json(tmp_path / "gen.json", {"fields": ["frame:1"], "drift": "zero",
                                               "potential": "1+sin(theta)", "feller": feller})
    out = tmp_path / "out.csv"
    rc = main(argv + ["--manifold", "circle", "--generator", gen, "--t", "0.5",
                      "--out", str(out)])
    if feller:
        assert rc == 2 and not out.exists()
        assert capsys.readouterr().err.strip() == (
            "error: potential flagged feller but c > 0 at a sampled point")
    else:
        assert rc == 0
        if argv[2:4] == ["--strategy", "tree"]:
            assert out.read_text().splitlines()[-1].split(",")[5] == "1.36896202751"


def test_feller_flag_reads_c_at_the_evaluation_points(tmp_path):
    # c = sin(theta) is positive elsewhere on the circle, but not at the --x point
    gen = _write_json(tmp_path / "gen.json", {"fields": ["frame:1"], "drift": "zero",
                                               "potential": "sin(theta)"})
    assert main(["chernoff", "run", "--manifold", "circle", "--generator", gen,
                 "--strategy", "tree", "--n", "2", "--x", "-0.3", "--t", "0.5",
                 "--out", str(tmp_path / "out.csv")]) == 0


def test_oracle_fd_manifold_flag_beats_generator_file(tmp_path):
    gen = _write_json(tmp_path / "gen.json",
                      {"manifold": "circle", "fields": ["frame:1", "frame:2"], "drift": "zero"})
    out = tmp_path / "fd.csv"
    rc = main([
        "oracle", "fd", "--generator", gen, "--manifold", "torus2", "--f0", "cos(theta1)",
        "--t", "0.5", "--nodes", "32,32", "--steps", "50", "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert json.loads(lines[1][len("# config="):])["manifold"] == "torus2"
    node, value = lines[3].split(",")
    assert node == "0;0"
    assert float(value) == pytest.approx(math.exp(-0.25), abs=2e-3)


@pytest.mark.parametrize("ode, message", [
    ({"h0": 0.1}, "unknown ode keys ['h0']"),
    ({"tolerance": 1e-30}, "unknown ode keys ['tolerance']"),
    ({"tol": [1]}, "ode key 'tol' must be a number, not [1]"),
    ({"tol": True}, "ode key 'tol' must be a number, not true"),
    ({"max_steps": 100.7}, "ode key 'max_steps' must be an integer, not 100.7"),
    ({"max_steps": "64"}, "ode key 'max_steps' must be an integer, not \"64\""),
])
@pytest.mark.parametrize("command", [["chernoff", "run", "--strategy", "tree", "--x", "0.3"],
                                     ["walk", "sample"], ["walk", "stats"]])
def test_bad_ode_object_refused(tmp_path, capsys, command, ode, message):
    cfg = _write_json(tmp_path / "cfg.json", {"ode": ode})
    out = tmp_path / "out.csv"
    argv = command + ["--manifold", "circle", "--n", "2", "--config", cfg, "--out", str(out)]
    assert main(argv) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_ode_h0_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["chernoff", "run", "--ode-h0", "0.1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --ode-h0" in capsys.readouterr().err


@pytest.mark.parametrize("argv, code, err", [
    (["oracle", "eval", "--kernel", "wrapped-gauss-s1", "--f", "cos(theta)",
      "--t", "1.0", "--x", "0.0"], 0, ""),
    (["chernoff", "run", "--config", {"sampels": 5}], 2, "error: unknown config keys ['sampels']"),
    (["chernoff", "run", "--config", {"n_schedule": 8}], 2,
     "error: config key 'n_schedule' must be a list"),
    (["chernoff", "run", "--config", {"t": "1"}], 2, "error: config key 't' must be a number"),
    (["chernoff", "run", "--config", {"x": 0.3}], 2, "error: config key 'x' must be a list"),
    (["chernoff", "run", "--config", {"samples": 2.5}], 2,
     "error: config key 'samples' must be an integer"),
    (["chernoff", "run", "--config", {"oracle": 3}], 2,
     "error: config key 'oracle' must be a string or null"),
    (["chernoff", "run", "--t", "nan"], 2, "error: t must be >= 0 and finite"),
    (["walk", "sample", "--manifold", "circle", "--n", "4", "--paths", "-3"], 2,
     "error: paths must be >= 0"),
    (["walk", "stats", "--manifold", "circle", "--n", "4", "--samples", "10", "--paths", "-2"], 2,
     "error: paths must be >= 0"),
    (["chernoff", "run", "--config", 5], 2, "cfg.json must hold a JSON object, not 5"),
    (["chernoff", "run", "--config", ["t"]], 2, 'cfg.json must hold a JSON object, not ["t"]'),
    (["chernoff", "run", "--config", {"generator": {"fields": 5}}], 2,
     "error: generator key 'fields' must be a list of strings, not 5"),
    (["chernoff", "run", "--config", {"generator": {"fields": "frame:1"}}], 2,
     "error: generator key 'fields' must be a list of strings, not \"frame:1\""),
    (["chernoff", "run", "--config", {"generator": {"fields": ["frame:1"], "drift": 1}}], 2,
     "error: generator key 'drift' must be null, a string or an object, not 1"),
    (["chernoff", "run", "--config", {"generator": {"fields": ["frame:1"], "potential": -1}}], 2,
     "error: generator key 'potential' must be null or a string, not -1"),
    (["chernoff", "run", "--config", {"generator": {"fields": ["frame:1"], "feller": "no"}}], 2,
     "error: generator key 'feller' must be a boolean, not \"no\""),
    (["chernoff", "run", "--config",
      {"generator": {"fields": ["frame:1"], "drift": {"policy": "explicit", "field": 2}}}], 2,
     "error: generator drift key 'field' must be a string or null, not 2"),
    (["chernoff", "run", "--manifold", "circle", "--strategy", "tree", "--variant", "general",
      "--f", "1", "--n", "4", "--t", "1", "--x", "0.3", "--config",
      {"generator": {"fields": ["frame:1"], "drift": "zero", "potental": "-1"}}], 2,
     "error: unknown generator keys ['potental']"),
    (["chernoff", "run", "--config",
      {"generator": {"fields": ["frame:1"], "drift": {"polcy": "derived"}}}], 2,
     "error: unknown generator drift keys ['polcy']"),
] + [
    (["chernoff", "run", "--manifold", "circle", "--variant", "heat-geodesic", "--strategy", "mc",
      "--n", "4", "--t", "1", "--x", "0.3", "--f", "cos(theta)", "--samples", "100",
      "--seed", seed] + oracle, 2, "error: seed must be in [0, 2^64)")
    for oracle in ([], ["--oracle", "expr:cos(0.3)"])
    for seed in ("-1", "18446744073709551616")
] + [
    # oracle fd reads its chart from the generator file, after checking it
    (["oracle", "fd", "--generator", {"manifold": 5, "fields": ["frame:1"]}, "--f0", "cos(theta)",
      "--t", "0.1", "--nodes", "16", "--steps", "20"], 2,
     "error: generator key 'manifold' must be a string, not 5"),
    (["chernoff", "run", "--config",
      {"generator": {"fields": ["frame:1"], "drift": {"policy": "derived+", "field": "zero"}}}], 2,
     "error: unknown drift policy 'derived+'"),
] + [
    # a reference distribution needs a finite mean and sd > 0, or a finite point
    (["walk", "stats", "--manifold", "circle", "--n", "4", "--samples", "10",
      "--reference", ref], 2, f"error: reference {ref!r} needs a finite {what}")
    for ref, what in [("normal:0,-1", "mean and a finite sd > 0"),
                      ("normal:0,0", "mean and a finite sd > 0"),
                      ("normal:0,inf", "mean and a finite sd > 0"),
                      ("normal:nan,1", "mean and a finite sd > 0"),
                      ("pointmass:nan", "point")]
] + [
    # a reference of the wrong shape is refused with its form
    (["walk", "stats", "--manifold", "circle", "--n", "4", "--samples", "10",
      "--reference", ref], 2, f"error: reference {ref!r} is not of the form {form}")
    for ref, form in [("normal:0", "normal:<mean>,<sd>"),
                      ("normal:0,1,2", "normal:<mean>,<sd>"),
                      ("normal:0,one", "normal:<mean>,<sd>"),
                      ("pointmass:1,2", "pointmass:<v>")]
] + [
    # an fd oracle's step count is digits, refused before any row
    (["chernoff", "run", "--grid-nodes", "16", "--t", "0.5", "--n", "4", "--oracle", oracle], 2,
     f"error: oracle {oracle!r} is not of the form fd[:<steps>]")
    for oracle in ("fd:abc", "fd:", "fd:-3", "fd:1.5")
] + [
    # the default --grid-nodes 512 is one node count, for the run's grid or
    # the fd oracle's: the message names the counts
    (["chernoff", "run", "--manifold", "torus2", "--generator",
      {"fields": ["frame:1", "frame:2"], "drift": "zero"}, "--f", "cos(theta1)", "--t", "0.5",
      "--n", "4"] + strategy, 2,
     "error: torus2 grids take 2 node counts (one per axis), got shape (512,)")
    for strategy in ([], ["--strategy", "tree", "--x", "0.3,1.0", "--oracle", "fd"])
])
def test_exit_status_seen_by_the_shell(tmp_path, argv, code, err):
    # a non-string in argv is a JSON file with that content (a --config or a --generator)
    argv = [a if isinstance(a, str) else _write_json(tmp_path / "cfg.json", a) for a in argv]
    src = str(Path(fl.__file__).parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "feller.cli"] + argv,
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == code
    assert err in proc.stderr


@pytest.mark.parametrize("manifold, kernel, code", [
    ("torus2", "torus-product", 0),
    ("torus2", "gauss-rd:2", 0),  # a periodic f flows on the flat torus as on R^2
    ("torus2", "hyperbolic-h2", 2),
    ("torus2", "sphere-harmonics", 2),
    ("torus2", "gauss-rd:1", 2),
    ("circle", "wrapped-gauss-s1", 0),
    ("circle", "gauss-rd:1", 0),
    ("circle", "torus-product", 2),
])
def test_a_kernel_oracle_must_cover_the_run_manifold(tmp_path, capsys, manifold, kernel, code):
    d = 2 if manifold == "torus2" else 1
    gen = tmp_path / "gen.json"
    gen.write_text(json.dumps({"fields": [f"frame:{k + 1}" for k in range(d)], "drift": "zero"}))
    f = "cos(theta1)*cos(theta2)" if d == 2 else "cos(theta)"
    out = tmp_path / "conv.csv"
    assert main([
        "chernoff", "run", "--manifold", manifold, "--generator", str(gen),
        "--variant", "heat-geodesic", "--t", "0.5", "--n", "4,8", "--strategy", "tree",
        "--x", ",".join(["0.3", "1.0"][:d]), "--f", f, "--oracle", f"kernel:{kernel}",
        "--out", str(out),
    ]) == code
    if code:
        assert capsys.readouterr().err.strip() == (
            f"error: kernel {kernel!r} is no oracle on {manifold}")
        assert not out.exists()
    else:
        errs = [float(r.split(",")[1]) for r in out.read_text().splitlines()[3:]]
        assert len(errs) == 2 and max(errs) < 2e-2


@pytest.mark.parametrize("oracle, steps", [("fd:200", 200), ("fd", 100)])
def test_an_fd_oracle_is_the_crank_nicolson_solution_on_the_run_grid(tmp_path, heat_gen,
                                                                    oracle, steps):
    # a bare fd takes max(100, ceil(t / 5e-3)) steps: 100 at t = 0.5
    gen = {"fields": ["frame:1"], "drift": "zero"}
    rows, _ = run_convergence(ExperimentConfig(
        generator=gen, variant="heat-geodesic", t=0.5, n_schedule=[4, 16], grid_nodes=[64],
        oracle=oracle))
    m = fl.circle()
    spec = build_generator(m, gen)
    f0 = fl.GridFunction.from_function(m, 64, compile_scalar("cos(theta)", m))
    ref = fl.fd_solve(spec, f0, 0.5, fl.FdSolverSettings(steps=steps)).values
    variant = ch.ChernoffVariant.from_string("heat-geodesic")
    assert [r.n for r in rows] == [4, 16]
    for r in rows:
        want = np.abs(ch.iterate_grid(spec, variant, 0.5, r.n, f0).values - ref).max()
        assert r.error_sup == pytest.approx(want, rel=1e-12, abs=0.0)
    # the command line runs the same rows, and its table holds their errors to 12 digits
    out = tmp_path / "conv.csv"
    assert main(["chernoff", "run", "--manifold", "circle", "--generator", heat_gen,
                 "--variant", "heat-geodesic", "--strategy", "grid", "--grid-nodes", "64",
                 "--t", "0.5", "--n", "4,16", "--f", "cos(theta)", "--oracle", oracle,
                 "--out", str(out)]) == 0
    table = [line.split(",")[:2] for line in out.read_text().splitlines()[3:]]
    assert table == [[str(r.n), f"{r.error_sup:.12g}"] for r in rows]
