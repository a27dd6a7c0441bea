"""The feller benchmark: one workload per run, end-to-end or traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload grid-sphere --seed 0 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped:

* ``setup_s``: wall time from a fresh interpreter to a built workload, the
  median of ``SETUP_PROBES`` child processes;
* ``run_s``: median wall time of the workload's job, run once and then
  again while the next run should end within ``--seconds``;
* ``peak_rss_mb``: peak resident set of this process;
* ``max_abs_err``: the deterministic strategy's error against its reference;
* ``check_pass_frac``: output checks passed over checks attempted.

``--trace 1`` runs the job twice untraced (the first warms up) and once with
every public function of feller's modules wrapped (see ``tracing.py``), checks that both runs give
bit-identical outputs and that the traced work counts equal the analytic
ones, and reports the per-layer metrics.

The last line of standard output is the result object.  The exit code is 0
only when every check passed.  Sources are imported from ``src/`` of the
checkout; without them the command fails before measuring anything.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="self-test sizes")
    p.add_argument("--setup-probe", action="store_true",
                   help="build the workload, print 'ready' and exit (used for setup_s)")
    return p.parse_args(argv)


def environment() -> dict:
    import numpy
    import scipy

    from feller import _kernels, cli

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "using_numba": _kernels.using_numba(),
        "CHERNOFF_THREADS": os.environ.get("CHERNOFF_THREADS"),
        "cli_pool_width": cli._threads(),
        "machine": platform.machine(),
    }


def peak_rss_mb() -> float:
    import resource

    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    return kib / 1024.0


def measure_setup(args) -> list[float]:
    """Wall times from spawning a fresh interpreter to its 'ready' line."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"] + (["--tiny"] if args.tiny else [])
    times = []
    for _ in range(1 if args.tiny else SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline().strip()
                elapsed = time.perf_counter() - t0
                proc.wait(timeout=PROBE_TIMEOUT_S)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        if line != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe failed (exit {proc.returncode}, said {line!r})")
        times.append(elapsed)
    return times


def same_outputs(a, b) -> bool:
    """Bit-for-bit equality of two job outputs (dicts of arrays and numbers)."""
    import numpy as np

    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(
            same_outputs(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(same_outputs(x, y) for x, y in zip(a, b))
    if isinstance(a, (np.ndarray, float)) or isinstance(b, (np.ndarray, float)):
        a, b = np.asarray(a), np.asarray(b)
        return a.dtype == b.dtype and a.shape == b.shape and (
            a.tobytes() == b.tobytes())
    return a == b


class Ledger:
    """Output checks attempted and failed, with their details."""

    def __init__(self):
        self.results = []

    def add(self, label: str, checks) -> None:
        for name, ok, detail in checks:
            self.results.append({"run": label, "check": name, "ok": ok, "detail": detail})

    @property
    def attempted(self) -> int:
        return len(self.results)

    @property
    def failed(self) -> int:
        return sum(not r["ok"] for r in self.results)


def run_job(workload, ledger: Ledger, label: str):
    """One timed job; returns (seconds, outputs) or (None, None) if it raised."""
    t0 = time.perf_counter()
    try:
        out = workload.run()
    except Exception as exc:  # a raising job is a failed check, reported below
        ledger.add(label, [("job raised", False, f"{type(exc).__name__}: {exc}")])
        return None, None
    elapsed = time.perf_counter() - t0
    ledger.add(label, workload.checks(out))
    return elapsed, out


def end_to_end(args, cls, ledger: Ledger, report: dict) -> dict:
    setup = measure_setup(args)
    report["setup_s"] = setup
    workload = cls(args.seed, tiny=args.tiny)
    times, first = [], None
    t_start = time.perf_counter()
    # another job only if it should end within --seconds, judged by the median
    while not times or time.perf_counter() - t_start + statistics.median(times) <= args.seconds:
        elapsed, out = run_job(workload, ledger, f"job {len(times) + 1}")
        if out is None:
            break
        times.append(elapsed)
        if first is None:
            first = out
        else:
            ledger.add(f"job {len(times)}", [("same outputs as job 1", same_outputs(first, out),
                                              "bit-exact repeat")])
    report["run_s"] = times
    if first is None:
        return {}
    return {
        "run_s": statistics.median(times),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb(),
        "max_abs_err": workload.error(first),
        "check_pass_frac": 1.0 - ledger.failed / ledger.attempted,
    }


def traced(args, cls, ledger: Ledger, report: dict) -> dict:
    import tracing
    import workloads

    workload = cls(args.seed, tiny=args.tiny)
    # the first job pays for first-touch memory, so it would bias overhead_frac
    for label in ("untraced warm-up", "untraced"):
        plain_s, plain = run_job(workload, ledger, label)
        if plain is None:
            return {}
    tracer = tracing.Tracer()
    tracer.install(extra_modules=[workloads])
    try:
        workload = cls(args.seed, tiny=args.tiny)
        traced_s, out = run_job(workload, ledger, "traced")
    finally:
        tracer.uninstall()
    if out is None:
        return {}
    metrics = tracing.layer_metrics(tracer.spans)
    metrics["trace.overhead_frac"] = traced_s / plain_s - 1.0
    ledger.add("traced", [("outputs equal the untraced run's", same_outputs(plain, out),
                           "bit-for-bit")])
    ledger.add("traced", [
        (f"work count {k}", metrics[k] == v, f"traced {metrics[k]} vs analytic {v}")
        for k, v in workload.work_counts().items()
    ])
    report["run_s"] = {"untraced": plain_s, "traced": traced_s}
    report["spans"] = tracing.summary(tracer.spans)
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "feller" / "__init__.py").is_file():
        print(f"error: no feller sources under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {w["name"] for w in spec["workloads"]}
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(names)}",
              file=sys.stderr)
        return 2

    # the CLI workload writes its files to the working directory: keep it private
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=scratch)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        import workloads

        cls = workloads.WORKLOADS[args.workload]
        if args.setup_probe:
            cls(args.seed, tiny=args.tiny)
            print("ready", flush=True)
            return 0
        ledger = Ledger()
        report = {"workload": args.workload, "seed": args.seed, "env": environment()}
        measured = (traced if args.trace else end_to_end)(args, cls, ledger, report)
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by the parent of a probe
            scratch.rmdir()

    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    metrics = {k: {"value": measured[k], "unit": u} for k, u in units.items() if k in measured}
    # every check of the first job, and every failure
    report["checks"] = [r for r in ledger.results
                        if r["run"] in ("job 1", "untraced", "traced") or not r["ok"]]
    print(json.dumps(report))
    correct = ledger.failed == 0 and len(metrics) == len(units)
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
