"""sunlie benchmark: times one workload and checks every output it produces.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload tables --seed 1 --seconds 25 --trace 0

Workloads are listed in workloads.py and README.md.  The program is run from
``src/`` of the same checkout.  Each pass is a fresh interpreter
(worker.py); passes repeat until ``--seconds`` is used up, with at least
three.  ``--trace 0`` reports the end-to-end metrics as medians over the
passes.  ``--trace 1`` cycles through plain, span-recording and
memory-tracing passes (see worker.py) and reports the per-layer metrics,
plus the overhead of recording spans.  Every pass goes through the output
gate (gate.py).

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  A results file with run metadata, every
pass and, when traced, every span is written under .perfbench_out/.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import gate
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKER = os.path.join(HERE, "worker.py")

MIN_PASSES = 3
PASS_TIMEOUT_S = 150
# Stop starting passes past this point whatever --seconds says, so that one
# run stays well inside its 180 s limit.
HARD_STOP_S = 120

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_mem_mb": "MB", "setup_s": "s"}


def layer_unit(name: str) -> str:
    for suffix, unit in (("_us", "us"), ("_ms", "ms"), ("_s", "s"), ("_mb", "MB"),
                         ("_bytes", "B"), ("_frac", "frac")):
        if name.endswith(suffix):
            return unit
    return "abs" if name.endswith(("deviation", "drift")) else "count"


def git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "--git-dir", os.path.join(ROOT, ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _openblas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, read from the library itself."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def run_metadata() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": _openblas_threads(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": git_commit(),
    }


class Run:
    """Passes of one workload in one workdir, each checked by the gate."""

    def __init__(self, workload: str, seed: int, workdir: str, env: dict):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.env = env
        self.expected = gate.load_expected()
        self.passes: list[dict] = []

    def run_pass(self, mode: str) -> dict:
        pass_id = len(self.passes)
        report_path = os.path.join(self.workdir, f"pass-{pass_id}.json")
        spawned = time.perf_counter()
        argv = [sys.executable, WORKER, self.workload, self.workdir, str(self.seed),
                str(pass_id), mode, repr(spawned), report_path]
        try:
            proc = subprocess.run(argv, env=self.env, cwd=ROOT, capture_output=True,
                                  text=True, timeout=PASS_TIMEOUT_S)
            failure = None if proc.returncode == 0 else proc.stderr[-2000:]
        except subprocess.TimeoutExpired:
            failure = f"pass exceeded {PASS_TIMEOUT_S} s"
        elapsed = time.perf_counter() - spawned
        if failure is None and os.path.isfile(report_path):
            with open(report_path) as fh:
                record = json.load(fh)
        else:
            record = {"pass": pass_id, "mode": mode,
                      "reading": {"error": failure or "worker wrote no report"}}
        problems, summary = gate.check(self.workload, record["reading"], self.workdir,
                                       self.seed, self.expected)
        record.update(elapsed_s=elapsed, problems=problems, summary=summary)
        self.passes.append(record)
        return record

    def failed(self) -> int:
        return sum(1 for p in self.passes if p["problems"])


def _median(passes: list[dict], key: str) -> float:
    values = [p[key] for p in passes if key in p]
    return statistics.median(values) if values else float("nan")


TRACE_CYCLE = ("plain", "spans", "memory")


def schedule(run: Run, seconds: float, trace: bool) -> None:
    """Run passes until the time is used up; traced runs cycle through TRACE_CYCLE."""
    cycle = TRACE_CYCLE if trace else ("plain",)
    start = time.perf_counter()
    while True:
        run.run_pass(cycle[len(run.passes) % len(cycle)])
        next_mode = cycle[len(run.passes) % len(cycle)]
        same_mode = [p for p in run.passes if p["mode"] == next_mode]
        enough = len(run.passes) >= max(MIN_PASSES, len(cycle))
        elapsed = time.perf_counter() - start
        next_cost = _median(same_mode, "elapsed_s") if same_mode else 0.0
        if enough and (elapsed + next_cost > seconds or elapsed > HARD_STOP_S):
            return


def _good(run: Run, mode: str) -> list[dict]:
    return [p for p in run.passes if p["mode"] == mode and not p["problems"]]


def end_to_end(run: Run) -> dict:
    return {name: _median(run.passes, name) for name in END_TO_END_UNITS}


def per_layer(run: Run) -> dict:
    plain, timed, memory = (_good(run, mode) for mode in TRACE_CYCLE)
    if not (plain and timed and memory):
        return {}
    metrics = spans.layer_metrics([(p["spans"], p["summary"]) for p in timed],
                                  [(p["spans"], p["summary"]) for p in memory])
    metrics["trace.overhead_frac"] = _median(timed, "wall_s") / _median(plain, "wall_s") - 1.0
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "sunlie", "__init__.py")):
        print(f"error: no sunlie sources under {SRC}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    # One untimed import compiles the bytecode and warms the file cache, so
    # that set-up time measures interpreter start and import, not compilation.
    warm = subprocess.run([sys.executable, "-c", "import sunlie.cli"], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    if warm.returncode != 0:
        print(f"error: cannot import sunlie:\n{warm.stderr}", file=sys.stderr)
        return 2

    workdir = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    workloads.write_inputs(args.workload, args.seed, workdir)
    run = Run(args.workload, args.seed, workdir, env)
    schedule(run, args.seconds, bool(args.trace))

    metrics = per_layer(run) if args.trace else end_to_end(run)
    attempted, failed = len(run.passes), run.failed()
    results = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "metadata": run_metadata(), "attempted": attempted,
        "failed": failed, "error_rate": failed / attempted, "metrics": metrics,
        "passes": run.passes,
    }
    with open(os.path.join(OUT, f"results-{os.path.basename(workdir)}.json"), "w") as fh:
        json.dump(results, fh)
    shutil.rmtree(workdir)

    units = END_TO_END_UNITS if not args.trace else {n: layer_unit(n) for n in metrics}
    for p in run.passes:
        for problem in p["problems"]:
            print(f"pass {p['pass']} FAILED: {problem}")
    print(f"workload={args.workload} seed={args.seed} passes={attempted} "
          f"error_rate={failed / attempted!r}")
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
