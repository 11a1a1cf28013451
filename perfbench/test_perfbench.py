"""Self-tests of the benchmark: output gate, span reduction, seeded inputs.

Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

from sunlie.cli import main as sunlie_main  # noqa: E402


def _bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = run.SRC
    return env


# -- output gate ---------------------------------------------------------------

def _small_tables(workdir, capsys) -> tuple[dict, dict]:
    """Run `constants` at N=4 and record its outputs the way expected.json does."""
    path = os.path.join(workdir, workloads.TABLES_CSV)
    assert sunlie_main(["constants", "--n", "4", "--format", "csv", "--output", path]) == 0
    stdout = capsys.readouterr().out
    expected = {"stats_lines": stdout.splitlines(), "csv_bytes": os.path.getsize(path),
                "csv_sha256": gate.sha256_file(path)}
    return {"tables": expected}, {"exit": 0, "stdout": stdout}


def test_tables_gate_rejects_one_changed_digit(tmp_path, capsys):
    expected, reading = _small_tables(str(tmp_path), capsys)
    assert gate.check("tables", reading, str(tmp_path), 0, expected)[0] == []

    path = tmp_path / workloads.TABLES_CSV
    text = path.read_text()
    pos = text.index("0.5")
    corrupted = text[:pos] + "0.6" + text[pos + 3:]
    path.write_text(corrupted)
    problems, _ = gate.check("tables", reading, str(tmp_path), 0, expected)
    assert problems == ["CSV content differs from the recorded sha256"]

    path.write_text(text)
    bad_stats = {"exit": 0, "stdout": reading["stdout"].replace("count=", "count=1", 1)}
    assert gate.check("tables", bad_stats, str(tmp_path), 0, expected)[0]


def test_recorded_n64_expectation_matches_the_program(tmp_path, capsys):
    path = os.path.join(str(tmp_path), workloads.TABLES_CSV)
    argv = ["constants", "--n", "64", "--kind", "both", "--format", "csv", "--output", path]
    assert sunlie_main(argv) == 0
    reading = {"exit": 0, "stdout": capsys.readouterr().out}
    assert gate.check("tables", reading, str(tmp_path), 0, gate.load_expected()) == (
        [], {"output_bytes": 0})


def _trajectory(tmp_path, scale_last_row: float = 1.0) -> None:
    dim = workloads.SIM_N**2 - 1
    times = np.arange(0, 1001, workloads.STRIDE) * workloads.DT
    states = np.tile(np.linspace(-0.01, 0.01, dim), (times.size, 1))
    states[-1] *= scale_last_row
    header = ",".join(["t"] + [f"s_{k}" for k in range(1, dim + 1)])
    np.savetxt(tmp_path / workloads.SIM_TRAJECTORY, np.column_stack([times, states]),
               delimiter=",", header=header, comments="")


@pytest.mark.parametrize("deviation, scale, failures", [
    ("1e-12", 1.0, 0),
    ("2e-06", 1.0, 1),       # trajectory gap above 1e-6
    ("1e-12", 1.001, 1),     # Casimir drift above 1e-8
    ("nan", 1.0, 1),
])
def test_simulate_gate_enforces_tolerances(tmp_path, deviation, scale, failures):
    _trajectory(tmp_path, scale)
    reading = {"exit": 0, "stdout": f"max_tdse_deviation={deviation}\n"}
    problems, _ = gate.check("simulate_n32", reading, str(tmp_path), 0, {})
    assert len(problems) == failures


def test_ensemble_gate_enforces_tolerances():
    ns = [n for n in workloads.ENSEMBLE_NS for _ in range(workloads.ENSEMBLE_PER_N)]
    systems = [{"n": n, "max_tdse_deviation": 1e-13, "casimir_drift": 1e-15} for n in ns]
    assert gate.check("ensemble_small", {"systems": systems}, "", 0, {})[0] == []
    systems[3]["casimir_drift"] = 2e-8
    assert gate.check("ensemble_small", {"systems": systems}, "", 0, {})[0]
    assert gate.check("ensemble_small", {"error": "Traceback ..."}, "", 0, {})[0]


# -- spans ---------------------------------------------------------------------

def test_self_times_of_nested_spans_sum_to_the_root():
    tree = [  # id, parent, start, end
        (0, None, 0.0, 10.0), (1, 0, 1.0, 4.0), (2, 1, 1.5, 2.5), (3, 1, 3.0, 3.5),
        (4, 0, 5.0, 9.0), (5, 4, 5.0, 9.0),
    ]
    spans_ = [{"id": i, "parent": p, "start": s, "end": e} for i, p, s, e in tree]
    own = spans.self_times(spans_)
    assert own == {0: 3.0, 1: 1.5, 2: 1.0, 3: 0.5, 4: 0.0, 5: 4.0}
    assert sum(own.values()) == pytest.approx(10.0)


def test_tracer_records_nesting_and_memory():
    import tracemalloc

    tracer = spans.Tracer(pass_id=7)

    def inner():
        return bytearray(4 << 20)

    def outer():
        return len(traced_inner()) + len(traced_inner())

    traced_inner = tracer.wrap(inner, "layer.inner")
    traced_outer = tracer.wrap(outer, "layer.outer", lambda a, r: {"result": r})
    tracemalloc.start()
    try:
        root = tracer.enter("pass")
        assert traced_outer() == 8 << 20
        tracer.exit(root)
    finally:
        tracemalloc.stop()
    recorded = tracer.finished_spans()
    assert [(s["name"], s["parent"], s["pass"]) for s in recorded] == [
        ("pass", None, 7), ("layer.outer", 0, 7), ("layer.inner", 1, 7), ("layer.inner", 1, 7)]
    assert recorded[1]["attrs"] == {"result": 8 << 20}
    assert all(s["peak_bytes"] >= 4 << 20 for s in recorded)
    own = spans.self_times(recorded)
    assert sum(own.values()) == pytest.approx(recorded[0]["end"] - recorded[0]["start"])


def test_traced_pass_passes_gate_and_reports_layers():
    proc = _bench("--workload", "verify", "--seed", "3", "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 3
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["trace_oracle.trace_evals"] == 83_391
    assert metrics["adjoint.pairs_checked"] == 200
    assert metrics["structure_constants.lookup_calls"] == 14_000
    assert "trace.overhead_frac" in metrics

    with open(os.path.join(run.OUT, "results-verify-seed3-trace1.json")) as fh:
        results = json.load(fh)
    traced = [p for p in results["passes"] if p["mode"] != "plain"]
    assert results["metadata"]["nproc"] >= 1 and "blas" in results["metadata"]
    for p in traced:
        root = next(s for s in p["spans"] if s["parent"] is None)
        own = spans.self_times(p["spans"])
        assert sum(own.values()) == pytest.approx(root["end"] - root["start"], rel=1e-9)


# -- seeded inputs -------------------------------------------------------------

@pytest.mark.parametrize("workload", ["simulate_n32", "ensemble_small"])
def test_seed_changes_inputs_and_every_pass_still_passes(tmp_path, workload):
    def inputs(seed, name):
        workdir = tmp_path / name
        workdir.mkdir()
        workloads.write_inputs(workload, seed, str(workdir))
        return workdir, b"".join(f.read_bytes() for f in sorted(workdir.iterdir()))

    first, blob1 = inputs(1, "a")
    assert inputs(1, "b")[1] == blob1  # same seed, same bytes
    second, blob2 = inputs(2, "c")
    assert blob2 != blob1
    for seed, workdir in ((1, first), (2, second)):
        record = run.Run(workload, seed, str(workdir), _env()).run_pass("plain")
        assert record["problems"] == [], record["problems"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = _bench("--workload", "tables", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
