"""Output gate: decides whether one pass produced correct output.

A pass fails on a nonzero exit or an exception, on any ``stats`` count,
checksum or CSV byte that differs from expected.json (recorded from the
seed implementation), on a trajectory gap above 1e-6 or a Casimir drift
above 1e-8 (the tolerances of acceptance criterion 7), and on a ``verify``
mismatch or a failed adjoint report.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re

import numpy as np

import workloads

MAX_TDSE_DEVIATION = 1e-6
MAX_CASIMIR_DRIFT = 1e-8
MAX_ADJOINT_DEVIATION = 1e-12

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")


def load_expected() -> dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def check(workload: str, reading: dict, workdir: str, seed: int,
          expected: dict) -> tuple[list[str], dict]:
    """Problems found in one pass (empty when it passes) and its accuracy summary."""
    if "error" in reading:
        return [f"exception: {reading['error']}"], {}
    problems = []
    if reading.get("exit", 0) != 0:
        problems.append(f"exit code {reading['exit']}")
    summary = {"output_bytes": reading.get("output_bytes", 0)}
    if workload == "tables":
        problems += _check_tables(reading, workdir, expected["tables"])
    elif workload == "simulate_n32":
        problems += _check_simulate(reading, workdir, summary)
    elif workload == "ensemble_small":
        problems += _check_ensemble(reading, summary)
    elif workload == "verify":
        problems += _check_verify(reading, seed, expected["verify"])
    else:
        problems.append(f"unknown workload {workload!r}")
    return problems, summary


def _check_tables(reading: dict, workdir: str, expected: dict) -> list[str]:
    problems = []
    if reading["stdout"].splitlines() != expected["stats_lines"]:
        problems.append(f"stats lines differ: {reading['stdout']!r}")
    path = os.path.join(workdir, workloads.TABLES_CSV)
    size = os.path.getsize(path)
    if size != expected["csv_bytes"]:
        problems.append(f"CSV has {size} bytes, expected {expected['csv_bytes']}")
    elif sha256_file(path) != expected["csv_sha256"]:
        problems.append("CSV content differs from the recorded sha256")
    return problems


def tolerance_problems(deviation: float, drift: float) -> list[str]:
    problems = []
    if not (math.isfinite(deviation) and deviation <= MAX_TDSE_DEVIATION):
        problems.append(f"max_tdse_deviation {deviation!r} > {MAX_TDSE_DEVIATION}")
    if not (math.isfinite(drift) and drift <= MAX_CASIMIR_DRIFT):
        problems.append(f"Casimir drift {drift!r} > {MAX_CASIMIR_DRIFT}")
    return problems


def _check_simulate(reading: dict, workdir: str, summary: dict) -> list[str]:
    match = re.fullmatch(r"max_tdse_deviation=(\S+)\n", reading["stdout"])
    if not match:
        return [f"unexpected simulate stdout: {reading['stdout']!r}"]
    deviation = float(match.group(1))
    path = os.path.join(workdir, workloads.SIM_TRAJECTORY)
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
    dim = workloads.SIM_N**2 - 1
    if header != ",".join(["t"] + [f"s_{k}" for k in range(1, dim + 1)]):
        return ["trajectory header differs"]
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    n_steps = round(workloads.SIM_T_FINAL / workloads.DT)
    expected_times = np.arange(0, n_steps + 1, workloads.STRIDE) * workloads.DT
    if rows.shape != (expected_times.size, dim + 1):
        return [f"trajectory shape {rows.shape}, expected {(expected_times.size, dim + 1)}"]
    problems = []
    if not np.all(np.isfinite(rows)):
        problems.append("trajectory has non-finite values")
    if np.abs(rows[:, 0] - expected_times).max() > 1e-12:
        problems.append("trajectory sample times differ from the dt/stride grid")
    drift = workloads.casimir_drift(rows[:, 1:])
    summary.update(max_tdse_deviation=deviation, casimir_drift=drift)
    return problems + tolerance_problems(deviation, drift)


def _check_ensemble(reading: dict, summary: dict) -> list[str]:
    systems = reading["systems"]
    expected_ns = [n for n in workloads.ENSEMBLE_NS for _ in range(workloads.ENSEMBLE_PER_N)]
    if [s["n"] for s in systems] != expected_ns:
        return [f"ensemble covered N={[s['n'] for s in systems]}, expected {expected_ns}"]
    deviation = max(s["max_tdse_deviation"] for s in systems)
    drift = max(s["casimir_drift"] for s in systems)
    summary.update(max_tdse_deviation=deviation, casimir_drift=drift)
    return tolerance_problems(deviation, drift)


def _check_verify(reading: dict, seed: int, expected: dict) -> list[str]:
    problems = []
    lines = [line.format(seed=seed) for line in expected["stdout_lines"]]
    if reading["stdout"].splitlines() != lines:
        problems.append(f"verify output differs: {reading['stdout']!r}")
    report = reading["adjoint"]
    for key, value in expected["adjoint"].items():
        if report[key] != value:
            problems.append(f"adjoint report {key}={report[key]!r}, expected {value!r}")
    if not report["max_deviation"] <= MAX_ADJOINT_DEVIATION:
        problems.append(f"adjoint max deviation {report['max_deviation']!r}")
    return problems
