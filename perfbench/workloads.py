"""The four benchmark workloads: seeded inputs and the body of one pass.

A pass is the unit the benchmark times.  Each pass runs in a fresh
interpreter (see worker.py); ``run_pass`` is what that interpreter times.
The program only ever sees the files that ``write_inputs`` generates.
``sunlie`` is imported inside the functions that only the worker runs: the
parent process that writes inputs and checks outputs does not load it.

    tables          sunlie constants --n 64 --kind both --format csv
    simulate_n32    sunlie simulate --compare-tdse at N=32, RK4 dt=1e-3
    ensemble_small  bloch_tdse_deviation + integrate_bloch, N=2..6, t in [0, 10]
    verify          sunlie verify --n 8 --kind both, then the sampled adjoint
                    commutator check at N=12
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import numpy as np

WORKLOADS = ("tables", "simulate_n32", "ensemble_small", "verify")

TABLES_N = 64
SIM_N = 32
SIM_T_FINAL = 1.0
ENSEMBLE_NS = (2, 3, 4, 5, 6)
ENSEMBLE_PER_N = 2
ENSEMBLE_T_FINAL = 10.0
DT = 1e-3
STRIDE = 10
VERIFY_N = 8
ADJOINT_N = 12

TABLES_CSV = "tables.csv"
SIM_HAMILTONIAN = "hamiltonian.json"
SIM_INITIAL = "psi0.json"
SIM_TRAJECTORY = "trajectory.csv"
ENSEMBLE_INPUTS = "ensemble.json"


def random_hermitian(rng, n_dim):
    """Hermitian matrix with Gaussian entries, rescaled to unit spectral radius."""
    a = rng.normal(size=(n_dim, n_dim)) + 1j * rng.normal(size=(n_dim, n_dim))
    h = 0.5 * (a + a.conj().T)
    return h / np.max(np.abs(np.linalg.eigvalsh(h)))


def random_state(rng, n_dim):
    """Normalized complex amplitude vector."""
    c = rng.normal(size=n_dim) + 1j * rng.normal(size=n_dim)
    return c / np.linalg.norm(c)


def _matrix_payload(mat) -> dict:
    return {"n": mat.shape[0], "re": mat.real.tolist(), "im": mat.imag.tolist()}


def _vector_payload(vec) -> dict:
    return {"re": vec.real.tolist(), "im": vec.imag.tolist()}


def write_inputs(workload: str, seed: int, workdir: str) -> None:
    """Generate the workload's input files from ``seed`` (same seed, same bytes)."""
    rng = np.random.default_rng(seed)
    if workload == "simulate_n32":
        h = random_hermitian(rng, SIM_N)
        psi = random_state(rng, SIM_N)
        _dump(os.path.join(workdir, SIM_HAMILTONIAN), _matrix_payload(h))
        _dump(os.path.join(workdir, SIM_INITIAL), _vector_payload(psi))
    elif workload == "ensemble_small":
        systems = []
        for n_dim in ENSEMBLE_NS:
            for _ in range(ENSEMBLE_PER_N):
                h = random_hermitian(rng, n_dim)
                psi = random_state(rng, n_dim)
                systems.append({"hamiltonian": _matrix_payload(h), "initial": _vector_payload(psi)})
        _dump(os.path.join(workdir, ENSEMBLE_INPUTS), {"systems": systems})
    # tables has no random input; verify draws its samples from the seed itself.


def _dump(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh)


def load_inputs(workload: str, workdir: str, seed: int) -> dict:
    """Read what a pass needs before its timed call; part of set-up time.

    The CLI workloads read their input files inside the timed command.
    """
    inputs: dict = {"seed": seed, "workdir": workdir}
    if workload == "ensemble_small":
        with open(os.path.join(workdir, ENSEMBLE_INPUTS)) as fh:
            payload = json.load(fh)
        inputs["systems"] = [
            (
                np.asarray(s["hamiltonian"]["re"]) + 1j * np.asarray(s["hamiltonian"]["im"]),
                np.asarray(s["initial"]["re"]) + 1j * np.asarray(s["initial"]["im"]),
            )
            for s in payload["systems"]
        ]
    return inputs


def _cli(argv: list[str]) -> dict:
    import sunlie.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = sunlie.cli.main(argv)
    return {"exit": code, "stdout": out.getvalue()}


def run_pass(workload: str, inputs: dict) -> dict:
    """One pass of the workload: the call the benchmark times.

    Returns raw outputs; readings derived from them for the output gate
    are taken afterwards by ``readings`` so that they stay out of the
    timed region.
    """
    workdir = inputs["workdir"]
    if workload == "tables":
        return _cli([
            "constants", "--n", str(TABLES_N), "--kind", "both", "--format", "csv",
            "--output", os.path.join(workdir, TABLES_CSV),
        ])
    if workload == "simulate_n32":
        return _cli([
            "simulate",
            "--hamiltonian", os.path.join(workdir, SIM_HAMILTONIAN),
            "--initial", os.path.join(workdir, SIM_INITIAL),
            "--t-final", repr(SIM_T_FINAL), "--dt", repr(DT), "--stride", str(STRIDE),
            "--output", os.path.join(workdir, SIM_TRAJECTORY), "--compare-tdse",
        ])
    if workload == "ensemble_small":
        return _ensemble(inputs["systems"])
    if workload == "verify":
        import sunlie

        result = _cli([
            "verify", "--n", str(VERIFY_N), "--kind", "both", "--seed", str(inputs["seed"]),
        ])
        result["adjoint"] = sunlie.verify_adjoint_commutators(
            sunlie.build_f_table(ADJOINT_N), seed=inputs["seed"]
        )
        return result
    raise ValueError(f"unknown workload {workload!r}")


def _ensemble(systems: list) -> dict:
    # The shape of acceptance criterion 7: tables built once per N, then
    # both the deviation check and a plain integration per system, all in
    # one process so that the library's caches stay warm.
    import sunlie

    spec = sunlie.IntegrationSpec(t_final=ENSEMBLE_T_FINAL, dt=DT, output_stride=STRIDE)
    results = []
    tables = {}
    for hamiltonian, psi0 in systems:
        n_dim = hamiltonian.shape[0]
        cfg = sunlie.AlgebraConfig(n_dim)
        if n_dim not in tables:
            tables[n_dim] = sunlie.build_f_table(n_dim)
        table = tables[n_dim]
        deviation = sunlie.bloch_tdse_deviation(cfg, table, hamiltonian, psi0, spec)
        coeffs = sunlie.decompose_hamiltonian(cfg, hamiltonian)
        traj = sunlie.integrate_bloch(table, coeffs, sunlie.state_to_bloch(cfg, psi0), spec)
        results.append((n_dim, deviation, traj.states))
    return {"systems": results}


def readings(workload: str, inputs: dict, outputs: dict) -> dict:
    """JSON-ready gate readings of one pass, taken after its timed call."""
    workdir = inputs["workdir"]
    out = {k: outputs[k] for k in ("exit", "stdout") if k in outputs}
    written = len(outputs.get("stdout", "").encode())
    if workload == "tables":
        written += os.path.getsize(os.path.join(workdir, TABLES_CSV))
    elif workload == "simulate_n32":
        written += os.path.getsize(os.path.join(workdir, SIM_TRAJECTORY))
    elif workload == "ensemble_small":
        out["systems"] = [
            {"n": n_dim, "max_tdse_deviation": deviation,
             "casimir_drift": casimir_drift(np.asarray(states))}
            for n_dim, deviation, states in outputs["systems"]
        ]
    elif workload == "verify":
        report = outputs["adjoint"]
        out["adjoint"] = {
            "n_dim": report.n_dim, "pairs_checked": report.pairs_checked,
            "exhaustive": report.exhaustive, "max_deviation": report.max_deviation,
            "passed": report.passed,
        }
    out["output_bytes"] = written
    return out


def casimir_drift(states) -> float:
    """Largest change of |s|**2 along a trajectory, relative to its first row."""
    casimir = np.sum(states**2, axis=1)
    return float(np.abs(casimir - casimir[0]).max())
