"""Mutants that the tests must kill.

Run from anywhere as ``python tests/mutants.py``.  pytest collects only
``test_*.py``, so this script is not part of the test suite.

Each entry is (file, exact old text, new text, pytest selection).  For every
entry the script writes the new text over the old in a temporary copy of
``src/``, ``tests/`` and ``pyproject.toml``, runs the selection there and
requires it to fail.  An entry whose old text is not found exactly once fails
the script, so the list cannot go stale quietly: a change that moves such a
text must update its entry.  The script exits 0 only if every mutant is killed.

Known equivalent, so not listed: ``ZERO_THRESHOLD = 1e-10`` -> ``1e-3`` in
``trace_oracle.py``.  Wherever the oracle runs (N <= 16 in practice) the
smallest stored magnitude is at least 0.049 and the traces of absent triples
are rounding noise, so 1e-3 separates them as 1e-10 does.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

ADJOINT = "src/sunlie/adjoint.py"
CLI = "src/sunlie/cli.py"
DYNAMICS = "src/sunlie/dynamics.py"
TABLES = "src/sunlie/structure_constants.py"

MUTANTS = (
    # The commutator check: each part of the residual F_iF_j - F_jF_i + sum_k f_ijk F_k.
    (ADJOINT, "terms = [product_terms(f_i, f_j, 1.0), product_terms(f_j, f_i, -1.0)]",
     "terms = [product_terms(f_i, f_j, 1.0)]",
     ["tests/test_adjoint.py::test_n12_sampled_report_passes"]),
    (ADJOINT, "ijk = js == j  # the triples (i, j, k)", "ijk = js < 0  # the triples (i, j, k)",
     ["tests/test_adjoint.py::test_n12_sampled_report_passes"]),
    (ADJOINT, 'return after.ravel(), after[::-1].ravel(), (f.take(rows[i], mode="wrap") * signs)'
     ".ravel()", 'return after[0], after[1], f.take(rows[i], mode="wrap")',
     ["tests/test_adjoint.py::test_n12_sampled_report_passes"]),
    # Loosened bounds, each caught by a test just beyond the bound.
    (DYNAMICS, "if np.abs(mat - mat.conj().T).max() > 1e-12 * scale:",
     "if np.abs(mat - mat.conj().T).max() > 1e-6 * scale:",
     ["tests/test_dynamics.py::TestDecomposeHamiltonian"
      "::test_non_hermitian_by_1e_9_of_the_scale_rejected"]),
    (DYNAMICS, "if drift > _NORM_DRIFT_TOL:", "if drift > 10 * _NORM_DRIFT_TOL:",
     ["tests/test_cli.py::TestSimulate::test_norm_drift_just_above_the_tolerance_rejected"]),
    (DYNAMICS, "_NORM_TOL = 1e-12", "_NORM_TOL = 1e-9",
     ["tests/test_dynamics.py::TestStateToBloch::test_norm_off_by_1e_10_rejected"]),
    (TABLES, "(values <= MAX_MAGNITUDE + 1e-9)\n           & (values >= -MAX_MAGNITUDE - 1e-9)",
     "(values <= MAX_MAGNITUDE + 1e-3)\n           & (values >= -MAX_MAGNITUDE - 1e-3)",
     ["tests/test_structure_constants.py::test_invalid_entries_rejected"]),
    (ADJOINT, "TOLERANCE = 1e-12", "TOLERANCE = 1e-6",
     ["tests/test_adjoint.py::test_one_entry_off_by_1e_9_fails_the_report"]),
    (CLI, "VERIFY_TOL = 1e-12", "VERIFY_TOL = 1e-6",
     ["tests/test_cli.py::TestVerify::test_small_dimension_passes"]),
    # Wrong flows, a wrong report and a wrong constant.
    (DYNAMICS, "log_step, log_tail = -1j * frequencies, 0.0",
     "log_step, log_tail = 1j * frequencies, 0.0",
     ["tests/test_dynamics.py::TestIntegration::test_grid_ends_at_t_final[exact]"]),
    (DYNAMICS, "gap = max(gap, float(np.abs(rows - bloch_from_states(cfg, amps)).max()))",
     "gap = float(np.abs(rows - bloch_from_states(cfg, amps)).max())",
     ["tests/test_dynamics.py::TestPrecessionBlocks::test_rows_are_integrate_bloch_rows"]),
    (DYNAMICS, "x2 / 576.0", "x2 / 575.0",
     ["tests/test_dynamics.py::TestDensityPath::test_stable_near_guard_with_skewed_spectrum"]),
    (TABLES, '"S_pm A_qm S_qp", lambda m, p, q: -0.5', '"S_pm A_qm S_qp", lambda m, p, q: 0.5',
     ["tests/test_structure_constants.py::test_stats_are_pinned"]),
    # The time grid's and RK4's bounds, each caught by a test just beyond it.
    (DYNAMICS, "_MAX_STEPS = 2**62", "_MAX_STEPS = 2**63",
     ["tests/test_dynamics.py::TestIntegration::test_bad_spec_rejected"]),
    (DYNAMICS, "if not remainder > 1e-12 * max(spec.t_final, spec.dt):",
     "if not remainder > 1e-6 * max(spec.t_final, spec.dt):",
     ["tests/test_dynamics.py::TestIntegration::test_tail_step_just_beyond_the_rounding_slack"]),
    (DYNAMICS, "n_full = int(math.floor(spec.t_final / spec.dt + 1e-9))",
     "n_full = int(math.floor(spec.t_final / spec.dt + 1e-6))",
     ["tests/test_dynamics.py::TestIntegration::test_tail_step_just_beyond_the_rounding_slack"]),
    (DYNAMICS, "_RK4_STABILITY_LIMIT = 2.0 * math.sqrt(2.0)",
     "_RK4_STABILITY_LIMIT = 2.0 * math.sqrt(2.0) * 1.01",
     ["tests/test_dynamics.py::TestStabilityGuard::test_step_just_beyond_the_limit_refused"]),
    # simulate holds the whole trajectory instead of a block at a time.
    (CLI, "for times, rows, gap in blocks:", "for times, rows, gap in list(blocks):",
     ["tests/test_cli.py::TestStreamedSimulate::test_memory_does_not_grow_with_the_samples"]),
    # verify ignores a failed permutation spot check.
    (CLI, "if failures:", "if failures < 0:",
     ["tests/test_cli.py::TestVerify::test_spot_check_failure_exits_one"]),
    # The tables: an X family without its A instances, a constructor that
    # sorts its caller's arrays in place, and a build without its last block.
    (TABLES, 'for x in "SA" if "X" in triple else "X":', 'for x in "S" if "X" in triple else "X":',
     ["tests/test_structure_constants.py::test_each_family_is_pinned_and_never_dropped_by_value"]),
    (TABLES, "keys = keys.astype(np.int32, copy=not owned)  # N**2 - 1 < 2**31 up to MAX_TABLE_N\n"
     "    values = np.array(values, copy=not owned)",
     "keys = keys.astype(np.int32, copy=False)\n    values = np.array(values, copy=False)",
     ["tests/test_structure_constants.py::test_the_callers_arrays_are_left_as_they_were"]),
    (TABLES, "keys, values = zip(*_blocks(n_dim, kind))",
     "keys, values = zip(*list(_blocks(n_dim, kind))[:-1] or _blocks(n_dim, kind))",
     ["tests/test_structure_constants.py::test_stats_are_pinned"]),
)


def _copy(target: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, target / name, ignore=skip)
    shutil.copy2(ROOT / "pyproject.toml", target / "pyproject.toml")


def _env(copy: Path) -> dict:
    # No bytecode: a restored file may keep its size and its mtime second, and
    # would then load the mutant's cached code.
    return dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")


def _run(copy: Path, selection: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *selection],
        cwd=copy, env=_env(copy), capture_output=True, text=True,
    )


def main() -> int:
    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        _copy(copy)
        # The copy's package, not an installed one, must be the one imported.
        where = subprocess.run([sys.executable, "-c", "import sunlie; print(sunlie.__file__)"],
                               env=_env(copy), capture_output=True, text=True, check=True).stdout
        if not Path(where.strip()).resolve().is_relative_to(copy.resolve()):
            print(f"sunlie imports from {where.strip()}, not from the copy", file=sys.stderr)
            return 1
        baseline = _run(copy, sorted({test for *_, selection in MUTANTS for test in selection}))
        if baseline.returncode != 0:
            print(baseline.stdout[-2000:], file=sys.stderr)
            print("the selections fail without any mutant", file=sys.stderr)
            return 1
        for number, (name, old, new, selection) in enumerate(MUTANTS, 1):
            path = copy / name
            text = path.read_text()
            label = f"{number:2d} {name}: {old.splitlines()[0]!r}"
            if text.count(old) != 1:
                problems.append(f"{label} is found {text.count(old)} times, not once")
                print(f"STALE  {label}")
                continue
            start = time.perf_counter()
            path.write_text(text.replace(old, new))
            try:
                result = _run(copy, selection)
            finally:
                path.write_text(text)
            seconds = time.perf_counter() - start
            # pytest exits 1 when tests ran and some failed; 2-5 are errors
            # and empty selections, which kill nothing.
            if result.returncode == 1:
                print(f"KILLED {label} ({seconds:.1f} s)")
            else:
                problems.append(f"{label} survives: pytest exit {result.returncode}")
                print(f"LIVES  {label} ({seconds:.1f} s)\n{result.stdout[-1500:]}")
    for problem in problems:
        print(problem, file=sys.stderr)
    print(f"{len(MUTANTS) - len(problems)} of {len(MUTANTS)} mutants killed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
