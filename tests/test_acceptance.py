"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Numbers and tolerances are pinned here on purpose; loosening them is a
release decision, not a test fix.
"""

import math
import time
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest

import sunlie.cli as cli
from conftest import per_triple_table, random_hermitian, random_state
from sunlie.adjoint import verify_adjoint_commutators
from sunlie.dynamics import (
    IntegrationSpec,
    decompose_hamiltonian,
    integrate_bloch,
    state_to_bloch,
    bloch_tdse_deviation,
)
from sunlie.generators import AlgebraConfig, decompose_diagonal, make_generator
from sunlie.indexing import diagonal
from sunlie.structure_constants import D_KIND, F_KIND, build_d_table, build_f_table
from sunlie.trace_oracle import OracleCostError, full_oracle_table

GOLDEN = Path(__file__).parent / "golden"
SEED = 42


def report(number: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {number}: {detail}"


def test_criterion_1_oracle_equivalence():
    worst = 0.0
    start = time.perf_counter()
    for n_dim in range(2, 9):
        cfg = AlgebraConfig(n_dim)
        for kind, build in ((F_KIND, build_f_table), (D_KIND, build_d_table)):
            closed = build(n_dim).as_dict()
            oracle = full_oracle_table(cfg, kind).as_dict()
            assert closed.keys() == oracle.keys(), (
                f"support mismatch at N={n_dim} kind={kind}: "
                f"missing={sorted(oracle.keys() - closed.keys())[:5]} "
                f"spurious={sorted(closed.keys() - oracle.keys())[:5]}"
            )
            if closed:
                worst = max(worst, max(abs(closed[k] - oracle[k]) for k in closed))
    elapsed = time.perf_counter() - start
    report(
        1,
        worst <= 1e-12,
        f"closed form vs trace oracle, N=2..8 both kinds: exact support, "
        f"max |delta| = {worst:.2e} (tol 1e-12), {elapsed:.1f} s",
    )


def test_criterion_2_su2_su3_golden_values():
    sqrt3 = math.sqrt(3.0)
    f2 = build_f_table(2).as_dict()
    f3 = build_f_table(3).as_dict()
    d3 = build_d_table(3).as_dict()
    expected_f3 = {
        (1, 2, 3): 1.0,
        (1, 4, 7): 0.5,
        (1, 5, 6): -0.5,
        (2, 4, 6): 0.5,
        (2, 5, 7): 0.5,
        (3, 4, 5): 0.5,
        (3, 6, 7): -0.5,
        (4, 5, 8): sqrt3 / 2.0,
        (6, 7, 8): sqrt3 / 2.0,
    }
    expected_d3 = {
        (1, 1, 8): 1.0 / sqrt3,
        (2, 2, 8): 1.0 / sqrt3,
        (3, 3, 8): 1.0 / sqrt3,
        (8, 8, 8): -1.0 / sqrt3,
        (1, 4, 6): 0.5,
        (1, 5, 7): 0.5,
        (2, 4, 7): -0.5,
        (2, 5, 6): 0.5,
        (3, 4, 4): 0.5,
        (3, 5, 5): 0.5,
        (3, 6, 6): -0.5,
        (3, 7, 7): -0.5,
        (4, 4, 8): -0.5 / sqrt3,
        (5, 5, 8): -0.5 / sqrt3,
        (6, 6, 8): -0.5 / sqrt3,
        (7, 7, 8): -0.5 / sqrt3,
    }
    ok = f2 == {(1, 2, 3): 1.0}
    ok &= f3.keys() == expected_f3.keys() and d3.keys() == expected_d3.keys()
    worst = max(
        max(abs(f3[k] - v) for k, v in expected_f3.items()),
        max(abs(d3[k] - v) for k, v in expected_d3.items()),
    )
    report(
        2,
        ok and worst <= 1e-14,
        f"su(2) Levi-Civita + su(3) 9 f / 16 d radical values, "
        f"max |delta| = {worst:.2e} (tol 1e-14)",
    )


def test_criterion_3_symmetry_and_jacobi():
    rng = np.random.default_rng(SEED)
    signs = (1.0, -1.0, -1.0, 1.0, 1.0, -1.0)
    failures = 0
    checks = 0
    for kind, build in ((F_KIND, build_f_table), (D_KIND, build_d_table)):
        table = build(6)
        top = 35
        draws = rng.integers(1, top + 1, size=(10_000, 3))
        for i, j, k in draws:
            base = table.lookup(int(i), int(j), int(k))
            for perm, sign in zip(permutations((int(i), int(j), int(k))), signs):
                expected = base * sign if kind == F_KIND else base
                checks += 1
                if table.lookup(*perm) != expected:
                    failures += 1

    worst_jacobi = 0.0
    for n_dim in range(2, 7):
        table = build_f_table(n_dim)
        top = n_dim * n_dim - 1
        for _ in range(1000):
            i, j, k, l = (int(x) for x in rng.integers(1, top + 1, size=4))
            residual = sum(
                table.lookup(i, j, m) * table.lookup(m, k, l)
                + table.lookup(j, k, m) * table.lookup(m, i, l)
                + table.lookup(k, i, m) * table.lookup(m, j, l)
                for m in range(1, top + 1)
            )
            worst_jacobi = max(worst_jacobi, abs(residual))
    report(
        3,
        failures == 0 and worst_jacobi <= 1e-12,
        f"{checks} seeded permutation checks exact ({failures} failures); "
        f"Jacobi residual max = {worst_jacobi:.2e} over 1000 draws x N=2..6 (tol 1e-12)",
    )


def test_criterion_4_adjoint_representation():
    worst_exhaustive = 0.0
    for n_dim in range(2, 7):
        rep = verify_adjoint_commutators(build_f_table(n_dim))
        assert rep.exhaustive
        worst_exhaustive = max(worst_exhaustive, rep.max_deviation)
    sampled = verify_adjoint_commutators(build_f_table(12), seed=SEED)
    report(
        4,
        worst_exhaustive <= 1e-12 and sampled.max_deviation <= 1e-12,
        f"commutator representation: exhaustive N<=6 max dev = {worst_exhaustive:.2e}, "
        f"200 sampled pairs at N=12 max dev = {sampled.max_deviation:.2e} (tol 1e-12)",
    )


def test_criterion_5_cartan_closure():
    checked = 0
    nonzero = 0
    for n_dim in range(2, 9):
        table = build_f_table(n_dim)
        top = n_dim * n_dim - 1
        cartan = [n * n - 1 for n in range(2, n_dim + 1)]
        for a in cartan:
            for b in cartan:
                for k in range(1, top + 1):
                    checked += 1
                    if table.lookup(a, b, k) != 0.0:
                        nonzero += 1
    report(
        5,
        nonzero == 0,
        f"Cartan closure: {checked} exhaustive lookups with two diagonal "
        f"indices for N=2..8, all zero ({nonzero} violations)",
    )


def test_criterion_6_diagonal_decomposition_identities():
    worst = 0.0
    hbar = 1.0
    for n_dim in range(2, 11):
        cfg = AlgebraConfig(n_dim, hbar=hbar)
        cartan = {n: make_generator(cfg, diagonal(n)) for n in range(2, n_dim + 1)}

        def check(mat, expected_c0, expected_coeffs):
            nonlocal worst
            c0, coeffs = decompose_diagonal(cfg, mat)
            worst = max(worst, abs(c0 - expected_c0))
            for q in range(2, n_dim + 1):
                worst = max(worst, abs(coeffs[q] - expected_coeffs.get(q, 0.0)))
            rebuilt = c0 * np.eye(n_dim, dtype=complex)
            for q, c in coeffs.items():
                rebuilt += c * cartan[q]
            worst = max(worst, np.abs(rebuilt - mat).max())

        for n in range(2, n_dim + 1):
            # projector-square identity: support on the first n levels only
            mat = np.zeros((n_dim, n_dim))
            mat[: n - 1, : n - 1] = np.diag([hbar**2 / (n * (n - 1))] * (n - 1))
            mat[n - 1, n - 1] = hbar**2 * (1 - n) ** 2 / (n * (n - 1))
            coeffs = {k: hbar * math.sqrt(2.0 / (k * (k - 1))) for k in range(n + 1, n_dim + 1)}
            coeffs[n] = hbar * (2 - n) * math.sqrt(2.0 / (n * (n - 1)))
            check(mat, hbar**2 / n_dim, coeffs)

            for m in range(1, n):
                # projector difference
                mat = np.zeros((n_dim, n_dim))
                mat[m - 1, m - 1] = hbar**2 / 2.0
                mat[n - 1, n - 1] = -(hbar**2) / 2.0
                coeffs = {n: hbar * math.sqrt(n / (2.0 * (n - 1)))}
                for k in range(m + 1, n):
                    coeffs[k] = hbar / math.sqrt(2.0 * k * (k - 1))
                if m >= 2:
                    coeffs[m] = -hbar * math.sqrt((m - 1) / (2.0 * m))
                check(mat, 0.0, coeffs)

                # projector sum
                mat = np.abs(mat)
                coeffs = {k: hbar * math.sqrt(2.0 / (k * (k - 1))) for k in range(n + 1, n_dim + 1)}
                coeffs[n] = hbar * (2 - n) / math.sqrt(2.0 * n * (n - 1))
                for k in range(m + 1, n):
                    coeffs[k] = hbar / math.sqrt(2.0 * k * (k - 1))
                if m >= 2:
                    coeffs[m] = -hbar * math.sqrt((m - 1) / (2.0 * m))
                check(mat, hbar**2 / n_dim, coeffs)

    report(
        6,
        worst <= 1e-13,
        f"three diagonal decomposition identities, all (n, m) for N=2..10: "
        f"max coefficient/reconstruction error = {worst:.2e} (tol 1e-13)",
    )


def test_criterion_7_dynamics_equivalence():
    rng = np.random.default_rng(SEED)
    spec = IntegrationSpec(t_final=10.0, dt=1e-3, output_stride=10)
    worst_dev = 0.0
    worst_drift = 0.0
    start = time.perf_counter()
    for n_dim in range(2, 7):
        cfg = AlgebraConfig(n_dim)
        table = build_f_table(n_dim)
        for _ in range(20):
            mat = random_hermitian(rng, n_dim)
            psi0 = random_state(rng, n_dim)
            dev = bloch_tdse_deviation(cfg, table, mat, psi0, spec)
            worst_dev = max(worst_dev, dev)
            coeffs = decompose_hamiltonian(cfg, mat)
            traj = integrate_bloch(table, coeffs, state_to_bloch(cfg, psi0), spec)
            casimir = np.sum(traj.states**2, axis=1)
            worst_drift = max(worst_drift, float(np.abs(casimir - casimir[0]).max()))
    elapsed = time.perf_counter() - start
    report(
        7,
        worst_dev <= 1e-6 and worst_drift <= 1e-8,
        f"20 seeded (H, psi0) x N=2..6, t in [0,10], RK4 dt=1e-3: "
        f"max trajectory gap = {worst_dev:.2e} (tol 1e-6), "
        f"coherence-norm drift = {worst_drift:.2e} (tol 1e-8), {elapsed:.0f} s",
    )


def test_criterion_8_performance():
    start = time.perf_counter()
    f64 = build_f_table(64)
    d64 = build_d_table(64)
    elapsed_64 = time.perf_counter() - start
    assert len(f64) == 212_289 and len(d64) == 343_263

    with pytest.raises(OracleCostError) as refusal:
        full_oracle_table(AlgebraConfig(64), F_KIND)
    assert "trace evaluations" in str(refusal.value)

    closed_best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        build_f_table(6)
        build_d_table(6)
        closed_best = min(closed_best, time.perf_counter() - t0)
    # The brute force timed is the per-triple trace loop, one contraction per
    # triple; the oracle takes the same contractions a row of pairs at a time
    # and must give the same table bit for bit.
    cfg6 = AlgebraConfig(6)
    t0 = time.perf_counter()
    looped = [per_triple_table(cfg6, kind) for kind in (F_KIND, D_KIND)]
    oracle_elapsed = time.perf_counter() - t0
    speedup = oracle_elapsed / closed_best
    for table in looped:
        oracle = full_oracle_table(cfg6, table.kind)
        assert oracle._index.tobytes() == table._index.tobytes()
        assert oracle._values.tobytes() == table._values.tobytes()

    report(
        8,
        elapsed_64 <= 5.0 and speedup >= 100.0,
        f"N=64 f+d tables (555552 triples) in {elapsed_64:.2f} s (budget 5 s); "
        f"oracle refused N=64 with cost estimate; N=6 speedup {speedup:.0f}x (floor 100x)",
    )


def test_criterion_9_reproducible_golden_files(tmp_path, capsys):
    mismatches = []
    for n_dim in (2, 3, 4):
        out_path = tmp_path / f"constants_n{n_dim}.csv"
        status = cli.main(
            ["constants", "--n", str(n_dim), "--kind", "both", "--format", "csv",
             "--output", str(out_path)]
        )
        capsys.readouterr()
        assert status == 0
        if out_path.read_bytes() != (GOLDEN / f"constants_n{n_dim}.csv").read_bytes():
            mismatches.append(n_dim)
    report(
        9,
        not mismatches,
        f"constants output for N=2,3,4 byte-identical to committed golden files "
        f"(mismatches: {mismatches or 'none'})",
    )
