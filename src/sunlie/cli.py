"""Command-line front end.

Subcommands:

    generators  emit one generator matrix as JSON
    constants   write the closed-form f/d tables as CSV or JSON, plus stats
    verify      closed-form tables vs the brute-force trace oracle
    adjoint     emit one adjoint-representation matrix as JSON
    simulate    integrate the precession equation for a Hamiltonian + state
    bench       time closed-form generation against the oracle

All outputs are deterministic for fixed flags and seed; CSV floats use the
shortest round-trip decimal representation.  Exit codes: 0 success, 1
verification mismatch, 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import nullcontext
from itertools import permutations
from typing import IO, ContextManager, Sequence

import numpy as np

from .adjoint import adjoint_matrix
from .dynamics import (
    RK4,
    RK45,
    IntegrationSpec,
    bloch_tdse_deviation,
    decompose_hamiltonian,
    integrate_bloch,
    state_to_bloch,
)
from .generators import AlgebraConfig, make_generator
from .indexing import GeneratorLabel, index_to_label
from .structure_constants import (
    D_KIND,
    F_KIND,
    ConstantTable,
    build_d_table,
    build_f_table,
)
from .trace_oracle import OracleCostError, estimate_cost, full_oracle_table


def _dimension(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"N must be an integer, got {text!r}") from None
    if value < 2:
        raise argparse.ArgumentTypeError("N must be >= 2")
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not value > 0:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {text}")
    return value


def _parse_label(text: str) -> GeneratorLabel:
    """Parse 'S:n,m' / 'A:n,m' / 'D:n' into a label."""
    kind, _, coords = text.partition(":")
    kind = kind.strip().upper()
    try:
        parts = [int(p) for p in coords.split(",")] if coords else []
        if kind == "D" and len(parts) == 1:
            return GeneratorLabel("D", parts[0])
        if kind in ("S", "A") and len(parts) == 2:
            return GeneratorLabel(kind, parts[0], parts[1])
    except ValueError as exc:
        raise ValueError(f"bad label {text!r}: {exc}") from None
    raise ValueError(f"bad label {text!r}: expected S:n,m A:n,m or D:n")


def _matrix_json(mat: np.ndarray, n: int, **extra) -> str:
    # + 0.0 flushes negative zeros so equal matrices serialize identically
    payload = {"n": n, **extra,
               "re": (mat.real + 0.0).tolist(), "im": (mat.imag + 0.0).tolist()}
    return json.dumps(payload)


def _complex_from_json(path: str, *, matrix: bool) -> np.ndarray:
    """re + 1j im from a JSON object: {n, re, im} for an n x n matrix, {re, im} for a vector."""
    keys = ("n", "re", "im") if matrix else ("re", "im")
    with open(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: expected a JSON object with keys {', '.join(keys)}")
    for key in keys:
        if key not in payload:
            raise ValueError(f"{path}: missing key {key!r} (need {', '.join(keys)})")
    try:
        re = np.asarray(payload["re"], dtype=float)
        im = np.asarray(payload["im"], dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"{path}: re and im must be arrays of numbers") from None
    shape = (payload["n"],) * 2 if matrix else (re.size,)
    if re.shape != shape or im.shape != shape:
        raise ValueError(f"{path}: re and im must both have shape {shape}")
    return re + 1j * im


def _open_output(path: str | None) -> ContextManager[IO[str]]:
    if path is None or path == "-":
        return nullcontext(sys.stdout)
    return open(path, "w", newline="\n")


def _write_tables_csv(fh: IO[str], tables: Sequence[ConstantTable]) -> None:
    fh.write("kind,i,j,k,value\n")
    for table in tables:
        fh.write(table.rows(f"{table.kind},"))


def _write_tables_json(
    fh: IO[str], n_dim: int, tables: Sequence[ConstantTable], stats: Sequence[tuple[int, str]]
) -> None:
    payload: dict = {"n": n_dim, "tables": []}
    for table, (count, checksum) in zip(tables, stats):
        a, b, c, values = table.contraction_arrays()
        triples = [
            {"kind": table.kind, "i": i, "j": j, "k": k, "value": v}
            for i, j, k, v in zip((a + 1).tolist(), (b + 1).tolist(), (c + 1).tolist(),
                                  values.tolist())
        ]
        payload["tables"].append(
            {"kind": table.kind, "count": count, "checksum": checksum, "triples": triples}
        )
    json.dump(payload, fh, indent=2)
    fh.write("\n")


def _build_tables(n_dim: int, kind: str) -> list[ConstantTable]:
    tables = []
    if kind in (F_KIND, "both"):
        tables.append(build_f_table(n_dim))
    if kind in (D_KIND, "both"):
        tables.append(build_d_table(n_dim))
    return tables


def _cmd_generators(args: argparse.Namespace) -> int:
    cfg = AlgebraConfig(args.n, args.hbar)
    if (args.index is None) == (args.label is None):
        raise ValueError("provide exactly one of --index or --label")
    if args.index is not None:
        label = index_to_label(args.index, cfg.n_dim)
    else:
        label = _parse_label(args.label)
    mat = make_generator(cfg, label)
    with _open_output(args.output) as fh:
        fh.write(_matrix_json(mat, cfg.n_dim) + "\n")
    return 0


def _cmd_constants(args: argparse.Namespace) -> int:
    tables = _build_tables(args.n, args.kind)
    stats = [table.stats() for table in tables]
    stats_stream = sys.stdout if args.output else sys.stderr
    with _open_output(args.output) as fh:
        if args.format == "csv":
            _write_tables_csv(fh, tables)
        else:
            _write_tables_json(fh, args.n, tables, stats)
    for table, (count, checksum) in zip(tables, stats):
        print(f"kind={table.kind} n={table.n_dim} count={count} checksum={checksum}",
              file=stats_stream)
    return 0


def _compare_tables(closed: ConstantTable, oracle: ConstantTable, tol: float) -> list[str]:
    """Triple-level differences; empty means exact support match within tol."""
    closed_map = closed.as_dict()
    oracle_map = oracle.as_dict()
    problems = []
    for key in sorted(oracle_map.keys() - closed_map.keys()):
        problems.append(f"missing {key}: oracle={oracle_map[key]!r}")
    for key in sorted(closed_map.keys() - oracle_map.keys()):
        problems.append(f"spurious {key}: closed-form={closed_map[key]!r}")
    for key in sorted(closed_map.keys() & oracle_map.keys()):
        delta = abs(closed_map[key] - oracle_map[key])
        if delta > tol:
            problems.append(
                f"value {key}: closed-form={closed_map[key]!r} "
                f"oracle={oracle_map[key]!r} |delta|={delta:.3e}"
            )
    return problems


def _permutation_spot_check(tables: Sequence[ConstantTable], seed: int, draws: int = 1000) -> int:
    """Seeded random check that lookup respects permutation symmetry exactly."""
    rng = np.random.default_rng(seed)
    failures = 0
    for table in tables:
        top = table.n_dim * table.n_dim - 1
        idx = rng.integers(1, top + 1, size=(draws, 3))
        for i, j, k in idx:
            base = table.lookup(int(i), int(j), int(k))
            for perm, sign in zip(permutations((int(i), int(j), int(k))),
                                  (1.0, -1.0, -1.0, 1.0, 1.0, -1.0)):
                expected = base * sign if table.kind == F_KIND else base
                if table.lookup(*perm) != expected:
                    failures += 1
    return failures


def _cmd_verify(args: argparse.Namespace) -> int:
    cfg = AlgebraConfig(args.n, args.hbar)
    tables = _build_tables(args.n, args.kind)
    status = 0
    for closed in tables:
        oracle = full_oracle_table(cfg, closed.kind)
        problems = _compare_tables(closed, oracle, args.tol)
        verdict = "OK" if not problems else "FAIL"
        print(
            f"kind={closed.kind} n={args.n} closed={len(closed)} oracle={len(oracle)} "
            f"tol={args.tol:g} {verdict}"
        )
        for line in problems:
            print(f"  {line}")
        if problems:
            status = 1
    failures = _permutation_spot_check(tables, args.seed)
    print(f"permutation spot check: draws=1000 seed={args.seed} failures={failures}")
    if failures:
        status = 1
    return status


def _cmd_adjoint(args: argparse.Namespace) -> int:
    table = build_f_table(args.n)
    mat = adjoint_matrix(table, args.index)
    with _open_output(args.output) as fh:
        fh.write(_matrix_json(mat, args.n, index=args.index, dim=mat.shape[0]) + "\n")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    hamiltonian = _complex_from_json(args.hamiltonian, matrix=True)
    psi0 = _complex_from_json(args.initial, matrix=False)
    n_dim = hamiltonian.shape[0]
    if psi0.shape != (n_dim,):
        raise ValueError(
            f"initial state has length {psi0.shape[0]}, Hamiltonian is {n_dim} x {n_dim}"
        )
    cfg = AlgebraConfig(n_dim, args.hbar)
    spec = IntegrationSpec(
        t_final=args.t_final,
        dt=args.dt,
        method=args.method,
        atol=args.atol,
        rtol=args.rtol,
        output_stride=args.stride,
    )
    table = build_f_table(n_dim)
    coeffs = decompose_hamiltonian(cfg, hamiltonian)
    s0 = state_to_bloch(cfg, psi0)
    traj = integrate_bloch(table, coeffs, s0, spec)
    with _open_output(args.output) as fh:
        header = ",".join(["t"] + [f"s_{k}" for k in range(1, cfg.dim + 1)])
        fh.write(header + "\n")
        for t, row in zip(traj.times, traj.states):
            fh.write(",".join([repr(float(t))] + [repr(float(x)) for x in row]) + "\n")
    if args.compare_tdse:
        deviation = bloch_tdse_deviation(cfg, table, hamiltonian, psi0, spec)
        print(f"max_tdse_deviation={deviation!r}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.repeats < 1:
        raise ValueError(f"--repeats must be >= 1, got {args.repeats}")
    best = float("inf")
    for _ in range(args.repeats):
        start = time.perf_counter()
        f_table, d_table = _build_tables(args.n, "both")
        best = min(best, time.perf_counter() - start)
    print(f"closed-form n={args.n}: f={len(f_table)} d={len(d_table)} triples in {best:.6f} s")

    cfg = AlgebraConfig(args.n, args.hbar)
    try:
        start = time.perf_counter()
        for kind in (F_KIND, D_KIND):
            full_oracle_table(cfg, kind)
        oracle_elapsed = time.perf_counter() - start
    except OracleCostError as exc:
        triples = sum(estimate_cost(args.n, kind)[0] for kind in (F_KIND, D_KIND))
        print(f"oracle n={args.n}: refused ({exc})")
        print(f"oracle n={args.n}: would need {triples} trace evaluations")
        return 0
    print(f"oracle n={args.n}: both kinds in {oracle_elapsed:.6f} s")
    print(f"speedup: {oracle_elapsed / best:.1f}x")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sunlie",
        description="su(N) generator basis, closed-form structure constants, "
        "adjoint representation, and generalized spin precession.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generators", help="emit one generator matrix as JSON")
    p.add_argument("--n", type=_dimension, required=True, help="matrix dimension N >= 2")
    p.add_argument("--hbar", type=_positive_float, default=1.0)
    p.add_argument("--index", type=int, help="linear index in 1..N^2-1")
    p.add_argument("--label", help="label as S:n,m A:n,m or D:n")
    p.add_argument("--output", help="file path (default stdout)")
    p.set_defaults(func=_cmd_generators)

    p = sub.add_parser("constants", help="write the closed-form constant tables")
    p.add_argument("--n", type=_dimension, required=True)
    p.add_argument("--kind", choices=(F_KIND, D_KIND, "both"), default="both")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", help="file path (default stdout; stats then go to stderr)")
    p.set_defaults(func=_cmd_constants)

    p = sub.add_parser("verify", help="closed-form tables vs the trace oracle")
    p.add_argument("--n", type=_dimension, required=True)
    p.add_argument("--kind", choices=(F_KIND, D_KIND, "both"), default="both")
    p.add_argument("--tol", type=_positive_float, default=1e-12)
    p.add_argument("--hbar", type=_positive_float, default=1.0)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("adjoint", help="emit one adjoint matrix as JSON")
    p.add_argument("--n", type=_dimension, required=True)
    p.add_argument("--index", type=int, required=True)
    p.add_argument("--output", help="file path (default stdout)")
    p.set_defaults(func=_cmd_adjoint)

    p = sub.add_parser("simulate", help="integrate the precession equation")
    p.add_argument("--hamiltonian", required=True, help="JSON file {n, re, im}")
    p.add_argument("--initial", required=True, help="JSON file {re, im}")
    p.add_argument("--t-final", type=float, required=True)
    p.add_argument("--dt", type=_positive_float, required=True)
    p.add_argument("--method", choices=(RK4, RK45), default=RK4)
    p.add_argument("--atol", type=_positive_float, default=1e-10)
    p.add_argument("--rtol", type=_positive_float, default=1e-10)
    p.add_argument("--stride", type=int, default=1, help="record every k-th step")
    p.add_argument("--hbar", type=_positive_float, default=1.0)
    p.add_argument("--output", help="trajectory CSV path (default stdout)")
    p.add_argument("--compare-tdse", action="store_true",
                   help="also integrate the amplitude equation and print the max gap")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("bench", help="time closed-form generation vs the oracle")
    p.add_argument("--n", type=_dimension, required=True)
    p.add_argument("--hbar", type=_positive_float, default=1.0)
    p.add_argument("--repeats", type=int, default=3, help="closed-form timing repeats")
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
