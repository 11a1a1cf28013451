"""Command-line front end.

Subcommands:

    generators  emit one generator matrix as JSON
    constants   write the closed-form f/d tables as CSV or JSON, plus stats
    verify      closed-form tables vs the brute-force trace oracle
    adjoint     emit one adjoint-representation matrix as JSON
    simulate    integrate the precession equation for a Hamiltonian + state,
                writing (and comparing) its trajectory a block at a time
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
from .dynamics import EXACT, RK4, IntegrationSpec, precession_blocks
from .generators import AlgebraConfig, make_generator
from .indexing import GeneratorLabel, _integer, index_to_label
from .structure_constants import (
    D_KIND,
    F_KIND,
    ConstantTable,
    _check_table_dimension,
    build_d_table,
    build_f_table,
    write_tables,
)
from .trace_oracle import OracleCostError, check_ceiling, estimate_cost, full_oracle_table

SPOT_CHECK_DRAWS = 1000
# verify's bound on |closed form - oracle| for each triple, and bench's best-of count.
VERIFY_TOL = 1e-12
BENCH_REPEATS = 3


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


def _write_matrix_json(fh: IO[str], mat: np.ndarray, n: int, **extra) -> None:
    """The line json.dumps({"n": n, **extra, "re": ..., "im": ...}) writes, a row at a time."""
    fh.write(json.dumps({"n": n, **extra})[:-1])
    zero = json.dumps([0.0] * mat.shape[1])  # most rows of a generator or adjoint matrix
    for key, part in (("re", mat.real), ("im", mat.imag)):
        # + 0.0 flushes negative zeros so equal matrices serialize identically
        rows = (json.dumps((row + 0.0).tolist()) if row.any() else zero for row in part)
        fh.write(f', "{key}": [' + next(rows))
        fh.writelines(", " + text for text in rows)
        fh.write("]")
    fh.write("}\n")


def _complex_from_json(path: str, *, matrix: bool) -> np.ndarray:
    """re + 1j im from a JSON object: {n, re, im} for an n x n matrix, {re, im} for a vector."""
    keys = ("n", "re", "im") if matrix else ("re", "im")
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except (ValueError, RecursionError) as exc:  # not JSON, not UTF-8, or nested too deep
            raise ValueError(f"{path}: {exc}") from None
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
    if not (np.isfinite(re).all() and np.isfinite(im).all()):  # JSON's Infinity and NaN
        raise ValueError(f"{path}: re and im have non-finite entries")
    shape = (_integer(payload["n"], f"{path}: n", 1),) * 2 if matrix else (re.size,)
    if re.shape != shape or im.shape != shape:
        raise ValueError(f"{path}: re and im must both have shape {shape}")
    return re + 1j * im


def _open_output(path: str | None) -> ContextManager[IO[str]]:
    if path is None or path == "-":
        return nullcontext(sys.stdout)
    return open(path, "w", newline="\n")


def _report_stream(output: str | None) -> IO[str]:
    """Where a command's report lines go: stderr while its main output is on stdout."""
    return sys.stderr if output is None or output == "-" else sys.stdout


def _table_output(path: str | None) -> ContextManager[IO[bytes]]:
    """Where `constants` writes its table bytes: the file, or the byte layer of stdout."""
    if path is None or path == "-":
        if not hasattr(sys.stdout, "buffer"):  # an io.StringIO standing in for stdout
            raise ValueError("stdout takes no bytes here; write the tables with --output PATH")
        sys.stdout.flush()  # text already written to stdout goes first
        return nullcontext(sys.stdout.buffer)
    return open(path, "wb")


def _kinds(kind: str) -> tuple[str, ...]:
    """The table kinds that ``kind`` names, f first."""
    return (F_KIND, D_KIND) if kind == "both" else (kind,)


def _tables(n_dim: int, kind: str) -> list[ConstantTable]:
    """The whole tables that ``kind`` names, f first."""
    build = {F_KIND: build_f_table, D_KIND: build_d_table}
    return [build[name](n_dim) for name in _kinds(kind)]


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
        _write_matrix_json(fh, mat, cfg.n_dim)
    return 0


def _cmd_constants(args: argparse.Namespace) -> int:
    _check_table_dimension(args.n)  # refused before the output is opened
    with _table_output(args.output) as fh:
        stats = write_tables(fh, args.n, _kinds(args.kind), args.format == "json")
    print("\n".join(f"kind={kind} n={args.n} count={count} checksum={checksum}"
                    for kind, count, checksum in stats), file=_report_stream(args.output))
    return 0


def _compare_tables(closed: ConstantTable, oracle: ConstantTable) -> list[str]:
    """Triple-level differences; empty means exact support match within VERIFY_TOL."""
    closed_map = closed.as_dict()
    oracle_map = oracle.as_dict()
    problems = []
    for key in sorted(oracle_map.keys() - closed_map.keys()):
        problems.append(f"missing {key}: oracle={oracle_map[key]!r}")
    for key in sorted(closed_map.keys() - oracle_map.keys()):
        problems.append(f"spurious {key}: closed-form={closed_map[key]!r}")
    for key in sorted(closed_map.keys() & oracle_map.keys()):
        delta = abs(closed_map[key] - oracle_map[key])
        if delta > VERIFY_TOL:
            problems.append(
                f"value {key}: closed-form={closed_map[key]!r} "
                f"oracle={oracle_map[key]!r} |delta|={delta:.3e}"
            )
    return problems


def _permutation_spot_check(tables: Sequence[ConstantTable], seed: int) -> int:
    """Seeded random check, SPOT_CHECK_DRAWS triples per table, that lookup
    respects permutation symmetry exactly."""
    rng = np.random.default_rng(seed)
    failures = 0
    for table in tables:
        top = table.n_dim * table.n_dim - 1
        idx = rng.integers(1, top + 1, size=(SPOT_CHECK_DRAWS, 3))
        for i, j, k in idx:
            base = table.lookup(int(i), int(j), int(k))
            for perm, sign in zip(permutations((int(i), int(j), int(k))),
                                  (1.0, -1.0, -1.0, 1.0, 1.0, -1.0)):
                expected = base * sign if table.kind == F_KIND else base
                if table.lookup(*perm) != expected:
                    failures += 1
    return failures


def _cmd_verify(args: argparse.Namespace) -> int:
    _integer(args.seed, "seed", 0)  # refused before a line is written
    cfg = AlgebraConfig(args.n, args.hbar)
    check_ceiling(args.n, _kinds(args.kind))  # refused before a table is built
    tables = _tables(args.n, args.kind)
    status = 0
    for closed in tables:
        oracle = full_oracle_table(cfg, closed.kind)
        problems = _compare_tables(closed, oracle)
        verdict = "OK" if not problems else "FAIL"
        print(
            f"kind={closed.kind} n={args.n} closed={len(closed)} oracle={len(oracle)} "
            f"tol={VERIFY_TOL:g} {verdict}"
        )
        for line in problems:
            print(f"  {line}")
        if problems:
            status = 1
    failures = _permutation_spot_check(tables, args.seed)
    print(f"permutation spot check: draws={SPOT_CHECK_DRAWS} seed={args.seed} failures={failures}")
    if failures:
        status = 1
    return status


def _cmd_adjoint(args: argparse.Namespace) -> int:
    n_dim = _check_table_dimension(args.n)
    _integer(args.index, "index", 1, n_dim * n_dim - 1)  # refused before the table is built
    table = build_f_table(n_dim)
    mat = adjoint_matrix(table, args.index)
    with _open_output(args.output) as fh:
        _write_matrix_json(fh, mat, args.n, index=args.index, dim=mat.shape[0])
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    hamiltonian = _complex_from_json(args.hamiltonian, matrix=True)
    psi0 = _complex_from_json(args.initial, matrix=False)
    cfg = AlgebraConfig(hamiltonian.shape[0], args.hbar)
    spec = IntegrationSpec(
        t_final=args.t_final,
        dt=args.dt,
        method=args.method,
        output_stride=args.stride,
    )
    # A block at a time.  Every refusal but the amplitude norm drift, which
    # only the last block settles, comes before the output is opened.
    blocks = precession_blocks(cfg, hamiltonian, psi0, spec, args.compare_tdse)
    with _open_output(args.output) as fh:
        header = ",".join(["t"] + [f"s_{k}" for k in range(1, cfg.dim + 1)])
        fh.write(header + "\n")
        for times, rows, gap in blocks:
            fh.writelines(",".join(map(repr, [t] + row.tolist())) + "\n"
                          for t, row in zip(times.tolist(), rows))
    if args.compare_tdse:
        print(f"max_tdse_deviation={gap!r}", file=_report_stream(args.output))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    best = float("inf")
    for _ in range(BENCH_REPEATS):
        start = time.perf_counter()
        f_table, d_table = _tables(args.n, "both")
        best = min(best, time.perf_counter() - start)
    print(f"closed-form n={args.n}: f={len(f_table)} d={len(d_table)} triples in {best:.6f} s")

    try:
        check_ceiling(args.n, (F_KIND, D_KIND))
    except OracleCostError as exc:
        triples = sum(estimate_cost(args.n, kind)[0] for kind in (F_KIND, D_KIND))
        print(f"oracle n={args.n}: refused ({exc})")
        print(f"oracle n={args.n}: would need {triples} trace evaluations")
        return 0
    cfg = AlgebraConfig(args.n)
    start = time.perf_counter()
    for kind in (F_KIND, D_KIND):
        full_oracle_table(cfg, kind)
    oracle_elapsed = time.perf_counter() - start
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
    p.add_argument("--n", type=int, required=True, help="matrix dimension N >= 2")
    p.add_argument("--hbar", type=float, default=1.0)
    p.add_argument("--index", type=int, help="linear index in 1..N^2-1")
    p.add_argument("--label", help="label as S:n,m A:n,m or D:n")
    p.add_argument("--output", help="file path (default stdout)")
    p.set_defaults(func=_cmd_generators)

    p = sub.add_parser("constants", help="write the closed-form constant tables")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kind", choices=(F_KIND, D_KIND, "both"), default="both")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", help="file path (default stdout; stats then go to stderr)")
    p.set_defaults(func=_cmd_constants)

    p = sub.add_parser("verify", help="closed-form tables vs the trace oracle")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kind", choices=(F_KIND, D_KIND, "both"), default="both")
    p.add_argument("--hbar", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("adjoint", help="emit one adjoint matrix as JSON")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--index", type=int, required=True)
    p.add_argument("--output", help="file path (default stdout)")
    p.set_defaults(func=_cmd_adjoint)

    p = sub.add_parser("simulate", help="integrate the precession equation")
    p.add_argument("--hamiltonian", required=True, help="JSON file {n, re, im}")
    p.add_argument("--initial", required=True, help="JSON file {re, im}")
    p.add_argument("--t-final", type=float, required=True)
    p.add_argument("--dt", type=float, required=True)
    p.add_argument("--method", choices=(RK4, EXACT), default=RK4)
    p.add_argument("--stride", type=int, default=1, help="record every k-th step")
    p.add_argument("--hbar", type=float, default=1.0)
    p.add_argument("--output",
                   help="trajectory CSV path (default stdout; the gap then goes to stderr)")
    p.add_argument("--compare-tdse", action="store_true",
                   help="also integrate the amplitude equation and print the max gap")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("bench", help="time closed-form generation vs the oracle")
    p.add_argument("--n", type=int, required=True)
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
