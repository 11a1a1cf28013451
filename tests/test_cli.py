import ast
import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

import sunlie.cli as cli
import sunlie.dynamics as dynamics
import sunlie.structure_constants as structure_constants
from conftest import random_hermitian, random_state, summed_refusal, traced_peak
from sunlie.adjoint import adjoint_matrix
from sunlie.dynamics import IntegrationSpec
from sunlie.generators import AlgebraConfig, make_generator
from sunlie.indexing import index_to_label
from sunlie.structure_constants import ConstantTable, build_d_table, build_f_table
from sunlie.trace_oracle import OracleCostError, full_oracle_table

GOLDEN = Path(__file__).parent / "golden"


def reference_tables_json(n_dim, tables):
    """What `constants --format json` wrote through json.dump: one dict per triple."""
    payload = {"n": n_dim, "tables": []}
    for table in tables:
        count, checksum = table.stats()
        a, b, c, values = table.contraction_arrays()
        triples = [
            {"kind": table.kind, "i": i, "j": j, "k": k, "value": v}
            for i, j, k, v in zip((a + 1).tolist(), (b + 1).tolist(), (c + 1).tolist(),
                                  values.tolist())
        ]
        payload["tables"].append(
            {"kind": table.kind, "count": count, "checksum": checksum, "triples": triples})
    out = io.StringIO()
    json.dump(payload, out, indent=2)
    return out.getvalue() + "\n"


def reference_matrix_json(mat, n_dim, **extra):
    """What `generators` and `adjoint` wrote through json.dumps of the whole matrix."""
    payload = {"n": n_dim, **extra,
               "re": (mat.real + 0.0).tolist(), "im": (mat.imag + 0.0).tolist()}
    return json.dumps(payload) + "\n"


def matrix_indices(n_dim):
    """Every generator index up to N = 5; at N = 16 symmetric, antisymmetric
    and Cartan generators at both ends and in the middle of the basis."""
    if n_dim <= 5:
        return range(1, n_dim * n_dim)
    return (1, 2, 3, 4, 8, 99, 100, 101, 120, 224, 225, 226, 253, 254, 255)


def run(capsys, *argv):
    status = cli.main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def reference_simulate(cfg, hamiltonian, psi0, spec):
    """The trajectory CSV and the max gap of `simulate --compare-tdse` from whole
    trajectories: the precession states collected and turned into floats by one
    tolist, and the gap taken over the whole mapped amplitude trajectory."""
    coeffs = dynamics.decompose_hamiltonian(cfg, hamiltonian)
    traj = dynamics.integrate_bloch(build_f_table(cfg.n_dim), coeffs,
                                    dynamics.state_to_bloch(cfg, psi0), spec)
    lines = [",".join(["t"] + [f"s_{k}" for k in range(1, cfg.dim + 1)])]
    for t, row in zip(traj.times.tolist(), traj.states.tolist()):
        lines.append(",".join([repr(t)] + [repr(x) for x in row]))
    amp = dynamics.integrate_tdse(cfg, hamiltonian, psi0, spec)
    np.testing.assert_array_equal(amp.times, traj.times)
    assert np.abs(np.sum(np.abs(amp.states) ** 2, axis=1) - 1.0).max() <= 1e-6
    gap = float(np.abs(traj.states - dynamics.bloch_from_states(cfg, amp.states)).max())
    return "\n".join(lines) + "\n", gap


def write_problem(tmp_path, mat, psi):
    """H and psi0 as the JSON files `simulate` reads."""
    h_path, psi_path = tmp_path / "h.json", tmp_path / "psi.json"
    h_path.write_text(json.dumps({"n": len(mat), "re": mat.real.tolist(),
                                  "im": mat.imag.tolist()}))
    psi_path.write_text(json.dumps({"re": psi.real.tolist(), "im": psi.imag.tolist()}))
    return h_path, psi_path


class TestGenerators:
    def test_by_index_matches_library(self, capsys, tmp_path):
        out_path = tmp_path / "gen.json"
        status, _, _ = run(
            capsys, "generators", "--n", "3", "--hbar", "2", "--index", "8",
            "--output", str(out_path),
        )
        assert status == 0
        payload = json.loads(out_path.read_text())
        assert payload["n"] == 3
        mat = np.asarray(payload["re"]) + 1j * np.asarray(payload["im"])
        expected = make_generator(AlgebraConfig(3, 2.0), index_to_label(8, 3))
        np.testing.assert_allclose(mat, expected, atol=1e-15)

    @pytest.mark.parametrize("n_dim", [2, 3, 4, 5, 16])
    def test_json_matches_json_dumps(self, capsys, n_dim):
        cfg = AlgebraConfig(n_dim, 2.0)
        for index in matrix_indices(n_dim):
            status, out, _ = run(capsys, "generators", "--n", str(n_dim), "--hbar", "2",
                                 "--index", str(index))
            assert status == 0
            assert out == reference_matrix_json(
                make_generator(cfg, index_to_label(index, n_dim)), n_dim)

    def test_json_flushes_negative_zeros(self):
        mat = np.empty((2, 2), dtype=complex)
        mat.real, mat.imag = [[-0.0, 1.0], [-2.5, 0.0]], [[0.0, -0.0], [-1.0, -0.0]]
        out = io.StringIO()
        cli._write_matrix_json(out, mat, 2, index=1)
        assert out.getvalue() == reference_matrix_json(mat, 2, index=1)
        assert "-0.0" not in out.getvalue() and "-2.5" in out.getvalue()

    def test_by_label(self, capsys):
        status, out, _ = run(capsys, "generators", "--n", "2", "--hbar", "2", "--label", "A:2,1")
        assert status == 0
        payload = json.loads(out)
        assert payload["im"][0][1] == -1.0

    def test_index_and_label_together_rejected(self, capsys):
        status, _, err = run(capsys, "generators", "--n", "2", "--index", "1", "--label", "D:2")
        assert status == 2
        assert "exactly one" in err

    def test_bad_label_rejected(self, capsys):
        status, _, err = run(capsys, "generators", "--n", "3", "--label", "Q:1")
        assert status == 2
        assert "bad label" in err


def refuse_tables(monkeypatch):
    """Make every way to build a whole table raise."""
    def refuse(*args, **kwargs):
        raise AssertionError("constants builds no whole table")

    for module in (cli, structure_constants):
        monkeypatch.setattr(module, "build_f_table", refuse)
        monkeypatch.setattr(module, "build_d_table", refuse)
    monkeypatch.setattr(ConstantTable, "__init__", refuse)


class TestConstants:
    @pytest.mark.parametrize("n_dim", [2, 3, 4])
    def test_csv_matches_golden_bytes(self, capsys, tmp_path, n_dim):
        out_path = tmp_path / "table.csv"
        status, out, _ = run(
            capsys, "constants", "--n", str(n_dim), "--kind", "both",
            "--format", "csv", "--output", str(out_path),
        )
        assert status == 0
        golden = (GOLDEN / f"constants_n{n_dim}.csv").read_bytes()
        assert out_path.read_bytes() == golden
        assert f"kind=f n={n_dim}" in out and "checksum=" in out

    def test_stdout_table_with_stats_on_stderr(self, capsys):
        status, out, err = run(capsys, "constants", "--n", "2", "--kind", "f")
        assert status == 0
        assert out.startswith("kind,i,j,k,value\n")
        assert "f,1,2,3,1.0" in out
        assert "count=1" in err

    def test_dash_output_keeps_stats_on_stderr(self, capsys):
        status, out, err = run(capsys, "constants", "--n", "2", "--output", "-")
        assert status == 0
        assert out == (GOLDEN / "constants_n2.csv").read_text()
        assert err.splitlines() == [
            f"kind={t.kind} n=2 count={len(t)} checksum={t.stats()[1]}"
            for t in (build_f_table(2), build_d_table(2))]

    def test_stdout_without_a_byte_layer_exits_two(self, capsys, monkeypatch):
        # The tables are written as bytes; an io.StringIO has no byte layer.
        monkeypatch.setattr(sys, "stdout", io.StringIO())
        assert cli.main(["constants", "--n", "2"]) == 2
        assert sys.stdout.getvalue() == ""
        assert "--output" in capsys.readouterr().err

    @pytest.mark.parametrize("to_file", [True, False])
    @pytest.mark.parametrize("kind", ["f", "d", "both"])
    @pytest.mark.parametrize("n_dim", range(2, 8))
    def test_csv_stats_lines_equal_library_stats(self, capsys, tmp_path, n_dim, kind, to_file):
        # The CSV path takes its stats from the text it writes, not from stats().
        out_path = tmp_path / "table.csv"
        argv = ["constants", "--n", str(n_dim), "--kind", kind]
        status, out, err = run(capsys, *argv, *(["--output", str(out_path)] if to_file else []))
        assert status == 0
        csv_text, report = (out_path.read_text(), out) if to_file else (out, err)
        tables = [build(n_dim) for name, build in (("f", build_f_table), ("d", build_d_table))
                  if kind in (name, "both")]
        assert report.splitlines() == [
            f"kind={t.kind} n={n_dim} count={count} checksum={checksum}"
            for t in tables for count, checksum in [t.stats()]]
        assert csv_text == "kind,i,j,k,value\n" + "".join(
            f"{t.kind},{i},{j},{k},{v!r}\n" for t in tables
            for (i, j, k), v in sorted(t.as_dict().items()))
        if n_dim == 2 and kind == "d":
            assert csv_text == "kind,i,j,k,value\n"  # the d table of su(2) is empty

    def test_csv_formats_each_table_once(self, capsys, tmp_path, monkeypatch):
        # No whole table is built: each is listed as a block stream and
        # formatted by one _row_chunks call, which formats its labels once.
        # JSON lists and formats each table twice: once for its stats, which
        # its header needs first, and once in its own layout.
        calls, streams = [], []
        blocks, row_chunks = structure_constants._blocks, structure_constants._row_chunks

        def listed(n_dim, kind):
            streams.append(kind)
            return blocks(n_dim, kind)

        def counted(*args):
            calls.append(len(streams))
            return row_chunks(*args)

        refuse_tables(monkeypatch)
        monkeypatch.setattr(structure_constants, "_blocks", listed)
        monkeypatch.setattr(structure_constants, "_row_chunks", counted)
        out_path = tmp_path / "table.csv"
        status, out, _ = run(
            capsys, "constants", "--n", "5", "--kind", "both", "--format", "csv",
            "--output", str(out_path),
        )
        assert status == 0
        assert (streams, calls) == (["f", "d"], [1, 2])
        assert len(out.splitlines()) == 2
        streams.clear()
        calls.clear()
        status, out, _ = run(
            capsys, "constants", "--n", "5", "--kind", "both", "--format", "json",
            "--output", str(out_path),
        )
        assert status == 0
        assert (streams, calls) == (["f", "f", "d", "d"], [1, 2, 3, 4])  # one table at a time
        assert len(out.splitlines()) == 2

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_f_table_is_released_before_d_is_built(self, capsys, tmp_path, monkeypatch, fmt):
        # Stronger than one table at a time: no table is ever built, and a
        # stream holds at most two blocks, the one being formatted and the one
        # being listed.  So when a stream lists its first block every block
        # listed before is gone, f's before d's first, and when it lists any
        # other, every block but the one before.
        refs, alive = [], []
        canonical = structure_constants._canonical

        def tracked(n_dim, kind, keys, values, lead, owned):
            alive.append([ref() is not None for ref in (refs if lead[0] == 1 else refs[:-2])])
            keys, values = canonical(n_dim, kind, keys, values, lead, owned)
            refs.extend(weakref.ref(array) for array in (keys, values))
            return keys, values

        out_path = tmp_path / f"table.{fmt}"
        argv = ["constants", "--n", "6", "--kind", "both", "--format", fmt, "--output"]
        status, _, _ = run(capsys, *argv, str(out_path))
        assert status == 0
        expected = out_path.read_bytes()
        refuse_tables(monkeypatch)
        monkeypatch.setattr(structure_constants, "_canonical", tracked)
        monkeypatch.setattr(structure_constants, "_CHUNK_BYTES", 64)  # one coordinate a block
        status, _, _ = run(capsys, *argv, str(out_path))
        assert status == 0
        assert len(alive) == 2 * 6 * (1 + (fmt == "json"))
        assert not any(map(any, alive))
        assert out_path.read_bytes() == expected

    @pytest.mark.parametrize("build, kind", [(build_f_table, "f"), (build_d_table, "d")])
    def test_pieces_of_any_size_give_the_same_bytes(
        self, capsys, tmp_path, monkeypatch, build, kind
    ):
        # In JSON each object opens with the comma that parts it from the one
        # before, so a piece boundary between any two objects must not move it.
        table = build(5)
        out_path = tmp_path / "table"

        def outputs():
            written = []
            for fmt in ("csv", "json"):
                status, _, _ = run(capsys, "constants", "--n", "5", "--kind", kind,
                                   "--format", fmt, "--output", str(out_path))
                assert status == 0
                written.append(out_path.read_bytes())
            return (table.stats(), *written, build_d_table(2).stats())

        # The layouts that stats() and the writer pass: the CSV default and the JSON object.
        layouts = []
        row_chunks = structure_constants._row_chunks
        with monkeypatch.context() as patch:
            patch.setattr(structure_constants, "_row_chunks", lambda n_dim, blocks, *layout:
                          layouts.append(layout) or row_chunks(n_dim, blocks, *layout))
            expected = outputs()
        assert expected[3] == (0, hashlib.sha256(b"d,2\n").hexdigest()[:16])
        # The CSV run, the JSON run's stats pass and its own pass, then the two stats().
        assert [bool(layout) for layout in layouts] == [False, False, True, False, False]
        (json_layout,) = layouts[2]
        assert json_layout[0].startswith(",\n        {")
        values = table.contraction_arrays()[3].tolist()
        count = len(table)
        for layout in (structure_constants._CSV_LAYOUT, json_layout):
            head, *seps, tail = layout
            # One line padded as _row_chunks pads it: each field as wide as its widest entry.
            width = (len(head) + sum(len(f"{5 * 5 - 1}{sep}") for sep in seps)
                     + max(len(f"{v!r}{tail}") for v in values))
            for lines in (1, 3, count - 1, count, count + 1):
                monkeypatch.setattr(structure_constants, "_CHUNK_BYTES", lines * width)
                whole, rest = divmod(count, lines)
                # The table as its one block; the CLI's streams also cut a piece at each block.
                *index, value = table.contraction_arrays()
                pieces = structure_constants._row_chunks(5, [(np.stack(index), value)], layout)
                # Each piece comes with its own line count.
                assert [(piece.count(tail.encode()), size) for piece, size in pieces] == (
                    [(lines, lines)] * whole + [(rest, rest)] * (rest > 0))
                assert outputs() == expected

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_peak_holds_a_block_and_a_piece(self, capsys, tmp_path, monkeypatch, fmt):
        # The whole command, listing included.  Under this budget a block is
        # the triples of one leading coordinate, at most 2 N**2.  Listing one
        # holds at most 64 bytes per triple (the families' parts, then the
        # block's int32 keys and float64 values beside the sort's int64 key
        # and order), and the block before it, 20 more, is still held by the
        # formatter: 96 in all.  The formatter and the writer hold at most
        # eight budgets of text (six for a piece, as the stats() test counts,
        # plus the CSV writer's copy with its prefixes).  The labels take at
        # most 117 bytes per index, as JSON's carry their keys, and 2 * 2**18
        # covers their strings and the argument parser.
        budget, n_dim = 2**14, 48
        monkeypatch.setattr(structure_constants, "_CHUNK_BYTES", budget)
        out_path = tmp_path / f"table.{fmt}"
        status, peak = traced_peak(cli.main, ["constants", "--n", str(n_dim), "--format", fmt,
                                              "--output", str(out_path)])
        assert status == 0
        bound = 96 * 2 * n_dim**2 + 8 * budget + (n_dim**2 - 1) * 117 + 2 * 2**18
        assert bound < sum(a.nbytes for a in build_d_table(n_dim).contraction_arrays())
        assert peak <= bound

    @pytest.mark.parametrize("to_file", [True, False])
    @pytest.mark.parametrize("kind", ["f", "d", "both"])
    @pytest.mark.parametrize("n_dim", range(2, 10))
    def test_json_matches_json_dump_bytes(self, capsys, tmp_path, n_dim, kind, to_file):
        out_path = tmp_path / "table.json"
        argv = ["constants", "--n", str(n_dim), "--kind", kind, "--format", "json"]
        status, out, err = run(capsys, *argv, *(["--output", str(out_path)] if to_file else []))
        assert status == 0
        text, report = (out_path.read_text(), out) if to_file else (out, err)
        tables = [build(n_dim) for name, build in (("f", build_f_table), ("d", build_d_table))
                  if kind in (name, "both")]
        assert text == reference_tables_json(n_dim, tables)
        assert report.splitlines() == [
            f"kind={t.kind} n={n_dim} count={count} checksum={checksum}"
            for t in tables for count, checksum in [t.stats()]]
        if n_dim == 2 and kind == "d":
            assert '"triples": []' in text  # the d table of su(2) is empty

    def test_json_format(self, capsys, tmp_path):
        out_path = tmp_path / "table.json"
        status, _, _ = run(
            capsys, "constants", "--n", "3", "--kind", "d",
            "--format", "json", "--output", str(out_path),
        )
        assert status == 0
        payload = json.loads(out_path.read_text())
        assert payload["n"] == 3
        (table,) = payload["tables"]
        assert table["kind"] == "d"
        assert table["count"] == 16
        first = table["triples"][0]
        assert first == {"kind": "d", "i": 1, "j": 1, "k": 8,
                         "value": pytest.approx(1 / math.sqrt(3), abs=1e-15)}
        # Every triple equals its golden CSV row, and count/checksum the stats line.
        for n_dim in (2, 3, 4):
            status, out, _ = run(
                capsys, "constants", "--n", str(n_dim), "--format", "json",
                "--output", str(out_path),
            )
            assert status == 0
            tables = json.loads(out_path.read_text())["tables"]
            rows = [f"{t['kind']},{t['i']},{t['j']},{t['k']},{t['value']!r}"
                    for table in tables for t in table["triples"]]
            golden = (GOLDEN / f"constants_n{n_dim}.csv").read_text().splitlines()
            assert rows == golden[1:]
            assert out.splitlines() == [
                f"kind={table['kind']} n={n_dim} count={table['count']} "
                f"checksum={table['checksum']}" for table in tables]
            assert [table["count"] for table in tables] == [
                len(table["triples"]) for table in tables]

    @pytest.mark.parametrize("to_file", [True, False])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_dimension_beyond_tables_refused_before_any_output(self, capsys, tmp_path, fmt,
                                                               to_file):
        path = tmp_path / "big.out"
        extra = ["--output", str(path)] if to_file else []
        status, out, err = run(capsys, "constants", "--n", str(structure_constants.MAX_TABLE_N + 1),
                               "--format", fmt, *extra)
        assert status == 2
        assert err.startswith("error: N=1449 is beyond the largest table dimension 1448")
        assert out == "" and not path.exists()

    def test_dimension_below_two_exits_two(self, capsys):
        status, out, err = run(capsys, "constants", "--n", "1")
        assert (status, out, err) == (2, "", "error: N 1 is outside the integers >= 2\n")


class TestVerify:
    def test_small_dimension_passes(self, capsys):
        status, out, _ = run(capsys, "verify", "--n", "3", "--kind", "both")
        assert status == 0
        assert "kind=f n=3" in out and "tol=1e-12 OK" in out
        assert "permutation spot check" in out

    def test_spot_check_failure_exits_one(self, capsys, monkeypatch):
        # A lookup that reads every order as the ascending one drops f's sign
        # on the odd permutations; the table still matches the oracle.
        lookup = ConstantTable.lookup
        monkeypatch.setattr(ConstantTable, "lookup",
                            lambda table, *triple: lookup(table, *sorted(triple)))
        status, out, _ = run(capsys, "verify", "--n", "3", "--kind", "f")
        first, spot = out.splitlines()
        assert first.endswith(" OK")
        assert spot.startswith("permutation spot check: draws=1000 seed=42 failures=")
        assert int(spot.rpartition("=")[2]) > 0
        assert status == 1

    def test_mismatch_reported_and_exit_one(self, capsys, monkeypatch):
        import sunlie.structure_constants as sc

        real_build = sc.build_f_table

        def broken(n_dim):
            i, j, k, values = real_build(n_dim).contraction_arrays()
            keys, values = np.stack((i, j, k)) + 1, values.copy()
            assert keys[:, 0].tolist() == [1, 2, 3]
            keys[:, 0], values[0] = (1, 2, 4), 0.25  # one triple dropped, a spurious one added
            return sc.ConstantTable(n_dim, sc.F_KIND, keys, values)

        monkeypatch.setattr(cli, "build_f_table", broken)
        status, out, _ = run(capsys, "verify", "--n", "3", "--kind", "f")
        assert status == 1
        assert "FAIL" in out
        assert "missing (1, 2, 3)" in out
        assert "spurious (1, 2, 4)" in out

    @pytest.mark.parametrize("kind", ["f", "d", "both"])
    def test_refused_above_the_ceiling_before_any_table(self, capsys, monkeypatch, kind):
        # The oracle's ceiling is checked before a closed-form table is built,
        # with the refusal the oracle gives for one kind, and for both kinds
        # their summed triple count and seconds.
        refuse_tables(monkeypatch)
        status, out, err = run(capsys, "verify", "--n", "9", "--kind", kind)
        assert status == 2
        assert out == ""
        if kind == "both":
            assert err == (f"error: refusing brute-force run at N=9 (ceiling 8): "
                           f"{summed_refusal(9)} single-threaded; raise "
                           f"SUNLIE_ORACLE_CEILING to override\n")
        else:
            with pytest.raises(OracleCostError) as refusal:
                full_oracle_table(AlgebraConfig(9), kind)
            assert err == f"error: {refusal.value}\n"

    def test_negative_seed_refused_before_any_output(self, capsys):
        status, out, err = run(capsys, "verify", "--n", "3", "--seed", "-1")
        assert status == 2
        assert out == ""
        assert err.startswith("error:") and "seed" in err

    @pytest.mark.parametrize("hbar", ["1e-120", "1e120"])
    def test_hbar_with_a_cube_beyond_normal_floats_rejected(self, capsys, hbar):
        # 1e-120 cubed is 0: every oracle trace was NaN and every closed-form
        # triple reported spurious (exit 1).  1e120 cubed raised OverflowError.
        status, out, err = run(capsys, "verify", "--n", "3", "--hbar", hbar)
        assert status == 2
        assert out == ""
        assert err.startswith("error: hbar must be positive and finite, in")
        assert err.count("\n") == 1


class TestAdjoint:
    def test_json_dump(self, capsys):
        status, out, _ = run(capsys, "adjoint", "--n", "2", "--index", "1")
        assert status == 0
        payload = json.loads(out)
        assert payload["n"] == 2 and payload["index"] == 1 and payload["dim"] == 3
        im = np.asarray(payload["im"])
        assert im[1, 2] == -1.0 and im[2, 1] == 1.0

    @pytest.mark.parametrize("n_dim", [2, 3, 4, 5, 16])
    def test_json_matches_json_dumps(self, capsys, n_dim):
        table = build_f_table(n_dim)
        for index in matrix_indices(n_dim):
            status, out, _ = run(capsys, "adjoint", "--n", str(n_dim), "--index", str(index))
            assert status == 0
            mat = adjoint_matrix(table, index)
            assert out == reference_matrix_json(mat, n_dim, index=index, dim=mat.shape[0])

    def test_out_of_range_index(self, capsys):
        status, _, err = run(capsys, "adjoint", "--n", "2", "--index", "4")
        assert status == 2
        assert "outside" in err

    @pytest.mark.parametrize("argv, message", [
        (["--n", "100", "--index", "0"], "index 0 is outside the integers 1..9999"),
        (["--n", "1449", "--index", "1"], "N=1449 is beyond the largest table dimension"),
        (["--n", "1449", "--index", "0"], "N=1449 is beyond the largest table dimension"),
    ])
    def test_refused_before_the_table_is_built(self, capsys, monkeypatch, argv, message):
        def refuse(*args):
            raise AssertionError("the f table is built after the arguments are checked")

        monkeypatch.setattr(cli, "build_f_table", refuse)
        status, out, err = run(capsys, "adjoint", *argv)
        assert (status, out) == (2, "")
        assert err.startswith(f"error: {message}")


class TestSimulate:
    @pytest.fixture
    def problem_files(self, tmp_path):
        h_path = tmp_path / "h.json"
        psi_path = tmp_path / "psi.json"
        h_path.write_text(json.dumps({
            "n": 2,
            "re": [[0.0, 0.3], [0.3, 0.0]],
            "im": [[0.0, -0.2], [0.2, 0.0]],
        }))
        psi_path.write_text(json.dumps({"re": [1.0, 0.0], "im": [0.0, 0.0]}))
        return h_path, psi_path

    def test_trajectory_csv(self, capsys, tmp_path, problem_files):
        h_path, psi_path = problem_files
        out_path = tmp_path / "traj.csv"
        status, out, _ = run(
            capsys, "simulate", "--hamiltonian", str(h_path), "--initial", str(psi_path),
            "--t-final", "1.0", "--dt", "0.001", "--stride", "100",
            "--output", str(out_path), "--compare-tdse",
        )
        assert status == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "t,s_1,s_2,s_3"
        assert len(lines) == 12  # header + 11 samples
        first = [float(x) for x in lines[1].split(",")]
        np.testing.assert_allclose(first, [0.0, 0.0, 0.0, 0.5], atol=1e-15)
        deviation = float(out.split("max_tdse_deviation=")[1])
        assert deviation <= 1e-6

    @pytest.mark.parametrize("output", [None, "-"])
    def test_compare_tdse_on_stdout_reports_on_stderr(self, capsys, tmp_path, problem_files,
                                                      output):
        h_path, psi_path = problem_files
        argv = ["simulate", "--hamiltonian", str(h_path), "--initial", str(psi_path),
                "--t-final", "1.0", "--dt", "0.001", "--stride", "100"]
        out_path = tmp_path / "traj.csv"
        assert run(capsys, *argv, "--output", str(out_path)) == (0, "", "")
        extra = ["--output", output] if output else []
        status, out, err = run(capsys, *argv, *extra, "--compare-tdse")
        assert status == 0
        assert out == out_path.read_text()
        (line,) = err.splitlines()
        assert float(line.removeprefix("max_tdse_deviation=")) <= 1e-6

    def test_compare_tdse_integrates_once(self, capsys, tmp_path, problem_files, monkeypatch):
        # The deviation is taken against the trajectory already written: H is
        # decomposed once, each flow diagonalizes its N x N matrix once, and
        # neither the f table nor Omega is built.
        calls = []

        def count(module, name):
            original = getattr(module, name)

            def counted(*args, **kwargs):
                calls.append((name, args[0].shape if name == "_eigensystem" else None))
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        def refuse(*args):
            raise AssertionError("simulate builds no f table and no Omega")

        count(dynamics, "decompose_hamiltonian")
        count(dynamics, "_eigensystem")
        monkeypatch.setattr(cli, "build_f_table", refuse)
        monkeypatch.setattr(dynamics, "precession_matrix", refuse)
        h_path, psi_path = problem_files
        status, out, _ = run(
            capsys, "simulate", "--hamiltonian", str(h_path), "--initial", str(psi_path),
            "--t-final", "1.0", "--dt", "0.001", "--stride", "100",
            "--output", str(tmp_path / "traj.csv"), "--compare-tdse",
        )
        assert status == 0 and "max_tdse_deviation=" in out
        assert calls == [
            ("decompose_hamiltonian", None),
            ("_eigensystem", (2, 2)),
            ("_eigensystem", (2, 2)),
        ]

    def test_compare_tdse_on_density_path(self, capsys, tmp_path, monkeypatch):
        # At N = 11, where Omega would have 120 rows: still one
        # diagonalization per flow, no f table and no Omega.
        n_dim = 11
        shapes = []
        original = dynamics._eigensystem

        def counted(matrix):
            shapes.append(matrix.shape)
            return original(matrix)

        def refuse(*args):
            raise AssertionError("simulate builds no f table and no Omega")

        monkeypatch.setattr(dynamics, "_eigensystem", counted)
        monkeypatch.setattr(cli, "build_f_table", refuse)
        monkeypatch.setattr(dynamics, "precession_matrix", refuse)
        rng = np.random.default_rng(12)
        a = rng.normal(size=(n_dim, n_dim)) + 1j * rng.normal(size=(n_dim, n_dim))
        mat = (a + a.conj().T) / 8.0
        psi = rng.normal(size=n_dim) + 1j * rng.normal(size=n_dim)
        psi /= np.linalg.norm(psi)
        h_path, psi_path = tmp_path / "h.json", tmp_path / "psi.json"
        h_path.write_text(json.dumps({"n": n_dim, "re": mat.real.tolist(),
                                      "im": mat.imag.tolist()}))
        psi_path.write_text(json.dumps({"re": psi.real.tolist(), "im": psi.imag.tolist()}))
        out_path = tmp_path / "traj.csv"
        status, out, err = run(
            capsys, "simulate", "--hamiltonian", str(h_path), "--initial", str(psi_path),
            "--t-final", "0.1", "--dt", "0.001", "--stride", "10",
            "--output", str(out_path), "--compare-tdse",
        )
        assert status == 0, err
        assert shapes == [(n_dim, n_dim)] * 2
        assert len(out_path.read_text().splitlines()) == 12  # header + 11 samples
        assert float(out.split("max_tdse_deviation=")[1]) <= 1e-6

    def test_fields_are_repr_of_the_trajectory(self, capsys, tmp_path, problem_files):
        h_path, psi_path = problem_files
        out_path = tmp_path / "traj.csv"
        status, _, _ = run(
            capsys, "simulate", "--hamiltonian", str(h_path), "--initial", str(psi_path),
            "--t-final", "0.25", "--dt", "0.01", "--stride", "4", "--output", str(out_path),
        )
        assert status == 0
        cfg = AlgebraConfig(2)
        h = json.loads(h_path.read_text())
        hamiltonian = np.asarray(h["re"]) + 1j * np.asarray(h["im"])
        coeffs = dynamics.decompose_hamiltonian(cfg, hamiltonian)
        traj = dynamics.integrate_bloch(
            build_f_table(2), coeffs, dynamics.state_to_bloch(cfg, np.array([1.0, 0.0])),
            dynamics.IntegrationSpec(t_final=0.25, dt=0.01, output_stride=4),
        )
        rows = [",".join(repr(float(x)) for x in (t, *row)) + "\n"
                for t, row in zip(traj.times, traj.states)]
        assert out_path.read_text() == "t,s_1,s_2,s_3\n" + "".join(rows)

    def test_deterministic_output(self, capsys, tmp_path, problem_files):
        h_path, psi_path = problem_files
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            status, _, _ = run(
                capsys, "simulate", "--hamiltonian", str(h_path), "--initial", str(psi_path),
                "--t-final", "0.5", "--dt", "0.001", "--output", str(path),
            )
            assert status == 0
        assert a.read_bytes() == b.read_bytes()

    def test_size_mismatch_rejected(self, capsys, tmp_path, problem_files):
        h_path, _ = problem_files
        psi_path = tmp_path / "psi3.json"
        psi_path.write_text(json.dumps({"re": [1.0, 0.0, 0.0], "im": [0.0, 0.0, 0.0]}))
        status, _, err = run(
            capsys, "simulate", "--hamiltonian", str(h_path), "--initial", str(psi_path),
            "--t-final", "1.0", "--dt", "0.1",
        )
        assert status == 2
        assert "length" in err

    def test_non_finite_hamiltonian_rejected(self, capsys, tmp_path, problem_files):
        _, psi_path = problem_files
        h_path = tmp_path / "h_nan.json"
        h_path.write_text(json.dumps({
            "n": 2,
            "re": [[0.0, math.nan], [math.nan, 0.0]],
            "im": [[0.0, 0.0], [0.0, 0.0]],
        }))
        status, out, err = run(
            capsys, "simulate", "--hamiltonian", str(h_path), "--initial", str(psi_path),
            "--t-final", "1.0", "--dt", "0.1",
        )
        assert status == 2
        assert err.startswith("error:") and "non-finite" in err
        assert out == ""

    @pytest.mark.parametrize("n", [2.0, True, "2", -2])
    def test_non_integer_dimension_rejected(self, capsys, tmp_path, problem_files, n):
        # 2.0 == 2 would match the 2 x 2 shape; True would match a 1 x 1 one.
        _, psi_path = problem_files
        h_path = tmp_path / "h_n.json"
        size = 1 if n is True else 2
        h_path.write_text(json.dumps({"n": n, "re": [[0.0] * size] * size,
                                      "im": [[0.0] * size] * size}))
        status, out, err = run(
            capsys, "simulate", "--hamiltonian", str(h_path), "--initial", str(psi_path),
            "--t-final", "1.0", "--dt", "0.1",
        )
        assert status == 2
        assert err.startswith("error:") and f"n {n!r} is outside the integers >= 1" in err
        assert out == ""

    def test_infinite_duration_rejected(self, capsys, problem_files):
        h_path, psi_path = problem_files
        status, out, err = run(
            capsys, "simulate", "--hamiltonian", str(h_path), "--initial", str(psi_path),
            "--t-final", "inf", "--dt", "0.1",
        )
        assert status == 2
        assert err.startswith("error:") and "finite" in err
        assert out == ""

    @pytest.mark.parametrize(
        "grid, match",
        [
            (["--t-final", "1e10", "--dt", "1e-300"], "steps exceeds 2"),
            (["--t-final", "1e300", "--dt", "1e-10"], "steps exceeds 2"),
            (["--t-final", "1", "--dt", "1e-3", "--stride", str(10**30)], "output_stride"),
        ],
    )
    def test_step_index_overflow_rejected(self, capsys, problem_files, grid, match):
        h_path, psi_path = problem_files
        status, out, err = run(
            capsys, "simulate", "--hamiltonian", str(h_path), "--initial", str(psi_path), *grid,
        )
        assert status == 2
        assert err.startswith("error:") and match in err
        assert out == ""

    def test_sample_count_beyond_memory_rejected(self, capsys, problem_files):
        h_path, psi_path = problem_files
        status, out, err = run(
            capsys, "simulate", "--hamiltonian", str(h_path), "--initial", str(psi_path),
            "--t-final", "1e9", "--dt", "1e-9",
        )
        assert status == 2
        assert err.startswith("error:") and "samples of 3 values" in err
        assert out == ""

    def test_missing_file_rejected(self, capsys, tmp_path, problem_files):
        _, psi_path = problem_files
        status, _, err = run(
            capsys, "simulate", "--hamiltonian", str(tmp_path / "nope.json"),
            "--initial", str(psi_path), "--t-final", "1.0", "--dt", "0.1",
        )
        assert status == 2
        assert "error:" in err

    def test_adaptive_grid_ends_at_t_final(self, capsys, tmp_path, problem_files):
        # 3 * 0.1 > 0.3 in floating point; the exact method must not sample past t_final.
        h_path, psi_path = problem_files
        out_path = tmp_path / "traj.csv"
        status, _, err = run(
            capsys, "simulate", "--hamiltonian", str(h_path), "--initial", str(psi_path),
            "--method", "exact", "--t-final", "0.3", "--dt", "0.1", "--output", str(out_path),
        )
        assert status == 0, err
        lines = out_path.read_text().splitlines()
        assert len(lines) == 5
        assert lines[-1].split(",")[0] == "0.3"

    def test_exact_method_compare_tdse(self, capsys, tmp_path):
        # dt * spread = 3.5 is beyond RK4's guard; the exact method has none.
        h_path, psi_path = self.eight_level_files(tmp_path, np.linspace(-8.75, 8.75, 8))
        out_path = tmp_path / "traj.csv"
        status, out, err = run(
            capsys, "simulate", "--hamiltonian", str(h_path), "--initial", str(psi_path),
            "--method", "exact", "--t-final", "20", "--dt", "0.2", "--stride", "10",
            "--output", str(out_path), "--compare-tdse",
        )
        assert status == 0, err
        assert len(out_path.read_text().splitlines()) == 12  # header + 11 samples
        assert float(out.split("max_tdse_deviation=")[1]) <= 1e-12

    def test_removed_rk45_method_rejected(self, capsys, problem_files):
        h_path, psi_path = problem_files
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["simulate", "--hamiltonian", str(h_path), "--initial", str(psi_path),
                      "--method", "rk45", "--t-final", "1.0", "--dt", "0.1"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "invalid choice: 'rk45'" in captured.err

    @pytest.mark.parametrize(
        "which, payload",
        [
            ("hamiltonian", 5),
            ("hamiltonian", {"n": 2, "re": {"a": 1}, "im": [[0.0, 0.0], [0.0, 0.0]]}),
            ("initial", 5),
            ("initial", {"re": {"a": 1}, "im": [0.0, 0.0]}),
            # Not JSON, not UTF-8, and nested past the decoder's recursion limit.
            ("hamiltonian", b"not json"),
            ("initial", b"not json"),
            ("hamiltonian", b"\xff\xfe"),
            ("initial", b"[" * 100_000 + b"]" * 100_000),
            # JSON's Infinity and NaN: 1j * inf is 0 * inf, a RuntimeWarning.
            ("hamiltonian", b'{"n": 2, "re": [[0, 0], [0, 0]], "im": [[0, Infinity], [0, 0]]}'),
            ("initial", b'{"re": [NaN, 0], "im": [0, 0]}'),
        ],
    )
    def test_malformed_json_rejected(self, capsys, tmp_path, problem_files, which, payload):
        h_path, psi_path = problem_files
        bad = tmp_path / "bad.json"
        bad.write_bytes(payload if isinstance(payload, bytes) else json.dumps(payload).encode())
        paths = {"hamiltonian": h_path, "initial": psi_path, which: bad}
        status, out, err = run(
            capsys, "simulate", "--hamiltonian", str(paths["hamiltonian"]),
            "--initial", str(paths["initial"]), "--t-final", "1.0", "--dt", "0.1",
        )
        assert status == 2
        assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1
        assert out == ""

    @pytest.mark.parametrize("hbar", ["1e300", "1e-300"])
    def test_hbar_with_a_cube_beyond_normal_floats_rejected(self, capsys, problem_files, hbar):
        # 1e300 raised OverflowError, 1e-300 ZeroDivisionError in the density expansion.
        h_path, psi_path = problem_files
        status, out, err = run(
            capsys, "simulate", "--hamiltonian", str(h_path), "--initial", str(psi_path),
            "--t-final", "1.0", "--dt", "0.1", "--hbar", hbar,
        )
        assert status == 2
        assert out == ""
        assert err.startswith("error: hbar must be positive and finite, in")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("which, payload, message", [
        ("hamiltonian", {"n": 2, "re": [[1e308, 0.0], [0.0, -1e308]], "im": [[0.0, 0.0]] * 2},
         "matrix has an entry of modulus 1e+308"),
        ("initial", {"re": [1e200, 0.0], "im": [0.0, 0.0]},
         "state vector has an entry of modulus 1e+200"),
    ])
    def test_huge_entries_rejected(self, capsys, tmp_path, problem_files, which, payload,
                                   message):
        # Refused before numpy overflows: a RuntimeWarning is an error under Tier-1.
        h_path, psi_path = problem_files
        paths = {"hamiltonian": h_path, "initial": psi_path, which: tmp_path / "big.json"}
        paths[which].write_text(json.dumps(payload))
        status, out, err = run(
            capsys, "simulate", "--hamiltonian", str(paths["hamiltonian"]),
            "--initial", str(paths["initial"]), "--t-final", "1.0", "--dt", "0.1",
        )
        assert status == 2
        assert out == ""
        assert err.startswith(f"error: {message}") and err.count("\n") == 1

    @staticmethod
    def eight_level_files(tmp_path, energies):
        # H = U diag(energies) U^dagger with a seeded random unitary U.
        rng = np.random.default_rng(88)
        unitary, _ = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
        mat = (unitary * energies) @ unitary.conj().T
        mat = 0.5 * (mat + mat.conj().T)
        psi = rng.normal(size=8) + 1j * rng.normal(size=8)
        psi /= np.linalg.norm(psi)
        h_path, psi_path = tmp_path / "h8.json", tmp_path / "psi8.json"
        h_path.write_text(json.dumps({"n": 8, "re": mat.real.tolist(), "im": mat.imag.tolist()}))
        psi_path.write_text(json.dumps({"re": psi.real.tolist(), "im": psi.imag.tolist()}))
        return h_path, psi_path

    def test_unstable_step_rejected(self, capsys, tmp_path):
        # dt * spread = 3.5 > 2 sqrt(2): RK4 would blow |s| up by orders of magnitude.
        h_path, psi_path = self.eight_level_files(tmp_path, np.linspace(-8.75, 8.75, 8))
        status, out, err = run(
            capsys, "simulate", "--hamiltonian", str(h_path), "--initial", str(psi_path),
            "--t-final", "20", "--dt", "0.2",
        )
        assert status == 2
        assert err.startswith("error:") and "unstable" in err
        assert out == ""

    def test_coarse_step_norm_drift_rejected(self, capsys, tmp_path):
        # dt * spread = 2.775 is inside the stability interval, but the
        # amplitude norm decays far beyond the comparison's tolerance.
        h_path, psi_path = self.eight_level_files(tmp_path, np.linspace(-2.775, 2.775, 8))
        status, out, err = run(
            capsys, "simulate", "--hamiltonian", str(h_path), "--initial", str(psi_path),
            "--t-final", "20", "--dt", "0.5", "--output", str(tmp_path / "traj.csv"),
            "--compare-tdse",
        )
        assert status == 2
        assert err.startswith("error:") and "norm drifted" in err
        assert out == ""

    @pytest.mark.parametrize("t_final, refused", [(0.1, False), (0.3, True)])
    def test_norm_drift_just_above_the_tolerance_rejected(self, capsys, tmp_path, t_final,
                                                          refused):
        # RK4 at dt * |w| = 0.2 keeps |R|**2 = 1 - 8.85e-7 per step: one step
        # drifts just below _NORM_DRIFT_TOL = 1e-6, three (2.7e-6) just above.
        h_path, psi_path = write_problem(tmp_path, np.diag([2.0, -2.0]).astype(complex),
                                         np.array([0.6, 0.8j]))
        status, out, err = run(
            capsys, "simulate", "--hamiltonian", str(h_path), "--initial", str(psi_path),
            "--t-final", str(t_final), "--dt", "0.1", "--output", str(tmp_path / "traj.csv"),
            "--compare-tdse",
        )
        if refused:
            assert status == 2 and out == ""
            assert err.startswith("error: amplitude norm drifted by 2.65") and "(> 1.0e-06)" in err
        else:
            assert (status, err) == (0, "")
            assert out.startswith("max_tdse_deviation=")


class TestStreamedSimulate:
    """`simulate` writes and compares its trajectory a block at a time."""

    # Full steps of dt = 0.01 per N: more samples than one precession block
    # holds (8191 at N = 2, 2427, 1023, 524, 303, 191, 37 at N = 12, 30 and 16).
    STEPS = {2: 9000, 3: 3000, 4: 1500, 5: 1500, 6: 1500, 7: 1500, 12: 1050, 16: 113, 32: 100}

    @pytest.mark.parametrize("method", ["rk4", "exact"])
    @pytest.mark.parametrize("n_dim", sorted(STEPS))
    def test_matches_whole_trajectory_writer(self, capsys, tmp_path, n_dim, method):
        rng = np.random.default_rng(2000 + n_dim)
        cfg = AlgebraConfig(n_dim)
        h_path, psi_path = write_problem(tmp_path, random_hermitian(rng, n_dim),
                                         random_state(rng, n_dim))
        hamiltonian = cli._complex_from_json(str(h_path), matrix=True)
        psi0 = cli._complex_from_json(str(psi_path), matrix=False)
        out_path = tmp_path / "traj.csv"
        steps = self.STEPS[n_dim]
        # Every step, then every 7th with the last full step and a half-step tail.
        for t_final, stride in ((steps * 0.01, 1), ((steps + 0.5) * 0.01, 7)):
            spec = dynamics.IntegrationSpec(t_final, 0.01, method=method, output_stride=stride)
            text, gap = reference_simulate(cfg, hamiltonian, psi0, spec)
            argv = ["simulate", "--hamiltonian", str(h_path), "--initial", str(psi_path),
                    "--method", method, "--t-final", repr(t_final), "--dt", "0.01",
                    "--stride", str(stride), "--compare-tdse"]
            status, out, err = run(capsys, *argv, "--output", str(out_path))
            assert (status, err) == (0, "")
            assert out_path.read_bytes() == text.encode()
            (line,) = out.splitlines()
            assert abs(float(line.removeprefix("max_tdse_deviation=")) - gap) <= 1e-15
            status, out, err = run(capsys, *argv)
            assert status == 0 and out == text
            (line,) = err.splitlines()
            assert abs(float(line.removeprefix("max_tdse_deviation=")) - gap) <= 1e-15
            deviation = dynamics.bloch_tdse_deviation(cfg, build_f_table(n_dim), hamiltonian,
                                                      psi0, spec)
            assert abs(deviation - gap) <= 1e-15

    @pytest.mark.parametrize("to_file", [False, True])
    def test_amplitude_guard_refuses_before_writing(self, capsys, tmp_path, to_file):
        # Eigenvalues 9.95 and 10.25: dt * spread = 0.15 is stable for the
        # precession flow, dt * max |lambda| = 5.1 is not for the amplitudes.
        mat = np.array([[10.0, 0.1 - 0.05j], [0.1 + 0.05j, 10.2]])
        h_path, psi_path = write_problem(tmp_path, mat, np.array([1.0 + 0j, 0.0]))
        out_path = tmp_path / "traj.csv"
        extra = ["--output", str(out_path)] if to_file else []
        status, out, err = run(
            capsys, "simulate", "--hamiltonian", str(h_path), "--initial", str(psi_path),
            "--t-final", "2", "--dt", "0.5", "--compare-tdse", *extra,
        )
        assert status == 2
        assert err.startswith("error: dt=0.5 is unstable")
        assert out == "" and not out_path.exists()

    def test_memory_does_not_grow_with_the_samples(self, tmp_path):
        # 2,001 samples at N = 16.  The largest work arrays of a precession
        # block hold N x N complex entries per sample: 30 samples (the block
        # of `_block_samples`) x 256 x 16 bytes = 123 KB.  A block holds a few
        # of them beside its (30, 255) rows, the comparison's amplitude rows
        # and the text of one row; allow 16.  Holding the trajectory would add
        # 4.1 MB of states, and three times that again for their tolist floats.
        n_dim = 16
        rng = np.random.default_rng(n_dim)
        h_path, psi_path = write_problem(tmp_path, random_hermitian(rng, n_dim),
                                         random_state(rng, n_dim))
        block = dynamics._block_samples(n_dim, n_dim)[1]
        argv = ["simulate", "--hamiltonian", str(h_path), "--initial", str(psi_path),
                "--t-final", "2", "--dt", "1e-3", "--output", str(tmp_path / "traj.csv"),
                "--compare-tdse"]
        with contextlib.redirect_stdout(io.StringIO()):
            status, peak = traced_peak(cli.main, argv)
        assert status == 0
        assert peak <= 16 * block * n_dim * n_dim * 16


class TestColdImports:
    """Imports seen by a fresh interpreter; the test process may already hold scipy."""

    LAZY = ("scipy", "numpy.ma", "numpy.char")

    def python(self, tmp_path, code):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()

    def test_cli_and_constants_load_no_lazy_module(self, tmp_path):
        code = (
            "import sys\n"
            "import sunlie.cli\n"
            f"lazy = {self.LAZY!r}\n"
            "print([m for m in lazy if m in sys.modules])\n"
            "assert sunlie.cli.main(['constants', '--n', '4', '--output', 'c.csv']) == 0\n"
            "print([m for m in lazy if m in sys.modules])\n"
        )
        lines = self.python(tmp_path, code)
        # Between the two checks are the stats lines of the f and d tables.
        assert len(lines) == 4 and lines[0] == lines[-1] == "[]"
        assert (tmp_path / "c.csv").read_bytes() == (GOLDEN / "constants_n4.csv").read_bytes()

    def test_exact_simulate_loads_no_lazy_module(self, tmp_path):
        (tmp_path / "h.json").write_text(json.dumps({
            "n": 3, "re": [[0.5, 0.1, 0.0], [0.1, 0.0, 0.2], [0.0, 0.2, -0.5]],
            "im": [[0.0, 0.3, 0.0], [-0.3, 0.0, 0.0], [0.0, 0.0, 0.0]],
        }))
        (tmp_path / "psi.json").write_text(json.dumps({"re": [1.0, 0.0, 0.0],
                                                       "im": [0.0, 0.0, 0.0]}))
        code = (
            "import sys\n"
            "import sunlie.cli\n"
            "status = sunlie.cli.main(['simulate', '--hamiltonian', 'h.json', '--initial',\n"
            "    'psi.json', '--method', 'exact', '--t-final', '0.5', '--dt', '0.1',\n"
            "    '--output', 'traj.csv'])\n"
            f"print(status, [m for m in {self.LAZY!r} if m in sys.modules])\n"
        )
        assert self.python(tmp_path, code) == ["0 []"]
        assert len((tmp_path / "traj.csv").read_text().splitlines()) == 7  # header + 6 samples


class TestBench:
    def test_small_dimension_times_both(self, capsys):
        status, out, _ = run(capsys, "bench", "--n", "3")
        assert status == 0
        assert "closed-form n=3" in out
        assert "oracle n=3" in out
        assert "speedup" in out

    def test_counts_are_table_sizes(self, capsys):
        status, out, _ = run(capsys, "bench", "--n", "4")
        assert status == 0
        f_count, d_count = len(build_f_table(4)), len(build_d_table(4))
        assert f"closed-form n=4: f={f_count} d={d_count} triples" in out

    def test_hbar_is_not_an_option(self, capsys):
        # No closed-form or oracle timing depends on hbar.
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["bench", "--n", "3", "--hbar", "2"])
        assert excinfo.value.code == 2
        assert "--hbar" in capsys.readouterr().err

    def test_oracle_refused_above_ceiling(self, capsys):
        status, out, _ = run(capsys, "bench", "--n", "64")
        assert status == 0
        assert "refused" in out
        assert "trace evaluations" in out

    def test_refusal_carries_both_kinds(self, capsys):
        status, out, _ = run(capsys, "bench", "--n", "9")
        assert status == 0
        assert summed_refusal(9) in out


def refused_values():
    """Each value the CLI passes on as a plain int or float, to each command
    that takes it, with the library call that refuses it."""
    gen = ["generators", "--n", "2", "--index", "1", "--output", "{out}"]
    sim = ["simulate", "--hamiltonian", "{h}", "--initial", "{psi}", "--t-final", "1",
           "--output", "{out}"]
    cases = [
        pytest.param(["generators", "--n", "1", "--index", "1", "--output", "{out}"],
                     lambda: AlgebraConfig(1), id="generators-n=1"),
        pytest.param(["constants", "--n", "1", "--output", "{out}"],
                     lambda: build_f_table(1), id="constants-n=1"),
        pytest.param(["verify", "--n", "1"], lambda: AlgebraConfig(1), id="verify-n=1"),
        pytest.param(["adjoint", "--n", "1", "--index", "1", "--output", "{out}"],
                     lambda: build_f_table(1), id="adjoint-n=1"),
        pytest.param(["bench", "--n", "1"], lambda: build_f_table(1), id="bench-n=1"),
    ]
    for hbar in ("0", "inf", "nan"):
        for argv in (gen, ["verify", "--n", "2"], sim + ["--dt", "0.1"]):
            cases.append(pytest.param(argv + ["--hbar", hbar],
                                      lambda h=float(hbar): AlgebraConfig(2, h),
                                      id=f"{argv[0]}-hbar={hbar}"))
    for dt in ("0", "-1", "nan"):
        cases.append(pytest.param(sim + ["--dt", dt], lambda dt=float(dt): IntegrationSpec(1.0, dt),
                                  id=f"simulate-dt={dt}"))
    return cases


@pytest.mark.parametrize("argv, call", refused_values())
def test_library_refuses_each_bad_value(capsys, tmp_path, argv, call):
    # N, hbar and dt are parsed as plain numbers; the library's check refuses
    # a bad one before the command writes a byte, in its own words.
    with pytest.raises(ValueError) as refusal:
        call()
    h_path, psi_path = write_problem(tmp_path, np.diag([0.5, -0.5]), np.array([1.0, 0.0]))
    out_path = tmp_path / "out"
    argv = [arg.format(h=h_path, psi=psi_path, out=out_path) for arg in argv]
    assert run(capsys, *argv) == (2, "", f"error: {refusal.value}\n")
    assert not out_path.exists()


@pytest.mark.parametrize("argv", [["verify", "--n", "3", "--tol", "1e-3"],
                                  ["bench", "--n", "3", "--repeats", "1"]],
                         ids=["verify-tol", "bench-repeats"])
def test_fixed_tolerance_and_repeats_are_not_options(capsys, argv):
    # verify compares within VERIFY_TOL and bench takes the best of BENCH_REPEATS.
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv)
    assert excinfo.value.code == 2
    assert argv[-2] in capsys.readouterr().err


def test_cli_imports_no_table_writer_internals():
    # The table text is written by structure_constants.write_tables alone.
    tree = ast.parse(Path(cli.__file__).read_text())
    names = [alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom)
             and (node.level, node.module) in ((1, "structure_constants"),
                                               (0, "sunlie.structure_constants"))
             for alias in node.names]
    assert "write_tables" in names
    assert {"_blocks", "_row_chunks", "_stats"}.isdisjoint(names)


def test_cli_imports_no_private_dynamics_name():
    # The CLI reaches the dynamics through its public names only.
    tree = ast.parse(Path(cli.__file__).read_text())
    names = [alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom)
             and (node.level, node.module) in ((1, "dynamics"), (0, "sunlie.dynamics"))
             for alias in node.names]
    assert "precession_blocks" in names
    assert [name for name in names if name.startswith("_")] == []


def test_no_arguments_exits_two(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main([])
    assert excinfo.value.code == 2
