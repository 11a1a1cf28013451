import json
import math
from pathlib import Path

import numpy as np
import pytest

import sunlie.cli as cli
from sunlie.generators import AlgebraConfig, make_generator
from sunlie.indexing import index_to_label
from sunlie.structure_constants import build_d_table, build_f_table

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    status = cli.main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


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

    def test_dimension_below_two_exits_two(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["constants", "--n", "1"])
        assert excinfo.value.code == 2
        assert "N must be >= 2" in capsys.readouterr().err


class TestVerify:
    def test_small_dimension_passes(self, capsys):
        status, out, _ = run(capsys, "verify", "--n", "3", "--kind", "both", "--tol", "1e-12")
        assert status == 0
        assert "kind=f n=3" in out and "OK" in out
        assert "permutation spot check" in out

    def test_mismatch_reported_and_exit_one(self, capsys, monkeypatch):
        import sunlie.structure_constants as sc

        real_build = sc.build_f_table

        def broken(n_dim):
            table = real_build(n_dim)
            entries = table.as_dict()
            entries.pop((1, 2, 3))  # drop one triple
            entries[(1, 2, 4)] = 0.25  # add a spurious one
            return sc.ConstantTable(n_dim, sc.F_KIND, entries)

        monkeypatch.setattr(cli, "build_f_table", broken)
        status, out, _ = run(capsys, "verify", "--n", "3", "--kind", "f")
        assert status == 1
        assert "FAIL" in out
        assert "missing (1, 2, 3)" in out
        assert "spurious (1, 2, 4)" in out


class TestAdjoint:
    def test_json_dump(self, capsys):
        status, out, _ = run(capsys, "adjoint", "--n", "2", "--index", "1")
        assert status == 0
        payload = json.loads(out)
        assert payload["n"] == 2 and payload["index"] == 1 and payload["dim"] == 3
        im = np.asarray(payload["im"])
        assert im[1, 2] == -1.0 and im[2, 1] == 1.0

    def test_out_of_range_index(self, capsys):
        status, _, err = run(capsys, "adjoint", "--n", "2", "--index", "4")
        assert status == 2
        assert "outside" in err


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

    def test_infinite_duration_rejected(self, capsys, problem_files):
        h_path, psi_path = problem_files
        status, out, err = run(
            capsys, "simulate", "--hamiltonian", str(h_path), "--initial", str(psi_path),
            "--t-final", "inf", "--dt", "0.1",
        )
        assert status == 2
        assert err.startswith("error:") and "finite" in err
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
        # 3 * 0.1 > 0.3 in floating point; RK45 must not be handed a time past t_final.
        h_path, psi_path = problem_files
        out_path = tmp_path / "traj.csv"
        status, _, err = run(
            capsys, "simulate", "--hamiltonian", str(h_path), "--initial", str(psi_path),
            "--method", "rk45", "--t-final", "0.3", "--dt", "0.1", "--output", str(out_path),
        )
        assert status == 0, err
        lines = out_path.read_text().splitlines()
        assert len(lines) == 5
        assert lines[-1].split(",")[0] == "0.3"

    @pytest.mark.parametrize(
        "which, payload",
        [
            ("hamiltonian", 5),
            ("hamiltonian", {"n": 2, "re": {"a": 1}, "im": [[0.0, 0.0], [0.0, 0.0]]}),
            ("initial", 5),
            ("initial", {"re": {"a": 1}, "im": [0.0, 0.0]}),
        ],
    )
    def test_malformed_json_rejected(self, capsys, tmp_path, problem_files, which, payload):
        h_path, psi_path = problem_files
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        paths = {"hamiltonian": h_path, "initial": psi_path, which: bad}
        status, out, err = run(
            capsys, "simulate", "--hamiltonian", str(paths["hamiltonian"]),
            "--initial", str(paths["initial"]), "--t-final", "1.0", "--dt", "0.1",
        )
        assert status == 2
        assert err.startswith("error:") and "bad.json" in err
        assert out == ""

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


class TestBench:
    def test_small_dimension_times_both(self, capsys):
        status, out, _ = run(capsys, "bench", "--n", "3", "--repeats", "2")
        assert status == 0
        assert "closed-form n=3" in out
        assert "oracle n=3" in out
        assert "speedup" in out

    def test_counts_are_table_sizes(self, capsys):
        status, out, _ = run(capsys, "bench", "--n", "4", "--repeats", "1")
        assert status == 0
        f_count, d_count = len(build_f_table(4)), len(build_d_table(4))
        assert f"closed-form n=4: f={f_count} d={d_count} triples" in out

    @pytest.mark.parametrize("repeats", ["0", "-1"])
    def test_repeats_below_one_rejected(self, capsys, repeats):
        status, out, err = run(capsys, "bench", "--n", "3", "--repeats", repeats)
        assert status == 2
        assert err.startswith("error:") and "--repeats" in err
        assert out == ""

    def test_oracle_refused_above_ceiling(self, capsys):
        status, out, _ = run(capsys, "bench", "--n", "64", "--repeats", "1")
        assert status == 0
        assert "refused" in out
        assert "trace evaluations" in out


def test_no_arguments_exits_two(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main([])
    assert excinfo.value.code == 2
