import math
from itertools import combinations, combinations_with_replacement

import numpy as np
import pytest

from conftest import per_triple_table, summed_refusal, traced_peak
from sunlie import trace_oracle
from sunlie.generators import AlgebraConfig, all_generators
from sunlie.structure_constants import build_d_table, build_f_table
from sunlie.trace_oracle import (
    CEILING_ENV,
    ZERO_THRESHOLD,
    OracleConsistencyError,
    OracleCostError,
    check_ceiling,
    d_trace,
    estimate_cost,
    f_trace,
    full_oracle_table,
    resolve_ceiling,
)


def test_su2_levi_civita():
    cfg = AlgebraConfig(2)
    assert f_trace(cfg, 1, 2, 3) == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("i,k", [(1, 2), (3, 3), (2, 1)])
def test_repeated_first_indices_vanish(i, k):
    cfg = AlgebraConfig(3)
    assert f_trace(cfg, i, i, k) == pytest.approx(0.0, abs=1e-14)


def test_su3_spot_values():
    cfg = AlgebraConfig(3)
    assert f_trace(cfg, 4, 5, 8) == pytest.approx(math.sqrt(3) / 2, abs=1e-14)
    assert d_trace(cfg, 8, 8, 8) == pytest.approx(-1 / math.sqrt(3), abs=1e-14)
    assert d_trace(cfg, 1, 1, 8) == pytest.approx(1 / math.sqrt(3), abs=1e-14)


def test_su2_d_values_all_vanish():
    cfg = AlgebraConfig(2)
    for i, j, k in combinations_with_replacement((1, 2, 3), 3):
        assert d_trace(cfg, i, j, k) == pytest.approx(0.0, abs=1e-14)


def test_full_table_su2():
    table = full_oracle_table(AlgebraConfig(2), "f")
    assert table.as_dict() == pytest.approx({(1, 2, 3): 1.0}, abs=1e-14)


def test_full_table_su3_counts():
    cfg = AlgebraConfig(3)
    assert len(full_oracle_table(cfg, "f")) == 9
    assert len(full_oracle_table(cfg, "d")) == 16


@pytest.mark.parametrize("n_dim", [3, 4, 5])
@pytest.mark.parametrize("kind, build", [("f", build_f_table), ("d", build_d_table)])
def test_oracle_agrees_with_closed_form(n_dim, kind, build):
    oracle = full_oracle_table(AlgebraConfig(n_dim), kind).as_dict()
    closed = build(n_dim).as_dict()
    assert oracle.keys() == closed.keys()
    for key in closed:
        assert abs(oracle[key] - closed[key]) <= 1e-12


@pytest.mark.parametrize("n_dim", [2, 3, 4])
@pytest.mark.parametrize("hbar", [1.0, 1.5])
@pytest.mark.parametrize("kind, trace", [("f", f_trace), ("d", d_trace)])
def test_table_is_the_per_triple_trace(n_dim, hbar, kind, trace):
    # The table forms each pair's (anti)commutator once; a stored value is
    # still the single-triple trace bit for bit, and an absent one is round-off.
    cfg = AlgebraConfig(n_dim, hbar)
    stored = full_oracle_table(cfg, kind).as_dict()
    canonical = combinations if kind == "f" else combinations_with_replacement
    for i, j, k in canonical(range(1, cfg.dim + 1), 3):
        value = trace(cfg, i, j, k)
        if (i, j, k) in stored:
            assert stored[i, j, k] == value
        else:
            assert abs(value) <= ZERO_THRESHOLD


@pytest.mark.parametrize("n_dim", [5, 6, 7, 8])
@pytest.mark.parametrize("hbar", [1.0, 1.5])
@pytest.mark.parametrize("kind", ["f", "d"])
def test_table_bytes_are_the_per_triple_loop(n_dim, hbar, kind):
    # Each row of i is one contraction; the table is still the per-triple
    # contraction, byte for byte.
    cfg = AlgebraConfig(n_dim, hbar)
    batched, looped = full_oracle_table(cfg, kind), per_triple_table(cfg, kind)
    assert batched._index.tobytes() == looped._index.tobytes()
    assert batched._values.tobytes() == looped._values.tobytes()


@pytest.mark.parametrize("n_dim", [3, 4, 5, 6])
@pytest.mark.parametrize("hbar", [1.0, 1.5])
@pytest.mark.parametrize("kind", ["f", "d"])
@pytest.mark.parametrize("run", ["one j", "mid-row"])
def test_run_boundaries_keep_the_bytes(n_dim, hbar, kind, run, monkeypatch):
    # A row's contraction split into runs of its pairs, one j a run or two j
    # a run (so runs end in the middle of a row), gives the same bytes: a
    # trace does not depend on how many pairs share its call.
    cfg = AlgebraConfig(n_dim, hbar)
    looped = per_triple_table(cfg, kind)
    size = 1 if run == "one j" else 2
    rows = []
    einsum = np.einsum

    def split(subscripts, pairs, gens):
        assert subscripts == "jab,kab->jk"
        rows.append(len(pairs))
        starts = range(0, len(pairs), size)
        return np.concatenate([einsum(subscripts, pairs[lo : lo + size], gens) for lo in starts])

    monkeypatch.setattr(trace_oracle.np, "einsum", split)
    batched = full_oracle_table(cfg, kind)
    monkeypatch.undo()
    assert max(rows) > size
    assert batched._index.tobytes() == looped._index.tobytes()
    assert batched._values.tobytes() == looped._values.tobytes()


@pytest.mark.parametrize("kind", ["f", "d"])
def test_working_memory_is_bounded_by_the_budget(kind):
    # The generator stack and at most two and a half arrays of one row's
    # size, each 63 KiB at N = 8 (see the N = 10 test below), with room to spare.
    _, peak = traced_peak(full_oracle_table, AlgebraConfig(8), kind)
    assert peak <= 512 * 1024


@pytest.mark.parametrize("kind", ["f", "d"])
def test_working_memory_is_a_few_generator_stacks(kind, monkeypatch):
    # Beside the stack of d generators, a row holds at most two complex
    # arrays of its size at once (its products, its pairs and their
    # transposed copy, or its traces and their scaled copy) and one real
    # array of half that size.  None is larger than the stack: a row has at
    # most d pairs of N**2 entries, and at most d**2 < d * N**2 traces.  The
    # last half stack covers the keys and values kept, 32 bytes an entry.
    monkeypatch.setenv(CEILING_ENV, "10")
    cfg = AlgebraConfig(10)
    stack = cfg.dim * cfg.n_dim**2 * np.dtype(complex).itemsize
    _, peak = traced_peak(full_oracle_table, cfg, kind)
    assert peak <= 4 * stack


@pytest.mark.parametrize("n_dim", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("hbar", [1.0, 1.5])
@pytest.mark.parametrize("kind", ["f", "d"])
def test_value_is_the_product_trace(n_dim, hbar, kind):
    # _value sums the N**2 terms pair_ab (S_k)_ba in another order than the
    # product form (pair @ S_k).trace().  Each complex sum of n products is
    # within sqrt(2) gamma(n + 2) sum_ab |pair_ab| |(S_k)_ba| of the exact
    # trace, gamma(m) = m u / (1 - m u) (Higham, Accuracy and Stability of
    # Numerical Algorithms, 2nd ed., ch. 3, complex arithmetic), so the two
    # differ by at most twice that; scaling by 2 / hbar**3 rounds each value
    # once more.
    cfg = AlgebraConfig(n_dim, hbar)
    gens = all_generators(cfg)
    u = np.finfo(float).eps / 2
    terms = n_dim**2 + 2
    gamma = terms * u / (1 - terms * u)
    canonical = combinations if kind == "f" else combinations_with_replacement
    for i, j, k in canonical(range(1, cfg.dim + 1), 3):
        pair, gk = trace_oracle._pair(gens[i - 1], gens[j - 1], kind), gens[k - 1]
        product = float(trace_oracle._scaled((pair @ gk).trace(), kind, hbar))
        sizes = np.abs(pair * gk.T).sum()
        bound = 2 / hbar**3 * 2 * math.sqrt(2) * gamma * sizes + 2 * u * abs(product)
        assert abs(trace_oracle._value(pair, gk, kind, hbar) - product) <= bound


@pytest.mark.parametrize("kind", ["f", "d"])
def test_imaginary_residue_refused(kind, monkeypatch):
    # i S for every S multiplies each trace by i**3 = -i: every non-zero value turns imaginary.
    monkeypatch.setattr(trace_oracle, "all_generators",
                        lambda cfg: [1j * g for g in all_generators(cfg)])
    with pytest.raises(OracleConsistencyError, match="imaginary residue"):
        full_oracle_table(AlgebraConfig(3), kind)


@pytest.mark.parametrize("kind", ["f", "d"])
def test_residue_in_the_last_generator_refused(kind, monkeypatch):
    # Only the last generator carries a residue, so it sits last in every
    # pair's batch of k (or in the pair itself).
    def last_tilted(cfg):
        gens = all_generators(cfg)
        gens[-1] = (1 + 1e-9j) * gens[-1]
        return gens

    monkeypatch.setattr(trace_oracle, "all_generators", last_tilted)
    with pytest.raises(OracleConsistencyError, match="imaginary residue"):
        full_oracle_table(AlgebraConfig(3), kind)


@pytest.mark.parametrize("kind", ["f", "d"])
def test_residue_in_the_middle_of_a_run_refused(kind, monkeypatch):
    # The tilted generator sits mid-row as a j and mid-square as a k.
    def middle_tilted(cfg):
        gens = all_generators(cfg)
        gens[cfg.dim // 2] = (1 + 1e-9j) * gens[cfg.dim // 2]
        return gens

    monkeypatch.setattr(trace_oracle, "all_generators", middle_tilted)
    with pytest.raises(OracleConsistencyError, match="imaginary residue"):
        full_oracle_table(AlgebraConfig(3), kind)


@pytest.mark.parametrize("kind", ["f", "d"])
def test_residue_anywhere_in_a_batch_refused(kind):
    # Tr[pair S_k] is imaginary for f and real for d; the values are 2|Tr|.
    traces = np.array([0.5, 0.25, 0.125], dtype=complex) * (1j if kind == "f" else 1)
    assert trace_oracle._scaled(traces, kind, 1.0).tolist() == [1.0, 0.5, 0.25]
    traces[-1] *= 1 + 1e-9j
    with pytest.raises(OracleConsistencyError, match="imaginary residue"):
        trace_oracle._scaled(traces, kind, 1.0)


@pytest.mark.parametrize("kind", ["f", "d"])
def test_value_below_magnitude_floor_refused(kind, monkeypatch):
    # Halved generators scale every value by 1/8, below 1/sqrt(2N(N-1)) at N=3.
    monkeypatch.setattr(trace_oracle, "all_generators",
                        lambda cfg: [0.5 * g for g in all_generators(cfg)])
    with pytest.raises(OracleConsistencyError, match="magnitude floor"):
        full_oracle_table(AlgebraConfig(3), kind)


def test_hbar_independence():
    for hbar_a, hbar_b in ((1.0, 2.0),):
        for kind in ("f", "d"):
            a = full_oracle_table(AlgebraConfig(3, hbar_a), kind).as_dict()
            b = full_oracle_table(AlgebraConfig(3, hbar_b), kind).as_dict()
            assert a.keys() == b.keys()
            for key in a:
                assert abs(a[key] - b[key]) <= 1e-12


def test_index_symmetries_independent_of_closed_form():
    # Hermiticity of the basis forces the trace expressions themselves to be
    # anti-symmetric (f) / symmetric (d) in their first two indices.
    cfg = AlgebraConfig(4)
    rng = np.random.default_rng(11)
    top = cfg.dim
    for _ in range(25):
        i, j, k = (int(x) for x in rng.integers(1, top + 1, size=3))
        assert f_trace(cfg, i, j, k) == pytest.approx(-f_trace(cfg, j, i, k), abs=1e-13)
        assert f_trace(cfg, i, j, k) == pytest.approx(f_trace(cfg, j, k, i), abs=1e-13)
        assert d_trace(cfg, i, j, k) == pytest.approx(d_trace(cfg, j, i, k), abs=1e-13)
        assert d_trace(cfg, i, j, k) == pytest.approx(d_trace(cfg, k, j, i), abs=1e-13)


class TestCeiling:
    def test_default_refusal_above_eight(self):
        with pytest.raises(OracleCostError, match="refusing"):
            full_oracle_table(AlgebraConfig(9), "f")

    def test_refusal_message_carries_estimate(self):
        with pytest.raises(OracleCostError, match="trace evaluations"):
            full_oracle_table(AlgebraConfig(64), "d")

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(CEILING_ENV, "3")
        with pytest.raises(OracleCostError):
            full_oracle_table(AlgebraConfig(4), "f")
        monkeypatch.setenv(CEILING_ENV, "4")
        assert len(full_oracle_table(AlgebraConfig(4), "f")) == 29

    def test_refusal_sums_the_kinds(self):
        # A command that builds both tables is refused with their summed cost.
        with pytest.raises(OracleCostError) as refusal:
            check_ceiling(9, ("f", "d"))
        assert summed_refusal(9) in str(refusal.value)

    def test_bad_env_value(self, monkeypatch):
        monkeypatch.setenv(CEILING_ENV, "many")
        with pytest.raises(ValueError, match=CEILING_ENV):
            resolve_ceiling()


def test_estimate_cost_counts():
    d = 3 * 3 - 1
    assert estimate_cost(3, "f")[0] == math.comb(d, 3)
    assert estimate_cost(3, "d")[0] == math.comb(d + 2, 3)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="kind"):
        full_oracle_table(AlgebraConfig(3), "g")
