import math

import numpy as np
import pytest

from conftest import traced_peak
from sunlie import adjoint
from sunlie.adjoint import (
    DEFAULT_SAMPLE_PAIRS,
    _product,
    adjoint_matrix,
    adjoint_stack,
    verify_adjoint_commutators,
)
from sunlie.dynamics import _MAX_MULTIPLY_ADDS
from sunlie.structure_constants import ConstantTable, build_d_table, build_f_table


def test_su2_adjoint_is_spin_one_algebra():
    # Only f_123 = 1 exists, so T_1 has -i at (2,3) and +i at (3,2), etc.
    table = build_f_table(2)
    t1 = adjoint_matrix(table, 1)
    expected = np.zeros((3, 3), dtype=complex)
    expected[1, 2] = -1j
    expected[2, 1] = 1j
    np.testing.assert_array_equal(t1, expected)

    t3 = adjoint_matrix(table, 3)
    expected = np.zeros((3, 3), dtype=complex)
    expected[0, 1] = -1j
    expected[1, 0] = 1j
    np.testing.assert_array_equal(t3, expected)


def test_su3_t8_entries():
    # f_458 = f_678 = sqrt(3)/2 are the only triples touching index 8.
    table = build_f_table(3)
    t8 = adjoint_matrix(table, 8)
    v = math.sqrt(3) / 2
    expected = np.zeros((8, 8), dtype=complex)
    expected[3, 4] = -1j * v
    expected[4, 3] = 1j * v
    expected[5, 6] = -1j * v
    expected[6, 5] = 1j * v
    np.testing.assert_allclose(t8, expected, rtol=0, atol=1e-15)


@pytest.mark.parametrize("n_dim", [2, 3, 5])
def test_structure_of_every_adjoint_matrix(n_dim):
    table = build_f_table(n_dim)
    stack = adjoint_stack(table)
    for i in range(stack.shape[0]):
        t = stack[i]
        np.testing.assert_array_equal(np.diagonal(t), 0.0)
        assert np.trace(t) == 0.0
        np.testing.assert_array_equal(t, t.conj().T)  # Hermitian, exactly
        np.testing.assert_array_equal(t.real, 0.0)  # purely imaginary entries


@pytest.mark.parametrize("n_dim", [2, 3, 4])
def test_stack_rows_match_single_construction(n_dim):
    table = build_f_table(n_dim)
    stack = adjoint_stack(table)
    for i in range(1, n_dim * n_dim):
        np.testing.assert_array_equal(stack[i - 1], adjoint_matrix(table, i))


@pytest.mark.parametrize("n_dim", [2, 3, 4, 5])
def test_commutator_representation_exhaustive(n_dim):
    report = verify_adjoint_commutators(build_f_table(n_dim))
    assert report.exhaustive
    d = n_dim * n_dim - 1
    assert report.pairs_checked == d * (d - 1) // 2
    assert report.max_deviation <= 1e-12
    assert report.passed


def _dense_max_deviation(table, pairs):
    """Largest entry of F_i F_j - F_j F_i + sum_k f_ijk F_k over 0-based ``pairs``, from
    whole d x d matrices F_i = i T_i: the per-pair residual without any slicing."""
    def f_matrix(i):
        return (1j * adjoint_matrix(table, i + 1)).real

    worst = 0.0
    for i, j in pairs:
        f_i, f_j = f_matrix(i), f_matrix(j)
        residual = f_i @ f_j - f_j @ f_i
        for k in np.flatnonzero(f_i[j]):
            residual += f_i[j, k] * f_matrix(k)
        worst = max(worst, float(np.abs(residual).max()))
    return worst


@pytest.mark.parametrize("n_dim, seed", [(3, 1), (4, 1), (5, 1), (6, 1), (7, 2), (12, 3)])
def test_sliced_check_matches_dense_residual(n_dim, seed):
    # Every pair up to N=6; beyond, the DEFAULT_SAMPLE_PAIRS pairs the seed draws.
    table = build_f_table(n_dim)
    d = n_dim * n_dim - 1
    pairs = np.transpose(np.triu_indices(d, 1))
    if n_dim > 6:
        pairs = pairs[np.random.default_rng(seed).choice(len(pairs), DEFAULT_SAMPLE_PAIRS,
                                                          replace=False)]
    report = verify_adjoint_commutators(table, seed=seed)
    assert (report.pairs_checked, report.exhaustive) == (len(pairs), n_dim <= 6)
    assert abs(report.max_deviation - _dense_max_deviation(table, pairs)) <= 1e-15
    assert report.passed


@pytest.mark.parametrize("width", [61, 131])
def test_blocked_product_matches_matmul(width, monkeypatch):
    # Two widths that a pair's sliced matrices take at N=12; each block
    # stays below _MAX_MULTIPLY_ADDS multiply-adds.
    rng = np.random.default_rng(width)
    a, b = rng.normal(size=(width, width)), rng.normal(size=(width, width))
    blocks = []
    matmul = np.matmul

    def spy(x, y, out):
        blocks.append(len(x))
        assert len(x) * x.shape[1] * y.shape[1] < _MAX_MULTIPLY_ADDS
        return matmul(x, y, out=out)

    monkeypatch.setattr(adjoint.np, "matmul", spy)
    product = _product(a, b)
    monkeypatch.undo()
    assert sum(blocks) == width and len(blocks) > 1
    np.testing.assert_allclose(product, a @ b, rtol=0, atol=1e-13 * np.abs(a @ b).max())


def test_one_entry_off_by_1e_9_fails_the_report():
    # Exhaustive at N=3: f_123 = 1 scaled by 1 + 1e-9 moves [T_1, T_2] by about 1e-9.
    a, b, c, values = build_f_table(3).contraction_arrays()
    values = values.copy()
    values[0] *= 1.0 + 1e-9
    report = verify_adjoint_commutators(ConstantTable(3, "f", np.stack((a, b, c)) + 1, values))
    assert report.exhaustive and not report.passed
    assert 1e-10 < report.max_deviation < 1e-8


@pytest.mark.parametrize("seed", [1, 3])
def test_n12_sampled_report_passes(seed):
    report = verify_adjoint_commutators(build_f_table(12), seed=seed)
    assert (report.pairs_checked, report.exhaustive) == (DEFAULT_SAMPLE_PAIRS, False)
    assert report.max_deviation <= 1e-15
    assert report.passed


def test_commutator_representation_sampled():
    report = verify_adjoint_commutators(build_f_table(8), seed=3)
    assert not report.exhaustive
    assert report.pairs_checked == DEFAULT_SAMPLE_PAIRS
    assert report.passed


@pytest.mark.parametrize("n_dim", [3, 4])
def test_every_entry_matches_lookup(n_dim):
    table = build_f_table(n_dim)
    idx = range(1, n_dim * n_dim)
    for i in idx:
        expected = np.array([[-1j * table.lookup(i, j, k) for k in idx] for j in idx])
        np.testing.assert_array_equal(adjoint_matrix(table, i), expected)


def test_sampled_verification_memory_is_per_pair():
    # A dense (d, d, d) adjoint stack at N=16 (d=255) would take 265 MB.
    table = build_f_table(16)
    report, peak = traced_peak(verify_adjoint_commutators, table)
    assert report.pairs_checked == DEFAULT_SAMPLE_PAIRS
    assert report.passed
    assert peak < 8e6


@pytest.mark.parametrize("n_dim", [16, 32])
def test_adjoint_matrix_memory_is_the_answer(n_dim):
    # One row is picked from the table's own arrays with one-byte masks, not
    # from a copy of the table in six signed orders (9.9x its bytes at N = 32).
    table = build_f_table(n_dim)
    middle = n_dim * n_dim // 2
    matrix, peak = traced_peak(adjoint_matrix, table, middle)
    assert matrix.shape == (n_dim * n_dim - 1,) * 2
    assert peak <= matrix.nbytes + sum(a.nbytes for a in table.contraction_arrays())


def test_adjoint_rejects_d_table():
    with pytest.raises(ValueError, match="'f' table"):
        adjoint_matrix(build_d_table(3), 1)


def test_adjoint_index_range():
    table = build_f_table(3)
    # Indices are integers in 1..8: no floats, even whole ones, and no bools.
    for bad in (9, 0, 1.5, np.float64(2.0), True):
        with pytest.raises(ValueError, match="outside"):
            adjoint_matrix(table, bad)
    for i in range(1, 9):
        np.testing.assert_array_equal(adjoint_matrix(table, np.int64(i)), adjoint_matrix(table, i))


@pytest.mark.parametrize("seed", [1.5, True, "3", -1])
def test_seed_not_a_non_negative_integer_rejected(seed):
    with pytest.raises(ValueError, match="seed"):
        verify_adjoint_commutators(build_f_table(3), seed=seed)
