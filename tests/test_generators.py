import math
import sys

import numpy as np
import pytest

from sunlie.generators import (
    _HBAR_RANGE,
    AlgebraConfig,
    all_generators,
    decompose_diagonal,
    make_generator,
)
from sunlie.indexing import all_labels, diagonal, symmetric

SIGMA = [
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
]

LAMBDA = [
    np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex),
    np.array([[0, -1j, 0], [1j, 0, 0], [0, 0, 0]], dtype=complex),
    np.array([[1, 0, 0], [0, -1, 0], [0, 0, 0]], dtype=complex),
    np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]], dtype=complex),
    np.array([[0, 0, -1j], [0, 0, 0], [1j, 0, 0]], dtype=complex),
    np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex),
    np.array([[0, 0, 0], [0, 0, -1j], [0, 1j, 0]], dtype=complex),
    np.array([[1, 0, 0], [0, 1, 0], [0, 0, -2]], dtype=complex) / math.sqrt(3),
]


def test_pauli_matrices_at_hbar_two():
    cfg = AlgebraConfig(2, hbar=2.0)
    built = all_generators(cfg)
    for got, expected in zip(built, SIGMA):
        np.testing.assert_array_equal(got, expected)


def test_gellmann_matrices_at_hbar_two():
    cfg = AlgebraConfig(3, hbar=2.0)
    built = all_generators(cfg)
    assert len(built) == 8
    for got, expected in zip(built, LAMBDA):
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-15)


def test_last_gellmann_entry():
    cfg = AlgebraConfig(3, hbar=2.0)
    got = make_generator(cfg, diagonal(3))
    np.testing.assert_allclose(got, np.diag([1, 1, -2]) / math.sqrt(3), rtol=0, atol=1e-15)


@pytest.mark.parametrize("n_dim", [2, 3, 5, 8])
@pytest.mark.parametrize("hbar", [1.0, 2.0])
def test_traceless_hermitian_orthonormal(n_dim, hbar):
    cfg = AlgebraConfig(n_dim, hbar=hbar)
    gens = all_generators(cfg)
    assert len(gens) == n_dim * n_dim - 1
    for g in gens:
        assert abs(np.trace(g)) <= 1e-14 * hbar
        np.testing.assert_array_equal(g, g.conj().T)  # exact by construction
    half_h2 = hbar * hbar / 2.0
    for a, ga in enumerate(gens):
        for b, gb in enumerate(gens[a:], start=a):
            overlap = np.trace(ga @ gb).real
            expected = half_h2 if a == b else 0.0
            assert abs(overlap - expected) <= 1e-13 * hbar * hbar


@pytest.mark.parametrize("n_dim", [2, 4, 7])
def test_sparsity_pattern(n_dim):
    cfg = AlgebraConfig(n_dim)
    for label in all_labels(n_dim):
        nnz = np.count_nonzero(make_generator(cfg, label))
        assert nnz == (label.n if label.kind == "D" else 2)


def test_generator_count_n5():
    assert len(all_generators(AlgebraConfig(5))) == 24


def test_hbar_scales_linearly():
    one = all_generators(AlgebraConfig(4, hbar=1.0))
    two = all_generators(AlgebraConfig(4, hbar=2.0))
    for g1, g2 in zip(one, two):
        np.testing.assert_array_equal(2.0 * g1, g2)


def test_label_beyond_dimension_rejected():
    with pytest.raises(ValueError, match="beyond N"):
        make_generator(AlgebraConfig(3), symmetric(4, 2))


# An infinite hbar would turn generator entries into inf and NaN; an hbar
# whose cube underflows makes every oracle trace NaN, one whose cube
# overflows stops the oracle with an OverflowError.
@pytest.mark.parametrize(
    "n_dim, hbar", [(1, 1.0), (3, 0.0), (3, -2.0), (2, math.inf), (2, math.nan),
                    (2, 1e-120), (2, 1e120), (2, 1e-300), (2, 1e300)]
)
def test_bad_config_rejected(n_dim, hbar):
    with pytest.raises(ValueError):
        AlgebraConfig(n_dim, hbar)


def test_hbar_range_keeps_its_cube_and_reciprocal_cube_normal():
    low, high = _HBAR_RANGE
    tiny = sys.float_info.min
    for hbar in (low, high):
        AlgebraConfig(2, hbar)
        assert tiny <= hbar**3 <= sys.float_info.max and hbar**-3 >= tiny
    for hbar in (math.nextafter(low, 0.0), math.nextafter(high, math.inf)):
        with pytest.raises(ValueError, match="hbar must be positive and finite, in"):
            AlgebraConfig(2, hbar)
    # The reciprocal cube, not the cube, sets the upper end.
    assert (high * 1.01) ** 3 < sys.float_info.max and (high * 1.01) ** -3 < tiny


def test_config_takes_numpy_integers():
    cfg = AlgebraConfig(np.int64(3))
    assert repr(cfg) == repr(AlgebraConfig(3))
    for got, expected in zip(all_generators(cfg), all_generators(AlgebraConfig(3))):
        np.testing.assert_array_equal(got, expected)


class TestDecomposeDiagonal:
    def test_zero_matrix(self):
        cfg = AlgebraConfig(4)
        c0, coeffs = decompose_diagonal(cfg, np.zeros((4, 4)))
        assert c0 == 0.0
        assert set(coeffs) == {2, 3, 4}
        assert all(v == 0.0 for v in coeffs.values())

    @pytest.mark.parametrize("n_dim", [2, 3, 6, 10])
    @pytest.mark.parametrize("hbar", [1.0, 2.0])
    def test_random_traceful_diagonals_reconstruct(self, n_dim, hbar):
        rng = np.random.default_rng(1234 + n_dim)
        cfg = AlgebraConfig(n_dim, hbar=hbar)
        for _ in range(5):
            values = rng.normal(size=n_dim)
            mat = np.diag(values)
            c0, coeffs = decompose_diagonal(cfg, mat)
            rebuilt = c0 * np.eye(n_dim, dtype=complex)
            for n, c in coeffs.items():
                rebuilt += c * make_generator(cfg, diagonal(n))
            assert np.abs(rebuilt - mat).max() <= 1e-13 * max(1.0, np.abs(values).max())

    def test_projector_difference_coefficients(self):
        # hbar^2/2 (|m><m| - |n><n|) resolves onto Cartan generators with
        # coefficients sqrt(n/(2(n-1))), 1/sqrt(2k(k-1)) for m<k<n, and
        # -sqrt((m-1)/(2m)), all scaled by hbar; no identity part.
        n_dim, hbar = 7, 1.7
        cfg = AlgebraConfig(n_dim, hbar=hbar)
        for n in range(2, n_dim + 1):
            for m in range(1, n):
                mat = np.zeros((n_dim, n_dim))
                mat[m - 1, m - 1] = hbar**2 / 2.0
                mat[n - 1, n - 1] = -(hbar**2) / 2.0
                c0, coeffs = decompose_diagonal(cfg, mat)
                assert abs(c0) <= 1e-15
                expected = {q: 0.0 for q in range(2, n_dim + 1)}
                expected[n] = hbar * math.sqrt(n / (2.0 * (n - 1)))
                for k in range(m + 1, n):
                    expected[k] = hbar / math.sqrt(2.0 * k * (k - 1))
                if m >= 2:
                    expected[m] = -hbar * math.sqrt((m - 1) / (2.0 * m))
                for q in expected:
                    assert abs(coeffs[q] - expected[q]) <= 1e-13

    def test_non_diagonal_rejected(self):
        cfg = AlgebraConfig(3)
        mat = np.zeros((3, 3))
        mat[0, 1] = 1e-6
        with pytest.raises(ValueError, match="off-diagonal"):
            decompose_diagonal(cfg, mat)

    def test_complex_diagonal_rejected(self):
        cfg = AlgebraConfig(3)
        with pytest.raises(ValueError, match="real"):
            decompose_diagonal(cfg, np.diag([1.0, 1j, 0.0]))

    def test_wrong_shape_rejected(self):
        cfg = AlgebraConfig(3)
        with pytest.raises(ValueError, match="shape"):
            decompose_diagonal(cfg, np.zeros((2, 2)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_entry_rejected(self, bad):
        # NaN fails every comparison, so the shape and off-diagonal checks
        # alone would pass it through and return NaN coefficients.
        with pytest.raises(ValueError, match="non-finite"):
            decompose_diagonal(AlgebraConfig(3), np.diag([1.0, bad, 2.0]))

    def test_huge_entry_rejected(self):
        # The trace of the diagonal would overflow.
        with pytest.raises(ValueError, match="modulus 1e\\+308"):
            decompose_diagonal(AlgebraConfig(3), np.diag([1e308, 1e308, 1.0]))
