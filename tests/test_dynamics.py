import math

import numpy as np
import pytest

from conftest import random_hermitian, random_state, traced_peak
from sunlie import dynamics
from sunlie.dynamics import (
    HamiltonianCoefficients,
    IntegrationSpec,
    bloch_from_states,
    bloch_tdse_deviation,
    decompose_hamiltonian,
    hamiltonian_from_coefficients,
    integrate_bloch,
    integrate_tdse,
    precession_blocks,
    precession_matrix,
    precession_rhs,
    reconstruct_density,
    state_to_bloch,
)
from sunlie.generators import (
    _HBAR_RANGE,
    _MAX_ENTRY,
    AlgebraConfig,
    _bloch_maps,
    _generator_traces,
    all_generators,
)
from sunlie.structure_constants import (
    MAX_TABLE_N, ConstantTable, _cyclic_orders, build_d_table, build_f_table,
)


class TestDecomposeHamiltonian:
    def test_two_level_splitting(self):
        cfg = AlgebraConfig(2)
        coeffs = decompose_hamiltonian(cfg, np.diag([1.5, -1.5]))
        assert coeffs.h0 == pytest.approx(0.0, abs=1e-15)
        np.testing.assert_allclose(coeffs.h, [0.0, 0.0, 3.0], atol=1e-15)

    def test_identity_multiple(self):
        cfg = AlgebraConfig(4)
        coeffs = decompose_hamiltonian(cfg, 2.7 * np.eye(4))
        assert coeffs.h0 == pytest.approx(2.7, abs=1e-15)
        np.testing.assert_allclose(coeffs.h, 0.0, atol=1e-15)

    def test_two_level_coupling_components(self):
        # With the standard sigma_2 convention the y-coefficient must carry
        # -2 Im(V12): the traceless part at entry (1,2) is h1/2 - i h2/2 and
        # has to equal V12 for the expansion to rebuild the input.
        cfg = AlgebraConfig(2)
        v12 = 0.4 - 0.9j
        mat = np.array([[1.1, v12], [np.conj(v12), -0.3]])
        coeffs = decompose_hamiltonian(cfg, mat)
        np.testing.assert_allclose(
            coeffs.h, [2 * v12.real, -2 * v12.imag, 1.1 - (-0.3)], atol=1e-14
        )

    @pytest.mark.parametrize("n_dim", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("hbar", [1.0, 2.0])
    def test_reconstruction(self, n_dim, hbar):
        rng = np.random.default_rng(100 + n_dim)
        cfg = AlgebraConfig(n_dim, hbar=hbar)
        mat = random_hermitian(rng, n_dim)
        coeffs = decompose_hamiltonian(cfg, mat)
        rebuilt = hamiltonian_from_coefficients(cfg, coeffs)
        assert np.abs(rebuilt - mat).max() <= 1e-12

    def test_non_hermitian_rejected(self):
        cfg = AlgebraConfig(2)
        with pytest.raises(ValueError, match="Hermitian"):
            decompose_hamiltonian(cfg, np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_non_hermitian_by_1e_9_of_the_scale_rejected(self):
        # Scale 3: one entry 3e-9 off its mirror is far beyond rounding.
        mat = np.array([[3.0, 1.0 + 3e-9], [1.0, -3.0]])
        with pytest.raises(ValueError, match="not Hermitian within 1e-12 of its scale"):
            decompose_hamiltonian(AlgebraConfig(2), mat)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_entry_rejected(self, bad):
        # NaN fails every comparison, so without an explicit check it slips
        # through both the Hermitian and the reconstruction test.
        mat = np.eye(3, dtype=complex)
        mat[0, 1] = mat[1, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            decompose_hamiltonian(AlgebraConfig(3), mat)

    @pytest.mark.parametrize("big, hbar", [(1e308, 1.0), (1e250, 1e-100), (1.4e154, 1.0)])
    def test_huge_entry_rejected(self, big, hbar):
        # 2 * 1e308 overflows in the projection, 1e250 / 1e-100 in the
        # reconstruction; the bound, sqrt of the largest float, holds for any hbar.
        mat = np.diag([big, -big]).astype(complex)
        with pytest.raises(ValueError, match="beyond 1.3e\\+154"):
            decompose_hamiltonian(AlgebraConfig(2, hbar), mat)

    @pytest.mark.parametrize("hbar", _HBAR_RANGE)
    def test_largest_entry_decomposes_at_either_end_of_hbar(self, hbar):
        cfg = AlgebraConfig(3, hbar)
        mat = random_hermitian(np.random.default_rng(7), 3)
        mat *= _MAX_ENTRY / np.abs(mat).max()
        coeffs = decompose_hamiltonian(cfg, mat)
        rebuilt = hamiltonian_from_coefficients(cfg, coeffs)
        assert np.abs(rebuilt - mat).max() <= 1e-12 * _MAX_ENTRY

    @pytest.mark.parametrize("hbar", _HBAR_RANGE)
    def test_largest_coefficients_rebuild_at_either_end_of_hbar(self, hbar):
        # Every entry at the bound and D_8's diagonal pattern on the diagonal:
        # its coefficient, 2 sqrt(2 * 7/8) _MAX_ENTRY, exceeds the entry bound.
        cfg = AlgebraConfig(8, hbar)
        mat = np.full((8, 8), _MAX_ENTRY)
        mat[7, 7] = -_MAX_ENTRY
        coeffs = decompose_hamiltonian(cfg, mat)
        assert np.abs(coeffs.h).max() > 2.6 * _MAX_ENTRY
        rebuilt = hamiltonian_from_coefficients(cfg, coeffs)
        assert np.abs(rebuilt - mat).max() <= 1e-12 * _MAX_ENTRY

    def test_memory_stays_quadratic_at_n64(self):
        # The answer is N**2 numbers; a dense (N**2-1, N, N) generator stack
        # would take over 500 MB here.
        cfg = AlgebraConfig(64)
        mat = random_hermitian(np.random.default_rng(64), 64)
        coeffs, peak = traced_peak(decompose_hamiltonian, cfg, mat)
        assert coeffs.h.shape == (cfg.dim,)
        assert peak < 8e6


class TestHamiltonianCoefficients:
    @pytest.mark.parametrize("hbar", [0.0, -1.0, math.inf, math.nan])
    def test_bad_hbar_rejected(self, hbar):
        # hbar = 0 would make the flow NaN/inf, hbar = inf silently zero.
        with pytest.raises(ValueError, match="hbar must be positive and finite"):
            HamiltonianCoefficients(0.0, np.array([0.0, 0.0, 1.0]), hbar)


class TestStateToBloch:
    def test_spin_up(self):
        cfg = AlgebraConfig(2)
        np.testing.assert_allclose(
            state_to_bloch(cfg, [1.0, 0.0]), [0.0, 0.0, 0.5], atol=1e-15
        )

    def test_equal_superposition(self):
        cfg = AlgebraConfig(2)
        psi = np.array([1.0, 1.0]) / math.sqrt(2)
        np.testing.assert_allclose(state_to_bloch(cfg, psi), [0.5, 0.0, 0.0], atol=1e-15)

    def test_highest_level_of_three(self):
        cfg = AlgebraConfig(3)
        s = state_to_bloch(cfg, [0.0, 0.0, 1.0])
        expected = np.zeros(8)
        expected[7] = -1.0 / math.sqrt(3)
        np.testing.assert_allclose(s, expected, atol=1e-15)

    @pytest.mark.parametrize("n_dim", [2, 3, 4, 6])
    @pytest.mark.parametrize("hbar", [1.0, 1.5])
    def test_matches_generator_expectations(self, n_dim, hbar):
        rng = np.random.default_rng(17 + n_dim)
        cfg = AlgebraConfig(n_dim, hbar=hbar)
        gens = all_generators(cfg)
        for _ in range(5):
            psi = random_state(rng, n_dim)
            rho = np.outer(psi, psi.conj())
            expected = np.array([np.trace(rho @ g).real for g in gens])
            np.testing.assert_allclose(state_to_bloch(cfg, psi), expected, atol=1e-14)

    @pytest.mark.parametrize("n_dim", [2, 5])
    def test_pure_state_magnitude(self, n_dim):
        # |s|^2 = hbar^2 (N-1) / (2N) for any pure state.
        rng = np.random.default_rng(3)
        hbar = 1.2
        cfg = AlgebraConfig(n_dim, hbar=hbar)
        s = state_to_bloch(cfg, random_state(rng, n_dim))
        expected = hbar**2 * (n_dim - 1) / (2.0 * n_dim)
        assert np.sum(s**2) == pytest.approx(expected, abs=1e-13)

    def test_unnormalized_rejected(self):
        cfg = AlgebraConfig(2)
        with pytest.raises(ValueError, match="norm"):
            state_to_bloch(cfg, [1.0, 1.0])

    def test_norm_off_by_1e_10_rejected(self):
        psi = np.array([0.6, 0.8j]) * math.sqrt(1.0 + 1e-10)
        with pytest.raises(ValueError, match=r"norm\*\*2 = 1.0000000001\d* is not 1 within 1e-12"):
            state_to_bloch(AlgebraConfig(2), psi)

    def test_non_finite_amplitude_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            state_to_bloch(AlgebraConfig(2), [math.nan, 0.0])

    @pytest.mark.parametrize("big", [1e200, 1e200j, 1.5e308 + 1.5e308j, 2.0 + 1e-15])
    def test_huge_amplitude_rejected(self, big):
        # Its square would overflow; any modulus above 2 gives norm**2 > 4.
        with pytest.raises(ValueError, match="modulus .* so its norm\\*\\*2 is not 1"):
            state_to_bloch(AlgebraConfig(2), [big, 0.0])


class TestReconstructDensity:
    def test_zero_vector_gives_maximally_mixed(self):
        cfg = AlgebraConfig(3)
        np.testing.assert_allclose(
            reconstruct_density(cfg, np.zeros(8)), np.eye(3) / 3.0, atol=1e-16
        )

    @pytest.mark.parametrize("hbar", [1.0, 2.0])
    def test_spin_up_density(self, hbar):
        cfg = AlgebraConfig(2, hbar=hbar)
        rho = reconstruct_density(cfg, np.array([0.0, 0.0, hbar / 2.0]))
        np.testing.assert_allclose(rho, np.diag([1.0, 0.0]), atol=1e-15)

    def test_round_trip_for_pure_states(self):
        rng = np.random.default_rng(8)
        cfg = AlgebraConfig(4)
        for _ in range(10):
            psi = random_state(rng, 4)
            rho = reconstruct_density(cfg, state_to_bloch(cfg, psi))
            assert np.abs(rho - np.outer(psi, psi.conj())).max() <= 1e-12
            assert abs(np.trace(rho) - 1.0) <= 1e-14


class TestPrecessionRhs:
    def test_su2_is_cross_product(self):
        table = build_f_table(2)
        coeffs = HamiltonianCoefficients(0.0, np.array([0.3, -1.1, 0.7]), 1.0)
        s = np.array([0.2, 0.4, -0.5])
        np.testing.assert_array_equal(precession_rhs(table, coeffs, s), np.cross(coeffs.h, s))

    def test_magnetic_field_along_z(self):
        # h = (0, 0, w) rotates the transverse components: ds = (-w s_y, w s_x, 0).
        table = build_f_table(2)
        omega = 2.5
        coeffs = HamiltonianCoefficients(0.0, np.array([0.0, 0.0, omega]), 1.0)
        ds = precession_rhs(table, coeffs, np.array([0.1, -0.4, 0.9]))
        np.testing.assert_allclose(ds, [omega * 0.4, omega * 0.1, 0.0], atol=1e-15)

    def test_zero_field_and_zero_state(self):
        table = build_f_table(3)
        zero = HamiltonianCoefficients(1.0, np.zeros(8), 1.0)
        np.testing.assert_array_equal(precession_rhs(table, zero, np.ones(8)), np.zeros(8))
        coeffs = HamiltonianCoefficients(0.0, np.arange(8.0), 1.0)
        np.testing.assert_array_equal(precession_rhs(table, coeffs, np.zeros(8)), np.zeros(8))

    @pytest.mark.parametrize("n_dim", [2, 3, 5])
    def test_matrix_form_matches_rhs(self, n_dim):
        rng = np.random.default_rng(n_dim)
        table = build_f_table(n_dim)
        dim = n_dim * n_dim - 1
        coeffs = HamiltonianCoefficients(0.0, rng.normal(size=dim), 1.4)
        omega = precession_matrix(table, coeffs)
        for _ in range(5):
            s = rng.normal(size=dim)
            np.testing.assert_allclose(
                omega @ s, precession_rhs(table, coeffs, s), atol=1e-14
            )

    def test_d_table_rejected(self):
        coeffs = HamiltonianCoefficients(0.0, np.zeros(8), 1.0)
        with pytest.raises(ValueError, match="'f' table"):
            precession_rhs(build_d_table(3), coeffs, np.zeros(8))

    @pytest.mark.parametrize("n_dim", [16, 32])
    def test_working_memory_is_bounded(self, n_dim):
        # The contraction reads the table's own arrays in its three cyclic
        # orders, a few gathered float columns at a time: no copy of the
        # table in six signed orders (14x its bytes at N = 32).
        rng = np.random.default_rng(n_dim)
        table = build_f_table(n_dim)
        dim = n_dim * n_dim - 1
        coeffs = HamiltonianCoefficients(0.0, rng.normal(size=dim), 1.0)
        ds, peak = traced_peak(precession_rhs, table, coeffs, rng.normal(size=dim))
        assert ds.shape == (dim,)
        assert peak <= 3 * sum(a.nbytes for a in table.contraction_arrays())

    def test_flat_positions_at_the_largest_dimension(self):
        # precession_matrix widens the tables' int32 indices before it forms
        # the flat position i * dim + k of each signed order: at MAX_TABLE_N
        # that passes 2**31 and stays exact.  Three triples, and the flat
        # positions alone: the dim x dim matrix is never allocated.
        top = MAX_TABLE_N**2 - 1
        keys = np.array([[top - 3, 1, top - 2], [top - 1, 2, top - 1], [top, top, top]],
                        dtype=np.int32)
        orders, _ = _cyclic_orders(ConstantTable(MAX_TABLE_N, "f", keys, np.ones(3)))
        flat = []
        for i, j, k in orders:
            for last in (k, j):  # the order (i, j, k), then (i, k, j)
                at = dynamics._flat(i, last, top)
                assert at.dtype == np.intp
                assert at.tolist() == [x * top + z for x, z in zip(i.tolist(), last.tolist())]
                flat.append(at.max())
        assert max(flat) > 2**31


def _su2(h):
    return HamiltonianCoefficients(0.0, np.asarray(h), 1.0)


class TestNonFiniteVectors:
    """Every entry point that takes a coefficient, coherence or amplitude vector
    refuses NaN and inf."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda v: integrate_bloch(build_f_table(2), _su2([0.0, 0.0, 1.0]), v,
                                                   IntegrationSpec(t_final=1.0, dt=0.1)),
                         id="integrate_bloch"),
            pytest.param(lambda v: reconstruct_density(AlgebraConfig(2), v),
                         id="reconstruct_density"),
            pytest.param(lambda v: hamiltonian_from_coefficients(AlgebraConfig(2), _su2(v)),
                         id="hamiltonian_from_coefficients"),
            pytest.param(lambda v: precession_rhs(build_f_table(2), _su2([0.0, 0.0, 1.0]), v),
                         id="precession_rhs_state"),
            pytest.param(lambda v: precession_rhs(build_f_table(2), _su2(v), np.zeros(3)),
                         id="precession_rhs_coefficients"),
            pytest.param(lambda v: precession_matrix(build_f_table(2), _su2(v)),
                         id="precession_matrix"),
            pytest.param(lambda v: bloch_from_states(AlgebraConfig(2), [v[:2]]),
                         id="bloch_from_states"),
        ],
    )
    def test_rejected(self, call, bad):
        with pytest.raises(ValueError, match="non-finite"):
            call(np.array([bad, 0.0, 0.5]))


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: reconstruct_density(AlgebraConfig(2), [1e308, 0.0, 0.0]),
                     id="density"),
        pytest.param(lambda: reconstruct_density(AlgebraConfig(2, 1e-100), [1e200, 0.0, 0.0]),
                     id="density-small-hbar"),
        pytest.param(lambda: hamiltonian_from_coefficients(
            AlgebraConfig(2, 1e-100), HamiltonianCoefficients(0.0, [1e300, 0.0, 0.0], 1e-100)),
                     id="hamiltonian-small-hbar"),
        pytest.param(lambda: hamiltonian_from_coefficients(
            AlgebraConfig(2), HamiltonianCoefficients(1.79e308, [0.0, 0.0, 5e306])),
                     id="hamiltonian-huge-identity"),
        pytest.param(lambda: hamiltonian_from_coefficients(
            AlgebraConfig(2), HamiltonianCoefficients(math.nan, [0.0, 0.0, 1.0])),
                     id="hamiltonian-nan-identity"),
    ],
)
def test_expansion_beyond_the_floats_rejected(call):
    # scale * coefficient, or the identity plus the diagonal, overflowed in
    # numpy (a RuntimeWarning and inf/NaN entries); a NaN identity came back as is.
    with pytest.raises(ValueError, match="too large to expand|identity coefficient"):
        call()


class TestIndependentReferences:
    """Entry-wise projections against explicit sums over the dense generators."""

    HBAR = 1.5

    @pytest.mark.parametrize("n_dim", [2, 3, 4, 5, 6])
    def test_decompose_is_trace_projection(self, n_dim):
        rng = np.random.default_rng(300 + n_dim)
        cfg = AlgebraConfig(n_dim, hbar=self.HBAR)
        mat = random_hermitian(rng, n_dim)
        expected = [(2.0 / self.HBAR) * np.trace(mat @ g).real for g in all_generators(cfg)]
        np.testing.assert_allclose(decompose_hamiltonian(cfg, mat).h, expected, atol=1e-14)

    @pytest.mark.parametrize("n_dim", [2, 3, 4, 5, 6])
    def test_expansions_are_generator_sums(self, n_dim):
        rng = np.random.default_rng(400 + n_dim)
        cfg = AlgebraConfig(n_dim, hbar=self.HBAR)
        stack = np.stack(all_generators(cfg))
        x = rng.normal(size=cfg.dim)
        summed = np.einsum("k,kab->ab", x, stack)
        eye = np.eye(n_dim)
        np.testing.assert_allclose(
            hamiltonian_from_coefficients(cfg, HamiltonianCoefficients(0.3, x, self.HBAR)),
            0.3 * eye + summed / self.HBAR,
            atol=1e-14,
        )
        np.testing.assert_allclose(
            reconstruct_density(cfg, x), eye / n_dim + (2.0 / self.HBAR**2) * summed, atol=1e-14
        )

    @pytest.mark.parametrize("n_dim", [3, 4])
    def test_precession_matrix_is_lookup_sum(self, n_dim):
        rng = np.random.default_rng(500 + n_dim)
        table = build_f_table(n_dim)
        dim = n_dim * n_dim - 1
        h = rng.normal(size=dim)
        idx = range(1, dim + 1)
        expected = np.array(
            [[sum(table.lookup(i, j, k) * h[j - 1] for j in idx) for k in idx] for i in idx]
        )
        omega = precession_matrix(table, HamiltonianCoefficients(0.0, h, self.HBAR))
        np.testing.assert_allclose(omega, expected / self.HBAR, atol=1e-14)


class TestIntegration:
    def test_circular_precession_returns_home(self):
        omega = 1.7
        table = build_f_table(2)
        coeffs = HamiltonianCoefficients(0.0, np.array([0.0, 0.0, omega]), 1.0)
        s0 = np.array([0.5, 0.0, 0.0])
        period = 2.0 * math.pi / omega
        spec = IntegrationSpec(t_final=period, dt=period / 1000.0)
        traj = integrate_bloch(table, coeffs, s0, spec)
        assert np.abs(traj.states[-1] - s0).max() <= 1e-8

    def test_zero_coefficients_freeze_the_state(self):
        table = build_f_table(3)
        coeffs = HamiltonianCoefficients(0.7, np.zeros(8), 1.0)
        s0 = np.arange(8.0)
        traj = integrate_bloch(table, coeffs, s0, IntegrationSpec(t_final=1.0, dt=0.01))
        np.testing.assert_array_equal(traj.states[-1], s0)

    def test_diagonal_hamiltonian_phases(self):
        rng = np.random.default_rng(5)
        energies = rng.normal(size=4)
        hbar = 1.3
        cfg = AlgebraConfig(4, hbar=hbar)
        psi0 = random_state(rng, 4)
        t_final = 3.0
        spec = IntegrationSpec(t_final=t_final, dt=1e-3)
        traj = integrate_tdse(cfg, np.diag(energies), psi0, spec)
        expected = psi0 * np.exp(-1j * energies * t_final / hbar)
        assert np.abs(traj.states[-1] - expected).max() <= 1e-9

    @pytest.mark.parametrize("hbar", [1.0, 1.7])
    def test_rabi_full_transfer(self, hbar):
        # Coupling-only coefficients h = (Omega, 0, 0): population fully
        # inverts at t = pi hbar / Omega.
        omega = 0.9
        cfg = AlgebraConfig(2, hbar=hbar)
        coeffs = HamiltonianCoefficients(0.0, np.array([omega, 0.0, 0.0]), hbar)
        mat = hamiltonian_from_coefficients(cfg, coeffs)
        t_swap = math.pi * hbar / omega
        spec = IntegrationSpec(t_final=t_swap, dt=t_swap / 4000.0)
        traj = integrate_tdse(cfg, mat, np.array([1.0, 0.0]), spec)
        assert abs(traj.states[-1][1]) ** 2 == pytest.approx(1.0, abs=1e-9)

    def test_norm_preserved_over_ten_thousand_steps(self):
        rng = np.random.default_rng(23)
        cfg = AlgebraConfig(4)
        traj = integrate_tdse(
            cfg,
            random_hermitian(rng, 4),
            random_state(rng, 4),
            IntegrationSpec(t_final=10.0, dt=1e-3),
        )
        norms = np.sum(np.abs(traj.states) ** 2, axis=1)
        assert np.abs(norms - 1.0).max() <= 1e-9

    def test_output_stride_and_tail_step(self):
        table = build_f_table(2)
        coeffs = HamiltonianCoefficients(0.0, np.array([0.0, 0.0, 1.0]), 1.0)
        s0 = np.array([0.5, 0.0, 0.0])
        spec = IntegrationSpec(t_final=1.05, dt=0.1, output_stride=3)
        traj = integrate_bloch(table, coeffs, s0, spec)
        np.testing.assert_allclose(traj.times, [0.0, 0.3, 0.6, 0.9, 1.0, 1.05], atol=1e-12)
        assert traj.states.shape == (6, 3)
        numpy_spec = IntegrationSpec(t_final=1.05, dt=0.1, output_stride=np.int64(3))
        assert repr(numpy_spec) == repr(spec)
        again = integrate_bloch(table, coeffs, s0, numpy_spec)
        np.testing.assert_array_equal(again.times, traj.times)
        np.testing.assert_array_equal(again.states, traj.states)

    @pytest.mark.parametrize("method", ["rk4", "exact"])
    def test_grid_ends_at_t_final(self, method):
        # 3 * 0.1 rounds to 0.30000000000000004; the last sample is still t = 0.3.
        table = build_f_table(2)
        coeffs = HamiltonianCoefficients(0.0, np.array([0.0, 0.0, 1.0]), 1.0)
        spec = IntegrationSpec(t_final=0.3, dt=0.1, method=method)
        traj = integrate_bloch(table, coeffs, np.array([0.5, 0.0, 0.0]), spec)
        assert traj.times.shape == (4,)
        assert traj.times[-1] == 0.3
        np.testing.assert_allclose(traj.states[-1], [0.5 * math.cos(0.3), 0.5 * math.sin(0.3), 0.0],
                                   atol=1e-6)

    def test_zero_duration(self):
        table = build_f_table(2)
        coeffs = HamiltonianCoefficients(0.0, np.zeros(3), 1.0)
        traj = integrate_bloch(table, coeffs, np.zeros(3), IntegrationSpec(0.0, 0.1))
        assert traj.times.shape == (1,)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"t_final": 1.0, "dt": 0.0},
            {"t_final": -1.0, "dt": 0.1},
            {"t_final": 1.0, "dt": 0.1, "method": "euler"},
            {"t_final": 1.0, "dt": 0.1, "output_stride": 0},
            # Step indices beyond int64: refused before any grid is allocated.
            {"t_final": 1e300, "dt": 1e-10},
            {"t_final": 1e10, "dt": 1e-300},
            {"t_final": 1.0, "dt": 1e-3, "output_stride": 10**30},
            # The stride is an integer: no floats, even whole ones, and no bools.
            {"t_final": 1.0, "dt": 0.1, "output_stride": 2.5},
            {"t_final": 1.0, "dt": 0.1, "output_stride": 2.0},
            {"t_final": 1.0, "dt": 0.1, "output_stride": True},
        ],
    )
    def test_bad_spec_rejected(self, kwargs):
        with pytest.raises(ValueError):
            IntegrationSpec(**kwargs)

    @pytest.mark.parametrize(
        "t_final, dt", [(math.inf, 0.1), (math.nan, 0.1), (1.0, math.inf), (1.0, math.nan)]
    )
    def test_non_finite_spec_rejected(self, t_final, dt):
        with pytest.raises(ValueError, match="finite"):
            IntegrationSpec(t_final=t_final, dt=dt)

    @pytest.mark.parametrize("method", ["rk4", "exact"])
    def test_sample_count_beyond_memory_rejected(self, method):
        # 10**18 + 1 samples: numpy refuses the array without allocating it.
        table = build_f_table(2)
        coeffs = HamiltonianCoefficients(0.0, np.array([0.0, 0.0, 1.0]), 1.0)
        spec = IntegrationSpec(t_final=1e9, dt=1e-9, method=method)
        with pytest.raises(ValueError, match=r"^\d{19} samples of 3 values \(\d{20} bytes\)"):
            integrate_bloch(table, coeffs, np.array([0.5, 0.0, 0.0]), spec)

    def test_working_memory_stays_bounded(self):
        # 20,001 samples at N = 16: one N x N work array per sample would add
        # about 82 MB beside the 41 MB of states.
        n_dim = 16
        rng = np.random.default_rng(n_dim)
        cfg = AlgebraConfig(n_dim)
        coeffs = decompose_hamiltonian(cfg, random_hermitian(rng, n_dim))
        s0 = state_to_bloch(cfg, random_state(rng, n_dim))
        table = build_f_table(n_dim)
        traj, peak = traced_peak(integrate_bloch, table, coeffs, s0, IntegrationSpec(20.0, 1e-3))
        assert traj.states.shape == (20001, cfg.dim)
        assert peak <= traj.states.nbytes + 4e6


class TestEigensystem:
    """The shifted SVD of `_eigensystem` against numpy's eigh."""

    @staticmethod
    def check(mat):
        energies, vectors = dynamics._eigensystem(mat)
        scale = max(1.0, float(np.abs(mat).max()))
        eye = np.eye(len(mat))
        assert np.abs(energies - np.linalg.eigvalsh(mat)).max() <= 1e-12 * scale
        assert np.abs(mat @ vectors - vectors * energies).max() <= 1e-12 * scale
        assert np.abs(vectors.conj().T @ vectors - eye).max() <= 1e-12

    @pytest.mark.parametrize("n_dim", [2, 25, 26, 32, 64])
    def test_matches_eigh(self, n_dim):
        # eigh switches to divide and conquer above N = 25.
        rng = np.random.default_rng(1100 + n_dim)
        a = rng.normal(size=(n_dim, n_dim)) + 1j * rng.normal(size=(n_dim, n_dim))
        self.check(a + a.conj().T)

    @pytest.mark.parametrize(
        "mat",
        [
            pytest.param(np.zeros((4, 4)), id="zero"),
            pytest.param(2.5 * np.eye(5), id="multiple-of-identity"),
            pytest.param(np.diag(np.r_[np.full(10, -1.0 / 11), 10.0 / 11]), id="one-excited"),
            pytest.param(np.diag([100.0, 101.0]), id="large-trace"),
        ],
    )
    def test_degenerate_and_shifted_spectra(self, mat):
        rng = np.random.default_rng(len(mat))
        q, _ = np.linalg.qr(rng.normal(size=mat.shape) + 1j * rng.normal(size=mat.shape))
        self.check(q @ mat @ q.conj().T)


def stagewise_rk4(matrix, y0, t_final, dt, stride):
    """Plain four-stage RK4, sampled every ``stride`` steps, at the last full
    step and after a tail step that reaches ``t_final``."""

    def step(y, h):
        k1 = matrix @ y
        k2 = matrix @ (y + 0.5 * h * k1)
        k3 = matrix @ (y + 0.5 * h * k2)
        k4 = matrix @ (y + h * k3)
        return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    n_full = int(math.floor(t_final / dt + 1e-9))
    times, states, y = [0.0], [y0], y0
    for count in range(1, n_full + 1):
        y = step(y, dt)
        if count % stride == 0 or count == n_full:
            times.append(count * dt)
            states.append(y)
    remainder = t_final - n_full * dt
    if remainder > 1e-12 * max(t_final, dt):
        times.append(t_final)
        states.append(step(y, remainder))
    return np.array(times), np.array(states)


class TestRk4Propagator:
    """RK4 on both flows against stage-wise RK4 on Omega and on -iH/hbar."""

    HBAR = 1.3

    def check_both_flows(self, n_dim, t_final, dt, stride=3):
        rng = np.random.default_rng(600 + n_dim)
        cfg = AlgebraConfig(n_dim, hbar=self.HBAR)
        table = build_f_table(n_dim)
        mat = random_hermitian(rng, n_dim)
        psi0 = random_state(rng, n_dim)
        spec = IntegrationSpec(t_final=t_final, dt=dt, output_stride=stride)
        coeffs = decompose_hamiltonian(cfg, mat)
        s0 = state_to_bloch(cfg, psi0)
        cases = [
            (integrate_bloch(table, coeffs, s0, spec), precession_matrix(table, coeffs), s0),
            (integrate_tdse(cfg, mat, psi0, spec), (-1j / self.HBAR) * mat, psi0),
        ]
        for traj, matrix, y0 in cases:
            times, states = stagewise_rk4(matrix, y0, t_final, dt, stride)
            np.testing.assert_array_equal(traj.times, times)
            assert traj.states.shape == states.shape
            assert np.abs(traj.states - states).max() <= 1e-12

    @pytest.mark.parametrize(
        "n_dim, t_final, stride",
        [
            # 200 full steps (not a multiple of the stride) plus a half step.
            pytest.param(2, 2.005, 3, id="2"),
            pytest.param(3, 2.005, 3, id="3"),
            pytest.param(4, 2.005, 3, id="4"),
            pytest.param(3, 0.205, 1, id="3-0.205-1"),  # every gap is one step
            pytest.param(3, 0.205, 50, id="3-0.205-50"),  # the stride exceeds the 20 full steps
            pytest.param(3, 0.0, 3, id="3-0.0-3"),  # no steps at all
            pytest.param(3, 0.205, 20, id="3-0.205-20"),  # one gap spans every full step
        ],
    )
    def test_matches_stagewise_with_stride_and_tail(self, n_dim, t_final, stride):
        self.check_both_flows(n_dim, t_final=t_final, dt=0.01, stride=stride)

    @pytest.mark.parametrize(
        "n_dim, stride",
        [*(pytest.param(n, 10, id=str(n)) for n in (2, 3, 4, 5, 6)),
         # A stride that does not divide the 10,001 full steps.
         pytest.param(6, 7, id="6-stride7")],
    )
    def test_matches_stagewise_at_ensemble_shape(self, n_dim, stride):
        # The shape of the benchmark ensemble: 10,001 full steps sampled every
        # ``stride``, a shorter gap to the last full step and a half-step tail.
        self.check_both_flows(n_dim, t_final=10.0015, dt=1e-3, stride=stride)

    def test_matches_stagewise_across_column_blocks(self):
        # N = 12: 143 coherence components against 12 amplitudes.
        self.check_both_flows(12, t_final=0.205, dt=0.01)

    def test_million_steps_match_repeated_squaring(self):
        # h = (0, 0, 1) at N = 2 turns s_1 + i s_2 by one mode, z = i dt per
        # step, so after k steps it is 0.5 R(z)**k.  The reference squares
        # w = R(z) - 1 as a Python complex, (1 + w)**2 = 1 + (2w + w**2), so
        # that no rounding of 1 + w is raised to the millionth power.  Taking
        # R**k as exp(k log1p(R - 1)) with numpy's complex log1p misses the
        # bound here (3e-11).
        def power(z, k):
            w, acc = z * (1 + z / 2 * (1 + z / 3 * (1 + z / 4))), 0j
            while k:
                if k & 1:
                    acc += w + acc * w
                w = 2 * w + w * w
                k >>= 1
            return 1 + acc

        dt, stride = 0.01, 10**5
        spec = IntegrationSpec(t_final=10**6 * dt, dt=dt, output_stride=stride)
        traj = integrate_bloch(build_f_table(2), _su2([0.0, 0.0, 1.0]), [0.5, 0.0, 0.0], spec)
        assert traj.times.shape == (11,)
        expected = [0.5 * power(1j * dt, row * stride) for row in range(11)]
        np.testing.assert_array_equal(traj.states[:, 2], 0.0)
        assert np.abs(traj.states[:, 0] + 1j * traj.states[:, 1] - expected).max() <= 1e-11


def full_mode_precession(coeffs, s0, spec, n_dim, chunk=256):
    """The precession read on all N**2 modes: each sample is s0 plus the
    coherence vector of vectors @ (rho~0 * (F - 1)) @ vectors^dagger, with F
    from every entry's own frequency and no mirroring."""
    cfg = AlgebraConfig(n_dim, coeffs.hbar)
    traceless = HamiltonianCoefficients(0.0, coeffs.h, cfg.hbar)
    energies, vectors = dynamics._eigensystem(hamiltonian_from_coefficients(cfg, traceless))
    modes = vectors.conj().T @ reconstruct_density(cfg, s0) @ vectors
    frequencies = np.subtract.outer(energies, energies) / cfg.hbar
    radius = (energies[-1] - energies[0]) / cfg.hbar
    # The grid as one array, every output_stride-th full step, the last, and the tail.
    count, n_steps, n_full, remainder = dynamics._sample_grid(spec, radius, s0)
    record = np.minimum(np.arange(n_steps) * spec.output_stride, n_full)
    times = np.minimum(record * spec.dt, spec.t_final)
    if remainder:
        times = np.append(times, spec.t_final)
    states = np.empty((count, s0.size))
    states[0] = s0
    if spec.method == "exact":
        steps, log_step, log_tail = times, -1j * frequencies, 0.0
    else:
        steps = np.append(record, record[-1]) if remainder else record
        log_step = dynamics._rk4_log(spec.dt * frequencies)
        log_tail = dynamics._rk4_log(remainder * frequencies)
    m_idx, n_idx = _bloch_maps(n_dim)[:2]
    for start in range(1, len(times), chunk):
        stop = min(start + chunk, len(times))
        exponent = np.multiply.outer(steps[start:stop], log_step)
        if stop == len(times):
            exponent[-1] += log_tail
        rho = vectors @ (modes * (np.exp(exponent) - 1.0)) @ vectors.conj().T
        states[start:stop] = s0 + _generator_traces(cfg, rho[:, n_idx, m_idx],
                                                    rho.diagonal(0, 1, 2).real)
    return times, states


class TestHalfModeRead:
    """The precession read over the modes above the diagonal, in grouped flat
    products, against the read over all N**2 modes one sample at a time."""

    # Full steps of dt = 0.01 per N: more samples than one block holds.  At
    # N = 16 a block is two groups of 15 samples, and 113 = 3 * 30 + 23 leaves
    # a last block that splits into groups of 12 and 11, zero-padded to 12.
    STEPS = {2: 9000, 3: 3000, 4: 1500, 5: 1500, 6: 1500, 7: 1500, 12: 1050, 16: 113, 32: 100}

    @pytest.mark.parametrize("hbar", [1.0, 1.5])
    @pytest.mark.parametrize("method", ["rk4", "exact"])
    @pytest.mark.parametrize("n_dim", sorted(STEPS))
    def test_matches_full_mode_read(self, n_dim, method, hbar):
        rng = np.random.default_rng(1600 + n_dim)
        cfg = AlgebraConfig(n_dim, hbar=hbar)
        coeffs = decompose_hamiltonian(cfg, random_hermitian(rng, n_dim))
        s0 = state_to_bloch(cfg, random_state(rng, n_dim))
        steps = self.STEPS[n_dim]
        # Every step, then every 7th with the last full step and a half-step tail.
        for t_final, stride in ((steps * 0.01, 1), ((steps + 0.5) * 0.01, 7)):
            spec = IntegrationSpec(t_final, 0.01, method=method, output_stride=stride)
            traj = dynamics._collect(*dynamics._integrate_precession(n_dim, coeffs, s0, spec))
            times, states = full_mode_precession(coeffs, s0, spec, n_dim)
            np.testing.assert_array_equal(traj.times, times)
            assert np.abs(traj.states - states).max() <= 2e-15

    def test_rk4_log_of_the_mirrored_mode_is_the_conjugate(self):
        # F_ba = conj(F_ab) needs log R(i x) = conj(log R(-i x)) to the bit.
        rng = np.random.default_rng(16)
        x = rng.normal(size=2000) * 10.0 ** rng.uniform(-9.0, 0.5, size=2000)
        x = np.concatenate((x, [1e-300, 1e-8, 0.5, 1.0, 2.0, 2.0 * math.sqrt(2.0)]))
        mirrored, direct = dynamics._rk4_log(-x), dynamics._rk4_log(x).conj()
        # A zero real part (x = 1e-300) may differ in its sign, which exp ignores.
        np.testing.assert_array_equal(mirrored, direct)
        np.testing.assert_array_equal(mirrored.imag.view(np.int64), direct.imag.view(np.int64))

    @pytest.mark.parametrize("n_dim", [2, 6, 12, 32, 40, 41, 64])
    def test_block_rule(self, n_dim):
        # Precession reads a sample as N rows of X^T and holds N x N increments;
        # the amplitudes read one row, hold N, and take one group per block.
        # Only the rule is evaluated: nothing is allocated and no product runs.
        for rows, width in ((n_dim, n_dim * n_dim), (1, n_dim)):
            group, block = dynamics._block_samples(n_dim, rows)
            one_sample = rows * n_dim * n_dim
            if one_sample < 2**16:
                assert group * one_sample < 2**16 <= (group + 1) * one_sample
            else:
                assert group == 1
            assert block % group == 0 and block * rows <= max(group * rows, 2**9)
            assert 16 * (block if rows > 1 else group) * width <= 2**19

    def test_each_flow_takes_its_blocks_from_the_rule(self, monkeypatch):
        blocks = []

        def record(*args):
            blocks.append(args[-1])
            return evolve(*args)

        evolve = dynamics._evolve_modes
        monkeypatch.setattr(dynamics, "_evolve_modes", record)
        rng = np.random.default_rng(5)
        cfg = AlgebraConfig(16)
        mat = random_hermitian(rng, 16)
        psi0 = random_state(rng, 16)
        spec = IntegrationSpec(0.1, 0.01)
        integrate_bloch(build_f_table(16), decompose_hamiltonian(cfg, mat),
                        state_to_bloch(cfg, psi0), spec)
        integrate_tdse(cfg, mat, psi0, spec)
        # At N = 16 a precession block is two groups of 15 samples, and an
        # amplitude block one group of 255.
        assert blocks == [30, 255]
        assert blocks == [dynamics._block_samples(16, 16)[1], dynamics._block_samples(16, 1)[0]]


class TestDensityPath:
    """The precession flow at N >= 11, where Omega has d >= 120 rows, and the
    amplitude flow beside it, against stage-wise RK4."""

    HBAR = 1.3

    @pytest.mark.parametrize("n_dim", [11, 16])
    def test_matches_stagewise_precession_matrix(self, n_dim, monkeypatch):
        rng = np.random.default_rng(700 + n_dim)
        cfg = AlgebraConfig(n_dim, hbar=self.HBAR)
        table = build_f_table(n_dim)
        mat = random_hermitian(rng, n_dim)
        psi0 = random_state(rng, n_dim)
        coeffs = decompose_hamiltonian(cfg, mat)
        s0 = state_to_bloch(cfg, psi0)
        omega = precession_matrix(table, coeffs)
        # 20 full steps (not a multiple of the stride) plus a half step.
        expected = [stagewise_rk4(matrix, y0, 0.205, 0.01, 3)
                    for matrix, y0 in ((omega, s0), ((-1j / self.HBAR) * mat, psi0))]

        def refuse(*args):
            raise AssertionError("integration builds no d x d matrix")

        monkeypatch.setattr(dynamics, "precession_matrix", refuse)
        spec = IntegrationSpec(t_final=0.205, dt=0.01, output_stride=3)
        trajectories = [integrate_bloch(table, coeffs, s0, spec),
                        integrate_tdse(cfg, mat, psi0, spec)]
        for traj, (times, states) in zip(trajectories, expected):
            np.testing.assert_array_equal(traj.times, times)
            assert traj.states.shape == states.shape
            assert np.abs(traj.states - states).max() <= 1e-12

    def test_stable_near_guard_with_skewed_spectrum(self):
        # One excited level: eigenvalues -1/N (N - 1 times) and (N - 1)/N,
        # spread 1, so max |lambda_a + lambda_b| is nearly twice the spread.
        # At dt * spread / hbar = 2.8, just inside the guard, both flows must
        # follow stage-wise RK4 for hundreds of steps.
        n_dim = 11
        rng = np.random.default_rng(900 + n_dim)
        q, _ = np.linalg.qr(rng.normal(size=(n_dim, n_dim)) + 1j * rng.normal(size=(n_dim, n_dim)))
        energies = np.full(n_dim, -1.0 / n_dim)
        energies[-1] = (n_dim - 1) / n_dim
        cfg = AlgebraConfig(n_dim, hbar=self.HBAR)
        table = build_f_table(n_dim)
        mat = (q * energies) @ q.conj().T
        coeffs = decompose_hamiltonian(cfg, mat)
        psi0 = random_state(rng, n_dim)
        s0 = state_to_bloch(cfg, psi0)
        dt = 2.8 * self.HBAR
        # 300 full steps plus a half step.
        spec = IntegrationSpec(300.5 * dt, dt, output_stride=7)
        cases = [
            (integrate_bloch(table, coeffs, s0, spec), precession_matrix(table, coeffs), s0),
            (integrate_tdse(cfg, mat, psi0, spec), (-1j / self.HBAR) * mat, psi0),
        ]
        for traj, matrix, y0 in cases:
            times, states = stagewise_rk4(matrix, y0, 300.5 * dt, dt, 7)
            np.testing.assert_array_equal(traj.times, times)
            assert np.abs(traj.states - states).max() <= 1e-12

    def test_d_table_rejected(self):
        n_dim = 11
        coeffs = HamiltonianCoefficients(0.0, np.zeros(n_dim * n_dim - 1), self.HBAR)
        with pytest.raises(ValueError, match="'f' table"):
            integrate_bloch(build_d_table(n_dim), coeffs, np.zeros(n_dim * n_dim - 1),
                            IntegrationSpec(t_final=0.1, dt=0.01))

    @pytest.mark.parametrize("t_final", [20.0, 0.0])
    def test_unstable_step_rejected(self, t_final):
        # Unscaled Gaussian Hermitian: dt = 0.2 puts dt * spread beyond 2 sqrt(2).
        n_dim = 11
        rng = np.random.default_rng(n_dim)
        a = rng.normal(size=(n_dim, n_dim)) + 1j * rng.normal(size=(n_dim, n_dim))
        mat = a + a.conj().T
        energies = np.linalg.eigvalsh(mat)
        assert 0.2 * (energies[-1] - energies[0]) > 2.0 * math.sqrt(2.0)
        cfg = AlgebraConfig(n_dim)
        s0 = state_to_bloch(cfg, random_state(rng, n_dim))
        spec = IntegrationSpec(t_final=t_final, dt=0.2)
        with pytest.raises(ValueError, match="unstable"):
            integrate_bloch(build_f_table(n_dim), decompose_hamiltonian(cfg, mat), s0, spec)


class TestStabilityGuard:
    # Unscaled Gaussian Hermitian at N = 8: eigenvalue spread near 19, so
    # dt = 0.2 puts dt * spread beyond 2 sqrt(2).
    @pytest.fixture
    def unstable_problem(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        mat = a + a.conj().T
        energies = np.linalg.eigvalsh(mat)
        assert 0.2 * (energies[-1] - energies[0]) > 2.0 * math.sqrt(2.0)
        return AlgebraConfig(8), mat, random_state(rng, 8)

    def test_unstable_step_rejected(self, unstable_problem):
        cfg, mat, psi0 = unstable_problem
        spec = IntegrationSpec(t_final=20.0, dt=0.2)
        coeffs = decompose_hamiltonian(cfg, mat)
        with pytest.raises(ValueError, match="unstable"):
            integrate_bloch(build_f_table(8), coeffs, state_to_bloch(cfg, psi0), spec)
        with pytest.raises(ValueError, match="unstable"):
            integrate_tdse(cfg, mat, psi0, spec)

    def test_unstable_step_rejected_at_zero_duration(self, unstable_problem):
        # The guard runs before the zero-duration shortcut: dt is refused
        # whatever t_final is.
        cfg, mat, psi0 = unstable_problem
        spec = IntegrationSpec(t_final=0.0, dt=0.2)
        coeffs = decompose_hamiltonian(cfg, mat)
        with pytest.raises(ValueError, match="unstable"):
            integrate_bloch(build_f_table(8), coeffs, state_to_bloch(cfg, psi0), spec)
        with pytest.raises(ValueError, match="unstable"):
            integrate_tdse(cfg, mat, psi0, spec)

    def test_adaptive_method_not_refused(self, unstable_problem):
        # The exact method has no stability limit: the dt RK4 refuses above
        # gives the same samples as a step ten times finer.
        cfg, mat, psi0 = unstable_problem
        coeffs = decompose_hamiltonian(cfg, mat)
        s0 = state_to_bloch(cfg, psi0)
        coarse = IntegrationSpec(t_final=0.4, dt=0.2, method="exact")
        fine = IntegrationSpec(t_final=0.4, dt=0.02, method="exact", output_stride=10)
        bloch = [integrate_bloch(build_f_table(8), coeffs, s0, spec) for spec in (coarse, fine)]
        amps = [integrate_tdse(cfg, mat, psi0, spec) for spec in (coarse, fine)]
        for a, b in (bloch, amps):
            assert a.times.shape == b.times.shape == (3,)
            assert np.abs(a.states - b.states).max() <= 1e-12

    @pytest.mark.parametrize("hbar", [1.0, 1.3])
    def test_largest_stable_step_accepted(self, hbar):
        rng = np.random.default_rng(9)
        cfg = AlgebraConfig(5, hbar=hbar)
        mat = random_hermitian(rng, 5)
        energies = np.linalg.eigvalsh(mat)
        dt = 0.999 * 2.0 * math.sqrt(2.0) * hbar / (energies[-1] - energies[0])
        coeffs = decompose_hamiltonian(cfg, mat)
        s0 = state_to_bloch(cfg, random_state(rng, 5))
        traj = integrate_bloch(build_f_table(5), coeffs, s0, IntegrationSpec(50 * dt, dt))
        # Inside the stability interval RK4 damps, never amplifies, |s|.
        assert np.sum(traj.states[-1] ** 2) <= np.sum(s0**2)

    def test_shifted_hamiltonian_checks_amplitude_radius(self):
        # A trace shift leaves the precession flow alone but scales the
        # amplitude flow's spectrum, which is what RK4 sees there.
        cfg = AlgebraConfig(2)
        mat = np.diag([100.0, 101.0])
        spec = IntegrationSpec(t_final=1.0, dt=0.1)
        integrate_bloch(build_f_table(2), decompose_hamiltonian(cfg, mat), [0.5, 0, 0], spec)
        with pytest.raises(ValueError, match="unstable"):
            integrate_tdse(cfg, mat, np.array([1.0, 0.0]), spec)


class TestPrecessionBlocks:
    """The one stream from H and a pure state that `simulate` and
    `bloch_tdse_deviation` share."""

    @pytest.fixture
    def problem(self):
        rng = np.random.default_rng(3)
        return AlgebraConfig(3), random_hermitian(rng, 3), random_state(rng, 3)

    @pytest.mark.parametrize("compare", [False, True])
    @pytest.mark.parametrize("change, match", [
        ({"hamiltonian": np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]])},
         "not Hermitian"),
        ({"hamiltonian": np.eye(2)}, "shape"),
        ({"psi0": np.array([1.0, 1.0, 0.0])}, "norm"),
        ({"psi0": np.array([1.0, 0.0])}, "expected a length-3 state vector, got shape \\(2,\\)"),
        ({"spec": IntegrationSpec(t_final=20.0, dt=5.0)}, "unstable"),
        ({"spec": IntegrationSpec(t_final=0.0, dt=5.0)}, "unstable"),
        ({"spec": IntegrationSpec(t_final=1e9, dt=1e-9)}, "do not fit in memory"),
        ({"spec": IntegrationSpec(t_final=1e9, dt=1e-9, method="exact")}, "do not fit in memory"),
        # dt * radius and t_final * radius overflow: refused, not a RuntimeWarning.
        ({"spec": IntegrationSpec(t_final=1.7e308, dt=1.7e308)}, "unstable"),
        ({"spec": IntegrationSpec(t_final=1.7e308, dt=1.7e308, method="exact")}, "overflows"),
    ])
    def test_refused_at_the_call(self, problem, compare, change, match):
        # Each refusal comes from the call itself: no block is asked for.
        cfg, mat, psi0 = problem
        args = {"hamiltonian": mat, "psi0": psi0, "spec": IntegrationSpec(1.0, 0.01), **change}
        with pytest.raises(ValueError, match=match):
            precession_blocks(cfg, args["hamiltonian"], args["psi0"], args["spec"], compare)

    def test_unstable_amplitude_step_refused_at_the_call(self):
        # A trace shift leaves the precession flow stable at dt = 0.1 but not
        # the amplitudes: only the comparison refuses it.
        cfg, mat, psi0 = AlgebraConfig(2), np.diag([100.0, 101.0]), np.array([1.0 + 0j, 0.0])
        spec = IntegrationSpec(t_final=1.0, dt=0.1)
        precession_blocks(cfg, mat, psi0, spec, False)
        with pytest.raises(ValueError, match="unstable"):
            precession_blocks(cfg, mat, psi0, spec, True)

    @pytest.mark.parametrize("method", ["rk4", "exact"])
    @pytest.mark.parametrize("n_dim", sorted(TestHalfModeRead.STEPS))
    def test_rows_are_integrate_bloch_rows(self, n_dim, method):
        rng = np.random.default_rng(2400 + n_dim)
        cfg = AlgebraConfig(n_dim, hbar=1.5)
        mat, psi0 = random_hermitian(rng, n_dim), random_state(rng, n_dim)
        table = build_f_table(n_dim)
        steps = TestHalfModeRead.STEPS[n_dim]
        # Every step, then every 7th with the last full step and a half-step tail.
        for t_final, stride in ((steps * 0.01, 1), ((steps + 0.5) * 0.01, 7)):
            spec = IntegrationSpec(t_final, 0.01, method=method, output_stride=stride)
            traj = integrate_bloch(table, decompose_hamiltonian(cfg, mat),
                                   state_to_bloch(cfg, psi0), spec)
            plain = list(precession_blocks(cfg, mat, psi0, spec, False))
            assert len(plain) > 2 or stride > 1  # row 0, then more than one block
            assert {gap for *_, gap in plain} == {None}
            np.testing.assert_array_equal(np.concatenate([t for t, *_ in plain]), traj.times)
            np.testing.assert_array_equal(np.concatenate([r for _, r, _ in plain]), traj.states)
            compared = list(precession_blocks(cfg, mat, psi0, spec, True))
            for (times, rows, _), (t, r, _) in zip(plain, compared, strict=True):
                np.testing.assert_array_equal(t, times)
                np.testing.assert_array_equal(r, rows)
            gaps = [gap for *_, gap in compared]
            assert gaps == sorted(gaps)
            assert gaps[-1] == bloch_tdse_deviation(cfg, table, mat, psi0, spec)


class TestEquivalence:
    @pytest.mark.parametrize("n_dim", [2, 3, 4])
    def test_precession_tracks_amplitudes(self, n_dim):
        rng = np.random.default_rng(200 + n_dim)
        cfg = AlgebraConfig(n_dim)
        table = build_f_table(n_dim)
        mat = random_hermitian(rng, n_dim)
        psi0 = random_state(rng, n_dim)
        spec = IntegrationSpec(t_final=2.0, dt=1e-3)
        assert bloch_tdse_deviation(cfg, table, mat, psi0, spec) <= 1e-6

    def test_casimir_and_purity_conserved(self):
        rng = np.random.default_rng(31)
        cfg = AlgebraConfig(3)
        table = build_f_table(3)
        mat = random_hermitian(rng, 3)
        psi0 = random_state(rng, 3)
        coeffs = decompose_hamiltonian(cfg, mat)
        spec = IntegrationSpec(t_final=2.0, dt=1e-3)
        traj = integrate_bloch(table, coeffs, state_to_bloch(cfg, psi0), spec)
        casimir = np.sum(traj.states**2, axis=1)
        assert np.abs(casimir - casimir[0]).max() <= 1e-10
        for row in traj.states[:: len(traj.states) // 7]:
            rho = reconstruct_density(cfg, row)
            assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-9)

    def test_adaptive_matches_fixed_step(self):
        # RK4 against the exact method: at dt = 1e-3 RK4's error is near rounding.
        rng = np.random.default_rng(57)
        cfg = AlgebraConfig(3)
        table = build_f_table(3)
        mat = random_hermitian(rng, 3)
        psi0 = random_state(rng, 3)
        coeffs = decompose_hamiltonian(cfg, mat)
        s0 = state_to_bloch(cfg, psi0)
        fixed = integrate_bloch(table, coeffs, s0, IntegrationSpec(t_final=2.0, dt=1e-3))
        exact = integrate_bloch(
            table, coeffs, s0, IntegrationSpec(t_final=2.0, dt=1e-3, method="exact")
        )
        np.testing.assert_array_equal(exact.times, fixed.times)
        assert np.abs(exact.states - fixed.states).max() <= 1e-12

    def test_adaptive_amplitude_integration(self):
        rng = np.random.default_rng(58)
        cfg = AlgebraConfig(3)
        mat = random_hermitian(rng, 3)
        psi0 = random_state(rng, 3)
        spec = IntegrationSpec(t_final=2.0, dt=1e-2, method="exact")
        traj = integrate_tdse(cfg, mat, psi0, spec)
        norms = np.sum(np.abs(traj.states) ** 2, axis=1)
        assert np.abs(norms - 1.0).max() <= 1e-12

    @pytest.mark.parametrize("n_dim", [3, 12])
    def test_exact_precession_tracks_exact_amplitudes(self, n_dim):
        rng = np.random.default_rng(300 + n_dim)
        cfg = AlgebraConfig(n_dim, hbar=1.5)
        mat = random_hermitian(rng, n_dim)
        psi0 = random_state(rng, n_dim)
        spec = IntegrationSpec(t_final=10.0, dt=0.01, output_stride=7, method="exact")
        assert bloch_tdse_deviation(cfg, build_f_table(n_dim), mat, psi0, spec) <= 1e-12

    def test_table_of_another_dimension_rejected(self):
        rng = np.random.default_rng(3)
        cfg, mat, psi0 = AlgebraConfig(3), random_hermitian(rng, 3), random_state(rng, 3)
        spec = IntegrationSpec(t_final=1.0, dt=0.01)
        with pytest.raises(ValueError, match="an N=5 table does not fit N=3"):
            bloch_tdse_deviation(cfg, build_f_table(5), mat, psi0, spec)

    @pytest.mark.parametrize("n_dim", [3, 11])
    def test_rk4_converges_at_fourth_order(self, n_dim):
        # Against the exact method, RK4's global error on both flows falls by
        # about 2**4 = 16 per halving of dt.  N = 3 steps Omega, the crossover rho.
        rng = np.random.default_rng(1000 + n_dim)
        cfg = AlgebraConfig(n_dim, hbar=1.5)
        table = build_f_table(n_dim)
        mat = random_hermitian(rng, n_dim)
        psi0 = random_state(rng, n_dim)
        coeffs = decompose_hamiltonian(cfg, mat)
        s0 = state_to_bloch(cfg, psi0)

        def errors(dt):
            rk4, exact = (IntegrationSpec(4.0, dt, method) for method in ("rk4", "exact"))
            return [
                np.abs(integrate_bloch(table, coeffs, s0, rk4).states
                       - integrate_bloch(table, coeffs, s0, exact).states).max(),
                np.abs(integrate_tdse(cfg, mat, psi0, rk4).states
                       - integrate_tdse(cfg, mat, psi0, exact).states).max(),
            ]

        for coarse, fine in zip(errors(0.1), errors(0.05)):
            assert 12.0 <= coarse / fine <= 20.0
