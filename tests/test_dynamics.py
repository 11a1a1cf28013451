import math

import numpy as np
import pytest

from conftest import random_hermitian, random_state, traced_peak
from sunlie.dynamics import (
    HamiltonianCoefficients,
    IntegrationSpec,
    bloch_tdse_deviation,
    decompose_hamiltonian,
    hamiltonian_from_coefficients,
    integrate_bloch,
    integrate_tdse,
    precession_matrix,
    precession_rhs,
    reconstruct_density,
    state_to_bloch,
)
from sunlie.generators import AlgebraConfig, all_generators
from sunlie.structure_constants import build_d_table, build_f_table


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_entry_rejected(self, bad):
        # NaN fails every comparison, so without an explicit check it slips
        # through both the Hermitian and the reconstruction test.
        mat = np.eye(3, dtype=complex)
        mat[0, 1] = mat[1, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            decompose_hamiltonian(AlgebraConfig(3), mat)

    def test_memory_stays_quadratic_at_n64(self):
        # The answer is N**2 numbers; a dense (N**2-1, N, N) generator stack
        # would take over 500 MB here.
        cfg = AlgebraConfig(64)
        mat = random_hermitian(np.random.default_rng(64), 64)
        coeffs, peak = traced_peak(decompose_hamiltonian, cfg, mat)
        assert coeffs.h.shape == (cfg.dim,)
        assert peak < 8e6


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

    def test_non_finite_amplitude_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            state_to_bloch(AlgebraConfig(2), [math.nan, 0.0])


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

    @pytest.mark.parametrize("method", ["rk4", "rk45"])
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

    @pytest.mark.parametrize("method", ["rk4", "rk45"])
    def test_sample_count_beyond_memory_rejected(self, method):
        # 10**18 + 1 samples: numpy refuses the array without allocating it.
        table = build_f_table(2)
        coeffs = HamiltonianCoefficients(0.0, np.array([0.0, 0.0, 1.0]), 1.0)
        spec = IntegrationSpec(t_final=1e9, dt=1e-9, method=method)
        with pytest.raises(ValueError, match=r"^\d{19} samples of 3 values \(\d{20} bytes\)"):
            integrate_bloch(table, coeffs, np.array([0.5, 0.0, 0.0]), spec)


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
    """The precomputed one-step propagator against stage-wise RK4."""

    HBAR = 1.3

    def check_both_flows(self, n_dim, t_final, dt):
        rng = np.random.default_rng(600 + n_dim)
        cfg = AlgebraConfig(n_dim, hbar=self.HBAR)
        table = build_f_table(n_dim)
        mat = random_hermitian(rng, n_dim)
        psi0 = random_state(rng, n_dim)
        spec = IntegrationSpec(t_final=t_final, dt=dt, output_stride=3)
        coeffs = decompose_hamiltonian(cfg, mat)
        s0 = state_to_bloch(cfg, psi0)
        cases = [
            (integrate_bloch(table, coeffs, s0, spec), precession_matrix(table, coeffs), s0),
            (integrate_tdse(cfg, mat, psi0, spec), (-1j / self.HBAR) * mat, psi0),
        ]
        for traj, matrix, y0 in cases:
            times, states = stagewise_rk4(matrix, y0, t_final, dt, 3)
            np.testing.assert_array_equal(traj.times, times)
            assert traj.states.shape == states.shape
            assert np.abs(traj.states - states).max() <= 1e-12

    @pytest.mark.parametrize("n_dim", [2, 3, 4])
    def test_matches_stagewise_with_stride_and_tail(self, n_dim):
        # 200 full steps (not a multiple of the stride) plus a half step.
        self.check_both_flows(n_dim, t_final=2.005, dt=0.01)

    def test_matches_stagewise_across_column_blocks(self):
        # d = 143 at N = 12: the propagator is built in more than one block.
        self.check_both_flows(12, t_final=0.205, dt=0.01)


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

    def test_adaptive_method_not_refused(self, unstable_problem):
        cfg, mat, psi0 = unstable_problem
        spec = IntegrationSpec(t_final=0.4, dt=0.2, method="rk45")
        traj = integrate_tdse(cfg, mat, psi0, spec)
        assert traj.times.shape == (3,)

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
        rng = np.random.default_rng(57)
        cfg = AlgebraConfig(3)
        table = build_f_table(3)
        mat = random_hermitian(rng, 3)
        psi0 = random_state(rng, 3)
        coeffs = decompose_hamiltonian(cfg, mat)
        s0 = state_to_bloch(cfg, psi0)
        fixed = integrate_bloch(table, coeffs, s0, IntegrationSpec(t_final=2.0, dt=1e-3))
        adaptive = integrate_bloch(
            table,
            coeffs,
            s0,
            IntegrationSpec(t_final=2.0, dt=1e-3, method="rk45", atol=1e-12, rtol=1e-12),
        )
        np.testing.assert_allclose(adaptive.times, fixed.times, atol=1e-12)
        assert np.abs(adaptive.states - fixed.states).max() <= 1e-7

    def test_adaptive_amplitude_integration(self):
        rng = np.random.default_rng(58)
        cfg = AlgebraConfig(3)
        mat = random_hermitian(rng, 3)
        psi0 = random_state(rng, 3)
        spec = IntegrationSpec(t_final=2.0, dt=1e-2, method="rk45", atol=1e-11, rtol=1e-11)
        traj = integrate_tdse(cfg, mat, psi0, spec)
        norms = np.sum(np.abs(traj.states) ** 2, axis=1)
        assert np.abs(norms - 1.0).max() <= 1e-8
