"""Generalized spin precession for N-level systems, with a Schrödinger cross-check.

An N x N Hermitian Hamiltonian decomposes over the generator basis as

    H = h0 * I + (1/hbar) sum_k h_k S_k,      h_k = (2/hbar) Tr[H S_k],

and a density operator as rho = I/N + (2/hbar**2) sum_k s_k S_k with the
coherence vector s_k = Tr[rho S_k].  The von Neumann equation then closes on
s alone:

    ds_i/dt = (1/hbar) sum_jk f_ijk h_j s_k,

the N-level generalization of spin precession about a magnetic field (at
N = 2 it is literally ds/dt = (h x s)/hbar).  Because f is sparse, the
right-hand side costs O(#triples), not O(N**6).

Projections and expansions are O(N**2) entry reads and writes; the formulas
are in `generators`.  A pure state has X_nm = c_n conj(c_m), which lets a
trajectory of the precession equation be compared point by point against the
amplitude-level Schrödinger equation dc/dt = (-i/hbar) H c integrated
independently.

Note the projection factors 2/hbar (Hamiltonian) and 2/hbar**2 (density):
they are the ones forced by the basis normalization Tr[S_i S_j]
= (hbar**2/2) d_ij, so that both expansions reconstruct their matrix
exactly.  In the hbar = 2 convention (lambda matrices) they reduce to the
familiar 1/hbar and 1/2.

Only time-independent Hamiltonians are supported.  Integration is a
fixed-step RK4 by default (deterministic, reproducible trajectories).  For a
linear flow y' = A y one RK4 step is always the same matrix, P = I + M +
M**2/2 + M**3/6 + M**4/24 with M = dt A (the RK4 stability function), and k
steps are the matrix P**k.  So P and Q = P**output_stride are built once, Q
by repeated squaring, and each recorded sample is one mat-vec y <- Q y; only
the last full-step gap, when shorter, steps by P.  RK4 is refused when dt
times the spectral radius of A exceeds 2 sqrt(2), the edge of its stability
interval on the imaginary axis; that radius is (lambda_max -
lambda_min)/hbar for the precession flow and max |lambda|/hbar for the
amplitudes, read off the eigenvalues of the N x N Hamiltonian.

The precession flow has two RK4 paths.  Below N = _DENSITY_CROSSOVER it is
the propagator path above, on the d x d matrix Omega of `precession_matrix`
(d = N**2 - 1): P and Q cost O(d**3) to build and O(d**2) per sample.
From the crossover on, RK4 steps the density matrix instead: ds/dt = Omega s
is the von Neumann flow drho/dt = (-i/hbar)[H, rho] read through the linear
map rho <-> s, so the same RK4 polynomial applied to rho, with commutator
stages, gives the same trajectory at O(N**3) per step and O(N**2) memory
(Hairer, Lubich & Wanner, Geometric Numerical Integration, ch. IV).  For
Hermitian X, [H, X] = HX - (HX)^dagger, one N x N matmul per stage.  Each
sample is read back off rho's entries.  The crossover is measured (see the
constant).

With method "exact", one eigendecomposition H = V Lambda V^dagger gives
both flows in closed form (the eigenvector method of Moler & Van Loan, SIAM
Rev. 45, 3 (2003), well conditioned for Hermitian H): with phi =
exp(-i Lambda t / hbar), psi(t) = V (phi * V^dagger psi0) and rho(t) =
V ((V^dagger rho0 V) * phi phi^dagger) V^dagger.  It has no truncation error
and no stability limit on dt, costs O(N**3) per sample whatever the step
count, and builds neither the f table nor Omega.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .generators import (
    AlgebraConfig, _bloch_maps, _check_hbar, _check_square, _check_vector, _expansion,
    _generator_traces,
)
from .structure_constants import (
    ConstantTable, _check_f_table, _signed_permutations, build_f_table,
)

RK4 = "rk4"
EXACT = "exact"
_METHODS = (RK4, EXACT)
_RK4_STABILITY_LIMIT = 2.0 * math.sqrt(2.0)
# The full-step count t_final / dt and the output stride are each at most
# 2**62, so that every full-step index of the sample grid fits in an int64.
_MAX_STEPS = 2**62
# RK4 precession at N >= _DENSITY_CROSSOVER steps the N x N density matrix
# instead of the d x d propagator.  One cold `integrate_bloch` per process,
# 1000 steps of dt = 1e-3, stride 10, median of 9; each entry is the median
# of three such runs (2-core x86, numpy 2.4 with scipy-openblas 0.3.31):
#
#     N           10      11      12      13      16      17
#     propagator  1.3 ms  1.8 ms  2.4 ms  3.0 ms  7.5 ms  8.5 ms
#     density     14 ms   15 ms   15 ms   16 ms   18 ms   19 ms
#
# With one mat-vec by P**stride per sample the propagator path leads at every
# N measured, so here the crossover lies above N = 17.  An earlier timing,
# one mat-vec by P per step, saw the propagator jump to 40-125 ms from N = 11
# (d = 120), where building P hands its products to the threaded BLAS kernel.
# That jump did not recur, but a threaded product stalls while another
# process holds a core.  The value depends on the BLAS build and its
# threading, and no perfbench workload lies between N = 7 and N = 31, so the
# benchmark does not check it; retune it against a large-N workload.
_DENSITY_CROSSOVER = 11
# |psi|**2 must be 1 within _NORM_TOL on input; the amplitude trajectory of a
# TDSE comparison may drift from it by _NORM_DRIFT_TOL before the comparison
# is refused as meaningless.
_NORM_TOL = 1e-12
_NORM_DRIFT_TOL = 1e-6


@dataclass(frozen=True)
class HamiltonianCoefficients:
    """Generator-basis expansion of a Hermitian matrix: H = h0 I + (1/hbar) h.S."""

    h0: float
    h: np.ndarray
    hbar: float = 1.0

    def __post_init__(self) -> None:
        _check_hbar(self.hbar)


@dataclass(frozen=True)
class IntegrationSpec:
    """Stepping parameters shared by both integrators.

    ``dt`` is the output grid spacing and, for RK4, the step; ``output_stride``
    thins the recorded samples (the final point is always kept).  ``method``
    is "rk4" or "exact" (see the module docstring).
    """

    t_final: float
    dt: float
    method: str = RK4
    output_stride: int = 1

    def __post_init__(self) -> None:
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not (self.t_final >= 0 and math.isfinite(self.t_final)):
            raise ValueError(f"t_final must be finite and >= 0, got {self.t_final}")
        if self.method not in _METHODS:
            raise ValueError(f"method must be one of {_METHODS}, got {self.method!r}")
        if not 1 <= self.output_stride <= _MAX_STEPS:
            raise ValueError(f"output_stride must be in [1, 2**62], got {self.output_stride}")
        steps = self.t_final / self.dt
        if not steps <= _MAX_STEPS:
            raise ValueError(f"t_final / dt = {steps:.3g} steps exceeds 2**62; raise dt")


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution: times (T,) and states (T, dim), one row per sample."""

    times: np.ndarray
    states: np.ndarray


def _check_hermitian(mat: np.ndarray, n_dim: int) -> np.ndarray:
    mat, scale = _check_square(np.asarray(mat, dtype=np.complex128), n_dim)
    if np.abs(mat - mat.conj().T).max() > 1e-12 * scale:
        raise ValueError("matrix is not Hermitian within 1e-12 of its scale")
    return mat


def decompose_hamiltonian(cfg: AlgebraConfig, hamiltonian: np.ndarray) -> HamiltonianCoefficients:
    """Project a Hermitian matrix onto identity plus generators by O(N**2) entry reads.

    The reconstruction identity is enforced before returning: if the
    coefficients fail to rebuild the input to 1e-12 of its scale, something
    is inconsistent and this raises rather than letting the error propagate
    into a simulation.
    """
    hamiltonian = _check_hermitian(hamiltonian, cfg.n_dim)
    m_idx, n_idx = _bloch_maps(cfg.n_dim)[:2]
    h0 = float(np.trace(hamiltonian).real) / cfg.n_dim
    lower = hamiltonian[n_idx, m_idx]
    h = (2.0 / cfg.hbar) * _generator_traces(cfg, lower, hamiltonian.diagonal().real)
    rebuilt = hamiltonian_from_coefficients(cfg, HamiltonianCoefficients(h0, h, cfg.hbar))
    scale = max(1.0, float(np.abs(hamiltonian).max()))
    if np.abs(rebuilt - hamiltonian).max() > 1e-12 * scale:
        raise RuntimeError("generator expansion failed to reconstruct the input matrix")
    return HamiltonianCoefficients(h0=h0, h=h, hbar=cfg.hbar)


def hamiltonian_from_coefficients(
    cfg: AlgebraConfig, coeffs: HamiltonianCoefficients
) -> np.ndarray:
    """Rebuild the dense matrix h0 I + (1/hbar) sum_k h_k S_k."""
    return _expansion(cfg, coeffs.h0, coeffs.h, 1.0 / cfg.hbar)


def _check_normalized(amplitudes: np.ndarray, n_dim: int) -> np.ndarray:
    amplitudes = np.asarray(amplitudes, dtype=np.complex128)
    if amplitudes.shape != (n_dim,):
        raise ValueError(f"expected a length-{n_dim} state vector, got shape {amplitudes.shape}")
    if not np.isfinite(amplitudes).all():
        raise ValueError("state vector has non-finite entries")
    norm_sq = float(np.sum(np.abs(amplitudes) ** 2))
    if abs(norm_sq - 1.0) > _NORM_TOL:
        raise ValueError(f"state vector norm**2 = {norm_sq} is not 1 within {_NORM_TOL}")
    return amplitudes


def bloch_from_states(cfg: AlgebraConfig, states: np.ndarray) -> np.ndarray:
    """Coherence vectors for a batch of amplitude rows, shape (T, N) -> (T, N**2-1)."""
    states = np.asarray(states, dtype=np.complex128)
    if states.ndim != 2 or states.shape[1] != cfg.n_dim:
        raise ValueError(f"expected shape (T, {cfg.n_dim}), got {states.shape}")
    if not np.isfinite(states).all():
        raise ValueError("amplitude rows have non-finite entries")
    m_idx, n_idx = _bloch_maps(cfg.n_dim)[:2]
    # rho = |c><c| has rho_nm = c_n conj(c_m) and diagonal |c|**2.
    cross = np.conj(states[:, m_idx]) * states[:, n_idx]
    return _generator_traces(cfg, cross, np.abs(states) ** 2)


def state_to_bloch(cfg: AlgebraConfig, amplitudes: np.ndarray) -> np.ndarray:
    """Coherence vector s_k = Tr[|psi><psi| S_k] of a normalized pure state."""
    amplitudes = _check_normalized(amplitudes, cfg.n_dim)
    return bloch_from_states(cfg, amplitudes[np.newaxis])[0]


def reconstruct_density(cfg: AlgebraConfig, bloch: np.ndarray) -> np.ndarray:
    """Density matrix I/N + (2/hbar**2) sum_k s_k S_k.

    No positivity check: an arbitrary coherence vector may lie outside the
    physical region, which is the caller's business.
    """
    return _expansion(cfg, 1.0 / cfg.n_dim, bloch, 2.0 / cfg.hbar**2)


def precession_rhs(
    table: ConstantTable, coeffs: HamiltonianCoefficients, bloch: np.ndarray
) -> np.ndarray:
    """Time derivative ds_i/dt = (1/hbar) sum_jk f_ijk h_j s_k.

    Sparse contraction: one scatter-add over the six signed index orders of
    every canonical triple, O(#triples) per call.
    """
    i, j, k, f = _signed_permutations(table)
    dim = table.n_dim * table.n_dim - 1
    h = _check_vector(coeffs.h, dim, "Hamiltonian coefficient vector")
    s = _check_vector(bloch, dim, "coherence vector")
    return np.bincount(i, weights=f * h[j] * s[k], minlength=dim) / coeffs.hbar


def precession_matrix(table: ConstantTable, coeffs: HamiltonianCoefficients) -> np.ndarray:
    """Dense generator of the linear flow: ds/dt = matrix @ s.

    Same contraction as precession_rhs with the state factored out; the
    integrator uses this so each step is a single mat-vec.
    """
    i, j, k, f = _signed_permutations(table)
    dim = table.n_dim * table.n_dim - 1
    h = _check_vector(coeffs.h, dim, "Hamiltonian coefficient vector")
    omega = np.bincount(i * dim + k, weights=f * h[j], minlength=dim * dim)
    return omega.reshape(dim, dim) / coeffs.hbar


def _sample_grid(
    spec: IntegrationSpec, radius: float, first: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float, np.ndarray]:
    """The RK4 stability guard, then the sample grid and its sample array.

    ``radius`` is the spectral radius of the flow.  Both flows have purely
    imaginary spectra, and RK4 is stable on the imaginary axis up to
    |z| = 2 sqrt(2), so RK4 is refused when dt * radius exceeds that, even
    for a zero duration.  Returns (times, record, remainder, states):
    ``record`` holds the full-step count at each full-step sample,
    ``remainder`` the tail step short of t_final (0.0 if there is none), and
    ``states`` is allocated before any stepping, with ``first`` as its row 0,
    so that a grid too large for memory is refused up front.
    """
    z = spec.dt * radius
    if spec.method == RK4 and z > _RK4_STABILITY_LIMIT:
        raise ValueError(
            f"dt={spec.dt!r} is unstable for RK4: dt * (spectral radius) = {z:.3g} > 2*sqrt(2); "
            f"use dt <= {_RK4_STABILITY_LIMIT / radius:.3g}"
        )
    n_full = int(math.floor(spec.t_final / spec.dt + 1e-9))
    remainder = spec.t_final - n_full * spec.dt
    if not remainder > 1e-12 * max(spec.t_final, spec.dt):
        remainder = 0.0
    # Samples: every output_stride-th step, the last full step and the tail end.
    n_steps = -(-n_full // spec.output_stride) + 1
    count = n_steps + bool(remainder)
    try:
        states = np.empty((count, first.size), dtype=first.dtype)
    except (ValueError, MemoryError):
        raise ValueError(
            f"{count} samples of {first.size} values ({count * first.size * first.itemsize} "
            "bytes) do not fit in memory; raise dt or output_stride"
        ) from None
    states[0] = first
    record = np.minimum(np.arange(n_steps) * spec.output_stride, n_full)
    # n_full * dt may round past t_final (3 * 0.1 > 0.3); the grid stops at t_final.
    times = np.minimum(record * spec.dt, spec.t_final)
    if remainder:
        times = np.append(times, spec.t_final)
    return times, record, remainder, states


def _march(
    y: np.ndarray,
    states: np.ndarray,
    record: np.ndarray,
    remainder: float,
    advance: Callable[[np.ndarray, int], np.ndarray],
    step: Callable[[np.ndarray, float], np.ndarray],
    read: Callable[[np.ndarray], np.ndarray],
) -> None:
    """Fill states[1:] by RK4 from y, on the grid of `_sample_grid`.

    ``advance(y, count)`` takes ``count`` full steps, ``step(y, h)`` one step
    of h (the tail), and ``read(y)`` turns a state into a sample row.
    """
    for row, count in enumerate(np.diff(record).tolist(), start=1):
        y = advance(y, count)
        states[row] = read(y)
    if remainder:
        states[-1] = read(step(y, remainder))


def _integrate_linear(
    matrix: np.ndarray, y0: np.ndarray, spec: IntegrationSpec, radius: float
) -> Trajectory:
    """Fixed-step RK4 for y' = matrix @ y, sampled on the dt grid.

    ``radius`` is the spectral radius of ``matrix``, for the RK4 guard of
    `_sample_grid`.  The one-step propagator P of `_rk4_propagator` is applied
    as Q = P**output_stride, built once by repeated squaring, so that each
    sample costs one mat-vec; the one shorter gap before the last full-step
    sample steps by P, and the tail step short of ``t_final`` is taken
    stage-wise.
    """
    y0 = np.asarray(y0, dtype=np.result_type(matrix, y0))
    times, record, remainder, states = _sample_grid(spec, radius, y0)
    propagator = _rk4_propagator(matrix, spec.dt)
    stride = spec.output_stride
    if 1 < stride <= record[-1]:
        jump = np.linalg.matrix_power(propagator, stride)

    def advance(y, count):
        if count == stride > 1:
            return jump @ y
        for _ in range(count):
            y = propagator @ y
        return y

    _march(y0, states, record, remainder, advance,
           lambda y, h: _rk4_step(matrix, y, h), lambda y: y)
    return Trajectory(times=times, states=states)


def _rk4_propagator(matrix: np.ndarray, dt: float) -> np.ndarray:
    """The RK4 step as a matrix: column j is the step taken from e_j."""
    return _rk4_step(matrix, np.eye(matrix.shape[0], dtype=matrix.dtype), dt)


def _eigenbasis_flow(
    hamiltonian: np.ndarray, hbar: float, spec: IntegrationSpec, first: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(times, states, phases, vectors) of the exact method: the grid of
    `_sample_grid` with ``first`` as row 0, exp(-i lambda t / hbar) per later
    sample (rows) and eigenvalue (columns), and the eigenvectors of H."""
    energies, vectors = np.linalg.eigh(hamiltonian)
    times, _, _, states = _sample_grid(spec, 0.0, first)
    phases = np.exp((-1j / hbar) * np.outer(times[1:], energies))
    return times, states, phases, vectors


def _rk4_step(matrix: np.ndarray, y: np.ndarray, dt: float) -> np.ndarray:
    k1 = matrix @ y
    k2 = matrix @ (y + 0.5 * dt * k1)
    k3 = matrix @ (y + 0.5 * dt * k2)
    k4 = matrix @ (y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _density_stages(generator: np.ndarray, h: float) -> tuple[np.ndarray, ...]:
    return tuple((h / c) * generator for c in (4.0, 3.0, 2.0, 1.0))


def _density_step(stages: tuple[np.ndarray, ...], rho: np.ndarray) -> np.ndarray:
    """One RK4 step of rho' = L(rho) = G rho + (G rho)^dagger, G = -iH/hbar.

    ``stages`` is `_density_stages` of G and the step h.  L is linear, so the
    step is the RK4 polynomial rho + hL(rho + (h/2)L(rho + (h/3)L(rho +
    (h/4)L rho))): four evaluations of L on Hermitian arguments, one N x N
    matmul each.  Each stage is b + b^dagger first and rho after, so it is
    Hermitian in floating point too (entry (j, i) is the exact conjugate of
    (i, j)); adding rho into b first would round the two differently and
    leave an anti-Hermitian residue that accumulates from step to step.
    """
    x = rho
    for scaled in stages:
        b = scaled @ x
        x = b + b.conj().T
        x += rho
    return x


def integrate_bloch(
    table: ConstantTable,
    coeffs: HamiltonianCoefficients,
    s0: np.ndarray,
    spec: IntegrationSpec,
) -> Trajectory:
    """Integrate the precession equation from coherence vector s0.

    RK4 at N >= _DENSITY_CROSSOVER and the exact method evolve the density
    matrix instead of s (see the module docstring), without the d x d matrix.
    """
    _check_f_table(table)
    return _integrate_precession(table.n_dim, coeffs, s0, spec, table)


def _integrate_precession(
    n_dim: int,
    coeffs: HamiltonianCoefficients,
    s0: np.ndarray,
    spec: IntegrationSpec,
    table: ConstantTable | None = None,
) -> Trajectory:
    """`integrate_bloch` at dimension N, where ``table`` is N's f table.

    Only the RK4 Omega path reads the table; it builds it when ``table`` is
    None, so `simulate` builds none on the density path or the exact method.
    """
    s0 = _check_vector(s0, n_dim * n_dim - 1, "coherence vector")
    on_omega = spec.method == RK4 and n_dim < _DENSITY_CROSSOVER
    if on_omega:
        if table is None:
            table = build_f_table(n_dim)
        omega = precession_matrix(table, coeffs)
    # The trace of H does not enter the flow; leaving it out keeps the
    # commutator stages free of its cancellation error.
    cfg = AlgebraConfig(n_dim, coeffs.hbar)
    traceless = HamiltonianCoefficients(0.0, coeffs.h, cfg.hbar)
    hamiltonian = hamiltonian_from_coefficients(cfg, traceless)
    m_idx, n_idx = _bloch_maps(n_dim)[:2]

    def read(rho):
        return _generator_traces(cfg, rho[n_idx, m_idx], rho.diagonal().real)

    if spec.method == EXACT:
        times, states, phases, vectors = _eigenbasis_flow(hamiltonian, cfg.hbar, spec, s0)
        rho0 = vectors.conj().T @ reconstruct_density(cfg, s0) @ vectors
        for row, phase in enumerate(phases, start=1):
            states[row] = read(vectors @ (rho0 * np.outer(phase, phase.conj())) @ vectors.conj().T)
        return Trajectory(times=times, states=states)
    # The spectrum of the flow is {i (lambda_a - lambda_b) / hbar} over the eigenvalues of H.
    energies = np.linalg.eigvalsh(hamiltonian)
    radius = (energies[-1] - energies[0]) / cfg.hbar
    if on_omega:
        return _integrate_linear(omega, s0, spec, radius)

    times, record, remainder, states = _sample_grid(spec, radius, s0)
    generator = (-1j / cfg.hbar) * hamiltonian
    full = _density_stages(generator, spec.dt)

    def advance(rho, count):
        for _ in range(count):
            rho = _density_step(full, rho)
        return rho

    _march(reconstruct_density(cfg, s0), states, record, remainder, advance,
           lambda rho, h: _density_step(_density_stages(generator, h), rho), read)
    return Trajectory(times=times, states=states)


def integrate_tdse(
    cfg: AlgebraConfig,
    hamiltonian: np.ndarray,
    psi0: np.ndarray,
    spec: IntegrationSpec,
) -> Trajectory:
    """Integrate the amplitude equation dc/dt = (-i/hbar) H c."""
    hamiltonian = _check_hermitian(hamiltonian, cfg.n_dim)
    psi0 = _check_normalized(psi0, cfg.n_dim)
    if spec.method == EXACT:
        times, states, phases, vectors = _eigenbasis_flow(hamiltonian, cfg.hbar, spec, psi0)
        states[1:] = (phases * (vectors.conj().T @ psi0)) @ vectors.T
        return Trajectory(times=times, states=states)
    # The amplitude flow's own radius is max |lambda| / hbar; the spread is
    # checked as well, so that a step the precession flow refuses is refused here.
    energies = np.linalg.eigvalsh(hamiltonian)
    radius = max(energies[-1] - energies[0], np.abs(energies).max()) / cfg.hbar
    return _integrate_linear((-1j / cfg.hbar) * hamiltonian, psi0, spec, radius)


def bloch_tdse_deviation(
    cfg: AlgebraConfig,
    table: ConstantTable,
    hamiltonian: np.ndarray,
    psi0: np.ndarray,
    spec: IntegrationSpec,
) -> float:
    """Max componentwise gap between the precession trajectory and the mapped
    amplitude trajectory, both started from the same pure state.

    Decomposes H, integrates the precession equation and hands the result to
    `_tdse_deviation`, which `simulate --compare-tdse` calls directly with the
    trajectory it has already written.
    """
    coeffs = decompose_hamiltonian(cfg, hamiltonian)
    bloch = integrate_bloch(table, coeffs, state_to_bloch(cfg, psi0), spec)
    return _tdse_deviation(cfg, hamiltonian, psi0, spec, bloch)


def _tdse_deviation(
    cfg: AlgebraConfig,
    hamiltonian: np.ndarray,
    psi0: np.ndarray,
    spec: IntegrationSpec,
    bloch: Trajectory,
) -> float:
    """Max componentwise gap between ``bloch``, the precession trajectory from
    psi0, and the amplitude trajectory from psi0 mapped to coherence vectors.

    Refuses the comparison when the amplitude norm drifts by more than
    _NORM_DRIFT_TOL, because the mapping is then meaningless.
    """
    amp = integrate_tdse(cfg, hamiltonian, psi0, spec)
    if not np.array_equal(bloch.times, amp.times):
        raise RuntimeError("integrators produced different sample grids")
    norms = np.sum(np.abs(amp.states) ** 2, axis=1)
    drift = float(np.abs(norms - 1.0).max())
    if drift > _NORM_DRIFT_TOL:
        raise ValueError(
            f"amplitude norm drifted by {drift:.3e} (> {_NORM_DRIFT_TOL:.1e}); dt is too coarse"
        )
    mapped = bloch_from_states(cfg, amp.states)
    return float(np.abs(bloch.states - mapped).max())
