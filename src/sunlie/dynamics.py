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

Projections are direct entry reads (Bertlmann & Krammer, J. Phys. A 41,
235303 (2008)), so decomposing and rebuilding cost O(N**2); for Hermitian X

    Tr[X S_Snm] = hbar Re X_nm,   Tr[X S_Anm] = hbar Im X_nm,
    Tr[X S_Dn]  = hbar [ sum_{k<n} X_kk / sqrt(2n(n-1)) - sqrt((n-1)/(2n)) X_nn ].

A pure state has X_nm = c_n conj(c_m), which lets a trajectory of the
precession equation be compared point by point against the amplitude-level
Schrödinger equation dc/dt = (-i/hbar) H c integrated independently.

Note the projection factors 2/hbar (Hamiltonian) and 2/hbar**2 (density):
they are the ones forced by the basis normalization Tr[S_i S_j]
= (hbar**2/2) d_ij, so that both expansions reconstruct their matrix
exactly.  In the hbar = 2 convention (lambda matrices) they reduce to the
familiar 1/hbar and 1/2.

Only time-independent Hamiltonians are supported.  Integration is a
fixed-step RK4 by default (deterministic, reproducible trajectories) with
an adaptive RK45 available through scipy.  For a linear flow y' = A y one
RK4 step is always the same matrix, P = I + M + M**2/2 + M**3/6 + M**4/24
with M = dt A (the RK4 stability function), so P is built once and every
full step is the single mat-vec y <- P y.  RK4 is refused when dt times the
spectral radius of A exceeds 2 sqrt(2), the edge of its stability interval
on the imaginary axis; that radius is (lambda_max - lambda_min)/hbar for the
precession flow and max |lambda|/hbar for the amplitudes, read off the
eigenvalues of the N x N Hamiltonian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import solve_ivp

from .generators import AlgebraConfig
from .indexing import antisymmetric_index, diagonal_index, symmetric_index
from .structure_constants import F_KIND, ConstantTable, _signed_permutations

RK4 = "rk4"
RK45 = "rk45"
_METHODS = (RK4, RK45)
_RK4_STABILITY_LIMIT = 2.0 * math.sqrt(2.0)
# Columns of the RK4 propagator built per batch.  The stage temporaries and
# BLAS packing buffers grow with the width: at N = 32 a full-width build
# holds about 40 MB more than this one.
_PROPAGATOR_BLOCK = 128


@dataclass(frozen=True)
class HamiltonianCoefficients:
    """Generator-basis expansion of a Hermitian matrix: H = h0 I + (1/hbar) h.S."""

    h0: float
    h: np.ndarray
    hbar: float = 1.0


@dataclass(frozen=True)
class IntegrationSpec:
    """Stepping parameters shared by both integrators.

    ``dt`` is the RK4 step and the output grid spacing; ``output_stride``
    thins the recorded samples (the final point is always kept).  ``atol``
    and ``rtol`` apply to the adaptive method only.
    """

    t_final: float
    dt: float
    method: str = RK4
    atol: float = 1e-10
    rtol: float = 1e-10
    output_stride: int = 1

    def __post_init__(self) -> None:
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not (self.t_final >= 0 and math.isfinite(self.t_final)):
            raise ValueError(f"t_final must be finite and >= 0, got {self.t_final}")
        if self.method not in _METHODS:
            raise ValueError(f"method must be one of {_METHODS}, got {self.method!r}")
        if self.output_stride < 1:
            raise ValueError(f"output_stride must be >= 1, got {self.output_stride}")


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution: times (T,) and states (T, dim), one row per sample."""

    times: np.ndarray
    states: np.ndarray


@lru_cache(maxsize=8)
def _bloch_maps(n_dim: int) -> tuple[np.ndarray, ...]:
    """Index machinery for reading generator components off matrix entries.

    Returns (m_idx, n_idx, s_pos, a_pos, d_pos, weights): 0-based coordinate
    arrays for the off-diagonal pairs, the output slots of the three families,
    and the (N-1, N) weight matrix taking a diagonal to the Cartan components.
    """
    n_idx, m_idx = np.tril_indices(n_dim, -1)  # pairs by n, then m
    s_pos = symmetric_index(n_idx + 1, m_idx + 1) - 1
    a_pos = antisymmetric_index(n_idx + 1, m_idx + 1) - 1
    top = np.arange(2, n_dim + 1)
    d_pos = diagonal_index(top) - 1
    # Row n - 2 is D_n's diagonal: 1/sqrt(2n(n-1)) on entries 1..n-1, -sqrt((n-1)/(2n)) on n.
    weights = np.where(np.arange(n_dim) < top[:, None] - 1,
                       (1.0 / np.sqrt(2.0 * top * (top - 1)))[:, None], 0.0)
    weights[top - 2, top - 1] = -np.sqrt((top - 1) / (2.0 * top))
    return m_idx, n_idx, s_pos, a_pos, d_pos, weights


def _generator_traces(cfg: AlgebraConfig, lower: np.ndarray, diagonal: np.ndarray) -> np.ndarray:
    """Tr[X S_k] for every generator of a Hermitian X, read off its entries.

    ``lower`` holds X_nm below the diagonal in `_bloch_maps` pair order and
    ``diagonal`` the real diagonal; leading axes are batch axes.
    """
    _, _, s_pos, a_pos, d_pos, weights = _bloch_maps(cfg.n_dim)
    out = np.empty(lower.shape[:-1] + (cfg.dim,))
    out[..., s_pos] = cfg.hbar * lower.real
    out[..., a_pos] = cfg.hbar * lower.imag
    out[..., d_pos] = cfg.hbar * (diagonal @ weights.T)
    return out


def _expansion(cfg: AlgebraConfig, identity: float, coeffs: np.ndarray, scale: float) -> np.ndarray:
    """Dense identity * I + scale * sum_k coeffs_k S_k, written entry by entry."""
    coeffs = scale * np.asarray(coeffs, dtype=float)
    if coeffs.shape != (cfg.dim,):
        raise ValueError(f"expected {cfg.dim} generator coefficients, got shape {coeffs.shape}")
    m_idx, n_idx, s_pos, a_pos, d_pos, weights = _bloch_maps(cfg.n_dim)
    out = np.diag(identity + cfg.hbar * (coeffs[d_pos] @ weights)).astype(np.complex128)
    lower = (0.5 * cfg.hbar) * (coeffs[s_pos] + 1j * coeffs[a_pos])
    out[n_idx, m_idx] = lower
    out[m_idx, n_idx] = lower.conj()
    return out


def _check_hermitian(mat: np.ndarray, n_dim: int) -> np.ndarray:
    mat = np.asarray(mat, dtype=np.complex128)
    if mat.shape != (n_dim, n_dim):
        raise ValueError(f"expected a {n_dim} x {n_dim} matrix, got shape {mat.shape}")
    if not np.isfinite(mat).all():
        raise ValueError("matrix has non-finite entries")
    scale = max(1.0, float(np.abs(mat).max()))
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


def _check_normalized(amplitudes: np.ndarray, n_dim: int, norm_tol: float) -> np.ndarray:
    amplitudes = np.asarray(amplitudes, dtype=np.complex128)
    if amplitudes.shape != (n_dim,):
        raise ValueError(f"expected a length-{n_dim} state vector, got shape {amplitudes.shape}")
    if not np.isfinite(amplitudes).all():
        raise ValueError("state vector has non-finite entries")
    norm_sq = float(np.sum(np.abs(amplitudes) ** 2))
    if abs(norm_sq - 1.0) > norm_tol:
        raise ValueError(f"state vector norm**2 = {norm_sq} is not 1 within {norm_tol}")
    return amplitudes


def bloch_from_states(cfg: AlgebraConfig, states: np.ndarray) -> np.ndarray:
    """Coherence vectors for a batch of amplitude rows, shape (T, N) -> (T, N**2-1)."""
    states = np.asarray(states, dtype=np.complex128)
    if states.ndim != 2 or states.shape[1] != cfg.n_dim:
        raise ValueError(f"expected shape (T, {cfg.n_dim}), got {states.shape}")
    m_idx, n_idx = _bloch_maps(cfg.n_dim)[:2]
    # rho = |c><c| has rho_nm = c_n conj(c_m) and diagonal |c|**2.
    cross = np.conj(states[:, m_idx]) * states[:, n_idx]
    return _generator_traces(cfg, cross, np.abs(states) ** 2)


def state_to_bloch(
    cfg: AlgebraConfig, amplitudes: np.ndarray, *, norm_tol: float = 1e-12
) -> np.ndarray:
    """Coherence vector s_k = Tr[|psi><psi| S_k] of a normalized pure state."""
    amplitudes = _check_normalized(amplitudes, cfg.n_dim, norm_tol)
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
    if table.kind != F_KIND:
        raise ValueError(f"precession needs an '{F_KIND}' table, got '{table.kind}'")
    h = coeffs.h
    s = np.asarray(bloch, dtype=float)
    dim = table.n_dim * table.n_dim - 1
    if h.shape != (dim,) or s.shape != (dim,):
        raise ValueError("coefficient/state length does not match the table dimension")
    i, j, k, f = _signed_permutations(table)
    return np.bincount(i, weights=f * h[j] * s[k], minlength=dim) / coeffs.hbar


def precession_matrix(table: ConstantTable, coeffs: HamiltonianCoefficients) -> np.ndarray:
    """Dense generator of the linear flow: ds/dt = matrix @ s.

    Same contraction as precession_rhs with the state factored out; the
    integrator uses this so each step is a single mat-vec.
    """
    if table.kind != F_KIND:
        raise ValueError(f"precession needs an '{F_KIND}' table, got '{table.kind}'")
    h = coeffs.h
    dim = table.n_dim * table.n_dim - 1
    if h.shape != (dim,):
        raise ValueError("coefficient length does not match the table dimension")
    i, j, k, f = _signed_permutations(table)
    omega = np.bincount(i * dim + k, weights=f * h[j], minlength=dim * dim)
    return omega.reshape(dim, dim) / coeffs.hbar


def _integrate_linear(matrix: np.ndarray, y0: np.ndarray, spec: IntegrationSpec) -> Trajectory:
    """Fixed-step RK4 or scipy RK45 for y' = matrix @ y, sampled on the dt grid.

    RK4 applies the precomputed one-step propagator of `_rk4_propagator` to
    every full step; the tail step short of ``t_final`` is taken stage-wise.
    """
    if spec.t_final == 0.0:
        return Trajectory(times=np.zeros(1), states=y0[np.newaxis].copy())
    n_full = int(math.floor(spec.t_final / spec.dt + 1e-9))
    remainder = spec.t_final - n_full * spec.dt
    has_tail = remainder > 1e-12 * max(spec.t_final, spec.dt)
    # Samples: every output_stride-th step, the last full step and the tail end.
    n_steps = -(-n_full // spec.output_stride) + 1
    count = n_steps + has_tail
    # Allocated before any stepping, so that a grid too large for memory is
    # refused up front; RK45 only uses it as that check.
    dtype = np.result_type(matrix, y0)
    try:
        states = np.empty((count, y0.size), dtype=dtype)
    except (ValueError, MemoryError):
        raise ValueError(
            f"{count} samples of {y0.size} values ({count * y0.size * dtype.itemsize} bytes) "
            "do not fit in memory; raise dt or output_stride"
        ) from None
    record = np.minimum(np.arange(n_steps) * spec.output_stride, n_full)
    times = record * spec.dt
    if has_tail:
        times = np.append(times, spec.t_final)

    if spec.method == RK45:
        sol = solve_ivp(
            lambda t, y: matrix @ y,
            (0.0, spec.t_final),
            y0,
            method="RK45",
            t_eval=times,
            atol=spec.atol,
            rtol=spec.rtol,
        )
        if not sol.success:
            raise RuntimeError(f"adaptive integration failed: {sol.message}")
        return Trajectory(times=sol.t.copy(), states=sol.y.T.copy())

    propagator = _rk4_propagator(matrix, spec.dt)
    states[0] = y = y0
    for row, (start, stop) in enumerate(zip(record.tolist(), record[1:].tolist()), start=1):
        for _ in range(stop - start):
            y = propagator @ y
        states[row] = y
    if has_tail:
        states[-1] = _rk4_step(matrix, y, remainder)
    return Trajectory(times=times, states=states)


def _rk4_propagator(matrix: np.ndarray, dt: float) -> np.ndarray:
    """The RK4 step as a matrix: column j is the step taken from e_j.

    Built _PROPAGATOR_BLOCK columns at a time, so that beside ``matrix`` and
    the result only one block of stage temporaries is alive.
    """
    dim = matrix.shape[0]
    propagator = np.empty_like(matrix)
    for start in range(0, dim, _PROPAGATOR_BLOCK):
        width = min(_PROPAGATOR_BLOCK, dim - start)
        basis = np.eye(dim, width, -start, dtype=matrix.dtype)
        propagator[:, start : start + width] = _rk4_step(matrix, basis, dt)
    return propagator


def _rk4_step(matrix: np.ndarray, y: np.ndarray, dt: float) -> np.ndarray:
    k1 = matrix @ y
    k2 = matrix @ (y + 0.5 * dt * k1)
    k3 = matrix @ (y + 0.5 * dt * k2)
    k4 = matrix @ (y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _check_rk4_stable(radius: float, spec: IntegrationSpec) -> None:
    """Refuse RK4 when dt times the flow's spectral radius leaves its stability interval.

    Both flows have purely imaginary spectra, and RK4 is stable on the
    imaginary axis up to |z| = 2 sqrt(2).
    """
    z = spec.dt * radius
    if spec.method == RK4 and z > _RK4_STABILITY_LIMIT:
        raise ValueError(
            f"dt={spec.dt!r} is unstable for RK4: dt * (spectral radius) = {z:.3g} > 2*sqrt(2); "
            f"use dt <= {_RK4_STABILITY_LIMIT / radius:.3g}"
        )


def integrate_bloch(
    table: ConstantTable,
    coeffs: HamiltonianCoefficients,
    s0: np.ndarray,
    spec: IntegrationSpec,
) -> Trajectory:
    """Integrate the precession equation from coherence vector s0."""
    s0 = np.asarray(s0, dtype=float)
    dim = table.n_dim * table.n_dim - 1
    if s0.shape != (dim,):
        raise ValueError(f"expected a length-{dim} coherence vector, got {s0.shape}")
    omega = precession_matrix(table, coeffs)
    # The spectrum of omega is {i (lambda_a - lambda_b) / hbar} over the eigenvalues of H.
    energies = np.linalg.eigvalsh(
        hamiltonian_from_coefficients(AlgebraConfig(table.n_dim, coeffs.hbar), coeffs)
    )
    _check_rk4_stable((energies[-1] - energies[0]) / coeffs.hbar, spec)
    return _integrate_linear(omega, s0, spec)


def integrate_tdse(
    cfg: AlgebraConfig,
    hamiltonian: np.ndarray,
    psi0: np.ndarray,
    spec: IntegrationSpec,
) -> Trajectory:
    """Integrate the amplitude equation dc/dt = (-i/hbar) H c."""
    hamiltonian = _check_hermitian(hamiltonian, cfg.n_dim)
    psi0 = _check_normalized(psi0, cfg.n_dim, 1e-12)
    # The amplitude flow's own radius is max |lambda| / hbar; the spread is
    # checked as well, so that a step the precession flow refuses is refused here.
    energies = np.linalg.eigvalsh(hamiltonian)
    _check_rk4_stable(max(energies[-1] - energies[0], np.abs(energies).max()) / cfg.hbar, spec)
    generator = (-1j / cfg.hbar) * hamiltonian
    return _integrate_linear(generator, psi0, spec)


def bloch_tdse_deviation(
    cfg: AlgebraConfig,
    table: ConstantTable,
    hamiltonian: np.ndarray,
    psi0: np.ndarray,
    spec: IntegrationSpec,
    *,
    norm_tol: float = 1e-6,
) -> float:
    """Max componentwise gap between the precession trajectory and the mapped
    amplitude trajectory, both started from the same pure state.

    ``norm_tol`` bounds how much amplitude-norm drift is tolerated before the
    mapping is considered meaningless.
    """
    coeffs = decompose_hamiltonian(cfg, hamiltonian)
    s0 = state_to_bloch(cfg, psi0)
    bloch = integrate_bloch(table, coeffs, s0, spec)
    amp = integrate_tdse(cfg, hamiltonian, psi0, spec)
    if not np.array_equal(bloch.times, amp.times):
        raise RuntimeError("integrators produced different sample grids")
    norms = np.sum(np.abs(amp.states) ** 2, axis=1)
    drift = float(np.abs(norms - 1.0).max())
    if drift > norm_tol:
        raise ValueError(
            f"amplitude norm drifted by {drift:.3e} (> {norm_tol:.1e}); dt is too coarse"
        )
    mapped = bloch_from_states(cfg, amp.states)
    return float(np.abs(bloch.states - mapped).max())
