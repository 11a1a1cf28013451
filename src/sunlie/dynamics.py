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

Only time-independent Hamiltonians are supported, so both flows are linear
with constant coefficients, and one eigendecomposition H = V Lambda
V^dagger splits each into independent modes y' = -i w y (the eigenvector
method of Moler & Van Loan, SIAM Rev. 45, 3 (2003), well conditioned for
Hermitian H): the amplitudes c = V^dagger psi with w_a = lambda_a / hbar,
and the entries of rho~ = V^dagger rho V with w_ab = (lambda_a - lambda_b)
/ hbar.  A sample multiplies each mode by a factor F and maps back as an
increment, psi = psi0 + V ((F - 1) * c0) and s = s0 + read(V X V^dagger)
with X = (F - 1) * rho~0, where read takes s off rho's entries; where F = 1
the state is kept bit for bit.  As F_ba = conj(F_ab) and F_aa = 1, only the
N(N-1)/2 modes above the diagonal are sampled.  Groups of samples map back
by flat (rows, N) @ (N, N) products, X^T V^T = (V X)^T, then (V X) V^dagger,
each below 2**16 multiply-adds, where OpenBLAS 0.3.31 wakes a second thread
(on a 2-core x86 it stays on one at 64,800).  The method only picks F:

- "rk4", the default: fixed-step RK4, deterministic and reproducible.  One
  RK4 step of y' = (z / dt) y is exactly y <- R(z) y, with R(z) = 1 + z +
  z**2/2 + z**3/6 + z**4/24 the RK4 stability function (Hairer, Lubich &
  Wanner, Geometric Numerical Integration, ch. IV).  So k full steps and a
  tail step h give F = R(-i w dt)**k R(-i w h), the trajectory stage-wise
  RK4 takes, at a cost per sample rather than per step; R**k is taken as
  exp(k log R).  RK4 is refused when dt times the spectral radius of the
  flow exceeds 2 sqrt(2), the edge of its stability interval on the
  imaginary axis; that radius is (lambda_max - lambda_min)/hbar for the
  precession flow and max |lambda|/hbar for the amplitudes.
- "exact": F = exp(-i w t), with no truncation error and no stability limit
  on dt.

Either way a sample costs O(N**3) whatever the step count, and neither
method builds the f table or the d x d matrix Omega of `precession_matrix`
(d = N**2 - 1), which stays as the f-driven reference.  The eigenvectors
come from an SVD, not eigh (see `_eigensystem`).  Samples come a block at a
time in grid order: the integrators write the blocks into one (T, dim)
array.  `precession_blocks`, the one stream that `simulate` and
`bloch_tdse_deviation` share, starts from H and a pure state, yields each
block and, with the comparison, folds its gap to the amplitude flow on the
same rows before the next is sampled, so its memory does not grow with the
sample count.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from .generators import (
    AlgebraConfig, _bloch_maps, _check_hbar, _check_square, _check_vector, _expansion,
    _generator_traces,
)
from .indexing import _integer
from .structure_constants import ConstantTable, _cyclic_orders

RK4 = "rk4"
EXACT = "exact"
_METHODS = (RK4, EXACT)
_RK4_STABILITY_LIMIT = 2.0 * math.sqrt(2.0)
# The full-step count t_final / dt and the output stride are each at most
# 2**62, so that every full-step index of the sample grid fits in an int64.
_MAX_STEPS = 2**62
# Products in the sample loop stay below this many multiply-adds (see above);
# a precession block, whole groups of <= _BLOCK_ROWS rows of X^T, stays in cache.
_MAX_MULTIPLY_ADDS = 2**16
_BLOCK_ROWS = 2**9
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
        stride = _integer(self.output_stride, "output_stride", 1, _MAX_STEPS)
        object.__setattr__(self, "output_stride", stride)
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
    modulus = np.abs(amplitudes)  # refused above 2, where norm**2 > 4, before squares overflow
    if modulus.max() > 2.0:
        raise ValueError(f"state vector has an entry of modulus {modulus.max():.3g}, so its "
                         "norm**2 is not 1")
    norm_sq = float(np.sum(modulus**2))
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

    Sparse contraction, O(#triples) per call: one scatter-add per cyclic order
    (i, j, k) of the canonical triples, f_ijk (h_j s_k - h_k s_j) into row i.
    """
    orders, f = _cyclic_orders(table)
    dim = table.n_dim * table.n_dim - 1
    h = _check_vector(coeffs.h, dim, "Hamiltonian coefficient vector")
    s = _check_vector(bloch, dim, "coherence vector")
    return sum(np.bincount(i, f * (h[j] * s[k] - h[k] * s[j]), minlength=dim)
               for i, j, k in orders) / coeffs.hbar


def precession_matrix(table: ConstantTable, coeffs: HamiltonianCoefficients) -> np.ndarray:
    """Dense generator of the linear flow: ds/dt = matrix @ s.

    Same contraction as precession_rhs with the state factored out: the
    f-driven form of the flow that the integrators, which work in the
    eigenbasis of H, are checked against.
    """
    orders, f = _cyclic_orders(table)
    dim = table.n_dim * table.n_dim - 1
    h = _check_vector(coeffs.h, dim, "Hamiltonian coefficient vector")
    omega = np.zeros(dim * dim)
    for i, j, k in orders:  # f_ikj = -f_ijk
        np.add.at(omega, _flat(i, k, dim), f * h[j])
        np.add.at(omega, _flat(i, j, dim), -f * h[k])
    return omega.reshape(dim, dim) / coeffs.hbar


def _flat(i: np.ndarray, k: np.ndarray, dim: int) -> np.ndarray:
    """i * dim + k, widened first: the tables' int32 holds N**2 - 1, not the product."""
    return i.astype(np.intp) * dim + k


def _sample_grid(spec: IntegrationSpec, radius: float, first: np.ndarray) -> tuple:
    """The RK4 stability guard, then the size of the sample grid.

    ``radius`` is the spectral radius of the flow.  Both flows have purely
    imaginary spectra, and RK4 is stable on the imaginary axis up to
    |z| = 2 sqrt(2), so RK4 is refused when dt * radius exceeds that, even
    for a zero duration.  Returns (count, n_steps, n_full, remainder): of the
    ``count`` samples, ``n_steps`` are at every output_stride-th full step
    and the last, n_full, and one more is at t_final if ``remainder``, the
    tail step short of it, is not 0.0.  A grid whose (count, first.size)
    array numpy could not address is refused without allocating anything,
    and so is a t_final whose largest phase t_final * radius is not a float.
    """
    z, phase = spec.dt * float(radius), spec.t_final * float(radius)  # inf, not a warning
    if spec.method == RK4 and z > _RK4_STABILITY_LIMIT:
        raise ValueError(
            f"dt={spec.dt!r} is unstable for RK4: dt * (spectral radius) = {z:.3g} > 2*sqrt(2); "
            f"use dt <= {_RK4_STABILITY_LIMIT / radius:.3g}"
        )
    if math.isinf(phase):
        raise ValueError(f"t_final * (spectral radius) = {phase} overflows; shorten t_final")
    n_full = int(math.floor(spec.t_final / spec.dt + 1e-9))
    remainder = spec.t_final - n_full * spec.dt
    if not remainder > 1e-12 * max(spec.t_final, spec.dt):
        remainder = 0.0
    n_steps = -(-n_full // spec.output_stride) + 1
    count = n_steps + bool(remainder)
    if count * first.nbytes > np.iinfo(np.intp).max:
        raise ValueError(
            f"{count} samples of {first.size} values ({count * first.nbytes} bytes) do not fit "
            "in memory; raise dt or output_stride"
        )
    return count, n_steps, n_full, remainder


def _eigensystem(hamiltonian: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and orthonormal eigenvectors (columns) of Hermitian H.

    ||H||_inf bounds the spectral radius, so H + ||H||_inf I is positive
    semidefinite: its singular value decomposition is its eigendecomposition,
    and the singular values less the shift are the eigenvalues of H.  Above
    N = 25 numpy's eigh runs on OpenBLAS's threads and at times took 12-16 ms
    at N = 26-40 waiting on the second, against 0.13-0.41 ms on one thread and
    0.19-0.56 ms for this SVD (2-core x86); `simulate` is benchmarked at N = 32.
    """
    shift = np.abs(hamiltonian).sum(axis=1).max()
    u, sigma, _ = np.linalg.svd(hamiltonian + shift * np.eye(len(hamiltonian)))
    return sigma[::-1] - shift, u[:, ::-1]


def _rk4_log(x: np.ndarray) -> np.ndarray:
    """log R(-i x) for real x, where R(z) = 1 + z + z**2/2 + z**3/6 + z**4/24.

    Written out for an imaginary argument, |R(i x)|**2 = 1 - x**6/72 +
    x**8/576 and arg R(i x) = atan2(x - x**3/6, 1 - x**2/2 + x**4/24), so
    both parts are accurate to rounding; numpy's complex log1p(R - 1) forms
    |R| from 1 + Re(R - 1) and loses the real part, about -x**6/144, to
    cancellation.
    """
    x2 = x * x
    modulus = 0.5 * np.log1p(x2**3 * (x2 / 576.0 - 1.0 / 72.0))
    return modulus - 1j * np.arctan2(x * (1.0 - x2 / 6.0), 1.0 - x2 / 2.0 + x2 * x2 / 24.0)


def _block_samples(n_dim: int, rows: int) -> tuple[int, int]:
    """Samples per (rows, N) @ (N, N) product of ``rows`` rows each, and per block."""
    group = max(1, (_MAX_MULTIPLY_ADDS - 1) // (rows * n_dim * n_dim))
    return group, group * max(1, _BLOCK_ROWS // (group * rows))


def _evolve_modes(
    spec: IntegrationSpec,
    frequencies: np.ndarray,
    radius: float,
    first: np.ndarray,
    read: Callable[[np.ndarray], np.ndarray],
    block: int,
) -> tuple[int, Iterator[tuple[np.ndarray, np.ndarray]]]:
    """Sample a linear flow whose modes y' = -i w y have the ``frequencies`` w.

    ``radius`` is the spectral radius for the RK4 guard of `_sample_grid`, run
    at the call, and ``first`` the state at t = 0.  Returns the sample count
    and the grid's blocks in order as (times, rows): row 0 alone, then
    ``block`` rows each.  Row j is ``first + read(F - 1)``, log F = steps[j] *
    log_step, plus log_tail on the tail sample (RK4's tail step, or 0).
    ``read`` takes ``block`` samples in groups of flat products below 2**16
    multiply-adds (`_block_samples`).  Precession passes only the modes above
    the diagonal and mirrors F, not the increment: V^dagger rho V is
    Hermitian only to rounding.
    """
    count, n_steps, n_full, remainder = _sample_grid(spec, radius, first)
    if spec.method == EXACT:
        log_step, log_tail = -1j * frequencies, 0.0
    else:
        log_step, log_tail = _rk4_log(spec.dt * frequencies), _rk4_log(remainder * frequencies)

    def blocks():
        yield np.zeros(1), first[np.newaxis]
        for start in range(1, count, block):
            stop = min(start + block, count)
            # The tail sample, index n_steps, takes n_full steps as the one before it.
            index = np.minimum(np.arange(start, stop), n_steps - 1)
            steps = np.minimum(index * spec.output_stride, n_full)
            # n_full * dt may round past t_final (3 * 0.1 > 0.3); the grid stops at t_final.
            times = np.minimum(steps * spec.dt, spec.t_final)
            times[n_steps - start:] = spec.t_final  # the tail sample, if in this block
            exponent = np.multiply.outer(times if spec.method == EXACT else steps, log_step)
            exponent[n_steps - start:] += log_tail
            factor = np.exp(exponent, out=exponent)
            factor -= 1.0
            yield times, first + read(factor)

    return count, blocks()


def _collect(count: int, blocks: Iterator[tuple[np.ndarray, np.ndarray]]) -> Trajectory:
    """The blocks of `_evolve_modes` written into one preallocated trajectory."""
    _, first = next(blocks)
    traj = Trajectory(np.zeros(count), np.empty((count, first.shape[1]), first.dtype))
    traj.states[0], start = first[0], 1
    for times, rows in blocks:
        traj.times[start:start + len(rows)], traj.states[start:start + len(rows)] = times, rows
        start += len(rows)
    return traj


def integrate_bloch(
    table: ConstantTable,
    coeffs: HamiltonianCoefficients,
    s0: np.ndarray,
    spec: IntegrationSpec,
) -> Trajectory:
    """Integrate the precession equation from coherence vector s0.

    Both methods evolve the density matrix in the eigenbasis of H (see the
    module docstring); the f table is validated but not contracted.
    """
    _cyclic_orders(table)  # refuses a d table
    return _collect(*_integrate_precession(table.n_dim, coeffs, s0, spec))


def _integrate_precession(
    n_dim: int, coeffs: HamiltonianCoefficients, s0: np.ndarray, spec: IntegrationSpec
) -> tuple[int, Iterator[tuple[np.ndarray, np.ndarray]]]:
    """`integrate_bloch` at dimension N in blocks, without an f table."""
    s0 = _check_vector(s0, n_dim * n_dim - 1, "coherence vector")
    # The trace of H does not enter the flow; leaving it out keeps the
    # eigenvalue differences free of its cancellation error.
    cfg = AlgebraConfig(n_dim, coeffs.hbar)
    traceless = HamiltonianCoefficients(0.0, coeffs.h, cfg.hbar)
    energies, vectors = _eigensystem(hamiltonian_from_coefficients(cfg, traceless))
    m_idx, n_idx = _bloch_maps(n_dim)[:2]
    # One mode per entry of rho~ = V^dagger rho V, w_ab = (lambda_a - lambda_b) / hbar.
    rho0 = vectors.conj().T @ reconstruct_density(cfg, s0) @ vectors
    a, b = m_idx, n_idx  # the modes above the diagonal, a < b
    group, block = _block_samples(n_dim, n_dim)

    def read(factor):
        groups = -(-len(factor) // group)  # X^T in equal groups of <= group, zero-padded
        xt = np.zeros((groups * -(-len(factor) // groups), n_dim, n_dim), dtype=np.complex128)
        xt[: len(factor), b, a] = factor * rho0[a, b]
        xt[: len(factor), a, b] = factor.conj() * rho0[b, a]
        vx = xt.reshape(groups, -1, n_dim) @ vectors.T  # (V X)^T, then V X back in xt
        xt[...] = vx.reshape(xt.shape).transpose(0, 2, 1)
        rho = np.matmul(xt.reshape(vx.shape), vectors.conj().T, out=vx).reshape(xt.shape)
        rho = rho[: len(factor)]
        return _generator_traces(cfg, rho[:, n_idx, m_idx], rho.diagonal(0, 1, 2).real)

    w = (energies[a] - energies[b]) / cfg.hbar
    return _evolve_modes(spec, w, (energies[-1] - energies[0]) / cfg.hbar, s0, read, block)


def integrate_tdse(
    cfg: AlgebraConfig,
    hamiltonian: np.ndarray,
    psi0: np.ndarray,
    spec: IntegrationSpec,
) -> Trajectory:
    """Integrate the amplitude equation dc/dt = (-i/hbar) H c."""
    return _collect(*_amplitudes(cfg, hamiltonian, psi0, spec, _block_samples(cfg.n_dim, 1)[0]))


def _amplitudes(
    cfg: AlgebraConfig, hamiltonian: np.ndarray, psi0: np.ndarray, spec: IntegrationSpec, block: int
) -> tuple[int, Iterator[tuple[np.ndarray, np.ndarray]]]:
    """`integrate_tdse` in blocks of ``block`` rows (one product's worth for it)."""
    hamiltonian = _check_hermitian(hamiltonian, cfg.n_dim)
    psi0 = _check_normalized(psi0, cfg.n_dim)
    energies, vectors = _eigensystem(hamiltonian)
    # The amplitude flow's own radius is max |lambda| / hbar; the spread is
    # checked as well, so that a step the precession flow refuses is refused here.
    radius = max(energies[-1] - energies[0], np.abs(energies).max()) / cfg.hbar
    c0 = vectors.conj().T @ psi0
    return _evolve_modes(spec, energies / cfg.hbar, radius, psi0,
                         lambda factor: np.multiply(factor, c0, out=factor) @ vectors.T, block)


def bloch_tdse_deviation(
    cfg: AlgebraConfig,
    table: ConstantTable,
    hamiltonian: np.ndarray,
    psi0: np.ndarray,
    spec: IntegrationSpec,
) -> float:
    """Max componentwise gap between the precession trajectory and the mapped
    amplitude trajectory, both started from the same pure state.

    The last gap of `precession_blocks` with the comparison, the stream that
    `simulate --compare-tdse` writes.
    """
    _cyclic_orders(table)  # refuses a d table
    if table.n_dim != cfg.n_dim:
        raise ValueError(f"an N={table.n_dim} table does not fit N={cfg.n_dim}")
    for *_, gap in precession_blocks(cfg, hamiltonian, psi0, spec, True):
        pass
    return gap


def precession_blocks(
    cfg: AlgebraConfig, hamiltonian: np.ndarray, psi0: np.ndarray, spec: IntegrationSpec,
    compare_tdse: bool,
) -> Iterator[tuple[np.ndarray, np.ndarray, float | None]]:
    """The precession trajectory from pure state psi0 under H, a block at a time.

    Decomposes H, maps psi0 to its coherence vector and yields the grid's
    blocks in order as (times, rows, gap), with the rows `integrate_bloch`
    gives for them.  With ``compare_tdse``, gap is the max componentwise gap
    so far to the amplitude flow from psi0 on the same rows, mapped to
    coherence vectors; without, it is None.  Every check, and the RK4 guard
    of each flow, runs at the call; after the last block, an amplitude norm
    drift beyond _NORM_DRIFT_TOL is refused, as the mapping is then meaningless.
    """
    coeffs = decompose_hamiltonian(cfg, hamiltonian)
    _, blocks = _integrate_precession(cfg.n_dim, coeffs, state_to_bloch(cfg, psi0), spec)
    if not compare_tdse:
        return ((times, rows, None) for times, rows in blocks)
    block = _block_samples(cfg.n_dim, cfg.n_dim)[1]  # the rows of a precession block
    _, amplitudes = _amplitudes(cfg, hamiltonian, psi0, spec, block)

    def fold():
        gap = drift = 0.0
        for (times, rows), (_, amps) in zip(blocks, amplitudes, strict=True):
            drift = max(drift, float(np.abs(np.sum(np.abs(amps) ** 2, axis=1) - 1.0).max()))
            gap = max(gap, float(np.abs(rows - bloch_from_states(cfg, amps)).max()))
            yield times, rows, gap
        if drift > _NORM_DRIFT_TOL:
            raise ValueError(
                f"amplitude norm drifted by {drift:.3e} (> {_NORM_DRIFT_TOL:.1e}); dt is too coarse"
            )

    return fold()
