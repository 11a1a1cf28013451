"""Dense construction of the generalized Gell-Mann generators of su(N).

The basis splits into three families: N(N-1)/2 symmetric matrices

    S_Snm = (hbar/2) (|m><n| + |n><m|),

N(N-1)/2 anti-symmetric matrices

    S_Anm = (-i hbar/2) (|m><n| - |n><m|),

and N-1 diagonal Cartan generators

    S_Dn = hbar/sqrt(2n(n-1)) (sum_{k<n} |k><k| + (1-n) |n><n|).

All are Hermitian, traceless, and orthonormal: Tr[S_i S_j] = (hbar**2/2) d_ij.
Construction is entry-wise (no matrix products), so the matrices carry zero
round-off.  A Cartan generator has support only on the first n coordinates;
for N > n the remaining diagonal is zero-padded, which is what makes the
su(N-1) basis a literal prefix of the su(N) basis.

With hbar = 2 the N = 2 basis is exactly the Pauli matrices and the N = 3
basis the Gell-Mann lambda matrices.

Projections onto the basis are direct entry reads (Bertlmann & Krammer,
J. Phys. A 41, 235303 (2008)), so decomposing and rebuilding cost O(N**2);
for Hermitian X

    Tr[X S_Snm] = hbar Re X_nm,   Tr[X S_Anm] = hbar Im X_nm,
    Tr[X S_Dn]  = hbar [ sum_{k<n} X_kk / sqrt(2n(n-1)) - sqrt((n-1)/(2n)) X_nn ].

`_bloch_maps` holds the index arrays and Cartan weights of these reads and
is the one place the library writes them; `make_generator` writes the same
entries independently, as the reference they are checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .indexing import (
    ANTISYMMETRIC, SYMMETRIC, GeneratorLabel, all_labels, antisymmetric_index, check_dimension,
    diagonal_index, symmetric_index,
)


@dataclass(frozen=True)
class AlgebraConfig:
    """Ambient parameters: matrix dimension N and the hbar scale of the basis."""

    n_dim: int
    hbar: float = 1.0

    def __post_init__(self) -> None:
        check_dimension(self.n_dim)
        if not self.hbar > 0:
            raise ValueError(f"hbar must be positive, got {self.hbar}")

    @property
    def dim(self) -> int:
        """Number of generators, N**2 - 1."""
        return self.n_dim * self.n_dim - 1


def make_generator(cfg: AlgebraConfig, label: GeneratorLabel) -> np.ndarray:
    """Build one generator as a dense complex N x N matrix."""
    if label.n > cfg.n_dim:
        raise ValueError(f"label {label} has top coordinate beyond N={cfg.n_dim}")
    out = np.zeros((cfg.n_dim, cfg.n_dim), dtype=np.complex128)
    n, m = label.n - 1, label.m - 1  # 0-based coordinates
    if label.kind == SYMMETRIC:
        out[m, n] = 0.5 * cfg.hbar
        out[n, m] = 0.5 * cfg.hbar
    elif label.kind == ANTISYMMETRIC:
        out[m, n] = -0.5j * cfg.hbar
        out[n, m] = 0.5j * cfg.hbar
    else:
        c = cfg.hbar / math.sqrt(2.0 * label.n * (label.n - 1))
        for k in range(label.n - 1):
            out[k, k] = c
        out[n, n] = (1 - label.n) * c
    return out


def all_generators(cfg: AlgebraConfig) -> list[np.ndarray]:
    """All N**2 - 1 generators in linear-index order (position i-1 holds index i)."""
    return [make_generator(cfg, label) for label in all_labels(cfg.n_dim)]


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


def _check_square(mat: np.ndarray, n_dim: int) -> tuple[np.ndarray, float]:
    """Refuse anything but a finite N x N matrix; return it with its scale max(1, max |X_ij|)."""
    mat = np.asarray(mat)
    if mat.shape != (n_dim, n_dim):
        raise ValueError(f"expected a {n_dim} x {n_dim} matrix, got shape {mat.shape}")
    if not np.isfinite(mat).all():
        raise ValueError("matrix has non-finite entries")
    return mat, max(1.0, float(np.abs(mat).max()))


def decompose_diagonal(
    cfg: AlgebraConfig, mat: np.ndarray
) -> tuple[float, dict[int, float]]:
    """Resolve a real diagonal matrix onto the identity and the Cartan generators.

    Returns ``(identity_coeff, cartan_coeffs)`` with ``cartan_coeffs`` keyed
    by the Cartan top coordinate n in 2..N, such that

        mat = identity_coeff * I + sum_n cartan_coeffs[n] * S_Dn

    holds exactly to round-off.  The coefficients are orthogonal projections:
    identity_coeff = Tr[mat]/N and cartan_coeffs[n] = (2/hbar**2) Tr[mat S_Dn].

    Raises ValueError if the input is not (numerically) a real diagonal
    N x N matrix.
    """
    mat, scale = _check_square(mat, cfg.n_dim)
    diag = np.diagonal(mat)
    off = mat - np.diag(diag)
    if np.abs(off).max() > 1e-12 * scale:
        raise ValueError("input has off-diagonal entries; expected a diagonal matrix")
    if np.iscomplexobj(mat) and np.abs(diag.imag).max() > 1e-12 * scale:
        raise ValueError("input has complex diagonal entries; expected real values")
    diag = diag.real.astype(float)
    weights = _bloch_maps(cfg.n_dim)[5]
    cartan = (2.0 / cfg.hbar) * (weights @ diag)
    return float(diag.sum()) / cfg.n_dim, dict(zip(range(2, cfg.n_dim + 1), cartan.tolist()))
