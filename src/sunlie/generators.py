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
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .indexing import (
    ANTISYMMETRIC, SYMMETRIC, GeneratorLabel, _integer, all_labels, antisymmetric_index,
    diagonal_index, symmetric_index,
)


@dataclass(frozen=True)
class AlgebraConfig:
    """Ambient parameters: matrix dimension N and the hbar scale of the basis."""

    n_dim: int
    hbar: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_dim", _integer(self.n_dim, "N", 2))
        _check_hbar(self.hbar)

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
    """Dense identity * I + scale * sum_k coeffs_k S_k, written entry by entry.

    With T = scale * max |coeffs_k|, every scaled coefficient is at most T, an
    off-diagonal entry at most hbar T / sqrt(2), and a diagonal entry differs
    from ``identity`` by at most hbar T times the sum of coordinate k's Cartan
    weights: sqrt((k-1)/(2k)) < 1/sqrt(2) from D_k, and 1/sqrt(2n(n-1)) <=
    1/(sqrt(2) (n-1)) from each D_n with n > k, so below (1 + ln N)/sqrt(2).
    The (N-1, N) weights fit in memory only for N < 2**30, where that sum is
    below 16.  So T max(1, hbar) <= _MAX_EXPANSION, a 32nd of the largest
    float, keeps every product finite, and |identity| <= _MAX_EXPANSION keeps
    the diagonal's sums finite too.  decompose_hamiltonian's coefficients
    pass: from entries of modulus at most _MAX_ENTRY they are at most
    2 sqrt(2) _MAX_ENTRY, so T max(1, hbar) <= 2 sqrt(2) _MAX_ENTRY /
    min(1, hbar), below 1.4e257 over the hbar range.
    """
    if not abs(identity) <= _MAX_EXPANSION:  # NaN fails too
        raise ValueError(f"identity coefficient must be finite, of modulus at most "
                         f"{_MAX_EXPANSION:.2g}, got {identity}")
    coeffs = _check_vector(coeffs, cfg.dim, "coefficient vector")
    top = float(np.abs(coeffs).max())
    size = float(scale) * top * max(1.0, float(cfg.hbar))  # inf, not a warning
    if not size <= _MAX_EXPANSION:
        raise ValueError(f"coefficient vector has an entry of modulus {top:.3g}, too large to "
                         f"expand at scale {scale:.3g} and hbar={cfg.hbar:.3g} "
                         f"({size:.3g} > {_MAX_EXPANSION:.2g})")
    coeffs = scale * coeffs
    m_idx, n_idx, s_pos, a_pos, d_pos, weights = _bloch_maps(cfg.n_dim)
    out = np.diag(identity + cfg.hbar * (coeffs[d_pos] @ weights)).astype(np.complex128)
    lower = (0.5 * cfg.hbar) * (coeffs[s_pos] + 1j * coeffs[a_pos])
    out[n_idx, m_idx] = lower
    out[m_idx, n_idx] = lower.conj()
    return out


# The hbar whose cube and reciprocal cube are normal floats (see _check_hbar).
_HBAR_RANGE = (sys.float_info.min ** (1 / 3), sys.float_info.min ** (-1 / 3))
# About 1.3e154: a matrix entry stays finite times N**2 and hbar or 1/hbar (< 3.6e102),
# as decompositions, reconstructions and flow frequencies multiply it.
_MAX_ENTRY = math.sqrt(sys.float_info.max)
# The size of an expansion's scaled coefficients, times max(1, hbar) (see _expansion).
_MAX_EXPANSION = sys.float_info.max / 32


def _check_square(mat: np.ndarray, n_dim: int) -> tuple[np.ndarray, float]:
    """Refuse anything but a finite N x N matrix of entries of modulus at most _MAX_ENTRY;
    return it with its scale max(1, max |X_ij|)."""
    mat = np.asarray(mat)
    if mat.shape != (n_dim, n_dim):
        raise ValueError(f"expected a {n_dim} x {n_dim} matrix, got shape {mat.shape}")
    if not np.isfinite(mat).all():
        raise ValueError("matrix has non-finite entries")
    scale = max(1.0, float(np.abs(mat).max()))  # a complex modulus beyond the floats is inf
    if scale > _MAX_ENTRY:
        raise ValueError(f"matrix has an entry of modulus {scale:.3g}, beyond {_MAX_ENTRY:.2g}")
    return mat, scale


def _check_hbar(hbar: float) -> None:
    """Refuse an hbar whose cube or reciprocal cube is not a finite normal float.

    The oracle divides by hbar**3.  With m = sys.float_info.min, the smallest
    normal float, hbar**3 >= m needs hbar >= m**(1/3), about 2.8e-103, and
    hbar**-3 >= m needs hbar <= m**(-1/3), about 3.6e102, below the 5.6e102 =
    sys.float_info.max**(1/3) where the cube overflows.
    """
    low, high = _HBAR_RANGE
    if not low <= hbar <= high:  # NaN fails both comparisons
        raise ValueError(f"hbar must be positive and finite, in {low:.2g}..{high:.2g} where "
                         f"its cube and reciprocal cube are normal floats, got {hbar}")


def _check_vector(vec: np.ndarray, length: int, what: str) -> np.ndarray:
    """Refuse anything but ``length`` finite real numbers; return them as a float array."""
    vec = np.asarray(vec, dtype=float)
    if vec.shape != (length,):
        raise ValueError(f"expected a length-{length} {what}, got shape {vec.shape}")
    if not np.isfinite(vec).all():
        raise ValueError(f"{what} has non-finite entries")
    return vec


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
