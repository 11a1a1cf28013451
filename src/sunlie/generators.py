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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .indexing import (
    ANTISYMMETRIC,
    SYMMETRIC,
    GeneratorLabel,
    all_labels,
    check_dimension,
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
    mat = np.asarray(mat)
    n_dim = cfg.n_dim
    if mat.shape != (n_dim, n_dim):
        raise ValueError(f"expected a {n_dim} x {n_dim} matrix, got shape {mat.shape}")
    if not np.isfinite(mat).all():
        raise ValueError("matrix has non-finite entries")
    diag = np.diagonal(mat)
    scale = max(1.0, float(np.abs(mat).max()))
    off = mat - np.diag(diag)
    if np.abs(off).max() > 1e-12 * scale:
        raise ValueError("input has off-diagonal entries; expected a diagonal matrix")
    if np.iscomplexobj(mat) and np.abs(diag.imag).max() > 1e-12 * scale:
        raise ValueError("input has complex diagonal entries; expected real values")
    diag = diag.real.astype(float)

    identity_coeff = float(diag.sum()) / n_dim
    prefix = np.cumsum(diag)
    coeffs: dict[int, float] = {}
    two_over_h2 = 2.0 / (cfg.hbar * cfg.hbar)
    for n in range(2, n_dim + 1):
        c = cfg.hbar / math.sqrt(2.0 * n * (n - 1))
        trace = c * (prefix[n - 2] + (1 - n) * diag[n - 1])
        coeffs[n] = two_over_h2 * trace
    return identity_coeff, coeffs
