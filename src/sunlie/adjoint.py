"""Adjoint representation assembled from the anti-symmetric constant table.

The matrices T_i with entries [T_i]_jk = -i f_ijk represent the algebra on
itself: [T_i, T_j] = i sum_k f_ijk T_k.  Because f is real and totally
anti-symmetric, every T_i is Hermitian, purely imaginary off the diagonal,
zero on it, and traceless.  Every matrix here is written entry by entry
from the six signed index orders of the canonical f triples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .structure_constants import ConstantTable, _signed_permutations

# Exhaustive pair verification is the default up to this N; beyond it the
# check samples pairs instead.
EXHAUSTIVE_MAX_N = 6
DEFAULT_SAMPLE_PAIRS = 200


@dataclass(frozen=True)
class AdjointReport:
    """Outcome of the representation-property check [T_i,T_j] = i f_ijk T_k."""

    n_dim: int
    pairs_checked: int
    exhaustive: bool
    max_deviation: float
    tolerance: float
    passed: bool


def adjoint_stack(table: ConstantTable) -> np.ndarray:
    """All adjoint matrices as one (d, d, d) complex array, d = N**2 - 1."""
    d = table.n_dim * table.n_dim - 1
    i, j, k, f = _signed_permutations(table)
    stack = np.zeros((d, d, d), dtype=np.complex128)
    stack[i, j, k] = -1j * f
    return stack


def adjoint_matrix(table: ConstantTable, i: int) -> np.ndarray:
    """The (N**2-1) x (N**2-1) matrix T_i with [T_i]_jk = -i f_ijk."""
    rows, j, k, f = _signed_permutations(table)
    d = table.n_dim * table.n_dim - 1
    if not 1 <= i <= d:
        raise ValueError(f"index {i} outside 1..{d} for N={table.n_dim}")
    mine = rows == i - 1
    out = np.zeros((d, d), dtype=np.complex128)
    out[j[mine], k[mine]] = -1j * f[mine]
    return out


def verify_adjoint_commutators(
    table: ConstantTable,
    *,
    sample: int | None = None,
    seed: int = 42,
    tol: float = 1e-12,
) -> AdjointReport:
    """Check [T_i, T_j] = i sum_k f_ijk T_k over index pairs.

    With ``sample=None`` all pairs are checked for N <= 6 and 200 seeded
    random pairs beyond that; pass an explicit count to override.  Returns a
    report rather than raising: max deviation is a result, not an error.

    Checks the real form [F_i, F_j] = -sum_k f_ijk F_k, T_i = -i F_i, one
    pair at a time from d x d matrices: O(d**2) memory, no (d, d, d) stack.
    """
    d = table.n_dim * table.n_dim - 1
    i_all, j_all, k_all, f_all = _signed_permutations(table)
    order = np.argsort(i_all, kind="stable")
    start = np.searchsorted(i_all[order], np.arange(d + 1))

    def f_matrix(i: int) -> np.ndarray:  # [F_i]_jk = f_ijk
        part = order[start[i] : start[i + 1]]
        out = np.zeros((d, d))
        out[j_all[part], k_all[part]] = f_all[part]
        return out

    firsts, seconds = np.triu_indices(d, 1)
    exhaustive = sample is None and table.n_dim <= EXHAUSTIVE_MAX_N
    if not exhaustive:
        count = min(DEFAULT_SAMPLE_PAIRS if sample is None else sample, len(firsts))
        rng = np.random.default_rng(seed)
        chosen = rng.choice(len(firsts), size=count, replace=False)
        firsts, seconds = firsts[chosen], seconds[chosen]

    max_dev = 0.0
    for i, j in zip(firsts, seconds):
        f_i, f_j = f_matrix(i), f_matrix(j)
        residual = f_i @ f_j - f_j @ f_i
        for k in np.flatnonzero(f_i[j]):
            residual += f_i[j, k] * f_matrix(k)
        max_dev = max(max_dev, float(np.abs(residual).max()))

    return AdjointReport(
        n_dim=table.n_dim,
        pairs_checked=len(firsts),
        exhaustive=exhaustive,
        max_deviation=max_dev,
        tolerance=tol,
        passed=max_dev <= tol,
    )
