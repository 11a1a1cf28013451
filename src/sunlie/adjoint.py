"""Adjoint representation assembled from the anti-symmetric constant table.

The matrices T_i with entries [T_i]_jk = -i f_ijk represent the algebra on
itself: [T_i, T_j] = i sum_k f_ijk T_k.  Because f is real and totally
anti-symmetric, every T_i is Hermitian, purely imaginary off the diagonal,
zero on it, and traceless.  Every matrix here is written entry by entry from
the cyclic orders (i, j, k) of the f triples: -i f_ijk at (j, k), its conjugate at (k, j).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import _MAX_MULTIPLY_ADDS
from .indexing import _integer
from .structure_constants import ConstantTable, _cyclic_orders

# Pair verification is exhaustive up to this N and samples this many pairs
# beyond it.
EXHAUSTIVE_MAX_N = 6
DEFAULT_SAMPLE_PAIRS = 200
# A check passes when no entry of any pair's residual exceeds this.
TOLERANCE = 1e-12


@dataclass(frozen=True)
class AdjointReport:
    """Outcome of the check [T_i,T_j] = i f_ijk T_k; passed is max_deviation <= TOLERANCE."""

    n_dim: int
    pairs_checked: int
    exhaustive: bool
    max_deviation: float
    passed: bool


def adjoint_stack(table: ConstantTable) -> np.ndarray:
    """All adjoint matrices as one (d, d, d) complex array, d = N**2 - 1."""
    d = table.n_dim * table.n_dim - 1
    stack = np.empty((d, d, d), dtype=np.complex128)
    for i in range(d):
        stack[i] = adjoint_matrix(table, i + 1)
    return stack


def adjoint_matrix(table: ConstantTable, i: int) -> np.ndarray:
    """The (N**2-1) x (N**2-1) matrix T_i with [T_i]_jk = -i f_ijk."""
    d = table.n_dim * table.n_dim - 1
    i = _integer(i, "index", 1, d)
    orders, f = _cyclic_orders(table)
    out = np.zeros((d, d), dtype=np.complex128)
    for rows, j, k in orders:  # -i f_ikj = conj(-i f_ijk): T_i is Hermitian
        mine = rows == i - 1
        j, k, entries = j[mine], k[mine], -1j * f[mine]
        out[j, k], out[k, j] = entries, entries.conj()
    return out


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b in row blocks of fewer than _MAX_MULTIPLY_ADDS multiply-adds each.

    Larger products wake OpenBLAS's second thread (2-core x86, OpenBLAS
    0.3.31: complex ones from 2**16, real ones from about 2**20), which on a
    shared host at times stalled the N = 12 check for 0.1-0.3 s; each block
    runs on the calling thread.
    """
    rows = max(1, (_MAX_MULTIPLY_ADDS - 1) // (a.shape[1] * b.shape[1]))
    out = np.empty((a.shape[0], b.shape[1]), dtype=np.result_type(a, b))
    for start in range(0, a.shape[0], rows):
        np.matmul(a[start:start + rows], b, out=out[start:start + rows])
    return out


def verify_adjoint_commutators(table: ConstantTable, *, seed: int = 42) -> AdjointReport:
    """Check [T_i, T_j] = i sum_k f_ijk T_k over index pairs.

    All pairs are checked for N <= EXHAUSTIVE_MAX_N, DEFAULT_SAMPLE_PAIRS
    random pairs beyond that, drawn from ``seed``, an integer >= 0.
    Returns a report rather than raising: max deviation is a result, not an
    error, and the check passes within TOLERANCE.

    Checks [F_i, F_j] = -sum_k f_ijk F_k (T_i = -i F_i) pair by pair, on the
    indices that F_i, F_j and each F_k with f_ijk != 0 touch: every term is zero off them.
    """
    seed = _integer(seed, "seed", 0)
    d = table.n_dim * table.n_dim - 1
    orders, f = _cyclic_orders(table)
    # The orders' first indices: a triple's next index lies one table length on, cyclically.
    columns = np.concatenate(orders[0])  # a, b, c
    order = np.argsort(columns, kind="stable")
    rows = np.split(order, np.searchsorted(columns[order], np.arange(1, d)))  # each i's entries
    steps, signs = np.array([[f.size], [-f.size]]), np.array([[1.0], [-1.0]])

    def row(i: int) -> tuple:  # (j, k, f_ijk) != 0, 2 x entries: i's entries, then their odd orders
        j = columns.take(rows[i] + steps, mode="wrap")
        return j, j[::-1], f.take(rows[i], mode="wrap") * signs

    def f_matrix(j: np.ndarray, k: np.ndarray, f_jk: np.ndarray, where: np.ndarray) -> np.ndarray:
        out = np.zeros((where.size, where.size))  # [F_i]_jk = f_ijk on ``where``, from row(i)
        out[where.searchsorted(j), where.searchsorted(k)] = f_jk
        return out

    def deviation(i: int, j: int) -> float:  # the pair's matrices die with the call
        js, ks, values = f_row = row(i)
        ijk = js == j  # the triples (i, j, k): f_ijk != 0
        f_rows = {i: f_row, **{k: row(k) for k in (j, *ks[ijk].tolist())}}
        touched = np.concatenate([others.ravel() for others, _, _ in f_rows.values()])
        where = np.flatnonzero(np.bincount(touched, minlength=d))  # ascending, each once
        f_i, f_j = f_matrix(*f_rows[i], where), f_matrix(*f_rows[j], where)
        residual = _product(f_i, f_j) - _product(f_j, f_i)
        for k, f_ijk in sorted(zip(ks[ijk].tolist(), values[ijk].tolist())):  # k ascending
            residual += f_ijk * f_matrix(*f_rows[k], where)
        return float(np.abs(residual).max())

    firsts, seconds = np.triu_indices(d, 1)
    exhaustive = table.n_dim <= EXHAUSTIVE_MAX_N
    if not exhaustive:  # N >= 7: more than 1,000 pairs to draw from
        rng = np.random.default_rng(seed)
        chosen = rng.choice(len(firsts), size=DEFAULT_SAMPLE_PAIRS, replace=False)
        firsts, seconds = firsts[chosen], seconds[chosen]
    max_dev = max(map(deviation, firsts, seconds))

    return AdjointReport(
        n_dim=table.n_dim,
        pairs_checked=len(firsts),
        exhaustive=exhaustive,
        max_deviation=max_dev,
        passed=max_dev <= TOLERANCE,
    )
