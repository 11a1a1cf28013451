"""Adjoint representation assembled from the anti-symmetric constant table.

The matrices T_i with entries [T_i]_jk = -i f_ijk represent the algebra on
itself: [T_i, T_j] = i sum_k f_ijk T_k.  Because f is real and totally
anti-symmetric, every T_i is Hermitian, purely imaginary off the diagonal,
zero on it, and traceless.  Every matrix here is written entry by entry from
the cyclic orders (i, j, k) of the f triples: -i f_ijk at (j, k), its conjugate at (k, j).
The commutator check builds no matrix: it sums each pair's residual term by
term from the same entries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def verify_adjoint_commutators(table: ConstantTable, *, seed: int = 42) -> AdjointReport:
    """Check [T_i, T_j] = i sum_k f_ijk T_k over index pairs.

    All pairs are checked for N <= EXHAUSTIVE_MAX_N, DEFAULT_SAMPLE_PAIRS
    random pairs beyond that, drawn from ``seed``, an integer >= 0.
    Returns a report rather than raising: max deviation is a result, not an
    error, and the check passes within TOLERANCE.

    Checks [F_i, F_j] = -sum_k f_ijk F_k (T_i = -i F_i) pair by pair, from the
    f rows alone: every term f_iac f_jcb, -f_jac f_icb and f_ijk f_kab of the
    residual is summed into its entry (a, b), and no matrix is built.
    """
    seed = _integer(seed, "seed", 0)
    d = table.n_dim * table.n_dim - 1
    orders, f = _cyclic_orders(table)
    # The orders' first indices: a triple's next index lies one table length on, cyclically.
    columns = np.concatenate(orders[0])  # a, b, c
    order = np.argsort(columns, kind="stable")
    rows = np.split(order, np.searchsorted(columns[order], np.arange(1, d)))  # each i's entries
    steps, signs = np.array([[f.size], [-f.size]]), np.array([[1.0], [-1.0]])

    def row(i: int) -> tuple:  # F_i's entries (a, c, f_iac): i's entries, then their odd orders
        after = columns.take(rows[i] + steps, mode="wrap").astype(np.int64)  # next; previous
        return after.ravel(), after[::-1].ravel(), (f.take(rows[i], mode="wrap") * signs).ravel()

    def product_terms(left: tuple, right: tuple, sign: float) -> tuple:  # sign * F_left F_right
        (a, c, v), (c2, b, w) = left, right
        first, second = np.nonzero(c[:, None] == c2)  # the terms: inner indices match
        return a[first] * d + b[second], sign * v[first] * w[second]

    def deviation(i: int, j: int) -> float:  # the largest |entry| of the pair's residual
        f_i, f_j = row(i), row(j)
        js, ks, values = f_i
        ijk = js == j  # the triples (i, j, k): f_ijk != 0
        terms = [product_terms(f_i, f_j, 1.0), product_terms(f_j, f_i, -1.0)]
        for k, f_ijk in sorted(zip(ks[ijk].tolist(), values[ijk].tolist())):  # k ascending
            a, b, f_kab = row(k)
            terms.append((a * d + b, f_ijk * f_kab))
        keys, values = map(np.concatenate, zip(*terms))  # entry (a, b) as key a * d + b
        order = np.argsort(keys, kind="stable")
        keys, values = keys[order], values[order]
        starts = np.flatnonzero(np.diff(keys, prepend=-1))  # each entry's first term
        return float(np.abs(np.add.reduceat(values, starts)).max(initial=0.0))

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
