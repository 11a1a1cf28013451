"""Brute-force structure constants from generator traces.

The commutation and anti-commutation relations of an orthonormal traceless
basis pin the constants down as traces:

    f_ijk = -(2i/hbar**3) Tr[[S_i, S_j] S_k]
    d_ijk =  (2/hbar**3)  Tr[{S_i, S_j} S_k]

This module evaluates them exactly that way, each trace as
Tr[P S_k] = sum_ab P_ab (S_k)_ba, N**2 multiply-adds with no N x N product.
The only thing shared between triples is each pair's (anti)commutator, formed
once.  The pairs of one S_i are contracted with every S_k in one call,
bit-identical to contracting each triple on its own; the traces with k below
a pair's own j are discarded (77,531 traces for the 39,711 f triples at
N = 8).  Both N = 8 tables take 21-23 ms (best of 7, 2-core x86).  It is
deliberately the slow, maximally dumb path: it knows nothing of the closed
forms, and its only job is to be trustworthy enough to verify the
closed-form tables against.  Enumerating all canonical triples costs O(N**6)
traces of O(N**2) multiply-adds, so a ceiling (default N = 8, overridable
through the SUNLIE_ORACLE_CEILING environment variable) guards against
accidentally launching an N = 64 run that would take days.
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterable

import numpy as np

from .generators import AlgebraConfig, all_generators, make_generator
from .indexing import index_to_label
from .structure_constants import D_KIND, F_KIND, ConstantTable, _check_kind

DEFAULT_CEILING = 8
CEILING_ENV = "SUNLIE_ORACLE_CEILING"

# Every true non-zero constant satisfies |value| >= 1/sqrt(2N(N-1)); the
# inclusion threshold sits orders of magnitude below that floor, so there is
# a clean gap between round-off and signal.
ZERO_THRESHOLD = 1e-10
_IMAG_TOL = 1e-12


class OracleConsistencyError(RuntimeError):
    """The oracle produced something it can prove is impossible."""


class OracleCostError(ValueError):
    """Refusal to start a run whose cost estimate is out of bounds."""


def _pair(gi: np.ndarray, gj: np.ndarray, kind: str) -> np.ndarray:
    """[S_i, S_j] for 'f', {S_i, S_j} for 'd'."""
    pair = gi @ gj  # the other product is taken in place: a row holds two, not three
    if kind == F_KIND:
        pair -= gj @ gi
    else:
        pair += gj @ gi
    return pair


def _scaled(traces: np.ndarray, kind: str, hbar: float) -> np.ndarray:
    """The constants from Tr[pair S_k] values, scaled as the definition above scales them."""
    values = -2j * traces if kind == F_KIND else 2.0 * traces
    values /= hbar**3  # in place, as for the pairs
    residue = np.abs(values.imag).max()
    if residue > _IMAG_TOL:
        raise OracleConsistencyError(
            f"trace expression has imaginary residue {residue:.3e}; "
            "the exact value is real"
        )
    return values.real


def _value(pair: np.ndarray, gk: np.ndarray, kind: str, hbar: float) -> float:
    """The constant from Tr[pair S_k] = sum_ab pair_ab (S_k)_ba for a single S_k."""
    return float(_scaled(np.einsum("ab,ab->", pair.T.copy(), gk), kind, hbar))


def _trace(cfg: AlgebraConfig, i: int, j: int, k: int, kind: str) -> float:
    gi, gj, gk = (
        make_generator(cfg, index_to_label(idx, cfg.n_dim)) for idx in (i, j, k)
    )
    return _value(_pair(gi, gj, kind), gk, kind, cfg.hbar)


def f_trace(cfg: AlgebraConfig, i: int, j: int, k: int) -> float:
    """f_ijk from the commutator trace; indices in 1..N**2-1, any order."""
    return _trace(cfg, i, j, k, F_KIND)


def d_trace(cfg: AlgebraConfig, i: int, j: int, k: int) -> float:
    """d_ijk from the anti-commutator trace; indices in 1..N**2-1, any order."""
    return _trace(cfg, i, j, k, D_KIND)


def resolve_ceiling() -> int:
    """SUNLIE_ORACLE_CEILING if it is set, else the default of 8."""
    env = os.environ.get(CEILING_ENV, str(DEFAULT_CEILING))
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"{CEILING_ENV} must be an integer, got {env!r}") from None


def estimate_cost(n_dim: int, kind: str) -> tuple[int, float]:
    """Canonical triple count and a rough single-threaded runtime in seconds."""
    d = n_dim * n_dim - 1
    top = d - 2 if kind == F_KIND else d  # the most k a pair meets: i < j < k or i <= j <= k
    # Row i holds m = top + 1 - i pairs by m k, canonical or not: one call for
    # the row and m**2 traces of N**2 multiply-adds.  About 40 us a row, 19 ns
    # a trace and 7.6e8 complex multiply-adds a second (2-core x86; f / d best
    # of 7 measured 2.3 / 2.5 ms at N=6, 11.0 / 11.4 at N=8, 23.0 / 24.2 at
    # N=9, 48.0 / 49.9 at N=10 and 194 / 205 at N=12, estimated 2.2 / 2.4,
    # 10.4 / 11.3, 23.3 / 25.0, 50.3 / 53.3 and 202 / 211).
    traces = top * (top + 1) * (2 * top + 1) // 6
    seconds = top * 40e-6 + traces * (19e-9 + n_dim**2 / 7.6e8)
    return math.comb(top + 2, 3), seconds


def check_ceiling(n_dim: int, kinds: Iterable[str]) -> None:
    """Raise OracleCostError if N is above the ceiling, with the ``kinds`` tables' summed cost."""
    limit = resolve_ceiling()
    if n_dim > limit:
        costs = [estimate_cost(n_dim, kind) for kind in kinds]
        n_triples, seconds = sum(n for n, _ in costs), sum(s for _, s in costs)
        raise OracleCostError(
            f"refusing brute-force run at N={n_dim} (ceiling {limit}): "
            f"{n_triples:.3g} trace evaluations, roughly {seconds:.3g} s "
            f"single-threaded; raise {CEILING_ENV} to override"
        )


def _row(gens: np.ndarray, i: int, kind: str, hbar: float) -> tuple[np.ndarray, np.ndarray]:
    """Keys and values of the canonical triples (i, j, k) above ZERO_THRESHOLD.

    One contraction of row i's pairs, transposed, with the generators gives
    the square of Tr[pair S_k] = sum_ab pair_ab (S_k)_ba over j from lo on
    and k from first on.  Only the canonical k >= j + strict count; the rest
    are zeroed, so neither the residue check nor the threshold reads them.
    """
    strict = kind == F_KIND  # j > i and k > j for f, j >= i and k >= j for d
    lo, first = i + strict, i + 2 * strict
    traces = np.einsum(
        "jab,kab->jk",
        _pair(gens[i - 1], gens[lo - 1 : len(gens) - strict], kind).transpose(0, 2, 1).copy(),
        gens[first - 1 :],
    )
    traces[np.tril_indices(len(traces), -1)] = 0
    row = _scaled(traces, kind, hbar)
    hits = np.nonzero(np.abs(row[None]) > ZERO_THRESHOLD)  # (0, j - lo, k - first)
    return np.stack(hits) + np.array([[i], [lo], [first]]), row[hits[1:]]


def full_oracle_table(cfg: AlgebraConfig, kind: str) -> ConstantTable:
    """Every canonical triple with |value| above ZERO_THRESHOLD, by brute force.

    Canonicalization matches the closed-form tables: strictly ascending
    indices for 'f' (anything with a repeated index vanishes identically),
    weakly ascending for 'd'.  Raises OracleCostError above the ceiling and
    OracleConsistencyError if any included value dips below the theoretical
    magnitude floor (which would mean round-off is bleeding into signal).
    """
    check_ceiling(cfg.n_dim, (_check_kind(kind),))
    gens = np.stack(all_generators(cfg))
    last = cfg.dim - 2 if kind == F_KIND else cfg.dim  # f has no j < k past i = N**2 - 3
    # Rows by ascending i, each lexicographic: canonical order is sorted order.
    rows = [_row(gens, i, kind, cfg.hbar) for i in range(1, last + 1)]
    values = np.concatenate([row_values for _, row_values in rows])
    if values.size:
        floor = 1.0 / math.sqrt(2.0 * cfg.n_dim * (cfg.n_dim - 1))
        smallest = np.abs(values).min()
        if smallest < floor * (1.0 - 1e-9):
            raise OracleConsistencyError(
                f"included value {smallest:.3e} is below the magnitude floor "
                f"{floor:.3e}; threshold separation violated"
            )
    keys = np.concatenate([row_keys for row_keys, _ in rows], axis=1)
    return ConstantTable(cfg.n_dim, kind, keys, values)
