"""Brute-force structure constants from generator traces.

The commutation and anti-commutation relations of an orthonormal traceless
basis pin the constants down as traces:

    f_ijk = -(2i/hbar**3) Tr[[S_i, S_j] S_k]
    d_ijk =  (2/hbar**3)  Tr[{S_i, S_j} S_k]

This module evaluates them exactly that way, with one dense matrix product
and one trace per triple.  The only thing shared between triples is each
pair's (anti)commutator, formed once; its products with every S_k it meets
are taken in one stacked product and their traces in one call, bit-identical
to forming each triple's product and trace on its own.  It is deliberately
the slow, maximally dumb path: it knows nothing of the closed forms, and its
only job is to be trustworthy enough to verify the closed-form tables
against.  Enumerating all canonical triples costs O(N**6) evaluations of
O(N**3) products, so a ceiling (default N = 8, overridable through the
SUNLIE_ORACLE_CEILING environment variable) guards against accidentally
launching an N = 64 run that would take days.
"""

from __future__ import annotations

import math
import os

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
    return gi @ gj - gj @ gi if kind == F_KIND else gi @ gj + gj @ gi


def _scaled(traces: np.ndarray, kind: str, hbar: float) -> np.ndarray:
    """The constants from Tr[pair S_k] values, scaled as the definition above scales them."""
    values = -2j * traces / hbar**3 if kind == F_KIND else 2.0 * traces / hbar**3
    residue = np.abs(values.imag).max()
    if residue > _IMAG_TOL:
        raise OracleConsistencyError(
            f"trace expression has imaginary residue {residue:.3e}; "
            "the exact value is real"
        )
    return values.real


def _value(pair: np.ndarray, gk: np.ndarray, kind: str, hbar: float) -> float:
    """The constant from Tr[pair S_k] for a single S_k."""
    return float(_scaled((pair @ gk).trace(), kind, hbar))


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
    if kind == F_KIND:  # i < j < k, so j stops one short of d
        n_pairs, n_triples = math.comb(d - 1, 2), math.comb(d, 3)
    else:  # i <= j <= k
        n_pairs, n_triples = math.comb(d + 1, 2), math.comb(d + 2, 3)
    # A pair costs two products for its (anti)commutator and one stacked
    # product and trace call over its k.  Numpy call overhead dominates: about
    # 15 us a pair, 0.3 us a triple and 2e9 complex multiply-adds a second
    # (2-core x86; f / d best of 3 measured 12.0 / 13.7 ms at N=6, 47.8 / 51.7
    # at N=8, 96 / 114 at N=9, estimated 11.2 / 12.8, 51.4 / 55.6, 103 / 110).
    product = n_dim**3 / 2.0e9
    seconds = n_triples * (0.3e-6 + product) + n_pairs * (15e-6 + 2.0 * product)
    return n_triples, seconds


def check_ceiling(n_dim: int, kind: str) -> None:
    """Raise OracleCostError, with the cost estimate for ``kind``, if N is above the ceiling."""
    limit = resolve_ceiling()
    if n_dim > limit:
        n_triples, seconds = estimate_cost(n_dim, kind)
        raise OracleCostError(
            f"refusing brute-force run at N={n_dim} (ceiling {limit}): "
            f"{n_triples:.3g} trace evaluations, roughly {seconds:.3g} s "
            f"single-threaded; raise {CEILING_ENV} to override"
        )


def full_oracle_table(cfg: AlgebraConfig, kind: str) -> ConstantTable:
    """Every canonical triple with |value| above ZERO_THRESHOLD, by brute force.

    Canonicalization matches the closed-form tables: strictly ascending
    indices for 'f' (anything with a repeated index vanishes identically),
    weakly ascending for 'd'.  Raises OracleCostError above the ceiling and
    OracleConsistencyError if any included value dips below the theoretical
    magnitude floor (which would mean round-off is bleeding into signal).
    """
    check_ceiling(cfg.n_dim, _check_kind(kind))
    gens = np.stack(all_generators(cfg))
    strict = kind == F_KIND  # j > i and k > j for f, j >= i and k >= j for d

    keys: list[tuple[int, int, int]] = []  # lexicographic, so canonical order is sorted order
    values: list[float] = []
    for i in range(1, cfg.dim + 1):
        for j in range(i + strict, cfg.dim + 1 - strict):  # f has no k > j at j = N**2 - 1
            pair = _pair(gens[i - 1], gens[j - 1], kind)
            # One product and one trace per canonical k, in one stacked product and one call.
            first = j + strict
            batch = _scaled(np.trace(pair @ gens[first - 1:], axis1=1, axis2=2), kind, cfg.hbar)
            hits = np.flatnonzero(np.abs(batch) > ZERO_THRESHOLD)
            keys.extend((i, j, first + at) for at in hits.tolist())
            values.extend(batch[hits].tolist())

    if values:
        floor = 1.0 / math.sqrt(2.0 * cfg.n_dim * (cfg.n_dim - 1))
        smallest = min(map(abs, values))
        if smallest < floor * (1.0 - 1e-9):
            raise OracleConsistencyError(
                f"included value {smallest:.3e} is below the magnitude floor "
                f"{floor:.3e}; threshold separation violated"
            )
    return ConstantTable(
        cfg.n_dim, kind, np.array(keys, dtype=np.int32).reshape(-1, 3).T, np.array(values)
    )
