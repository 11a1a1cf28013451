"""Brute-force structure constants from generator traces.

The commutation and anti-commutation relations of an orthonormal traceless
basis pin the constants down as traces:

    f_ijk = -(2i/hbar**3) Tr[[S_i, S_j] S_k]
    d_ijk =  (2/hbar**3)  Tr[{S_i, S_j} S_k]

This module evaluates them exactly that way, one triple at a time, with
dense matrix products and no shortcuts.  It is deliberately the slow,
maximally dumb path: its only job is to be trustworthy enough to verify
the closed-form tables against.  Enumerating all canonical triples costs
O(N**6) evaluations of O(N**3) products, so a ceiling (default N = 8,
overridable through the SUNLIE_ORACLE_CEILING environment variable) guards
against accidentally launching an N = 64 run that would take days.
"""

from __future__ import annotations

import math
import os
from itertools import combinations, combinations_with_replacement

import numpy as np

from .generators import AlgebraConfig, all_generators, make_generator
from .indexing import index_to_label
from .structure_constants import F_KIND, ConstantTable, _check_kind

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


def _real_part(trace_value: complex) -> float:
    if abs(trace_value.imag) > _IMAG_TOL:
        raise OracleConsistencyError(
            f"trace expression has imaginary residue {trace_value.imag:.3e}; "
            "the exact value is real"
        )
    return float(trace_value.real)


def _f_value(gi: np.ndarray, gj: np.ndarray, gk: np.ndarray, hbar: float) -> float:
    t = -2j * np.trace((gi @ gj - gj @ gi) @ gk) / hbar**3
    return _real_part(t)


def _d_value(gi: np.ndarray, gj: np.ndarray, gk: np.ndarray, hbar: float) -> float:
    t = 2.0 * np.trace((gi @ gj + gj @ gi) @ gk) / hbar**3
    return _real_part(t)


def f_trace(cfg: AlgebraConfig, i: int, j: int, k: int) -> float:
    """f_ijk from the commutator trace; indices in 1..N**2-1, any order."""
    gi, gj, gk = (
        make_generator(cfg, index_to_label(idx, cfg.n_dim)) for idx in (i, j, k)
    )
    return _f_value(gi, gj, gk, cfg.hbar)


def d_trace(cfg: AlgebraConfig, i: int, j: int, k: int) -> float:
    """d_ijk from the anti-commutator trace; indices in 1..N**2-1, any order."""
    gi, gj, gk = (
        make_generator(cfg, index_to_label(idx, cfg.n_dim)) for idx in (i, j, k)
    )
    return _d_value(gi, gj, gk, cfg.hbar)


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
    if kind == F_KIND:
        n_triples = d * (d - 1) * (d - 2) // 6
    else:
        n_triples = d * (d + 1) * (d + 2) // 6
    # Dominated by per-triple dispatch overhead until N gets large, then by
    # the three dense N x N products.
    seconds = n_triples * (1.5e-5 + 6.0 * n_dim**3 / 2.0e9)
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
    gens = all_generators(cfg)
    value_of = _f_value if kind == F_KIND else _d_value
    enumerate_canonical = combinations if kind == F_KIND else combinations_with_replacement

    keys: list[tuple[int, int, int]] = []  # canonical order is sorted order
    values: list[float] = []
    for i, j, k in enumerate_canonical(range(1, cfg.dim + 1), 3):
        value = value_of(gens[i - 1], gens[j - 1], gens[k - 1], cfg.hbar)
        if abs(value) > ZERO_THRESHOLD:
            keys.append((i, j, k))
            values.append(value)

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
