"""Brute-force structure constants from generator traces.

The commutation and anti-commutation relations of an orthonormal traceless
basis pin the constants down as traces:

    f_ijk = -(2i/hbar**3) Tr[[S_i, S_j] S_k]
    d_ijk =  (2/hbar**3)  Tr[{S_i, S_j} S_k]

This module evaluates them exactly that way, with one dense matrix product
and one trace per triple.  The only thing shared between triples is each
pair's (anti)commutator, formed once.  The pairs of one S_i are taken in runs
of consecutive S_j: a run's products with every S_k from its first S_j on go
into one stacked product, in one buffer reused by every run, and their traces
into one call, bit-identical to forming each triple's product and trace on its
own; the few with k below a pair's own j are discarded.  Both N = 8 tables
take 77-79 ms (best of 5, 2-core x86).  It is deliberately
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
from collections.abc import Iterable

import numpy as np

from .generators import AlgebraConfig, all_generators, make_generator
from .indexing import index_to_label
from .structure_constants import D_KIND, F_KIND, ConstantTable, _check_kind

DEFAULT_CEILING = 8
CEILING_ENV = "SUNLIE_ORACLE_CEILING"

# A run of pairs stops before its products pass this many bytes, about 4 d
# products at N = 8: few enough numpy calls a table that their overhead no
# longer outweighs the products, in one buffer that stays in cache.  Both N = 8
# tables took 93-97 ms at 128 KiB, 78-83 at 256 KiB, 82-83 at 512 KiB and
# 87-90 at 1 MiB (min of 7, 2-core x86).
_RUN_BYTES = 256 * 1024

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


def _run_budget(n_dim: int) -> int:
    """How many N x N complex products a run of pairs may hold."""
    return _RUN_BYTES // (16 * n_dim * n_dim)


def estimate_cost(n_dim: int, kind: str) -> tuple[int, float]:
    """Canonical triple count and a rough single-threaded runtime in seconds."""
    d = n_dim * n_dim - 1
    top = d - 2 if kind == F_KIND else d  # the most k a pair meets: i < j < k or i <= j <= k
    n_pairs, n_triples = math.comb(top + 1, 2), math.comb(top + 2, 3)
    # top + 1 - w pairs meet w canonical k each.  Those with w <= budget / 2
    # share runs of budget // w pairs, whose rectangle of products holds about
    # (run - 1) / 2 non-canonical ones a pair, and each row of i ends in a
    # part-filled run.
    runs, products = float(n_pairs), float(n_triples)
    budget = _run_budget(n_dim)
    for width in range(1, min(budget // 2, top) + 1):
        pairs, per_run = top + 1 - width, budget // width
        runs -= pairs * (1.0 - 1.0 / per_run)
        products += pairs * (min(per_run, width) - 1) / 2.0
    if budget >= 2:
        runs += d
    # Numpy call overhead dominates: about 80 us a run, 0.35 us a product and
    # 1e10 complex multiply-adds a second (2-core x86; f / d best of 3
    # measured 7.5 / 8.7 ms at N=6, 35.9 / 39.7 at N=8, 87.3 / 92.8 at N=9,
    # estimated 7.4 / 8.2, 37.0 / 40.0, 81.2 / 87.0; N=10 and 12 measured
    # 0.99 / 1.01 and 0.82 / 0.83 of the estimate).
    seconds = runs * 80e-6 + products * (0.35e-6 + n_dim**3 / 1e10)
    return n_triples, seconds


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
    strict = kind == F_KIND  # j > i and k > j for f, j >= i and k >= j for d
    budget = _run_budget(cfg.n_dim)
    # One buffer for every run; a run holds at least one j, which meets at most d k.
    buffer = np.empty((max(budget, cfg.dim), *gens.shape[1:]), dtype=gens.dtype)

    key_runs: list[np.ndarray] = []  # lexicographic, so canonical order is sorted order
    value_runs: list[np.ndarray] = []
    for i in range(1, cfg.dim + 1):
        lo, stop = i + strict, cfg.dim + 1 - strict  # f has no k > j at j = N**2 - 1
        while lo < stop:
            # Each j of the run [lo, hi) meets every k from lo + strict on: one
            # product and trace per (j, k), in one stacked product and one call.
            first = lo + strict
            width = cfg.dim + 1 - first
            hi = min(stop, lo + max(1, budget // width))
            products = buffer[: (hi - lo) * width].reshape(hi - lo, width, *gens.shape[1:])
            pairs = _pair(gens[i - 1], gens[lo - 1 : hi - 1], kind)
            np.matmul(pairs[:, None], gens[None, first - 1 :], out=products)
            traces = np.trace(products, axis1=2, axis2=3)
            # Only the canonical k >= j + strict count: the rest are zeroed, so
            # neither the residue check nor the threshold reads them.
            traces[np.arange(width) < np.arange(hi - lo)[:, None]] = 0
            batch = _scaled(traces, kind, cfg.hbar)
            hits = np.nonzero(np.abs(batch[None]) > ZERO_THRESHOLD)  # (0, j - lo, k - first)
            key_runs.append(np.stack(hits) + np.array([[i], [lo], [first]]))
            value_runs.append(batch[hits[1:]])
            lo = hi

    values = np.concatenate(value_runs)
    if values.size:
        floor = 1.0 / math.sqrt(2.0 * cfg.n_dim * (cfg.n_dim - 1))
        smallest = np.abs(values).min()
        if smallest < floor * (1.0 - 1e-9):
            raise OracleConsistencyError(
                f"included value {smallest:.3e} is below the magnitude floor "
                f"{floor:.3e}; threshold separation violated"
            )
    return ConstantTable(cfg.n_dim, kind, np.concatenate(key_runs, axis=1), values)
