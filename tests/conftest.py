import tracemalloc

import numpy as np

from sunlie.generators import all_generators
from sunlie.structure_constants import F_KIND, ConstantTable
from sunlie.trace_oracle import ZERO_THRESHOLD, _pair, _value, estimate_cost


def random_hermitian(rng, n_dim):
    """Hermitian matrix with Gaussian entries, rescaled to unit spectral radius."""
    a = rng.normal(size=(n_dim, n_dim)) + 1j * rng.normal(size=(n_dim, n_dim))
    h = 0.5 * (a + a.conj().T)
    return h / np.max(np.abs(np.linalg.eigvalsh(h)))


def traced_peak(fn, *args, **kwargs):
    """Call fn and return (result, tracemalloc peak in bytes above the memory in use at entry)."""
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        result = fn(*args, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - base


def random_state(rng, n_dim):
    """Normalized complex amplitude vector."""
    c = rng.normal(size=n_dim) + 1j * rng.normal(size=n_dim)
    return c / np.linalg.norm(c)


def per_triple_table(cfg, kind):
    """The trace oracle's table as the per-triple form gives it, no ceiling checked.

    Each pair's (anti)commutator is formed once, and each canonical triple
    takes its own trace: `_pair` once per pair, `_value` once per triple.
    """
    gens = all_generators(cfg)
    strict = kind == F_KIND
    keys, values = [], []
    for i in range(1, cfg.dim + 1):
        for j in range(i + strict, cfg.dim + 1):
            pair = _pair(gens[i - 1], gens[j - 1], kind)
            for k in range(j + strict, cfg.dim + 1):
                value = _value(pair, gens[k - 1], kind, cfg.hbar)
                if abs(value) > ZERO_THRESHOLD:
                    keys.append((i, j, k))
                    values.append(value)
    return ConstantTable(cfg.n_dim, kind, np.array(keys, dtype=np.int32).reshape(-1, 3).T,
                         np.array(values))


def summed_refusal(n_dim):
    """The cost text of an oracle refusal at N for the f and d tables together."""
    costs = [estimate_cost(n_dim, kind) for kind in ("f", "d")]
    triples, seconds = sum(n for n, _ in costs), sum(s for _, s in costs)
    return f"{triples:.3g} trace evaluations, roughly {seconds:.3g} s"
