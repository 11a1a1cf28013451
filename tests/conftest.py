import tracemalloc

import numpy as np


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
