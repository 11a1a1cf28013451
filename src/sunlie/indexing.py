"""Linear indexing of the generalized Gell-Mann basis of su(N).

The N**2 - 1 generators are numbered so that the su(N-1) basis is a prefix
of the su(N) basis.  For each top coordinate n = 2..N the index block
[(n-1)**2, n**2 - 1] holds the off-diagonal pairs S_n1, A_n1, ...,
S_n,n-1, A_n,n-1 followed by the Cartan generator D_n.  For N = 2 this is
the Pauli order (sigma_1, sigma_2, sigma_3); for N = 3 the Gell-Mann order
(lambda_1 .. lambda_8).

Closed forms of the map (1-based everywhere):

    S_nm -> n**2 + 2*(m - n) - 1
    A_nm -> n**2 + 2*(m - n)
    D_n  -> n**2 - 1

`symmetric_index`, `antisymmetric_index` and `diagonal_index` are the one
place these forms are written; they take Python ints or integer numpy
arrays alike.  The inverse is pure block arithmetic (integer square root),
so it stays O(1) for arbitrarily large N.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import Iterator

SYMMETRIC = "S"
ANTISYMMETRIC = "A"
DIAGONAL = "D"

_KINDS = (SYMMETRIC, ANTISYMMETRIC, DIAGONAL)


def check_dimension(n_dim: int) -> None:
    """Raise ValueError unless n_dim is an integer N >= 2."""
    if not isinstance(n_dim, int) or isinstance(n_dim, bool) or n_dim < 2:
        raise ValueError(f"N must be >= 2, got {n_dim!r}")


@dataclass(frozen=True)
class GeneratorLabel:
    """Typed identity of one basis generator.

    Kinds "S" and "A" carry a coordinate pair 1 <= m < n (the symmetric and
    anti-symmetric generators supported on coordinates m and n).  Kind "D"
    carries only the top coordinate n >= 2 of a Cartan generator; m is
    unused and fixed to 0.  D_1 does not exist: its normalization
    1/sqrt(2n(n-1)) is singular at n = 1.
    """

    kind: str
    n: int
    m: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if self.kind == DIAGONAL:
            if self.n < 2:
                raise ValueError(f"diagonal label needs n >= 2, got n={self.n}")
            if self.m != 0:
                raise ValueError("diagonal label takes no second coordinate")
        else:
            if self.m < 1:
                raise ValueError(f"need m >= 1, got m={self.m}")
            if self.m >= self.n:
                raise ValueError(f"need m < n, got n={self.n}, m={self.m}")

    def __str__(self) -> str:
        if self.kind == DIAGONAL:
            return f"D_{self.n}"
        return f"{self.kind}_{self.n},{self.m}"


def symmetric(n: int, m: int) -> GeneratorLabel:
    return GeneratorLabel(SYMMETRIC, n, m)


def antisymmetric(n: int, m: int) -> GeneratorLabel:
    return GeneratorLabel(ANTISYMMETRIC, n, m)


def diagonal(n: int) -> GeneratorLabel:
    return GeneratorLabel(DIAGONAL, n)


def symmetric_index(n, m):
    """1-based index of S_nm (m < n); n and m may be integer arrays."""
    return n * n + 2 * (m - n) - 1


def antisymmetric_index(n, m):
    """1-based index of A_nm (m < n); n and m may be integer arrays."""
    return symmetric_index(n, m) + 1


def diagonal_index(n):
    """1-based index of D_n (n >= 2); n may be an integer array."""
    return n * n - 1


def label_to_index(label: GeneratorLabel, n_dim: int) -> int:
    """Map a label to its linear index in 1..N**2-1 for the given N."""
    check_dimension(n_dim)
    if label.n > n_dim:
        raise ValueError(f"label {label} has top coordinate beyond N={n_dim}")
    if label.kind == SYMMETRIC:
        return symmetric_index(label.n, label.m)
    if label.kind == ANTISYMMETRIC:
        return antisymmetric_index(label.n, label.m)
    return diagonal_index(label.n)


def index_to_label(i: int, n_dim: int) -> GeneratorLabel:
    """Invert label_to_index.

    The top coordinate is recovered as n = isqrt(i) + 1, which places i in
    the block [(n-1)**2, n**2 - 1]; the offset inside the block then gives
    the kind (even offsets are symmetric, odd anti-symmetric, the last one
    diagonal) and the bottom coordinate.
    """
    check_dimension(n_dim)
    top = n_dim * n_dim - 1
    if not isinstance(i, int) or isinstance(i, bool) or not 1 <= i <= top:
        raise ValueError(f"index must be in 1..{top} for N={n_dim}, got {i!r}")
    n = isqrt(i) + 1
    offset = i - (n - 1) * (n - 1)
    if offset == 2 * n - 2:
        return GeneratorLabel(DIAGONAL, n)
    if offset % 2 == 0:
        return GeneratorLabel(SYMMETRIC, n, offset // 2 + 1)
    return GeneratorLabel(ANTISYMMETRIC, n, (offset + 1) // 2)


def all_labels(n_dim: int) -> Iterator[GeneratorLabel]:
    """Yield every label for su(n_dim) in linear-index order (index 1 first)."""
    check_dimension(n_dim)
    for i in range(1, n_dim * n_dim):
        yield index_to_label(i, n_dim)
