"""Closed-form sparse tables of the su(N) structure constants.

The anti-symmetric constants f_ijk ([S_i, S_j] = i hbar sum_k f_ijk S_k) and
the symmetric constants d_ijk ({S_i, S_j} = (hbar**2/N) d_ij I
+ hbar sum_k d_ijk S_k) of the generalized Gell-Mann basis vanish except on
a handful of label patterns.  Writing S_nm / A_nm for the off-diagonal pairs
(1 <= m < n <= N) and D_n for the Cartan generators (2 <= n <= N), the
complete non-zero content is:

anti-symmetric, for coordinates m < p < q:

    f(S_pm, S_qp, A_qm) = f(S_qm, S_qp, A_pm) = f(S_pm, S_qm, A_qp) = 1/2
    f(A_pm, A_qm, A_qp) = 1/2
    f(S_qm, A_qm, D_p)  = 1/sqrt(2p(p-1))

and for pairs m < n:

    f(S_nm, A_nm, D_n)  = sqrt(n/(2(n-1)))
    f(S_nm, A_nm, D_m)  = -sqrt((m-1)/(2m))          (m >= 2; zero at m = 1)

symmetric, for coordinates m < p < q:

    d(S_pm, S_qp, S_qm) = d(S_pm, A_qp, A_qm) = d(S_qp, A_pm, A_qm) = 1/2
    d(S_qm, A_qp, A_pm) = -1/2
    d(X_qm, X_qm, D_p)  = 1/sqrt(2p(p-1))             (X in {S, A})
    d(X_pm, X_pm, D_q)  = sqrt(2/(q(q-1)))

and for pairs m < n and Cartan coordinates k < n:

    d(X_nm, X_nm, D_m)  = -sqrt((m-1)/(2m))           (m >= 2)
    d(X_nm, X_nm, D_n)  = (2-n)/sqrt(2n(n-1))         (zero at n = 2)
    d(D_n, D_k, D_k)    = sqrt(2/(n(n-1)))            (k >= 2)
    d(D_n, D_n, D_n)    = (2-n) sqrt(2/(n(n-1)))      (zero at n = 2)

Each instance above is stored once under its canonical key: indices sorted
ascending, strictly for f (repeated indices vanish by anti-symmetry), weakly
for d.  The stored f value belongs to the ascending order; `lookup` restores
the sign for any other ordering.  Exactly-zero family instances (the m = 1
and n = 2 cases flagged above) are omitted: the table stores non-zeros only.

Enumerating the patterns costs O(N**3) against the O(N**9) of computing every
generator trace, which is what makes the N = 64 table a subsecond object
instead of an overnight batch job.  Each family is a closed form in its
coordinates alone, so the builders evaluate it over all of them at once.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .indexing import antisymmetric_index, check_dimension, diagonal_index, symmetric_index

F_KIND = "f"
D_KIND = "d"

# All closed-form magnitudes lie in (0, sqrt(2)]; used as a sanity band.
MAX_MAGNITUDE = math.sqrt(2.0)

# Sorting packs a key (i, j, k) into one int64 as (i N**2 + j) N**2 + k, which
# holds while N**6 <= 2**63; an f table at this N has ~2.5e9 entries.
MAX_TABLE_N = 1448


@dataclass(frozen=True)
class ConstantTriple:
    """One canonical non-zero structure constant."""

    kind: str
    i: int
    j: int
    k: int
    value: float


class ConstantTable:
    """Complete sparse set of canonical non-zero constants for one N and kind.

    Immutable once constructed.  The table is a read-only (3, count) array of
    0-based canonical index triples in lexicographic order and the matching
    value array.  `lookup` resolves an arbitrary index order through the
    permutation symmetry (sign-flipping for f, invariant for d) and returns
    0.0 for any triple not stored.
    """

    __slots__ = ("n_dim", "kind", "_index", "_values", "_mapping")

    def __init__(self, n_dim: int, kind: str, entries: dict[tuple[int, int, int], float]):
        keys = np.array(list(entries), dtype=np.int64).reshape(len(entries), 3).T
        values = np.fromiter(entries.values(), dtype=np.float64, count=len(entries))
        self._set_arrays(n_dim, kind, keys, values)

    @classmethod
    def _from_arrays(
        cls, n_dim: int, kind: str, keys: np.ndarray, values: np.ndarray
    ) -> ConstantTable:
        """Table from 1-based (3, count) keys and their values, in any column order."""
        table = cls.__new__(cls)
        table._set_arrays(n_dim, kind, keys, values)
        return table

    def _set_arrays(self, n_dim: int, kind: str, keys: np.ndarray, values: np.ndarray) -> None:
        """Sort 1-based (3, count) keys and their values into key order, check
        them and keep them 0-based and read-only.  Out-of-range keys may pack
        out of order, but they are rejected before the order matters.
        """
        _check_table_dimension(n_dim)
        if kind not in (F_KIND, D_KIND):
            raise ValueError(f"kind must be '{F_KIND}' or '{D_KIND}', got {kind!r}")
        top = n_dim * n_dim - 1
        keys, values = np.asarray(keys, dtype=np.int64), np.asarray(values, dtype=np.float64)
        packed = (keys[0] * (top + 1) + keys[1]) * (top + 1) + keys[2]
        order = np.argsort(packed, kind="stable")
        packed, keys, values = packed[order], np.take(keys, order, axis=1), values[order]
        i, j, k = keys
        ordered = (i < j) & (j < k) if kind == F_KIND else (i <= j) & (j <= k)
        # NaN fails every comparison, so the band also rejects non-finite values.
        in_band = (values != 0.0) & (np.abs(values) <= MAX_MAGNITUDE + 1e-9)
        for bad, error, problem in (
            (((keys < 1) | (keys > top)).any(axis=0), ValueError, f"has an index outside 1..{top}"),
            (~ordered, ValueError, f"is not canonical for kind {kind}"),
            # Duplicate canonical keys can only come from a family-range bug; fail hard.
            (np.diff(packed, prepend=-1) == 0, RuntimeError, "is a duplicate: enumeration bug"),
            (~in_band, ValueError, "is outside the band (0, sqrt(2)]"),
        ):
            rows = np.flatnonzero(bad)
            if rows.size:
                i, j, k = keys[:, rows[0]].tolist()
                raise error(f"triple {(i, j, k)} = {float(values[rows[0]])!r} {problem}")
        keys -= 1
        keys.flags.writeable = False
        values.flags.writeable = False
        self.n_dim = n_dim
        self.kind = kind
        self._index = keys
        self._values = values
        self._mapping: dict[tuple[int, int, int], float] | None = None

    def __len__(self) -> int:
        return self._values.size

    def __iter__(self) -> Iterator[ConstantTriple]:
        return iter(self.triples())

    def triples(self) -> list[ConstantTriple]:
        """Canonical triples in lexicographic (i, j, k) order."""
        i, j, k = (self._index + 1).tolist()
        return [ConstantTriple(self.kind, *t) for t in zip(i, j, k, self._values.tolist())]

    def _entries(self) -> dict[tuple[int, int, int], float]:
        # Built on first use: only lookup and as_dict need a keyed mapping.
        if self._mapping is None:
            i, j, k = (self._index + 1).tolist()
            self._mapping = dict(zip(zip(i, j, k), self._values.tolist()))
        return self._mapping

    def as_dict(self) -> dict[tuple[int, int, int], float]:
        """Copy of the canonical key -> value mapping."""
        return dict(self._entries())

    def lookup(self, i: int, j: int, k: int) -> float:
        """Constant for an arbitrary index order; 0.0 if absent from the table."""
        top = self.n_dim * self.n_dim - 1
        for idx in (i, j, k):
            if not 1 <= idx <= top:
                raise ValueError(f"index {idx} outside 1..{top} for N={self.n_dim}")
        sign = 1.0
        if i > j:
            i, j, sign = j, i, -sign
        if j > k:
            j, k, sign = k, j, -sign
        if i > j:
            i, j, sign = j, i, -sign
        if self.kind == D_KIND:
            return self._entries().get((i, j, k), 0.0)
        if i == j or j == k:
            return 0.0
        return sign * self._entries().get((i, j, k), 0.0)

    def stats(self) -> tuple[int, str]:
        """Triple count and an order-independent content digest (16 hex chars)."""
        text = f"{self.kind},{self.n_dim}\n" + self.rows()
        return len(self), hashlib.sha256(text.encode()).hexdigest()[:16]

    def rows(self, prefix: str = "") -> str:
        """One line ``prefix`` + 'i,j,k,repr(value)' per canonical triple, in order.

        Only O(N) values are distinct, so each is formatted once.  Fields are
        gathered from tables of NUL-padded byte strings; dropping the NULs joins them.
        """
        labels = np.array([f"{x}," for x in range(1, self.n_dim * self.n_dim)], dtype=bytes)
        distinct = np.unique(self._values)
        text = np.array([f"{v!r}\n" for v in distinct.tolist()], dtype=bytes)
        i, j, k = self._index
        fields = (
            np.char.add(prefix.encode(), labels)[i],
            labels[j],
            labels[k],
            text[np.searchsorted(distinct, self._values)],
        )
        lines = np.hstack([f.view(np.uint8).reshape(len(self), f.itemsize) for f in fields])
        return lines[lines != 0].tobytes().decode()

    def contraction_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Canonical triples as parallel arrays (a, b, c, value), 0-based.

        These are read-only views of the table itself, shared by every
        caller; they back the vectorized contractions in the dynamics layer.
        """
        a, b, c = self._index
        return a, b, c, self._values


def _check_table_dimension(n_dim: int) -> None:
    check_dimension(n_dim)
    if n_dim > MAX_TABLE_N:
        raise ValueError(f"N={n_dim} is beyond the largest table dimension {MAX_TABLE_N}")


def _signed_permutations(
    table: ConstantTable,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every ordered index triple of an f table: parallel arrays (i, j, k, f_ijk), 0-based.

    Each canonical (a, b, c, v) appears in its six orders, odd orders with -v,
    which is the whole of f by total anti-symmetry.  The arrays hold one
    block per order, each block in canonical-triple order; accumulations
    over them sum in that fixed order, so their results are reproducible to
    the bit.  Every f contraction starts here, so this is where a d table
    is refused.
    """
    if table.kind != F_KIND:
        raise ValueError(f"f contractions need an '{F_KIND}' table, got '{table.kind}'")
    a, b, c, v = table.contraction_arrays()
    return (
        np.concatenate((a, a, b, b, c, c)),
        np.concatenate((b, c, c, a, a, b)),
        np.concatenate((c, b, a, c, b, a)),
        np.concatenate((v, -v, v, -v, v, -v)),
    )


def _coordinates(n_dim: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """1-based coordinate arrays of every pair m < n and every triple m < p < q."""
    below = np.less.outer(np.arange(n_dim), np.arange(n_dim))
    pairs = [axis + 1 for axis in np.nonzero(below)]
    triples = [axis + 1 for axis in np.nonzero(below[:, :, None] & below[None, :, :])]
    return pairs, triples


def build_f_table(n_dim: int) -> ConstantTable:
    """Enumerate every non-zero anti-symmetric constant f_ijk for su(n_dim).

    Families are emitted in their docstring order, then each triple is sorted
    (the middle index is the sum less the two ends); the parity of that sort
    is the sign of the product of the pairwise index differences.
    """
    _check_table_dimension(n_dim)
    (m, n), (m3, p, q) = _coordinates(n_dim)
    s_nm, a_nm = symmetric_index(n, m), antisymmetric_index(n, m)
    s_pm, a_pm = symmetric_index(p, m3), antisymmetric_index(p, m3)
    s_qm, a_qm = symmetric_index(q, m3), antisymmetric_index(q, m3)
    s_qp, a_qp = symmetric_index(q, p), antisymmetric_index(q, p)
    low = m >= 2  # the D_m family is zero at m = 1, omitted
    half = np.full(m3.size, 0.5)
    i, j, k, values = (np.concatenate(part) for part in zip(
        (s_nm, a_nm, diagonal_index(n), np.sqrt(n / (2.0 * (n - 1)))),
        (s_nm[low], a_nm[low], diagonal_index(m[low]), -np.sqrt((m[low] - 1) / (2.0 * m[low]))),
        (s_pm, s_qp, a_qm, half),
        (s_qm, s_qp, a_pm, half),
        (s_pm, s_qm, a_qp, half),
        (a_pm, a_qm, a_qp, half),
        (s_qm, a_qm, diagonal_index(p), np.sqrt(1.0 / (2.0 * p * (p - 1)))),
    ))
    keys = np.stack((i, j, k))
    sign = np.sign(j - i) * np.sign(k - i) * np.sign(k - j)
    first, last = keys.min(axis=0), keys.max(axis=0)
    ordered = np.stack((first, keys.sum(axis=0) - first - last, last))
    return ConstantTable._from_arrays(n_dim, F_KIND, ordered, sign * values)


def build_d_table(n_dim: int) -> ConstantTable:
    """Enumerate every non-zero symmetric constant d_ijk for su(n_dim).

    Every family is written in canonical ascending order: block-p indices
    precede block-q indices, and inside block q the bottom coordinate orders
    the pairs (s_qm < a_qm < s_qp < a_qp for m < p).
    """
    _check_table_dimension(n_dim)
    (m, n), (m3, p, q) = _coordinates(n_dim)
    s_nm, a_nm, d_n = symmetric_index(n, m), antisymmetric_index(n, m), diagonal_index(n)
    s_pm, a_pm = symmetric_index(p, m3), antisymmetric_index(p, m3)
    s_qm, a_qm = symmetric_index(q, m3), antisymmetric_index(q, m3)
    s_qp, a_qp = symmetric_index(q, p), antisymmetric_index(q, p)
    d_p, d_q = diagonal_index(p), diagonal_index(q)
    top = n >= 3  # the D_n families are zero at n = 2, omitted
    low = m >= 2  # the D_m families are zero at m = 1, omitted
    v_top = (2 - n[top]) / np.sqrt(2.0 * n[top] * (n[top] - 1))
    v_low = -np.sqrt((m[low] - 1) / (2.0 * m[low]))
    d_m = diagonal_index(m[low])
    cartan = np.arange(3, n_dim + 1)
    d_cartan = diagonal_index(cartan)
    half = np.full(m3.size, 0.5)
    v_mid = np.sqrt(1.0 / (2.0 * p * (p - 1)))
    v_above = np.sqrt(2.0 / (q * (q - 1)))
    i, j, k, values = (np.concatenate(part) for part in zip(
        (s_nm[top], s_nm[top], d_n[top], v_top),
        (a_nm[top], a_nm[top], d_n[top], v_top),
        (d_m, s_nm[low], s_nm[low], v_low),
        (d_m, a_nm[low], a_nm[low], v_low),
        (d_m, d_m, d_n[low], np.sqrt(2.0 / (n[low] * (n[low] - 1)))),
        (d_cartan, d_cartan, d_cartan, (2 - cartan) * np.sqrt(2.0 / (cartan * (cartan - 1)))),
        (s_pm, s_qm, s_qp, half),
        (s_pm, a_qm, a_qp, half),
        (a_pm, a_qm, s_qp, half),
        (a_pm, s_qm, a_qp, -half),
        (d_p, s_qm, s_qm, v_mid),
        (d_p, a_qm, a_qm, v_mid),
        (s_pm, s_pm, d_q, v_above),
        (a_pm, a_pm, d_q, v_above),
    ))
    return ConstantTable._from_arrays(n_dim, D_KIND, np.stack((i, j, k)), values)
