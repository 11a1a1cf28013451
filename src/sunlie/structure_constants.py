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
instead of an overnight batch job.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .indexing import check_dimension

F_KIND = "f"
D_KIND = "d"

# All closed-form magnitudes lie in (0, sqrt(2)]; used as a sanity band.
MAX_MAGNITUDE = math.sqrt(2.0)


@dataclass(frozen=True)
class ConstantTriple:
    """One canonical non-zero structure constant."""

    kind: str
    i: int
    j: int
    k: int
    value: float


def _sort3_signed(i: int, j: int, k: int) -> tuple[tuple[int, int, int], float]:
    """Ascending order of three distinct indices and the permutation parity."""
    sign = 1.0
    if i > j:
        i, j = j, i
        sign = -sign
    if j > k:
        j, k = k, j
        sign = -sign
    if i > j:
        i, j = j, i
        sign = -sign
    return (i, j, k), sign


class ConstantTable:
    """Complete sparse set of canonical non-zero constants for one N and kind.

    Immutable once constructed.  Keys are canonical index triples; `lookup`
    resolves an arbitrary index order through the permutation symmetry
    (sign-flipping for f, invariant for d) and returns 0.0 for any triple
    not stored.
    """

    __slots__ = ("n_dim", "kind", "_entries", "_keys", "_arrays")

    def __init__(self, n_dim: int, kind: str, entries: dict[tuple[int, int, int], float]):
        check_dimension(n_dim)
        if kind not in (F_KIND, D_KIND):
            raise ValueError(f"kind must be '{F_KIND}' or '{D_KIND}', got {kind!r}")
        self.n_dim = n_dim
        self.kind = kind
        self._entries = dict(entries)
        self._keys = sorted(self._entries)
        self._arrays: tuple[np.ndarray, ...] | None = None
        self._validate()

    def _validate(self) -> None:
        top = self.n_dim * self.n_dim - 1
        strict = self.kind == F_KIND
        for (i, j, k) in self._keys:
            if not (1 <= i and k <= top):
                raise ValueError(f"triple {(i, j, k)} outside 1..{top}")
            ordered = i < j < k if strict else i <= j <= k
            if not ordered:
                raise ValueError(f"triple {(i, j, k)} is not canonical for kind {self.kind}")
            value = self._entries[(i, j, k)]
            if not value or not math.isfinite(value) or abs(value) > MAX_MAGNITUDE + 1e-9:
                raise ValueError(f"triple {(i, j, k)} has out-of-band value {value}")

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[ConstantTriple]:
        return iter(self.triples())

    def triples(self) -> list[ConstantTriple]:
        """Canonical triples in lexicographic (i, j, k) order."""
        return [
            ConstantTriple(self.kind, i, j, k, self._entries[(i, j, k)])
            for (i, j, k) in self._keys
        ]

    def as_dict(self) -> dict[tuple[int, int, int], float]:
        """Copy of the canonical key -> value mapping."""
        return dict(self._entries)

    def lookup(self, i: int, j: int, k: int) -> float:
        """Constant for an arbitrary index order; 0.0 if absent from the table."""
        top = self.n_dim * self.n_dim - 1
        for idx in (i, j, k):
            if not 1 <= idx <= top:
                raise ValueError(f"index {idx} outside 1..{top} for N={self.n_dim}")
        if self.kind == F_KIND:
            if i == j or j == k or i == k:
                return 0.0
            key, sign = _sort3_signed(i, j, k)
            return sign * self._entries.get(key, 0.0)
        if i > j:
            i, j = j, i
        if j > k:
            j, k = k, j
        if i > j:
            i, j = j, i
        return self._entries.get((i, j, k), 0.0)

    def stats(self) -> tuple[int, str]:
        """Triple count and an order-independent content digest (16 hex chars)."""
        digest = hashlib.sha256()
        digest.update(f"{self.kind},{self.n_dim}\n".encode())
        for (i, j, k) in self._keys:
            digest.update(f"{i},{j},{k},{self._entries[(i, j, k)]!r}\n".encode())
        return len(self._entries), digest.hexdigest()[:16]

    def contraction_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Canonical triples as parallel arrays (a, b, c, value), 0-based, cached.

        The cached arrays are read-only views shared by every caller; they
        back the vectorized contractions in the dynamics layer.
        """
        if self._arrays is None:
            count = len(self._keys)
            flat = np.fromiter(
                (x for key in self._keys for x in key), dtype=np.int64, count=3 * count
            ).reshape(-1, 3)
            values = np.fromiter(
                (self._entries[key] for key in self._keys), dtype=np.float64, count=count
            )
            a, b, c = flat[:, 0] - 1, flat[:, 1] - 1, flat[:, 2] - 1
            for arr in (a, b, c, values):
                arr.flags.writeable = False
            self._arrays = (a, b, c, values)
        return self._arrays


def _signed_permutations(
    table: ConstantTable,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Every ordered index triple of an f table: parallel arrays (i, j, k, f_ijk), 0-based.

    Each canonical (a, b, c, v) appears in its six orders, odd orders with -v,
    which is the whole of f by total anti-symmetry.  The arrays hold one
    block per order, each block in canonical-triple order; accumulations
    over them sum in that fixed order, so their results are reproducible to
    the bit.
    """
    a, b, c, v = table.contraction_arrays()
    return (
        np.concatenate((a, a, b, b, c, c)),
        np.concatenate((b, c, c, a, a, b)),
        np.concatenate((c, b, a, c, b, a)),
        np.concatenate((v, -v, v, -v, v, -v)),
    )


def _insert(
    entries: dict[tuple[int, int, int], float],
    key: tuple[int, int, int],
    value: float,
) -> None:
    # Duplicate canonical keys can only come from a family-range bug; fail hard.
    if key in entries:
        raise RuntimeError(f"duplicate canonical triple {key}: family enumeration bug")
    entries[key] = value


def build_f_table(n_dim: int) -> ConstantTable:
    """Enumerate every non-zero anti-symmetric constant f_ijk for su(n_dim).

    Indices inside each family instance are emitted in a known relative
    order, so canonicalization reduces to a hard-coded 3-sort with parity.
    """
    check_dimension(n_dim)
    entries: dict[tuple[int, int, int], float] = {}

    # Pair families: both constants live on (S_nm, A_nm, D_*).
    for n in range(2, n_dim + 1):
        n2 = n * n
        d_n = n2 - 1
        v_top = math.sqrt(n / (2.0 * (n - 1)))
        for m in range(1, n):
            s_nm = n2 + 2 * (m - n) - 1
            a_nm = s_nm + 1
            # s_nm < a_nm < d_n: already canonical.
            _insert(entries, (s_nm, a_nm, d_n), v_top)
            if m >= 2:
                d_m = m * m - 1
                # d_m < s_nm < a_nm after one rotation: even permutation.
                _insert(entries, (d_m, s_nm, a_nm), -math.sqrt((m - 1) / (2.0 * m)))

    # Triple families over coordinates m < p < q.
    for q in range(3, n_dim + 1):
        q2 = q * q
        for p in range(2, q):
            p2 = p * p
            d_p = p2 - 1
            v_mid = math.sqrt(1.0 / (2.0 * p * (p - 1)))
            for m in range(1, p):
                s_pm = p2 + 2 * (m - p) - 1
                a_pm = s_pm + 1
                s_qm = q2 + 2 * (m - q) - 1
                a_qm = s_qm + 1
                s_qp = q2 + 2 * (p - q) - 1
                a_qp = s_qp + 1
                # Emitted orders below are not canonical; sort with parity.
                for (i, j, k), value in (
                    ((s_pm, s_qp, a_qm), 0.5),
                    ((s_qm, s_qp, a_pm), 0.5),
                    ((s_pm, s_qm, a_qp), 0.5),
                    ((a_pm, a_qm, a_qp), 0.5),
                    ((s_qm, a_qm, d_p), v_mid),
                ):
                    key, sign = _sort3_signed(i, j, k)
                    _insert(entries, key, sign * value)

    return ConstantTable(n_dim, F_KIND, entries)


def build_d_table(n_dim: int) -> ConstantTable:
    """Enumerate every non-zero symmetric constant d_ijk for su(n_dim)."""
    check_dimension(n_dim)
    entries: dict[tuple[int, int, int], float] = {}

    # Pair and Cartan families.
    for n in range(2, n_dim + 1):
        n2 = n * n
        d_n = n2 - 1
        v_top = (2 - n) / math.sqrt(2.0 * n * (n - 1))
        for m in range(1, n):
            s_nm = n2 + 2 * (m - n) - 1
            a_nm = s_nm + 1
            if n >= 3:  # zero at n = 2, omitted
                _insert(entries, (s_nm, s_nm, d_n), v_top)
                _insert(entries, (a_nm, a_nm, d_n), v_top)
            if m >= 2:  # zero at m = 1, omitted
                d_m = m * m - 1
                v_bot = -math.sqrt((m - 1) / (2.0 * m))
                _insert(entries, (d_m, s_nm, s_nm), v_bot)
                _insert(entries, (d_m, a_nm, a_nm), v_bot)
        if n >= 3:
            v_cartan = math.sqrt(2.0 / (n * (n - 1)))
            for k in range(2, n):
                d_k = k * k - 1
                _insert(entries, (d_k, d_k, d_n), v_cartan)
            _insert(entries, (d_n, d_n, d_n), (2 - n) * v_cartan)

    # Triple families over coordinates m < p < q.  All keys below are written
    # directly in canonical ascending order: block-p indices precede block-q
    # indices, and inside block q the bottom coordinate orders the pairs
    # (s_qm < a_qm < s_qp < a_qp for m < p).
    for q in range(3, n_dim + 1):
        q2 = q * q
        d_q = q2 - 1
        v_above = math.sqrt(2.0 / (q * (q - 1)))
        for p in range(2, q):
            p2 = p * p
            d_p = p2 - 1
            v_mid = math.sqrt(1.0 / (2.0 * p * (p - 1)))
            for m in range(1, p):
                s_pm = p2 + 2 * (m - p) - 1
                a_pm = s_pm + 1
                s_qm = q2 + 2 * (m - q) - 1
                a_qm = s_qm + 1
                s_qp = q2 + 2 * (p - q) - 1
                a_qp = s_qp + 1
                _insert(entries, (s_pm, s_qm, s_qp), 0.5)
                _insert(entries, (s_pm, a_qm, a_qp), 0.5)
                _insert(entries, (a_pm, a_qm, s_qp), 0.5)
                _insert(entries, (a_pm, s_qm, a_qp), -0.5)
                _insert(entries, (d_p, s_qm, s_qm), v_mid)
                _insert(entries, (d_p, a_qm, a_qm), v_mid)
                _insert(entries, (s_pm, s_pm, d_q), v_above)
                _insert(entries, (a_pm, a_pm, d_q), v_above)

    return ConstantTable(n_dim, D_KIND, entries)
