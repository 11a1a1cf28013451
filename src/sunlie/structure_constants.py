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

and for pairs m < n, then Cartan coordinates n:

    d(X_nm, X_nm, D_m)  = -sqrt((m-1)/(2m))           (m >= 2)
    d(X_nm, X_nm, D_n)  = (2-n)/sqrt(2n(n-1))         (zero at n = 2)
    d(D_n, D_m, D_m)    = sqrt(2/(n(n-1)))            (m >= 2)
    d(D_n, D_n, D_n)    = (2-n) sqrt(2/(n(n-1)))      (zero at n = 2)

Each instance above is stored once under its canonical key: indices sorted
ascending, strictly for f (repeated indices vanish by anti-symmetry), weakly
for d.  The stored f value belongs to the ascending order; `lookup` restores
the sign for any other ordering.  `_FAMILIES` is this list line for line
(X counting twice), each family in that ascending order, f with the sign of
that order, so no triple is re-sorted.  The table stores non-zeros only,
and no family is filtered by value: each row lists its family from a first
leading coordinate (below), 2 where D_m needs m >= 2 and 3 for the families
zero at n = 2; the constructor's band check refuses any other zero.

The generators of top coordinate c (S_cm and A_cm for m < c, then D_c) hold
the indices (c-1)**2 .. c**2 - 1, and each family's canonical first index is
a generator of one coordinate of the family, its leading coordinate:

    n   for the pairs with D_n: f(S_nm, A_nm, D_n), d(X_nm, X_nm, D_n), and d(D_n, D_n, D_n)
    m   for the pairs with D_m: f(S_nm, A_nm, D_m), d(X_nm, X_nm, D_m), d(D_n, D_m, D_m)
    p   for every family of coordinates m < p < q

So the triples led by the coordinates lo .. hi-1 are exactly those whose
first index lies in (lo-1)**2 .. (hi-1)**2 - 1, and the builders list the
families of any such range; blocks of consecutive ranges, each sorted, join
into the sorted table.  `write_tables`, the one writer of the table text and
its checksum, streams such blocks as CSV or JSON.

Enumerating the patterns costs O(N**3) against the O(N**9) of computing every
generator trace, which is what makes the N = 64 table a subsecond object
instead of an overnight batch job.  Each family is a closed form in its
coordinates alone, so the builders evaluate it over all of them at once.
"""

from __future__ import annotations

import hashlib
import math
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from .indexing import _integer, antisymmetric_index, diagonal_index, symmetric_index

F_KIND = "f"
D_KIND = "d"

# All closed-form magnitudes lie in (0, sqrt(2)]; used as a sanity band.
MAX_MAGNITUDE = math.sqrt(2.0)

# Sorting packs a key (i, j, k) into one int64 as (i N**2 + j) N**2 + k, which
# holds while N**6 <= 2**63; an f table at this N has ~2.5e9 entries.  Its
# largest index, N**2 - 1 = 2,096,703, fits the tables' int32 keys.
MAX_TABLE_N = 1448

# Table text is formatted in pieces of whole lines of at most this many bytes,
# by default in the layout of a CSV line (see _row_chunks), and a streamed
# table is listed in blocks of at most _CHUNK_BYTES // 8 triples (see _blocks).
_CHUNK_BYTES = 2**19
_CSV_LAYOUT = ("", ",", ",", ",", "\n")


class ConstantTable:
    """Complete sparse set of canonical non-zero constants for one N and kind.

    Immutable once constructed.  The table is a read-only (3, count) array of
    0-based canonical index triples in lexicographic order and the matching
    value array; no other copy of the content is kept.  `lookup` resolves an
    arbitrary index order through the permutation symmetry (sign-flipping
    for f, invariant for d), binary-searches the packed sort key of the
    canonical triple and returns 0.0 for any triple not stored.
    """

    __slots__ = ("n_dim", "kind", "_index", "_values", "_packed_keys")

    def __init__(self, n_dim: int, kind: str, keys: np.ndarray, values: np.ndarray):
        """Table from 1-based (3, count) keys and their count values, in any column order.

        The keys must be a numpy array of an integer dtype: a list could hide
        a bool (``np.asarray([1, True])`` is int64), and bool, float and
        object dtypes are refused.  The range is checked on the keys as given,
        before they are narrowed to int32.  Writeable int32 keys and float64
        values are taken over, not copied: sorted into key order in place,
        the keys made 0-based, and both frozen.
        """
        self.n_dim = n_dim = _check_table_dimension(n_dim)
        self.kind = kind = _check_kind(kind)
        self._index, self._values = _canonical(n_dim, kind, keys, values, (1, n_dim + 1))
        self._packed_keys: np.ndarray | None = None  # built by the first lookup

    def __len__(self) -> int:
        return self._values.size

    def triples(self) -> list[tuple[int, int, int, float]]:
        """Canonical (i, j, k, value) tuples in lexicographic (i, j, k) order."""
        i, j, k = (self._index + 1).tolist()
        return list(zip(i, j, k, self._values.tolist()))

    def as_dict(self) -> dict[tuple[int, int, int], float]:
        """Copy of the canonical key -> value mapping."""
        return {(i, j, k): v for i, j, k, v in self.triples()}

    def lookup(self, i: int, j: int, k: int) -> float:
        """Constant for an arbitrary index order; 0.0 if absent from the table."""
        top = self.n_dim * self.n_dim - 1
        i, j, k = (_integer(i, "index", 1, top), _integer(j, "index", 1, top),
                   _integer(k, "index", 1, top))
        sign = 1.0
        if i > j:
            i, j, sign = j, i, -sign
        if j > k:
            j, k, sign = k, j, -sign
        if i > j:
            i, j, sign = j, i, -sign
        if self.kind == D_KIND:
            sign = 1.0
        elif i == j or j == k:
            return 0.0
        # 8 bytes per triple, built on the first lookup: the builds never pay for it.
        if self._packed_keys is None:
            self._packed_keys = _packed(self._index, top)
        key = ((i - 1) * (top + 1) + j - 1) * (top + 1) + k - 1
        at = self._packed_keys.searchsorted(key)
        if at == len(self) or self._packed_keys[at] != key:
            return 0.0
        return sign * self._values.item(at)

    def stats(self) -> tuple[int, str]:
        """Triple count and an order-independent content digest (16 hex chars)."""
        return _stats(self.n_dim, self.kind, _row_chunks(self.n_dim, [(self._index, self._values)]))

    def contraction_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Canonical triples as parallel arrays (a, b, c, value), 0-based.

        These are read-only views of the table itself, shared by every
        caller; `_cyclic_orders` serves them to every f contraction.  The
        indices are int32, which holds N**2 - 1 up to MAX_TABLE_N but not a
        product of two of them: widen before multiplying (`dynamics._flat` does).
        """
        a, b, c = self._index
        return a, b, c, self._values


def _row_chunks(
    n_dim: int,
    blocks: Iterable[tuple[np.ndarray, np.ndarray]],
    layout: tuple[str, str, str, str, str] = _CSV_LAYOUT,
) -> Iterator[tuple[bytes, int]]:
    """The triples of ``blocks``, (0-based keys, values) pairs in table order, as
    UTF-8 bytes in pieces of whole lines, each with its line count, each line
    ``head i sep j sep k sep value tail`` for the five strings of ``layout``.

    The labels are formatted once per call, and each block formats its own
    O(N) distinct values: a block's text depends on that block alone.  The
    fields of a piece's lines, separators included, are gathered from arrays
    of NUL-padded byte strings into one buffer of at most _CHUNK_BYTES (or
    one line), viewed as the line record of the block at hand; dropping the
    NULs joins them.  A block of no triples yields no piece.
    """
    head, i_sep, j_sep, k_sep, tail = layout
    numbers = range(1, n_dim * n_dim)
    around = ((head, i_sep), ("", j_sep), ("", k_sep))
    labels = {(before, after): np.array([f"{before}{x}{after}".encode() for x in numbers],
                                        dtype=bytes)
              for before, after in set(around)}  # one array serves CSV's three equal fields
    fields = [labels[pair] for pair in around]
    memory = np.empty(_CHUNK_BYTES, dtype=np.uint8)
    for keys, values in blocks:
        # np.unique would import numpy.ma on first use.  The constructor keeps
        # every value finite and non-zero, so != between sorted neighbours
        # finds each distinct one exactly.
        distinct = np.sort(values)
        distinct = np.append(distinct[:1], distinct[1:][distinct[1:] != distinct[:-1]])
        columns = *fields, np.array([f"{v!r}{tail}".encode() for v in distinct.tolist()], "S")
        line = np.dtype([("", column.dtype) for column in columns])
        if memory.size < line.itemsize:
            memory = np.empty(line.itemsize, dtype=np.uint8)
        buffer = memory[: memory.size - memory.size % line.itemsize].view(line)
        for start in range(0, values.size, buffer.size):
            lines, stop = buffer[: values.size - start], start + buffer.size
            picks = *keys[:, start:stop], np.searchsorted(distinct, values[start:stop])
            for name, column, pick in zip(line.names, columns, picks):
                lines[name] = column[pick]
            yield lines.tobytes().translate(None, b"\0"), len(lines)
        # Nothing of this block (the picks view its keys) is held while the next is built.
        keys = values = distinct = picks = pick = None


def _stats(
    n_dim: int, kind: str, pieces: Iterable[tuple[bytes, int]], fh: IO[bytes] | None = None
) -> tuple[int, str]:
    """Line count and 16 hex chars of sha256("{kind},{n}\n" + text), fed the CSV
    ``pieces`` that join to ``text`` with their line counts; with ``fh``, each piece is
    first written there with its kind prefix on every line."""
    digest = hashlib.sha256(f"{kind},{n_dim}\n".encode())
    prefix = f"{kind},".encode()
    count = 0
    for piece, lines in pieces:  # never empty: a piece holds at least one line
        if fh is not None:
            fh.write(prefix)
            # The piece ends with a newline: the prefix put after it is cut off.
            fh.write(memoryview(piece.replace(b"\n", b"\n" + prefix))[: -len(prefix)])
        digest.update(piece)
        count += lines
        del piece  # the next piece may build a block: hold no text meanwhile
    return count, digest.hexdigest()[:16]


def _packed(keys: np.ndarray, top: int) -> np.ndarray:
    """The int64 sort key (i (top+1) + j) (top+1) + k of each key column, built in one array."""
    packed = keys[0].astype(np.int64)
    for row in keys[1:]:
        packed *= top + 1
        packed += row
    return packed


def _refuse(
    bad: np.ndarray, keys: np.ndarray, values: np.ndarray, error: type, problem: str
) -> None:
    """Raise ``error`` naming the first key column where ``bad`` holds, if any."""
    rows = np.flatnonzero(bad)
    if rows.size:
        i, j, k = keys[:, rows[0]].tolist()
        raise error(f"triple {(i, j, k)} = {float(values[rows[0]])!r} {problem}")


def _canonical(
    n_dim: int, kind: str, keys: np.ndarray, values: np.ndarray, lead: tuple[int, int]
) -> tuple[np.ndarray, np.ndarray]:
    """A table's or a block's 0-based keys and values: checked, sorted and frozen.

    Every first index must be a generator of the top coordinates ``lead`` =
    (lo, hi), the 1-based indices (lo-1)**2 .. (hi-1)**2 - 1: then blocks of
    consecutive ranges join into a sorted table without duplicates.  A whole
    table passes (1, n_dim + 1), which takes every index.
    """
    if not isinstance(keys, np.ndarray):
        raise ValueError(f"keys must be a numpy array, got {type(keys).__name__}")
    values = np.require(values, np.float64, "W")  # a read-only array is copied
    if keys.shape != (3, values.size) or values.ndim != 1:
        raise ValueError(f"keys of shape {keys.shape} and values of shape {values.shape} "
                         "are not (3, count) and (count,)")
    if not np.issubdtype(keys.dtype, np.integer):  # bool, float (2.0 too), object (2**70)
        _refuse(np.ones(values.size, dtype=bool), keys, values, ValueError,
                f"has an index that is not an integer: keys of dtype {keys.dtype}")
        raise ValueError(f"keys of dtype {keys.dtype} are not integers")
    top = n_dim * n_dim - 1
    _refuse(((keys < 1) | (keys > top)).any(axis=0), keys, values, ValueError,
            f"has an index outside 1..{top}")
    keys = np.require(keys, np.int32, "W")  # N**2 - 1 < 2**31 up to MAX_TABLE_N
    packed = _packed(keys, top)
    order = np.argsort(packed, kind="stable")
    del packed  # rebuilt from the sorted keys: one int64 row fewer while they move
    for row in (*keys, values):  # one row at a time: no second copy of the keys
        row[...] = np.take(row, order)
    del order
    i, j, k = keys
    # Sorted neighbours compare, and the band is two signed comparisons:
    # no temporary as wide as the keys.  NaN fails every comparison, so
    # the band also rejects non-finite values.
    packed = _packed(keys, top)
    repeated = np.zeros(values.size, dtype=bool)  # the second of two equal keys
    np.equal(packed[1:], packed[:-1], out=repeated[1:])
    del packed
    first, last = (lead[0] - 1) ** 2, (lead[1] - 1) ** 2 - 1
    for bad, error, problem in (
        (~((i < j) & (j < k) if kind == F_KIND else (i <= j) & (j <= k)), ValueError,
         f"is not canonical for kind {kind}"),
        # Duplicate canonical keys, and a first index outside the block, can
        # only come from a family-range bug; fail hard.
        (repeated, RuntimeError, "is a duplicate: enumeration bug"),
        ((i < first) | (i > last), RuntimeError,
         f"has a first index outside its block's {first}..{last}: enumeration bug"),
        (~((values != 0.0) & (values <= MAX_MAGNITUDE + 1e-9)
           & (values >= -MAX_MAGNITUDE - 1e-9)), ValueError,
         "is outside the band (0, sqrt(2)]"),
    ):
        _refuse(bad, keys, values, error, problem)
    keys -= 1
    keys.flags.writeable = False
    values.flags.writeable = False
    return keys, values


def _check_table_dimension(n_dim: int) -> int:
    n_dim = _integer(n_dim, "N", 2)
    if n_dim > MAX_TABLE_N:
        raise ValueError(f"N={n_dim} is beyond the largest table dimension {MAX_TABLE_N}")
    return n_dim


def _check_kind(kind: str) -> str:
    if kind not in (F_KIND, D_KIND):
        raise ValueError(f"kind must be '{F_KIND}' or '{D_KIND}', got {kind!r}")
    return kind


def _cyclic_orders(table: ConstantTable) -> tuple[tuple, np.ndarray]:
    """The table's own 0-based (a, b, c) as (a, b, c), (b, c, a) and (c, a, b), and f_abc.

    Each order (i, j, k) has f_ijk = f_abc and its odd order f_ikj = -f_ijk: the
    whole of f, in read-only int32 views (widen before multiplying two indices).
    Every use of f starts here, so a d table is refused here.
    """
    if table.kind != F_KIND:
        raise ValueError(f"f contractions need an '{F_KIND}' table, got '{table.kind}'")
    a, b, c, v = table.contraction_arrays()
    return ((a, b, c), (b, c, a), (c, a, b)), v


# The leading domains of the families: their coordinates, strictly ascending,
# and the one that leads them.
_PAIRS_BY_N = ("mn", "n")
_PAIRS_BY_M = ("mn", "m")
_TRIPLES = ("mpq", "p")
_CARTAN = ("n", "n")

# The families of the module docstring, line for line: kind, leading domain,
# first leading coordinate, canonical index triple and value, a closed form in
# the domain's coordinates.
_FAMILIES = (
    (F_KIND, _TRIPLES, 2, "S_pm A_qm S_qp", lambda m, p, q: -0.5),
    (F_KIND, _TRIPLES, 2, "A_pm S_qm S_qp", lambda m, p, q: 0.5),
    (F_KIND, _TRIPLES, 2, "S_pm S_qm A_qp", lambda m, p, q: 0.5),
    (F_KIND, _TRIPLES, 2, "A_pm A_qm A_qp", lambda m, p, q: 0.5),
    (F_KIND, _TRIPLES, 2, "D_p S_qm A_qm", lambda m, p, q: np.sqrt(1.0 / (2.0 * p * (p - 1)))),
    (F_KIND, _PAIRS_BY_N, 2, "S_nm A_nm D_n", lambda m, n: np.sqrt(n / (2.0 * (n - 1)))),
    (F_KIND, _PAIRS_BY_M, 2, "D_m S_nm A_nm", lambda m, n: -np.sqrt((m - 1) / (2.0 * m))),
    (D_KIND, _TRIPLES, 2, "S_pm S_qm S_qp", lambda m, p, q: 0.5),
    (D_KIND, _TRIPLES, 2, "S_pm A_qm A_qp", lambda m, p, q: 0.5),
    (D_KIND, _TRIPLES, 2, "A_pm A_qm S_qp", lambda m, p, q: 0.5),
    (D_KIND, _TRIPLES, 2, "A_pm S_qm A_qp", lambda m, p, q: -0.5),
    (D_KIND, _TRIPLES, 2, "D_p S_qm S_qm", lambda m, p, q: np.sqrt(1.0 / (2.0 * p * (p - 1)))),
    (D_KIND, _TRIPLES, 2, "D_p A_qm A_qm", lambda m, p, q: np.sqrt(1.0 / (2.0 * p * (p - 1)))),
    (D_KIND, _TRIPLES, 2, "S_pm S_pm D_q", lambda m, p, q: np.sqrt(2.0 / (q * (q - 1)))),
    (D_KIND, _TRIPLES, 2, "A_pm A_pm D_q", lambda m, p, q: np.sqrt(2.0 / (q * (q - 1)))),
    (D_KIND, _PAIRS_BY_M, 2, "D_m S_nm S_nm", lambda m, n: -np.sqrt((m - 1) / (2.0 * m))),
    (D_KIND, _PAIRS_BY_M, 2, "D_m A_nm A_nm", lambda m, n: -np.sqrt((m - 1) / (2.0 * m))),
    (D_KIND, _PAIRS_BY_N, 3, "S_nm S_nm D_n", lambda m, n: (2 - n) / np.sqrt(2.0 * n * (n - 1))),
    (D_KIND, _PAIRS_BY_N, 3, "A_nm A_nm D_n", lambda m, n: (2 - n) / np.sqrt(2.0 * n * (n - 1))),
    (D_KIND, _PAIRS_BY_M, 2, "D_m D_m D_n", lambda m, n: np.sqrt(2.0 / (n * (n - 1)))),
    (D_KIND, _CARTAN, 3, "D_n D_n D_n", lambda n: (2 - n) * np.sqrt(2.0 / (n * (n - 1)))),
)

_INDEX = {"S": symmetric_index, "A": antisymmetric_index, "D": diagonal_index}


def _coordinates(every: np.ndarray, names: str, leader: str, lo: int, hi: int) -> dict:
    """The 1-based int32 coordinates ``names``, strictly ascending, of every instance
    whose coordinate ``leader`` lies in lo..hi-1, by name.

    The mask is sized to the w = hi - lo leading coordinates: N x w, w x N,
    N x w x N or w.  int32 holds every index made of them, N**2 - 1 at most.
    """
    axes = [every[lo - 1 : hi - 1] if name == leader else every for name in names]
    grids = np.ix_(*axes)
    ascending = np.ones([axis.size for axis in axes], dtype=bool)
    for low, high in zip(grids, grids[1:]):
        ascending &= low < high
    return {name: axis[at] for name, axis, at in zip(names, axes, np.nonzero(ascending))}


def _families(kind: str, n_dim: int, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """1-based int32 (3, count) keys and values of the ``kind`` families led by the
    coordinates lo..hi-1, unsorted.  Each domain's coordinates, and each index
    named over them (S_pm is `symmetric_index(p, m)`), are made once, shared by
    its families, and die on return."""
    every = np.arange(1, n_dim + 1, dtype=np.int32)
    shared: dict = {}  # per (domain, first): its coordinates, then its indices
    families = []
    for family_kind, domain, first, triple, value in _FAMILIES:
        if family_kind != kind:
            continue
        if (domain, first) not in shared:
            shared[domain, first] = _coordinates(every, *domain, max(lo, first), hi)
        named, names = shared[domain, first], triple.split()
        for name in names:
            if name not in named:
                named[name] = _INDEX[name[0]](*(named[c] for c in name[2:]))
        families.append(([named[name] for name in names], [named[c] for c in domain[0]], value))
    keys = np.empty((3, sum(coordinates[0].size for _, coordinates, _ in families)), np.int32)
    values = np.empty(keys.shape[1])
    stop = 0
    for indices, coordinates, value in families:
        start, stop = stop, stop + coordinates[0].size
        for row, index in zip(keys, indices):
            row[start:stop] = index
        values[start:stop] = value(*coordinates)
    return keys, values


def build_f_table(n_dim: int) -> ConstantTable:
    """Enumerate every non-zero anti-symmetric constant f_ijk for su(n_dim).

    Every family is written in canonical ascending order, with the sign of
    that order, as `build_d_table` writes d.
    """
    n_dim = _check_table_dimension(n_dim)
    return ConstantTable(n_dim, F_KIND, *_families(F_KIND, n_dim, 1, n_dim + 1))


def build_d_table(n_dim: int) -> ConstantTable:
    """Enumerate every non-zero symmetric constant d_ijk for su(n_dim).

    Every family is written in canonical ascending order: block-p indices
    precede block-q indices, and inside block q the bottom coordinate orders
    the pairs (s_qm < a_qm < s_qp < a_qp for m < p).
    """
    n_dim = _check_table_dimension(n_dim)
    return ConstantTable(n_dim, D_KIND, *_families(D_KIND, n_dim, 1, n_dim + 1))


def _blocks(n_dim: int, kind: str) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The table of ``kind`` for su(n_dim) as sorted (0-based keys, values) blocks that join
    into it, one at a time: the table is never held whole.

    A block holds the families led by a range of coordinates, consecutive
    ranges of one width, checked and sorted by the constructor's code.  At
    most 2 N**2 triples share a leading coordinate (2 (N-1)**2 + 3 N - 2 for
    d), so a block holds at most _CHUNK_BYTES // 8 triples, or one
    coordinate's.
    """
    n_dim = _check_table_dimension(n_dim)
    width = max(1, _CHUNK_BYTES // 8 // (2 * n_dim * n_dim))
    for lo in range(1, n_dim + 1, width):
        hi = min(lo + width, n_dim + 1)
        yield _canonical(n_dim, kind, *_families(kind, n_dim, lo, hi), (lo, hi))


def write_tables(
    fh: IO[bytes], n_dim: int, kinds: Sequence[str], json_format: bool
) -> list[tuple[str, int, str]]:
    """Write the tables of ``kinds`` for su(n_dim) to the byte stream ``fh`` and return
    each one's (kind, count, checksum), as `ConstantTable.stats` gives them.

    CSV is the header ``kind,i,j,k,value`` and a line ``kind,i,j,k,repr(value)`` per
    triple; JSON is what json.dump(..., indent=2) writes for {"n", "tables": [{"kind",
    "count", "checksum", "triples": [{"kind", "i", "j", "k", "value"}]}]}.  No table is
    held whole: each is listed a block at a time, formatted a piece at a time, hashed and
    written.  CSV hashes what it writes; JSON, whose header needs the stats, lists each
    table twice.  N and the kinds are checked before the first byte.
    """
    n_dim = _check_table_dimension(n_dim)
    for kind in kinds:
        _check_kind(kind)
    fh.write(f'{{\n  "n": {n_dim},\n  "tables": ['.encode() if json_format
             else b"kind,i,j,k,value\n")
    stats: list[tuple[str, int, str]] = []
    for kind in kinds:
        pieces = _row_chunks(n_dim, _blocks(n_dim, kind))
        count, checksum = _stats(n_dim, kind, pieces, None if json_format else fh)
        if json_format:
            fh.write(f'{"," * bool(stats)}\n    {{\n      "kind": "{kind}",\n      "count": '
                     f'{count},\n      "checksum": "{checksum}",\n      "triples": ['.encode())
            layout = (f',\n        {{\n          "kind": "{kind}",\n          "i": ',
                      ',\n          "j": ', ',\n          "k": ', ',\n          "value": ',
                      "\n        }")
            pieces = _row_chunks(n_dim, _blocks(n_dim, kind), layout)
            # Each object opens with the comma parting it from the one before; the first drops it.
            for at, (piece, _) in enumerate(pieces):
                fh.write(memoryview(piece)[at == 0:])
            fh.write(b"\n      ]\n    }" if count else b"]\n    }")
        stats.append((kind, count, checksum))
    if json_format:
        fh.write(b"\n  ]\n}\n" if stats else b"]\n}\n")
    return stats

