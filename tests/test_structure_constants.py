import hashlib
import io
import itertools
import json
import math
import re
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import traced_peak
from sunlie import structure_constants
from sunlie.structure_constants import (
    MAX_MAGNITUDE,
    MAX_TABLE_N,
    ConstantTable,
    build_d_table,
    build_f_table,
    write_tables,
)

SQRT3 = math.sqrt(3.0)
GOLDEN = Path(__file__).parent / "golden"

# su(3) canonical values, frozen from the trace evaluation of the Gell-Mann
# basis (and identical to the textbook tables).
GELLMANN_F = {
    (1, 2, 3): 1.0,
    (1, 4, 7): 0.5,
    (1, 5, 6): -0.5,
    (2, 4, 6): 0.5,
    (2, 5, 7): 0.5,
    (3, 4, 5): 0.5,
    (3, 6, 7): -0.5,
    (4, 5, 8): SQRT3 / 2.0,
    (6, 7, 8): SQRT3 / 2.0,
}
GELLMANN_D = {
    (1, 1, 8): 1.0 / SQRT3,
    (2, 2, 8): 1.0 / SQRT3,
    (3, 3, 8): 1.0 / SQRT3,
    (8, 8, 8): -1.0 / SQRT3,
    (1, 4, 6): 0.5,
    (1, 5, 7): 0.5,
    (2, 4, 7): -0.5,
    (2, 5, 6): 0.5,
    (3, 4, 4): 0.5,
    (3, 5, 5): 0.5,
    (3, 6, 6): -0.5,
    (3, 7, 7): -0.5,
    (4, 4, 8): -1.0 / (2.0 * SQRT3),
    (5, 5, 8): -1.0 / (2.0 * SQRT3),
    (6, 6, 8): -1.0 / (2.0 * SQRT3),
    (7, 7, 8): -1.0 / (2.0 * SQRT3),
}


def f_count(n_dim):
    """Canonical triple count of the f table, derived from the family ranges."""
    return 5 * math.comb(n_dim, 3) + math.comb(n_dim - 1, 2) + math.comb(n_dim, 2)


def d_count(n_dim):
    """Canonical triple count of the d table, derived from the family ranges."""
    return (
        8 * math.comb(n_dim, 3)
        + 3 * math.comb(n_dim - 1, 2)
        + 2 * math.comb(n_dim, 2)
        + n_dim
        - 4
    )


def test_su2_f_is_levi_civita():
    table = build_f_table(2)
    assert table.as_dict() == {(1, 2, 3): 1.0}
    for i, j, k in permutations((1, 2, 3)):
        perm = {(1, 2, 3): 1, (2, 3, 1): 1, (3, 1, 2): 1}.get((i, j, k), -1)
        assert table.lookup(i, j, k) == perm


def test_su2_d_table_empty():
    assert len(build_d_table(2)) == 0


def test_su3_f_values():
    table = build_f_table(3)
    assert set(table.as_dict()) == set(GELLMANN_F)
    for key, expected in GELLMANN_F.items():
        assert abs(table.as_dict()[key] - expected) <= 1e-15


def test_su3_d_values():
    table = build_d_table(3)
    assert set(table.as_dict()) == set(GELLMANN_D)
    for key, expected in GELLMANN_D.items():
        assert abs(table.as_dict()[key] - expected) <= 1e-15


@pytest.mark.parametrize("n_dim", [2, 3, 4, 5, 6, 8, 12, 20, 64])
def test_counts_match_closed_form(n_dim):
    assert len(build_f_table(n_dim)) == f_count(n_dim)
    assert len(build_d_table(n_dim)) == d_count(n_dim)


class TestLookup:
    def test_sign_flips_on_transposition(self):
        table = build_f_table(2)
        assert table.lookup(2, 1, 3) == -1.0

    def test_symmetric_lookup_any_order(self):
        table = build_d_table(3)
        assert table.lookup(8, 1, 1) == pytest.approx(1.0 / SQRT3, abs=1e-15)

    def test_repeated_index_is_zero_for_f(self):
        table = build_f_table(3)
        assert table.lookup(3, 3, 1) == 0.0
        assert table.lookup(1, 1, 2) == 0.0

    def test_absent_triple_is_zero(self):
        assert build_d_table(3).lookup(1, 2, 3) == 0.0

    @pytest.mark.parametrize(
        "triple",
        [(0, 1, 2), (1, 2, 9), (-1, 1, 2),
         # Indices are integers: no floats, even whole ones, and no bools.
         (1.5, 2, 3), (1, 2, np.float64(3.0)), (True, 2, 3), (1, 2, np.True_)],
    )
    def test_out_of_range_rejected(self, triple):
        table = build_f_table(3)
        with pytest.raises(ValueError, match="outside"):
            table.lookup(*triple)

    @pytest.mark.parametrize("build", [build_f_table, build_d_table])
    def test_numpy_integers_act_as_ints(self, build):
        table, reference = build(np.int64(3)), build(3)
        assert type(table.n_dim) is int
        assert table.stats() == reference.stats()
        for triple in itertools.product(range(1, 9), repeat=3):
            assert table.lookup(*map(np.int64, triple)) == reference.lookup(*triple)

    @pytest.mark.parametrize("build", [build_f_table, build_d_table])
    def test_every_key_in_every_order_and_absent_triples(self, build):
        table = build(12)
        for (i, j, k), value in table.as_dict().items():
            for order, parity in zip(permutations((i, j, k)), (1, -1, -1, 1, 1, -1)):
                assert table.lookup(*order) == (parity * value if table.kind == "f" else value)
        stored = set(table.as_dict())
        rng = np.random.default_rng(12)
        absent = [t for t in rng.integers(1, 144, size=(12_000, 3)).tolist()
                  if tuple(sorted(t)) not in stored][:10_000]
        assert len(absent) == 10_000
        assert all(table.lookup(*t) == 0.0 for t in absent)

    def test_empty_table(self):
        table = build_d_table(2)
        assert all(table.lookup(*t) == 0.0 for t in itertools.product((1, 2, 3), repeat=3))

    @pytest.mark.parametrize("build", [build_f_table, build_d_table])
    def test_first_lookup_holds_a_packed_key_per_triple(self, build):
        # The lookup's index is one int64 sort key per stored triple, built by
        # the first call: a keyed dict of Python tuples costs over 200 bytes each.
        table = build(32)
        *last, stored = (array[-1].item() for array in table.contraction_arrays())
        i, j, k = (x + 1 for x in last)
        value, peak = traced_peak(table.lookup, k, j, i)  # one transposition
        assert value == (-stored if table.kind == "f" else stored)
        assert peak <= 12 * len(table)


def test_as_dict_is_an_independent_copy():
    table = build_f_table(3)
    entries, before = table.as_dict(), table.as_dict()
    entries[(1, 2, 3)] = 0.25
    entries[(1, 2, 4)] = 0.5
    del entries[(4, 5, 8)]
    assert table.as_dict() == before
    assert (table.lookup(1, 2, 3), table.lookup(1, 2, 4)) == (1.0, 0.0)
    assert table.lookup(4, 5, 8) == before[(4, 5, 8)]


@given(st.integers(min_value=2, max_value=7), st.data())
def test_permutation_parity_exact(n_dim, data):
    f = build_f_table(n_dim)
    d = build_d_table(n_dim)
    top = n_dim * n_dim - 1
    idx = st.integers(min_value=1, max_value=top)
    i, j, k = data.draw(idx), data.draw(idx), data.draw(idx)
    base_f = f.lookup(i, j, k)
    base_d = d.lookup(i, j, k)
    signs = (1.0, -1.0, -1.0, 1.0, 1.0, -1.0)
    for perm, sign in zip(permutations((i, j, k)), signs):
        assert f.lookup(*perm) == sign * base_f
        assert d.lookup(*perm) == base_d


@pytest.mark.parametrize("n_dim", [2, 3, 4, 5, 6])
def test_jacobi_identity(n_dim):
    table = build_f_table(n_dim)
    top = n_dim * n_dim - 1
    rng = np.random.default_rng(7)
    for _ in range(200):
        i, j, k, l = rng.integers(1, top + 1, size=4)
        residual = sum(
            table.lookup(i, j, m) * table.lookup(m, k, l)
            + table.lookup(j, k, m) * table.lookup(m, i, l)
            + table.lookup(k, i, m) * table.lookup(m, j, l)
            for m in range(1, top + 1)
        )
        assert abs(residual) <= 1e-12


@pytest.mark.parametrize("n_dim", [2, 3, 5])
def test_cartan_generators_commute(n_dim):
    table = build_f_table(n_dim)
    top = n_dim * n_dim - 1
    cartan = [n * n - 1 for n in range(2, n_dim + 1)]
    for a in cartan:
        for b in cartan:
            for k in range(1, top + 1):
                assert table.lookup(a, b, k) == 0.0


@pytest.mark.parametrize("build, strict", [(build_f_table, True), (build_d_table, False)])
@pytest.mark.parametrize("n_dim", [3, 6, 9])
def test_canonical_storage_invariants(build, strict, n_dim):
    table = build(n_dim)
    top = n_dim * n_dim - 1
    for i, j, k, value in table.triples():
        assert 1 <= i <= top and k <= top
        assert (i < j < k) if strict else (i <= j <= k)
        assert value != 0.0
        assert abs(value) <= MAX_MAGNITUDE + 1e-12


def columns(entries, dtype=np.int64):
    """(3, count) keys of ``dtype`` and the values of a {triple: value} dict."""
    return np.array(list(entries), dtype=dtype).reshape(-1, 3).T, list(entries.values())


def test_duplicate_insertion_is_hard_error():
    # A builder whose family ranges overlap would repeat a key.
    keys = np.array([[1, 4, 1], [2, 5, 2], [3, 8, 3]])
    with pytest.raises(RuntimeError, match=r"\(1, 2, 3\) = 0.5 is a duplicate"):
        ConstantTable(3, "f", keys, np.array([1.0, 0.5, 0.5]))


@pytest.mark.parametrize(
    "kind, entries, message",
    [
        ("f", columns({(0, 1, 2): 0.5}), r"\(0, 1, 2\) = 0.5 has an index outside 1..8"),
        ("f", columns({(1, 2, 3): 1.0, (6, 7, 9): 0.5}),
         r"\(6, 7, 9\) = 0.5 has an index outside 1..8"),
        ("f", columns({(1, 2, 3): 1.0, (2, 1, 4): 0.5}),
         r"\(2, 1, 4\) = 0.5 is not canonical for kind f"),
        ("f", columns({(1, 1, 8): 0.5}), "not canonical for kind f"),
        ("d", columns({(1, 1, 8): 0.5, (3, 2, 4): 0.5}),
         r"\(3, 2, 4\) = 0.5 is not canonical for kind d"),
        ("f", columns({(1, 2, 3): 0.0}), r"= 0.0 is outside the band"),
        ("d", columns({(1, 1, 8): 0.5, (3, 4, 4): math.nan}),
         r"\(3, 4, 4\) = nan is outside the band"),
        ("f", columns({(1, 2, 3): -math.inf}), r"= -inf is outside the band"),
        ("d", columns({(1, 1, 8): 1.5}), r"\(1, 1, 8\) = 1.5 is outside the band"),
        # Keys of a dtype that is not an integer one, even holding whole
        # numbers: numpy would truncate 1.5 and True to 1.  The first key is named.
        ("f", columns({(1.5, 2, 3): 1.0, (True, 4, 7): 0.5}, object),
         r"\(1.5, 2, 3\) = 1.0 has an index that is not an integer"),
        ("f", columns({(True, 4, 7): 0.5, (1, 2, 3): 1.0}, object),
         r"\(True, 4, 7\) = 0.5 has an index that is not an integer"),
        ("f", columns({(1, 2, 3): 1.0}, np.float64), "has an index that is not an integer"),
        ("f", columns({(True, True, True): 1.0}, bool), "has an index that is not an integer"),
        # The range is checked before the keys are narrowed to int32, where
        # 2**40 would wrap to 0 and 2**32 + 3 to a valid 3.
        ("f", columns({(1, 2, 2**40): 0.5}),
         r"\(1, 2, 1099511627776\) = 0.5 has an index outside 1..8"),
        ("f", columns({(1, 2, 2**32 + 3): 1.0}), r"= 1.0 has an index outside 1..8"),
        ("f", columns({(1, 2, 2**32 + 3): 1.0}, np.uint64), r"= 1.0 has an index outside 1..8"),
        # Above 2**63: no int64 holds it.
        ("f", columns({(1, 2, 3): 1.0, (1, 4, 2**63 + 5): 0.5}, np.uint64),
         r"= 0.5 has an index outside 1..8"),
        # Beyond uint64 numpy makes Python ints an object array.
        ("f", columns({(1, 4, 2**70): 0.5}, object),
         r"\(1, 4, 1180591620717411303424\) = 0.5 has an index that is not an integer: "
         "keys of dtype object"),
        ("f", columns({}, np.float64), "keys of dtype float64 are not integers"),
        # Just beyond either edge of the band: 1e-6 past sqrt(2) is no rounding error.
        ("f", columns({(1, 2, 3): MAX_MAGNITUDE + 1e-6}), r"= 1.41421456\d* is outside the band"),
        ("d", columns({(1, 1, 8): -MAX_MAGNITUDE - 1e-6}), r"= -1.41421456\d* is outside the band"),
    ],
)
def test_invalid_entries_rejected(kind, entries, message):
    with pytest.raises(ValueError, match=message):
        ConstantTable(3, kind, *entries)


@pytest.mark.parametrize(
    "keys, values, message",
    [
        # np.asarray would make this list int64, the bool a valid 1.
        ([[1, True], [2, 4], [3, 7]], [1.0, 0.5], "keys must be a numpy array, got list"),
        (np.array([[1, 2, 3], [1, 4, 7]]), [1.0, 0.5],
         r"keys of shape \(2, 3\) and values of shape \(2,\) are not \(3, count\)"),
        (np.array([[1], [2], [3]]), [1.0, 0.5], r"keys of shape \(3, 1\) and values of shape \(2,\)"),
        (np.array([[1], [2], [3]]), [[1.0]], r"values of shape \(1, 1\)"),
        (np.array([1, 2, 3]), [1.0], r"keys of shape \(3,\)"),
    ],
)
def test_malformed_arrays_rejected(keys, values, message):
    with pytest.raises(ValueError, match=message):
        ConstantTable(3, "f", keys, values)


def test_int32_keys_and_float64_values_are_sorted_in_place():
    # The builders' arrays become the table: no copy of either.
    keys = np.array([[4, 1], [5, 2], [8, 3]], dtype=np.int32)
    values = np.array([SQRT3 / 2.0, 1.0])
    table = ConstantTable(3, "f", keys, values)
    a, _, _, v = table.contraction_arrays()
    assert np.shares_memory(keys, a) and np.shares_memory(values, v)
    assert keys.tolist() == [[0, 3], [1, 4], [2, 7]]
    assert values.tolist() == [1.0, SQRT3 / 2.0]
    assert not keys.flags.writeable and not values.flags.writeable
    assert table.lookup(8, 5, 4) == -SQRT3 / 2.0


def test_read_only_arrays_are_copied():
    # Another table's arrays are frozen: a table rebuilt from them, in
    # reverse order, sorts copies and leaves them as they were.
    table = build_f_table(3)
    before = table.as_dict()
    i, j, k, values = table.contraction_arrays()
    keys = np.stack((i, j, k)) + 1
    keys.flags.writeable = False
    rebuilt = ConstantTable(3, "f", keys[:, ::-1], values[::-1])
    assert rebuilt.as_dict() == table.as_dict() == before
    assert keys.tolist() == (np.stack((i, j, k)) + 1).tolist()


def test_numpy_integer_keys_act_as_ints():
    # Any integer dtype is narrowed to the int32 keys and read back as Python ints.
    for dtype in (np.int8, np.uint8, np.int16, np.uint32, np.int64, np.uint64, np.intp):
        table = ConstantTable(3, "f", *columns({(1, 4, 7): 0.5, (1, 2, 3): 1.0}, dtype))
        assert table.contraction_arrays()[0].dtype == np.int32
        assert table.as_dict() == {(1, 2, 3): 1.0, (1, 4, 7): 0.5}
        assert all(type(x) is int for key in table.as_dict() for x in key)


def test_keys_at_the_largest_dimension():
    # Indices near N**2 - 1 = 2,096,703 at MAX_TABLE_N, stored as int32: they
    # sort, validate and look up exactly (test_dynamics holds that the
    # contractions widen them before any product of two).  Three triples:
    # nothing here grows with N.
    top = MAX_TABLE_N**2 - 1
    assert top == 2_096_703
    keys = np.array([[top - 3, 1, top - 2], [top - 1, 2, top - 1], [top, top, top]],
                    dtype=np.int32)
    table = ConstantTable(MAX_TABLE_N, "f", keys, np.array([0.5, -1.0, 0.25]))
    a, b, c, values = table.contraction_arrays()
    assert a.dtype == np.int32
    assert (a + 1).tolist() == [1, top - 3, top - 2]
    assert (c + 1).tolist() == [top, top, top]
    assert values.tolist() == [-1.0, 0.5, 0.25]
    assert table.lookup(top, top - 1, top - 3) == -0.5
    assert table.lookup(top - 1, top, top - 2) == 0.25
    assert table.lookup(top, 2, 1) == 1.0
    assert table.lookup(top - 3, top - 2, top) == 0.0
    with pytest.raises(RuntimeError, match="is a duplicate"):
        ConstantTable(MAX_TABLE_N, "f", np.array([[top - 2] * 2, [top - 1] * 2, [top] * 2]),
                      np.ones(2))
    with pytest.raises(ValueError, match=f"outside 1..{top}"):
        ConstantTable(MAX_TABLE_N, "d", np.array([[top - 1], [top], [top + 1]]), [0.5])


def test_dimension_beyond_packed_keys_rejected():
    with pytest.raises(ValueError, match="largest table dimension"):
        build_f_table(MAX_TABLE_N + 1)
    with pytest.raises(ValueError, match="largest table dimension"):
        ConstantTable(MAX_TABLE_N + 1, "d", np.empty((3, 0), dtype=np.int32), [])


def reference_table(n_dim, kind):
    """The families of the module docstring, one instance at a time in Python."""

    def s(n, m):
        return n * n + 2 * (m - n) - 1

    def d(n):
        return n * n - 1

    emitted = []
    for n in range(2, n_dim + 1):
        for m in range(1, n):
            if kind == "f":
                emitted.append(((s(n, m), s(n, m) + 1, d(n)), math.sqrt(n / (2.0 * (n - 1)))))
                if m >= 2:
                    emitted.append(((d(m), s(n, m), s(n, m) + 1), -math.sqrt((m - 1) / (2.0 * m))))
                continue
            for x in (s(n, m), s(n, m) + 1):
                if n >= 3:
                    emitted.append(((x, x, d(n)), (2 - n) / math.sqrt(2.0 * n * (n - 1))))
                if m >= 2:
                    emitted.append(((d(m), x, x), -math.sqrt((m - 1) / (2.0 * m))))
            if m >= 2:
                emitted.append(((d(m), d(m), d(n)), math.sqrt(2.0 / (n * (n - 1)))))
        if kind == "d" and n >= 3:
            emitted.append(((d(n),) * 3, (2 - n) * math.sqrt(2.0 / (n * (n - 1)))))
    for m, p, q in itertools.combinations(range(1, n_dim + 1), 3):
        spm, sqm, sqp = s(p, m), s(q, m), s(q, p)
        apm, aqm, aqp = spm + 1, sqm + 1, sqp + 1
        mid, above = math.sqrt(1.0 / (2.0 * p * (p - 1))), math.sqrt(2.0 / (q * (q - 1)))
        if kind == "f":
            emitted += [((spm, sqp, aqm), 0.5), ((sqm, sqp, apm), 0.5), ((spm, sqm, aqp), 0.5),
                        ((apm, aqm, aqp), 0.5), ((sqm, aqm, d(p)), mid)]
        else:
            emitted += [((spm, sqm, sqp), 0.5), ((spm, aqm, aqp), 0.5), ((apm, aqm, sqp), 0.5),
                        ((apm, sqm, aqp), -0.5), ((d(p), sqm, sqm), mid), ((d(p), aqm, aqm), mid),
                        ((spm, spm, d(q)), above), ((apm, apm, d(q)), above)]
    entries = {}
    for key, value in emitted:
        ordered = tuple(sorted(key))
        if kind == "f":  # parity of the sort: count the inversions
            inversions = sum(key[a] > key[b] for a, b in ((0, 1), (0, 2), (1, 2)))
            value = -value if inversions % 2 else value
        assert ordered not in entries
        entries[ordered] = value
    return entries


def reference_stats(kind, n_dim, entries):
    digest = hashlib.sha256(f"{kind},{n_dim}\n".encode())
    for (i, j, k), value in sorted(entries.items()):
        digest.update(f"{i},{j},{k},{value!r}\n".encode())
    return len(entries), digest.hexdigest()[:16]


@pytest.mark.parametrize("build, kind", [(build_f_table, "f"), (build_d_table, "d")])
@pytest.mark.parametrize("n_dim", [2, 3, 4, 5, 7, 10])
def test_builders_match_per_instance_reference(build, kind, n_dim):
    table = build(n_dim)
    expected = reference_table(n_dim, kind)
    assert table.as_dict() == expected  # exact: same arithmetic per value
    assert [(i, j, k) for i, j, k, _ in table.triples()] == sorted(expected)
    assert table.stats() == reference_stats(kind, n_dim, expected)
    lines = [f"{kind},{i},{j},{k},{v!r}\n" for (i, j, k), v in sorted(expected.items())]
    out = io.BytesIO()
    assert write_tables(out, n_dim, [kind], False) == [
        (kind, *reference_stats(kind, n_dim, expected))]
    assert out.getvalue().decode() == "kind,i,j,k,value\n" + "".join(lines)


@pytest.mark.parametrize("build", [build_f_table, build_d_table])
def test_dict_and_array_paths_give_the_same_table(build):
    # Rebuilt from its as_dict copy, in reverse order as int64 keys: the same table.
    table = build(5)
    rebuilt = ConstantTable(5, table.kind, *columns(dict(reversed(table.as_dict().items()))))
    assert rebuilt.stats() == table.stats()
    for a, b in zip(rebuilt.contraction_arrays(), table.contraction_arrays()):
        np.testing.assert_array_equal(a, b)


def test_contraction_arrays_are_read_only_views_of_the_table():
    table = build_f_table(4)
    first, second = table.contraction_arrays(), table.contraction_arrays()
    for a, b in zip(first, second):
        assert np.shares_memory(a, b)
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = a[0]


def test_stats_are_deterministic_and_order_independent():
    a = build_f_table(4)
    b = build_f_table(4)
    assert a.stats() == b.stats()
    count, checksum = a.stats()
    assert count == len(a)
    assert len(checksum) == 16
    int(checksum, 16)  # valid hex
    # different table, different digest
    assert build_d_table(4).stats()[1] != checksum


# (count, checksum) of the shipped tables: N = 64 as perfbench/expected.json pins it.
PINNED_STATS = {
    ("f", 5): (66, "ff5e2e970e2b4f6d"), ("d", 5): (119, "32613058fa28b3c5"),
    ("f", 12): (1221, "ceeaf0ec2110e6c4"), ("d", 12): (2065, "09cd303599901d04"),
    ("f", 33): (28304, "79270e3d905533f1"), ("d", 33): (46221, "9c57d6b5e9c306c9"),
    ("f", 64): (212289, "bd246606e80d680d"), ("d", 64): (343263, "21a388aa2a1ba6f6"),
}


@pytest.mark.parametrize("kind, n_dim", sorted(PINNED_STATS))
def test_stats_are_pinned(kind, n_dim):
    assert BUILDERS[kind](n_dim).stats() == PINNED_STATS[kind, n_dim]


def test_tables_of_different_n_share_prefix():
    # su(N) constants embed unchanged in su(N+1): same value on same triple.
    small = build_f_table(4).as_dict()
    large = build_f_table(5).as_dict()
    for key, value in small.items():
        assert large[key] == value


def csv_lines(table):
    """The CSV lines of ``table``, kind first, formatted here from its dict copy."""
    return "".join(f"{table.kind},{i},{j},{k},{v!r}\n"
                   for (i, j, k), v in sorted(table.as_dict().items()))


def test_rows_prefix_and_the_empty_table():
    # Each table's lines carry its own kind, f's then d's.
    tables = [build_f_table(3), build_d_table(3)]
    out = io.BytesIO()
    assert write_tables(out, 3, ["f", "d"], False) == [(t.kind, *t.stats()) for t in tables]
    assert out.getvalue().decode() == "kind,i,j,k,value\n" + "".join(map(csv_lines, tables))
    empty = build_d_table(2)  # every d family vanishes at N = 2
    assert len(empty) == 0
    stats = (0, hashlib.sha256(b"d,2\n").hexdigest()[:16])
    assert empty.stats() == stats
    payload = {"n": 2, "tables": [{"kind": "d", "count": 0, "checksum": stats[1],
                                   "triples": []}]}
    for json_format, text in ((False, "kind,i,j,k,value\n"),
                              (True, json.dumps(payload, indent=2) + "\n")):
        out = io.BytesIO()
        assert write_tables(out, 2, ["d"], json_format) == [("d", *stats)]
        assert out.getvalue().decode() == text


@pytest.mark.parametrize("json_format", [False, True])
@pytest.mark.parametrize("n_dim, kinds, message", [
    (1, ["f"], "N 1 is outside"),
    (MAX_TABLE_N + 1, ["f"], "beyond the largest table dimension"),
    (3, ["f", "both"], "kind must be"),
    (3, ["F"], "kind must be"),
])
def test_writer_refuses_before_the_first_byte(n_dim, kinds, message, json_format):
    out = io.BytesIO()
    with pytest.raises(ValueError, match=message):
        write_tables(out, n_dim, kinds, json_format)
    assert out.getvalue() == b""


@pytest.mark.parametrize("build", [build_f_table, build_d_table])
def test_stats_hold_one_piece_of_text_beside_the_table(build, monkeypatch):
    # What grows with the count is the sorted copy of the values and its
    # neighbour mask, 9 bytes per triple against the table's own 20.  Each
    # piece holds at most six arrays of at most one budget: the record
    # buffer, one gathered field, the value picks (8 bytes a line of at least
    # 10), the NUL mask, the joined copy and its bytes.  2**18 covers the
    # N**2 labels and their strings.
    budget = 2**14
    monkeypatch.setattr(structure_constants, "_CHUNK_BYTES", budget)
    table = build(48)
    bound = 9 * len(table) + 6 * budget + 2**18
    assert bound < len(csv_lines(table)) - 2 * len(table)  # unprefixed, it would not fit whole
    (count, _), peak = traced_peak(table.stats)
    assert count == len(table)
    assert peak <= bound


def check_build_memory(build, count):
    # The families are written into the result's own arrays (1x: int32 keys
    # and float64 values, 20 bytes per triple), which are then sorted a row
    # at a time.  Beside them live at most 20 more bytes per triple (1x):
    # while listing, the domains' int32 coordinates and indices and one
    # family's value temporaries;
    # while sorting, the int64 packed key and the sort order, then the order
    # and the row being permuted; later the packed key and one-byte check
    # masks.  The coordinate arrays over m < p < q are gone by then: they die
    # with the function that lists the families.  Both builds measure 1.80x.
    table, peak = traced_peak(build, 48)
    assert len(table) == count
    assert peak <= 2.0 * sum(a.nbytes for a in table.contraction_arrays())


def test_build_d_working_memory_is_bounded():
    check_build_memory(build_d_table, d_count(48))


def test_build_f_working_memory_is_bounded():
    check_build_memory(build_f_table, f_count(48))


BUILDERS = {"f": build_f_table, "d": build_d_table}


def joined(blocks):
    """The (0-based keys, values) blocks of a stream, concatenated."""
    keys, values = zip(*blocks)
    return np.concatenate(keys, axis=1), np.concatenate(values)


def assert_same_table(blocks, table):
    keys, values = joined(blocks)
    np.testing.assert_array_equal(keys, table.contraction_arrays()[0:3])
    # Bit for bit: the value bits compare as integers.
    expected = table.contraction_arrays()[3]
    np.testing.assert_array_equal(values.view(np.int64), expected.view(np.int64))


def coordinate_counts(table):
    """How many triples each top coordinate leads: 1-based index x belongs to c = isqrt(x) + 1."""
    first = table.contraction_arrays()[0] + 1
    return np.bincount([math.isqrt(x) + 1 for x in first.tolist()], minlength=table.n_dim + 1)


@pytest.mark.parametrize("kind", ["f", "d"])
@pytest.mark.parametrize("n_dim", [*range(2, 13), 33, 64])
def test_block_stream_joins_into_the_table(kind, n_dim, monkeypatch):
    table = BUILDERS[kind](n_dim)
    # At most 2 N**2 triples share a leading coordinate, which sizes the blocks.
    assert coordinate_counts(table).max() <= 2 * n_dim * n_dim
    blocks = list(structure_constants._blocks(n_dim, kind))
    assert max(values.size for _, values in blocks) <= structure_constants._CHUNK_BYTES // 8
    assert_same_table(blocks, table)
    for keys, values in blocks:
        assert keys.dtype == np.int32 and values.dtype == np.float64
        assert not keys.flags.writeable and not values.flags.writeable
    # One coordinate a block: budget below the triples of one coordinate.
    monkeypatch.setattr(structure_constants, "_CHUNK_BYTES", 8)
    blocks = list(structure_constants._blocks(n_dim, kind))
    assert len(blocks) == n_dim
    assert [values.size for _, values in blocks] == coordinate_counts(table)[1:].tolist()
    assert_same_table(blocks, table)


def compositions(n_dim):
    """Every split of the coordinates 1..n_dim into consecutive ranges, as (lo, hi) pairs."""
    for cuts in itertools.product((False, True), repeat=n_dim - 1):
        bounds = [1] + [c for c, cut in zip(range(2, n_dim + 1), cuts) if cut] + [n_dim + 1]
        yield list(zip(bounds, bounds[1:]))


@pytest.mark.parametrize("kind", ["f", "d"])
@pytest.mark.parametrize("n_dim", range(2, 9))
def test_every_split_into_coordinate_ranges_gives_the_table(kind, n_dim):
    # Blocks of every width, down to one coordinate: the families of each
    # range, sorted and checked, join into the table.
    table = BUILDERS[kind](n_dim)
    families = structure_constants._families
    for split in compositions(n_dim):
        blocks = [structure_constants._canonical(
            n_dim, kind, *families(kind, n_dim, lo, hi), (lo, hi)) for lo, hi in split]
        assert_same_table(blocks, table)


@pytest.mark.parametrize("at", range(len(structure_constants._FAMILIES)))
def test_each_family_is_pinned_and_never_dropped_by_value(at, monkeypatch):
    rows = structure_constants._FAMILIES
    kind = rows[at][0]
    # Alone, the family lists triples of su(3), each a line of the committed golden file.
    monkeypatch.setattr(structure_constants, "_FAMILIES", rows[at : at + 1])
    table = BUILDERS[kind](3)
    assert len(table) >= 1
    golden = (GOLDEN / "constants_n3.csv").read_text().splitlines()
    assert {f"{kind},{i},{j},{k},{v!r}" for i, j, k, v in table.triples()} <= set(golden)
    # Evaluated to 0 among the others, it is refused by the band, not left out.
    zero = (*rows[at][:-1], lambda *coordinates: 0.0)
    monkeypatch.setattr(structure_constants, "_FAMILIES", (*rows[:at], zero, *rows[at + 1 :]))
    for build in (lambda: BUILDERS[kind](3), lambda: list(structure_constants._blocks(3, kind))):
        with pytest.raises(ValueError, match=r"= 0.0 is outside the band"):
            build()


def test_empty_d_stream_of_su2():
    blocks = list(structure_constants._blocks(2, "d"))
    assert sum(values.size for _, values in blocks) == 0
    assert list(structure_constants._row_chunks(2, blocks)) == []


@pytest.mark.parametrize("kind", ["f", "d"])
def test_a_triple_in_the_wrong_block_is_refused(kind, monkeypatch):
    # The last triple led by coordinate 3 is listed with coordinate 2's
    # block instead.  Each block alone is sorted and free of duplicates, and
    # the joined stream holds every triple once, but out of order: the
    # block's first-index check must refuse it, naming it.
    n_dim, families = 4, structure_constants._families
    keys, values = families(kind, n_dim, 3, 4)
    moved = np.lexsort(keys[::-1])[-1]
    stays = np.arange(values.size) != moved
    triple = tuple(keys[:, moved].tolist())

    def misplaced(kind, n, lo, hi):
        if (lo, hi) == (2, 3):
            two_keys, two_values = families(kind, n, lo, hi)
            return np.hstack((two_keys, keys[:, [moved]])), np.append(two_values, values[moved])
        if (lo, hi) == (3, 4):
            return np.ascontiguousarray(keys[:, stays]), values[stays]
        return families(kind, n, lo, hi)

    monkeypatch.setattr(structure_constants, "_families", misplaced)
    monkeypatch.setattr(structure_constants, "_CHUNK_BYTES", 8)  # one coordinate a block
    message = rf"triple {re.escape(str(triple))} = .* has a first index outside its block"
    with pytest.raises(RuntimeError, match=message):
        list(structure_constants._blocks(n_dim, kind))
