import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sunlie.indexing import (
    GeneratorLabel,
    all_labels,
    antisymmetric,
    antisymmetric_index,
    diagonal,
    diagonal_index,
    index_to_label,
    label_to_index,
    symmetric,
    symmetric_index,
)


@pytest.mark.parametrize(
    "label, n_dim, expected",
    [
        (symmetric(2, 1), 2, 1),
        (antisymmetric(2, 1), 2, 2),
        (diagonal(2), 2, 3),
        (symmetric(3, 1), 3, 4),
        (antisymmetric(3, 1), 3, 5),
        (symmetric(3, 2), 3, 6),
        (antisymmetric(3, 2), 3, 7),
        (diagonal(3), 3, 8),
    ],
)
def test_pauli_gellmann_positions(label, n_dim, expected):
    assert label_to_index(label, n_dim) == expected


@pytest.mark.parametrize("n_dim", range(2, 12))
def test_last_diagonal_sits_at_top(n_dim):
    assert label_to_index(diagonal(n_dim), n_dim) == n_dim * n_dim - 1


@pytest.mark.parametrize(
    "i, n_dim, expected",
    [
        (3, 2, diagonal(2)),
        (5, 3, antisymmetric(3, 1)),
        (9, 4, symmetric(4, 1)),
    ],
)
def test_index_to_label_spots(i, n_dim, expected):
    assert index_to_label(i, n_dim) == expected


@pytest.mark.parametrize("n_dim", range(2, 11))
def test_bijection_hits_every_index_once(n_dim):
    images = [label_to_index(label, n_dim) for label in all_labels(n_dim)]
    assert images == list(range(1, n_dim * n_dim))
    for i in images:
        assert label_to_index(index_to_label(i, n_dim), n_dim) == i


def test_label_order_is_pauli_and_gell_mann():
    assert list(all_labels(2)) == [symmetric(2, 1), antisymmetric(2, 1), diagonal(2)]
    assert list(all_labels(3)) == [
        symmetric(2, 1), antisymmetric(2, 1), diagonal(2),
        symmetric(3, 1), antisymmetric(3, 1), symmetric(3, 2), antisymmetric(3, 2), diagonal(3),
    ]


@pytest.mark.parametrize("n_dim", range(2, 11))
def test_block_structure(n_dim):
    # Everything with top coordinate n lands in [(n-1)^2, n^2 - 1].
    for label in all_labels(n_dim):
        i = label_to_index(label, n_dim)
        assert (label.n - 1) ** 2 <= i <= label.n**2 - 1


@given(
    n=st.integers(min_value=2, max_value=500),
    m=st.integers(min_value=1, max_value=499),
    kind=st.sampled_from(["S", "A", "D"]),
)
def test_round_trip_for_arbitrary_labels(n, m, kind):
    if kind == "D":
        label = GeneratorLabel("D", n)
    else:
        if m >= n:
            m = n - 1
        label = GeneratorLabel(kind, n, m)
    n_dim = n + 3
    assert index_to_label(label_to_index(label, n_dim), n_dim) == label


@pytest.mark.parametrize(
    "kind, n, m",
    [
        ("S", 3, 3),   # m == n
        ("S", 3, 4),   # m > n
        ("A", 2, 0),   # m < 1
        ("D", 1, 0),   # diagonal below 2
        ("X", 3, 1),   # unknown kind
    ],
)
def test_invalid_labels_rejected(kind, n, m):
    with pytest.raises(ValueError):
        GeneratorLabel(kind, n, m)


def test_label_beyond_ambient_dimension_rejected():
    with pytest.raises(ValueError, match="beyond N"):
        label_to_index(symmetric(4, 1), 3)


@pytest.mark.parametrize("bad", [0, -1, 9, 100])
def test_out_of_range_index_rejected(bad):
    with pytest.raises(ValueError):
        index_to_label(bad, 3)


def test_dimension_below_two_rejected():
    with pytest.raises(ValueError, match=">= 2"):
        index_to_label(1, 1)
    with pytest.raises(ValueError, match=">= 2"):
        list(all_labels(0))


def test_index_helpers_take_arrays():
    n_dim = 9
    n, m = (axis + 1 for axis in np.tril_indices(n_dim, -1))  # every pair m < n
    for helper, label in ((symmetric_index, symmetric), (antisymmetric_index, antisymmetric)):
        positions = helper(n, m)
        assert positions.dtype.kind == "i"
        assert [index_to_label(int(i), n_dim) for i in positions] == [
            label(int(a), int(b)) for a, b in zip(n, m)]
    tops = np.arange(2, n_dim + 1)
    assert [index_to_label(int(i), n_dim) for i in diagonal_index(tops)] == [
        diagonal(int(a)) for a in tops]
