import pytest

from parthom.partitions import (
    canonical_sort_key,
    check_partition,
    multiplicities,
    partitions_of,
    zee,
)


def counting_oracle(n):
    """Independent dynamic-programming partition counter."""
    table = [[0] * (n + 1) for _ in range(n + 1)]
    for maxp in range(n + 1):
        table[0][maxp] = 1
    for m in range(1, n + 1):
        for maxp in range(1, n + 1):
            table[m][maxp] = table[m][maxp - 1] + (table[m - maxp][min(maxp, m - maxp)] if m >= maxp else 0)
    return table[n][n]


def test_partitions_of_zero():
    assert partitions_of(0) == ((),)


def test_partitions_of_four():
    assert partitions_of(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))


@pytest.mark.parametrize("n", range(0, 13))
def test_counts_match_dp_oracle(n):
    assert len(partitions_of(n)) == counting_oracle(n)


def test_partitions_of_ten_count():
    assert len(partitions_of(10)) == 42


def test_decreasing_lex_order():
    for n in range(1, 9):
        parts = partitions_of(n)
        assert all(parts[i] > parts[i + 1] for i in range(len(parts) - 1))
        assert len(set(parts)) == len(parts)
        assert all(sum(lam) == n for lam in parts)


def test_check_partition():
    assert check_partition([3, 2, 2]) == (3, 2, 2)
    assert check_partition(4) == (4,)
    assert check_partition(0) == ()
    with pytest.raises(ValueError):
        check_partition([1, 2])
    with pytest.raises(ValueError):
        check_partition([2, 0])


def test_zee():
    assert zee((2, 1)) == 2
    assert zee((1, 1, 1)) == 6
    assert zee((2, 2)) == 8
    assert zee((4,)) == 4


def test_multiplicities():
    assert multiplicities((3, 2, 2, 1)) == {3: 1, 2: 2, 1: 1}


def test_canonical_order_sorts_by_weight_then_declex():
    items = [(1,), (2,), (1, 1), ()]
    items.sort(key=canonical_sort_key)
    assert items == [(), (1,), (2,), (1, 1)]
