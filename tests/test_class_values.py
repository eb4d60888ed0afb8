"""The integer class-value recurrence against independent oracles.

* N_{n,m}(nu, lam) against a direct count of the set partitions fixed by
  one permutation of each cycle type;
* alpha and beta class values against the symmetric-function recurrence,
  rebuilt here from ``plethysm_with_h_sum``;
* the integer pairing against the orthogonality of irreducible characters.
"""

from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from parthom.chartable import character
from parthom.classfunc import ClassFunction
from parthom.errors import ModuleCheckError
from parthom.partitions import check_partition, partitions_of
from parthom.reps import _fixed_partition_counts, class_values, schur_multiplicity
from parthom.setparts import act, canonical_permutation, set_partitions
from parthom.symfunc import H, plethysm_with_h_sum


def _block_cycle_type(perm, x) -> tuple[int, ...]:
    """Cycle type of the permutation that *perm* induces on the blocks of *x*."""
    image = [x.block_of[perm[block[0] - 1] - 1] for block in x.blocks]
    seen, lengths = set(), []
    for start in range(len(image)):
        length, b = 0, start
        while b not in seen:
            seen.add(b)
            b = image[b]
            length += 1
        if length:
            lengths.append(length)
    return check_partition(sorted(lengths, reverse=True))


def _brute_force_counts(n: int, m: int) -> dict:
    counts = {}
    for nu in partitions_of(n):
        perm = canonical_permutation(nu)
        for x in set_partitions(n, m):
            if act(perm, x) == x:
                key = (nu, _block_cycle_type(perm, x))
                counts[key] = counts.get(key, 0) + 1
    return counts


@pytest.mark.parametrize("n", range(1, 8))
def test_fixed_partition_counts_match_brute_force(n):
    nus = partitions_of(n)
    for m in range(1, n + 1):
        lams = partitions_of(m)
        got = {
            (nus[i], lams[j]): c
            for i, row in enumerate(_fixed_partition_counts(n, m))
            for j, c in row
        }
        assert got == _brute_force_counts(n, m), (n, m)
        assert all(got.values())  # rows are sparse: no stored zeros


@lru_cache(maxsize=None)
def _symfunc_recurrence(n: int, ranks: tuple[int, ...], homology: bool):
    """The named oracle: the recurrence on symmetric functions with rational
    coefficients, peeling the lowest rank by a plethysm into h_1 + h_2 + ..."""
    if not ranks:
        return H(n)
    s1 = ranks[0]
    inner = _symfunc_recurrence(n - s1, tuple(r - s1 for r in ranks[1:]), homology)
    result = plethysm_with_h_sum(inner, n)
    return result - _symfunc_recurrence(n, ranks[1:], True) if homology else result


@st.composite
def rank_sets(draw):
    n = draw(st.integers(3, 10))
    ranks = draw(st.sets(st.integers(1, n - 2)))
    return n, tuple(sorted(ranks))


@settings(max_examples=60, deadline=None)
@given(rank_sets(), st.booleans())
def test_class_values_match_symfunc_recurrence(case, homology):
    n, ranks = case
    oracle = ClassFunction.from_characteristic(_symfunc_recurrence(n, ranks, homology))
    values = class_values(n, ranks, homology=homology)
    assert all(isinstance(v, int) for v in values)
    assert values == tuple(oracle(nu) for nu in partitions_of(n))


@pytest.mark.parametrize("n", range(1, 8))
def test_pairing_of_irreducibles_is_orthonormal(n):
    for mu in partitions_of(n):
        chi = tuple(character(mu, nu) for nu in partitions_of(n))
        for lam in partitions_of(n):
            assert schur_multiplicity(chi, lam) == (lam == mu), (mu, lam)


@pytest.mark.parametrize("n", range(2, 9))
def test_pairing_refuses_values_that_are_not_a_character(n):
    # 1 on the n-cycles, 0 elsewhere: <chi, s_(n)> = 1/n
    values = (1,) + (0,) * (len(partitions_of(n)) - 1)
    with pytest.raises(ModuleCheckError):
        schur_multiplicity(values, (n,))
