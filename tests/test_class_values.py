"""The integer class-value recurrence and its integer tables against
independent oracles.

* the integer kernels of ``symfunc`` (``_p_in_h`` and ``_p_in``) against
  the ``Fraction`` tables they replaced, kept here as named oracles;
* N_{n,m}(nu, lam), counted by the walk over the cycles of nu in ``reps``,
  against a direct count of the set partitions fixed by one permutation of
  each cycle type; and N(nu, lam) z_lam / z_nu, the p_nu coefficient of
  p_lam[h_1 + h_2 + ...] in degree n, against the ``Fraction`` oracle of
  that plethysm and against the general truncated ``plethysm``;
* ``_in_p`` and ``_p_in`` against each other: for h, s and m the two
  tables are inverse matrices; the m tables also against the row-by-row
  construction from the h tables by Hall duality;
* alpha and beta class values against the symmetric-function recurrence,
  rebuilt here on the ``Fraction`` oracle of p_lam[h_1 + h_2 + ...];
* the integer pairing against the orthogonality of irreducible characters.
"""

import fractions
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from parthom import symfunc
from parthom.chartable import character
from parthom.errors import ModuleCheckError
from parthom.partitions import check_partition, partitions_of, zee
from parthom.reps import (
    _block_orbit_counts,
    _fixed_partition_counts,
    class_values,
    schur_multiplicity,
)
from parthom.setparts import act, canonical_permutation
from parthom.symfunc import SymFunc, _in_p, _p_in, _p_in_h, plethysm
from test_chain_sums import set_partitions
from test_classfunc import inverse_characteristic
from test_symfunc import H, P

#: the integer tables are checked exactly for every lam with |lam| <= n <= KERNEL_N
KERNEL_N = 9


# ---------------------------------------------------------------------------
# Fraction oracles: the tables as they were built before they became integer

def _mul(a: dict, b: dict) -> dict:
    out = {}
    for lam, c in a.items():
        for mu, d in b.items():
            key = tuple(sorted(lam + mu, reverse=True))
            out[key] = out.get(key, 0) + c * d
    return {key: v for key, v in out.items() if v}


def _add(acc: dict, terms: dict, c=1) -> None:
    for key, v in terms.items():
        acc[key] = acc.get(key, 0) + c * v


@lru_cache(maxsize=None)
def oracle_p_in_h(n: int) -> dict:
    """p_n in the h basis by Newton's identity, in ``Fraction``."""
    acc = {(n,): Fraction(n)}
    for i in range(1, n):
        _add(acc, _mul({(n - i,): Fraction(1)}, oracle_p_in_h(i)), -1)
    return {key: v for key, v in acc.items() if v}


def oracle_p_product_in(lam: tuple) -> dict:
    acc = {(): Fraction(1)}
    for part in lam:
        acc = _mul(acc, oracle_p_in_h(part))
    return acc


@lru_cache(maxsize=None)
def oracle_p_in_h_sum(lam: tuple, n: int) -> dict:
    """The degree-n part of p_lam[h_1 + h_2 + ...] in ``Fraction``, peeling
    the first part k: the degree-d part of p_k[...] is h_{d/k}[p_k]."""
    if not lam:
        return {(): Fraction(1)} if n == 0 else {}
    k, rest = lam[0], lam[1:]
    acc = {}
    for d in range(k, n - sum(rest) + 1, k):
        head = {tuple(i * k for i in mu): Fraction(1, zee(mu)) for mu in partitions_of(d // k)}
        _add(acc, _mul(head, oracle_p_in_h_sum(rest, n - d)))
    return {key: v for key, v in acc.items() if v}


def _kernel_cases():
    return [(lam, n) for n in range(KERNEL_N + 1) for m in range(n + 1) for lam in partitions_of(m)]


def n_column_as_plethysm(lam: tuple, n: int) -> dict:
    """{nu: N(nu, lam) z_lam / z_nu} over nu |- n: the degree-n part of
    p_lam[h_1 + h_2 + ...] that the column lam of N_{n,|lam|} stands for."""
    m = sum(lam)
    j = partitions_of(m).index(lam)
    return {nu: Fraction(c * zee(lam), zee(nu))
            for nu, row in zip(partitions_of(n), _fixed_partition_counts(n, m))
            for i, c in row if i == j}


def test_fixed_partition_counts_match_the_fraction_oracle():
    for lam, n in _kernel_cases():
        assert all(type(c) is int for row in _fixed_partition_counts(n, sum(lam))
                   for _, c in row), (lam, n)
        assert n_column_as_plethysm(lam, n) == oracle_p_in_h_sum(lam, n), (lam, n)


def test_fixed_partition_counts_match_the_general_plethysm():
    h_sum = SymFunc("h", {(i,): 1 for i in range(1, KERNEL_N + 1)})
    for m in range(KERNEL_N + 1):
        for lam in partitions_of(m):
            full = plethysm(P(lam), h_sum, KERNEL_N)
            for n in range(m, KERNEL_N + 1):
                part = {nu: c for nu, c in full.terms.items() if sum(nu) == n}
                assert part == n_column_as_plethysm(lam, n), (lam, n)


def test_p_product_in_matches_the_fraction_oracle():
    for n in range(1, KERNEL_N + 1):
        assert dict(_p_in_h(n)) == oracle_p_in_h(n), n
    for n in range(KERNEL_N + 1):
        for lam in partitions_of(n):
            got = dict(_p_in("h", lam))
            assert all(type(v) is int for v in got.values()), lam
            assert got == oracle_p_product_in(lam), lam


def test_integer_kernels_build_no_fraction(monkeypatch):
    def refuse(*args):
        raise AssertionError(f"Fraction{args} built by an integer kernel")

    # symfunc binds the name at import; a function-local import reads the module
    monkeypatch.setattr(symfunc, "Fraction", refuse)
    monkeypatch.setattr(fractions, "Fraction", refuse)
    for kernel in (_p_in_h, _p_in, _block_orbit_counts, _fixed_partition_counts):
        kernel.cache_clear()
    for n in range(1, KERNEL_N):
        for m in range(1, n + 1):
            _fixed_partition_counts(n, m)
        for lam in partitions_of(n):
            _p_in("h", lam)
            _p_in("s", lam)
            _p_in("m", lam)


@pytest.mark.parametrize("basis", ["h", "s", "m"])
def test_tables_into_and_out_of_powersums_invert_each_other(basis):
    # sum over mu of [p_mu]B_lam [B_kappa]p_mu = delta(lam, kappa), the first
    # factor from _in_p and the second from the integer table _p_in
    for n in range(9):
        rows = {mu: dict(_p_in(basis, mu)) for mu in partitions_of(n)}
        assert all(type(v) is int for row in rows.values() for v in row.values()), n
        for lam in partitions_of(n):
            product = {}
            for mu, c in _in_p(basis, lam):
                for kappa, d in rows[mu].items():
                    product[kappa] = product.get(kappa, 0) + c * d
            assert {kappa: v for kappa, v in product.items() if v} == {lam: 1}, lam


def oracle_m_rows(n):
    """The monomial tables of degree n built row by row, each row from a new
    dict of every h row: by Hall duality [p_mu]m_lam = [h_lam]p_mu / z_mu
    and [m_lam]p_mu = z_mu [p_mu]h_lam."""
    into = {lam: tuple((mu, Fraction(c, zee(mu))) for mu in partitions_of(n)
                       if (c := dict(_p_in("h", mu)).get(lam)))
            for lam in partitions_of(n)}
    out = {mu: tuple((lam, c) for lam in partitions_of(n)
                     if (c := dict(_in_p("h", lam)).get(mu, 0) * zee(mu)))
           for mu in partitions_of(n)}
    return into, out


def test_monomial_tables_match_the_row_by_row_oracle():
    # the transposed h table and the count of boxes give the same rows, in
    # the same order
    for n in range(11):
        into, out = oracle_m_rows(n)
        assert {lam: _in_p("m", lam) for lam in partitions_of(n)} == into, n
        got = {mu: _p_in("m", mu) for mu in partitions_of(n)}
        assert got == out, n
        assert all(type(c) is int for row in got.values() for _, c in row), n


# ---------------------------------------------------------------------------
# N, the recurrence and the pairing

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


@pytest.mark.parametrize("n", range(1, 9))
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


def _oracle_plethysm_with_h_sum(f: SymFunc, n: int) -> SymFunc:
    """Degree-n part of f[h_1 + h_2 + ...] on the ``Fraction`` oracle."""
    acc = {}
    for lam, c in f.in_basis("p").terms.items():
        _add(acc, oracle_p_in_h_sum(lam, n), c)
    return SymFunc("p", acc)


@lru_cache(maxsize=None)
def _symfunc_recurrence(n: int, ranks: tuple[int, ...], homology: bool):
    """The named oracle: the recurrence on symmetric functions with rational
    coefficients, peeling the lowest rank by a plethysm into h_1 + h_2 + ..."""
    if not ranks:
        return H(n)
    s1 = ranks[0]
    inner = _symfunc_recurrence(n - s1, tuple(r - s1 for r in ranks[1:]), homology)
    result = _oracle_plethysm_with_h_sum(inner, n)
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
    oracle = inverse_characteristic(_symfunc_recurrence(n, ranks, homology), n)
    values = class_values(n, ranks, homology=homology)
    assert all(isinstance(v, int) for v in values)
    assert values == oracle


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
