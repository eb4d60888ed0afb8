"""The integer class-value recurrence and its integer tables against
independent oracles.

* the integer kernels of ``symfunc`` (``_p_in_h`` and ``_p_in``) against
  the ``Fraction`` tables they replaced, kept here as named oracles;
* N_{n,m}(nu, lam), counted by the walk over the cycles of nu in ``reps``,
  against a direct count of the set partitions fixed by one permutation of
  each cycle type; and N(nu, lam) z_lam / z_nu, the p_nu coefficient of
  p_lam[h_1 + h_2 + ...] in degree n, against the ``Fraction`` oracle of
  that plethysm and against the general truncated ``plethysm``;
* the expansions of h, s and m into powersums against ``_p_in``: for each
  basis the two are inverse matrices.  h comes from ``symfunc.from_h``;
  s and m, which no command expands into powersums, are kept here as the
  named oracles ``oracle_s_in_p`` and ``oracle_m_in_p``.  The m table is
  also checked against its row-by-row construction from the h expansion
  by Hall duality;
* alpha and beta class values against the symmetric-function recurrence,
  rebuilt here on the ``Fraction`` oracle of p_lam[h_1 + h_2 + ...];
* the integer pairing against the orthogonality of irreducible characters;
* the named modules (lie, Whitehouse, even-block, hooks) and restriction
  to the point stabilizer against their powersum constructions, kept here
  as the named oracles ``powersum``, ``sign_twist``, ``d_dp1``,
  ``hook_schur``, ``oracle_lie``, ``oracle_whitehouse`` and
  ``oracle_even_block``.
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
    characteristic,
    class_values,
    even_block_characteristic,
    even_block_multiplicity,
    hook_character,
    lie_character,
    rank_subsets,
    restriction,
    schur_multiplicity,
    whitehouse_module,
)
from parthom.setparts import act, canonical_permutation
from parthom.symfunc import (
    SymFunc,
    _h_in_p,
    _p_in,
    _p_in_h,
    _product,
    expansion,
    from_h,
    plethysm,
)
from test_chain_sums import set_partitions

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


def powersum(spec, coeff=1) -> SymFunc:
    """coeff p_spec."""
    return SymFunc({check_partition(spec): coeff})


def sign_twist(f: SymFunc) -> SymFunc:
    """omega, p_k -> (-1)^(k-1) p_k: the tensor product with the sign
    representation."""
    return SymFunc({lam: -c if (sum(lam) - len(lam)) % 2 else c for lam, c in f.terms.items()})


def d_dp1(f: SymFunc) -> SymFunc:
    """d/dp_1, restriction to the next smaller symmetric group: p_lam with m
    parts 1 goes to m p_lam' for lam' = lam less one part 1, its last part."""
    return SymFunc({lam[:-1]: lam.count(1) * c
                    for lam, c in f.terms.items() if lam and lam[-1] == 1})


def oracle_s_in_p(lam: tuple) -> dict:
    """s_lam in powersums: the sum over mu of chi^lam(mu) p_mu / z_mu."""
    return {mu: Fraction(chi, zee(mu))
            for mu in partitions_of(sum(lam)) if (chi := character(lam, mu))}


def oracle_m_in_p(lam: tuple) -> dict:
    """m_lam in powersums by Hall duality with h: <m_lam, p_mu> is the h_lam
    coefficient of p_mu, so [p_mu]m_lam = [h_lam]p_mu / z_mu."""
    return {mu: Fraction(c, zee(mu))
            for mu in partitions_of(sum(lam)) if (c := dict(_p_in("h", mu)).get(lam))}


IN_P = {"h": lambda lam: from_h({lam: 1}).terms, "s": oracle_s_in_p, "m": oracle_m_in_p}


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
    h_sum = from_h({(i,): 1 for i in range(1, KERNEL_N + 1)})
    for m in range(KERNEL_N + 1):
        for lam in partitions_of(m):
            full = plethysm(powersum(lam), h_sum, KERNEL_N)
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


def test_peeled_h_table_matches_the_product_over_every_part():
    # _p_in("h", mu) peels the first part of mu; _product multiplies the
    # Newton rows of all its parts, as the table was built before
    for n in range(13):
        for mu in partitions_of(n):
            assert dict(_p_in("h", mu)) == _product(_p_in_h, mu), mu


@st.composite
def degree_and_values(draw):
    """A degree n <= 8 and random integer class values over partitions_of(n)."""
    n = draw(st.integers(0, 8))
    size = len(partitions_of(n))
    return n, tuple(draw(st.lists(st.integers(-30, 30), min_size=size, max_size=size)))


@settings(max_examples=100, deadline=None)
@given(degree_and_values(), st.sampled_from("phesm"))
def test_expansion_rebuilds_the_class_values(case, basis):
    # each basis is checked by a route that reads no _p_in table
    n, values = case
    terms = expansion(n, values, basis).terms
    f = characteristic(n, values)
    if basis == "p":
        assert {nu: c * zee(nu) for nu, c in terms.items()} == {
            nu: v for nu, v in zip(partitions_of(n), values) if v}
    elif basis == "s":
        assert tuple(sum(c * character(lam, nu) for lam, c in terms.items())
                     for nu in partitions_of(n)) == values
    elif basis == "h":
        assert from_h(terms) == f
    elif basis == "e":
        # omega sends e_lam to h_lam
        assert from_h(terms) == sign_twist(f)
    else:
        # <m_lam, h_mu> is 1 when lam = mu and 0 otherwise
        assert terms == {lam: c for lam in partitions_of(n)
                         if (c := f.inner(from_h({lam: 1})))}


def test_integer_kernels_build_no_fraction(monkeypatch):
    def refuse(*args):
        raise AssertionError(f"Fraction{args} built by an integer kernel")

    # symfunc binds the name at import; a function-local import reads the module
    monkeypatch.setattr(symfunc, "Fraction", refuse)
    monkeypatch.setattr(fractions, "Fraction", refuse)
    for kernel in (_h_in_p, _p_in_h, _p_in, _block_orbit_counts, _fixed_partition_counts):
        kernel.cache_clear()
    for n in range(1, KERNEL_N):
        _h_in_p(n)
        for m in range(1, n + 1):
            _fixed_partition_counts(n, m)
        for lam in partitions_of(n):
            _p_in("h", lam)
            _p_in("s", lam)
            _p_in("m", lam)


@pytest.mark.parametrize("basis", ["h", "s", "m"])
def test_tables_into_and_out_of_powersums_invert_each_other(basis):
    # sum over mu of [p_mu]B_lam [B_kappa]p_mu = delta(lam, kappa), the first
    # factor from IN_P and the second from the integer table _p_in
    for n in range(9):
        rows = {mu: dict(_p_in(basis, mu)) for mu in partitions_of(n)}
        assert all(type(v) is int for row in rows.values() for v in row.values()), n
        for lam in partitions_of(n):
            product = {}
            for mu, c in IN_P[basis](lam).items():
                for kappa, d in rows[mu].items():
                    product[kappa] = product.get(kappa, 0) + c * d
            assert {kappa: v for kappa, v in product.items() if v} == {lam: 1}, lam


def oracle_p_in_m_rows(n):
    """The monomial table of degree n built row by row from the h expansion
    of every h_lam: by Hall duality [m_lam]p_mu = z_mu [p_mu]h_lam."""
    h = {lam: from_h({lam: 1}).terms for lam in partitions_of(n)}
    return {mu: tuple((lam, c) for lam in partitions_of(n) if (c := h[lam].get(mu, 0) * zee(mu)))
            for mu in partitions_of(n)}


def test_monomial_tables_match_the_row_by_row_oracle():
    # the h expansion and the count of boxes give the same rows, in the same
    # order
    for n in range(11):
        out = oracle_p_in_m_rows(n)
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
    for lam, c in f.terms.items():
        _add(acc, oracle_p_in_h_sum(lam, n), c)
    return SymFunc(acc)


@lru_cache(maxsize=None)
def _symfunc_recurrence(n: int, ranks: tuple[int, ...], homology: bool):
    """The named oracle: the recurrence on symmetric functions with rational
    coefficients, peeling the lowest rank by a plethysm into h_1 + h_2 + ..."""
    if not ranks:
        return from_h({(n,): 1})
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
    values = class_values(n, ranks, homology=homology)
    assert all(isinstance(v, int) for v in values)
    assert characteristic(n, values) == _symfunc_recurrence(n, ranks, homology)


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


def test_pairing_refuses_values_of_another_degree():
    values = class_values(6, (1, 3))
    with pytest.raises(ValueError, match=r"11 class values paired with s\(5,\), whose degree 5 has 7"):
        schur_multiplicity(values, (5,))
    with pytest.raises(ValueError, match="6 class values"):
        schur_multiplicity(values[:6], (6,))


def _values_of(f: SymFunc, n: int) -> tuple[int, ...]:
    """The class values terms[mu] z_mu of a module f of degree n."""
    values = tuple(f.terms.get(mu, 0) * zee(mu) for mu in partitions_of(n))
    assert all(v.denominator == 1 for v in values), n
    return tuple(map(int, values))


@pytest.mark.parametrize("n", range(1, 9))
def test_schur_coefficients_match_the_integer_pairing(n):
    # --basis s reads the table _p_in("s"), while --mult and the stability
    # report pair class values by schur_multiplicity; both read the
    # character table, and here they must agree on every module
    modules = [class_values(n, ranks, homology)
               for ranks in rank_subsets(range(1, n - 1)) for homology in (False, True)]
    modules.append(lie_character(n))
    modules += [whitehouse_module(n, k) for k in range(2, n)]
    for values in modules:
        expected = {lam: m for lam in partitions_of(n) if (m := schur_multiplicity(values, lam))}
        assert characteristic(n, values).in_basis("s").terms == expected, (n, values)


# ---------------------------------------------------------------------------
# the named modules against their powersum constructions

def _mobius(d: int) -> int:
    """The number-theoretic Moebius function, from sum over e | d of mu(e) = [d = 1]."""
    return 1 if d == 1 else -sum(_mobius(e) for e in range(1, d) if d % e == 0)


def hook_schur(n: int, k: int) -> SymFunc:
    """s_(n-k, 1^k) in powersums."""
    return SymFunc(oracle_s_in_p((n - k,) + (1,) * k))


def oracle_lie(n: int) -> SymFunc:
    """omega of (1/n) sum over d | n of mu(d) p_d^(n/d)."""
    return sign_twist(SymFunc({(d,) * (n // d): Fraction(_mobius(d), n)
                               for d in range(1, n + 1) if n % d == 0}))


def oracle_whitehouse(n: int, k: int) -> SymFunc:
    """lie(k) p_1^(n-k) - lie(n)."""
    return oracle_lie(k) * powersum((1,) * (n - k)) - oracle_lie(n)


def oracle_even_block(n: int) -> SymFunc:
    """sum_i b_i(n) h_2^i h_1^(2n-2i)."""
    return from_h({(2,) * i + (1,) * (2 * n - 2 * i): even_block_multiplicity(i, n)
                   for i in range(2, n + 1)})


@pytest.mark.parametrize("n", range(1, 11))
def test_named_modules_match_their_powersum_oracles(n):
    modules = [(lie_character(n), oracle_lie(n))]
    modules += [(whitehouse_module(n, k), oracle_whitehouse(n, k)) for k in range(2, n)]
    modules += [(hook_character(n, k), hook_schur(n, k)) for k in range(n)]
    for values, oracle in modules:
        assert all(type(v) is int for v in values)
        assert values == _values_of(oracle, n), (n, values)
        # restriction by the value at mu u (1) is d/dp_1
        assert restriction(n, values) == _values_of(d_dp1(oracle), n - 1), (n, values)
    if 4 <= 2 * n <= 16:
        assert even_block_characteristic(n) == _values_of(oracle_even_block(n), 2 * n), n


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(-50, 50), min_size=len(partitions_of(n)),
                         max_size=len(partitions_of(n))))))
def test_restriction_is_d_dp1_of_random_class_values(case):
    n, values = case
    expected = _values_of(d_dp1(characteristic(n, values)), n - 1)
    assert restriction(n, values) == expected
