import itertools
import json
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from parthom.chartable import character
from parthom.partitions import check_partition, partitions_of, zee
from parthom.symfunc import (
    SymFunc,
    from_h,
    plethysm,
    is_positive,
    plethysm_with_h_sum,
)
from test_class_values import d_dp1, oracle_m_in_p, oracle_s_in_p, powersum as P, sign_twist


# ---------------------------------------------------------------------------
# constructors that only tests use, each building powersum terms

def homogeneous(spec, coeff=1) -> SymFunc:
    return from_h({check_partition(spec): coeff})


def elementary(spec, coeff=1) -> SymFunc:
    """e_lam, a product of e_k = sum over mu |- k of (-1)^(k - len(mu)) p_mu / z_mu."""
    f = P((), coeff)
    for k in check_partition(spec):
        f = f * SymFunc({mu: Fraction((-1) ** (k - len(mu)), zee(mu)) for mu in partitions_of(k)})
    return f


def schur(spec, coeff=1) -> SymFunc:
    return SymFunc(oracle_s_in_p(check_partition(spec))) * coeff


def monomial(spec, coeff=1) -> SymFunc:
    return SymFunc(oracle_m_in_p(check_partition(spec))) * coeff


E, H, S, M = elementary, homogeneous, schur, monomial
CONSTRUCTORS = {"p": P, "h": H, "e": E, "s": S, "m": M}


def from_basis(basis: str, terms: dict) -> SymFunc:
    """The sum of c B_lam over the (lam, c) of *terms*, B the named basis."""
    total = SymFunc()
    for lam, c in terms.items():
        total = total + CONSTRUCTORS[basis](lam, c)
    return total


# ---------------------------------------------------------------------------
# oracles

def one() -> SymFunc:
    """The constant symmetric function 1."""
    return SymFunc({(): Fraction(1)})


def newton_h_in_p(n):
    """h_n in powersums via n h_n = sum p_i h_{n-i}, independent of the
    class-size formula used by the library."""
    hs = [{(): Fraction(1)}]
    for m in range(1, n + 1):
        acc = {}
        for i in range(1, m + 1):
            for lam, c in hs[m - i].items():
                key = tuple(sorted(lam + (i,), reverse=True))
                acc[key] = acc.get(key, 0) + c
        hs.append({k: v / m for k, v in acc.items()})
    return hs[n]


def monomial_count(mu, lam):
    """Coefficient of x^lam in p_mu: the maps from the parts of mu to
    len(lam) slots whose slot sums are lam."""
    count = 0
    for slots in itertools.product(range(len(lam)), repeat=len(mu)):
        sums = [0] * len(lam)
        for part, slot in zip(mu, slots):
            sums[slot] += part
        count += tuple(sums) == lam
    return count


def pair_partition_character():
    """Permutation character of the symmetric group on 4 points acting on
    the three partitions into two pairs, by direct orbit counting."""
    import itertools

    pairs = [((1, 2), (3, 4)), ((1, 3), (2, 4)), ((1, 4), (2, 3))]

    def act(perm, pp):
        mapped = [tuple(sorted(perm[x - 1] for x in block)) for block in pp]
        return tuple(sorted(mapped))

    def cycle_type(perm):
        seen, out = set(), []
        for start in range(1, 5):
            if start in seen:
                continue
            length, x = 0, start
            while x not in seen:
                seen.add(x)
                x = perm[x - 1]
                length += 1
            out.append(length)
        return tuple(sorted(out, reverse=True))

    values = {}
    for perm in itertools.permutations(range(1, 5)):
        fixed = sum(1 for pp in pairs if act(perm, pp) == pp)
        values.setdefault(cycle_type(perm), fixed)
    return values


# ---------------------------------------------------------------------------
# conversions

def test_h2_in_p_matches_newton_oracle():
    assert H(2).terms == newton_h_in_p(2)
    assert H(5).terms == newton_h_in_p(5)


def test_single_row_schur_is_h():
    for n in range(1, 7):
        assert S(n) == H(n)


def test_e_is_the_single_column_schur_function():
    # the Schur side comes from characters, not from the omega twist of h
    for n in range(1, 9):
        assert E(n) == S((1,) * n)


def test_powersum_in_monomials_matches_brute_force_count():
    for n in range(1, 7):
        for mu in partitions_of(n):
            got = P(mu).in_basis("m")
            for lam in partitions_of(n):
                assert got.terms.get(lam, 0) == monomial_count(mu, lam), (mu, lam)
            # and m back to p inverts the checked table
            assert from_basis("m", got.terms) == P(mu)


def test_e2_in_h():
    assert E(2).in_basis("h").terms == {(1, 1): 1, (2,): -1}


def test_h_to_s_has_kostka_positivity():
    for n in range(1, 9):
        for lam in partitions_of(n):
            coeffs = H(lam).in_basis("s").terms
            assert all(c.denominator == 1 and c > 0 for c in coeffs.values()), lam
            assert coeffs[lam] == 1


def test_character_table_orthogonality():
    n = 5
    parts = partitions_of(n)
    for lam in parts:
        for mu in parts:
            total = sum(
                Fraction(character(lam, nu) * character(mu, nu), zee(nu))
                for nu in parts
            )
            assert total == (1 if lam == mu else 0)


# ---------------------------------------------------------------------------
# products

def test_powersum_multiplicativity():
    assert P(2) * P(3) == P([3, 2])


def test_h1_squared():
    assert H(1) * H(1) == H([1, 1])
    assert (H(1) * H(1)).in_basis("s").terms == {(2,): 1, (1, 1): 1}


def test_multiplication_by_zero():
    f = H([2, 1])
    assert (f * SymFunc({})).terms == {}


def test_degree_of_product():
    f, g = H([2, 1]), E([3, 1])
    assert {sum(lam) for lam in (f * g).terms} == {7}


def test_commutative_associative():
    f, g, h = H(2), E([1, 1]), P(3)
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)


# ---------------------------------------------------------------------------
# plethysm

def test_plethysm_identity():
    g = H([3, 1]) - 2 * E(2)
    assert plethysm(H(1), g, 5) == g


def test_plethysm_powersums():
    assert plethysm(P(2), P(3), 6) == P(6)


def test_plethysm_h2_h2():
    assert plethysm(H(2), H(2), 4).in_basis("s").terms == {(4,): 1, (2, 2): 1}


def test_plethysm_h2_h2_against_orbit_character_oracle():
    values = pair_partition_character()
    f = plethysm(H(2), H(2), 4).terms
    for mu in partitions_of(4):
        assert f.get(mu, Fraction(0)) * zee(mu) == values[mu]


def test_plethysm_rejects_constant_term():
    with pytest.raises(ValueError):
        plethysm(H(2), one(), 4)


def test_plethysm_with_h_sum_examples():
    assert plethysm_with_h_sum(H(1), 2) == H(2)
    assert plethysm_with_h_sum(P(1), 5) == H(5)
    # degree-3 part of h_2 composed with the h series; cross-check by
    # composing with the explicit truncated series
    g = H(1) + H(2) + H(3)
    truncated = plethysm(H(2), g, 3).terms
    assert plethysm_with_h_sum(H(2), 3).terms == {
        lam: c for lam, c in truncated.items() if sum(lam) == 3}


@st.composite
def symfuncs(draw):
    """Random f of degree <= 6 with rational coefficients, built in the p, h or s basis."""
    basis = draw(st.sampled_from("phs"))
    lams = draw(st.lists(
        st.integers(0, 6).flatmap(lambda d: st.sampled_from(partitions_of(d))),
        max_size=4))
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    return from_basis(basis, {lam: draw(coeffs) for lam in lams})


@settings(max_examples=60, deadline=None)
@given(symfuncs(), st.integers(0, 9))
def test_plethysm_with_h_sum_matches_truncated_plethysm(f, n):
    g = sum((H(i) for i in range(1, n + 1)), SymFunc())
    truncated = plethysm(f, g, n).terms
    assert plethysm_with_h_sum(f, n).terms == {
        lam: c for lam, c in truncated.items() if sum(lam) == n}


# ---------------------------------------------------------------------------
# inner product, twist

def test_inner_product_powersums():
    assert P([2, 1]).inner(P([2, 1])) == 2
    assert P([2, 1]).inner(P([3])) == 0


def test_schur_orthonormality_degree_4():
    for lam in partitions_of(4):
        for mu in partitions_of(4):
            assert S(lam).inner(S(mu)) == (1 if lam == mu else 0)


def test_heterogeneous_degrees_pair_to_zero():
    assert H(3).inner(H(2)) == 0


def test_h_s_pairing():
    assert H(3).inner(S(3)) == 1


def test_sign_twist_h_to_e():
    for n in range(1, 7):
        assert sign_twist(H(n)) == E(n)


def test_sign_twist_involution():
    f = H([3, 2]) - 5 * P([4, 1])
    assert sign_twist(sign_twist(f)) == f


def test_sign_twist_self_conjugate_schur():
    assert sign_twist(S([2, 1])) == S([2, 1])
    assert sign_twist(S([3, 1])) == S([2, 1, 1])


def test_d_dp1():
    p1 = P(1)
    assert d_dp1(p1 * p1 * p1) == 3 * P([1, 1])
    assert d_dp1(P(2)).terms == {}
    # d/dp_1 is the adjoint of multiplication by p_1
    for f in (H(3), H([2, 1])):
        for nu in partitions_of(2):
            assert d_dp1(f).inner(S(nu)) == f.inner(P(1) * S(nu))


# ---------------------------------------------------------------------------
# positivity

def test_positivity_h2e2():
    # integral but negative in h
    f = H(2) * E(2)
    assert f.in_basis("h").terms == {(2, 1, 1): 1, (2, 2): -1}
    assert not is_positive(f.in_basis("h"))
    # Pieri: adding a horizontal 2-strip to the column (1,1) gives exactly
    # the shapes (3,1) and (2,1,1)
    assert f.in_basis("s").terms == {(3, 1): 1, (2, 1, 1): 1}
    assert is_positive(f.in_basis("s"))


def test_positivity_of_a_fraction():
    # nonnegative but not integral in h
    assert not is_positive((H(2) * Fraction(1, 2)).in_basis("h"))
    assert is_positive((H(2) * 2).in_basis("h"))


def test_positivity_of_zero():
    assert is_positive(SymFunc({}).in_basis("h"))


def test_unknown_basis_is_refused():
    for f in (SymFunc({}), H(2)):
        with pytest.raises(ValueError):
            f.in_basis("x")


# ---------------------------------------------------------------------------
# serialization and misc

def test_json_round_trip():
    f = Fraction(3, 2) * H([2, 1]) - P(4)
    for basis in CONSTRUCTORS:
        data = json.loads(json.dumps(f.in_basis(basis).to_json_dict()))
        assert data["basis"] == basis
        terms = {tuple(t["partition"]): Fraction(t["coeff"]) for t in data["terms"]}
        assert from_basis(basis, terms) == f


def test_json_term_order_and_coeff_strings():
    f = H([1, 1]) + Fraction(1, 3) * H(2) + H(4)
    data = f.in_basis("h").to_json_dict()
    assert data["basis"] == "h"
    assert [t["partition"] for t in data["terms"]] == [[2], [1, 1], [4]]
    assert data["terms"][0]["coeff"] == "1/3"


def dimension(f: SymFunc) -> Fraction:
    """Character value at the identity: n! times the p_(1^n) coefficient,
    summed over homogeneous components (degree 0 contributes its constant)."""
    degrees = {sum(lam) for lam in f.terms}
    return sum((f.terms.get((1,) * n, 0) * factorial(n) for n in degrees), Fraction(0))


def test_dimension():
    assert dimension(H([2, 1, 1])) == 12
    assert dimension(S([2, 2])) == character((2, 2), (1, 1, 1, 1)) == 2
    assert dimension(one()) == 1


def test_no_zero_terms_stored():
    f = H(2) - H(2)
    assert f.terms == {}
    g = SymFunc({(2,): 0, (1, 1): 1})
    assert (2,) not in g.terms


@pytest.mark.parametrize("value", [0.1, 1.0, float("nan"), "1/2", 1j])
def test_refuses_coefficients_that_are_not_rational(value):
    # Fraction(0.1) would keep the float's binary expansion, 3602879701896397/2**55
    with pytest.raises(TypeError):
        SymFunc({(1,): value})
    with pytest.raises(TypeError):
        P(1, value)
    with pytest.raises(TypeError):
        H(1) * value


# ---------------------------------------------------------------------------
# property tests

def small_partitions(max_weight):
    return [lam for d in range(max_weight + 1) for lam in partitions_of(d)]


sym_funcs = st.builds(
    lambda basis, pairs: from_basis(basis, dict(pairs)),
    st.sampled_from(["p", "h", "e", "s", "m"]),
    st.lists(
        st.tuples(
            st.sampled_from(small_partitions(8)),
            st.fractions(min_value=-5, max_value=5, max_denominator=4),
        ),
        max_size=4,
    ),
)


@settings(max_examples=100, deadline=None)
@given(sym_funcs, st.sampled_from(["p", "h", "e", "s", "m"]))
def test_round_trip_conversion_is_identity(f, basis):
    # the coefficients read out in the basis rebuild f through the oracles
    assert from_basis(basis, f.in_basis(basis).terms) == f


positive_p_polys = st.builds(
    lambda pairs: SymFunc(dict(pairs)),
    st.lists(
        st.tuples(
            st.sampled_from([lam for d in range(1, 4) for lam in partitions_of(d)]),
            st.integers(min_value=1, max_value=3),
        ),
        min_size=1,
        max_size=2,
    ),
)


@settings(max_examples=40, deadline=None)
@given(positive_p_polys, positive_p_polys, positive_p_polys)
def test_plethysm_associativity(f, g, h):
    bound = 18
    lhs = plethysm(f, plethysm(g, h, bound), bound)
    rhs = plethysm(plethysm(f, g, bound), h, bound)
    assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(sym_funcs)
def test_sign_twist_is_involution(f):
    assert sign_twist(sign_twist(f)) == f
