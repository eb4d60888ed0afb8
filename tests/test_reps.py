import itertools
from fractions import Fraction
from math import factorial

import pytest

from parthom.chartable import character
from parthom.classfunc import ClassFunction
from parthom.errors import FeasibilityError
from parthom.reps import (
    chain_characteristic,
    ek_number,
    euler_number,
    even_block_characteristic,
    even_block_multiplicity,
    homology_characteristic,
    lie_character,
    multiplicities,
    simsun,
    whitehouse_module,
)
from parthom.symfunc import SymFunc, positivity
from test_poset import stirling2
from test_symfunc import E, H, P, S


def zigzag_oracle(n):
    """Alternating permutations counted directly."""
    if n == 0:
        return 1
    count = 0
    for perm in itertools.permutations(range(1, n + 1)):
        good = all(
            (perm[i] > perm[i + 1]) == (i % 2 == 0) for i in range(n - 1)
        )
        count += good
    return count


def all_rank_sets(n):
    for size in range(n - 1):
        yield from itertools.combinations(range(1, n - 1), size)


# ---------------------------------------------------------------------------
# chain modules

def test_alpha_empty_rank_set_is_trivial_module():
    for n in (3, 5, 7):
        assert chain_characteristic(n, ()) == H(n)


def test_alpha_full_example_degree_4():
    alpha = chain_characteristic(4, (1, 2))
    assert alpha == H([2, 1, 1]) + H([2, 2])
    assert alpha.dimension() == 18


def test_alpha_single_rank_is_sum_over_block_types():
    # rank 2 on 5 points: types (3,1,1) and (2,2,1), with wreath stabilizers
    from parthom.symfunc import plethysm

    alpha = chain_characteristic(5, (2,))
    expected = H(3) * H(2) + H(1) * plethysm(H(2), H(2), 4)
    assert alpha == expected


def test_alpha_methods_agree():
    for n in range(3, 7):
        for S in all_rank_sets(n):
            assert chain_characteristic(n, S, "chains") == chain_characteristic(
                n, S, "recurrence"
            ), (n, S)


def test_methods_agree_sampled_at_degree_7():
    for S in ((2, 4), (1, 3, 5), (3,)):
        assert chain_characteristic(7, S, "chains") == chain_characteristic(
            7, S, "recurrence"
        ), S
        assert homology_characteristic(7, S, "chains") == homology_characteristic(
            7, S, "recurrence"
        ), S


def test_alpha_trivial_multiplicity_is_euler():
    for n in range(3, 8):
        alpha = chain_characteristic(n, range(1, n - 1))
        assert alpha.inner(H(n)) == euler_number(n - 1)


def test_alpha_is_a_permutation_character():
    # orbits of chains can have wreath-product stabilizers (two equal blocks
    # may swap), so alpha need not be h-positive: alpha(5, {2}) is the
    # smallest counterexample.  What always holds: the character values are
    # nonnegative integers, and the module is Schur positive.
    for n in range(3, 7):
        for S in all_rank_sets(n):
            f = chain_characteristic(n, S)
            values = ClassFunction.from_characteristic(f).values.values()
            assert all(v.denominator == 1 and v >= 0 for v in values), (n, S)
            assert positivity(f, "s").ok, (n, S)
    assert not positivity(chain_characteristic(5, (2,)), "h").nonnegative


def test_alpha_full_selection_is_h_positive():
    for n in range(3, 8):
        assert positivity(chain_characteristic(n, range(1, n - 1)), "h").ok


def test_alpha_character_supported_on_involutions():
    cf = ClassFunction.from_characteristic(chain_characteristic(7, range(1, 6)))
    assert cf.supported_on_involutions()


def test_invalid_rank_set_rejected():
    with pytest.raises(ValueError):
        chain_characteristic(5, (4,))
    with pytest.raises(FeasibilityError):
        chain_characteristic(17, (1,))


# ---------------------------------------------------------------------------
# homology modules

def test_beta_full_is_twisted_cyclic_induction():
    for n in range(3, 8):
        assert homology_characteristic(n, range(1, n - 1)) == lie_character(n)


def test_beta_antichain():
    for n in (4, 5, 6):
        for s in (1, n - 2):
            beta = homology_characteristic(n, (s,))
            alpha = chain_characteristic(n, (s,))
            assert beta == alpha - H(n)


def test_beta_methods_agree():
    for n in range(3, 7):
        for S in all_rank_sets(n):
            rec = homology_characteristic(n, S, "recurrence")
            ie = homology_characteristic(n, S, "inclusion_exclusion")
            ch = homology_characteristic(n, S, "chains")
            assert rec == ie == ch, (n, S)


def test_beta_sum_rule():
    for n in range(3, 7):
        for S in all_rank_sets(n):
            total = SymFunc("p", {})
            for size in range(len(S) + 1):
                for T in itertools.combinations(S, size):
                    total = total + homology_characteristic(n, T)
            assert total == chain_characteristic(n, S), (n, S)


def test_beta_is_schur_positive():
    for n in range(3, 7):
        for S in all_rank_sets(n):
            assert positivity(homology_characteristic(n, S), "s").ok, (n, S)


def test_beta_dimension_recurrence():
    # d(S, n) + d(S minus its minimum, n) = d(S - s1, n - s1) S(n, n - s1)
    n = 6
    for S in all_rank_sets(n):
        if not S:
            continue
        s1 = S[0]
        lhs = homology_characteristic(n, S).dimension() + homology_characteristic(
            n, S[1:]
        ).dimension()
        shifted = tuple(r - s1 for r in S[1:])
        rhs = homology_characteristic(n - s1, shifted).dimension() * stirling2(n, n - s1)
        assert lhs == rhs, S


def test_beta_validation_catches_non_modules():
    assert not positivity(H(3) - 2 * H([1, 1, 1]), "s").ok


# ---------------------------------------------------------------------------
# the top homology of the full lattice

def test_lie_character_dimensions():
    for n in range(2, 9):
        assert lie_character(n).dimension() == factorial(n - 1)


def test_lie_character_small_values():
    assert lie_character(2) == H(2)
    # degree 3: the twist of (p_1^3 - p_3)/3
    expected = (P([1, 1, 1]) - P(3)) * Fraction(1, 3)
    assert lie_character(3) == expected.sign_twist()


def test_lie_restriction_is_regular_representation():
    for n in range(3, 8):
        restricted = lie_character(n).d_dp1()
        assert restricted == P((1,) * (n - 1))
        coeffs = restricted.in_basis("s").terms
        for lam, c in coeffs.items():
            assert c == character(lam, (1,) * (n - 1))


def test_lie_character_schur_positive():
    cert = positivity(lie_character(5), "s")
    assert cert.ok
    assert sum(c * S(lam).dimension() for lam, c in cert.coefficients.items()) == 24


# ---------------------------------------------------------------------------
# multiplicities

def test_multiplicities_missing_table_entry():
    m = multiplicities(7, (2, 4, 5))
    assert (m.b, m.b_prime) == (5, 23)


def test_multiplicities_initial_segments_vanish():
    for n in range(4, 8):
        for i in range(1, n - 1):
            assert multiplicities(n, tuple(range(1, i + 1))).b == 0


def test_multiplicities_empty_set():
    m = multiplicities(6, ())
    assert (m.a, m.b) == (1, 1)
    assert (m.a_prime, m.b_prime) == (1, 1)


def test_a_prime_at_least_a():
    for n in range(4, 7):
        for S in all_rank_sets(n):
            m = multiplicities(n, S)
            assert m.a_prime >= m.a and m.b_prime >= m.b


# ---------------------------------------------------------------------------
# integer sequences

def test_euler_numbers_series():
    assert [euler_number(i) for i in range(7)] == [1, 1, 1, 2, 5, 16, 61]


def test_euler_numbers_against_alternating_permutations():
    for n in range(0, 9):
        assert euler_number(n) == zigzag_oracle(n)


def test_euler_refinement_sums():
    for n in range(4, 8):
        ms = [multiplicities(n, S) for S in all_rank_sets(n)]
        assert sum(m.b for m in ms) == euler_number(n - 1)
        assert sum(m.b_prime for m in ms) == euler_number(n)


def test_simsun_values():
    assert simsun(1, 4) == 1 and simsun(2, 4) == 1
    assert simsun(0, 1) == 1 and simsun(1, 2) == 1
    assert simsun(0, 3) == 0
    assert simsun(3, 5) == 0  # support bound 2i <= n


def test_simsun_row_sums_are_euler():
    for n in range(2, 10):
        assert sum(simsun(i, n) for i in range(n // 2 + 1)) == euler_number(n - 1)


def test_simsun_orbit_decomposition():
    for n in range(4, 8):
        alpha = chain_characteristic(n, range(1, n - 1))
        total = SymFunc("p", {})
        for i in range(1, n // 2 + 1):
            c = simsun(i, n)
            if c:
                total = total + Fraction(c) * H([2] * i + [1] * (n - 2 * i))
        assert alpha == total, n


# ---------------------------------------------------------------------------
# even-block machinery

def test_even_block_multiplicity_base_row():
    assert all(even_block_multiplicity(2, n) == 1 for n in range(2, 11))


def test_even_block_multiplicity_small_values():
    assert even_block_multiplicity(3, 3) == 2
    assert even_block_multiplicity(i=1, n=5) == 0
    assert even_block_multiplicity(5, 4) == 0


def test_even_block_multiplicity_positive():
    for n in range(2, 13):
        for i in range(2, n + 1):
            assert even_block_multiplicity(i, n) > 0, (i, n)


def test_even_block_characteristic_smallest():
    assert even_block_characteristic(2) == H([2, 2])


def test_even_block_agrees_with_rank_selection():
    # every n that `sf --family reven` serves: 2n up to the degree bound 16
    for n in range(2, 9):
        r = even_block_characteristic(n)
        assert r == homology_characteristic(2 * n, range(2, 2 * n - 1, 2)), n


def test_even_block_character_vanishes_off_involutions():
    # no Schur conversion involved, so the large degrees stay cheap
    for n in range(2, 8):
        cf = ClassFunction.from_characteristic(even_block_characteristic(n))
        assert cf.supported_on_involutions(), n


def test_alpha_full_supported_on_involutions_up_to_7():
    for n in range(3, 8):
        cf = ClassFunction.from_characteristic(chain_characteristic(n, range(1, n - 1)))
        assert cf.supported_on_involutions(), n


def test_even_block_dimension_is_subposet_betti():
    from parthom.poset import parse_view
    from parthom.topology import view_homology

    for n in (2, 3):
        r = even_block_characteristic(n)
        hom = view_homology(parse_view(2 * n, "even"))
        assert hom.nonzero_degrees() == [n - 2]
        assert hom.betti[n - 2] == r.dimension()


def test_ek_numbers_nonnegative_and_identity():
    for n in range(2, 7):
        r = even_block_characteristic(n)
        total = SymFunc("p", {})
        for i in range(2, n + 1):
            c = ek_number(i, n)
            assert c >= 0, (i, n)
            if c:
                total = total + Fraction(c) * (H([2] * i) * E([2] * (n - i) if n > i else []))
        assert r == total, n


# ---------------------------------------------------------------------------
# Whitehouse modules

def test_whitehouse_restriction_at_top_parameter():
    for n in range(4, 8):
        assert whitehouse_module(n, n - 1).d_dp1() == lie_character(n - 1)


def test_whitehouse_restriction_general():
    for n in range(4, 8):
        for k in range(2, n - 1):
            lhs = whitehouse_module(n, k).d_dp1()
            rhs = Fraction(n - k) * lie_character(k) * P((1,) * (n - k - 1))
            assert lhs == rhs, (n, k)


def test_whitehouse_schur_positive():
    for n in range(3, 8):
        for k in range(2, n):
            assert positivity(whitehouse_module(n, k), "s").ok, (n, k)


def test_whitehouse_dimension():
    for n in range(3, 8):
        for k in range(2, n):
            expected = factorial(k - 1) * factorial(n) // factorial(k) - factorial(n - 1)
            assert whitehouse_module(n, k).dimension() == expected


def test_whitehouse_bounds():
    with pytest.raises(ValueError):
        whitehouse_module(5, 5)
    with pytest.raises(ValueError):
        whitehouse_module(5, 1)
