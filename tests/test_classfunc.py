from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from parthom.classfunc import ClassFunction
from parthom.partitions import partitions_of, zee
from parthom.reps import characteristic
from parthom.symfunc import SymFunc
from test_symfunc import H, P, S


# ---------------------------------------------------------------------------
# oracles

def inverse_characteristic(f, n: int) -> tuple:
    """Test oracle, the inverse Frobenius map: the class values z_mu [p_mu] f
    over ``partitions_of(n)`` of a function *f* homogeneous of degree *n*."""
    degrees = sorted({sum(lam) for lam in f.terms})
    if any(d != n for d in degrees):
        raise ValueError(f"need a function homogeneous of degree {n}, degrees {degrees}")
    return tuple(f.terms.get(mu, 0) * zee(mu) for mu in partitions_of(n))


def supported_on_involutions(f, n: int) -> bool:
    """True when the class values of *f* vanish on every class with a cycle
    longer than 2."""
    return all(v == 0 for mu, v in zip(partitions_of(n), inverse_characteristic(f, n))
               if mu[0] > 2)


def test_round_trip_through_characteristic():
    values = (1, -1, 3)
    assert inverse_characteristic(characteristic(3, values), 3) == values
    cf = ClassFunction(3, dict(zip(partitions_of(3), values)))
    assert cf.characteristic() == characteristic(3, values)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 7).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(-50, 50), min_size=len(partitions_of(n)),
                         max_size=len(partitions_of(n))))))
def test_characteristic_round_trips_random_integer_values(case):
    n, values = case
    assert inverse_characteristic(characteristic(n, values), n) == tuple(values)


def test_characteristic_of_trivial_character():
    assert characteristic(4, [1] * len(partitions_of(4))) == H(4)
    cf = ClassFunction(4, {mu: 1 for mu in partitions_of(4)})
    assert cf.characteristic() == H(4)


def test_regular_representation():
    values = inverse_characteristic(P([1, 1, 1]), 3)
    assert values == (0, 0, 6)


def test_schur_gives_irreducible_character():
    from parthom.chartable import character

    values = inverse_characteristic(S([2, 2]), 4)
    assert values == tuple(character((2, 2), mu) for mu in partitions_of(4))


def test_values_filled_with_zeros():
    cf = ClassFunction(3, {(3,): 1})
    assert cf.values[(2, 1)] == 0
    assert set(cf.values) == set(partitions_of(3))


def test_rejects_bad_keys():
    with pytest.raises(ValueError):
        ClassFunction(3, {(2,): 1})


def test_from_characteristic_needs_homogeneous():
    with pytest.raises(ValueError):
        inverse_characteristic(H(2) + H(3), 2)


def test_integrality_checks():
    good = inverse_characteristic(H([2, 1]), 3)
    assert all(v.denominator == 1 and v >= 0 for v in good)
    bad = inverse_characteristic(SymFunc({(2,): Fraction(1, 4), (1, 1): 1}), 2)
    assert bad[0].denominator != 1


def test_involution_support_predicate():
    assert supported_on_involutions(characteristic(4, (0, 0, 5, 0, 7)), 4)
    assert not supported_on_involutions(characteristic(4, (0, 1, 0, 0, 0)), 4)


def test_arithmetic():
    assert inverse_characteristic(2 * H(3), 3)[0] == 2


def test_inner_product_against_symfunc_pairing():
    # <chi, psi> = (1/n!) sum over group = sum over classes of values / zee
    a = inverse_characteristic(H([2, 1]), 3)
    b = inverse_characteristic(S([2, 1]), 3)
    pairing = sum(x * y / Fraction(zee(mu)) for mu, x, y in zip(partitions_of(3), a, b))
    assert pairing == H([2, 1]).inner(S([2, 1])) == 1


@pytest.mark.parametrize("value", [0.1, 1.0, float("nan"), "1/2", 1j])
def test_refuses_values_that_are_not_rational(value):
    # Fraction(0.1) would keep the float's binary expansion
    with pytest.raises(TypeError):
        ClassFunction(2, {(2,): value, (1, 1): 1})
    with pytest.raises(TypeError):
        characteristic(2, (value, 1))
