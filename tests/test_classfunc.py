from fractions import Fraction

import pytest

from parthom.classfunc import ClassFunction
from parthom.partitions import partitions_of, zee
from test_symfunc import H, P, S


def test_round_trip_through_characteristic():
    cf = ClassFunction(3, {(3,): 1, (2, 1): -1, (1, 1, 1): 3})
    assert ClassFunction.from_characteristic(cf.characteristic()) == cf


def test_characteristic_of_trivial_character():
    cf = ClassFunction(4, {mu: 1 for mu in partitions_of(4)})
    assert cf.characteristic() == H(4)


def test_regular_representation():
    cf = ClassFunction.from_characteristic(P([1, 1, 1]))
    assert cf.dimension() == 6
    assert cf.values[(2, 1)] == 0 and cf.values[(3,)] == 0


def test_schur_gives_irreducible_character():
    from parthom.chartable import character

    cf = ClassFunction.from_characteristic(S([2, 2]))
    for mu in partitions_of(4):
        assert cf.values[mu] == character((2, 2), mu)


def test_values_filled_with_zeros():
    cf = ClassFunction(3, {(3,): 1})
    assert cf.values[(2, 1)] == 0
    assert set(cf.values) == set(partitions_of(3))


def test_rejects_bad_keys():
    with pytest.raises(ValueError):
        ClassFunction(3, {(2,): 1})


def test_from_characteristic_needs_homogeneous():
    with pytest.raises(ValueError):
        ClassFunction.from_characteristic(H(2) + H(3))


def test_integrality_checks():
    good = ClassFunction.from_characteristic(H([2, 1]))
    assert all(v.denominator == 1 and v >= 0 for v in good.values.values())
    bad = ClassFunction(2, {(2,): Fraction(1, 2), (1, 1): 1})
    assert bad.values[(2,)].denominator != 1


def test_involution_support_predicate():
    assert ClassFunction(4, {(2, 2): 5, (1, 1, 1, 1): 7}).supported_on_involutions()
    assert not ClassFunction(4, {(3, 1): 1}).supported_on_involutions()


def test_arithmetic():
    a = ClassFunction.from_characteristic(H(3))
    assert (2 * a).values[(3,)] == 2


def test_inner_product_against_symfunc_pairing():
    # <chi, psi> = (1/n!) sum over group = sum over classes of values / zee
    a = ClassFunction.from_characteristic(H([2, 1]))
    b = ClassFunction.from_characteristic(S([2, 1]))
    pairing = sum(
        a.values[mu] * b.values[mu] / Fraction(zee(mu)) for mu in partitions_of(3)
    )
    assert pairing == H([2, 1]).inner(S([2, 1])) == 1


@pytest.mark.parametrize("value", [0.1, 1.0, float("nan"), "1/2", 1j])
def test_refuses_values_that_are_not_rational(value):
    # Fraction(0.1) would keep the float's binary expansion
    with pytest.raises(TypeError):
        ClassFunction(2, {(2,): value, (1, 1): 1})
    with pytest.raises(TypeError):
        ClassFunction(2, {(1, 1): 1}) * value
