from fractions import Fraction
from itertools import combinations
from math import factorial, gcd

import pytest
from hypothesis import given, settings, strategies as st

from parthom.errors import ConcentrationError, FeasibilityError
from parthom.partitions import partitions_of
from parthom.poset import PosetView, parse_view, rank_selected_view
from parthom.reps import homology_characteristic, lie_character
from parthom.snf import SparseIntMatrix, invariant_factors, reduce_columns
from parthom.topology import (
    concentrated_character,
    homology,
    lefschetz_class_function,
    mobius_number,
    order_complex,
    view_homology,
)
from test_homology_reduction import boundary_matrix, columns_of, reduced_euler


# ---------------------------------------------------------------------------
# Smith normal form on its own

def mat(rows):
    return SparseIntMatrix(len(rows), columns_of(rows, len(rows[0]) if rows else 0))


def test_snf_known_matrices():
    assert invariant_factors(mat([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])) == [2, 2, 156]
    assert invariant_factors(mat([[1, 0], [0, 1]])) == [1, 1]
    assert invariant_factors(mat([[0, 0], [0, 0]])) == []
    assert invariant_factors(mat([[6]])) == [6]
    assert invariant_factors(mat([[2, 0], [0, 3]])) == [1, 6]


def test_snf_rank_only_rectangular():
    assert invariant_factors(mat([[1, 2, 3], [2, 4, 6]])) == [1]


def test_snf_divisibility_chain():
    factors = invariant_factors(mat([[4, 0, 0], [0, 6, 0], [0, 0, 9]]))
    assert factors == [1, 6, 36]
    for a, b in zip(factors, factors[1:]):
        assert b % a == 0


def det(rows):
    if len(rows) == 1:
        return rows[0][0]
    return sum((-1) ** j * rows[0][j] * det([r[:j] + r[j + 1:] for r in rows[1:]])
               for j in range(len(rows)) if rows[0][j])


def determinantal_factors(rows):
    """Invariant factors by definition, independently of any elimination:
    d_k is the gcd of the k x k minors and factor k is d_k / d_(k-1)."""
    out, prev = [], 1
    for k in range(1, min(len(rows), len(rows[0])) + 1):
        d = 0
        for r in combinations(range(len(rows)), k):
            for c in combinations(range(len(rows[0])), k):
                d = gcd(d, det([[rows[i][j] for j in c] for i in r]))
        if not d:
            break
        out.append(d // prev)
        prev = d
    return out


@st.composite
def small_matrices(draw):
    # without units the whole matrix reaches the phase-2 reduction; with them,
    # fill-in can still leave a residual that does
    values = draw(st.sampled_from([
        [v for v in range(-6, 7) if v],
        [v for v in range(-6, 7) if abs(v) > 1],
    ]))
    density = draw(st.integers(1, 10))
    nrows, ncols = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    return [[draw(st.sampled_from(values)) if draw(st.integers(1, 10)) <= density else 0
             for _ in range(ncols)] for _ in range(nrows)]


@settings(max_examples=300, deadline=None)
@given(small_matrices())
def test_snf_matches_determinantal_divisors(rows):
    expected = determinantal_factors(rows)
    m = mat(rows)
    assert invariant_factors(m) == expected
    # the argument is left as it was, so the reduction can consume it next
    assert m.columns == mat(rows).columns
    factors, _ = reduce_columns(m.columns)
    assert factors == expected


# ---------------------------------------------------------------------------
# order complexes

def test_pi3_is_three_points():
    cc = order_complex(parse_view(3, "full"))
    assert cc.f_vector() == {-1: 1, 0: 3}
    hom = homology(cc)
    assert hom.betti == {0: 2}
    assert hom.is_free()


def test_pi4_complex_and_homology():
    cc = order_complex(parse_view(4, "full"))
    # 13 proper elements; edges are the comparable cross-rank pairs, which
    # are exactly the 18 maximal chains
    assert cc.f_vector() == {-1: 1, 0: 13, 1: 18}
    hom = homology(cc)
    assert hom.betti == {0: 0, 1: 6}


def test_empty_view_complex():
    cc = order_complex(rank_selected_view(5, []))
    assert cc.f_vector() == {-1: 1}
    hom = homology(cc)
    assert hom.betti == {-1: 1}
    assert reduced_euler(hom) == -1


def oracle_faces(view):
    """Oracle: every chain kept as a tuple, and each face row looked up in a
    dict keyed by the chains of the level below."""
    succ = {}
    level = [(i,) for i in range(len(view))]
    faces = [[(0,)] * len(level)] if level else []
    while level:
        for c in level:
            if c[-1] not in succ:
                succ[c[-1]] = view.above(c[-1])
        index = {c: k for k, c in enumerate(level)}
        level = [c + (j,) for c in level for j in succ[c[-1]]]
        if level:
            faces.append([tuple(index[s[:i] + s[i + 1:]] for i in range(len(s))) for s in level])
    return faces


def test_face_rows_match_the_tuple_keyed_oracle():
    from test_homology_reduction import view_specs

    cases = [(n, spec) for n in range(3, 7) for spec in view_specs(n)]
    cases.append((7, "ranks:1,3,5"))
    for n, spec in cases:
        view = parse_view(n, spec)
        faces = order_complex(view).faces
        oracle = oracle_faces(view)
        assert len(faces) == len(oracle), (n, spec)
        for d, (level, expected) in enumerate(zip(faces, oracle)):
            assert level == expected, (n, spec, d)


def test_boundary_squares_to_zero_is_checked():
    for view in (parse_view(5, "full"), parse_view(5, "qnk:k=3"), parse_view(6, "le:k=3")):
        order_complex(view).check_boundary_squares_to_zero()
    # one wrong face row in any boundary breaks the composition with a
    # neighbour: the row of another face, two rows swapped, which flips both
    # their signs, or one face in every position, whose rows cancel as sets
    # but not with their multiplicities
    cc = order_complex(parse_view(5, "full"))
    for d in range(1, len(cc.faces)):
        level = cc.faces[d]
        face = level[0]
        other = next(f for f in range(len(cc.faces[d - 1])) if f not in face)
        for bad in ((other,) + face[1:], (face[1], face[0]) + face[2:], (face[0],) * len(face)):
            level[0] = bad
            with pytest.raises(AssertionError):
                cc.check_boundary_squares_to_zero()
        level[0] = face
    cc.check_boundary_squares_to_zero()


def test_augmentation_rows_are_checked():
    # a vertex whose row is not the augmentation row breaks bd_0 bd_1 = 0
    cc = order_complex(parse_view(4, "full"))
    cc.faces[0][3] = (1,)
    with pytest.raises(AssertionError, match="vertex 3"):
        cc.check_boundary_squares_to_zero()


def test_order_complex_refused_before_every_successor_list(monkeypatch):
    import parthom.errors as errors

    view = parse_view(6, "full")
    calls = []
    real = PosetView.above

    def counted(self, i, ranks=None):
        calls.append(i)
        return real(self, i, ranks)

    monkeypatch.setattr(PosetView, "above", counted)
    # the vertices fit under the cap and the first few edges do not
    monkeypatch.setitem(errors.BOUNDS, "simplices", len(view) + 10)
    with pytest.raises(FeasibilityError, match="exceeds"):
        order_complex(view)
    assert 0 < len(calls) < len(view)


# ---------------------------------------------------------------------------
# homology of the classical cases

def test_top_betti_is_factorial():
    for n in range(3, 6):
        hom = view_homology(parse_view(n, "full"))
        top = n - 3
        for d, b in hom.betti.items():
            assert b == (factorial(n - 1) if d == top else 0)
        assert hom.is_free()


def test_matching_complex_of_7_has_three_torsion():
    hom = view_homology(parse_view(7, "le:k=2"))
    assert hom.torsion == {1: [3]}
    assert hom.betti[1] == 0
    assert hom.betti[2] == 20
    assert reduced_euler(hom) == mobius_number(parse_view(7, "le:k=2"))


def test_rank_selected_concentration_small():
    import itertools

    for n in range(3, 6):
        for size in range(1, n - 1):
            for S in itertools.combinations(range(1, n - 1), size):
                hom = view_homology(rank_selected_view(n, S))
                nonzero = hom.nonzero_degrees()
                assert nonzero in ([], [len(S) - 1]), (n, S, hom.betti)
                assert hom.is_free()


# ---------------------------------------------------------------------------
# Moebius numbers

def test_mobius_of_full_lattice():
    for n in range(3, 7):
        assert mobius_number(parse_view(n, "full")) == (-1) ** (n - 1) * factorial(n - 1)


def test_mobius_of_empty_view():
    assert mobius_number(rank_selected_view(4, [])) == -1


def test_mobius_equals_reduced_euler():
    import itertools

    for n in range(3, 6):
        for size in range(n - 1):
            for S in itertools.combinations(range(1, n - 1), size):
                v = rank_selected_view(n, S)
                assert mobius_number(v) == reduced_euler(view_homology(v)), (n, S)
    for v in (parse_view(5, "qnk:k=3"), parse_view(6, "le:k=3")):
        assert mobius_number(v) == reduced_euler(view_homology(v))


# ---------------------------------------------------------------------------
# Lefschetz class functions

def test_lefschetz_identity_entry_is_euler():
    for view in (parse_view(4, "full"), parse_view(5, "full"), parse_view(5, "qnk:k=3")):
        lef = lefschetz_class_function(view)
        assert lef.values[(1,) * view.n] == reduced_euler(view_homology(view))


def test_lefschetz_antichain():
    from parthom.setparts import canonical_permutation

    view = rank_selected_view(5, [2])
    lef = lefschetz_class_function(view)
    for mu in partitions_of(5):
        fixed = sum(len(v) for v in view.fixed_by(canonical_permutation(mu, 5)).values())
        assert lef.values[mu] == fixed - 1


def test_lefschetz_of_full_lattice_is_signed_top_homology():
    # homology sits in odd degree n - 3 = 1, so the characteristic of -Lef
    # is the top homology characteristic
    lef = lefschetz_class_function(parse_view(4, "full"))
    assert (lef * Fraction(-1)).characteristic() == lie_character(4)


def test_concentrated_character_full_lattice():
    view = parse_view(5, "full")
    d, chi = concentrated_character(view, view_homology(view))
    assert d == 2
    assert chi.dimension() == 24
    assert chi.characteristic() == lie_character(5)


def test_concentrated_character_antichain():
    view = rank_selected_view(5, [1])
    d, chi = concentrated_character(view, view_homology(view))
    assert d == 0
    assert chi.dimension() == 9


def test_concentrated_character_rejects_spread():
    # two selected ranks of the 5-chain... use a view whose homology lives in
    # two degrees: the no-size-3 view at n = 2k + 1 = 7 would, but stay small:
    # the matching complex of 7 has torsion, which must also be rejected
    view = parse_view(7, "le:k=2")
    with pytest.raises(ConcentrationError):
        concentrated_character(view, view_homology(view))


def test_homology_agrees_with_recurrence_dimension():
    v = rank_selected_view(5, [1, 3])
    hom = view_homology(v)
    beta = homology_characteristic(5, (1, 3))
    assert hom.betti[1] == beta.dimension()


def test_homology_result_json():
    hom = view_homology(parse_view(5, "qnk:k=3"))
    data = hom.to_json_dict()
    assert data["view"] == "qnk:k=3,n=5"
    assert data["betti"]["1"] == 16
    assert data["torsion"] == {}


# ---------------------------------------------------------------------------
# rational-rank oracle

def rational_rank(mat):
    """Gaussian elimination of the columns over exact rationals, independent
    of the integer SNF."""
    vectors = [{i: Fraction(v) for i, v in col.items()} for col in mat.columns]
    rank = 0
    while vectors:
        vector = vectors.pop()
        if not vector:
            continue
        rank += 1
        i, pivot = next(iter(vector.items()))
        for other in vectors:
            if i in other:
                factor = other[i] / pivot
                for ii, v in vector.items():
                    cur = other.get(ii, Fraction(0)) - factor * v
                    if cur:
                        other[ii] = cur
                    else:
                        other.pop(ii, None)
    return rank


def test_betti_numbers_agree_with_rational_ranks():
    for view in (parse_view(4, "full"), parse_view(5, "full"), parse_view(5, "qnk:k=3"),
                  rank_selected_view(6, [2, 4])):
        cc = order_complex(view)
        hom = homology(cc)
        ranks = {d: rational_rank(boundary_matrix(cc, d)) for d in range(len(cc.faces))}
        fvec = cc.f_vector()
        for d in range(len(cc.faces)):
            expected = fvec[d] - ranks.get(d, 0) - ranks.get(d + 1, 0)
            assert hom.betti[d] == expected, (view.describe(), d)


def test_degree_seven_rank_selections_concentrate():
    # a feasible sample of rank selections on 7 points; each must be free
    # with homology only in degree |S| - 1 and the Betti number from the
    # module recurrence
    for S in ((2,), (1, 3), (2, 4), (3, 5)):
        hom = view_homology(rank_selected_view(7, S))
        beta_dim = homology_characteristic(7, S).dimension()
        assert hom.is_free(), S
        assert hom.nonzero_degrees() == [len(S) - 1], S
        assert hom.betti[len(S) - 1] == beta_dim, S


def test_mobius_equals_euler_on_full_degree_6():
    v = parse_view(6, "full")
    assert mobius_number(v) == -120 == reduced_euler(view_homology(v))
