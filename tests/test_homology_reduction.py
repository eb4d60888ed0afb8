"""The boundary-column reduction with clearing against the full-matrix
Smith normal form it replaced, kept here as the named oracle."""

from itertools import combinations

from hypothesis import given, settings, strategies as st

from parthom.poset import max_block_size_view, parse_view
from parthom.snf import SparseIntMatrix, invariant_factors, reduce_columns
from parthom.topology import (
    HomologyResult,
    boundary_matrix,
    homology,
    mobius_number,
    order_complex,
)


def full_matrix_homology(cc) -> HomologyResult:
    """Oracle: every boundary built as a matrix and put through
    :func:`invariant_factors` whole, with no clearing."""
    factors = {d: invariant_factors(boundary_matrix(cc, d)) for d in range(len(cc.faces))}
    fvec = cc.f_vector()
    betti = {}
    torsion = {}
    for d in range(-1, cc.top_dimension() + 1):
        betti[d] = fvec[d] - len(factors.get(d, ())) - len(factors.get(d + 1, ()))
        torsion[d] = [f for f in factors.get(d + 1, []) if f > 1]
    if betti.get(-1) == 0:
        del betti[-1]
    return HomologyResult(cc.view_spec, betti, torsion)


def view_specs(n):
    yield "full"
    for size in range(n - 1):
        for S in combinations(range(1, n - 1), size):
            yield "ranks:" + (",".join(map(str, S)) or "-")
    for family in ("qnk", "pnk", "le", "ne"):
        for k in range(2, n):
            yield f"{family}:k={k}"
    if n % 2 == 0 and n >= 4:
        yield "even"
        for k in range(1, n // 2):
            yield f"even-top:k={k}"


def test_every_family_matches_the_full_matrix_oracle():
    checked = 0
    for n in range(3, 7):
        for spec in view_specs(n):
            view = parse_view(n, spec)
            cc = order_complex(view)
            hom = homology(cc)
            oracle = full_matrix_homology(cc)
            assert hom.betti == oracle.betti and hom.torsion == oracle.torsion, (n, spec)
            assert hom.reduced_euler() == mobius_number(view), (n, spec)
            checked += 1
    assert checked == 79


def test_matching_complex_of_7_torsion_pinned():
    cc = order_complex(max_block_size_view(7, 2))
    hom = homology(cc)
    assert hom.to_json_dict()["torsion"] == {"1": [3]}
    assert hom == full_matrix_homology(cc)


# ---------------------------------------------------------------------------
# the reduction on its own

@st.composite
def column_sets(draw):
    # sparse columns like a boundary's; without units every low pivot is
    # non-unit and reaches the Euclidean steps and the residual
    values = draw(st.sampled_from([
        [v for v in range(-6, 7) if v],
        [v for v in range(-6, 7) if abs(v) > 1],
        [-1, 1, -2, 2, 3],
    ]))
    nrows, ncols = draw(st.integers(1, 7)), draw(st.integers(0, 8))
    columns = []
    for _ in range(ncols):
        rows = draw(st.sets(st.integers(0, nrows - 1), max_size=4))
        columns.append({i: draw(st.sampled_from(values)) for i in sorted(rows)})
    return nrows, columns


@settings(max_examples=300, deadline=None)
@given(column_sets())
def test_reduction_matches_invariant_factors(case):
    nrows, columns = case
    factors, units = reduce_columns(dict(col) for col in columns)
    assert factors == invariant_factors(SparseIntMatrix.from_columns(nrows, columns))
    # each unit pivot is one unit factor; the residual may hold more
    assert len(units) <= factors.count(1)
    assert units <= set(range(nrows))


@st.composite
def two_step_complexes(draw):
    """bd1 (n0 x n1) and bd2 (n1 x n2) with bd1 bd2 = 0: bd2 = U Y and
    bd1 = X U^-1 for a unimodular U built from elementary row operations,
    where Y lives in the first r rows and X in the other columns."""
    n0, n1, n2 = draw(st.integers(1, 4)), draw(st.integers(1, 6)), draw(st.integers(1, 5))
    r = draw(st.integers(0, n1))
    entry = st.integers(-4, 4)
    Y = [[draw(entry) if i < r else 0 for _ in range(n2)] for i in range(n1)]
    X = [[draw(entry) if j >= r else 0 for j in range(n1)] for _ in range(n0)]
    for _ in range(draw(st.integers(0, 8))):
        i, j = draw(st.integers(0, n1 - 1)), draw(st.integers(0, n1 - 1))
        c = draw(st.integers(-2, 2))
        if i == j or not c:
            continue
        # Y <- E Y (row i += c row j); X <- X E^-1 (column j -= c column i)
        Y[i] = [a + c * b for a, b in zip(Y[i], Y[j])]
        for row in X:
            row[j] -= c * row[i]
    return n0, n1, X, Y


def columns_of(rows, ncols):
    return [{i: row[j] for i, row in enumerate(rows) if row[j]} for j in range(ncols)]


@settings(max_examples=300, deadline=None)
@given(two_step_complexes())
def test_clearing_keeps_the_invariant_factors(case):
    n0, n1, X, Y = case
    n2 = len(Y[0])
    assert all(sum(X[a][i] * Y[i][b] for i in range(n1)) == 0
               for a in range(n0) for b in range(n2))
    upper, lower = columns_of(Y, n2), columns_of(X, n1)
    factors2, units = reduce_columns(dict(col) for col in upper)
    assert factors2 == invariant_factors(SparseIntMatrix.from_columns(n1, upper))
    factors1, _ = reduce_columns(dict(col) for k, col in enumerate(lower) if k not in units)
    assert factors1 == invariant_factors(SparseIntMatrix.from_columns(n0, lower))
