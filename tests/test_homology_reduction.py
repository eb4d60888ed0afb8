"""The coboundary-column reduction with clearing against the full-matrix
Smith normal form, kept here as the named oracle."""

from itertools import combinations

from hypothesis import example, given, settings, strategies as st

from parthom.poset import parse_view, rank_selected_view
from parthom.snf import SparseIntMatrix, invariant_factors, reduce_columns
from parthom.topology import (
    HomologyResult,
    homology,
    mobius_number,
    order_complex,
)


def boundary_matrix(cc, d: int) -> SparseIntMatrix:
    """Oracle: bd_d as a matrix, built from the face-row tuples; rows index
    (d-1)-simplices, with the single augmentation row for d = 0."""
    nrows = len(cc.faces[d - 1]) if d else 1
    return SparseIntMatrix(nrows, map(_column, cc.faces[d]))


def _column(face: tuple[int, ...]) -> dict[int, int]:
    return {row: -1 if i % 2 else 1 for i, row in enumerate(face)}


def reduced_euler(hom: HomologyResult) -> int:
    """Oracle: the alternating sum of the Betti numbers."""
    return sum(b if d % 2 == 0 else -b for d, b in hom.betti.items())


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
            assert reduced_euler(hom) == mobius_number(view), (n, spec)
            checked += 1
    assert checked == 79


def test_matching_complex_of_7_torsion_pinned():
    cc = order_complex(parse_view(7, "le:k=2"))
    hom = homology(cc)
    assert hom.to_json_dict()["torsion"] == {"1": [3]}
    assert hom == full_matrix_homology(cc)


def test_matching_complex_of_9_passes_a_residual_of_several_columns(monkeypatch):
    import parthom.snf as snf

    widths = []
    real = snf.invariant_factors

    def recorded(mat):
        widths.append(mat.ncols)
        return real(mat)

    monkeypatch.setattr(snf, "invariant_factors", recorded)
    hom = homology(order_complex(parse_view(9, "le:k=2")))
    assert hom.betti == {0: 0, 1: 0, 2: 42, 3: 70}
    assert hom.torsion == {2: [3] * 8}
    # the residual's own elimination, not only the unit pivots, finds the Z/3s
    assert max(widths) > 1


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
    assert factors == invariant_factors(SparseIntMatrix(nrows, columns))
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
    assert factors2 == invariant_factors(SparseIntMatrix(n1, upper))
    factors1, _ = reduce_columns(dict(col) for k, col in enumerate(lower) if k not in units)
    assert factors1 == invariant_factors(SparseIntMatrix(n0, lower))


@settings(max_examples=300, deadline=None)
@given(two_step_complexes())
# X^T has the pivot 2 at row 1; Y^T has the factor 1, but 2 without column 1,
# so clearing at that non-unit pivot would change the factors of Y^T
@example((1, 2, [[-1, 2]], [[2], [1]]))
def test_clearing_keeps_the_invariant_factors_in_the_dual_order(case):
    # cohomology order: the columns of X^T are the rows of X, and a unit
    # pivot of X^T at row i drops column i of Y^T (row i of Y) unbuilt
    n0, n1, X, Y = case
    n2 = len(Y[0])
    co_lower = [{i: v for i, v in enumerate(row) if v} for row in X]
    co_upper = [{b: v for b, v in enumerate(row) if v} for row in Y]
    factors1, units = reduce_columns(dict(col) for col in co_lower)
    assert factors1 == invariant_factors(SparseIntMatrix(n0, columns_of(X, n1)))
    factors2, _ = reduce_columns(dict(col) for i, col in enumerate(co_upper) if i not in units)
    assert factors2 == invariant_factors(SparseIntMatrix(n1, columns_of(Y, n2)))


def test_cohomology_order_builds_no_top_column(monkeypatch):
    import parthom.topology as topology

    calls = []
    real = topology.reduce_columns

    def counted(columns):
        columns = list(columns)
        size = len(columns)
        factors, units = real(columns)
        calls.append((size, len(factors)))
        return factors, units

    monkeypatch.setattr(topology, "reduce_columns", counted)
    cc = order_complex(rank_selected_view(7, (1, 3, 5)))
    assert cc.f_vector() == {-1: 1, 0: 434, 1: 4466, 2: 9555}
    homology(cc)
    # one call per coboundary delta_-1, delta_0, delta_1, whose columns are
    # the empty simplex, the vertices and the edges: no 2-simplex is a
    # column.  Clearing drops the vertex and the 433 edges at unit pivots,
    # and every column that is built becomes a pivot
    assert [size for size, _ in calls] == [1, 433, 4033]
    assert sum(size for size, _ in calls) == 4467
    assert all(size == rank for size, rank in calls)
