"""Integer Smith normal form for sparse matrices.

Every matrix here is a list of ``{row: value}`` columns holding nonzero
entries only, and every elimination step is one :func:`_add_multiple`: a
multiple of one such dict added into another.

:func:`reduce_columns` takes a matrix as a stream of columns and reduces
each against the pivots found so far, keyed by their "low" (largest) row.
When the pivot's low entry divides the column's, a multiple of the pivot is
subtracted; otherwise the subtraction leaves a remainder smaller than the
pivot entry, and that column becomes the pivot in a Euclidean step.  So
every low ends with exactly one pivot, and the pivots span the column
lattice.  A pivot whose low entry is a unit splits off as one unit
invariant factor; the other pivots have every unit-pivot row cleared out of
them by the unit pivots, which leaves a small residual matrix for
:func:`invariant_factors`.

:func:`invariant_factors` diagonalizes that residual, usually empty and
at most a few columns, by the textbook method: pick a least-absolute-value
pivot, Euclidean column and row steps until the pivot divides its row and
column, then clear.  The diagonal is finally normalized into a divisibility
chain by pairwise gcd/lcm exchanges, which preserves the cokernel group.
It is also the test oracle that :func:`reduce_columns` is checked against.

Everything runs over Python integers, so no overflow and no modular
shortcuts; torsion comes out exactly.
"""

from __future__ import annotations

from math import gcd


class SparseIntMatrix:
    """Integer matrix with *nrows* rows, kept as a list of ``{row: value}``
    column dicts of nonzero entries."""

    __slots__ = ("nrows", "ncols", "columns")

    def __init__(self, nrows: int, columns):
        self.nrows = nrows
        self.columns: list[dict[int, int]] = list(columns)
        self.ncols = len(self.columns)

    def nnz(self) -> int:
        return sum(map(len, self.columns))


def invariant_factors(mat: SparseIntMatrix) -> list[int]:
    """Invariant factors of an integer matrix (positive, each dividing the
    next); their count is the rank.  *mat* is left unchanged."""
    work = [dict(col) for col in mat.columns if col]
    factors: list[int] = []
    while work:
        best = None
        for entry in ((i, j, v) for j, col in enumerate(work) for i, v in col.items()):
            if best is None or abs(entry[2]) < abs(best[2]):
                best = entry
                if abs(best[2]) == 1:
                    break
        i, j, v = best
        pivot = work[j]
        crossing = [col for col in work if i in col]
        touched = False
        # column steps: clear row i of the other columns
        for col in crossing:
            q = col[i] // v
            if q and col is not pivot:
                _add_multiple(col, pivot, -q)
                touched = True
        # row steps: clear the other rows of the pivot column, in every
        # column that still holds row i
        holders = [col for col in crossing if i in col]
        for i2 in [i2 for i2 in pivot if i2 != i]:
            q = pivot[i2] // v
            if q:
                for col in holders:
                    _add_multiple(col, {i2: col[i]}, -q)
                touched = True
        if touched:
            # remainders may be smaller than |v|; reselect the pivot
            if not all(crossing):
                work = [col for col in work if col]
            continue
        # the pivot was a global minimum, so every other entry in its row and
        # column had |w| >= |v| and would have been touched; both are clear
        if list(pivot) != [i] or len(holders) != 1:
            raise AssertionError("pivot row/column not cleared")
        factors.append(abs(v))
        del work[j]

    return _divisibility_chain(factors)


def _divisibility_chain(factors: list[int]) -> list[int]:
    """Rearrange a positive diagonal into invariant factors via gcd/lcm
    exchanges; a unit divides everything and takes no part in them."""
    out = [f for f in factors if f > 1]
    changed = True
    while changed:
        changed = False
        for a in range(len(out)):
            for b in range(a + 1, len(out)):
                if out[b] % out[a]:
                    g = gcd(out[a], out[b])
                    out[a], out[b] = g, out[a] // g * out[b]
                    changed = True
    return [1] * (len(factors) - len(out)) + sorted(out)


def reduce_columns(columns) -> tuple[list[int], set[int]]:
    """Invariant factors of the matrix whose columns are the given
    ``{row: value}`` dicts (consumed and mutated), and the rows of its unit
    pivots."""
    pivots: dict[int, dict[int, int]] = {}
    for col in columns:
        while col:
            low = max(col)
            pivot = pivots.get(low)
            if pivot is None:
                pivots[low] = col
                break
            _add_multiple(col, pivot, -(col[low] // pivot[low]))
            if low in col:
                # the remainder is smaller than the pivot entry: a Euclidean step
                pivots[low], col = col, pivot
    units = {low: col for low, col in pivots.items() if abs(col[low]) == 1}
    residual = [col for low, col in pivots.items() if low not in units]
    if residual:
        _clear_unit_rows(residual, units)
    mat = SparseIntMatrix(len({i for col in residual for i in col}), residual)
    return [1] * len(units) + invariant_factors(mat), set(units)


def _add_multiple(col: dict[int, int], source: dict[int, int], factor: int) -> None:
    """col += factor * source, dropping the entries that cancel."""
    if not factor:
        return
    for i, v in source.items():
        w = col.get(i, 0) + factor * v
        if w:
            col[i] = w
        else:
            del col[i]


def _clear_unit_rows(columns: list[dict[int, int]], units: dict[int, dict[int, int]]) -> None:
    """Subtract unit pivots from each column until no unit-pivot row is left
    in it.  One pass over the unit rows, largest first: a pivot only touches
    rows up to its own low, so a row once cleared stays clear, and no row
    above the columns' largest is ever reached."""
    top = max(map(max, columns))
    for i in sorted((i for i in units if i <= top), reverse=True):
        unit = units[i]
        for col in columns:
            v = col.get(i)
            if v:
                _add_multiple(col, unit, -v * unit[i])  # unit[i] in {1, -1}
