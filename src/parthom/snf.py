"""Integer Smith normal form for sparse matrices.

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
at most a few columns, by the textbook method: pick a minimal-absolute-value
pivot, Euclidean row and column steps until the pivot divides its row and
column, then clear.  The diagonal is finally normalized into a divisibility
chain by pairwise gcd/lcm exchanges, which preserves the cokernel group.

Everything runs over Python integers, so no overflow and no modular
shortcuts; torsion comes out exactly.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd


class SparseIntMatrix:
    """Dict-of-rows integer matrix with a column index."""

    __slots__ = ("nrows", "ncols", "rows", "cols")

    def __init__(self, nrows: int, ncols: int):
        self.nrows = nrows
        self.ncols = ncols
        self.rows: dict[int, dict[int, int]] = {}
        self.cols: dict[int, set[int]] = {}

    @classmethod
    def from_columns(cls, nrows: int, columns) -> "SparseIntMatrix":
        """Build from an iterable of {row: value} column dicts."""
        columns = list(columns)
        mat = cls(nrows, len(columns))
        for j, col in enumerate(columns):
            for i, v in col.items():
                if v:
                    mat.rows.setdefault(i, {})[j] = v
                    mat.cols.setdefault(j, set()).add(i)
        return mat

    def nnz(self) -> int:
        return sum(len(r) for r in self.rows.values())

    def entries(self):
        for i, row in self.rows.items():
            for j, v in row.items():
                yield i, j, v

    def copy(self) -> "SparseIntMatrix":
        out = SparseIntMatrix(self.nrows, self.ncols)
        out.rows = {i: dict(r) for i, r in self.rows.items()}
        out.cols = {j: set(s) for j, s in self.cols.items()}
        return out

    # -- mutation helpers used by the elimination ---------------------------

    def _set(self, i: int, j: int, v: int) -> None:
        if v:
            self.rows.setdefault(i, {})[j] = v
            self.cols.setdefault(j, set()).add(i)
        else:
            row = self.rows.get(i)
            if row and j in row:
                del row[j]
                if not row:
                    del self.rows[i]
                col = self.cols[j]
                col.discard(i)
                if not col:
                    del self.cols[j]

    def add_multiple_of_row(self, target: int, source: int, factor: int) -> None:
        if not factor:
            return
        for j, v in list(self.rows.get(source, {}).items()):
            cur = self.rows.get(target, {}).get(j, 0)
            self._set(target, j, cur + factor * v)

    def add_multiple_of_col(self, target: int, source: int, factor: int) -> None:
        if not factor:
            return
        for i in list(self.cols.get(source, ())):
            v = self.rows[i][source]
            cur = self.rows.get(i, {}).get(target, 0)
            self._set(i, target, cur + factor * v)


def _min_entry(mat: SparseIntMatrix):
    best = None
    for i, j, v in mat.entries():
        if best is None or abs(v) < abs(best[2]):
            best = (i, j, v)
            if abs(v) == 1:
                break
    return best


def invariant_factors(mat: SparseIntMatrix) -> list[int]:
    """Invariant factors of an integer matrix (positive, each dividing the
    next); their count is the rank."""
    work = mat.copy()
    factors: list[int] = []
    while work.rows:
        i, j, v = _min_entry(work)
        touched = False
        for i2 in list(work.cols.get(j, ())):
            if i2 == i:
                continue
            w = work.rows[i2][j]
            q = w // v
            if q:
                work.add_multiple_of_row(i2, i, -q)
                touched = True
        row = work.rows.get(i, {})
        for j2 in list(row):
            if j2 == j:
                continue
            w = row[j2]
            q = w // v
            if q:
                work.add_multiple_of_col(j2, j, -q)
                touched = True
        if touched:
            # remainders may be smaller than |v|; reselect the pivot
            continue
        # the pivot was a global minimum, so every other entry in its row and
        # column had |w| >= |v| and would have been touched; both are clear
        if list(work.rows.get(i, {})) != [j] or set(work.cols.get(j, ())) != {i}:
            raise AssertionError("pivot row/column not cleared")
        factors.append(abs(v))
        work._set(i, j, 0)

    return _divisibility_chain(factors)


def _divisibility_chain(factors: list[int]) -> list[int]:
    """Rearrange a diagonal into invariant factors via gcd/lcm exchanges."""
    out = [f for f in factors if f]
    changed = True
    while changed:
        changed = False
        for a in range(len(out)):
            for b in range(a + 1, len(out)):
                if out[b] % out[a]:
                    g = gcd(out[a], out[b])
                    out[a], out[b] = g, out[a] // g * out[b]
                    changed = True
    return sorted(out)


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
    residual = [_clear_unit_rows(col, units) for low, col in pivots.items() if low not in units]
    rows = {i: r for r, i in enumerate(sorted({i for col in residual for i in col}))}
    mat = SparseIntMatrix.from_columns(
        len(rows), ({rows[i]: v for i, v in col.items()} for col in residual))
    return [1] * len(units) + invariant_factors(mat), set(units)


def _add_multiple(col: dict[int, int], source: dict[int, int], factor: int) -> None:
    if not factor:
        return
    for i, v in source.items():
        w = col.get(i, 0) + factor * v
        if w:
            col[i] = w
        else:
            del col[i]


def _clear_unit_rows(col: dict[int, int], units: dict[int, dict[int, int]]) -> dict[int, int]:
    """Subtract unit pivots from *col* until no unit-pivot row is left in it,
    largest row first: a pivot only touches rows up to its own low."""
    heap = [-i for i in col if i in units]
    heapify(heap)
    while heap:
        i = -heappop(heap)
        v = col.get(i)
        if not v:
            continue
        unit = units[i]
        for i2 in unit:
            if i2 in units and i2 not in col:
                heappush(heap, -i2)
        _add_multiple(col, unit, -v * unit[i])  # unit[i] in {1, -1}
    return col
