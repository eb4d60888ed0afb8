"""Integer Smith normal form for sparse matrices.

Two phases.  Phase 1 passes once over the columns, sparsest (by starting
population) first.  A column that still holds an entry of absolute value 1
pivots there, in the sparsest row that has one, to limit fill-in: row
operations clear the rest of the column, which keeps every entry an
integer, and the pivot row is dropped as one unit invariant factor.  The
leftover matrix, usually tiny, is diagonalized by the textbook method: pick
a minimal-absolute-value pivot, Euclidean row and column steps until the
pivot divides its row and column, then clear.  Fill-in can create units in
columns phase 1 had already passed, so phase 2 may still meet them.  The
phase-2 diagonal is finally normalized into a divisibility chain by pairwise
gcd/lcm exchanges, which preserves the cokernel group, and the phase-1 units
go in front.

Everything runs over Python integers, so no overflow and no modular
shortcuts; torsion comes out exactly.
"""

from __future__ import annotations

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

    def drop_row(self, i: int) -> None:
        for j in list(self.rows.get(i, {})):
            self._set(i, j, 0)


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

    # phase 1: once the column is cleared, column operations against it would
    # clear the rest of the pivot row without touching anything else
    units = 0
    for j in sorted(work.cols, key=lambda c: len(work.cols[c])):
        unit_rows = [i for i in work.cols.get(j, ()) if abs(work.rows[i][j]) == 1]
        if not unit_rows:
            continue
        i = min(unit_rows, key=lambda r: len(work.rows[r]))
        v = work.rows[i][j]
        for i2 in list(work.cols[j]):
            if i2 != i:
                work.add_multiple_of_row(i2, i, -work.rows[i2][j] * v)  # v in {1, -1}
        work.drop_row(i)
        units += 1

    # phase 2: textbook reduction of the residual, which may still hold units
    # that fill-in created in columns phase 1 had passed
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

    return [1] * units + _divisibility_chain(factors)


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
