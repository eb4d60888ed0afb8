"""Order complexes, integer homology, Moebius numbers, Lefschetz traces.

The order complex of a view has one d-simplex for every (d+1)-element
chain; the complex is augmented (the empty simplex sits in dimension -1),
so all homology is reduced.  Simplex vertices are ordered by poset rank,
which fixes orientations once and for all.  The complex keeps only the
face-row tuple of each simplex: entry i is the index of the face without
vertex i, with the implicit sign (-1)^i, and that is all the d^2 = 0 check
and the homology read; :func:`boundary_matrix` builds a matrix on demand.

Homology reduces the boundary columns top-down (:func:`snf.reduce_columns`):
each column of bd_d is reduced against one pivot per low row, with
Euclidean steps where the pivot's entry does not divide the column's.  With
clearing, the rows of the unit pivots of bd_{d+1} are never built as
columns of bd_d: the unit-pivot submatrix is unimodular and
bd_d bd_{d+1} = 0, so those columns are integer combinations of the others
and leave the invariant factors alone.  Only the non-unit pivots, with the
unit-pivot rows cleared out of them, reach the Smith normal form.  Then
betti_d = f_d - rank(bd_d) - rank(bd_{d+1}) and the torsion of H_d is the
set of invariant factors of bd_{d+1} exceeding 1.  The reduced Euler
characteristic of the complex equals the Moebius number of the view with
its virtual bounds adjoined, and that identity is cross-checkable against
:func:`mobius_number`, which sums signed chains by the chain dynamic
program without building the complex.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .classfunc import ClassFunction
from .errors import BOUNDS, ConcentrationError, FeasibilityError
from .partitions import partitions_of
from .poset import PosetView, chain_sums
from .setparts import canonical_permutation
from .snf import SparseIntMatrix, reduce_columns


class ChainComplexZ:
    """Augmented simplicial chain complex of an order complex over Z."""

    __slots__ = ("view_spec", "faces")

    def __init__(self, view_spec: str, faces):
        self.view_spec = view_spec
        #: faces[d][k]: the face-row tuple of d-simplex k, whose entry i is the
        #: index of the (d-1)-face without vertex i and carries the sign
        #: (-1)^i; every vertex has the tuple (0,), the augmentation row
        self.faces = faces

    def top_dimension(self) -> int:
        return len(self.faces) - 1

    def f_vector(self) -> dict[int, int]:
        out = {-1: 1}
        for d, level in enumerate(self.faces):
            out[d] = len(level)
        return out

    def reduced_euler(self) -> int:
        total = -1
        for d, level in enumerate(self.faces):
            total += len(level) if d % 2 == 0 else -len(level)
        return total

    def check_boundary_squares_to_zero(self) -> None:
        # bd_{d-1} bd_d e_k sums (-1)^(i+j) over face j of face i of simplex k;
        # it vanishes exactly when the rows of even i + j and the rows of odd
        # i + j are the same multiset
        for d in range(1, len(self.faces)):
            lower = self.faces[d - 1]
            for k, face in enumerate(self.faces[d]):
                even: list[int] = []
                odd: list[int] = []
                for i, f in enumerate(face):
                    rows = lower[f]
                    even += rows[i % 2::2]
                    odd += rows[1 - i % 2::2]
                if sorted(even) != sorted(odd):
                    raise AssertionError(f"boundary composition nonzero at dim {d}, col {k}")


def order_complex(view: PosetView) -> ChainComplexZ:
    """All chains of the view as an augmented simplicial complex, kept as
    the face-row tuples of its simplices, refused past the ``simplices``
    bound and checked to satisfy d^2 = 0."""
    # extending each chain of a sorted level by its sorted successors keeps
    # the next level sorted.  The size of the next level is counted before it
    # is built, and an element's successor list is built when a chain first
    # ends in it, so the count passes the cap before the rest is built.  Only
    # two levels of chains are alive at a time: a level's faces are looked up
    # in the one below, which is then dropped.  The cap is compared inline,
    # once per chain, so it is read once
    limit = BOUNDS["simplices"]
    succ: dict[int, list[int]] = {}
    level = [(i,) for i in range(len(view))]
    faces = [[(0,)] * len(level)] if level else []
    count = len(level)
    while level:
        for c in level:
            if c[-1] not in succ:
                succ[c[-1]] = view.above(c[-1])
            count += len(succ[c[-1]])
            if count > limit:
                raise FeasibilityError(
                    f"order complex of {view.describe()} exceeds {limit} simplices"
                )
        index = {c: k for k, c in enumerate(level)}
        level = [c + (j,) for c in level for j in succ[c[-1]]]
        if level:
            faces.append([tuple(index[s[:i] + s[i + 1:]] for i in range(len(s))) for s in level])
    cc = ChainComplexZ(view.describe(), faces)
    cc.check_boundary_squares_to_zero()
    return cc


def boundary_matrix(cc: ChainComplexZ, d: int) -> SparseIntMatrix:
    """bd_d as a matrix, built on demand from the face-row tuples; rows
    index (d-1)-simplices, with the single augmentation row for d = 0."""
    nrows = len(cc.faces[d - 1]) if d else 1
    return SparseIntMatrix.from_columns(nrows, map(_column, cc.faces[d]))


def _column(face: tuple[int, ...]) -> dict[int, int]:
    return {row: -1 if i % 2 else 1 for i, row in enumerate(face)}


class HomologyResult:
    """Reduced integer homology: Betti numbers and invariant-factor torsion."""

    __slots__ = ("view_spec", "betti", "torsion")

    def __init__(self, view_spec: str, betti: dict[int, int], torsion: dict[int, list[int]]):
        self.view_spec = view_spec
        self.betti = dict(betti)
        self.torsion = {d: list(t) for d, t in torsion.items() if t}

    def nonzero_degrees(self) -> list[int]:
        out = {d for d, b in self.betti.items() if b}
        out.update(self.torsion)
        return sorted(out)

    def reduced_euler(self) -> int:
        return sum(b if d % 2 == 0 else -b for d, b in self.betti.items())

    def is_free(self) -> bool:
        return not self.torsion

    def to_json_dict(self) -> dict:
        return {
            "view": self.view_spec,
            "betti": {str(d): b for d, b in sorted(self.betti.items())},
            "torsion": {str(d): t for d, t in sorted(self.torsion.items())},
        }

    def __repr__(self):
        return f"HomologyResult({json.dumps(self.to_json_dict())})"

    def __eq__(self, other):
        if isinstance(other, HomologyResult):
            def trim(b):
                return {d: v for d, v in b.betti.items() if v}
            return trim(self) == trim(other) and self.torsion == other.torsion
        return NotImplemented

    __hash__ = None


def homology(cc: ChainComplexZ) -> HomologyResult:
    """Reduced integer simplicial homology, reducing the boundaries top-down
    with clearing."""
    top = cc.top_dimension()
    factors: dict[int, list[int]] = {}
    cleared: set[int] = set()
    for d in range(top, -1, -1):
        # a unit pivot of bd_{d+1} at row k proves column k of bd_d an integer
        # combination of the others, so the column is never built
        columns = (_column(face) for k, face in enumerate(cc.faces[d]) if k not in cleared)
        factors[d], cleared = reduce_columns(columns)
    betti = {}
    torsion = {}
    fvec = cc.f_vector()
    for d in range(-1, top + 1):
        betti[d] = fvec[d] - len(factors.get(d, ())) - len(factors.get(d + 1, ()))
        torsion[d] = [f for f in factors.get(d + 1, []) if f > 1]
    if betti.get(-1) == 0:
        del betti[-1]
    return HomologyResult(cc.view_spec, betti, torsion)


def view_homology(view: PosetView) -> HomologyResult:
    return homology(order_complex(view))


def mobius_number(view: PosetView) -> int:
    """Moebius number of the view with virtual bounds adjoined, as the
    alternating chain sum of :func:`chain_sums` (independently of the order
    complex, whose f-vector gives the same number)."""
    return chain_sums(view, covers=False)


def lefschetz_class_function(view: PosetView) -> ClassFunction:
    """For each cycle type, the alternating sum over dimensions of the count
    of simplices fixed pointwise, with the empty simplex contributing -1.

    Only chains of fixed elements are fixed pointwise, so the value at g is
    the reduced Euler characteristic of the order complex of the g-fixed
    subposet; by the Hopf trace formula the result equals the alternating
    sum of the homology characters.
    """
    n = view.n
    values = {}
    for mu in partitions_of(n):
        values[mu] = Fraction(chain_sums(view, canonical_permutation(mu, n), covers=False))
    return ClassFunction(n, values)


def concentrated_character(view: PosetView, hom: HomologyResult | None = None):
    """Degree and character of the homology when it is free and lives in a
    single degree; raises :class:`ConcentrationError` otherwise.

    The character is the Lefschetz class function times (-1)^degree, and its
    dimension is checked against the Betti number.
    """
    if hom is None:
        hom = view_homology(view)
    degrees = hom.nonzero_degrees()
    if len(degrees) != 1:
        raise ConcentrationError(
            f"homology of {view.describe()} spread over degrees {degrees}"
        )
    d = degrees[0]
    if hom.torsion.get(d):
        raise ConcentrationError(
            f"homology of {view.describe()} has torsion {hom.torsion[d]} in degree {d}"
        )
    lef = lefschetz_class_function(view)
    chi = lef if d % 2 == 0 else lef * Fraction(-1)
    if chi.dimension() != hom.betti[d]:
        raise ConcentrationError(
            f"Lefschetz dimension {chi.dimension()} != betti {hom.betti[d]} for {view.describe()}"
        )
    return d, chi


def export_boundaries(cc: ChainComplexZ) -> str:
    """Sparse triplet text format: per dimension a header line
    ``dim <d> <rows> <cols> <nnz>`` followed by ``<row> <col> <value>``
    lines (0-indexed), suitable for external verification."""
    lines = []
    for d in range(len(cc.faces)):
        mat = boundary_matrix(cc, d)
        lines.append(f"dim {d} {mat.nrows} {mat.ncols} {mat.nnz()}")
        for i, j, v in sorted(mat.entries(), key=lambda t: (t[1], t[0])):
            lines.append(f"{i} {j} {v}")
    return "\n".join(lines) + "\n"
