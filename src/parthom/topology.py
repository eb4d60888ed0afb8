"""Order complexes, integer homology, Moebius numbers, Lefschetz traces.

The order complex of a view has one d-simplex for every (d+1)-element
chain; the complex is augmented (the empty simplex sits in dimension -1),
so all homology is reduced.  Simplex vertices are ordered by poset rank,
which fixes orientations once and for all.  The complex keeps only the
face-row tuple of each simplex: entry i is the index of the face without
vertex i, with the implicit sign (-1)^i, and that is all the d^2 = 0 check
and the homology read; no boundary matrix is built.
No chain is kept as a tuple of elements: the chains of each dimension are
in lexicographic order, so a face row is computed from the face row of the
chain it extends, by offsets into the level below.  The d^2 = 0 check
tests that every vertex has the augmentation row and the simplicial
identities (face i of face j equals face j - 1 of face i, for i < j) on
every simplex of dimension 2 or more; they imply bd bd = 0, whose terms
cancel in pairs.

Homology works in cohomology order, bottom-up: for d = -1, ..., top - 1,
:func:`snf.reduce_columns` reduces the columns of the coboundary
delta_d = bd_{d+1}^T, one per d-simplex, against one pivot per low row,
with Euclidean steps where the pivot's entry does not divide the column's.
Rows and columns are taken in reverse order (the anti-transpose of
bd_{d+1}), so a column's low row is its first coface.  With clearing, the
rows of the unit pivots of delta_{d-1} are never built as columns of
delta_d: the unit-pivot submatrix is unimodular and
delta_d delta_{d-1} = 0, so those columns are integer combinations of the
others and leave the invariant factors alone.  So no top-dimensional
simplex is ever a column, and when every pivot is a unit, betti_d columns
of delta_d reduce to zero: none below the top on the Cohen-Macaulay views
(the rank selections of the lattice).  Only the non-unit pivots, with the
unit-pivot rows cleared out of them, reach the Smith normal form, which
finishes them by one textbook elimination.  A matrix and its transpose
have the same invariant factors, so
betti_d = f_d - rank(bd_d) - rank(bd_{d+1}) and the torsion of H_d is the
set of invariant factors of delta_d = bd_{d+1}^T exceeding 1.  The
reduced Euler characteristic of the complex equals the Moebius number of
the view with its virtual bounds adjoined, and that identity is
cross-checkable against :func:`mobius_number`, which sums signed chains by
:func:`~parthom.poset.signed_chain_sum` without building the complex.

The Lefschetz trace of a view is a tuple of integer class values over
``partitions_of(n)``, the identity class last, the one module type of
every command; :func:`parthom.symfunc.expansion` reads its Frobenius
characteristic out.
"""

from __future__ import annotations

import json
from itertools import accumulate, chain, compress
from operator import itemgetter

from .errors import BOUNDS, ConcentrationError, FeasibilityError
from .partitions import partitions_of
from .poset import PosetView, signed_chain_sum
from .setparts import canonical_permutation
from .snf import reduce_columns


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

    def check_boundary_squares_to_zero(self) -> None:
        # every vertex has the augmentation row; above it, the simplicial
        # identities: for i < j, face i of face j of a simplex is face j - 1
        # of face i, the simplex without vertices i and j.  They give
        # bd bd = 0, whose terms then cancel in pairs.  Edge rows satisfy them
        # whatever they hold, so they start at dimension 2, where a wrong edge
        # row shows in the triangles holding it
        for k, row in enumerate(self.faces[0] if self.faces else ()):
            if row != (0,):
                raise AssertionError(f"augmentation row {row} at vertex {k}")
        for d in range(2, len(self.faces)):
            lower, level = self.faces[d - 1], self.faces[d]
            # rows[j][k]: the face row of face j of simplex k
            rows = [list(map(lower.__getitem__, map(itemgetter(j), level))) for j in range(d + 1)]
            for j in range(1, d + 1):
                for i in range(j):
                    left = list(map(itemgetter(i), rows[j]))
                    right = list(map(itemgetter(j - 1), rows[i]))
                    if left != right:
                        k = next(k for k, (a, b) in enumerate(zip(left, right)) if a != b)
                        raise AssertionError(f"boundary composition nonzero at dim {d}, col {k}")


def order_complex(view: PosetView) -> ChainComplexZ:
    """All chains of the view as an augmented simplicial complex, kept as
    the face-row tuples of its simplices, refused past the ``simplices``
    bound and checked to satisfy d^2 = 0."""
    cc = ChainComplexZ(view.describe(), _face_rows(view))
    cc.check_boundary_squares_to_zero()
    return cc


def _face_rows(view: PosetView) -> list[list[tuple[int, ...]]]:
    # a level lists its chains in lexicographic order, so the children of
    # chain k (k extended by each successor j of its last element, in order)
    # are a contiguous block of the next level, starting at first[k].  The
    # faces of k + (j,) are g + (j,) for the faces g of k, and k itself.  A
    # face g that keeps k's last element has its children where k has, so
    # g + (j,) sits at the same offset in g's block as k + (j,) in k's; the
    # face that drops it ends in k's second-to-last element e, so there the
    # offset is that of j among the successors of e.  The size of the next
    # level is counted before it is built, and an element's successor list
    # is built when a chain first ends in it, so the count passes the cap
    # before the rest is built (the offsets wait for the count); the cap is
    # read once
    limit = BOUNDS["simplices"]
    succ: dict[int, list[int]] = {}
    # one int object per index, shared by every face row that holds it
    ids = list(range(len(view)))
    ends = ids[:]
    faces = [[(0,)] * len(ends)] if ends else []
    # the empty chain is the face of every vertex, and its children are the
    # vertices in order: the offset of vertex j among them is j
    first, before, offset = [0], [None], {None: ids}
    count = len(ends)
    while ends:
        for e in ends:
            if e not in succ:
                succ[e] = view.above(e)
            count += len(succ[e])
            if count > limit:
                raise FeasibilityError(
                    f"order complex of {view.describe()} exceeds {limit} simplices"
                )
        for e in succ.keys() - offset.keys():
            offset[e] = {j: p for p, j in enumerate(succ[e])}
        sizes = list(map(len, map(succ.__getitem__, ends)))
        if not any(sizes):
            break
        firsts = list(accumulate(sizes, initial=0))
        ids.extend(range(len(ids), firsts[-1]))
        rows: list[tuple[int, ...]] = []
        for k, face, e in compress(zip(ids, faces[-1], ends), sizes):
            js = succ[e]
            m = len(js)
            # face[-1] is chain k without its last element
            cols = [ids[first[g]:first[g] + m] for g in face[:-1]]
            base, where = first[face[-1]], offset[before[face[-1]]]
            cols.append([ids[base + where[j]] for j in js])
            cols.append([k] * m)
            rows += zip(*cols)
        faces.append(rows)
        first, before = firsts, ends
        ends = list(chain.from_iterable(map(succ.__getitem__, ends)))
    return faces


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
    """Reduced integer simplicial homology from the invariant factors of the
    coboundaries delta_d = bd_{d+1}^T, reduced bottom-up (d = -1 first) with
    clearing: a d-simplex at a unit pivot of delta_{d-1} is never built as a
    column of delta_d, and the top-dimensional simplices never are."""
    top = cc.top_dimension()
    factors: dict[int, list[int]] = {}
    cleared: set[int] = set()
    for d in range(-1, top):
        # a unit pivot of delta_{d-1} at row k proves column k of delta_d an
        # integer combination of the others, so the column is never built
        factors[d + 1], units = reduce_columns(_coboundary_columns(cc, d, cleared))
        last = len(cc.faces[d + 1]) - 1
        cleared = {last - row for row in units}
    betti = {}
    torsion = {}
    fvec = cc.f_vector()
    for d in range(-1, top + 1):
        betti[d] = fvec[d] - len(factors.get(d, ())) - len(factors.get(d + 1, ()))
        torsion[d] = [f for f in factors.get(d + 1, []) if f > 1]
    if betti.get(-1) == 0:
        del betti[-1]
    return HomologyResult(cc.view_spec, betti, torsion)


def _coboundary_columns(cc: ChainComplexZ, d: int, cleared: set[int]) -> list[dict[int, int]]:
    """The nonempty columns of delta_d = bd_{d+1}^T, except those of the
    d-simplices in *cleared*.  Column k holds (-1)^i in the row of every
    coface having simplex k as face i.  Rows and columns go in reverse order
    (the anti-transpose of bd_{d+1}), so each column starts with its first
    coface as its low row."""
    cofaces = cc.faces[d + 1]
    rows = list(range(len(cofaces) - 1, -1, -1))
    columns: list[dict[int, int] | None] = [
        None if k in cleared else {} for k in range(len(cc.faces[d]) if d >= 0 else 1)]
    for i in range(d + 2):
        sign = -1 if i % 2 else 1
        for row, k in zip(rows, map(itemgetter(i), cofaces)):
            col = columns[k]
            if col is not None:
                col[row] = sign
    return [col for col in reversed(columns) if col]


def view_homology(view: PosetView) -> HomologyResult:
    return homology(order_complex(view))


def mobius_number(view: PosetView) -> int:
    """Moebius number of the view with virtual bounds adjoined, as the
    alternating chain sum of :func:`~parthom.poset.signed_chain_sum`
    (independently of the order complex, whose f-vector gives the same
    number)."""
    return signed_chain_sum(view)


def lefschetz_class_function(view: PosetView) -> tuple[int, ...]:
    """Integer class values over ``partitions_of(n)``: at each cycle type,
    the alternating sum over dimensions of the count of simplices fixed
    pointwise, with the empty simplex contributing -1.

    Only chains of fixed elements are fixed pointwise, so the value at g is
    the reduced Euler characteristic of the order complex of the g-fixed
    subposet; by the Hopf trace formula the result equals the alternating
    sum of the homology characters.
    """
    n = view.n
    return tuple(signed_chain_sum(view, canonical_permutation(mu, n)) for mu in partitions_of(n))


def concentrated_character(view: PosetView, hom: HomologyResult) -> tuple[int, tuple[int, ...]]:
    """Degree and class values of the view's homology *hom* when it is free
    and lives in a single degree; raises :class:`ConcentrationError` otherwise.

    The class values are the Lefschetz class function times (-1)^degree, and
    the dimension, the value at the identity (the last class of
    ``partitions_of``), is checked against the Betti number.
    """
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
    sign = -1 if d % 2 else 1
    values = tuple(sign * v for v in lefschetz_class_function(view))
    if values[-1] != hom.betti[d]:
        raise ConcentrationError(
            f"Lefschetz dimension {values[-1]} != betti {hom.betti[d]} for {view.describe()}"
        )
    return d, values
