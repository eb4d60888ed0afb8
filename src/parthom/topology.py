"""Order complexes, integer homology, Moebius numbers, Lefschetz traces.

The order complex of a view has one d-simplex for every (d+1)-element
chain; the complex is augmented (the empty simplex sits in dimension -1),
so all homology is reduced.  Simplex vertices are ordered by poset rank,
which fixes orientations once and for all.

Homology is computed from Smith normal forms of the boundary matrices:
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
from .errors import ConcentrationError, FeasibilityError
from .partitions import partitions_of
from .poset import PosetView, chain_sums
from .setparts import canonical_permutation
from .snf import SparseIntMatrix, invariant_factors

#: refuse complexes with more simplices than this
MAX_SIMPLICES = 250_000


class ChainComplexZ:
    """Augmented simplicial chain complex of an order complex over Z."""

    __slots__ = ("view_spec", "simplices", "boundaries")

    def __init__(self, view_spec: str, simplices, boundaries):
        self.view_spec = view_spec
        #: simplices[d] for d >= 0: tuples of element indices, rank-increasing
        self.simplices = simplices
        #: boundaries[d]: SparseIntMatrix of bd_d; rows index (d-1)-simplices,
        #: with a single augmentation row for d = 0
        self.boundaries = boundaries

    def top_dimension(self) -> int:
        return len(self.simplices) - 1

    def f_vector(self) -> dict[int, int]:
        out = {-1: 1}
        for d, simp in enumerate(self.simplices):
            out[d] = len(simp)
        return out

    def reduced_euler(self) -> int:
        total = -1
        for d, simp in enumerate(self.simplices):
            total += len(simp) if d % 2 == 0 else -len(simp)
        return total

    def check_boundary_squares_to_zero(self) -> None:
        for d in range(1, len(self.boundaries)):
            upper = self.boundaries[d]
            lower = self.boundaries[d - 1]
            for j in range(upper.ncols):
                acc: dict[int, int] = {}
                for i in upper.cols.get(j, ()):
                    v = upper.rows[i][j]
                    for i2 in lower.cols.get(i, ()):
                        acc[i2] = acc.get(i2, 0) + v * lower.rows[i2][i]
                if any(acc.values()):
                    raise AssertionError(f"boundary composition nonzero at dim {d}, col {j}")


def order_complex(view: PosetView, check: bool = True) -> ChainComplexZ:
    """All chains of the view as an augmented simplicial complex."""
    # extending each chain of a sorted level by its sorted successors keeps
    # the next level sorted.  The size of the next level is counted before it
    # is built, and an element's successor list is built when a chain first
    # ends in it, so the count passes the cap before the rest is built
    succ: dict[int, list[int]] = {}
    simplices: list[list[tuple[int, ...]]] = []
    level = [(i,) for i in range(len(view))]
    count = len(level)
    while level:
        simplices.append(level)
        for c in level:
            if c[-1] not in succ:
                succ[c[-1]] = view.above(c[-1])
            count += len(succ[c[-1]])
            if count > MAX_SIMPLICES:
                raise FeasibilityError(
                    f"order complex of {view.describe()} exceeds {MAX_SIMPLICES} simplices"
                )
        level = [c + (j,) for c in level for j in succ[c[-1]]]

    boundaries = []
    if simplices:
        aug = [{0: 1} for _ in simplices[0]]
        boundaries.append(SparseIntMatrix.from_columns(1, aug))
    for d in range(1, len(simplices)):
        index = {s: i for i, s in enumerate(simplices[d - 1])}
        cols = []
        for s in simplices[d]:
            col: dict[int, int] = {}
            for i in range(len(s)):
                face = s[:i] + s[i + 1 :]
                col[index[face]] = -1 if i % 2 else 1
            cols.append(col)
        boundaries.append(SparseIntMatrix.from_columns(len(simplices[d - 1]), cols))
    cc = ChainComplexZ(view.describe(), simplices, boundaries)
    if check:
        cc.check_boundary_squares_to_zero()
    return cc


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
    """Reduced integer simplicial homology via Smith normal form."""
    factors: dict[int, list[int]] = {}
    ranks: dict[int, int] = {}
    for d, mat in enumerate(cc.boundaries):
        fs = invariant_factors(mat)
        factors[d] = fs
        ranks[d] = len(fs)
    top = cc.top_dimension()
    betti = {}
    torsion = {}
    fvec = cc.f_vector()
    for d in range(-1, top + 1):
        betti[d] = fvec[d] - ranks.get(d, 0) - ranks.get(d + 1, 0)
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
    for d, mat in enumerate(cc.boundaries):
        lines.append(f"dim {d} {mat.nrows} {mat.ncols} {mat.nnz()}")
        for i, j, v in sorted(mat.entries(), key=lambda t: (t[1], t[0])):
            lines.append(f"{i} {j} {v}")
    return "\n".join(lines) + "\n"
