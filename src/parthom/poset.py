"""Subposets of the set-partition lattice and their chains.

A :class:`PosetView` materializes the proper part (never the adjoined
bounds) of one of the named families, grouped by rank.  :func:`parse_view`
is the only constructor of a named view; the names of the block-size
families are :data:`~parthom.errors.BLOCK_SIZE_FAMILIES`:

* ``full`` -- all of the proper part, ranks 1..n-2;
* ``ranks:S`` -- the rank-selected subposet for S inside [1, n-2];
* ``qnk:k`` -- delete the modular elements (unique non-singleton block)
  whose non-singleton block has size exactly k;
* ``pnk:k`` -- delete modular elements with non-singleton block size
  2..k, i.e. the intersection of the qnk views;
* ``le:k`` -- partitions with every block of size at most k;
* ``ne:k`` -- partitions with no block of size exactly k;
* ``even`` -- partitions with an even number of blocks (even ground size),
  the alternate-rank selection 2, 4, ...;
* ``even-top:k`` -- the top k nontrivial ranks of ``even``.

An element is its restricted-growth string: item i lies in group g[i],
groups numbered by first item.  Each rank of a view is the cached table of
strings with n - r values (:func:`~parthom.setparts.growth_table`), shared
as is by views without a predicate, which keep whole ranks and are
rank-selected.  A family's predicate reads the block sizes of each string
and keeps a sub-tuple.  :meth:`PosetView.elements` makes the
:class:`SetPartition` of every string only when first asked, once per
view; no command asks.  Views are immutable once built.

The order relation is never stored.  The partitions above x are exactly
those obtained by merging blocks of x, so :meth:`PosetView.above` lists
them by grouping the blocks of x (one restricted-growth string per
grouping) and looking each merge up in the view's index, which is keyed
by the string.  Two dynamic programs push values up these edges in rank
order: :func:`maximal_chains` counts the maximal chains and fixed maximal
chains of a rank-selected view, one selected rank at a time, and
:func:`signed_chain_sum` gives the Moebius number and Lefschetz values of
any view, over all edges.

For a permutation the same lookups run on generated strings only:
``above(i, perm=...)`` looks up the groupings of the blocks of a fixed
element that are invariant under the permutation induced on those
blocks, i.e. the fixed merges, and ``above(None, perm=...)`` those of the
bottom, i.e. the strings it fixes at each rank.  Nothing that the
permutation moves is visited, and a maximal-chain count starts from the
fixed strings of the lowest rank only.
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter

from .errors import BLOCK_SIZE_FAMILIES, is_decimal, parse_rank_set, rank_set, refuse_ground
from .partitions import check_partition
from .setparts import SetPartition, canonical_permutation, from_growth, growth_table


class PosetView:
    """An induced subposet of the partition lattice, its elements the
    restricted-growth strings of each candidate rank whose block sizes pass
    *predicate*.  Without one it keeps whole ranks and is ``rank_selected``."""

    __slots__ = ("n", "spec", "rank_selected", "_by_rank", "_strings", "_index", "_elements")

    def __init__(self, n: int, spec: str, candidate_ranks, predicate=None):
        refuse_ground(n)
        by_rank: dict[int, tuple[tuple[int, ...], ...]] = {}
        for r in sorted(candidate_ranks):
            table = growth_table(n, n - r)
            if predicate is not None:
                groups = range(n - r)
                table = tuple(g for g in table if predicate(list(map(g.count, groups))))
            if table:
                by_rank[r] = table
        strings = tuple(chain.from_iterable(by_rank.values()))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "rank_selected", predicate is None)
        object.__setattr__(self, "_by_rank", by_rank)
        object.__setattr__(self, "_strings", strings)
        object.__setattr__(self, "_index", {g: i for i, g in enumerate(strings)})
        object.__setattr__(self, "_elements", None)

    def __setattr__(self, name, value):
        raise AttributeError("PosetView is immutable")

    # -- element access -------------------------------------------------------

    @property
    def ranks(self) -> tuple[int, ...]:
        return tuple(self._by_rank)

    def elements(self) -> tuple[SetPartition, ...]:
        """The elements as partitions, in index order, made on the first call."""
        if self._elements is None:
            object.__setattr__(self, "_elements", tuple(map(from_growth, self._strings)))
        return self._elements

    def __len__(self):
        return len(self._strings)

    def describe(self) -> str:
        return f"{self.spec},n={self.n}"

    def __repr__(self):
        sizes = {r: len(v) for r, v in self._by_rank.items()}
        return f"PosetView({self.describe()}, rank sizes {sizes})"

    # -- order structure --------------------------------------------------------

    def above(self, i: int | None, rank: int | None = None, perm=None) -> list[int]:
        """Indices of the view elements above element *i* at *rank* (default:
        every higher rank of the view), in increasing order.  Each grouping
        of its k blocks into n - r groups is one merge at rank r; the
        groupings come in lexicographic order, and so do the strings they
        merge to, which is the view's order.
        ``i=None`` is the bottom of the lattice, ``tuple(range(n))``, whose
        merges are all the strings of each rank.

        With *perm* (images of 1..n), which must fix element *i*, only the
        merges that *perm* fixes: the groupings invariant under the
        permutation of the blocks that *perm* induces."""
        growth = tuple(range(self.n)) if i is None else self._strings[i]
        k = max(growth) + 1  # its block count, so its rank is n - k
        ranks = [r for r in self._by_rank if r > self.n - k] if rank is None else (rank,)
        moved = None
        if perm is not None:
            # block b goes to the block holding the image of its first item
            moved = tuple([growth[perm[growth.index(b)] - 1] for b in range(k)])
        # merging block b into group g[b] turns the string into g[growth[e]]
        # at each item e; a rank-selected view holds every merge at its ranks
        lookup = self._index.__getitem__ if self.rank_selected else self._index.get
        merge, out = itemgetter(*growth), []
        for r in ranks:
            out += map(lookup, map(merge, growth_table(k, self.n - r, moved)))
        return out if self.rank_selected else [j for j in out if j is not None]

    def fixed_by(self, perm) -> dict[int, list[int]]:
        """Indices of the elements fixed (as partitions) by the permutation
        (images of 1..n), by rank: at each rank r the merges of the bottom
        that *perm* fixes, ``above(None, r, perm)``."""
        if len(perm) != self.n:
            raise ValueError("permutation degree does not match ground set")
        out = {}
        for r in self._by_rank:
            if fixed := self.above(None, r, perm):
                out[r] = fixed
        return out

    def covers(self) -> dict[SetPartition, tuple[SetPartition, ...]]:
        """Upward covers inside the view (no view element strictly between):
        the comparabilities minus those implied through a third element."""
        elems, out = self.elements(), {}
        for i, x in enumerate(elems):
            # above() is in increasing (rank) order, so each element is seen
            # after every element below it
            ups, implied = [], set()
            for j in self.above(i):
                if j not in implied:
                    ups.append(elems[j])
                    implied.update(self.above(j))
            out[x] = tuple(ups)
        return out


def maximal_chains(view: PosetView, perm=None) -> int:
    """The number of maximal chains of a rank-selected view made of elements
    that *perm* fixes (default: all of them); any other view raises
    :class:`ValueError`.  The counts start at 1 on the fixed strings of the
    lowest rank, ``view.above(None, lowest, perm)``, and are pushed up one
    selected rank at a time along the fixed merges, which reach only fixed
    elements."""
    if not view.rank_selected:
        raise ValueError(f"maximal chains are counted on rank-selected views only, "
                         f"not on {view.describe()}")
    ranks = view.ranks
    if not ranks:
        return 1
    counts = dict.fromkeys(view.above(None, ranks[0], perm), 1)
    for r in ranks[1:]:
        up: dict[int, int] = {}
        for i, c in counts.items():
            for j in view.above(i, r, perm):
                up[j] = up.get(j, 0) + c
        counts = up
    return sum(counts.values())


def signed_chain_sum(view: PosetView, perm=None) -> int:
    """The sum over chains of elements that *perm* fixes (default: all of
    them), the empty one included, of (-1)^(length - 1): the reduced Euler
    characteristic of their order complex, on any view.  In index order,
    which is rank order, each fixed element gets 1 minus the values of the
    fixed elements below it, pushed along the fixed merges."""
    t = dict.fromkeys(view.above(None, perm=perm), 1)
    for i in t:
        for j in view.above(i, perm=perm):
            t[j] -= t[i]
    return sum(t.values()) - 1


# ---------------------------------------------------------------------------
# view families

def _modular_size(sizes) -> int | None:
    """Size of the unique non-singleton block, given the block sizes, or
    None if the partition is not modular."""
    big = max(sizes)
    # the sizes exceed 1 by n - (block count) in all: when the largest block
    # alone does, every other block is a singleton
    return big if big > 1 and big - 1 == sum(sizes) - len(sizes) else None


def rank_selected_view(n: int, ranks) -> PosetView:
    ranks = rank_set(n, ranks)
    # the empty selection is named as the CLI reads it
    return PosetView(n, "ranks:" + (",".join(map(str, ranks)) or "-"), ranks)


#: the predicate on (block sizes, k) of each of BLOCK_SIZE_FAMILIES, in its
#: order: qnk and pnk delete the modular elements whose non-singleton block
#: has size k, or any size 2..k; le keeps every block of size at most k, ne
#: no block of size k
_KEEP = dict(zip(BLOCK_SIZE_FAMILIES, (
    lambda sizes, k: _modular_size(sizes) != k,
    lambda sizes, k: (size := _modular_size(sizes)) is None or not 2 <= size <= k,
    lambda sizes, k: max(sizes) <= k,
    lambda sizes, k: k not in sizes,
), strict=True))


def parse_view(n: int, spec: str) -> PosetView:
    """Build a view from its CLI spec string, e.g. ``full``, ``ranks:1,3``,
    ``qnk:k=3``, ``le:k=2``, ``even``, ``even-top:k=2``."""
    spec = spec.strip()
    if spec.startswith("ranks:"):
        return rank_selected_view(n, parse_rank_set(spec[len("ranks:"):]))
    name, colon, arg = spec.partition(":")
    if name not in BLOCK_SIZE_FAMILIES and name not in ("full", "even", "even-top"):
        raise ValueError(f"unknown view spec {spec!r}")
    k = None
    if colon:
        # full and even take no parameter, not even an empty one
        if name in ("full", "even") or not arg.startswith("k=") or not is_decimal(arg[2:]):
            raise ValueError(f"malformed view parameter in {spec!r}")
        k = int(arg[2:])
    if name == "full":
        return PosetView(n, "full", range(1, n - 1))
    if k is None and name != "even":
        raise ValueError(f"view {name!r} needs k=")
    if name in BLOCK_SIZE_FAMILIES:
        if not 2 <= k <= n - 1:
            raise ValueError(f"need 2 <= k <= n-1, got k={k}, n={n}")
        keep = _KEEP[name]
        return PosetView(n, f"{name}:k={k}", range(1, n - 1), lambda sizes: keep(sizes, k))
    # partitions with an even number of blocks: ranks n-2, n-4, ... down to
    # 2, or the top k of them
    if n % 2 or n < 4:
        raise ValueError(f"even-block view needs an even ground size >= 4, got {n}")
    if name == "even":
        return PosetView(n, "even", range(2, n - 1, 2))
    if not 1 <= k <= n // 2 - 1:
        raise ValueError(f"need 1 <= k <= n/2-1, got k={k}")
    return PosetView(n, f"even-top:k={k}", range(n - 2 * k, n - 1, 2))


# ---------------------------------------------------------------------------
# fixed chains

def fixed_chain_count(view: PosetView, cycle_type) -> int:
    """Number of maximal chains of the rank-selected view fixed pointwise by
    the canonical permutation of *cycle_type* (conjugacy makes the choice
    immaterial); any other view raises :class:`ValueError`."""
    return maximal_chains(view, canonical_permutation(check_partition(cycle_type), view.n))
