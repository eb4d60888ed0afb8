"""Set partitions of {1..n}: canonical form, refinement order, relabeling.

The canonical form of a partition sorts each block and then sorts blocks by
their minimum, so equality and hashing are structural.  Generation with a
prescribed block count walks restricted-growth strings, which yields each
partition exactly once in a stable, documented order.  Given a permutation,
the same walk yields only the strings of the partitions it fixes, pruning
a prefix as soon as the map it induces on the groups stops being a partial
bijection, so the fixed partitions are generated rather than filtered.
:func:`growth_table` caches each walk as a tuple of strings, and
:func:`from_growth` makes a :class:`SetPartition` from a string only when
one is asked for.
"""

from __future__ import annotations

from functools import lru_cache

from .partitions import check_partition


class SetPartition:
    __slots__ = ("n", "blocks", "block_of")

    def __init__(self, n: int, blocks):
        canon = tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0]))
        seen: dict[int, int] = {}
        for idx, block in enumerate(canon):
            if not block:
                raise ValueError("empty block")
            for x in block:
                if x in seen:
                    raise ValueError(f"element {x} in two blocks")
                seen[x] = idx
        if sorted(seen) != list(range(1, n + 1)):
            raise ValueError(f"blocks do not cover 1..{n}: {blocks!r}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "blocks", canon)
        object.__setattr__(self, "block_of", tuple(seen[i] for i in range(1, n + 1)))

    def __setattr__(self, name, value):
        raise AttributeError("SetPartition values are immutable")

    @property
    def rank(self) -> int:
        return self.n - len(self.blocks)

    def refines(self, other: "SetPartition") -> bool:
        """True iff every block of self lies inside a block of *other*
        (self <= other in the refinement order)."""
        if self.n != other.n:
            raise ValueError("ground sets differ")
        of = other.block_of
        for block in self.blocks:
            target = of[block[0] - 1]
            for x in block[1:]:
                if of[x - 1] != target:
                    return False
        return True

    def __eq__(self, other):
        if isinstance(other, SetPartition):
            return self.n == other.n and self.blocks == other.blocks
        return NotImplemented

    def __hash__(self):
        return hash((self.n, self.blocks))

    def __lt__(self, other):
        # element-list ordering only (rank, then canonical form); not the poset order
        return (self.rank, self.blocks) < (other.rank, other.blocks)

    def __str__(self):
        sep = "," if self.n > 9 else ""
        return "|".join(sep.join(str(x) for x in b) for b in self.blocks)

    __repr__ = __str__


def restricted_growth(n: int, k: int, perm=None):
    """Yield, in lexicographic order, every restricted-growth string of
    length n with k values: item i goes to group g[i], numbered by first item.

    With *perm*, the tuple of images of items 0..n-1, yield only the strings
    whose partition *perm* maps to itself.  Items are assigned in order, and
    each pair (g[i], g[perm[i]]) is entered, once both items are assigned,
    into the partial map that *perm* induces on the groups and into its
    inverse.  A prefix is extended only while that map can still be a
    bijection, i.e. stays a function and one-to-one; once every item is
    assigned it is defined on every group, so it is a bijection.
    """
    if k < 0 or k > n:
        return
    if n == 0:
        yield ()
        return
    if perm is not None:
        # the pairs (j, perm[j]) whose later item is i, so complete at item i
        completed = [[] for _ in range(n)]
        for j, q in enumerate(perm):
            completed[max(j, q)].append((j, q))
        image_of = [-1] * k  # group -> the group perm maps it to
        source_of = [-1] * k  # the inverse map
        linked = [[] for _ in range(n)]  # groups whose image item i entered
    # depth-first, without recursion: g[i] is the group tried for item i
    # (-1 before the first), opened[i] the groups opened by items before i
    g, opened = [-1] * n, [0] * (n + 1)
    i = 0
    while i >= 0:
        if perm is not None:
            for a in linked[i]:
                source_of[image_of[a]] = -1
                image_of[a] = -1
            linked[i].clear()
        b, top = g[i] + 1, opened[i]
        if b == 0 and top + n - 1 - i < k:
            b = top  # too few items left to join an open group
        if b > top or b == k:
            g[i] = -1
            i -= 1
            continue
        g[i] = b
        if perm is not None:
            clash = False
            for j, q in completed[i]:
                a, c = g[j], g[q]
                if image_of[a] == c:
                    continue
                if image_of[a] >= 0 or source_of[c] >= 0:
                    clash = True
                    break
                image_of[a], source_of[c] = c, a
                linked[i].append(a)
            if clash:
                continue  # the links made so far are undone on the next pass
        opened[i + 1] = top + (b == top)
        if i + 1 < n:
            i += 1
        elif opened[n] == k:
            yield tuple(g)


def growth_table(n: int, k: int, perm=None) -> tuple[tuple[int, ...], ...]:
    """The strings :func:`restricted_growth` yields, as one cached tuple:
    every string of length n with k values, or with *perm* (a tuple of the
    images of items 0..n-1) those whose partition *perm* fixes.  The
    identity shares the table of ``perm=None``."""
    if perm is not None and perm == tuple(range(n)):
        perm = None
    return _growth_table(n, k, perm)


@lru_cache(maxsize=None)
def _growth_table(n, k, perm):
    return tuple(restricted_growth(n, k, perm))


def from_growth(growth) -> SetPartition:
    """The partition of {1..n} whose item i + 1 lies in block growth[i]."""
    blocks: list[list[int]] = [[] for _ in range(max(growth) + 1)]
    for elem, b in enumerate(growth, start=1):
        blocks[b].append(elem)
    return SetPartition(len(growth), blocks)


def canonical_permutation(mu, n: int | None = None) -> tuple[int, ...]:
    """The representative of cycle type *mu* whose cycles are filled with
    consecutive integers, longest cycle first.  Returned as the tuple of
    images of 1..n."""
    mu = check_partition(mu)
    total = sum(mu)
    if n is None:
        n = total
    if total != n:
        raise ValueError(f"cycle type {mu!r} is not a partition of {n}")
    images = list(range(1, n + 1))
    start = 1
    for part in mu:
        for i in range(start, start + part - 1):
            images[i - 1] = i + 1
        images[start + part - 2] = start
        start += part
    return tuple(images)


def act(perm: tuple[int, ...], x: SetPartition) -> SetPartition:
    """Relabel *x* through the permutation (tuple of images of 1..n)."""
    if len(perm) != x.n:
        raise ValueError("permutation degree does not match ground set")
    return SetPartition(x.n, [[perm[e - 1] for e in block] for block in x.blocks])
