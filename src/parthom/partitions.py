"""Integer partitions: enumeration, ordering, elementary statistics.

A partition is a plain tuple of weakly decreasing positive integers; the
empty tuple is the unique partition of 0.  Enumeration is in decreasing
lexicographic order throughout, so ``partitions_of(4)`` runs
``(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)``.  Within one weight that
order has no ties, and across weights the canonical order sorts by weight
first.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial


def check_partition(parts) -> tuple[int, ...]:
    """Canonicalize *parts* to a partition tuple.

    Accepts an integer ``n`` (meaning the one-part partition ``(n,)``, or
    ``()`` for ``n == 0``) or any iterable of parts.  Raises ``ValueError``
    if the parts are not weakly decreasing positive integers.
    """
    if isinstance(parts, int):
        if parts < 0:
            raise ValueError(f"negative part: {parts}")
        return (parts,) if parts else ()
    lam = tuple(int(x) for x in parts)
    for i, x in enumerate(lam):
        if x < 1:
            raise ValueError(f"parts must be positive integers, got {lam!r}")
        if i and lam[i - 1] < x:
            raise ValueError(f"parts must be weakly decreasing, got {lam!r}")
    return lam


@lru_cache(maxsize=None)
def partitions_of(n: int, max_part: int | None = None) -> tuple[tuple[int, ...], ...]:
    """All partitions of *n*, each once, in decreasing lexicographic order.

    With *max_part* set, only partitions whose parts are all <= max_part.
    ``partitions_of(0)`` is ``((),)``.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return ((),)
    bound = n if max_part is None else min(max_part, n)
    out = []
    for first in range(bound, 0, -1):
        for rest in partitions_of(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


def multiplicities(lam) -> dict[int, int]:
    """Part -> multiplicity map of a partition."""
    mult: dict[int, int] = {}
    for part in lam:
        mult[part] = mult.get(part, 0) + 1
    return mult


def zee(lam) -> int:
    """Order of the centralizer of a permutation of cycle type *lam*,
    i.e. the product of k^(m_k) * m_k! over the part multiplicities."""
    z = 1
    for part, m in multiplicities(lam).items():
        z *= part**m * factorial(m)
    return z


def canonical_sort_key(lam) -> tuple:
    """Sort key for the canonical term order: weight ascending, then
    decreasing lexicographic within a weight."""
    return (sum(lam), tuple(-p for p in lam))
