"""Irreducible symmetric group characters by border-strip recursion.

``character(lam, mu)`` evaluates the irreducible character indexed by the
partition ``lam`` on the conjugacy class of cycle type ``mu``.  The
recursion peels a border strip of length ``mu[0]`` off the diagram of
``lam``; strips are located through first-column hook lengths (beta
numbers), which makes both the "leaves a partition" test and the spanned
row count cheap.  Everything is memoized globally, so evaluating every
character of a degree reuses all smaller degrees.
"""

from __future__ import annotations

from functools import lru_cache


@lru_cache(maxsize=None)
def character(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    """Exact value of the irreducible character ``lam`` at class ``mu``."""
    if sum(lam) != sum(mu):
        raise ValueError(f"weight mismatch: {lam!r} vs {mu!r}")
    if not mu:
        return 1
    r = mu[0]
    rest = mu[1:]
    ell = len(lam)
    betas = [lam[i] + ell - 1 - i for i in range(ell)]
    bset = set(betas)
    total = 0
    for b in betas:
        c = b - r
        if c < 0 or c in bset:
            continue
        height = sum(1 for x in betas if c < x < b)
        newbetas = sorted((x for x in betas if x != b), reverse=True)
        newbetas.append(c)
        newbetas.sort(reverse=True)
        lam2 = tuple(nb - (ell - 1 - i) for i, nb in enumerate(newbetas))
        while lam2 and lam2[-1] == 0:
            lam2 = lam2[:-1]
        sub = character(lam2, rest)
        if sub:
            total += -sub if height % 2 else sub
    return total
