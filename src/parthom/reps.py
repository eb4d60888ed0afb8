"""Chain and homology modules of rank-selected partition lattices.

Two independent computation paths exist for both families and they are
cross-checked in the tests:

* the *chains* path evaluates the permutation character directly, counting
  maximal chains fixed by one permutation per cycle type, and applies the
  Frobenius characteristic;
* the *recurrence* path peels the lowest selected rank with a plethysm
  into h_1 + h_2 + ... in the right degree, on integer class values: a
  product with the count N of the set partitions fixed by each permutation.

On top of these sit the classical numbers attached to the lattice: Euler
(zigzag) numbers, the simsun multiplicities decomposing the chain action
into orbits whose stabilizers are Young subgroups with blocks of size at
most two, the coefficients of the even-block-count homology, and the
(generalised) Whitehouse modules of the modular-deletion subposets.  The
even-block characteristic is assembled from its coefficients alone;
``check --suite even`` checks it against the recurrence.

Every module here, the named ones included, is integer class values over
``partitions_of(n)``, each named one by a closed form in the class: a
product with h_1^r reads the class with r fewer fixed points, and
restriction the class with one more.  No command calls
:func:`characteristic` or the two built on it, which make a ``SymFunc``
for the tests and for the benchmark's tracer (it binds both).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate, chain, combinations, groupby, product
from math import comb, factorial, perm
from operator import mul, sub
from typing import NamedTuple

from . import poset, symfunc
from .chartable import character
from .errors import CHAIN_REFUSAL, ModuleCheckError, rank_set, refuse_past
from .partitions import check_partition, partitions_of, zee


def chain_characteristic(n: int, ranks, method: str = "recurrence") -> symfunc.SymFunc:
    """Frobenius characteristic of the symmetric group action on the maximal
    chains of the rank-selected subposet (the alpha module of the rank set).

    The empty rank set gives the trivial module h_n (a single empty chain).
    """
    return characteristic(n, class_values(n, ranks, method=method))


def homology_characteristic(n: int, ranks, method: str = "recurrence") -> symfunc.SymFunc:
    """Frobenius characteristic of the action on the top homology of the
    rank-selected subposet (the beta module of the rank set)."""
    return characteristic(n, class_values(n, ranks, homology=True, method=method))


def class_values(n: int, ranks, homology: bool = False,
                 method: str = "recurrence") -> tuple[int, ...]:
    """Integer class values over ``partitions_of(n)`` of the alpha module of
    a rank set, or with ``homology`` of its beta module.

    ``recurrence`` peels the lowest rank s1: alpha_S(n) is N_{n,n-s1} applied
    to alpha of S - s1 in degree n - s1, and beta subtracts beta of S
    without s1 from the same product.  ``chains`` counts the maximal chains
    that one permutation of each cycle type fixes, independently of the
    recurrence.  For beta, ``chains`` and ``inclusion_exclusion`` sum
    (-1)^|S - T| alpha_T over the subsets T of S, with chain-counted alphas
    and with alphas from the recurrence respectively.
    """
    refuse_past("degree", n)
    ranks = rank_set(n, ranks)
    if method == "recurrence":
        return _recurrence(n, ranks, homology)
    if method == "chains":
        refuse_past("chain_degree", n, CHAIN_REFUSAL)
        alpha = _fixed_chain_values
    elif method == "inclusion_exclusion":
        alpha = lambda m, subset: _recurrence(m, subset, False)
    else:
        raise ValueError(
            f"unknown method {method!r} (use 'recurrence', 'inclusion_exclusion' or 'chains')"
        )
    if not homology:
        return alpha(n, ranks)
    values = [0] * len(partitions_of(n))
    for subset in rank_subsets(ranks):
        sign = (-1) ** (len(ranks) - len(subset))
        values = [v + sign * a for v, a in zip(values, alpha(n, subset))]
    return tuple(values)


def rank_subsets(ranks):
    """Every subset of the rank set, by size, each size in lexicographic
    order."""
    ranks = tuple(ranks)
    return chain.from_iterable(combinations(ranks, size) for size in range(len(ranks) + 1))


@lru_cache(maxsize=None)
def _fixed_chain_values(n: int, ranks: tuple[int, ...]) -> tuple[int, ...]:
    """Class values of the alpha module by the chain method: the maximal
    chains of the rank-selected view fixed by each cycle type."""
    view = poset.rank_selected_view(n, ranks)
    return tuple(poset.fixed_chain_count(view, mu) for mu in partitions_of(n))


def characteristic(n: int, values) -> symfunc.SymFunc:
    """Frobenius characteristic of integer class values over
    ``partitions_of(n)``: the sum of values[mu] p_mu / z_mu."""
    from fractions import Fraction

    return symfunc.SymFunc({mu: Fraction(v, zee(mu))
                            for mu, v in zip(partitions_of(n), values) if v})


def restriction(n: int, values) -> tuple[int, ...]:
    """Class values over ``partitions_of(n - 1)`` of the restriction of
    class values of degree n to the point stabilizer: the value at nu u (1)."""
    at = dict(zip(partitions_of(n), values))
    return tuple(at[nu + (1,)] for nu in partitions_of(n - 1))


@lru_cache(maxsize=None)
def _recurrence(n: int, ranks: tuple[int, ...], homology: bool) -> tuple[int, ...]:
    """Alpha, or with ``homology`` beta, of a sorted rank set, peeling its
    lowest rank s: alpha_S(n) = N_{n,n-s} alpha_{S'}(n - s), and beta
    subtracts beta_{S - s}(n) from the same product."""
    if not ranks:
        return (1,) * len(partitions_of(n))
    s1 = ranks[0]
    inner = _recurrence(n - s1, tuple(r - s1 for r in ranks[1:]), homology)
    values = [sum(c * inner[j] for j, c in row) for row in _fixed_partition_counts(n, n - s1)]
    if homology:
        values = map(sub, values, _recurrence(n, ranks[1:], True))
    return tuple(values)


@lru_cache(maxsize=None)
def _fixed_partition_counts(n: int, m: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Sparse rows of N_{n,m}, as (index of lam, N(nu, lam)) pairs per nu:
    N(nu, lam) counts the partitions of [n] into m blocks fixed by a
    permutation of type nu that permutes their blocks with type lam.  It
    maps class values of f to those of f[h_1 + h_2 + ...] in degree n."""
    index = {sum(1 << 16 * part for part in lam): j for j, lam in enumerate(partitions_of(m))}
    return tuple(tuple(sorted((index[lam], c) for lam, c in _block_orbit_counts(nu)[m]))
                 for nu in partitions_of(n))


@lru_cache(maxsize=None)
def _block_orbit_counts(nu: tuple[int, ...]) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Layer s: every nonzero (lam, N(nu, lam)) with lam of size s, packed in
    one int that holds the multiplicity of each part j in bits 16j up.  Walk
    the cycles of nu, largest first: the block orbit of the first, of length
    c, has j blocks for some j | c, and takes k of the m other cycles of one
    length that j divides, each in one of j phases, in C(m, k) j^k ways."""
    if not nu:
        return (((0, 1),),)
    groups = [(part, len(tuple(run))) for part, run in groupby(nu[1:])]
    layers: list[dict[int, int]] = [{} for _ in range(sum(nu) + 1)]
    for j in (j for j in range(1, nu[0] + 1) if nu[0] % j == 0):
        options = [[(comb(m, k) * j**k, (part,) * (m - k)) for k in range(m + 1)]
                   if part % j == 0 else [(1, (part,) * m)] for part, m in groups]
        for choice in product(*options):
            ways, left, part_j = 1, (), 1 << 16 * j
            for w, cycles in choice:
                ways, left = ways * w, left + cycles
            # the cycles left over recurse, and j joins lam
            for counts, layer in zip(layers[j:], _block_orbit_counts(left)):
                for lam, count in layer:
                    counts[lam + part_j] = counts.get(lam + part_j, 0) + ways * count
    return tuple(tuple(counts.items()) for counts in layers)


# ---------------------------------------------------------------------------
# the top homology of the full lattice, and the hooks

@lru_cache(maxsize=None)
def _number_mobius(d: int) -> int:
    if d == 1:
        return 1
    out, m, p = 1, d, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            out = -out
        p += 1
    if m > 1:
        out = -out
    return out


def lie_character(n: int) -> tuple[int, ...]:
    """Class values of the top homology of the full proper part, the sign
    twist of the induction of a faithful character of the cyclic group of
    order n: nonzero only at the classes (d^m) with n = dm, where it is
    (-1)^(n-m) moebius(d) d^(m-1) (m-1)!."""
    if n < 1:
        raise ValueError("n must be positive")
    return tuple(map(_lie_value, partitions_of(n)))


def _lie_value(mu: tuple[int, ...]) -> int:
    """The value of lie(|mu|) at mu."""
    d, m = mu[0], len(mu)
    if mu[-1] != d:
        return 0
    return (-1) ** (d * m - m) * _number_mobius(d) * d ** (m - 1) * factorial(m - 1)


def hook_character(n: int, k: int) -> tuple[int, ...]:
    """The irreducible character of the hook (n-k, 1^k), its row of the
    character table."""
    if not 0 <= k <= n - 1:
        raise ValueError(f"need 0 <= k <= n-1, got n={n}, k={k}")
    hook = (n - k,) + (1,) * k
    return tuple(character(hook, mu) for mu in partitions_of(n))


# ---------------------------------------------------------------------------
# trivial-representation multiplicities

class Multiplicities(NamedTuple):
    """Orbit/multiplicity quadruple of one rank set: a (chain orbits),
    a' (chain orbits under the point stabilizer), b (trivial multiplicity
    in homology), b' (trivial multiplicity after restricting to the point
    stabilizer)."""

    a: int
    a_prime: int
    b: int
    b_prime: int


def schur_multiplicity(values: tuple[int, ...], lam) -> int:
    """<chi, s_lam> for integer class values of chi over ``partitions_of(n)``:
    sum of chi(nu) |class of nu| chi^lam(nu) over nu, over n!, which must be
    exact.  Values of another degree than lam are refused with ``ValueError``."""
    lam = check_partition(lam)
    weights = _class_weights(lam)
    if len(values) != len(weights):
        raise ValueError(f"{len(values)} class values paired with s{lam}, "
                         f"whose degree {sum(lam)} has {len(weights)} classes")
    total = sum(map(mul, values, weights))
    quotient, remainder = divmod(total, factorial(sum(lam)))
    if remainder:
        raise ModuleCheckError(f"non-integer multiplicity {total}/{sum(lam)}! of s{lam}")
    return quotient


@lru_cache(maxsize=None)
def _class_weights(lam: tuple[int, ...]) -> tuple[int, ...]:
    """|class of nu| chi^lam(nu) for nu over ``partitions_of(n)``."""
    n = sum(lam)
    return tuple(factorial(n) // zee(nu) * character(lam, nu) for nu in partitions_of(n))


def trivial_multiplicities(n: int, values: tuple[int, ...]) -> tuple[int, int]:
    """(trivial, refl) of integer class values over ``partitions_of(n)``:
    the trivial multiplicity, and the trivial multiplicity after restriction
    to the point stabilizer, <chi, h_n> + <chi, s_(n-1,1)>."""
    trivial = schur_multiplicity(values, (n,))
    return trivial, trivial + schur_multiplicity(values, (n - 1, 1))


def multiplicities(n: int, ranks) -> Multiplicities:
    return Multiplicities(*trivial_multiplicities(n, class_values(n, ranks)),
                          *trivial_multiplicities(n, class_values(n, ranks, homology=True)))


# ---------------------------------------------------------------------------
# integer sequences

def euler_number(n: int) -> int:
    """Zigzag number: alternating permutation count, tan + sec coefficients,
    the last entry of row n of the boustrophedon (Entringer) triangle.  The
    process keeps one triangle, extended a row at a time as needed, so
    E_0, ..., E_N cost O(N^2) additions in all."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    while len(_EULER) <= n:
        # entry k of row m is entry k - 1 plus entry m - k of row m - 1
        _EULER_ROW[:] = list(accumulate(reversed(_EULER_ROW), initial=0))
        _EULER.append(_EULER_ROW[-1])
    return _EULER[n]


#: E_0, ..., E_m so far, and row m of the triangle
_EULER, _EULER_ROW = [1], [1]


@lru_cache(maxsize=None)
def simsun(i: int, n: int) -> int:
    """Orbit multiplicities of the chain action: a_i(n+1) = i a_i(n) +
    (n - 2i + 2) a_{i-1}(n), seeded by a_0(1) = a_1(2) = 1."""
    if i < 0 or n < 1 or 2 * i > n:
        return 0
    if n == 1:
        return 1 if i == 0 else 0
    if i == 0:
        return 0
    return i * simsun(i, n - 1) + (n - 2 * i + 1) * simsun(i - 1, n - 1)


def _comb0(a: int, b: int) -> int:
    return comb(a, b) if 0 <= b <= a else 0


@lru_cache(maxsize=None)
def even_block_multiplicity(i: int, n: int) -> int:
    """Coefficient b_i(n) of the orbit h_2^i h_1^(2n-2i) in the top homology
    of the even-block-count subposet, from its double-sum recurrence with
    b_2(n) = 1.  The sums are finite: k stops where the inner index drops
    below 2 and the binomial kills r past i/2."""
    if i < 2 or i > n:
        return 0
    if i == 2:
        return 1
    total = 0
    for k in range(0, i - 1):
        outer = _comb0(2 * n - 2 * i + k, k)
        if not outer:
            continue
        inner = 0
        for r in range(1, i // 2 + 1):
            c = _comb0(i - k, i - 2 * r)
            if c:
                term = c * even_block_multiplicity(i - k, n - r)
                inner += -term if r % 2 == 0 else term
        total += outer * inner
    return total


def ek_number(k: int, n: int) -> int:
    """E_k(n) = sum_i b_i(n) C(n-i, k-i); appears in the rewriting of the
    even-block homology over h_2^i e_2^(n-i)."""
    return sum(
        even_block_multiplicity(i, n) * _comb0(n - i, k - i) for i in range(2, n + 1)
    )


def even_block_characteristic(n: int) -> tuple[int, ...]:
    """Class values over ``partitions_of(2n)`` of the top homology of the
    even-block-count subposet of the lattice on 2n points, sum_i b_i(n)
    h_2^i h_1^(2n-2i).  ``check --suite even`` compares it with the homology
    module of the even rank selection computed by the recurrence."""
    if n < 2:
        raise ValueError("need n >= 2")
    return pair_orbit_values(2 * n, {i: even_block_multiplicity(i, n) for i in range(2, n + 1)})


def pair_orbit_values(n: int, weights: dict[int, int]) -> tuple[int, ...]:
    """Class values over ``partitions_of(n)`` of sum_i weights[i] h_2^i
    h_1^(n-2i).  At mu with t 2-cycles, f fixed points and no longer cycle,
    h_2^i h_1^(n-2i) counts the fixed tabloids: the t 2-cycles fill t of
    the i blocks of size 2, in i!/(i-t)! ways, and the fixed points fill
    the rest, in f!/2^(i-t) ways."""
    values = []
    for mu in partitions_of(n):
        t = mu.count(2)
        f = n - 2 * t
        values.append(0 if mu[0] > 2 else sum(
            c * perm(i, t) * factorial(f) // 2 ** (i - t) for i, c in weights.items() if i >= t))
    return tuple(values)


# ---------------------------------------------------------------------------
# Whitehouse modules

def whitehouse_module(n: int, k: int) -> tuple[int, ...]:
    """Class values of the (generalised) Whitehouse module lie(k) h_1^(n-k)
    - lie(n): at mu with f fixed points, lie(k) at mu less n-k of them,
    times f!/(f-n+k)!, minus lie(n) at mu.

    A true module for 2 <= k <= n-1; at k = n-1 its restriction one degree
    down is lie(n-1) again.
    """
    if not 2 <= k <= n - 1:
        raise ValueError(f"need 2 <= k <= n-1, got n={n}, k={k}")
    r = n - k
    return tuple((_lie_value(mu[:len(mu) - r]) * perm(f, r) if (f := mu.count(1)) >= r else 0)
                 - _lie_value(mu) for mu in partitions_of(n))
