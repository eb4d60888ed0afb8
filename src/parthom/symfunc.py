"""Exact symmetric function arithmetic over the rationals.

A :class:`SymFunc` is its powersum expansion: a finite map from partitions
lam to the ``Fraction`` coefficients of p_lam (zeros are never stored).
Inhomogeneous values are allowed, with the degree of a term given by the
weight of its partition.  Every operation is a monomial one on these terms:
products concatenate indices, plethysm substitutes p_i -> p_{ik}, the
involution omega only signs, omega(p_lam) = (-1)^(|lam| - len(lam)) p_lam,
and the Hall pairing is <p_lam, p_mu> = z_lam when lam = mu and 0 otherwise.

A basis is named only to read coefficients out: ``in_basis`` gives them in
powersum ``p``, complete homogeneous ``h``, elementary ``e``, Schur ``s`` or
monomial ``m`` as an :class:`Expansion`, which the commands print and
:func:`is_positive` tests.  The tables ``_p_in(basis, mu)``, p_mu in the h,
s or m basis, are built over ``int``:

* ``p_n`` expands into h by Newton's identities;
* ``e`` is read as the h coefficients of the omega image;
* p_mu = sum over lam of chi^lam(mu) s_lam, from the symmetric group
  characters of :mod:`parthom.chartable`, with no floating point and no
  determinants;
* the m_lam coefficient of p_mu counts the ways to put the parts of mu
  into boxes with sums lam.

A conversion sums the tables over the common denominator of the p
coefficients and divides once per output term, the only place a
``Fraction`` is made from them.  The one way in from another basis is
:func:`from_h`, by the class-size formula n! h_n = sum over lam |- n of
(n! / z_lam) p_lam, an integer table too.

``plethysm`` is the one plethysm: ``plethysm_with_h_sum``, the degree-n
part of f[h_1 + h_2 + ...], is the degree-n part of ``plethysm`` into
h_1 + ... + h_n.  The class-value recurrence of :mod:`parthom.reps`
counts the matrix of that map itself, without this module.

Coefficients must be rational: a float (whose binary expansion
``Fraction`` would keep) is refused with ``TypeError``.

All values are immutable after construction and every operation is a pure
function; the tables are memoized with ``lru_cache`` and hand out
immutable tuples.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm, prod
from numbers import Rational
from typing import NamedTuple

from .chartable import character
from .errors import SCHUR_REFUSAL, refuse_past
from .partitions import (
    canonical_sort_key,
    check_partition,
    partitions_of,
    zee,
)

Terms = dict  # partition tuple -> Fraction, or int in the integer tables


def _clean(terms) -> Terms:
    out = {}
    for lam, c in terms.items():
        c = as_fraction(c)
        if c:
            out[check_partition(lam)] = c
    return out


def as_fraction(c) -> Fraction:
    """*c* as a ``Fraction``; anything that is not a rational number (a float
    above all, whose binary expansion ``Fraction`` would keep) is refused."""
    if not isinstance(c, Rational):
        raise TypeError(f"coefficient {c!r} is not a rational number")
    return Fraction(c)


def _merge_mul(a: Terms, b: Terms, max_degree: int | None = None) -> Terms:
    """Product in a multiplicative basis: indices concatenate and re-sort."""
    out: Terms = {}
    for lam, c in a.items():
        wl = sum(lam)
        for mu, d in b.items():
            if max_degree is not None and wl + sum(mu) > max_degree:
                continue
            key = tuple(sorted(lam + mu, reverse=True))
            v = out.get(key, 0) + c * d
            if v:
                out[key] = v
            else:
                out.pop(key, None)
    return out


def _add_into(acc: Terms, terms: Terms, c=1) -> None:
    for lam, v in terms.items():
        w = acc.get(lam, 0) + c * v
        if w:
            acc[lam] = w
        else:
            acc.pop(lam, None)


# ---------------------------------------------------------------------------
# expansions between h and powersums, memoized

@lru_cache(maxsize=None)
def _h_in_p(n: int) -> tuple:
    # n! h_n = sum over lam |- n of (n! / z_lam) p_lam, with integer coefficients
    return tuple((lam, factorial(n) // zee(lam)) for lam in partitions_of(n))


@lru_cache(maxsize=None)
def _p_in_h(n: int) -> tuple:
    # Newton: p_n = n h_n - sum_{i<n} h_{n-i} p_i, with integer coefficients
    acc: Terms = {(n,): n}
    for i in range(1, n):
        _add_into(acc, _merge_mul({(n - i,): 1}, dict(_p_in_h(i))), -1)
    return tuple(acc.items())


def _product(table, lam: tuple) -> Terms:
    """The product over the parts of lam of the one-part expansions table(part)."""
    acc: Terms = {(): 1}
    for part in lam:
        acc = _merge_mul(acc, dict(table(part)))
    return acc


@lru_cache(maxsize=None)
def _p_in(basis: str, mu: tuple) -> tuple:
    """p_mu expanded in the basis B = h, s or m; every coefficient is an int."""
    if basis == "h":
        return tuple(_product(_p_in_h, mu).items())
    n = sum(mu)
    if basis == "s":
        # p_mu = sum over lam of chi^lam(mu) s_lam
        refuse_past("schur_degree", n, SCHUR_REFUSAL)
        return tuple((lam, chi) for lam in partitions_of(n) if (chi := character(lam, mu)))
    # the m_lam coefficient counts the ways to put the parts of mu into boxes
    # with sums lam.  The first part k goes into a new box or onto a box of
    # size v of each way nu for the other parts, and each lam so made is
    # reached from nu once for every box of lam of size v + k
    if not mu:
        return (((), 1),)
    k, acc = mu[0], {}
    for nu, c in _p_in("m", mu[1:]):
        for v in {0, *nu}:
            i = nu.index(v) if v else len(nu)
            lam = tuple(sorted(nu[:i] + (v + k,) + nu[i + 1:], reverse=True))
            acc[lam] = acc.get(lam, 0) + c * lam.count(v + k)
    return tuple((lam, acc[lam]) for lam in partitions_of(n) if lam in acc)


def _twist(terms: Terms) -> Terms:
    """The involution omega on powersum terms, p_lam -> (-1)^(|lam| - len(lam)) p_lam;
    it sends h_lam to e_lam and s_lam to the Schur function of the conjugate."""
    return {lam: -c if (sum(lam) - len(lam)) % 2 else c for lam, c in terms.items()}


def _from_p(target: str, pterms: Terms) -> Terms:
    if target == "p":
        return dict(pterms)
    if target == "e":
        return _from_p("h", _twist(pterms))
    if target not in ("h", "s", "m"):
        raise ValueError(f"unknown basis {target!r}")
    # the tables are integral: sum over the common denominator of the
    # coefficients and divide once per output term
    den = lcm(*(c.denominator for c in pterms.values()))
    acc: Terms = {}
    for mu, c in pterms.items():
        _add_into(acc, dict(_p_in(target, mu)), c.numerator * (den // c.denominator))
    return {lam: Fraction(v, den) for lam, v in acc.items()}


# ---------------------------------------------------------------------------

class Expansion(NamedTuple):
    """The coefficients of a symmetric function in one named basis."""

    basis: str
    terms: Terms

    def to_json_dict(self) -> dict:
        ordered = sorted(self.terms.items(), key=lambda kv: canonical_sort_key(kv[0]))
        return {
            "basis": self.basis,
            "terms": [{"partition": list(lam), "coeff": str(c)} for lam, c in ordered],
        }


class SymFunc:
    """A symmetric function: exact rational coefficients of powersums."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        object.__setattr__(self, "terms", _clean(terms or {}))

    def __setattr__(self, name, value):
        raise AttributeError("SymFunc values are immutable")

    def dimension(self) -> Fraction:
        """Character value at the identity: n! times the p_(1^n) coefficient,
        summed over homogeneous components (degree 0 contributes its constant)."""
        degrees = {sum(lam) for lam in self.terms}
        return sum((self.terms.get((1,) * n, 0) * factorial(n) for n in degrees), Fraction(0))

    def in_basis(self, target: str) -> Expansion:
        """The coefficients in the basis *target*: p, h, e, s or m."""
        return Expansion(target, _from_p(target, self.terms))

    # -- ring structure -------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, SymFunc):
            acc = dict(self.terms)
            _add_into(acc, other.terms)
            return SymFunc(acc)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, SymFunc):
            acc = dict(self.terms)
            _add_into(acc, other.terms, -1)
            return SymFunc(acc)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, Rational):
            return SymFunc({lam: v * other for lam, v in self.terms.items()})
        if isinstance(other, SymFunc):
            return SymFunc(_merge_mul(self.terms, other.terms))
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, SymFunc):
            return self.terms == other.terms
        return NotImplemented

    __hash__ = None

    def inner(self, other: "SymFunc") -> Fraction:
        """Hall inner product; powersums are orthogonal with <p_lam, p_lam> = z_lam."""
        a, b = self.terms, other.terms
        if len(b) < len(a):
            a, b = b, a
        return sum((c * b[lam] * zee(lam) for lam, c in a.items() if lam in b), Fraction(0))

    def d_dp1(self) -> "SymFunc":
        """Formal partial derivative with respect to p_1 (restriction to the
        next smaller symmetric group): p_lam with m parts 1 goes to m p_lam'
        for lam' = lam less one part 1, which is its last part."""
        return SymFunc({lam[:-1]: lam.count(1) * c
                        for lam, c in self.terms.items() if lam and lam[-1] == 1})

    def sign_twist(self) -> "SymFunc":
        """The involution sending p_k to (-1)^(k-1) p_k, i.e. tensoring the
        underlying module with the sign representation."""
        return SymFunc(_twist(self.terms))


# ---------------------------------------------------------------------------
# constructors

def powersum(spec, coeff=1) -> SymFunc:
    return SymFunc({check_partition(spec): coeff})


def from_h(terms) -> SymFunc:
    """The function sum of c h_lam over the (lam, c) of *terms*, in powersums."""
    acc: Terms = {}
    for lam, c in terms.items():
        lam = check_partition(lam)
        _add_into(acc, _product(_h_in_p, lam), as_fraction(c) / prod(map(factorial, lam)))
    return SymFunc(acc)


# ---------------------------------------------------------------------------
# plethysm

def plethysm(f: SymFunc, g: SymFunc, max_degree: int) -> SymFunc:
    """Plethysm f[g] truncated to total degree <= max_degree.

    In the powersum basis p_k[g] substitutes p_i -> p_{ik} throughout g, and
    the result extends multiplicatively and linearly in f.  g must have zero
    constant term, otherwise the substitution diverges.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    gp = g.terms
    if gp.get((), 0):
        raise ValueError("plethysm into a series with nonzero constant term")

    def substitute(k: int) -> Terms:
        return {
            tuple(sorted((part * k for part in lam), reverse=True)): c
            for lam, c in gp.items()
            if sum(lam) * k <= max_degree
        }

    acc: Terms = {}
    for lam, c in f.terms.items():
        cur: Terms = {(): Fraction(1)}
        for part in lam:
            cur = _merge_mul(cur, substitute(part), max_degree)
            if not cur:
                break
        _add_into(acc, cur, c)
    return SymFunc(acc)


def plethysm_with_h_sum(f: SymFunc, n: int) -> SymFunc:
    """Degree-n component of f[h_1 + h_2 + ...]: the degree-n part of the
    truncated ``plethysm`` of f into h_1 + ... + h_n, which no h_i with
    i > n reaches."""
    full = plethysm(f, from_h({(i,): 1 for i in range(1, n + 1)}), n)
    return SymFunc({lam: c for lam, c in full.terms.items() if sum(lam) == n})


# ---------------------------------------------------------------------------
# positivity and hook Schur functions

def is_positive(f: SymFunc, basis: str) -> bool:
    """True when every coefficient of *f* in *basis* is a nonnegative integer."""
    return all(c >= 0 and c.denominator == 1 for c in f.in_basis(basis).terms.values())


def hook_schur(n: int, k: int) -> SymFunc:
    """Schur function of the hook (n-k, 1^k): the sum over mu of
    chi^(n-k,1^k)(mu) p_mu / z_mu."""
    if not 0 <= k <= n - 1:
        raise ValueError(f"need 0 <= k <= n-1, got n={n}, k={k}")
    hook = (n - k,) + (1,) * k
    return SymFunc({mu: Fraction(character(hook, mu), zee(mu)) for mu in partitions_of(n)})
