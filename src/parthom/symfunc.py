"""Exact symmetric function arithmetic over the rationals.

Every command holds a module as integer class values over
``partitions_of(n)``, and :func:`expansion` is the one read-out: it gives
the Frobenius characteristic of class values in powersum ``p``, complete
homogeneous ``h``, elementary ``e``, Schur ``s`` or monomial ``m`` as an
:class:`Expansion`, which the commands print and :func:`is_positive`
tests.  The coefficient of B_lam is the sum over nu of
values[nu] (n!/z_nu) [B_lam]p_nu, divided by n! once per printed term, the
only place the read-out makes a ``Fraction``.  The tables
``_p_in(basis, mu)``, p_mu in the h, s or m basis, are built over ``int``:

* ``p_n`` expands into h by Newton's identities, and p_mu is the row of
  its first part times the memoized row of the rest;
* ``e`` is read as h after the value at nu is signed by
  (-1)^(n - len(nu)), the involution omega;
* p_mu = sum over lam of chi^lam(mu) s_lam, from the symmetric group
  characters of :mod:`parthom.chartable`, with no floating point and no
  determinants;
* the m_lam coefficient of p_mu counts the ways to put the parts of mu
  into boxes with sums lam.

No command builds a :class:`SymFunc`.  It is its powersum expansion: a
finite map from partitions lam to the ``Fraction`` coefficients of p_lam
(zeros are never stored), inhomogeneous values allowed.  Every operation
is a monomial one on these terms: products concatenate indices, plethysm
substitutes p_i -> p_{ik}, and the Hall pairing is <p_lam, p_mu> = z_lam
when lam = mu and 0 otherwise.  ``SymFunc.in_basis`` reads each degree
out through :func:`expansion`.  The one way in from another basis is
:func:`from_h`, by the class-size formula n! h_n = sum over lam |- n of
(n! / z_lam) p_lam, an integer table too.

``plethysm`` is the one plethysm: ``plethysm_with_h_sum``, the degree-n
part of f[h_1 + h_2 + ...], is the degree-n part of ``plethysm`` into
h_1 + ... + h_n.  The class-value recurrence of :mod:`parthom.reps`
counts the matrix of that map itself, without this module.  The powersum
constructions of the named modules (``powersum``, ``sign_twist``,
``d_dp1``, ``hook_schur``) are test oracles in ``tests/test_class_values.py``.

Coefficients must be rational: a float (whose binary expansion
``Fraction`` would keep) is refused with ``TypeError``.

All values are immutable after construction and every operation is a pure
function; the tables are memoized with ``lru_cache`` and hand out
immutable tuples.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, prod
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
    n = sum(mu)
    if basis == "s":
        # p_mu = sum over lam of chi^lam(mu) s_lam
        refuse_past("schur_degree", n, SCHUR_REFUSAL)
        return tuple((lam, chi) for lam in partitions_of(n) if (chi := character(lam, mu)))
    if not mu:
        return (((), 1),)
    k, rest = mu[0], _p_in(basis, mu[1:])
    if basis == "h":
        # p_mu = p_k p_rest: Newton's row of the first part times the row of the rest
        return tuple(_merge_mul(dict(_p_in_h(k)), dict(rest)).items())
    # the m_lam coefficient counts the ways to put the parts of mu into boxes
    # with sums lam.  The first part k goes into a new box or onto a box of
    # size v of each way nu for the other parts, and each lam so made is
    # reached from nu once for every box of lam of size v + k
    acc = {}
    for nu, c in rest:
        for v in {0, *nu}:
            i = nu.index(v) if v else len(nu)
            lam = tuple(sorted(nu[:i] + (v + k,) + nu[i + 1:], reverse=True))
            acc[lam] = acc.get(lam, 0) + c * lam.count(v + k)
    return tuple((lam, acc[lam]) for lam in partitions_of(n) if lam in acc)


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


def expansion(n: int, values, basis: str) -> Expansion:
    """The coefficients in *basis* (p, h, e, s or m) of the Frobenius
    characteristic of class values over ``partitions_of(n)``: the sum over
    nu of values[nu] (n!/z_nu) [B_lam]p_nu, divided by n! once per term."""
    if basis not in ("p", "h", "e", "s", "m"):
        raise ValueError(f"unknown basis {basis!r}")
    size = factorial(n)
    acc: Terms = {}
    for nu, v in zip(partitions_of(n), values):
        if not v:
            continue
        weight = v * (size // zee(nu))
        if basis == "e" and (n - len(nu)) % 2:
            # omega signs p_nu and sends h_lam to e_lam
            weight = -weight
        row = ((nu, 1),) if basis == "p" else _p_in("h" if basis == "e" else basis, nu)
        for lam, c in row:
            acc[lam] = acc.get(lam, 0) + weight * c
    return Expansion(basis, {lam: Fraction(c, size) for lam, c in acc.items() if c})


# ---------------------------------------------------------------------------

class SymFunc:
    """A symmetric function: exact rational coefficients of powersums."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        object.__setattr__(self, "terms", _clean(terms or {}))

    def __setattr__(self, name, value):
        raise AttributeError("SymFunc values are immutable")

    def in_basis(self, target: str) -> Expansion:
        """The coefficients in the basis *target*, each degree read out by :func:`expansion`."""
        terms: Terms = {}
        # the zero function reads out degree 0, so an unknown basis is refused
        for n in {sum(lam) for lam in self.terms} or {0}:
            values = [self.terms.get(nu, 0) * zee(nu) for nu in partitions_of(n)]
            terms.update(expansion(n, values, target).terms)
        return Expansion(target, terms)

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


# ---------------------------------------------------------------------------
# constructors

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
# positivity

def is_positive(expanded: Expansion) -> bool:
    """True when every coefficient of *expanded* is a nonnegative integer."""
    return all(c >= 0 and c.denominator == 1 for c in expanded.terms.values())
