"""Exact symmetric function arithmetic over the rationals.

Five bases: powersum ``p``, complete homogeneous ``h``, elementary ``e``,
Schur ``s`` and monomial ``m``.  A :class:`SymFunc` is a basis tag plus a
finite map from partitions to ``Fraction`` coefficients (zeros are never
stored); inhomogeneous values are allowed, with the degree of a term given
by the weight of its partition.

The powersum basis is canonical for arithmetic: products concatenate
indices and plethysm is a monomial substitution there.  The other bases
are reached by exact conversions:

* ``h_n`` expands into powersums by the classical class-size formula;
  ``p_n`` expands back through Newton's identities.
* ``e`` is the image of ``h`` under the involution omega, which only
  signs powersum monomials: omega(p_lam) = (-1)^(|lam| - len(lam)) p_lam.
* Schur conversions pair powersum coefficients against symmetric group
  characters (see :mod:`parthom.chartable`), so no floating point and no
  determinants are involved.
* The m_lam coefficient of p_mu counts the ways to put the parts of mu
  into boxes with sums lam: the set partitions of the parts by block sum,
  times the product of m_i(lam)!.  Back into powersums, Hall duality with
  ``h`` (<h_lam, m_mu> is 1 when lam = mu and 0 otherwise) makes the p_mu
  coefficient of m_lam the h_lam coefficient of p_mu divided by z_mu.

The tables ``_p_in(basis, mu)``, p_mu in the h, s or m basis, are built
over ``int`` (Newton's identities, the character table and the count of
boxes all give integer coefficients).  A conversion out of powersums
sums them over the common denominator of the p coefficients and divides
once per output term, the only place a ``Fraction`` is made from them.

``plethysm`` is the one plethysm: ``plethysm_with_h_sum``, the degree-n
part of f[h_1 + h_2 + ...], is the degree-n part of ``plethysm`` into
h_1 + ... + h_n.  The class-value recurrence of :mod:`parthom.reps`
counts the matrix of that map itself, without this module.

Coefficients must be rational: a float (whose binary expansion
``Fraction`` would keep) is refused with ``TypeError``.

All values are immutable after construction and every operation is a pure
function; the expansions below are memoized with ``lru_cache`` and hand
out immutable tuples.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm
from numbers import Rational

from .chartable import character
from .errors import SCHUR_REFUSAL, refuse_past
from .partitions import (
    canonical_sort_key,
    check_partition,
    partitions_of,
    zee,
)

BASES = ("p", "h", "e", "s", "m")

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


def _scale(terms: Terms, c: Fraction) -> Terms:
    return {lam: v * c for lam, v in terms.items()} if c else {}


def _add_into(acc: Terms, terms: Terms, c=1) -> None:
    for lam, v in terms.items():
        w = acc.get(lam, 0) + c * v
        if w:
            acc[lam] = w
        else:
            acc.pop(lam, None)


# ---------------------------------------------------------------------------
# expansions into and out of powersums, memoized; e and m come from h

@lru_cache(maxsize=None)
def _h_in_p(n: int) -> tuple:
    # h_n = sum over lam |- n of p_lam / z_lam
    return tuple((lam, Fraction(1, zee(lam))) for lam in partitions_of(n))


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
def _in_p(basis: str, lam: tuple) -> tuple:
    """B_lam expanded in powersums, for the basis B = h, s or m."""
    if basis == "h":
        return tuple(_product(_h_in_p, lam).items())
    n = sum(lam)
    if basis == "s":
        # s_lam = sum over mu of chi^lam(mu) p_mu / z_mu
        refuse_past("schur_degree", n, SCHUR_REFUSAL)
        pairs = ((mu, character(lam, mu)) for mu in partitions_of(n))
    else:
        # Hall duality: <m_lam, p_mu> is the h_lam coefficient of p_mu
        pairs = _h_columns(n).get(lam, ())
    return tuple((mu, Fraction(c, zee(mu))) for mu, c in pairs)


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


@lru_cache(maxsize=None)
def _h_columns(n: int) -> dict:
    """The h table ``_p_in("h", row)`` of degree n transposed in one pass:
    each partition maps to its nonzero ``(row, coefficient)`` pairs, rows
    in the order of :func:`partitions_of`.  The m basis reads its rows here."""
    columns: dict = {}
    for row in partitions_of(n):
        for key, c in _p_in("h", row):
            columns.setdefault(key, []).append((row, c))
    return {key: tuple(pairs) for key, pairs in columns.items()}


def _twist(terms: Terms) -> Terms:
    """The involution omega on powersum terms, p_lam -> (-1)^(|lam| - len(lam)) p_lam;
    it sends h_lam to e_lam and s_lam to the Schur function of the conjugate."""
    return {lam: -c if (sum(lam) - len(lam)) % 2 else c for lam, c in terms.items()}


# ---------------------------------------------------------------------------
# conversions between full term maps

def _to_p(basis: str, terms: Terms) -> Terms:
    if basis == "p":
        return dict(terms)
    if basis == "e":
        return _twist(_to_p("h", terms))
    acc: Terms = {}
    for lam, c in terms.items():
        _add_into(acc, dict(_in_p(basis, lam)), c)
    return acc


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

class SymFunc:
    """A symmetric function with exact rational coefficients in one basis."""

    __slots__ = ("basis", "terms")

    def __init__(self, basis: str, terms=None):
        if basis not in BASES:
            raise ValueError(f"unknown basis {basis!r}; expected one of {BASES}")
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "terms", _clean(terms or {}))

    def __setattr__(self, name, value):
        raise AttributeError("SymFunc values are immutable")

    # -- queries ------------------------------------------------------------

    def degrees(self) -> list[int]:
        return sorted({sum(lam) for lam in self.terms})

    def terms_sorted(self) -> list[tuple[tuple[int, ...], Fraction]]:
        return sorted(self.terms.items(), key=lambda kv: canonical_sort_key(kv[0]))

    def dimension(self) -> Fraction:
        """Character value at the identity: n! times the p_(1^n) coefficient,
        summed over homogeneous components (degree 0 contributes its constant)."""
        pt = self.in_basis("p").terms
        total = Fraction(0)
        for n in sorted({sum(lam) for lam in pt}):
            total += pt.get((1,) * n if n else (), 0) * factorial(n)
        return total

    # -- conversions ----------------------------------------------------------

    def in_basis(self, target: str) -> "SymFunc":
        if target == self.basis:
            return self
        return SymFunc(target, _from_p(target, _to_p(self.basis, self.terms)))

    # -- ring structure -------------------------------------------------------

    def _coerced(self, other: "SymFunc") -> Terms:
        return other.in_basis(self.basis).terms

    def __add__(self, other):
        if isinstance(other, SymFunc):
            acc = dict(self.terms)
            _add_into(acc, self._coerced(other))
            return SymFunc(self.basis, acc)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, SymFunc):
            acc = dict(self.terms)
            _add_into(acc, self._coerced(other), Fraction(-1))
            return SymFunc(self.basis, acc)
        return NotImplemented

    def __neg__(self):
        return SymFunc(self.basis, _scale(self.terms, Fraction(-1)))

    def __mul__(self, other):
        if isinstance(other, Rational):
            return SymFunc(self.basis, _scale(self.terms, Fraction(other)))
        if isinstance(other, SymFunc):
            if self.basis == other.basis and self.basis in ("p", "h", "e"):
                return SymFunc(self.basis, _merge_mul(self.terms, other.terms))
            a = _to_p(self.basis, self.terms)
            b = _to_p(other.basis, other.terms)
            return SymFunc("p", _merge_mul(a, b))
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, SymFunc):
            return _to_p(self.basis, self.terms) == _to_p(other.basis, other.terms)
        if isinstance(other, Rational):
            return _to_p(self.basis, self.terms) == ({(): Fraction(other)} if other else {})
        return NotImplemented

    __hash__ = None

    # -- the operations that act through the powersum expansion ---------------

    def inner(self, other: "SymFunc") -> Fraction:
        """Hall inner product; powersums are orthogonal with <p_lam, p_lam> = z_lam."""
        a = _to_p(self.basis, self.terms)
        b = _to_p(other.basis, other.terms)
        if len(b) < len(a):
            a, b = b, a
        return sum((c * b[lam] * zee(lam) for lam, c in a.items() if lam in b), Fraction(0))

    def d_dp1(self) -> "SymFunc":
        """Formal partial derivative with respect to p_1 (restriction to the
        next smaller symmetric group)."""
        return SymFunc("p", _d_dpk(_to_p(self.basis, self.terms), 1))

    def sign_twist(self) -> "SymFunc":
        """The involution sending p_k to (-1)^(k-1) p_k, i.e. tensoring the
        underlying module with the sign representation."""
        return SymFunc("p", _twist(_to_p(self.basis, self.terms))).in_basis(self.basis)

    # -- serialization ---------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "basis": self.basis,
            "terms": [
                {"partition": list(lam), "coeff": str(c)}
                for lam, c in self.terms_sorted()
            ],
        }


def _d_dpk(pterms: Terms, k: int) -> Terms:
    out: Terms = {}
    for lam, c in pterms.items():
        m = lam.count(k)
        if not m:
            continue
        idx = lam.index(k)
        key = lam[:idx] + lam[idx + 1 :]
        v = out.get(key, 0) + m * c
        if v:
            out[key] = v
        else:
            out.pop(key, None)
    return out


# ---------------------------------------------------------------------------
# constructors

def powersum(spec, coeff=1) -> SymFunc:
    return SymFunc("p", {check_partition(spec): coeff})


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
    gp = _to_p(g.basis, g.terms)
    if gp.get((), 0):
        raise ValueError("plethysm into a series with nonzero constant term")
    fp = _to_p(f.basis, f.terms)

    def substitute(k: int) -> Terms:
        return {
            tuple(sorted((part * k for part in lam), reverse=True)): c
            for lam, c in gp.items()
            if sum(lam) * k <= max_degree
        }

    acc: Terms = {}
    for lam, c in fp.items():
        cur: Terms = {(): Fraction(1)}
        for part in lam:
            cur = _merge_mul(cur, substitute(part), max_degree)
            if not cur:
                break
        _add_into(acc, cur, c)
    return SymFunc("p", acc)


def plethysm_with_h_sum(f: SymFunc, n: int) -> SymFunc:
    """Degree-n component of f[h_1 + h_2 + ...]: the degree-n part of the
    truncated ``plethysm`` of f into h_1 + ... + h_n, which no h_i with
    i > n reaches."""
    full = plethysm(f, SymFunc("h", {(i,): 1 for i in range(1, n + 1)}), n)
    return SymFunc("p", {lam: c for lam, c in full.terms.items() if sum(lam) == n})


# ---------------------------------------------------------------------------
# positivity and hook Schur functions

def is_positive(f: SymFunc, basis: str) -> bool:
    """True when every coefficient of *f* in *basis* is a nonnegative integer."""
    return all(c >= 0 and c.denominator == 1 for c in f.in_basis(basis).terms.values())


def hook_schur(n: int, k: int) -> SymFunc:
    """Schur function of the hook (n-k, 1^k) via the alternating sum
    of products h_{n-i} e_i for i = 0..k."""
    if not 0 <= k <= n - 1:
        raise ValueError(f"need 0 <= k <= n-1, got n={n}, k={k}")
    acc: Terms = {}
    for i in range(k + 1):
        sign = Fraction(-1 if (k - i) % 2 else 1)
        _add_into(acc, _merge_mul(dict(_h_in_p(n - i)), _twist(dict(_h_in_p(i)))), sign)
    return SymFunc("p", acc)
