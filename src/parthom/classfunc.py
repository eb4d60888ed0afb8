"""Class functions of symmetric groups and the Frobenius characteristic.

A :class:`ClassFunction` stores one exact rational value per cycle type
(partition of its degree).  The characteristic map sends a class function
chi to sum over classes of chi(mu) p_mu / z_mu; it is inverted by reading
z_mu times the powersum coefficient back off a homogeneous symmetric
function.
"""

from __future__ import annotations

from fractions import Fraction

from .partitions import partitions_of, zee
from .symfunc import SymFunc, as_fraction


class ClassFunction:
    __slots__ = ("n", "values")

    def __init__(self, n: int, values: dict):
        object.__setattr__(self, "n", n)
        filled = {}
        for mu in partitions_of(n):
            filled[mu] = as_fraction(values.get(mu, 0))
        extra = set(values) - set(filled)
        if extra:
            raise ValueError(f"values keyed by non-partitions of {n}: {sorted(extra)}")
        object.__setattr__(self, "values", filled)

    def __setattr__(self, name, value):
        raise AttributeError("ClassFunction values are immutable")

    @classmethod
    def from_characteristic(cls, f: SymFunc) -> "ClassFunction":
        """Inverse Frobenius characteristic of a homogeneous function."""
        degs = f.degrees()
        if len(degs) != 1:
            raise ValueError(f"need a homogeneous function, degrees {degs}")
        n = degs[0]
        pterms = f.in_basis("p").terms
        return cls(n, {mu: pterms.get(mu, 0) * zee(mu) for mu in partitions_of(n)})

    def characteristic(self) -> SymFunc:
        return SymFunc(
            "p", {mu: v / zee(mu) for mu, v in self.values.items() if v}
        )

    def dimension(self) -> Fraction:
        return self.values[(1,) * self.n]

    def supported_on_involutions(self) -> bool:
        """True when the value vanishes on every class with a cycle longer than 2."""
        return all(
            v == 0 for mu, v in self.values.items() if mu and mu[0] > 2
        )

    def __eq__(self, other):
        if isinstance(other, ClassFunction):
            return self.n == other.n and self.values == other.values
        return NotImplemented

    __hash__ = None

    def __mul__(self, c):
        return ClassFunction(self.n, {mu: v * c for mu, v in self.values.items()})

    __rmul__ = __mul__

    def __repr__(self):
        vals = ", ".join(f"{mu}: {v}" for mu, v in sorted(self.values.items()) if v)
        return f"ClassFunction(n={self.n}, {{{vals}}})"
