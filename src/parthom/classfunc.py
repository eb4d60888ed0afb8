"""Class functions of symmetric groups, kept for the benchmark's tracer.

No command runs this module: every command keeps a module as integer
class values over ``partitions_of(n)`` and prints its characteristic with
:func:`parthom.symfunc.expansion`.  ``bench/tracer.py`` binds
``ClassFunction.characteristic``, so the class stays until the benchmark
no longer does.
"""

from __future__ import annotations

from .partitions import partitions_of, zee
from .symfunc import SymFunc, as_fraction


class ClassFunction:
    """One exact rational value per cycle type (partition of *n*)."""

    __slots__ = ("n", "values")

    def __init__(self, n: int, values: dict):
        self.n = n
        self.values = {mu: as_fraction(values.get(mu, 0)) for mu in partitions_of(n)}
        extra = set(values) - set(self.values)
        if extra:
            raise ValueError(f"values keyed by non-partitions of {n}: {sorted(extra)}")

    def characteristic(self) -> SymFunc:
        """The Frobenius characteristic, the sum of chi(mu) p_mu / z_mu."""
        return SymFunc({mu: v / zee(mu) for mu, v in self.values.items() if v})
