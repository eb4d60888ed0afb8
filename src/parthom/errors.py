"""Shared exception types and the size bounds behind every refusal."""

#: the documented size bounds, each read when a request is checked against it
BOUNDS = {
    "ground": 10,  # ground set size for which views materialize elements
    "simplices": 250_000,  # simplices of an order complex
    "schur_degree": 14,  # degree of a conversion through the character table
    "degree": 16,  # degree of a module recurrence or a named symmetric function
    "chain_degree": 8,  # degree of the chain method's fixed-chain counts
    "method_suite": 7,  # largest n at which `check --suite method` compares methods
}


class FeasibilityError(RuntimeError):
    """A request exceeds the documented size bounds; refuse rather than thrash."""


def refuse_past(
    bound: str, value: int, message: str = "{bound} {value} exceeds supported bound {limit}"
) -> None:
    """Raise :class:`FeasibilityError` when *value* exceeds ``BOUNDS[bound]``;
    *message* is formatted with ``bound``, ``value`` and ``limit``."""
    limit = BOUNDS[bound]
    if value > limit:
        raise FeasibilityError(message.format(bound=bound, value=value, limit=limit))


class ModuleCheckError(RuntimeError):
    """A quantity that must be a genuine module (nonnegative integer
    multiplicities) failed that check, or two independent computations of the
    same module disagreed."""


class ConcentrationError(RuntimeError):
    """Homology is not free and concentrated in a single degree, so the
    Lefschetz shortcut for reading off its character is invalid."""
