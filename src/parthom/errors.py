"""Shared exception types, the size bounds behind every refusal, and the
grammar of the command line's integers, rank sets and family names.

This module imports nothing, so the command-line front end can parse and
check a request before it loads any module that computes."""

#: the documented size bounds, each read when a request is checked against it
BOUNDS = {
    "ground": 10,  # ground set size for which views materialize elements
    "simplices": 250_000,  # simplices of an order complex
    "schur_degree": 14,  # degree of a conversion through the character table
    "degree": 16,  # degree of a module recurrence or a named symmetric function
    "chain_degree": 8,  # degree of the chain method's fixed-chain counts
    "method_suite": 7,  # largest n at which `check --suite method` compares methods
    # --max-n of the sequence tables and of `check --suite conj-3.9`, each
    # the largest request that finishes in about a second, cold
    "euler_max_n": 2000,
    "simsun_max_n": 500,
    "bi_max_n": 90,
    "ek_max_n": 90,
    "conj39_max_n": 90,
}

#: the refusal of a conversion through the character table past ``schur_degree``
SCHUR_REFUSAL = "character-table conversion refused for degree {value} > {limit}"
#: the refusal of the chain method past ``chain_degree``
CHAIN_REFUSAL = "chain path refused for n={value} > {limit}"
#: the refusal of a poset view whose ground set size is outside 2..``ground``
GROUND_REFUSAL = "ground set size {value} outside supported range 2..{limit}"


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


def refuse_ground(n: int) -> None:
    """Refuse a poset view on n points unless 2 <= n <= ``BOUNDS["ground"]``."""
    if n < 2:
        raise FeasibilityError(GROUND_REFUSAL.format(value=n, limit=BOUNDS["ground"]))
    refuse_past("ground", n, GROUND_REFUSAL)


class ModuleCheckError(RuntimeError):
    """A quantity that must be a genuine module (nonnegative integer
    multiplicities) failed that check, or two independent computations of the
    same module disagreed."""


class ConcentrationError(RuntimeError):
    """Homology is not free and concentrated in a single degree, so the
    Lefschetz shortcut for reading off its character is invalid."""


# ---------------------------------------------------------------------------
# the grammar of the command line

#: the block-size view families, in the order of their predicates in
#: :mod:`parthom.poset`
BLOCK_SIZE_FAMILIES = ("qnk", "pnk", "le", "ne")


def is_decimal(text: str) -> bool:
    """The grammar of every integer the CLI reads: ASCII digits with an
    optional leading ``-`` and whitespace around them.  ``int()`` would also
    take ``+``, underscores and the digits of other scripts."""
    digits = text.strip().removeprefix("-")
    return digits.isascii() and digits.isdigit()


def parse_rank_set(text: str) -> tuple[int, ...]:
    """Parse comma lists with ranges: ``1-3,5`` -> (1, 2, 3, 5); ``-``, and
    nothing else, is empty.  Each rank is ASCII digits, with whitespace
    around it allowed."""
    text = text.strip()
    if text == "-":
        return ()
    out: set[int] = set()
    for chunk in text.split(","):
        chunk = chunk.strip()
        parts = chunk.split("-")
        if len(parts) > 2 or not all(is_decimal(part) for part in parts):
            raise ValueError(f"malformed rank set {text!r}")
        lo, hi = int(parts[0]), int(parts[-1])
        if lo > hi:
            raise ValueError(f"reversed rank range {chunk!r}")
        out.update(range(lo, hi + 1))
    return tuple(sorted(out))


def rank_set(n: int, ranks) -> tuple[int, ...]:
    """The rank set sorted without repeats, each rank checked to lie in
    [1, n - 2]."""
    ranks = tuple(sorted(set(map(int, ranks))))
    for r in ranks:
        if not 1 <= r <= n - 2:
            raise ValueError(f"rank {r} outside [1, {n - 2}] for ground size {n}")
    return ranks
