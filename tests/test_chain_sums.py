"""Differential test: block-merge edges and the chain dynamic program
against a brute-force oracle, on random small views.

Every relation in the oracle is a ``SetPartition.refines`` test on a pair
of view elements, the pair scan that ``parthom.poset`` replaced.  It is
kept here only to check the fast path.
"""

from hypothesis import given, settings, strategies as st

from parthom.partitions import partitions_of
from parthom.poset import fixed_chain_count, parse_view
from parthom.setparts import act, canonical_permutation, set_partitions
from parthom.topology import lefschetz_class_function, mobius_number, order_complex


# ---------------------------------------------------------------------------
# refines pair-scan oracle

def less(x, y) -> bool:
    return x.rank < y.rank and x.refines(y)


def oracle_covers(view) -> dict:
    elems = view.elements()
    out = {}
    for x in elems:
        ups = [y for y in elems if less(x, y)]
        out[x] = tuple(y for y in ups if not any(less(z, y) for z in ups))
    return out


def oracle_minimal(view) -> tuple:
    elems = view.elements()
    return tuple(x for x in elems if not any(less(y, x) for y in elems))


def oracle_maximal(view) -> tuple:
    elems = view.elements()
    return tuple(x for x in elems if not any(less(x, y) for y in elems))


def oracle_maximal_chains(view) -> list:
    """Paths through covers from minimal to maximal elements."""
    if not view.elements():
        return [()]
    up = oracle_covers(view)
    chains = []

    def extend(prefix):
        if not up[prefix[-1]]:
            chains.append(tuple(prefix))
        for y in up[prefix[-1]]:
            extend(prefix + [y])

    for x in oracle_minimal(view):
        extend([x])
    return chains


def fixed(g, elems) -> list:
    return [x for x in elems if act(g, x) == x]


def oracle_reduced_euler(elems) -> int:
    """Sum over chains of *elems*, the empty one included, of
    (-1)^(length - 1), by the Moebius recursion on pairs."""
    t = []
    for i, x in enumerate(elems):
        t.append(1 - sum(t[j] for j in range(i) if less(elems[j], x)))
    return -1 + sum(t)


def oracle_f_vector(view) -> dict:
    """Number of chains of each size, as {dimension: count}."""
    elems = view.elements()
    ending: list[dict] = []  # per element: chain size -> chains with it on top
    for i, x in enumerate(elems):
        sizes = {1: 1}
        for j in range(i):
            if less(elems[j], x):
                for size, count in ending[j].items():
                    sizes[size + 1] = sizes.get(size + 1, 0) + count
        ending.append(sizes)
    out = {-1: 1}
    for sizes in ending:
        for size, count in sizes.items():
            out[size - 1] = out.get(size - 1, 0) + count
    return out


# ---------------------------------------------------------------------------
# the differential test

@st.composite
def views(draw):
    family = draw(st.sampled_from(
        ("full", "ranks", "qnk", "pnk", "le", "ne", "even", "even-top")))
    if family.startswith("even"):
        n = draw(st.sampled_from((4, 6)))
        spec = "even" if family == "even" else f"even-top:k={draw(st.integers(1, n // 2 - 1))}"
    else:
        n = draw(st.integers(3, 6))
        if family == "full":
            spec = "full"
        elif family == "ranks":
            ranks = draw(st.sets(st.integers(1, n - 2)))
            spec = "ranks:" + (",".join(map(str, sorted(ranks))) or "-")
        else:
            spec = f"{family}:k={draw(st.integers(2, n - 1))}"
    return parse_view(n, spec)


@settings(max_examples=40, deadline=None)
@given(views(), st.data())
def test_view_order_and_chain_sums_match_refines_oracle(view, data):
    members = set(view.elements())
    for k in range(2, view.n):
        assert all((x in view) == (x in members) for x in set_partitions(view.n, k))
    assert view.covers() == oracle_covers(view)
    assert view.minimal_elements() == oracle_minimal(view)
    assert view.maximal_elements() == oracle_maximal(view)
    chains = oracle_maximal_chains(view)
    assert view.count_maximal_chains() == len(chains)
    assert sorted(view.maximal_chains()) == sorted(chains)
    mu = data.draw(st.sampled_from(partitions_of(view.n)), label="cycle type")
    g = canonical_permutation(mu, view.n)
    assert fixed_chain_count(view, mu) == sum(1 for c in chains if len(fixed(g, c)) == len(c))
    perm = tuple(data.draw(st.permutations(range(1, view.n + 1)), label="permutation"))
    for h in (g, perm):
        by_rank = {r: tuple(fixed(h, elems)) for r, elems in view.elements_by_rank().items()}
        assert view.fixed_by(h) == {r: elems for r, elems in by_rank.items() if elems}
    assert mobius_number(view) == oracle_reduced_euler(view.elements())
    lefschetz = oracle_reduced_euler(fixed(g, view.elements()))
    assert lefschetz_class_function(view).values[mu] == lefschetz
    assert order_complex(view, check=False).f_vector() == oracle_f_vector(view)
