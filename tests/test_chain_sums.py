"""Differential test: block-merge edges and the two chain counts against a
brute-force oracle, on random small views.

Every relation in the oracle is a ``SetPartition.refines`` test on a pair
of view elements, the pair scan that ``parthom.poset`` replaced, and every
fixed element is found by relabeling it with ``act``, the filter that the
generated fixed strings replaced.  ``set_partitions``, the generator that
built a ``SetPartition`` for every string before a view kept strings, and
the family predicates it was filtered by are kept beside them.  All are
kept here only to check the fast path.
"""

from itertools import chain, combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from parthom.partitions import partitions_of
from parthom.poset import (
    fixed_chain_count,
    maximal_chains,
    parse_view,
    rank_selected_view,
    signed_chain_sum,
)
from parthom.reps import class_values
from parthom.setparts import SetPartition, act, canonical_permutation, restricted_growth
from parthom.topology import homology, lefschetz_class_function, mobius_number, order_complex


# ---------------------------------------------------------------------------
# the generator oracle

def set_partitions(n: int, k: int):
    """Yield all partitions of {1..n} into exactly k blocks, in
    restricted-growth-string order."""
    for growth in restricted_growth(n, k):
        blocks: list[list[int]] = [[] for _ in range(k)]
        for elem, b in enumerate(growth, start=1):
            blocks[b].append(elem)
        yield SetPartition(n, blocks)


def _is_modular(x) -> int | None:
    """Size of the unique non-singleton block, or None if not modular."""
    big = [len(b) for b in x.blocks if len(b) > 1]
    return big[0] if len(big) == 1 else None


def _keep_pnk(x, k) -> bool:
    size = _is_modular(x)
    return size is None or not 2 <= size <= k


#: each family's candidate ranks and its predicate on a built partition
ORACLE_FAMILIES = {
    "full": (lambda n, k: range(1, n - 1), None),
    "qnk": (lambda n, k: range(1, n - 1), lambda x, k: _is_modular(x) != k),
    "pnk": (lambda n, k: range(1, n - 1), _keep_pnk),
    "le": (lambda n, k: range(1, n - 1), lambda x, k: max(len(b) for b in x.blocks) <= k),
    "ne": (lambda n, k: range(1, n - 1), lambda x, k: all(len(b) != k for b in x.blocks)),
    "even": (lambda n, k: range(2, n - 1, 2), None),
    "even-top": (lambda n, k: range(n - 2 * k, n - 1, 2), None),
}


def oracle_elements(n: int, spec: str) -> list:
    """The elements of a view as the generator oracle built them: every
    partition of each candidate rank, in generation order, kept if the
    family's predicate holds for it."""
    if spec.startswith("ranks:"):
        body = spec[len("ranks:"):]
        ranks, keep = sorted(map(int, body.split(","))) if body != "-" else [], None
    else:
        name, _, arg = spec.partition(":")
        k = int(arg[2:]) if arg else None
        candidate, keep = ORACLE_FAMILIES[name]
        ranks = candidate(n, k)
    return [x for r in ranks for x in set_partitions(n, n - r) if keep is None or keep(x, k)]


def all_view_specs(n: int) -> list[str]:
    """Every view spec the families accept at ground size n."""
    ranks = range(1, n - 1)
    specs = ["full"]
    specs += ["ranks:" + (",".join(map(str, s)) or "-")
              for size in range(len(ranks) + 1) for s in combinations(ranks, size)]
    specs += [f"{f}:k={k}" for f in ("qnk", "pnk", "le", "ne") for k in range(2, n)]
    if n % 2 == 0 and n >= 4:
        specs += ["even"] + [f"even-top:k={k}" for k in range(1, n // 2)]
    return specs


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


def oracle_fixed_strings(perm, k) -> list:
    """The restricted-growth strings of length len(perm) with k values whose
    partition the permutation (images of items 0..n-1) maps to itself."""
    n, images = len(perm), tuple(p + 1 for p in perm)
    return [g for g, x in zip(restricted_growth(n, k), set_partitions(n, k))
            if act(images, x) == x]


def oracle_below(view) -> dict:
    """Each view element mapped to the set of view elements under it."""
    elems = view.elements()
    return {y: {x for x in elems if less(x, y)} for y in elems}


def oracle_reduced_euler(elems, below) -> int:
    """Sum over chains of *elems*, the empty one included, of
    (-1)^(length - 1), by the Moebius recursion on pairs."""
    t = []
    for i, x in enumerate(elems):
        t.append(1 - sum(t[j] for j in range(i) if elems[j] in below[x]))
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
# the differential tests

def test_fixed_strings_match_act_filter_for_every_small_permutation():
    for n in range(1, 6):
        for perm in permutations(range(n)):
            for k in range(n + 1):
                assert list(restricted_growth(n, k, perm)) == oracle_fixed_strings(perm, k)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((6, 7)).flatmap(
    lambda n: st.tuples(st.permutations(range(n)), st.integers(1, n))))
def test_fixed_strings_match_act_filter_for_random_permutations(case):
    perm, k = case
    assert list(restricted_growth(len(perm), k, tuple(perm))) == oracle_fixed_strings(perm, k)


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
    assert view.covers() == oracle_covers(view)
    chains = oracle_maximal_chains(view)
    below = oracle_below(view)
    lefschetz = dict(zip(partitions_of(view.n), lefschetz_class_function(view)))
    for mu in partitions_of(view.n):
        g = canonical_permutation(mu, view.n)
        fixed_chains, reduced_euler = check_fixed_part(view, g, chains, below)
        if view.rank_selected:
            assert fixed_chain_count(view, mu) == fixed_chains
        else:
            with pytest.raises(ValueError, match=view.describe()):
                fixed_chain_count(view, mu)
        assert lefschetz[mu] == reduced_euler
    perm = tuple(data.draw(st.permutations(range(1, view.n + 1)), label="permutation"))
    fixed_chains, reduced_euler = check_fixed_part(view, perm, chains, below)
    if view.rank_selected:
        assert maximal_chains(view) == len(chains)
        assert maximal_chains(view, perm) == fixed_chains
    else:
        with pytest.raises(ValueError, match=view.describe()):
            maximal_chains(view, perm)
    assert signed_chain_sum(view, perm) == reduced_euler
    assert mobius_number(view) == oracle_reduced_euler(view.elements(), below)
    assert order_complex(view).f_vector() == oracle_f_vector(view)


def check_fixed_part(view, g, chains, below) -> tuple[int, int]:
    """Check the elements and merges that *g* fixes against the ``act``
    filter; return the oracle's number of fixed maximal chains and the
    reduced Euler characteristic of the fixed elements."""
    elems = view.elements()
    kept = fixed(g, elems)
    kept_set = set(kept)
    ranks = {x.rank for x in kept}
    assert ({r: [elems[j] for j in fixed] for r, fixed in view.fixed_by(g).items()}
            == {r: [x for x in kept if x.rank == r] for r in sorted(ranks)})
    kept_index = {i for i, x in enumerate(elems) if x in kept_set}
    for i in sorted(kept_index):
        assert view.above(i, perm=g) == [j for j in view.above(i) if j in kept_index]
    fixed_chains = sum(1 for c in chains if kept_set.issuperset(c))
    return fixed_chains, oracle_reduced_euler(kept, below)


def test_view_elements_match_the_generator_oracle_in_order():
    # face rows and column order follow the element order, so it must be the
    # order in which the predicate filtered the generated partitions
    for n in range(2, 8):
        for spec in all_view_specs(n):
            assert list(parse_view(n, spec).elements()) == oracle_elements(n, spec), (n, spec)


def test_fixed_chain_counts_match_the_recurrence_on_every_rank_set():
    # the two independent paths to the alpha class values
    for n in range(2, 8):
        ranks = range(1, n - 1)
        for s in chain.from_iterable(combinations(ranks, size) for size in range(n - 1)):
            view = rank_selected_view(n, s)
            counts = tuple(fixed_chain_count(view, mu) for mu in partitions_of(n))
            assert counts == class_values(n, s), (n, s)


def test_no_set_partition_is_built_on_command_paths(monkeypatch):
    n, specs = 6, ["full", "ranks:1,3", "qnk:k=3", "pnk:k=3", "le:k=2", "ne:k=3",
                   "even", "even-top:k=2"]
    # the oracles first: they build partitions
    elements = {spec: oracle_elements(n, spec) for spec in specs}
    alpha = class_values(n, (1, 2, 4))
    small = ("qnk:k=3", "le:k=2")
    below = {spec: oracle_below(parse_view(n, spec)) for spec in small}
    mobius = {spec: oracle_reduced_euler(elements[spec], below[spec]) for spec in small}
    lefschetz = {
        spec: {mu: oracle_reduced_euler(fixed(canonical_permutation(mu, n), elements[spec]),
                                        below[spec])
               for mu in partitions_of(n)}
        for spec in small}
    pnk = homology(order_complex(parse_view(n, "pnk:k=3")))

    def forbidden(*args):
        raise AssertionError("a SetPartition was built")

    with monkeypatch.context() as patch:
        patch.setattr(SetPartition, "__init__", forbidden)
        views = {spec: parse_view(n, spec) for spec in specs}
        selected = rank_selected_view(n, (1, 2, 4))
        counts = tuple(fixed_chain_count(selected, mu) for mu in partitions_of(n))
        got_mobius = {spec: mobius_number(views[spec]) for spec in small}
        got_lefschetz = {spec: dict(zip(partitions_of(n), lefschetz_class_function(views[spec])))
                         for spec in small}
        got_pnk = homology(order_complex(views["pnk:k=3"]))
    for spec in specs:
        assert list(views[spec].elements()) == elements[spec], spec
    assert counts == alpha
    assert got_mobius == mobius
    assert got_lefschetz == lefschetz
    assert (got_pnk.betti, got_pnk.torsion) == (pnk.betti, pnk.torsion)
