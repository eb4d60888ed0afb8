from collections import Counter
from functools import lru_cache
from math import factorial

import pytest

from parthom.errors import FeasibilityError, parse_rank_set
from parthom.partitions import multiplicities as part_mults
from parthom.poset import chain_sums, fixed_chain_count, parse_view, rank_selected_view
from parthom.setparts import SetPartition, act, canonical_permutation
from test_chain_sums import oracle_maximal_chains, set_partitions


@lru_cache(maxsize=None)
def stirling2(n: int, k: int) -> int:
    """Oracle: number of set partitions of an n-set with k blocks."""
    if n < 0 or k < 0 or k > n:
        return 0 if n >= 0 and 0 <= k else _stirling_domain_error(n, k)
    if n == 0:
        return 1 if k == 0 else 0
    if k == 0:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def _stirling_domain_error(n, k):
    raise ValueError(f"stirling2 needs 0 <= k <= n, got n={n}, k={k}")


def stirling_oracle(n, k):
    """Independent Stirling count via inclusion-exclusion over surjections."""
    from math import comb

    total = sum((-1) ** j * comb(k, j) * (k - j) ** n for j in range(k + 1))
    return total // factorial(k)


# ---------------------------------------------------------------------------
# SetPartition basics

def test_canonical_form_and_equality():
    a = SetPartition(4, [[3, 4], [2], [1]])
    b = SetPartition(4, [[1], [2], [4, 3]])
    assert a == b and hash(a) == hash(b)
    assert a.blocks == ((1,), (2,), (3, 4))


def test_rank():
    assert SetPartition(4, [[1, 2], [3, 4]]).rank == 2
    assert SetPartition(4, [[1], [2], [3], [4]]).rank == 0


def test_str():
    assert str(SetPartition(4, [[1, 2], [3], [4]])) == "12|3|4"
    y = SetPartition(10, [[1, 10], [2, 3, 4, 5, 6, 7, 8, 9]])
    assert str(y) == "1,10|2,3,4,5,6,7,8,9"


def test_invalid_partitions_rejected():
    with pytest.raises(ValueError):
        SetPartition(3, [[1, 2]])
    with pytest.raises(ValueError):
        SetPartition(3, [[1, 2], [2, 3]])


def test_refinement():
    bottom = SetPartition(4, [[1], [2], [3], [4]])
    x = SetPartition(4, [[1, 2], [3], [4]])
    y = SetPartition(4, [[1, 2], [3, 4]])
    z = SetPartition(4, [[1, 3], [2, 4]])
    assert bottom.refines(x) and bottom.refines(z)
    assert x.refines(y)
    assert not x.refines(z)


def test_refinement_is_partial_order_on_all_of_degree_4():
    everything = [x for k in range(1, 5) for x in set_partitions(4, k)]
    assert len(everything) == 15
    for x in everything:
        assert x.refines(x)
        for y in everything:
            if x.refines(y) and y.refines(x):
                assert x == y


def test_set_partition_generation_counts():
    for n in range(1, 8):
        for k in range(1, n + 1):
            got = sum(1 for _ in set_partitions(n, k))
            assert got == stirling2(n, k) == stirling_oracle(n, k)


# ---------------------------------------------------------------------------
# the action

def test_act_identity():
    x = SetPartition(4, [[1, 3], [2, 4]])
    assert act((1, 2, 3, 4), x) == x


def test_act_transposition():
    x = SetPartition(4, [[1, 3], [2, 4]])
    g = canonical_permutation((2, 1, 1))  # swaps 1 and 2
    assert act(g, x) == SetPartition(4, [[2, 3], [1, 4]])


def test_act_preserves_type_and_order():
    import itertools

    elems = [x for k in range(2, 5) for x in set_partitions(5, k)]
    for g in [canonical_permutation(mu, 5) for mu in ((2, 1, 1, 1), (3, 2), (5,))]:
        for x in elems:
            assert sorted(map(len, act(g, x).blocks)) == sorted(map(len, x.blocks))
        for x, y in itertools.islice(itertools.combinations(elems, 2), 300):
            assert x.refines(y) == act(g, x).refines(act(g, y))


def test_orbit_sizes_match_orbit_stabilizer_formula():
    import itertools

    for k in range(1, 5):
        by_type = {}
        for x in set_partitions(5, k):
            by_type.setdefault(tuple(sorted(map(len, x.blocks))), set()).add(x)
        for lam, orbit in by_type.items():
            denom = 1
            for part in lam:
                denom *= factorial(part)
            for mult in part_mults(lam).values():
                denom *= factorial(mult)
            assert len(orbit) == factorial(5) // denom, lam


def test_canonical_permutation():
    assert canonical_permutation((3, 2)) == (2, 3, 1, 5, 4)
    assert canonical_permutation((1, 1, 1)) == (1, 2, 3)
    with pytest.raises(ValueError):
        canonical_permutation((3,), 4)


# ---------------------------------------------------------------------------
# views

def test_full_view_rank_sizes():
    assert Counter(x.rank for x in parse_view(4, "full").elements()) == {1: 6, 2: 7}
    assert Counter(x.rank for x in parse_view(5, "full").elements()) == {1: 10, 2: 25, 3: 15}


def test_rank_selected_sizes_match_stirling():
    for n in range(3, 9):
        v = parse_view(n, "full")
        sizes = Counter(x.rank for x in v.elements())
        for r in v.ranks:
            assert sizes[r] == stirling2(n, n - r)


def test_rank_selection_example():
    v = rank_selected_view(5, [1, 3])
    assert Counter(x.rank for x in v.elements()) == {1: 10, 3: 15}


def test_invalid_rank_set():
    with pytest.raises(ValueError):
        rank_selected_view(5, [4])


def test_modular_deletion_example():
    sizes = Counter(x.rank for x in parse_view(4, "qnk:k=3").elements())
    assert sizes[2] == 3
    assert sizes[1] == 6


def test_modular_deletion_up_to_removes_atoms():
    p = parse_view(5, "pnk:k=3")
    assert 1 not in p.ranks
    # rank 2 of the lattice on 5 points has types (3,1,1) and (2,2,1);
    # the (3,1,1) ones are modular and get deleted
    assert sum(x.rank == 2 for x in p.elements()) == 15


def test_block_size_views():
    le = parse_view(5, "le:k=2")
    assert all(max(len(b) for b in x.blocks) <= 2 for x in le.elements())
    ne = parse_view(5, "ne:k=3")
    assert all(all(len(b) != 3 for b in x.blocks) for x in ne.elements())


def test_q_top_equals_block_bound_view():
    for n in range(4, 8):
        q = parse_view(n, f"qnk:k={n - 1}")
        le = parse_view(n, f"le:k={n - 2}")
        assert set(q.elements()) == set(le.elements())


def test_even_block_views():
    v = parse_view(6, "even")
    assert v.ranks == (2, 4)
    assert all(len(x.blocks) % 2 == 0 for x in v.elements())
    top = parse_view(6, "even-top:k=1")
    assert top.ranks == (4,)
    with pytest.raises(ValueError):
        parse_view(5, "even")


def test_parse_view_round_trip():
    for spec in ("full", "ranks:1,3", "qnk:k=3", "pnk:k=3", "le:k=2", "ne:k=3", "even", "even-top:k=2"):
        v = parse_view(6, spec)
        assert v.spec == spec
    v = parse_view(6, "ranks:1-3")
    assert v.spec == "ranks:1,2,3"
    with pytest.raises(ValueError):
        parse_view(6, "bogus")


def test_parse_view_refusals():
    cases = [
        (5, "bogus", ValueError, "unknown view spec 'bogus'"),
        (5, "qnk:j=2", ValueError, "malformed view parameter in 'qnk:j=2'"),
        *[(6, spec, ValueError, f"malformed view parameter in {spec!r}")
          for spec in ("full:k=2", "even:k=2", "full:x", "even: k=2")],
        *[(6, name, ValueError, f"view {name!r} needs k=")
          for name in ("qnk", "pnk", "le", "ne", "even-top")],
        *[(5, f"{name}:k={k}", ValueError, f"need 2 <= k <= n-1, got k={k}, n=5")
          for name in ("qnk", "pnk", "le", "ne") for k in (-1, 1, 5)],
        (1, "le:k=2", ValueError, "need 2 <= k <= n-1, got k=2, n=1"),
        *[(n, "even", ValueError, f"even-block view needs an even ground size >= 4, got {n}")
          for n in (1, 2, 5, 7)],
        (5, "even-top:k=1", ValueError, "even-block view needs an even ground size >= 4, got 5"),
        *[(8, f"even-top:k={k}", ValueError, f"need 1 <= k <= n/2-1, got k={k}")
          for k in (0, 4)],
        *[(n, spec, FeasibilityError, f"ground set size {n} outside supported range 2..10")
          for n in (-1, 0, 1) for spec in ("full", "ranks:")],
        (5, "ranks:4", ValueError, "rank 4 outside [1, 3] for ground size 5"),
        (5, "ranks:0,1", ValueError, "rank 0 outside [1, 3] for ground size 5"),
        (2, "ranks:1", ValueError, "rank 1 outside [1, 0] for ground size 2"),
    ]
    for n, spec, error, message in cases:
        with pytest.raises(error) as exc:
            parse_view(n, spec)
        assert type(exc.value) is error and str(exc.value) == message, (n, spec)


def test_parse_rank_set():
    assert parse_rank_set("1-3,5") == (1, 2, 3, 5)
    assert parse_rank_set("-") == ()
    assert parse_rank_set("4,2") == (2, 4)
    with pytest.raises(ValueError):
        parse_rank_set("3-1")


def test_ground_size_bounds():
    with pytest.raises(FeasibilityError):
        parse_view(11, "full")
    with pytest.raises(FeasibilityError):
        parse_view(1, "full")


# ---------------------------------------------------------------------------
# chains

def test_maximal_chain_counts_full():
    for n in range(3, 8):
        v = parse_view(n, "full")
        expected = factorial(n) * factorial(n - 1) // 2 ** (n - 1)
        assert chain_sums(v) == expected
        if n <= 6:
            assert len(oracle_maximal_chains(v)) == expected


def test_empty_rank_set_has_one_empty_chain():
    v = rank_selected_view(5, [])
    assert oracle_maximal_chains(v) == [()]
    assert chain_sums(v) == 1


def test_single_rank_chains():
    v = rank_selected_view(5, [2])
    chains = oracle_maximal_chains(v)
    assert len(chains) == 25 == chain_sums(v)
    assert all(len(c) == 1 for c in chains)


def test_rank_selected_chains_hit_every_rank():
    v = rank_selected_view(5, [1, 3])
    for chain in oracle_maximal_chains(v):
        assert [x.rank for x in chain] == [1, 3]
        assert chain[0].refines(chain[1])


# ---------------------------------------------------------------------------
# fixed chains

def test_fixed_chain_count_identity_is_total():
    for n in range(3, 7):
        for ranks in ((), (1,), (1, 2), tuple(range(1, n - 1))):
            if any(r > n - 2 for r in ranks):
                continue
            v = rank_selected_view(n, ranks)
            assert fixed_chain_count(v, (1,) * n) == chain_sums(v)


def test_fixed_chain_count_four_cycle():
    # the only partition of 4 fixed by a 4-cycle is 13|24 at rank 2, so no
    # chain through ranks {1, 2} is fixed pointwise
    v = rank_selected_view(4, [1, 2])
    assert fixed_chain_count(v, (4,)) == 0
    assert fixed_chain_count(rank_selected_view(4, [2]), (4,)) == 1


def test_fixed_element_without_fixed_cover_ends_no_chain():
    # under (123)(45) the atom 1|2|3|45 is fixed and has covers, but none
    # that (123)(45) fixes; a maximal chain ends only at a maximal element of
    # the view, so no fixed chain ends at the atom
    g = canonical_permutation((3, 2), 5)
    atom = SetPartition(5, [[1], [2], [3], [4, 5]])
    v = rank_selected_view(5, (1, 2))
    elems = v.elements()
    assert ({r: [elems[j] for j in fixed] for r, fixed in v.fixed_by(g).items()}
            == {1: [atom], 2: [SetPartition(5, [[1, 2, 3], [4], [5]])]})
    for view in (v, parse_view(5, "full"), parse_view(5, "qnk:k=3"), parse_view(5, "le:k=2")):
        ups = view.covers()[atom]
        assert ups and all(act(g, y) != y for y in ups), view.describe()
    for view in (v, parse_view(5, "full")):
        assert fixed_chain_count(view, (3, 2)) == 0, view.describe()


def test_fixed_by_generates_instead_of_filtering(monkeypatch):
    import parthom.setparts as setparts

    views = (parse_view(6, "full"), parse_view(6, "qnk:k=3"), rank_selected_view(6, (2, 4)))
    cases = [(v, mu) for v in views for mu in ((1,) * 6, (2, 2, 1, 1), (3, 2, 1), (6,))]
    expected = []
    for v, mu in cases:
        g = canonical_permutation(mu, 6)
        kept = [x for x in v.elements() if act(g, x) == x]
        by_rank = {r: [x for x in kept if x.rank == r] for r in sorted({x.rank for x in kept})}
        expected.append((by_rank, fixed_chain_count(v, mu) if v.rank_selected else None))

    def forbidden(*args):
        raise AssertionError("act or refines called")

    monkeypatch.setattr(setparts, "act", forbidden)
    monkeypatch.setattr(SetPartition, "refines", forbidden)
    for (v, mu), (by_rank, count) in zip(cases, expected):
        elems = v.elements()
        fixed = v.fixed_by(canonical_permutation(mu, 6))
        assert {r: [elems[j] for j in js] for r, js in fixed.items()} == by_rank
        if v.rank_selected:
            assert fixed_chain_count(v, mu) == count


def test_fixed_chain_count_transposition_on_atoms():
    # atoms fixed by the swap of two points: the pair itself and every pair
    # disjoint from it; on 4 points that leaves 12|3|4 and 34|1|2
    v = rank_selected_view(4, [1])
    assert fixed_chain_count(v, (2, 1, 1)) == 2


def test_fixed_chain_count_brute_force_cross_check():
    from parthom.setparts import act as do_act

    for mu in ((2, 2, 1), (3, 1, 1), (2, 1, 1, 1)):
        v = rank_selected_view(5, [1, 2])
        g = canonical_permutation(mu, 5)
        brute = sum(
            1
            for chain in oracle_maximal_chains(v)
            if all(do_act(g, x) == x for x in chain)
        )
        assert fixed_chain_count(v, mu) == brute, mu


def test_maximal_chain_counts_refuse_views_that_are_not_rank_selected():
    q = parse_view(5, "qnk:k=3")
    with pytest.raises(ValueError, match=q.describe()):
        fixed_chain_count(q, (1,) * 5)
    le = parse_view(6, "le:k=2")
    with pytest.raises(ValueError, match=le.describe()):
        chain_sums(le)


def test_stirling_values():
    assert stirling2(4, 2) == 7
    assert all(stirling2(n, n) == 1 for n in range(9))
    assert all(stirling2(n, 1) == 1 for n in range(1, 9))
    assert stirling2(0, 0) == 1


def test_views_are_stable_under_the_action():
    from parthom.partitions import partitions_of

    views = [
        parse_view(5, "full"),
        rank_selected_view(5, [1, 3]),
        parse_view(5, "qnk:k=3"),
        parse_view(5, "pnk:k=3"),
        parse_view(5, "le:k=3"),
        parse_view(5, "ne:k=3"),
        parse_view(6, "even"),
        parse_view(6, "even-top:k=1"),
    ]
    for view in views:
        elems = set(view.elements())
        for mu in partitions_of(view.n):
            g = canonical_permutation(mu, view.n)
            assert {act(g, x) for x in elems} == elems, (view.describe(), mu)
