"""Acceptance suite: one test per criterion, every comparison exact.

Each test prints a single PASS line on success (run with ``pytest -s`` or
``-v`` to see them), and the slow-but-bounded cases stay within the stated
budgets on one desktop core.
"""

import itertools
from fractions import Fraction

from parthom.chartable import character
from parthom.checks import (
    conjecture_checks,
    stability_report,
    subposet_homology_report,
)
from parthom.poset import parse_view, rank_selected_view
from parthom.reps import (
    chain_characteristic,
    characteristic,
    class_values,
    ek_number,
    euler_number,
    even_block_characteristic,
    even_block_multiplicity,
    homology_characteristic,
    lie_character,
    multiplicities,
    restriction,
    simsun,
)
from parthom.symfunc import SymFunc, is_positive
from parthom.topology import view_homology
from test_classfunc import supported_on_involutions
from test_symfunc import E, H, P


def all_rank_sets(n):
    for size in range(n - 1):
        yield from itertools.combinations(range(1, n - 1), size)


def test_01_top_homology():
    """Top homology is the sign-twisted cyclic induction; its restriction is
    the regular representation."""
    for n in range(3, 8):
        beta = class_values(n, range(1, n - 1), homology=True)
        assert beta == lie_character(n), n
        restricted = characteristic(n - 1, restriction(n, beta))
        assert restricted == P((1,) * (n - 1)), n
        for lam, c in restricted.in_basis("s").terms.items():
            assert c == character(lam, (1,) * (n - 1)), (n, lam)
    print("ACCEPTANCE 01 PASS: top homology and regular restriction, n = 3..7")


def test_02_paper_table_entry():
    """The omitted table entry at n = 7, S = {2, 4, 5}."""
    m = multiplicities(7, (2, 4, 5))
    assert (m.b, m.b_prime) == (5, 23)
    print("ACCEPTANCE 02 PASS: multiplicities(7, {2,4,5}) = (b=5, b'=23)")


def test_03_euler_refinements():
    """Trivial multiplicities refine consecutive zigzag numbers (n = 8
    included; the recurrence path keeps it cheap)."""
    for n in range(4, 9):
        total_b = total_bp = 0
        for S in all_rank_sets(n):
            m = multiplicities(n, S)
            total_b += m.b
            total_bp += m.b_prime
        assert total_b == euler_number(n - 1), n
        assert total_bp == euler_number(n), n
    print("ACCEPTANCE 03 PASS: Euler refinement sums, n = 4..8")


def test_04_method_cross_check():
    """Chain-counting and plethystic recurrence agree for every rank set."""
    for n in range(3, 7):
        for S in all_rank_sets(n):
            assert chain_characteristic(n, S, "chains") == chain_characteristic(
                n, S, "recurrence"
            ), ("alpha", n, S)
            assert homology_characteristic(n, S, "chains") == homology_characteristic(
                n, S, "recurrence"
            ), ("beta", n, S)
    print("ACCEPTANCE 04 PASS: alpha/beta method agreement, all S, n <= 6")


def test_05_topology_cross_check():
    """Integer homology of every rank selection is free, concentrated in
    degree |S| - 1, with Betti number the recurrence dimension."""
    for n in range(3, 7):
        for S in all_rank_sets(n):
            hom = view_homology(rank_selected_view(n, S))
            beta_dim = homology_characteristic(n, S).dimension()
            assert hom.is_free(), (n, S)
            expected_degree = len(S) - 1
            for d, b in hom.betti.items():
                assert b == (beta_dim if d == expected_degree else 0), (n, S, d)
    print("ACCEPTANCE 05 PASS: SNF homology concentrated and sized, all S, n <= 6")


def test_06_orbit_decomposition():
    """The chain action decomposes into simsun-counted involution orbits."""
    for n in range(4, 9):
        alpha = chain_characteristic(n, range(1, n - 1))
        total = SymFunc()
        for i in range(1, n // 2 + 1):
            c = simsun(i, n)
            if c:
                total = total + Fraction(c) * H([2] * i + [1] * (n - 2 * i))
        assert alpha == total, n
    print("ACCEPTANCE 06 PASS: orbit decomposition, n = 4..8")


def test_07_even_block_module():
    """The even-block homology assembled from its coefficient recurrence
    agrees with the rank-selected recurrence, is supported on involutions,
    and its auxiliary numbers behave."""
    for n in (2, 3, 4):
        assembled = characteristic(2 * n, even_block_characteristic(n))
        independent = homology_characteristic(2 * n, range(2, 2 * n - 1, 2))
        assert assembled == independent, n
        assert supported_on_involutions(assembled, 2 * n), n
    for n in range(2, 13):
        for i in range(2, n + 1):
            assert even_block_multiplicity(i, n) > 0, (i, n)
    for n in range(2, 7):
        r = characteristic(2 * n, even_block_characteristic(n))
        alt = SymFunc()
        for i in range(2, n + 1):
            c = ek_number(i, n)
            assert c >= 0, (i, n)
            if c:
                alt = alt + Fraction(c) * (H([2] * i) * E([2] * (n - i)))
        assert r == alt, n
    print("ACCEPTANCE 07 PASS: even-block module (2n = 4, 6, 8), positivity to n = 12, "
          "elementary-basis form to n = 6")


def test_08_orbit_dominance_inequality():
    """Coefficientwise bound of the even-block orbits by the simsun orbits."""
    verdict = conjecture_checks("conj-3.9", 7)
    assert verdict.passed, verdict.to_json_dict()
    print("ACCEPTANCE 08 PASS: b_i(n) <= a_i(2n) for 2 <= i <= n <= 7")


def test_09_h_positivity_reports():
    """h-positivity checks for the top-k even-block selections.

    A failed check would be a finding, not a bug, so this test records the
    verdicts instead of asserting them; it fails only if a check could not
    be made.
    """
    produced = []
    for n in (2, 3, 4):
        for k in range(1, n):
            ranks = range(2 * n - 2 * k, 2 * n - 1, 2)
            beta = homology_characteristic(2 * n, ranks)
            ok = is_positive(beta, "h")
            produced.append((2 * n, k, ok))
            status = "h-positive" if ok else "NOT h-positive (finding!)"
            print(f"  even-block top-{k} of ground {2 * n}: {status}")
    assert len(produced) == 6
    print("ACCEPTANCE 09 PASS: h-positivity checks reported, ground <= 8 "
          f"({sum(ok for *_, ok in produced)}/6 positive)")


def test_10_subposet_homology():
    """Modular-deletion and block-size subposets carry Whitehouse modules;
    the 2-bounded view on 7 points exhibits 3-torsion."""
    for n, k in ((5, 3), (5, 4), (6, 3), (6, 4), (6, 5)):
        for family in ("qnk", "pnk"):
            rep = subposet_homology_report(family, n, k)
            assert rep["passed"], (family, n, k, rep["assertions"])
            degrees = [d for d, b in rep["homology"]["betti"].items() if b]
            assert degrees == [str(n - 4)], (family, n, k)
    rep = subposet_homology_report("le", 6, 3)
    assert rep["passed"], rep["assertions"]
    rep = subposet_homology_report("ne", 5, 3)
    assert rep["passed"], rep["assertions"]
    hom = view_homology(parse_view(7, "le:k=2"))
    assert hom.torsion == {1: [3]}
    print("ACCEPTANCE 10 PASS: Whitehouse modules for the named subposets; "
          "3-torsion in the 2-bounded view on 7 points")


def test_11_stability():
    """Multiplicity stabilization windows and the shift identities."""
    for ranks in ((1,), (2,), (1, 2), (3,), (2, 3)):
        for k in (0, 1, 2):
            rep = stability_report(ranks, k, 9)
            assert rep["passed"], (ranks, k, rep["failures"])
    print("ACCEPTANCE 11 PASS: stability onsets and shift identities, n <= 9")


def test_12_vanishing_and_characterization():
    """Vanishing/nonvanishing families for the trivial multiplicity and the
    initial-segment characterization of b' = 1."""
    verdict = conjecture_checks("hh", 7)
    assert verdict.passed, verdict.to_json_dict()
    print("ACCEPTANCE 12 PASS: vanishing families, nonvanishing conditions, "
          "b' = 1 characterization, n <= 7")
