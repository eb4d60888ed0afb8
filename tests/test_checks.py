import pytest

from parthom.checks import (
    Verdict,
    conjecture_checks,
    stability_report,
    subposet_homology_report,
)
from parthom.errors import BLOCK_SIZE_FAMILIES
from parthom.reps import multiplicities


def test_conj_39_verdict():
    v = conjecture_checks("conj-3.9", 10)
    assert v.passed
    assert len(v.assertions) == sum(n - 1 for n in range(2, 11))


def test_conj_37_certificates():
    # one certificate per (n, k) with 1 <= k <= n - 1; cheap well past the
    # ground sizes the homology cross-checks can reach
    v = conjecture_checks("conj-3.7", 5)
    assert v.passed
    assert len(v.assertions) == 1 + 2 + 3 + 4


def test_euler_suite():
    assert conjecture_checks("euler", 6).passed


def test_orbit_suite():
    assert conjecture_checks("orbit", 7).passed


def test_even_suite():
    assert conjecture_checks("even", 3).passed


def test_unknown_suite():
    with pytest.raises(ValueError):
        conjecture_checks("nope", 5)


def test_hh_suite_and_known_values():
    v = conjecture_checks("hh", 6)
    assert v.passed
    # spot checks behind the suite
    assert multiplicities(6, (1, 2, 4)).b == 0       # segment plus remote rank
    assert multiplicities(5, (1, 3)).b == 1          # nonvanishing: gap right after 1
    assert multiplicities(6, (2,)).b != 0            # 1 not in S
    assert multiplicities(6, (1, 2)).b_prime == 1    # initial segment
    assert multiplicities(6, (1, 3)).b_prime > 1


def test_hh_corrected_late_gap_family_at_degree_8():
    # the one instance at n = 8 with a two-element tail that no other family
    # covers: [1,6] minus {4}
    assert multiplicities(8, (1, 2, 3, 5, 6)).b == 0


def test_stability_report_structure():
    rep = stability_report((2,), 1, 8)
    ns = [row["n"] for row in rep["rows"]]
    assert ns == list(range(4, 9))
    assert rep["onsets"]["a"] <= 4
    assert rep["onsets"]["a_prime"] <= 5
    assert rep["passed"] is True and rep["failures"] == []


def test_stability_known_constant_columns():
    # a single bottom rank has one chain orbit at every ground size
    rows = stability_report((1,), 0, 9)["rows"]
    assert [row["a"] for row in rows] == [1] * len(rows)
    # the trivial multiplicity of the single-rank-2 selection settles by 4
    rep = stability_report((2,), 0, 9)
    bs = {row["n"]: row["b"] for row in rep["rows"]}
    assert len({bs[n] for n in range(4, 10)}) == 1


def test_stability_identities_hold_along_the_way(monkeypatch):
    # the payload lists only failures, so record every check made
    names = set()
    check = Verdict.check

    def recorded(self, name, passed, **witness):
        names.add(name)
        check(self, name, passed, **witness)

    monkeypatch.setattr(Verdict, "check", recorded)
    assert stability_report((2, 3), 2, 9)["passed"] is True
    assert "a({1} u (S+1), n+1) == a'(S, n)" in names
    assert "b'(S, n) == b({1} u (S+1), n+1) + b(S+1, n+1)" in names
    assert "b(S u {1}, n) + b(S, n) == b'(S - 1, n - 1)" in names


def test_stability_rejects_empty_rank_set():
    with pytest.raises(ValueError):
        stability_report((), 0, 6)


def test_subposet_report_whitehouse_match():
    rep = subposet_homology_report("qnk", 5, 3)
    assert rep["passed"]
    assert rep["homology"]["betti"]["1"] == 16
    assert "character" in rep and "restriction_to_point_stabilizer" in rep


def test_subposet_report_block_bound_with_no_prediction():
    rep = subposet_homology_report("le", 7, 2)
    # nothing is predicted, so nothing is asserted and nothing passes
    assert rep["passed"] is None and rep["assertions"] == []
    assert rep["homology"]["torsion"] == {"1": [3]}
    assert rep["notes"][-1] == "nothing asserted: the report neither passes nor fails"


def test_subposet_report_no_size_k_boundary_case():
    # n = 2k is a boundary where the Euler characteristics of the two views
    # already differ; the report exposes both and asserts nothing
    rep = subposet_homology_report("ne", 6, 3)
    assert rep["passed"] is None
    assert rep["assertions"] == []
    assert rep["homology"]["betti"]["2"] == 80
    assert rep["modular_deletion_homology"]["betti"]["2"] == 120


def test_subposet_report_no_size_k_past_boundary():
    # n = 2k + 1: a 53,739-simplex complex, inside every cap
    rep = subposet_homology_report("ne", 7, 3)
    assert rep["passed"]
    assert {d: b for d, b in rep["homology"]["betti"].items() if b} == {"3": 400}
    assert rep["homology"]["torsion"] == {}


def test_stability_rejects_a_rank_below_1_before_the_first_n(monkeypatch):
    import parthom.checks as checks

    def forbidden(*args, **kwargs):
        raise AssertionError("class values computed for a rank set with a rank below 1")

    monkeypatch.setattr(checks, "class_values", forbidden)
    for ranks, text in (((0,), "0"), ((0, 3), "0,3"), ((-2, 0, 3), "-2,0,3")):
        with pytest.raises(ValueError) as exc:
            stability_report(ranks, 1, 5)
        assert str(exc.value) == f"rank set {text} has rank {ranks[0]} below 1"


def test_every_predicted_module_holds_up_to_n_6():
    # le:k=n-1 is the whole proper part: lie(n) in degree n - 3
    from parthom.checks import _predicted_module

    cases = [(family, n, k) for family in ("qnk", "pnk", "le", "ne")
             for n in range(4, 7) for k in range(2, n)
             if _predicted_module(family, n, k) is not None]
    assert {("le", 4, 3), ("le", 5, 4), ("le", 6, 5)} <= set(cases)
    failed = [case for case in cases if not subposet_homology_report(*case)["passed"]]
    assert failed == []


def test_no_report_passes_by_asserting_nothing():
    # every report of the block-size families for n = 3..6 and every legal k
    reports = {}
    for family in BLOCK_SIZE_FAMILIES:
        for n in range(3, 7):
            for k in range(n + 2):
                try:
                    reports[family, n, k] = subposet_homology_report(family, n, k)
                except ValueError:
                    continue  # k outside the family's range
    assert len(reports) == 40
    empty = {case for case, rep in reports.items() if not rep["assertions"]}
    assert empty == {("le", 4, 2), ("le", 5, 2), ("le", 6, 2), ("ne", 3, 2), ("ne", 4, 2),
                     ("ne", 6, 2), ("ne", 6, 3)}
    for case, rep in reports.items():
        assert rep["passed"] is (None if case in empty else True), case
        if case in empty:
            assert rep["notes"][-1] == "nothing asserted: the report neither passes nor fails"


def test_subposet_report_invalid_family():
    with pytest.raises(ValueError):
        subposet_homology_report("xyz", 5, 3)
