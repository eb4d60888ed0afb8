"""Stability reports, conjecture checkers, subposet homology reports.

Every assertion is recorded in a :class:`Verdict`, with its witness: a
suite returns the verdict, and each report returns a payload dict built
around one, whose ``"passed"`` is the verdict's.  Nothing here raises on
a failed mathematical claim, so suites can report rather than abort, and
a report that asserts nothing has ``"passed"`` None, never True.
"""

from __future__ import annotations

from functools import cache
from math import comb

from .errors import BLOCK_SIZE_FAMILIES, BOUNDS, ConcentrationError, refuse_past
from .partitions import partitions_of
from .reps import (
    characteristic,
    class_values,
    even_block_characteristic,
    even_block_multiplicity,
    euler_number,
    homology_characteristic,
    lie_character,
    multiplicities,
    pair_orbit_values,
    rank_subsets,
    restriction,
    schur_multiplicity,
    simsun,
    whitehouse_module,
)


# ---------------------------------------------------------------------------
# small helpers

def _is_initial_segment(ranks: tuple[int, ...]) -> bool:
    return ranks == tuple(range(1, len(ranks) + 1))


class Verdict:
    """Every assertion checked, as the JSON record ``{"name", "passed",
    "witness"}``, and free-form notes."""

    def __init__(self, name: str):
        self.name = name
        self.assertions: list[dict] = []
        self.notes: list[str] = []

    def check(self, name: str, passed: bool, **witness) -> None:
        self.assertions.append({"name": name, "passed": bool(passed), "witness": witness})

    @property
    def passed(self) -> bool | None:
        """Whether every assertion holds; None when nothing was asserted."""
        return all(a["passed"] for a in self.assertions) if self.assertions else None

    @property
    def failures(self) -> list[dict]:
        return [a for a in self.assertions if not a["passed"]]

    def to_json_dict(self):
        return {
            "name": self.name,
            "passed": self.passed,
            "checked": len(self.assertions),
            "failures": self.failures,
            "notes": self.notes,
        }


# ---------------------------------------------------------------------------
# stability across the ground-set size

def stability_report(ranks, k: int, n_max: int) -> dict:
    """Track multiplicities of one rank-set pattern as the ground set grows.

    For each n the report records the four trivial-type multiplicities of
    the chain and homology modules together with the two-row and hook Schur
    multiplicities with k boxes below the first row.  It detects the onset
    of stabilization for every tracked column and asserts it is at most the
    column's bound, 2 max(S) + k for the Schur columns, or the first n at
    which the column is shown if that is later: max(S) + 2 for every column,
    and |lambda| + lambda_1 for the k boxes lambda below the first row, so 2k
    for the two-row column and k + 1 for the hook.  The shift identities
    relating a', b' to shifted rank sets are verified at every n along the way.
    """
    ranks = tuple(sorted(set(int(r) for r in ranks)))
    if not ranks:
        raise ValueError("need a nonempty rank set")
    if ranks[0] < 1:
        raise ValueError(f"rank set {','.join(map(str, ranks))} has rank {ranks[0]} below 1")
    k = int(k)
    if k < 0:
        raise ValueError("k must be nonnegative")
    n_min = max(ranks) + 2
    if n_max < n_min:
        # a report over no ground size must not pass
        raise ValueError(f"n_max {n_max} < max(S) + 2 = {n_min}: the report covers no n")
    refuse_past("degree", n_max + 1, f"--max-n {n_max} needs degree {n_max + 1} for the "
                f"shift identities; the supported bound is {{limit}}")
    verdict = Verdict("stability")
    # one memo per report, over the name as bound when the report runs, for
    # the rows, the shift identities and the stable values
    mult = cache(multiplicities)
    base = 2 * max(ranks)
    shifted = tuple(r + 1 for r in ranks)
    rows: list[dict] = []
    # a column's onset is the first n of its last run of equal values; its
    # bound is clamped to the first n at which it is shown
    onsets: dict[str, int] = {}
    bounds: dict[str, int] = {}
    for n in range(n_min, n_max + 1):
        m = mult(n, ranks)
        # (column, value, onset bound): the trivial columns stabilize by
        # 2 max(S), the primed ones (a one-box skew) by 2 max(S) + 1, and
        # the k-box Schur columns by 2 max(S) + k
        columns = [("a", m.a, base), ("a_prime", m.a_prime, base + 1),
                   ("b", m.b, base), ("b_prime", m.b_prime, base + 1)]
        modules = (("alpha", class_values(n, ranks)),
                   ("beta", class_values(n, ranks, homology=True)))
        for shape, lam, shown in (("two_row", (n - k, k) if k else (n,), n - k >= k),
                                  ("hook", (n - k,) + (1,) * k, n - k >= 1)):
            if shown:
                columns += [(f"{module}_{shape}", schur_multiplicity(values, lam), base + k)
                            for module, values in modules]
        for key, value, bound in columns:
            if key not in onsets or rows[-1][key] != value:
                onsets[key] = n
            bounds.setdefault(key, max(bound, n))
        rows.append({"n": n, **{key: value for key, value, _ in columns}})

        # shift identities, each at this n
        up = mult(n + 1, (1,) + shifted)
        verdict.check("a({1} u (S+1), n+1) == a'(S, n)", up.a == m.a_prime,
                      n=n, lhs=up.a, rhs=m.a_prime)
        rhs = up.b + mult(n + 1, shifted).b
        verdict.check("b'(S, n) == b({1} u (S+1), n+1) + b(S+1, n+1)", m.b_prime == rhs,
                      n=n, lhs=m.b_prime, rhs=rhs)
        if 1 not in ranks:
            # n - 1 >= max(S - 1) + 2 holds from n = max(S) + 2 on
            lhs = mult(n, (1,) + ranks).b + m.b
            rhs = mult(n - 1, tuple(r - 1 for r in ranks)).b_prime
            verdict.check("b(S u {1}, n) + b(S, n) == b'(S - 1, n - 1)", lhs == rhs,
                          n=n, lhs=lhs, rhs=rhs)

    for key, onset in onsets.items():
        if bounds[key] <= n_max:
            verdict.check(f"onset({key}) within its stability bound", onset <= bounds[key],
                          column=key, onset=onset, bound=bounds[key])

    # stable reflection multiplicity: b' - b against the shifted stable
    # values, each read at the bound of its b column
    if base + k < n_max:
        stable_val = (mult(base + 2, (1,) + shifted).b + mult(base + 2, shifted).b
                      - mult(max(base, n_min), ranks).b)
        for row in rows:
            if row["n"] > base:
                lhs = row["b_prime"] - row["b"]
                verdict.check("stable reflection multiplicity", lhs == stable_val,
                              n=row["n"], lhs=lhs, rhs=stable_val)
    return {
        "inputs": {"ranks": list(ranks), "k": k, "n_max": n_max},
        "methods": ["recurrence"],
        "ranks": list(ranks),
        "k": k,
        "n_max": n_max,
        "rows": rows,
        "onsets": onsets,
        "onset_bound": base + k,
        "passed": verdict.passed,
        "failures": verdict.failures,
    }


# ---------------------------------------------------------------------------
# conjecture and theorem checkers

def _check_even_top_h_positive(verdict: Verdict, n: int, k: int) -> None:
    # imported here, so that the other checks load no symfunc
    from .symfunc import is_positive

    ranks = tuple(range(2 * n - 2 * k, 2 * n - 1, 2))
    ok = is_positive(homology_characteristic(2 * n, ranks), "h")
    verdict.check(
        f"h-positivity of even-block top-{k} homology, 2n={2 * n}",
        ok,
        **{"2n": 2 * n, "k": k, "h_positive": ok},
    )


def conjecture_checks(name: str, n_max: int) -> Verdict:
    """Run one named suite of checks up to the given bound.

    ``conj-3.9``: b_i(n) <= a_i(2n) for 2 <= i <= n <= n_max.
    ``conj-3.7``: h-positivity checks for the top-k even-block
    selections with ground size up to 2 n_max.
    ``hh``: the vanishing and nonvanishing conditions for the trivial
    multiplicity, and the characterization of rank sets with b' = 1.
    ``euler``: the two Euler-number refinement sums.
    ``orbit``: the simsun orbit decomposition of the full chain action.
    ``even``: the even-block characteristic against the independent
    rank-selected recurrence, plus involution support.
    ``method``: the chain-counting and recurrence paths agree on alpha and
    beta of every rank set, for n up to min(n_max, the ``method_suite`` bound).
    """
    # refuse each suite's largest degree before its first check
    if name in ("hh", "euler", "orbit"):
        refuse_past("degree", n_max)
    elif name in ("conj-3.7", "even"):
        refuse_past("degree", 2 * n_max)
    verdict = Verdict(name)
    if name == "conj-3.9":
        for n in range(2, n_max + 1):
            for i in range(2, n + 1):
                b = even_block_multiplicity(i, n)
                a = simsun(i, 2 * n)
                verdict.check(
                    f"b_{i}({n}) <= a_{i}({2 * n})", b <= a, i=i, n=n, b=b, a=a
                )
    elif name == "conj-3.7":
        for n in range(2, n_max + 1):
            for k in range(1, n):
                _check_even_top_h_positive(verdict, n, k)
    elif name == "hh":
        _trivial_multiplicity_checks(verdict, n_max)
    elif name == "euler":
        for n in range(4, n_max + 1):
            total_b = total_bp = 0
            for S in rank_subsets(range(1, n - 1)):
                m = multiplicities(n, S)
                total_b += m.b
                total_bp += m.b_prime
            verdict.check(
                f"sum of b over rank sets of {n}",
                total_b == euler_number(n - 1),
                n=n, total=total_b, expected=euler_number(n - 1),
            )
            verdict.check(
                f"sum of b' over rank sets of {n}",
                total_bp == euler_number(n),
                n=n, total=total_bp, expected=euler_number(n),
            )
    elif name == "orbit":
        for n in range(4, n_max + 1):
            alpha = class_values(n, range(1, n - 1))
            dec = pair_orbit_values(n, {i: simsun(i, n) for i in range(1, n // 2 + 1)})
            verdict.check(f"orbit decomposition at n={n}", alpha == dec, n=n)
    elif name == "even":
        for n in range(2, n_max + 1):
            r = even_block_characteristic(n)
            other = class_values(2 * n, range(2, 2 * n - 1, 2), homology=True)
            verdict.check(f"even-block module agreement, 2n={2 * n}", r == other, n=n)
            # the recurrence's module vanishes off the involutions, as the
            # assembled one does by construction
            verdict.check(f"involution support, 2n={2 * n}",
                          all(v == 0 for mu, v in zip(partitions_of(2 * n), other)
                              if mu[0] > 2), n=n)
    elif name == "method":
        cap = BOUNDS["method_suite"]
        for n in range(3, min(n_max, cap) + 1):
            for S in rank_subsets(range(1, n - 1)):
                same_a = class_values(n, S, method="chains") == class_values(n, S)
                same_b = class_values(n, S, True, "chains") == class_values(n, S, True)
                verdict.check(f"alpha paths agree n={n} S={S}", same_a, n=n, S=list(S))
                verdict.check(f"beta paths agree n={n} S={S}", same_b, n=n, S=list(S))
        if n_max > cap:
            verdict.notes.append(f"chain path capped at n = {cap}")
    else:
        raise ValueError(f"unknown check suite {name!r}")
    return verdict


def _vanishing_reasons(S: tuple[int, ...], n: int) -> list[str]:
    """Which of the four vanishing conditions apply to the rank set."""
    reasons = []
    if S and _is_initial_segment(S):
        reasons.append("initial segment")
    half = tuple(range(1, (n + 1) // 2 + 1))
    if S and set(half) <= set(S):
        reasons.append("contains bottom half")
    # initial segment plus one extra rank outside the allowed interval
    if len(S) >= 2 and _is_initial_segment(S[:-1]) and S[-1] >= len(S[:-1]) + 2:
        r = len(S) - 1
        a = S[-1]
        if a < comb(r + 2, 2) or a > n - r - 1:
            reasons.append("segment plus remote rank")
    # initial segment with one internal rank removed well past the midpoint;
    # 2k > r + 1 rather than 2k > r, since at 2k = r + 1 the nonvanishing
    # condition below applies and the multiplicity is provably positive
    if S:
        r = S[-1]
        full = set(range(1, r + 1))
        missing = full - set(S)
        if len(missing) == 1 and set(S) == full - missing:
            k = missing.pop()
            if 2 * k > r + 1:
                reasons.append("segment minus late rank")
    return reasons


def _nonvanishing_applies(S: tuple[int, ...]) -> bool:
    if not S:
        return True
    if 1 not in S:
        return True
    # S = [1, r] followed by a tail T with min T >= r + 2 and |T| >= r
    r = 0
    while r < len(S) and S[r] == r + 1:
        r += 1
    tail = S[r:]
    return bool(tail) and tail[0] >= r + 2 and len(tail) >= r


def _trivial_multiplicity_checks(verdict: Verdict, n_max: int) -> None:
    for n in range(4, n_max + 1):
        for S in rank_subsets(range(1, n - 1)):
            m = multiplicities(n, S)
            reasons = _vanishing_reasons(S, n)
            if reasons:
                verdict.check(
                    f"b = 0 for n={n}, S={S}", m.b == 0, n=n, S=list(S), b=m.b,
                    reasons=reasons,
                )
            if _nonvanishing_applies(S) and not reasons:
                verdict.check(
                    f"b != 0 for n={n}, S={S}", m.b != 0, n=n, S=list(S), b=m.b
                )
            verdict.check(
                f"b' = 1 iff initial segment for n={n}, S={S}",
                (m.b_prime == 1) == _is_initial_segment(S),
                n=n, S=list(S), b_prime=m.b_prime,
            )


# ---------------------------------------------------------------------------
# subposet homology reports

def _predicted_module(family: str, n: int, k: int):
    """(degree, class values) predicted for the family, or None."""
    if family in ("qnk", "pnk"):
        return n - 4, whitehouse_module(n, k)
    if family == "le" and k == n - 1:
        # no block of size n in the proper part: the view is all of it
        return n - 3, lie_character(n)
    if family == "le" and k >= 3 and n < 2 * k + 2:
        return n - 4, whitehouse_module(n, n - 1)
    if family == "ne" and k >= 3 and n < 2 * k:
        return n - 4, whitehouse_module(n, k)
    return None


def subposet_homology_report(family: str, n: int, k: int) -> dict:
    """Homology of one block-size or modular-deletion subposet compared with
    its predicted module, when one is predicted.

    Beyond the predictions this also covers the boundary cases: for the
    no-size-k family at n = 2k the Betti/torsion data is compared against
    the modular-deletion view (their complexes are homotopy equivalent),
    and at n = 2k + 1 homology is checked to live in degrees 2k-4, 2k-3
    only.
    """
    if family not in BLOCK_SIZE_FAMILIES:
        raise ValueError(f"unknown family {family!r}; "
                         f"expected one of {sorted(BLOCK_SIZE_FAMILIES)}")
    # imported here, so that the other checks load no poset or topology
    from .poset import parse_view
    from .topology import concentrated_character, view_homology

    view = parse_view(n, f"{family}:k={k}")
    hom = view_homology(view)
    report = {
        "inputs": {"family": family, "n": n, "k": k},
        "methods": ["snf-homology", "lefschetz-character"],
        "view": view.describe(),
        "homology": hom.to_json_dict(),
        "notes": [],
    }
    verdict = Verdict(family)
    predicted = _predicted_module(family, n, k)
    if predicted is not None:
        degree, module = predicted
        try:
            got_degree, values = concentrated_character(view, hom)
        except ConcentrationError as exc:
            verdict.check("free homology concentrated in one degree", False, error=str(exc))
        else:
            verdict.check(
                "free homology concentrated in one degree",
                got_degree == degree and hom.is_free(),
                degree=got_degree, expected_degree=degree,
            )
            verdict.check(
                "character matches the predicted module",
                values == module,
                dimension=values[-1],
                expected_dimension=module[-1],
            )
            report["character"] = characteristic(n, values).in_basis("s").to_json_dict()
            # both sides of the unresolved product-module comparison, no verdict
            report["restriction_to_point_stabilizer"] = (
                characteristic(n - 1, restriction(n, values)).in_basis("s").to_json_dict()
            )
            report["notes"].append(
                "restriction characteristic exposed for comparison only; no "
                "verdict is implied for the product-module question"
            )
    elif family == "ne" and n == 2 * k:
        # no verdict here: at n = 2k the reduced Euler characteristics of
        # this view and the modular-deletion view already differ (80 vs 120
        # at n = 6, k = 3), so only the n < 2k comparison is checked
        other = view_homology(parse_view(n, f"qnk:k={k}"))
        report["modular_deletion_homology"] = other.to_json_dict()
        report["notes"].append(
            "boundary case n = 2k: both homology results exposed, no comparison asserted"
        )
    elif family == "ne" and n == 2 * k + 1:
        allowed = {2 * k - 4, 2 * k - 3}
        verdict.check(
            "homology only in degrees 2k-4 and 2k-3",
            set(hom.nonzero_degrees()) <= allowed,
            degrees=hom.nonzero_degrees(),
        )
    else:
        report["notes"].append("no predicted module for these parameters")
    if not verdict.assertions:
        report["notes"].append("nothing asserted: the report neither passes nor fails")
    report["assertions"] = verdict.assertions
    report["passed"] = verdict.passed
    return report
