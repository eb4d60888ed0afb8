"""Result assembly of the command-line front end: one function per command
that checks the request, computes it and returns its cacheable payload dict.

:mod:`parthom.cli` executes this module only on a cache miss, so a hit
compiles none of it.  Library modules are named through the lazy modules of
``cli._lazy`` at call time, so a request refused here executes none of them.
"""

from __future__ import annotations

from .cli import _lazy
from .errors import CHAIN_REFUSAL, SCHUR_REFUSAL, parse_rank_set, refuse_ground, refuse_past

checks, poset, reps, symfunc, topology = map(_lazy, (
    "checks", "poset", "reps", "symfunc", "topology"))


def _symfunc_payload(f: symfunc.SymFunc, basis: str) -> dict:
    # the dimension is read off the powersum terms, whatever basis prints
    return {"symfunc": f.in_basis(basis).to_json_dict(), "dimension": str(f.dimension())}


def _refuse_degree(degree: int, basis: str) -> None:
    """Refuse a module of this degree, or its conversion to the s basis,
    before it is computed."""
    refuse_past("degree", degree)
    if basis == "s":
        refuse_past("schur_degree", degree, SCHUR_REFUSAL)


def _result_sf(args) -> dict:
    _refuse_degree(2 * args.n if args.family == "reven" else args.n, args.basis)
    if args.family == "lie":
        f = reps.lie_character(args.n)
    elif args.family == "whitehouse":
        if args.k is None:
            raise ValueError("whitehouse needs --k")
        f = reps.whitehouse_module(args.n, args.k)
    elif args.family == "reven":
        f = reps.even_block_characteristic(args.n)
    else:
        if args.k is None:
            raise ValueError("hook needs --k")
        f = symfunc.hook_schur(args.n, args.k)
    return _symfunc_payload(f, args.basis)


def _result_alpha_beta(args) -> dict:
    ranks = parse_rank_set(args.ranks)
    names = None if args.mult is None else [name.strip() for name in args.mult.split(",")]
    if names is not None:
        for name in names:
            if name not in ("trivial", "refl"):
                raise ValueError(f"unknown multiplicity {name!r}")
        if len(set(names)) < len(names):
            raise ValueError(f"{args.command} --mult names a multiplicity twice: {args.mult!r}")
        if args.n < 2:
            raise ValueError(f"{args.command} --mult needs a ground size --n >= 2, got {args.n}")
    _refuse_degree(args.n, args.basis)
    if args.method == "chains":
        refuse_past("chain_degree", args.n, CHAIN_REFUSAL)
    homology = args.command == "beta"
    fn = reps.homology_characteristic if homology else reps.chain_characteristic
    f = fn(args.n, ranks, method=args.method)
    payload = _symfunc_payload(f, args.basis)
    payload["n"] = args.n
    payload["ranks"] = list(ranks)
    if names is not None:
        # paired from the class values of the printed module, by its own method
        values = reps.class_values(args.n, ranks, homology, args.method)
        pair = dict(zip(("trivial", "refl"), reps.trivial_multiplicities(args.n, values)))
        payload["multiplicities"] = {name: pair[name] for name in names}
    return payload


def _result_homology(args) -> dict:
    # a view refused by its size loads no library module
    refuse_ground(args.n)
    view = poset.parse_view(args.n, args.poset)
    return topology.view_homology(view).to_json_dict()


def _result_table(args) -> dict:
    if args.family == "bS":
        if args.n is None:
            raise ValueError("table --family bS needs --n")
        if args.n < 2:
            raise ValueError(f"table --family bS needs a ground size --n >= 2, got {args.n}")
        columns = ("a_S", "a'_S", "b_S", "b'_S")
        rows = [
            {"n": args.n, "S": list(S), **dict(zip(columns, reps.multiplicities(args.n, S)))}
            for S in reps.rank_subsets(range(1, args.n - 1))
        ]
        return {"family": "bS", "n": args.n, "rows": rows}
    limit = args.max_n
    if limit is None:
        raise ValueError(f"table --family {args.family} needs --max-n")
    if args.family == "euler":
        rows = [{"n": n, "E_n": reps.euler_number(n)} for n in range(limit + 1)]
    elif args.family == "simsun":
        rows = [
            {"n": n, "i": i, "a_i(n)": reps.simsun(i, n)}
            for n in range(1, limit + 1)
            for i in range(n // 2 + 1)
            if reps.simsun(i, n)
        ]
    elif args.family == "bi":
        rows = [
            {"n": n, "i": i, "b_i(n)": reps.even_block_multiplicity(i, n)}
            for n in range(2, limit + 1)
            for i in range(2, n + 1)
        ]
    else:
        rows = [
            {"n": n, "k": k, "E_k(n)": reps.ek_number(k, n)}
            for n in range(2, limit + 1)
            for k in range(2, n + 1)
        ]
    if not rows:
        raise ValueError(f"family {args.family!r} has no row at --max-n {limit}")
    return {"family": args.family, "rows": rows}


def _result_check(args) -> dict:
    verdict = checks.conjecture_checks(args.suite, args.max_n)
    if not verdict.assertions:
        # a suite that checks nothing must not report a pass
        raise ValueError(f"suite {args.suite!r} checks nothing at --max-n {args.max_n}")
    return verdict.to_json_dict()


def _result_report(args) -> dict:
    if args.family == "stability":
        if not args.ranks or args.k is None or args.max_n is None:
            raise ValueError("stability report needs --ranks, --k and --max-n")
        return checks.stability_report(parse_rank_set(args.ranks), args.k, args.max_n)
    if args.n is None or args.k is None:
        raise ValueError("subposet report needs --n and --k")
    refuse_ground(args.n)
    return checks.subposet_homology_report(args.family, args.n, args.k)


#: command -> the function that assembles its payload
RESULTS = {
    "sf": _result_sf,
    "alpha": _result_alpha_beta,
    "beta": _result_alpha_beta,
    "homology": _result_homology,
    "table": _result_table,
    "check": _result_check,
    "report": _result_report,
}
