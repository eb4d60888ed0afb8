"""Command-line front end.

Commands: ``sf`` (named symmetric functions), ``alpha`` / ``beta`` (chain
and homology module characteristics of a rank selection), ``homology``
(integer homology of a named subposet), ``table`` (multiplicity and
number tables), ``check`` (verification suites) and ``report`` (subposet
homology and stability reports).

Every run is deterministic given its parameters; the result of every
command, a ``check`` verdict included, is cached on disk keyed by command,
canonical parameters and the package's sources, so a repeated invocation
emits byte-identical output and exits with the same code without
recomputing.
Exit codes: 0 success, 1 failed verification (a JSON witness goes to
stdout), 2 invalid input, 3 internal failure (a module check, a homology
concentration or a Smith normal form invariant did not hold).
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import sys

from . import cache
from .errors import (
    BLOCK_SIZE_FAMILIES,
    CHAIN_REFUSAL,
    SCHUR_REFUSAL,
    ConcentrationError,
    FeasibilityError,
    ModuleCheckError,
    is_decimal,
    parse_rank_set,
    refuse_ground,
    refuse_past,
)


def _lazy(name: str):
    """The module ``parthom.<name>``, registered in ``sys.modules`` but
    executed (and so compiled) only on its first attribute access: the
    importlib "implementing lazy imports" recipe.  A module already
    imported is returned as it is.  Library code is therefore named through
    its module at call time (``reps.multiplicities(...)``): ``from .reps
    import multiplicities`` would read ``__spec__`` and load the module at
    once."""
    fullname = f"{__package__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
        # bound on the package as an import binds it, for ``parthom.<name>``
        setattr(sys.modules[__package__], name, module)
    return module


checks, poset, reps, symfunc, topology, *_ = map(_lazy, (
    "checks", "poset", "reps", "symfunc", "topology",
    # not called here, but bench/tracer.py looks up every module it wraps in
    # sys.modules right after importing this one
    "chartable", "classfunc", "setparts", "snf"))

CHECK_SUITES = ("conj-3.9", "conj-3.7", "hh", "euler", "orbit", "even", "method")

#: (command, family) -> the options that family never reads; naming one exits 2
UNREAD = {
    ("sf", "lie"): ("k",),
    ("sf", "reven"): ("k",),
    ("table", "bS"): ("max_n",),
    **{("table", family): ("n",) for family in ("euler", "simsun", "bi", "ek")},
    ("report", "stability"): ("n",),
    **{("report", family): ("ranks", "max_n") for family in BLOCK_SIZE_FAMILIES},
}


def _int(text: str) -> int:
    """Type of every integer option, read by the grammar of ``k=`` and ranks."""
    if not is_decimal(text):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _add_common(sub):
    sub.add_argument("--format", choices=("json", "tsv", "pretty"), default="pretty")
    sub.add_argument("--out", help="write output to this file instead of stdout")
    sub.add_argument("--cache-dir", default=None, help="cache directory (default: $PARTHOM_CACHE_DIR or ~/.cache/parthom)")
    sub.add_argument("--no-cache", action="store_true", help="bypass the on-disk cache")
    sub.add_argument("--jobs", type=_int, default=1, help="accepted and ignored: every command runs serially")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="parthom", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sf", help="named symmetric functions")
    p.add_argument("--family", required=True, choices=("lie", "whitehouse", "reven", "hook"))
    p.add_argument("--n", type=_int, required=True)
    p.add_argument("--k", type=_int)
    p.add_argument("--basis", default="h", choices=("p", "h", "e", "s", "m"))
    _add_common(p)

    # inclusion-exclusion over rank subsets gives beta from alphas; alpha has no such method
    for name, methods in (("alpha", ("recurrence", "chains")),
                          ("beta", ("recurrence", "chains", "inclusion_exclusion"))):
        p = sub.add_parser(name, help=f"{name} module characteristic of a rank selection")
        p.add_argument("--n", type=_int, required=True)
        p.add_argument("--ranks", required=True, help="comma list with ranges, '-' for empty")
        p.add_argument("--method", default="recurrence", choices=methods)
        p.add_argument("--basis", default="h", choices=("p", "h", "e", "s", "m"))
        p.add_argument("--mult", help="comma list from {trivial, refl}: emit a "
                       "multiplicity row instead of the characteristic; refl is "
                       "the trivial multiplicity after restriction to the point stabilizer")
        _add_common(p)

    p = sub.add_parser("homology", help="integer homology of a subposet")
    p.add_argument("--n", type=_int, required=True)
    p.add_argument("--poset", required=True,
                   help="view spec: full | ranks:1,3 | qnk:k=3 | pnk:k=3 | le:k=2 | ne:k=3 | even | even-top:k=2")
    _add_common(p)

    p = sub.add_parser("table", help="multiplicity and number tables")
    p.add_argument("--family", required=True, choices=("bS", "simsun", "bi", "ek", "euler"))
    p.add_argument("--n", type=_int)
    p.add_argument("--max-n", type=_int)
    _add_common(p)

    p = sub.add_parser("check", help="verification suites")
    p.add_argument("--suite", required=True, choices=CHECK_SUITES)
    p.add_argument("--max-n", type=_int, required=True)
    _add_common(p)

    p = sub.add_parser("report", help="subposet homology or stability report")
    p.add_argument("--family", required=True, choices=(*BLOCK_SIZE_FAMILIES, "stability"))
    p.add_argument("--n", type=_int)
    p.add_argument("--k", type=_int)
    p.add_argument("--ranks")
    p.add_argument("--max-n", type=_int)
    _add_common(p)

    return parser


# ---------------------------------------------------------------------------
# result assembly (cacheable payload dicts)

def _symfunc_payload(f: symfunc.SymFunc, basis: str) -> dict:
    # the dimension does not depend on the basis; f's own needs no conversion
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


# ---------------------------------------------------------------------------
# rendering

def _render_symfunc_tsv(data: dict) -> str:
    lines = ["partition\tcoeff"]
    for term in data["symfunc"]["terms"]:
        lam = ",".join(map(str, term["partition"])) or "-"
        lines.append(f"{lam}\t{term['coeff']}")
    return "\n".join(lines) + "\n"


def _render_rows_tsv(rows: list[dict]) -> str:
    if not rows:
        return "\n"
    headers = list(rows[0].keys())
    for row in rows[1:]:
        headers.extend(h for h in row if h not in headers)
    lines = ["\t".join(headers)]
    for row in rows:
        cells = []
        for h in headers:
            v = row.get(h, "-")
            if isinstance(v, list):
                cells.append(",".join(map(str, v)) if v else "-")
            else:
                cells.append(str(v))
        lines.append("\t".join(cells))
    return "\n".join(lines) + "\n"


def _pretty_symfunc(data: dict) -> str:
    """The sorted terms of a symmetric-function payload as one sum, e.g.
    ``h[2] - 1/2*h[1,1] + 3``."""
    bits = []
    for term in data["terms"]:
        lam, c = term["partition"], term["coeff"]
        if not lam:
            bits.append(c)
            continue
        name = f"{data['basis']}[{','.join(map(str, lam))}]"
        bits.append(name if c == "1" else f"-{name}" if c == "-1" else f"{c}*{name}")
    return " + ".join(bits).replace("+ -", "- ") if bits else "0"


def _render(data: dict, args) -> str:
    if args.format == "json":
        return json.dumps(data, sort_keys=True, indent=2) + "\n"
    if args.format == "tsv":
        if "symfunc" in data and "multiplicities" in data:
            row = {"n": data["n"], "S": data["ranks"]}
            row.update(data["multiplicities"])
            return _render_rows_tsv([row])
        if "symfunc" in data:
            return _render_symfunc_tsv(data)
        if "rows" in data:
            return _render_rows_tsv(data["rows"])
        if "betti" in data:
            degrees = sorted(data["betti"], key=int)
            rows = [
                {"degree": d, "betti": data["betti"][d],
                 "torsion": ",".join(map(str, data["torsion"].get(d, []))) or "-"}
                for d in degrees
            ]
            return _render_rows_tsv(rows)
        return json.dumps(data, sort_keys=True) + "\n"
    # pretty
    if "symfunc" in data:
        bits = [_pretty_symfunc(data["symfunc"]), f"dimension {data['dimension']}"]
        if "multiplicities" in data:
            bits.append(str(data["multiplicities"]))
        return "\n".join(bits) + "\n"
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


_RESULTS = {
    "sf": _result_sf,
    "alpha": _result_alpha_beta,
    "beta": _result_alpha_beta,
    "homology": _result_homology,
    "table": _result_table,
    "check": _result_check,
    "report": _result_report,
}


def _cache_params(args) -> dict:
    skip = {"format", "out", "cache_dir", "no_cache", "jobs", "command"}
    params = {k: v for k, v in sorted(vars(args).items()) if k not in skip}
    if params.get("ranks") is not None:
        params["ranks"] = list(parse_rank_set(params["ranks"]))
    return params


def _check_out(path: str) -> None:
    """Refuse, before any computation, an ``--out`` path that names a
    directory or lies in no directory."""
    if os.path.isdir(path):
        raise ValueError(f"cannot write --out {path!r}: Is a directory")
    if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
        raise ValueError(f"cannot write --out {path!r}: No such directory")


def main(argv=None) -> int:
    # exact answers print in full and a cached one reads back, however long
    sys.set_int_max_str_digits(0)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for name in UNREAD.get((args.command, getattr(args, "family", None)), ()):
            if getattr(args, name) is not None:
                option = "--" + name.replace("_", "-")
                raise ValueError(f"{args.command} --family {args.family} does not read {option}")
        if args.out:
            _check_out(args.out)
        cache_dir = None if args.no_cache else args.cache_dir or cache.default_cache_dir()
        params = _cache_params(args)
        data = cache.load(cache_dir, args.command, params)
        if data is None:
            data = _RESULTS[args.command](args)
            cache.store(cache_dir, args.command, params, data)
    except (ValueError, FeasibilityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ModuleCheckError, ConcentrationError, AssertionError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    text = _render(data, args)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write --out {args.out!r}: {exc.strerror}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    # a failed assertion exits 1, whether computed or served from the cache;
    # a report that asserted nothing has "passed": null and exits 0
    return 1 if data.get("passed") is False else 0


if __name__ == "__main__":
    sys.exit(main())
