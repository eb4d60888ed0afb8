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
import atexit
import gc
import importlib.util
import json
import os
import sys

from . import cache
from .errors import (
    BLOCK_SIZE_FAMILIES,
    ConcentrationError,
    FeasibilityError,
    ModuleCheckError,
    is_decimal,
    parse_rank_set,
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


commands, *_ = map(_lazy, (
    # executed on a cache miss only, so a hit compiles no result assembly
    "commands",
    # not called here, but bench/tracer.py looks up every module it wraps in
    # sys.modules right after importing this one
    "checks", "poset", "reps", "symfunc", "topology",
    "chartable", "classfunc", "setparts", "snf"))

CHECK_SUITES = ("conj-3.9", "conj-3.7", "hh", "euler", "orbit", "even", "method")

#: command -> its --family choices -> the options each reads; leaving one
#: out or naming another exits 2 before the cache is consulted
FAMILIES = {
    "sf": {"lie": ("n",), "whitehouse": ("n", "k"), "reven": ("n",), "hook": ("n", "k")},
    "table": {"bS": ("n",), **dict.fromkeys(("simsun", "bi", "ek", "euler"), ("max_n",))},
    "report": {**dict.fromkeys(BLOCK_SIZE_FAMILIES, ("n", "k")),
               "stability": ("ranks", "k", "max_n")},
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
    p.add_argument("--family", required=True, choices=FAMILIES["sf"])
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
    p.add_argument("--family", required=True, choices=FAMILIES["table"])
    p.add_argument("--n", type=_int)
    p.add_argument("--max-n", type=_int)
    _add_common(p)

    p = sub.add_parser("check", help="verification suites")
    p.add_argument("--suite", required=True, choices=CHECK_SUITES)
    p.add_argument("--max-n", type=_int, required=True)
    _add_common(p)

    p = sub.add_parser("report", help="subposet homology or stability report")
    p.add_argument("--family", required=True, choices=FAMILIES["report"])
    p.add_argument("--n", type=_int)
    p.add_argument("--k", type=_int)
    p.add_argument("--ranks")
    p.add_argument("--max-n", type=_int)
    _add_common(p)

    return parser


# ---------------------------------------------------------------------------
# rendering

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
        if "multiplicities" in data:
            rows = [{"n": data["n"], "S": data["ranks"], **data["multiplicities"]}]
        elif "symfunc" in data:
            rows = data["symfunc"]["terms"]
        elif "betti" in data:
            rows = [{"degree": d, "betti": data["betti"][d], "torsion": data["torsion"].get(d, [])}
                    for d in sorted(data["betti"], key=int)]
        else:
            rows = data.get("rows")
        if rows is not None:
            return _render_rows_tsv(rows)
        return json.dumps(data, sort_keys=True) + "\n"
    # pretty
    if "symfunc" in data:
        bits = [_pretty_symfunc(data["symfunc"]), f"dimension {data['dimension']}"]
        if "multiplicities" in data:
            bits.append(str(data["multiplicities"]))
        return "\n".join(bits) + "\n"
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


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
        for name in ("n", "k", "ranks", "max_n") if args.command in FAMILIES else ():
            given = getattr(args, name, None) is not None
            if given != (name in FAMILIES[args.command][args.family]):
                option = "--" + name.replace("_", "-")
                verb = "does not read" if given else "needs"
                raise ValueError(f"{args.command} --family {args.family} {verb} {option}")
        if args.out:
            _check_out(args.out)
        cache_dir = None if args.no_cache else args.cache_dir or cache.default_cache_dir()
        params = _cache_params(args)
        data = cache.load(cache_dir, args.command, params)
        if data is None:
            data = commands.RESULTS[args.command](args)
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


def run() -> None:
    """Entry point of the ``parthom`` script and of ``python -m parthom``:
    :func:`main` on the process's arguments, exiting with its code.  Every
    object alive at exit is frozen, so the interpreter's shutdown
    collections skip what the command made; in-process callers use
    ``main(argv)``, which freezes nothing."""
    # registered before the command runs, so it runs after every handler
    # the command registers, on every exit path
    atexit.register(gc.freeze)
    sys.exit(main())


if __name__ == "__main__":
    run()
