"""Golden stdout digests: one request of every command family, in every
output format, run in process without the cache.  Each must exit with its
recorded code and print stdout whose sha256 is the recorded digest, so a
change that alters any byte of any command's output shows here.

The digests live in ``golden_digests.json``.  After a deliberate change of
output, rewrite them with ``PYTHONPATH=src python tests/test_golden_digests.py``
and say in the change log which outputs changed and why.
"""

import hashlib
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

from parthom.cli import main

GOLDEN = Path(__file__).resolve().with_name("golden_digests.json")
BASES = ("p", "h", "e", "s", "m")
FORMATS = ("json", "tsv", "pretty")


def _requests() -> list[str]:
    out = [f"sf --family {family} --basis {basis}"
           for family in ("lie --n 6", "whitehouse --n 6 --k 3", "reven --n 4",
                          "hook --n 6 --k 2")
           for basis in BASES]
    methods = {"alpha": ("recurrence", "chains"),
               "beta": ("recurrence", "chains", "inclusion_exclusion")}
    for command, names in methods.items():
        for method in names:
            base = f"{command} --n 6 --ranks 1,3 --method {method}"
            out += [f"{base} --basis {basis}" for basis in BASES]
            out.append(f"{base} --mult trivial,refl")
    out += ["table --family bS --n 6", "table --family simsun --max-n 8",
            "table --family bi --max-n 8", "table --family ek --max-n 8",
            "table --family euler --max-n 10"]
    out += [f"homology --n 6 --poset {spec}"
            for spec in ("full", "ranks:-", "ranks:1,3", "qnk:k=3", "pnk:k=3",
                         "le:k=2", "ne:k=3", "even", "even-top:k=2")]
    out += ["check --suite conj-3.9 --max-n 6", "check --suite conj-3.7 --max-n 4",
            "check --suite hh --max-n 6", "check --suite euler --max-n 6",
            "check --suite orbit --max-n 6", "check --suite even --max-n 4",
            "check --suite method --max-n 5"]
    out += [f"report --family {family} --n 6 --k {k}"
            for family, k in (("qnk", 3), ("pnk", 3), ("le", 2), ("ne", 3))]
    # the lie(n) branch, Whitehouse(n, n - 1) and ne below n = 2k: each prints
    # a character and its restriction in the s basis
    out += [f"report --family {family} --n 5 --k {k}"
            for family, k in (("le", 4), ("le", 3), ("ne", 3))]
    # ne at n = 2k + 1: homology asserted to lie in degrees 2k-4 and 2k-3 only
    out.append("report --family ne --n 5 --k 2")
    # the two-row column is s_(n) at k = 0; 1 in S skips identity (iii); at
    # k = 3 the hook columns appear before the two-row ones; at S = 1, k = 3
    # the two-row columns first show at n = 2k, past 2 max(S) + k
    out += [f"report --family stability --ranks {ranks} --k {k} --max-n {n_max}"
            for ranks, k, n_max in (("2,3", 1, 8), ("1", 0, 6), ("1,3", 2, 10), ("2", 3, 12),
                                    ("1,2,4", 1, 11), ("2,3", 0, 9), ("1", 3, 9))]
    return [f"{request} --format {fmt}" for request in out for fmt in FORMATS]


REQUESTS = _requests()


def _run(request: str) -> dict:
    out = io.StringIO()
    with redirect_stdout(out):
        code = main([*request.split(), "--no-cache"])
    return {"code": code, "sha256": hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()}


def test_golden_file_covers_every_request():
    assert len(REQUESTS) == 258
    assert sorted(json.loads(GOLDEN.read_text(encoding="utf-8"))) == sorted(REQUESTS)


def test_every_command_family_prints_its_golden_bytes():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    changed = [request for request in REQUESTS if _run(request) != golden[request]]
    assert not changed, f"{len(changed)} outputs changed, first: {changed[:3]}"


class SymFuncBuilt(Exception):
    pass


def test_no_command_builds_a_symfunc(monkeypatch):
    # every module is class values until symfunc.expansion prints it
    from parthom.symfunc import SymFunc

    def refuse(*args, **kwargs):
        raise SymFuncBuilt

    monkeypatch.setattr(SymFunc, "__init__", refuse)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    changed = [request for request in REQUESTS if _run(request) != golden[request]]
    assert not changed, f"{len(changed)} outputs changed, first: {changed[:3]}"


if __name__ == "__main__":
    digests = {request: _run(request) for request in REQUESTS}
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {GOLDEN}")
