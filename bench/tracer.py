"""Run one parthom CLI invocation with spans recorded around its layers.

Usage: ``python3 bench/tracer.py SPANS_FILE COMMAND_ID -- <parthom args>``
with ``src`` on ``PYTHONPATH``.

The wrappers live here, not in the program: each public function or method
named in ``SPANS`` is replaced by a recording wrapper at every module that
imported it (``parthom.cli.order_complex`` and ``parthom.checks.order_complex``
are separate bindings of one function), and the functions in ``COUNTS`` get a
cheaper call counter, because ``SetPartition.refines`` runs millions of times.
Spans stay in memory and are written as JSON lines to SPANS_FILE when the
invocation ends: one object per span with ``name``, ``start``, ``end``,
``parent`` (index of the enclosing span or null), ``cmd`` and ``attrs``.
The root span ``cli.main`` carries the call counts and the
``chartable.character`` memo statistics as attributes.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, attribute or Class.method, span name, attributes of the result)
SPANS = [
    ("parthom.cache", "load", "cache.load", lambda r, a: {"hit": r is not None}),
    ("parthom.cache", "store", "cache.store", None),
    ("parthom.poset", "PosetView.__init__", "poset.view_build",
     lambda r, a: {"elements": len(a[0])}),
    ("parthom.poset", "PosetView.fixed_by", "poset.fixed_by", None),
    ("parthom.poset", "PosetView.covers", "poset.covers", None),
    ("parthom.poset", "fixed_chain_count", "poset.fixed_chain_count", None),
    ("parthom.topology", "order_complex", "topology.order_complex",
     lambda r, a: {"simplices": sum(r.f_vector().values())}),
    ("parthom.topology", "ChainComplexZ.check_boundary_squares_to_zero",
     "topology.d2_check", None),
    ("parthom.topology", "homology", "topology.homology", None),
    ("parthom.topology", "lefschetz_class_function", "topology.lefschetz", None),
    ("parthom.topology", "mobius_number", "topology.mobius", None),
    ("parthom.snf", "invariant_factors", "snf.invariant_factors",
     lambda r, a: {"nnz": a[0].nnz(), "rows": a[0].nrows, "cols": a[0].ncols,
                   "rank": len(r), "units": r.count(1),
                   "torsion": sum(1 for f in r if f > 1)}),
    ("parthom.symfunc", "plethysm", "symfunc.plethysm",
     lambda r, a: {"terms": len(r.terms)}),
    ("parthom.symfunc", "plethysm_with_h_sum", "symfunc.plethysm",
     lambda r, a: {"terms": len(r.terms)}),
    ("parthom.symfunc", "SymFunc.in_basis", "symfunc.in_basis", None),
    ("parthom.symfunc", "SymFunc.inner", "symfunc.inner", None),
    ("parthom.classfunc", "ClassFunction.characteristic", "classfunc.characteristic", None),
    ("parthom.reps", "chain_characteristic", "reps.characteristic", None),
    ("parthom.reps", "homology_characteristic", "reps.characteristic", None),
    ("parthom.reps", "multiplicities", "reps.multiplicities", None),
    ("parthom.reps", "lie_character", "reps.lie_character", None),
    ("parthom.reps", "whitehouse_module", "reps.whitehouse_module", None),
    ("parthom.reps", "even_block_characteristic", "reps.even_block_characteristic", None),
    ("parthom.checks", "stability_report", "checks.stability_report", None),
    ("parthom.checks", "conjecture_checks", "checks.conjecture_checks", None),
    ("parthom.checks", "subposet_homology_report", "checks.subposet_homology_report", None),
]

COUNTS = [
    ("parthom.setparts", "SetPartition.refines", "setparts.refines_calls"),
    ("parthom.setparts", "act", "setparts.act_calls"),
]


class Recorder:
    """Spans of one invocation, kept in memory until :meth:`dump`."""

    def __init__(self, cmd: str):
        self.cmd = cmd
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.counts = {name: 0 for _, _, name in COUNTS}

    def span(self, name, fn, describe=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = {"name": name, "start": clock(), "end": None,
                      "parent": stack[-1] if stack else None, "cmd": self.cmd, "attrs": {}}
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record["end"] = clock()
                stack.pop()
            if describe is not None:
                record["attrs"] = describe(result, args)
            return result

        return wrapper

    def counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record, sort_keys=True) + "\n")


def _rebind(module_name: str, attr: str, make) -> None:
    """Replace one function everywhere parthom imported it, or one method on its class."""
    module = sys.modules[module_name]
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(module, cls_name)
        setattr(cls, meth, make(cls.__dict__[meth]))
        return
    original = getattr(module, attr)
    replacement = make(original)
    for name, mod in list(sys.modules.items()):
        if name == "parthom" or name.startswith("parthom."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, replacement)


def install(recorder: Recorder) -> None:
    for module_name, attr, name, describe in SPANS:
        _rebind(module_name, attr, lambda fn, n=name, d=describe: recorder.span(n, fn, d))
    for module_name, attr, name in COUNTS:
        _rebind(module_name, attr, lambda fn, n=name: recorder.counter(n, fn))


def main(argv: list[str]) -> int:
    spans_file, cmd_id, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS_FILE COMMAND_ID -- <parthom args>")
    recorder = Recorder(cmd_id)
    start = time.perf_counter()
    import parthom  # noqa: F401  (imports every module that install() rebinds)
    import parthom.cli
    recorder.spans.append({"name": "cli.import", "start": start, "end": time.perf_counter(),
                           "parent": None, "cmd": cmd_id, "attrs": {}})
    install(recorder)
    root = recorder.span("cli.main", parthom.cli.main)
    try:
        code = root(cli_args)
    finally:
        info = sys.modules["parthom.chartable"].character.cache_info()
        main_span = next(s for s in recorder.spans if s["name"] == "cli.main")
        main_span["attrs"] = dict(recorder.counts, **{
            "chartable.character_hits": info.hits,
            "chartable.character_misses": info.misses,
        })
        sys.stdout.flush()
        recorder.dump(spans_file)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
