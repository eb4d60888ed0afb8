"""Guard: every function, class and method defined in ``src/parthom`` is
reached from a command (``cli.main``) or from a name the benchmark's tracer
binds or reads.  Code that only tests reach belongs in the tests, as a named
oracle.

Reach is read off the source with ``ast``, by name: a top-level function or
class is reached when a reached body names it (as a variable or as an
attribute), a method when its class is reached and a reached body names it,
and every dunder of a reached class is reached.  Module-level statements run
on import, so they count as reached bodies, except assignments whose value is
only names (``P, H = powersum, homogeneous``): an alias reaches nothing.
"""

import ast
import pathlib

from test_bench_bindings import TRACER, load_tracer

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "parthom"


def _names(nodes) -> set[str]:
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
    return out


def _definitions():
    """(module, qualified name) -> (body nodes, owning class or None), and
    the module-level statements of every module."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    defs, toplevel = {}, []
    for path in sorted(SRC.glob("*.py")):
        module = f"parthom.{path.stem}" if path.stem != "__init__" else "parthom"
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, functions):
                defs[module, node.name] = ([node], None)
            elif isinstance(node, ast.ClassDef):
                # its methods are reached on their own; the rest runs on import
                defs[module, node.name] = ([], None)
                toplevel += node.bases + node.decorator_list
                for item in node.body:
                    if isinstance(item, functions):
                        defs[module, f"{node.name}.{item.name}"] = ([item], node.name)
                    else:
                        toplevel.append(item)
            elif not _is_alias(node):
                toplevel.append(node)
    return defs, toplevel


def _is_alias(node) -> bool:
    if not isinstance(node, ast.Assign):
        return False
    values = node.value.elts if isinstance(node.value, ast.Tuple) else [node.value]
    return all(isinstance(value, ast.Name) for value in values)


def unreached() -> list[str]:
    defs, toplevel = _definitions()
    tracer = load_tracer()
    reached = {("parthom.cli", "main")}
    for module, attr, *_ in tracer["SPANS"] + tracer["COUNTS"]:
        reached.add((module, attr))
        if "." in attr:
            reached.add((module, attr.split(".")[0]))
    # the tracer also reads attributes of what it wraps, e.g. a matrix's nnz()
    named = _names(toplevel) | _names([ast.parse(TRACER.read_text(encoding="utf-8"))])
    while True:
        for key in reached:
            named |= _names(defs[key][0])
        grown = set(reached)
        for (module, qualname), (_, owner) in defs.items():
            short = qualname.rsplit(".", 1)[-1]
            if owner is None:
                if short in named:
                    grown.add((module, qualname))
            elif (module, owner) in reached and (
                    short in named or (short.startswith("__") and short.endswith("__"))):
                grown.add((module, qualname))
        if grown == reached:
            break
        reached = grown
    return sorted(f"{module.removeprefix('parthom.')}.{qualname}"
                  for module, qualname in defs.keys() - reached)


def test_nothing_in_src_is_reached_only_by_tests():
    names = unreached()
    assert not names, f"reached only by tests: {names}"
