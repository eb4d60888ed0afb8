"""Guards on what the package imports: no name imported and never used, no
heavy standard-library module pulled in by the command-line entry point,
which every CLI call pays for at start-up, and no library module executed
(so compiled) by a command that does not run it."""

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

from parthom.cli import CHECK_SUITES
from test_bench_bindings import load_tracer

ROOT = pathlib.Path(__file__).resolve().parents[1]


def unused_imports(path: pathlib.Path) -> list[str]:
    """Names a module binds by import but never loads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - loaded)


def test_no_module_imports_a_name_it_never_uses():
    paths = [p for d in ("src/parthom", "tests") for p in sorted((ROOT / d).glob("*.py"))]
    assert len(paths) > 20
    found = {str(p.relative_to(ROOT)): names for p in paths if (names := unused_imports(p))}
    assert found == {}


def test_cli_import_pulls_in_no_dataclasses_or_inspect(tmp_path):
    # nor OpenSSL behind hashlib, after the import and after a cold command
    # that stores its result: the cache keys by CPython's own source hash
    code = ("import sys, parthom.cli; "
            "heavy = lambda: ','.join(m for m in "
            "('dataclasses', 'inspect', 'hashlib', '_hashlib') if m in sys.modules); "
            "print(heavy()); "
            "print(parthom.cli.main(sys.argv[1:]), heavy())")
    argv = ["homology", "--n", "5", "--poset", "full", "--cache-dir", str(tmp_path / "cache"),
            "--out", str(tmp_path / "out")]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-S", "-c", code, *argv], env=env,
                         capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.split("\n") == ["", "0 ", ""]
    assert len(list(tmp_path.rglob("*.json"))) == 1


def test_package_import_loads_no_module():
    # the package re-exports nothing, so a command pays only for the modules it imports
    code = ("import sys, parthom; "
            "print(','.join(m for m in sys.modules if m.startswith('parthom.')))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.strip() == ""


#: run in a fresh interpreter: import the entry point, run one command with
#: its stdout dropped, then name every parthom module in sys.modules and
#: whether it was executed, and whether ``fractions`` was imported; a lazily
#: registered module that no attribute access has loaded yet is not a plain
#: module
PROBE = """
import contextlib, io, json, sys, types
import parthom.cli
code = None
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = parthom.cli.main(sys.argv[1:])
modules = {name.removeprefix("parthom."): type(module) is types.ModuleType
           for name, module in sys.modules.items() if name.startswith("parthom.")}
print(json.dumps({"code": code, "modules": modules, "fractions": "fractions" in sys.modules}))
"""

START = {"cli", "cache", "errors"}
#: a cache miss also executes the result assembly, even when it refuses the request
MISS = START | {"commands"}
CLASS_VALUES = MISS | {"reps", "chartable", "partitions"}
RECURRENCE = CLASS_VALUES | {"symfunc"}
POSET = {"poset", "setparts", "partitions"}
CHAINS = RECURRENCE | POSET
HOMOLOGY = MISS | POSET | {"topology", "snf"}


def probe(*argv) -> tuple[int | None, dict[str, bool], bool]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-S", "-c", PROBE, *argv], env=env,
                         capture_output=True, text=True, timeout=60, check=True)
    result = json.loads(out.stdout)
    return result["code"], result["modules"], result["fractions"]


def executed(modules: dict[str, bool]) -> set[str]:
    return {name for name, ran in modules.items() if ran}


def test_cli_import_registers_every_traced_module_but_executes_three():
    tracer = load_tracer()
    # bench/tracer.py looks each one up in sys.modules right after the import
    traced = {module for module, *_ in tracer["SPANS"] + tracer["COUNTS"]}
    traced.add("parthom.chartable")
    _, modules, _ = probe()
    assert {name.removeprefix("parthom.") for name in traced} <= set(modules)
    assert executed(modules) == START


@pytest.mark.parametrize("fmt, expected", [("json", START), ("tsv", START), ("pretty", START)])
def test_cache_hit_executes_only_what_renders_it(tmp_path, fmt, expected):
    argv = ["sf", "--family", "whitehouse", "--n", "5", "--k", "3", "--cache-dir", str(tmp_path)]
    assert probe(*argv)[0] == 0
    code, modules, _ = probe(*argv, "--format", fmt)
    assert code == 0 and executed(modules) == expected


#: id -> (a request that exits 0, the modules it executes)
REQUESTS = {
    "homology": ("homology --n 5 --poset full", HOMOLOGY),
    "beta": ("beta --n 6 --ranks 1,3", RECURRENCE),
    "alpha": ("alpha --n 6 --ranks 1,3", RECURRENCE),
    "alpha-chains": ("alpha --n 5 --ranks 1,2 --method chains", CHAINS),
    "sf": ("sf --family lie --n 5 --basis s", RECURRENCE),
    "table": ("table --family bS --n 5", CLASS_VALUES),
    "report-stability": ("report --family stability --ranks 1 --k 2 --max-n 5",
                         CLASS_VALUES | {"checks"}),
    "check-method": ("check --suite method --max-n 4", CLASS_VALUES | POSET | {"checks"}),
    # of the suites only conj-3.7 executes symfunc, to read a module out in
    # the h basis; every other suite compares class values
    "check-even": ("check --suite even --max-n 3", CLASS_VALUES | {"checks"}),
    "check-orbit": ("check --suite orbit --max-n 6", CLASS_VALUES | {"checks"}),
    "check-conj-3.7": ("check --suite conj-3.7 --max-n 3", RECURRENCE | {"checks"}),
    "check-conj-3.9": ("check --suite conj-3.9 --max-n 4", CLASS_VALUES | {"checks"}),
    "check-hh": ("check --suite hh --max-n 5", CLASS_VALUES | {"checks"}),
    "check-euler": ("check --suite euler --max-n 5", CLASS_VALUES | {"checks"}),
    "report-qnk": ("report --family qnk --n 5 --k 3", HOMOLOGY | RECURRENCE | {"checks"}),
}


@pytest.mark.parametrize("argv, expected", REQUESTS.values(), ids=REQUESTS)
def test_each_command_executes_only_the_modules_it_runs(argv, expected):
    code, modules, fractions = probe(*argv.split(), "--no-cache", "--format", "json")
    assert code == 0 and executed(modules) == expected
    # only a command that prints a symmetric function makes a Fraction
    assert fractions == ("symfunc" in expected)


def test_every_check_suite_is_probed():
    assert {f"check-{suite}" for suite in CHECK_SUITES} <= set(REQUESTS)


def test_the_chain_method_is_refused_before_any_library_module():
    # the chains workload's refusal probe
    code, modules, _ = probe("alpha", "--n", "9", "--ranks", "1-7", "--method", "chains",
                          "--no-cache")
    assert code == 2 and executed(modules) == MISS


def test_a_view_refused_by_its_size_loads_no_topology():
    # the homology workload's refusal probe loads no library module at all
    code, modules, _ = probe("homology", "--n", "11", "--poset", "full", "--no-cache")
    assert code == 2 and executed(modules) == MISS


def test_a_table_refused_by_its_max_n_loads_no_library_module():
    code, modules, _ = probe("table", "--family", "euler", "--max-n", "2001", "--no-cache")
    assert code == 2 and executed(modules) == MISS


def test_a_report_refused_by_its_ground_size_loads_no_library_module():
    code, modules, _ = probe("report", "--family", "qnk", "--n", "11", "--k", "3", "--no-cache")
    assert code == 2 and executed(modules) == MISS


@pytest.mark.parametrize("argv", [
    "sf --family whitehouse --n 5",
    "table --family bS",
    "report --family stability --ranks 2 --k 1",
])
def test_a_request_missing_an_option_executes_only_the_entry_point(argv):
    # refused by the family table in cli, before the cache and the result assembly
    code, modules, _ = probe(*argv.split(), "--no-cache")
    assert code == 2 and executed(modules) == START
