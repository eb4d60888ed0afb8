"""Guards on what the package imports: no name imported and never used, and
no heavy standard-library module pulled in by the command-line entry point,
which every CLI call pays for at start-up."""

import ast
import os
import pathlib
import subprocess
import sys

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


def test_cli_import_pulls_in_no_dataclasses_or_inspect():
    code = ("import sys, parthom.cli; "
            "print(','.join(m for m in ('dataclasses', 'inspect') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.strip() == ""


def test_package_import_loads_no_module():
    # the package re-exports nothing, so a command pays only for the modules it imports
    code = ("import sys, parthom; "
            "print(','.join(m for m in sys.modules if m.startswith('parthom.')))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.strip() == ""
