"""The process entry point: ``python -m parthom`` and the ``parthom`` script
both run ``cli.run``, which prints what the in-process ``cli.main`` prints,
exits with its code, and freezes the process's objects at exit so that the
interpreter's shutdown collections skip them.  ``python -m parthom.cli``
runs ``cli.py`` as ``__main__``, and executes it once.  Children run in development
mode with ``ResourceWarning`` an error, so a file left open at exit would
show on their stderr."""

import ast
import os
import pathlib
import re
import subprocess
import sys

import pytest

from parthom.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]
LAUNCHER = [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-m", "parthom"]


def child(argv, *, cwd=None) -> subprocess.CompletedProcess:
    # argparse wraps its usage line to the terminal width, read from COLUMNS
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), COLUMNS="80")
    return subprocess.run(argv, env=env, cwd=cwd, capture_output=True, text=True, timeout=120)


def in_process(capsys, monkeypatch, argv) -> tuple[int, str, str]:
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = main(argv)
    except SystemExit as exc:
        # argparse exits on a malformed option
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv, code", [
    ("homology --n 5 --poset full --format json", 0),
    ("homology --n 5 --poset full --format tsv", 0),
    ("homology --n 5 --poset full --format pretty", 0),
    ("beta --n 6 --ranks 1,3 --mult trivial,refl", 0),
    ("homology --n 11 --poset full", 2),
    ("homology --n x", 2),
])
def test_the_launcher_prints_and_exits_as_main_does(capsys, monkeypatch, argv, code):
    argv = [*argv.split(), "--no-cache"]
    expected = in_process(capsys, monkeypatch, argv)
    assert expected[0] == code
    out = child([*LAUNCHER, *argv])
    assert (out.returncode, out.stdout, out.stderr) == expected
    if code == 0:
        assert out.stdout and not out.stderr


def test_the_launcher_writes_out_as_main_does(capsys, monkeypatch, tmp_path):
    argv = ["beta", "--n", "6", "--ranks", "1,3", "--format", "tsv",
            "--cache-dir", str(tmp_path / "cache")]
    code, _, _ = in_process(capsys, monkeypatch, [*argv, "--no-cache", "--out",
                                                  str(tmp_path / "expected.tsv")])
    assert code == 0
    # a miss that stores its result, then a hit that reads it back
    for _ in range(2):
        out = child([*LAUNCHER, *argv, "--out", str(tmp_path / "out.tsv")])
        assert (out.returncode, out.stdout, out.stderr) == (0, "", "")
        assert (tmp_path / "out.tsv").read_text() == (tmp_path / "expected.tsv").read_text()


def test_the_cli_module_run_as_main_is_executed_once(capsys, monkeypatch):
    # `python -m parthom.cli` runs cli.py as __main__; a cache miss that
    # imported parthom.cli by name would execute the file a second time
    argv = ["sf", "--family", "lie", "--n", "3", "--no-cache"]
    expected = in_process(capsys, monkeypatch, argv)
    out = child([sys.executable, "-X", "importtime", "-m", "parthom.cli", *argv])
    assert (out.returncode, out.stdout) == expected[:2]
    lines = out.stderr.splitlines()
    assert all(line.startswith("import time:") for line in lines)
    imported = {line.rsplit("|", 1)[-1].strip() for line in lines}
    assert "parthom.cache" in imported and "parthom.cli" not in imported


#: a child that registers an exit handler, then runs one entry point; the
#: handler runs after every handler registered later, so after the freeze
FREEZE_PROBE = """
import atexit, gc, sys
from parthom import cli
atexit.register(lambda: print(gc.get_freeze_count() > 0))
{call}
"""


@pytest.mark.parametrize("call, frozen", [
    ("cli.run()", "True"),
    ("sys.exit(cli.main(sys.argv[1:]))", "False"),
], ids=["run", "main"])
def test_only_the_process_entry_point_freezes_at_exit(call, frozen):
    out = child([sys.executable, "-X", "dev", "-c", FREEZE_PROBE.format(call=call),
                 "sf", "--family", "lie", "--n", "4", "--no-cache", "--format", "json"])
    assert out.returncode == 0 and out.stderr == ""
    assert out.stdout.endswith(f"}}\n{frozen}\n")


def test_both_launchers_run_cli_run():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    scripts = re.search(r"^\[project\.scripts\]\n(.*?)(?:^\[|\Z)", pyproject, re.M | re.S)
    assert scripts and scripts.group(1).split() == ["parthom", "=", '"parthom.cli:run"']
    tree = ast.parse((ROOT / "src" / "parthom" / "__main__.py").read_text(encoding="utf-8"))
    imports = [(node.level, node.module, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) for alias in node.names]
    calls = [node.func.id for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)]
    assert imports == [(1, "cli", "run")] and calls == ["run"]
