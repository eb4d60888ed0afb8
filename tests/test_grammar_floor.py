"""Every source and test file parses with the grammar of the oldest Python
that ``pyproject.toml`` declares, 3.10.  ``ast.parse`` with
``feature_version`` checks syntax only: a library call that the floor
lacks (say a keyword argument added in 3.11) passes here and needs an
interpreter of that version to be caught."""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]


def declared_floor() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    found = re.search(r'^requires-python = ">=(\d+)\.(\d+)', text, re.MULTILINE)
    return int(found[1]), int(found[2])


def test_every_file_parses_with_the_grammar_of_the_declared_floor():
    floor = declared_floor()
    paths = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py"))
    assert len(paths) > 30
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                  feature_version=floor)
