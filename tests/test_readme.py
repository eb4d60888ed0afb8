"""The README's command-line examples run: each ``parthom ...`` line of its
"Command line" block, in process and without the cache, exits 0 and prints
something."""

import re
import shlex
from pathlib import Path

import pytest

from parthom.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _examples() -> list[str]:
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## Command line\n.*?^```sh\n(.*?)^```", text, re.S | re.M).group(1)
    return [line for line in block.splitlines() if line.startswith("parthom ")]


EXAMPLES = _examples()


def test_the_command_line_block_has_its_examples():
    assert len(EXAMPLES) == 8


@pytest.mark.parametrize("line", EXAMPLES)
def test_each_readme_example_exits_0_and_prints(capsys, line):
    code = main([*shlex.split(line)[1:], "--no-cache"])
    captured = capsys.readouterr()
    assert code == 0 and captured.out.strip(), line
