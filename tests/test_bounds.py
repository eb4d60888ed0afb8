"""The size bounds of ``errors.BOUNDS``: each refusal on the command line,
the method-suite cap, the reads of each bound in the source, and the README
table that documents them."""

import json
import re
from pathlib import Path

import pytest

import parthom.errors as errors
from parthom.cli import main
from parthom.symfunc import SymFunc

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"

#: bound -> (command, stderr line) of one refusal; among them the
#: benchmark's four refusal probes, which must keep exiting 2
REFUSALS = {
    "ground": ("homology --n 11 --poset full",
               "ground set size 11 outside supported range 2..10"),
    "simplices": ("homology --n 8 --poset full",
                  "order complex of full,n=8 exceeds 250000 simplices"),
    "schur_degree": ("sf --family hook --n 15 --k 2 --basis s",
                     "character-table conversion refused for degree 15 > 14"),
    "degree": ("beta --n 17 --ranks 1", "degree 17 exceeds supported bound 16"),
    "chain_degree": ("alpha --n 9 --ranks 1-7 --method chains",
                     "chain path refused for n=9 > 8"),
}


def test_every_bound_has_a_refusal_or_its_own_test():
    # the method suite caps its range instead of refusing
    assert set(REFUSALS) | {"method_suite"} == set(errors.BOUNDS)


def test_every_bound_is_read_and_every_read_names_a_bound():
    reads = set()
    for path in (ROOT / "src" / "parthom").glob("*.py"):
        text = path.read_text(encoding="utf-8")
        reads.update(re.findall(r"""(?:refuse_past\(|BOUNDS\[)\s*["'](\w+)["']""", text))
    assert reads == set(errors.BOUNDS)


@pytest.mark.parametrize("bound", sorted(REFUSALS))
def test_refusal_exits_2_with_one_error_line(capsys, bound):
    command, message = REFUSALS[bound]
    code = main([*command.split(), "--no-cache"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("family, n, degree", [("lie", 30, 30), ("whitehouse", 17, 17),
                                               ("hook", 17, 17), ("reven", 9, 18)])
def test_sf_refused_before_any_symmetric_function(capsys, monkeypatch, family, n, degree):
    built = []
    real = SymFunc.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        real(self, *args, **kwargs)

    monkeypatch.setattr(SymFunc, "__init__", counted)
    k = ["--k", "3"] if family in ("whitehouse", "hook") else []
    code = main(["sf", "--family", family, "--n", str(n), *k, "--no-cache"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: degree {degree} exceeds supported bound 16\n"
    assert built == []


@pytest.mark.parametrize("command, n", [
    ("homology --n 11 --poset bogus", 11),
    ("homology --n 1 --poset qnk:k=9", 1),
    ("report --family qnk --n 12 --k 30", 12),
    ("report --family ne --n 0 --k 3", 0),
])
def test_ground_refusal_comes_before_the_view_parameters(capsys, command, n):
    # the ground size is checked before the spec or k is read
    code = main([*command.split(), "--no-cache"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: ground set size {n} outside supported range 2..10\n"


def test_sf_at_the_degree_bound_runs(capsys):
    assert main(["sf", "--family", "lie", "--n", "16", "--basis", "p", "--no-cache"]) == 0
    assert capsys.readouterr().out


def test_method_suite_capped_at_its_bound(capsys, monkeypatch):
    monkeypatch.setitem(errors.BOUNDS, "method_suite", 4)
    code = main(["check", "--suite", "method", "--max-n", "5", "--format", "json",
                 "--no-cache"])
    data = json.loads(capsys.readouterr().out)
    # alpha and beta for each of the 2 + 4 rank sets of n = 3, 4
    assert code == 0 and data["checked"] == 12
    assert data["notes"] == ["chain path capped at n = 4"]


def test_readme_size_bounds_table_matches_bounds():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Size bounds"):]
    section = section[:section.index("\n## ", 1)]
    rows = re.findall(r"^\| `(\w+)` \| ([\d,]+) \|", section, re.MULTILINE)
    assert {name: int(value.replace(",", "")) for name, value in rows} == errors.BOUNDS
    assert len(rows) == len(errors.BOUNDS)
