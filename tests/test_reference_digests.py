"""The benchmark's recorded outputs as a byte-identity guard: every cold
command in ``bench/reference.json``, run in process without the cache, must
print stdout whose sha256 is the recorded digest.  The ``(cache hit)``
entries describe a cache hit, which ``--no-cache`` never makes."""

import hashlib
import json
from pathlib import Path

import pytest

from parthom.cli import main

REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference.json"
COLD = {
    command: digest
    for command, digest in json.loads(REFERENCE.read_text(encoding="utf-8")).items()
    if not command.endswith(" (cache hit)")
}


def test_reference_has_cold_commands():
    assert len(COLD) >= 20


@pytest.mark.parametrize("command", sorted(COLD))
def test_stdout_matches_recorded_digest(command, capsys):
    code = main([*command.split(), "--no-cache"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == COLD[command]
