"""Self-test of the benchmark's tracing: run from the checkout root with
``PYTHONPATH=src python -m pytest bench``.

Two traced runs of the same commands must give identical counts, tracing
must not change a byte of stdout, and every count checked must be nonzero,
so the test cannot pass by checking nothing.
"""

from __future__ import annotations

import os

from layers import DETERMINISTIC_COUNTS, layer_metrics
from run import Runner

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# small inputs that together reach every layer; the last repeats the first
# against the same cache, so the cache is hit once
COMMANDS = [
    "homology --n 5 --poset full",
    "report --family qnk --n 5 --k 3",
    "beta --n 6 --ranks 1,3 --method chains",
    "beta --n 8 --ranks 2,5 --mult trivial,refl --format tsv",
    "report --family stability --ranks 2 --k 1 --max-n 7",
    "homology --n 5 --poset full",
]


def _run(runner: Runner, label: str | None) -> tuple[list[bytes], dict]:
    """Stdout of each command and, when traced under *label*, the layer metrics."""
    cache_dir = runner.fresh_dir("cache")
    outputs, spans = [], []
    for i, text in enumerate(COMMANDS):
        tag = None if label is None else f"{label}-{i}"
        outcome = runner.parthom([*text.split(), "--cache-dir", cache_dir], tag)
        assert outcome.code == 0, text
        outputs.append(outcome.stdout)
        if tag is not None:
            spans.append(runner.spans(tag))
    return outputs, layer_metrics(spans) if label else {}


def test_traced_counts_repeat_and_stdout_is_unchanged():
    runner = Runner(REPO_ROOT, "selftest")
    try:
        plain, _ = _run(runner, None)
        first_out, first = _run(runner, "first")
        second_out, second = _run(runner, "second")
    finally:
        runner.close()
    assert first_out == plain
    assert second_out == plain
    counts = {name: first[name] for name in DETERMINISTIC_COUNTS}
    assert counts == {name: second[name] for name in DETERMINISTIC_COUNTS}
    assert all(counts.values()), counts
    assert first["cache.hits"] == 1
