"""Record ``reference.json``: the stdout sha256 of every fixed command, cold.

Run from the root of a checkout of the commit whose outputs are the
reference:  ``python3 bench/record_reference.py``.  Each command runs once
with a fresh, empty ``--cache-dir``, so warm replays are compared with the
bytes a cold run prints.  A ``hit_defect`` command then runs a second time
against the same cache, and the digest of that hit is recorded under its key
plus ``HIT_SUFFIX`` (the known defect described in ``run.py``).
"""

from __future__ import annotations

import json
import os
import sys

from run import BENCH_DIR, HIT_SUFFIX, Runner, digest
from workloads import WORKLOADS


def main() -> int:
    runner = Runner(os.getcwd(), "record")
    references = {}
    try:
        for workload in WORKLOADS.values():
            for cmd in workload.commands(seed=0):
                if cmd.kind != "fixed" or cmd.key in references:
                    continue
                argv = [*cmd.args, "--cache-dir", runner.fresh_dir("cache")]
                keys = [cmd.key, cmd.key + HIT_SUFFIX] if cmd.hit_defect else [cmd.key]
                for key in keys:
                    outcome = runner.parthom(argv)
                    if outcome.code != 0:
                        print(f"error: parthom {cmd.key} exited {outcome.code}", file=sys.stderr)
                        return 1
                    references[key] = digest(outcome.stdout)
                    print(f"{references[key]}  {key}")
    finally:
        runner.close()
    with open(os.path.join(BENCH_DIR, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(references, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
