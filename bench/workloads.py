"""The benchmark's workloads: lists of ``parthom`` CLI invocations.

Every invocation runs in a fresh interpreter, so in-process memos start
cold, as they do for a CLI user.  A cold workload gives each pass a fresh,
empty ``--cache-dir`` (the cache's miss-and-store path); ``warm`` replays its
commands against a cache that set-up filled (the load path).

Each workload has three kinds of command:

* fixed commands, whose stdout is checked against the sha256 digest in
  ``reference.json`` (recorded cold, at the commit that added the benchmark);
* seeded commands, whose rank sets are drawn from ``--seed`` (all of one
  size) and whose stdout is checked, outside the timed region, against the
  same command computed by a second method;
* one refusal probe, which the README promises is refused quickly: it must
  exit 2 with empty stdout.

A command marked ``hit_defect`` shows the known defect described in
``run.py``: on a cache hit it prints its columns or keys in another order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations


@dataclass(frozen=True)
class Command:
    args: tuple[str, ...]
    kind: str  # "fixed" | "seeded" | "probe"
    #: for seeded commands: the same request by a second, independent method,
    #: which must print the same bytes
    check_args: tuple[str, ...] = ()
    #: a cache hit prints the fields in another order than a miss
    hit_defect: bool = False

    @property
    def key(self) -> str:
        return " ".join(self.args)


@dataclass(frozen=True)
class Seeded:
    """``count`` distinct rank sets of ``size`` ranks from [1, n-2], each
    containing the ranks in ``contains``."""

    template: str  # with {ranks} for the drawn rank set
    check_template: str  # the same request by a second method
    n: int
    size: int
    count: int
    contains: tuple[int, ...] = ()

    def draw(self, rng: random.Random) -> list[tuple[str, str]]:
        pool = [S for S in combinations(range(1, self.n - 1), self.size)
                if set(self.contains) <= set(S)]
        picks = rng.sample(pool, self.count)
        out = []
        for ranks in picks:
            text = ",".join(map(str, ranks))
            out.append((self.template.format(ranks=text), self.check_template.format(ranks=text)))
        return out


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    fixed: tuple[str, ...]
    seeded: Seeded | None
    probe: str
    warm: bool = False
    #: (command, format) pairs that show the known defect on a cache hit;
    #: the command is a fixed command's text or ``SEEDED`` for the seeded ones
    hit_defects: tuple[tuple[str, str], ...] = ()

    def commands(self, seed: int) -> list[Command]:
        """The pass's invocations, in order; warm runs each in every format."""
        formats = ("json", "tsv", "pretty") if self.warm else ("",)
        rng = random.Random(f"{self.name}:{seed}")
        pairs = [(text, None) for text in self.fixed]
        if self.seeded:
            pairs += self.seeded.draw(rng)
        out = []
        for text, check in pairs:
            for fmt in formats:
                suffix = f" --format {fmt}" if fmt else ""
                out.append(Command(
                    tuple((text + suffix).split()),
                    "fixed" if check is None else "seeded",
                    tuple((check + suffix).split()) if check else (),
                    (text if check is None else SEEDED, fmt) in self.hit_defects,
                ))
        out.append(Command(tuple(self.probe.split()), "probe"))
        return out


SEEDED = "seeded"

WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="homology",
            why="Smith normal form and the order complex with its d^2=0 check do "
                "about 90% of the work; symmetric functions almost none.",
            fixed=(
                "homology --n 6 --poset full",
                "homology --n 7 --poset ranks:1,3,5",
                "homology --n 7 --poset ranks:2,4",
                "report --family qnk --n 6 --k 3",
                "report --family pnk --n 6 --k 3",
            ),
            seeded=None,
            probe="homology --n 11 --poset full",
        ),
        Workload(
            name="recurrence",
            why="Plethysm in the alpha/beta recurrences, multiplicity pairing and "
                "Schur conversion do all the work; posets, topology and SNF are never touched.",
            fixed=(
                "table --family bS --n 9",
                "table --family bS --n 8 --jobs 2",
                "report --family stability --ranks 2,3 --k 1 --max-n 11",
            ),
            # the lowest rank sets the cost of the recurrence (rank 1 means a
            # degree-11 plethysm); fixing it keeps every seed's pass time alike
            seeded=Seeded("beta --n 12 --ranks {ranks} --mult trivial,refl",
                          "beta --n 12 --ranks {ranks} --mult trivial,refl "
                          "--method inclusion_exclusion",
                          n=12, size=3, count=2, contains=(1,)),
            probe="beta --n 17 --ranks 1",
        ),
        Workload(
            name="chains",
            why="Set-partition refinement tests, relabeling and the fixed-chain "
                "dynamic program do about 90% of the work; SNF none.",
            fixed=(
                "alpha --n 8 --ranks 1-6 --method chains",
                "check --suite method --max-n 6",
            ),
            seeded=Seeded("beta --n 7 --ranks {ranks} --method chains",
                          "beta --n 7 --ranks {ranks}",
                          n=7, size=2, count=2),
            probe="alpha --n 9 --ranks 1-7 --method chains",
        ),
        Workload(
            name="warm",
            why="Cheap commands replayed in three formats against a filled cache, "
                "so cache loads, rendering and interpreter start-up dominate.",
            fixed=(
                "homology --n 7 --poset ranks:2,4",
                "report --family pnk --n 6 --k 3",
                "table --family bS --n 8",
                "sf --family whitehouse --n 7 --k 3 --basis s",
            ),
            seeded=Seeded("beta --n 12 --ranks {ranks} --mult trivial,refl",
                          "beta --n 12 --ranks {ranks} --mult trivial,refl "
                          "--method inclusion_exclusion",
                          n=12, size=3, count=1, contains=(1,)),
            probe="sf --family hook --n 15 --k 2 --basis s",
            warm=True,
            hit_defects=(("table --family bS --n 8", "tsv"),
                         (SEEDED, "tsv"), (SEEDED, "pretty")),
        ),
    )
}
