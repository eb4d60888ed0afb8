"""parthom: exact homology representations of set-partition lattices.

The package re-exports nothing and importing it loads none of its modules;
import the module you need, e.g. ``from parthom.reps import class_values``.
The modules by concern:

* :mod:`parthom.symfunc` -- exact symmetric function arithmetic on powersum
  terms (plethysm, inner products, read-out in five bases, a positivity check).
* :mod:`parthom.poset` -- the refinement lattice of set partitions and its
  rank-selected, block-size-restricted and modular-deleted subposets.
* :mod:`parthom.topology` -- order complexes, integer homology by
  boundary-column reduction with clearing, Moebius numbers, Lefschetz
  class values.
* :mod:`parthom.reps` -- chain and homology modules as integer class
  values and their characteristics, the plethystic recurrences,
  Euler/simsun numbers and relatives.
* :mod:`parthom.checks` -- stability and subposet reports and
  conjecture checkers, each recording its assertions in one ``Verdict``.
* :mod:`parthom.cli` -- the command-line front end.
"""
