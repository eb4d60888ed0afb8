"""parthom: exact homology representations of set-partition lattices.

The package re-exports nothing and importing it loads none of its modules;
import the module you need, e.g. ``from parthom.reps import class_values``.
The modules by concern:

* :mod:`parthom.symfunc` -- exact symmetric function arithmetic (five bases,
  plethysm, inner products, positivity certificates).
* :mod:`parthom.poset` -- the refinement lattice of set partitions and its
  rank-selected, block-size-restricted and modular-deleted subposets.
* :mod:`parthom.topology` -- order complexes, integer homology by
  boundary-column reduction with clearing, Moebius numbers, Lefschetz
  class functions.
* :mod:`parthom.reps` -- chain and homology module characteristics, the
  plethystic recurrences, Euler/simsun numbers and relatives.
* :mod:`parthom.checks` -- stability reports and conjecture checkers.
* :mod:`parthom.cli` -- the command-line front end.
"""
