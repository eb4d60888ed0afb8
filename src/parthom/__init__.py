"""parthom: exact homology representations of set-partition lattices.

Subpackages by concern:

* :mod:`parthom.symfunc` -- exact symmetric function arithmetic (five bases,
  plethysm, inner products, skewing, positivity certificates).
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

from .classfunc import ClassFunction
from .errors import ConcentrationError, FeasibilityError, ModuleCheckError
from .partitions import partitions_of
from .poset import (
    PosetView,
    fixed_chain_count,
    full_view,
    parse_view,
    rank_selected_view,
    stirling2,
)
from .reps import (
    chain_characteristic,
    euler_number,
    even_block_characteristic,
    even_block_multiplicity,
    homology_characteristic,
    lie_character,
    multiplicities,
    simsun,
    whitehouse_module,
)
from .setparts import SetPartition, act, canonical_permutation
from .symfunc import (
    SymFunc,
    elementary,
    homogeneous,
    hook_schur,
    monomial,
    plethysm,
    plethysm_with_h_sum,
    positivity,
    powersum,
    schur,
)
from .topology import (
    concentrated_character,
    homology,
    lefschetz_class_function,
    mobius_number,
    order_complex,
    view_homology,
)

__version__ = "0.1.0"
