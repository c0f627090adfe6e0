"""klcat: exact Coxeter / Hecke / Kazhdan-Lusztig engine.

Builds Coxeter group tables from an arbitrary Coxeter matrix, computes the
Kazhdan-Lusztig basis and polynomials by the defining algorithm, shadows
light-leaf trees to produce graded cell characters, and verifies that the
branching of cell and simple module classes mechanically re-derives the
one-step KL recursion, bit-exactly.
"""

from .laurent import LaurentPoly, ONE, V, V_INV, ZERO, v_power
from .coxeter import (
    CoxeterMatrix,
    GroupTable,
    IncompleteTableError,
    bruhat_interval,
    build_group,
    descents,
    evaluate_word,
    is_reduced,
    mult_gen,
    parse_word,
    preset_matrix,
    word_name,
)
from .hecke import bar_involution, bott_samelson_class, left_mul_kl
from .kl import (
    KLTable,
    classical_recursion_column,
    compute_kl,
    recursion_column,
    to_classical,
)
from .leaves import character_map, leaf_step
from .cells import CellDatum, build_cell_datum, decomposition_sides, verify_decomposition_identity
from .branch import branching_sides, derive_kl_recursion, res_cell_class, restriction_counts
from .verify import run_suite

from .kl import TOOL_VERSION as __version__
