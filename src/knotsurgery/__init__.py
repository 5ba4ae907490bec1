"""Dimension computations for Dehn surgeries on knot models.

Library layout:

- ``linalg``: exact rational maps on graded spaces, and their ranks in
  integers: one fraction-free eliminator, dim H per block and the rank of
  an induced map from its mapping cone.
- ``knotcx``: finite knot models (two anticommuting differentials), thin
  synthesis from an Alexander polynomial and tau, validation, mirrors, and
  the decomposition of a valid model into a staircase and squares.
- ``catalog``: built-in small-knot models by name.
- ``cone``: nonzero-slope dimensions and the zero-surgery table from the
  decomposition; the level table of each model's bent complexes, read
  off integer ranks, for the mapping-cone oracles (integral, rational);
  ladders and the minimal-dimension scan.
- ``borromean``: exterior-algebra pathway for circle bundles over surfaces
  and Seifert fibered spaces with nonzero orbifold degree.
- ``formulas``: closed-form dimensions (thin knots, Whitehead doubles,
  splices) and classifiers.
- ``crosscheck``: agreement suites tying the pathways together.
"""

from .borromean import (
    SeifertResult,
    circle_bundle_dim_formula,
    circle_bundle_dim_module,
    seifert,
    seifert_dim,
)
from .catalog import get_knot, knot_names
from .cone import (
    ConeProblem,
    PreconditionError,
    ScanResult,
    SurgeryResult,
    almost_lspace_scan,
    bent_homology,
    genus_one_positive_ladder,
    pi_maps,
    surgery_dim,
    zero_surgery_dims,
)
from .formulas import (
    SutureDimProfile,
    WhDoubleSpec,
    almost_lspace_necessary_conditions,
    nearly_fibered_classify,
    splice_dim,
    thin_surgery_formula,
    whitehead_double_pm1,
)
from .knotcx import (
    KnotComplex,
    ModelError,
    SquareSpec,
    StaircaseSpec,
    build_square,
    build_staircase,
    decompose,
    mirror,
    parse_knot_spec,
    thin_from_alexander,
    validate,
)
from .linalg import (
    GradedSpace,
    LinearAlgebraError,
    SparseExactMap,
    homology,
    induced_map_on_homology,
)

__version__ = "0.1.0"
