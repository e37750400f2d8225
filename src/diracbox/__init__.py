"""Spectral laboratory for the Dirac operator on rectangles.

Computes the lowest positive eigenvalue of the two-dimensional Dirac
operator with infinite-mass boundary conditions on rectangles through a
conforming discretisation of the squared-operator quadratic form, checks
the closed-form two-sided bounds and rotation-symmetry identities, and
probes square-minimality along the fixed-area and fixed-perimeter families
with a non-convex alternating minimisation.
"""

from .bounds import (
    BoundsReport,
    bounds_report,
    bracket,
    corollary_conditions,
    sharp_lower,
    thm_lower,
    thm_upper,
)
from .dirac1d import Root1D, lambda1_1d, nu1, nu1_lower
from .eigsolve import (
    EigenResult,
    RefineStudy,
    lambda1_2d,
    refine_study,
    smallest_eigenpair,
)
from .errors import (
    ClusterResolutionError,
    ConsistencyError,
    DegenerateRatioError,
    SolverError,
)
from .formgrid import (
    ConstraintMap,
    FormMatrices,
    FormMatrices1D,
    Grid,
    SpinorField,
    assemble,
    assemble_1d,
    build_grid,
    constraint_map,
    quotient,
    random_field,
    reconstruct,
    trial_dirichlet,
    weighted,
    weighted_quotient,
)
from .jopt import (
    ConjectureEvidence,
    JMinimizerState,
    euler_solve,
    fixed_point_minimize,
    j_value,
    probe_conjecture_symmetry,
    verify_theorem_idea_chain,
)
from .symmetry import (
    RotationMap,
    SymmetryClass,
    classify_symmetry,
    commutation_check,
    ground_cluster,
    rotate,
    rotation_deviation,
    rotation_map,
    separability_residual,
    symmetrize,
    verify_norm_identities,
)

__version__ = "0.1.0"
