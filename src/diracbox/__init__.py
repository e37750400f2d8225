"""Spectral laboratory for the Dirac operator on rectangles.

Computes the lowest positive eigenvalue of the two-dimensional Dirac
operator with infinite-mass boundary conditions on rectangles through a
conforming discretisation of the squared-operator quadratic form, checks
the closed-form two-sided bounds and rotation-symmetry identities, and
probes square-minimality along the fixed-area and fixed-perimeter families
with a non-convex alternating minimisation.

Importing the package fixes two parameters of the C allocator for the whole
process when the C library is glibc (``_fix_malloc_thresholds``): the mmap
threshold at glibc's maximum, 32 MB on 64-bit systems, and the trim
threshold at 64 MB.  glibc's own thresholds start at 128 kB and rise only
after a large block is freed, which a solve never does, so each solve
handed its 0.1-0.5 MB numpy temporaries back to the system and faulted
them in again: about 6,800 minor page faults per four n = 128 solves and
12,400 per three-restart n = 64 ``jopt`` run, none once the thresholds are
fixed, and 13-15 % of their wall time, with the same peak memory.  Values
are unchanged bit for bit.  With another C library it does nothing.
"""

import ctypes
import os
import warnings

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
    ground_cluster,
    lambda1_2d,
    refine_study,
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
    Grid,
    SpinorField,
    assemble,
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
)
from .symmetry import (
    RotationMap,
    SymmetryClass,
    classify_symmetry,
    commutation_check,
    rotate,
    rotation_deviation,
    rotation_map,
    separability_residual,
    symmetrize,
    verify_norm_identities,
)

__version__ = "0.1.0"

# mallopt parameters, from glibc's malloc.h
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _fix_malloc_thresholds() -> None:
    """Fix glibc's mmap and trim thresholds; nothing with another C library.

    Setting either one ends glibc's dynamic adjustment of both, so both are
    set: blocks below the mmap threshold come from the heap, and freed heap
    memory goes back to the system only when more than the trim threshold
    of it sits at the top.  The mmap threshold is glibc's largest,
    ``DEFAULT_MMAP_THRESHOLD_MAX``, which any larger value would fail.
    """
    try:
        glibc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):   # no confstr or no name
        glibc = None
    if not glibc:
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    for param, value in ((_M_MMAP_THRESHOLD,
                          4 * 1024 * 1024 * ctypes.sizeof(ctypes.c_long)),
                         (_M_TRIM_THRESHOLD, 64 * 1024 * 1024)):
        if not mallopt(param, value):
            warnings.warn(f"mallopt({param}, {value}) failed; freed solve "
                          f"memory goes back to the system", RuntimeWarning,
                          stacklevel=2)


_fix_malloc_thresholds()
