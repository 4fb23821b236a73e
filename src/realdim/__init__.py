"""Realizable dimension of one-dimensionally periodic graphs.

Quotients of graphs with a free Z-symmetry are modelled as integer-
labelled multigraphs.  The package decides whether every periodic
realization admits an equivalent one on a line or in the plane (with
certificates that replay either way), tests labelled minors exhaustively
on small graphs, and provides the numeric layer for periodic frameworks:
rigidity matrices, equilibrium stresses and their signatures, the conic
condition, affine flattening, and super-stability verification.
"""

__version__ = "0.1.0"

from .certificates import (
    CertificateError,
    DecompositionTree,
    RealizabilityVerdict,
    covering_switch,
    verify_decomposition,
)
from .errors import (
    BoundExceededError,
    DegenerateLatticeError,
    DocumentError,
    RealdimError,
    SimplicityError,
)
from .frameworks import (
    ConicResult,
    QuotientFramework,
    SpanCheck,
    StressSignature,
    StressVector,
    SuperStabilityReport,
    affine_dimension,
    conic_condition,
    construct_psd_stress,
    flatten,
    incidence_matrix,
    indicator_vector,
    is_equilibrium_stress,
    restrict_to_affine_span,
    rigidity_matrix,
    signature,
    span_check,
    stress_kernel,
    stress_matrix,
    verify_super_stable,
)
from .graphs import (
    BalanceResult,
    GainEdge,
    GainGraph,
    SimpleGraph,
    WalkWitness,
)
from .minors import (
    MinorOp,
    MinorPattern,
    MinorWitness,
    balanced_complete_pattern,
    contains_forbidden,
    finite_has_minor,
    finite_rd_upper3,
    has_minor,
)
from .realizability import (
    RdBounds,
    is_1_realizable,
    is_2_realizable,
    realizable_dimension_bounds,
    realizable_dimension_complete_case,
)

__all__ = [name for name in dir() if not name.startswith("_")]
