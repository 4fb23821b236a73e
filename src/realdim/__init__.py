"""Realizable dimension of one-dimensionally periodic graphs.

Quotients of graphs with a free Z-symmetry are modelled as integer-
labelled multigraphs.  The package decides whether every periodic
realization admits an equivalent one on a line or in the plane (with
certificates that replay either way), tests labelled minors exhaustively
on small graphs, and provides the numeric layer for periodic frameworks:
rigidity matrices, equilibrium stresses and their signatures, the conic
condition, affine flattening, and super-stability verification.

The numeric layer (``realdim.frameworks``, and with it numpy) loads on
first use of one of its names, so a process that only decides graphs or
checks certificates never imports numpy.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .certificates import (
    CertificateError,
    DecompositionTree,
    RealizabilityVerdict,
    verify_decomposition,
)
from .errors import (
    BoundExceededError,
    DegenerateLatticeError,
    DocumentError,
    RealdimError,
    SimplicityError,
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

# The numeric layer needs numpy, which the graph deciders never use: these
# names load realdim.frameworks on first use (PEP 562).  Nothing is cached
# here, so each lookup sees the module's current attribute, patched or not.
_FRAMEWORK_NAMES = (
    "ConicResult",
    "QuotientFramework",
    "SpanCheck",
    "StressSignature",
    "StressVector",
    "SuperStabilityReport",
    "affine_dimension",
    "conic_condition",
    "construct_psd_stress",
    "flatten",
    "incidence_matrix",
    "is_equilibrium_stress",
    "restrict_to_affine_span",
    "rigidity_matrix",
    "signature",
    "span_check",
    "stress_kernel",
    "stress_matrix",
    "verify_super_stable",
)


def __getattr__(name):
    if name in _FRAMEWORK_NAMES:
        from . import frameworks

        return getattr(frameworks, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = sorted(
    [name for name, value in globals().items()
     if not name.startswith("_") and not isinstance(value, _ModuleType)]
    + list(_FRAMEWORK_NAMES)
)

