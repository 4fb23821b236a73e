"""Realizable dimension of one-dimensionally periodic graphs.

Quotients of graphs with a free Z-symmetry are modelled as integer-
labelled multigraphs.  The package decides whether every periodic
realization admits an equivalent one on a line or in the plane (with
certificates that replay either way), tests labelled minors exhaustively
on small graphs, and provides the numeric layer for periodic frameworks:
rigidity matrices, equilibrium stresses and their signatures, the conic
condition, affine flattening, and super-stability verification.

``import realdim`` loads no submodule.  Each public name, and each
submodule, loads its home module on first use (PEP 562), so a process
compiles only the modules it runs: one that only decides graphs or checks
certificates never imports numpy, and one that only checks balance loads
neither the deciders nor the certificates.
"""

import importlib as _importlib
import sys as _sys

__version__ = "0.1.0"

# Each submodule and the public names it defines.  Nothing is cached here,
# so each lookup sees the module's current attribute, patched or not.
_EXPORTS = {
    "certificates": ("CertificateError", "DecompositionTree", "RealizabilityVerdict",
                     "verify_decomposition"),
    "cli": (),
    "documents": (),
    "errors": ("BoundExceededError", "DegenerateLatticeError", "DocumentError",
               "RealdimError", "SimplicityError"),
    "exactlinalg": (),
    "frameworks": ("ConicResult", "QuotientFramework", "SpanCheck", "StressSignature",
                   "StressVector", "SuperStabilityReport", "affine_dimension",
                   "conic_condition", "construct_psd_stress", "flatten", "incidence_matrix",
                   "is_equilibrium_stress", "restrict_to_affine_span", "rigidity_matrix",
                   "signature", "span_check", "stress_kernel", "stress_matrix",
                   "verify_super_stable"),
    "graphs": ("BalanceResult", "GainEdge", "GainGraph", "SimpleGraph", "WalkWitness"),
    "minors": ("MinorOp", "MinorPattern", "MinorWitness", "balanced_complete_pattern",
               "contains_forbidden", "finite_has_minor", "finite_rd_upper3", "has_minor"),
    "randgen": (),
    "realizability": ("RdBounds", "is_1_realizable", "is_2_realizable",
                      "realizable_dimension_bounds", "realizable_dimension_complete_case"),
}
_HOMES = {name: f"{__name__}.{module}" for module, names in _EXPORTS.items() for name in names}


def __getattr__(name):
    home = _HOMES.get(name)
    if home is not None:
        # sys.modules first: a caller that reads names through the package
        # on every call pays a dict lookup, not an import_module call.
        return getattr(_sys.modules.get(home) or _importlib.import_module(home), name)
    if name in _EXPORTS:  # a submodule; importing it binds it here
        return _importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = sorted(_HOMES)
