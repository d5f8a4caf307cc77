"""Baxterisation from braided-tensor-category data.

Solve the linear conserved-current constraint for spectral-parameter
Boltzmann weights and verify the results (projector algebra, braid
relations, Yang-Baxter, commuting transfer matrices) at desk scale.

The public names below load their submodule on first use, so `import
baxcat` stays cheap and numpy loads only with the first numeric read.
"""

import importlib

_EXPORTS = {
    "baxterize": ("AmplitudeSolution", "ClassifyRow", "TensorProductGraph", "amplitude_at",
                  "build_tp_graph", "classify_pairs", "edge_ratio", "solve_central"),
    "catalog": ("FAMILIES", "build_family", "build_lie_twist_data", "build_minimal_A",
                "build_su2k", "build_tambara_yamagami", "catalog_rows"),
    "category": ("CategoryData", "FSymbolTable", "FusionRules", "ObjectLabel", "QuantumDims",
                 "TwistData", "category_from_json", "category_to_json", "check_f_identities",
                 "check_fusion_ring", "compute_quantum_dims", "fusion_product",
                 "twist_edge_ratio", "twist_factor"),
    "errors": ("AxiomError", "CapabilityError", "DomainError", "PoleError"),
    "ratfunc": ("RationalFunction",),
    "report": ("CheckResult", "VerificationReport"),
    "treerep": ("FusionTreeBasis", "LinearOp", "braid_op", "enumerate_trees", "projector_op",
                "r_op", "transfer_matrix"),
    "verify": ("loop_functional_check", "loop_partition_enumeration", "loop_partition_transfer",
               "verify_braid_limits", "verify_braid_relations", "verify_commuting_transfer",
               "verify_current_vertex", "verify_projector_algebra", "verify_ybe"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))
