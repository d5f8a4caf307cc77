"""Baxterisation from braided-tensor-category data.

Solve the linear conserved-current constraint for spectral-parameter
Boltzmann weights and verify the results (projector algebra, braid
relations, Yang-Baxter, commuting transfer matrices) at desk scale.
"""

from .baxterize import (AmplitudeSolution, ClassifyRow, TensorProductGraph,
                        amplitude_at, build_tp_graph, classify_pairs,
                        edge_ratio, solve_central)
from .catalog import (FAMILIES, build_family, build_lie_twist_data,
                      build_minimal_A, build_su2k, build_tambara_yamagami,
                      catalog_rows)
from .category import (CategoryData, FSymbolTable, FusionRules, ObjectLabel,
                       QuantumDims, TwistData, category_from_json,
                       category_to_json, check_f_identities, check_fusion_ring,
                       compute_quantum_dims, fusion_product, twist_edge_ratio,
                       twist_factor)
from .errors import AxiomError, CapabilityError, DomainError, PoleError
from .ratfunc import RationalFunction
from .report import CheckResult, VerificationReport
from .treerep import (FusionTreeBasis, LinearOp, braid_op, enumerate_trees,
                      projector_op, r_op, transfer_matrix)
from .verify import (loop_functional_check, loop_partition_enumeration,
                     loop_partition_transfer, verify_braid_limits,
                     verify_braid_relations, verify_commuting_transfer,
                     verify_current_vertex, verify_projector_algebra,
                     verify_ybe)

__version__ = "0.1.0"
