"""Cost-optimal sensor placement and communication topologies for
distributed state estimation of structurally full-rank systems.

The library splits into layers: ``graphs`` holds the data model and JSON
converters, ``structural`` the component decomposition and observability
gates, ``sensing`` the assignment solver for measurement placement,
``network`` the spanning-topology solvers, ``verification`` the numeric
observability trials, ``generate`` the instance sampler and ``design`` the
end-to-end pipeline. Everything is deterministic given explicit seeds.
"""

from .design import design_instance
from .errors import (
    GuardError,
    InfeasibleError,
    ObsnetError,
    ScopeError,
    ShapeError,
    ValidationError,
)
from .generate import generate_instance
from .graphs import (
    DesignResult,
    ProblemInstance,
    StructuredMatrix,
    WeightedDigraph,
    export_instance_dot,
    parse_design,
    parse_instance,
    serialize_design,
    serialize_instance,
)
from .network import (
    NetworkDesign,
    brute_force_msss,
    brute_force_mst,
    min_branching,
    msss_2approx,
    msss_best_root,
    mst_solve,
)
from .rng import derive_seed, rng_for
from .sensing import (
    ParentCostMatrix,
    SensorAssignment,
    brute_force_assignment,
    build_parent_cost_matrix,
    hungarian_solve,
    recover_measurement_structure,
    solve_lsap,
)
from .structural import (
    SccPartition,
    arcs_strongly_connected,
    check_distributed_observability_structural,
    check_structural_observability,
    is_structurally_full_rank,
    max_bipartite_matching,
    scc_decompose,
)
from .verification import (
    VerificationReport,
    kalman_rank_observable,
    make_row_stochastic,
    observability_trial,
    realize_numeric,
    verify_design_numeric,
)

__version__ = "0.1.0"

__all__ = [
    "DesignResult",
    "GuardError",
    "InfeasibleError",
    "NetworkDesign",
    "ObsnetError",
    "ParentCostMatrix",
    "ProblemInstance",
    "SccPartition",
    "ScopeError",
    "SensorAssignment",
    "ShapeError",
    "StructuredMatrix",
    "ValidationError",
    "VerificationReport",
    "WeightedDigraph",
    "arcs_strongly_connected",
    "brute_force_assignment",
    "brute_force_msss",
    "brute_force_mst",
    "build_parent_cost_matrix",
    "check_distributed_observability_structural",
    "check_structural_observability",
    "derive_seed",
    "design_instance",
    "export_instance_dot",
    "generate_instance",
    "hungarian_solve",
    "is_structurally_full_rank",
    "kalman_rank_observable",
    "make_row_stochastic",
    "max_bipartite_matching",
    "min_branching",
    "msss_2approx",
    "msss_best_root",
    "mst_solve",
    "observability_trial",
    "parse_design",
    "parse_instance",
    "realize_numeric",
    "recover_measurement_structure",
    "rng_for",
    "scc_decompose",
    "serialize_design",
    "serialize_instance",
    "solve_lsap",
    "verify_design_numeric",
]
