"""End-to-end design: sensor placement plus communication topology.

The two halves of the objective separate: the sensing cost depends only on
which states are measured, the networking cost only on which links are
kept, and the constraints couple them only through feasibility. So the
pipeline solves an assignment problem for the measurements and a spanning
connectivity problem for the links, independently.
"""

from __future__ import annotations

from .errors import ScopeError
from .graphs import DesignResult, ProblemInstance, StructuredMatrix
from .network import (
    NetworkDesign,
    brute_force_msss,
    msss_2approx,
    msss_best_root,
    mst_solve,
)
from .sensing import (
    ParentCostMatrix,
    build_parent_cost_matrix,
    hungarian_solve,
    recover_measurement_structure,
)
from .structural import is_structurally_full_rank, scc_decompose

__all__ = ["design_instance"]


def parent_costs(instance: ProblemInstance) -> ParentCostMatrix:
    """The sensing half up to the assignment: the scope check, the SCC
    decomposition of the state digraph and the (sensor, parent) cost matrix."""
    if not is_structurally_full_rank(instance.system_pattern):
        raise ScopeError(
            "system pattern is not structurally full rank; the design"
            " pipeline covers structurally full-rank systems only"
        )
    partition = scc_decompose(instance.system_pattern)
    return build_parent_cost_matrix(instance, partition)


def solve_network(
    instance: ProblemInstance, root: int | None, exact: bool
) -> NetworkDesign:
    """The networking half: a 0-based ``root`` fixes the branching root,
    ``exact`` asks for the brute-force optimum of a directed network."""
    if instance.network_undirected:
        return mst_solve(instance.network)
    if exact:
        return brute_force_msss(instance.network)
    if root is not None:
        return msss_2approx(instance.network, root)
    return msss_best_root(instance.network)


def design_instance(
    instance: ProblemInstance,
    *,
    root: int | None = None,
    exact: bool = False,
) -> DesignResult:
    """Cheapest measurement placement and a cheap strongly connected topology.

    Measurements: decompose the state digraph, price each (sensor, parent
    component) pair at its cheapest measurable state, and solve the
    assignment exactly. Links: exact spanning tree when the network is
    undirected; otherwise the branching-union 2-approximation, over all
    roots by default or a fixed 0-based ``root``, or the exact brute force
    when ``exact`` is set (small networks only, guarded).
    """
    assignment = hungarian_solve(parent_costs(instance))
    h_pattern = recover_measurement_structure(assignment, instance.n)

    net = solve_network(instance, root, exact)
    w_pattern = StructuredMatrix(instance.m, instance.m, frozenset(net.selected_arcs))
    return DesignResult(
        measurement_pattern=h_pattern,
        network_pattern=w_pattern,
        sensing_cost=assignment.total_cost,
        networking_cost=net.total_cost,
        network_optimality=net.optimality,
    )
