"""Price parent components per sensor and solve the placement assignment.

Two sensors, two parent components. Sensor 1 is cheap on the first
component, sensor 2 cheap on the second, and one pair is forbidden
outright. The assignment solver finds the cheapest bijection; a second,
over-constrained variant shows the infeasibility certificate.
"""

import numpy as np

from obsnet import (
    InfeasibleError,
    ProblemInstance,
    StructuredMatrix,
    WeightedDigraph,
    brute_force_assignment,
    build_parent_cost_matrix,
    hungarian_solve,
    recover_measurement_structure,
    scc_decompose,
    solve_lsap,
)


def main() -> None:
    # two decoupled 2-cycles -> two parent components {x1,x2} and {x3,x4}
    pattern = StructuredMatrix(4, 4, frozenset({(0, 1), (1, 0), (2, 3), (3, 2)}))
    sensing_cost = {
        (0, 0): 1.0, (0, 1): 4.0, (0, 2): 9.0, (0, 3): 7.0,
        (1, 0): 6.0, (1, 2): 2.0, (1, 3): 3.0,   # sensor 2 cannot see x2
    }
    instance = ProblemInstance(
        n=4,
        m=2,
        system_pattern=pattern,
        sensing_cost=sensing_cost,
        network=WeightedDigraph(2, {(0, 1): 1.0, (1, 0): 1.0}),
    )

    # the SCC pass reads the system pattern itself as the state digraph
    partition = scc_decompose(pattern)
    matrix = build_parent_cost_matrix(instance, partition)
    print("parent cost matrix (rows = sensors, cols = parent components):")
    print(matrix.cost)

    assignment = hungarian_solve(matrix)
    oracle = brute_force_assignment(matrix)
    print("assignment:", assignment.assignment, "total", assignment.total_cost)
    print("oracle agrees:", oracle.total_cost == assignment.total_cost)
    h = recover_measurement_structure(assignment, instance.n)
    for (i, j) in h.sorted_pairs():
        print(f"  sensor {i + 1} measures x{j + 1} at cost {sensing_cost[(i, j)]}")

    # both sensors restricted to the same component: no bijection exists
    blocked = np.array([[1.0, np.inf], [6.0, np.inf]])
    try:
        solve_lsap(blocked)
    except InfeasibleError as exc:
        print("over-constrained variant:", exc)


if __name__ == "__main__":
    main()
