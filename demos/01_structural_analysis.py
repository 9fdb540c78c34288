"""Walk through the structural analysis layer on a small hand-built system.

Six states: a 3-cycle feeding a 2-cycle, plus one self-loop state. The
3-cycle drains into the 2-cycle, so only the 2-cycle and the self-loop are
parent components and any observable measurement set must touch both.
The pattern is the state digraph: ``scc_decompose`` reads it directly.
"""

from obsnet import (
    StructuredMatrix,
    check_structural_observability,
    is_structurally_full_rank,
    scc_decompose,
)


def main() -> None:
    # pattern entry (i, j) means state j drives state i: the arc x_j -> x_i
    nonzeros = {
        (1, 0), (2, 1), (0, 2),   # states 0,1,2 form a cycle
        (4, 3), (3, 4),           # states 3,4 form a cycle
        (3, 0),                   # the 3-cycle drains into the 2-cycle
        (5, 5),                   # state 5 is a self-loop
    }
    pattern = StructuredMatrix(6, 6, frozenset(nonzeros))

    print("structurally full rank:", is_structurally_full_rank(pattern))

    partition = scc_decompose(pattern)
    for comp, kind in zip(partition.components, partition.kinds):
        states = ", ".join(f"x{v + 1}" for v in comp)
        print(f"  component {{{states}}}: {kind}")
    print("condensation arcs:", sorted(partition.condensation))

    # measuring one state per parent component suffices
    good = StructuredMatrix(2, 6, frozenset({(0, 3), (1, 5)}))
    print("measure x4 and x6 ->", check_structural_observability(pattern, good))

    # measuring inside the child component leaves the self-loop invisible
    bad = StructuredMatrix(2, 6, frozenset({(0, 0), (1, 3)}))
    print("measure x1 and x4 ->", check_structural_observability(pattern, bad))


if __name__ == "__main__":
    main()
