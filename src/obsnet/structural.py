"""Strongly connected components and structural observability tests.

The state digraph is the system pattern itself, nonzero (i, j) being the
arc j -> i. Its strongly connected components with no outgoing arcs in the
condensation are the sinks, called parent components here. For a
structurally full-rank system pattern, structural observability holds
exactly when every parent component contains at least one measured state,
and the distributed variant additionally needs one sensor per parent
component with a strongly connected sensor network. One Tarjan search
answers both: it finds the components, and a network is strongly
connected when it has at most one.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable

from .errors import ScopeError, ShapeError, ValidationError
from .graphs import (
    ProblemInstance,
    StructuredMatrix,
    check_design_shape,
    one_state_per_sensor,
)

__all__ = [
    "SccPartition",
    "scc_decompose",
    "arcs_strongly_connected",
    "max_bipartite_matching",
    "is_structurally_full_rank",
    "check_structural_observability",
    "check_distributed_observability_structural",
]

PARENT = "parent"
CHILD = "child"


@dataclass(frozen=True)
class SccPartition:
    """Disjoint strongly connected components plus their condensation.

    Components are sorted by smallest member node. ``kinds[k]`` is
    ``"parent"`` when component k has no outgoing condensation edge,
    ``"child"`` otherwise. ``condensation`` holds edges between component
    indices and is acyclic by construction.
    """

    components: tuple[tuple[int, ...], ...]
    kinds: tuple[str, ...]
    condensation: frozenset[tuple[int, int]]

    def parent_components(self) -> list[tuple[int, ...]]:
        return [c for c, kind in zip(self.components, self.kinds) if kind == PARENT]

    def to_json_dict(self) -> dict:
        return {
            "components": [
                {"nodes": [v + 1 for v in comp], "kind": kind}
                for comp, kind in zip(self.components, self.kinds)
            ],
            "num_parents": sum(1 for kind in self.kinds if kind == PARENT),
        }


def _row_lists(pattern: StructuredMatrix) -> list[list[int]]:
    """The columns of each row's nonzeros, ascending."""
    rows: list[list[int]] = [[] for _ in range(pattern.rows)]
    for (i, j) in pattern.sorted_pairs():
        rows[i].append(j)
    return rows


def _tarjan_components(adj: list[list[int]]) -> list[list[int]]:
    """Tarjan's SCC algorithm with an explicit stack (no recursion limit)."""
    n = len(adj)
    index = [-1] * n  # -1: unvisited
    lowlink = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    next_index = 0
    components: list[list[int]] = []

    for start in range(n):
        if index[start] >= 0:
            continue
        work = [(start, iter(adj[start]))]  # the DFS path, each node's arcs left
        index[start] = lowlink[start] = next_index
        next_index += 1
        stack.append(start)
        on_stack[start] = True
        while work:
            v, arcs = work[-1]
            for w in arcs:
                if index[w] < 0:
                    index[w] = lowlink[w] = next_index
                    next_index += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(adj[w])))
                    break
                if on_stack[w] and index[w] < lowlink[v]:
                    lowlink[v] = index[w]
            else:  # every arc of v is done
                work.pop()
                if lowlink[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp.append(w)
                        if w == v:
                            break
                    components.append(comp)
                if work and lowlink[v] < lowlink[work[-1][0]]:
                    lowlink[work[-1][0]] = lowlink[v]
    return components


def scc_decompose(pattern: StructuredMatrix) -> SccPartition:
    """SCCs of a square pattern's state digraph, each labelled parent or child.

    Nonzero (i, j) is the arc j -> i (state j drives state i). Tarjan walks
    the rows, i.e. the reversed digraph, which has the same components. The
    condensation holds (component of j, component of i) for each nonzero
    across components; a parent is a component no condensation arc leaves.
    """
    if not pattern.is_square:
        raise ShapeError(
            f"state digraph needs a square pattern, got {pattern.rows}x{pattern.cols}"
        )
    raw = _tarjan_components(_row_lists(pattern))
    components = tuple(tuple(sorted(c)) for c in sorted(raw, key=min))
    component_of = [0] * pattern.rows
    for k, comp in enumerate(components):
        for v in comp:
            component_of[v] = k
    condensation = set()
    for (i, j) in pattern.nonzeros:
        if component_of[i] != component_of[j]:
            condensation.add((component_of[j], component_of[i]))
    has_out = {cu for (cu, _) in condensation}
    kinds = tuple(CHILD if k in has_out else PARENT for k in range(len(components)))
    return SccPartition(
        components=components,
        kinds=kinds,
        condensation=frozenset(condensation),
    )


def arcs_strongly_connected(node_count: int, arcs: Iterable[tuple[int, int]]) -> bool:
    """True iff the arcs leave nodes 0..node_count-1 in at most one SCC, as
    counted by the Tarjan search ``scc_decompose`` runs. This is the
    strong-connectivity test of the whole package, the solvers' included."""
    adj: list[list[int]] = [[] for _ in range(node_count)]
    for (u, v) in arcs:
        adj[u].append(v)
    return len(_tarjan_components(adj)) <= 1


def max_bipartite_matching(adjacency: list[list[int]], n_right: int) -> dict[int, int]:
    """Hopcroft-Karp maximum matching; returns {left: right} pairs.

    ``adjacency[u]`` lists the right-side vertices reachable from left
    vertex u.
    """
    n_left = len(adjacency)
    INF = float("inf")
    match_left: list[int] = [-1] * n_left
    match_right: list[int] = [-1] * n_right
    dist = [0.0] * n_left

    def bfs() -> bool:
        queue = deque()
        for u in range(n_left):
            if match_left[u] == -1:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = INF
        found = INF
        while queue:
            u = queue.popleft()
            if dist[u] >= found:
                continue
            for v in adjacency[u]:
                w = match_right[v]
                if w == -1:
                    found = dist[u] + 1
                elif dist[w] == INF:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return found != INF

    def dfs(u: int) -> bool:
        for v in adjacency[u]:
            w = match_right[v]
            if w == -1 or (dist[w] == dist[u] + 1 and dfs(w)):
                match_left[u] = v
                match_right[v] = u
                return True
        dist[u] = INF
        return False

    while bfs():
        for u in range(n_left):
            if match_left[u] == -1:
                dfs(u)
    return {u: match_left[u] for u in range(n_left) if match_left[u] != -1}


def is_structurally_full_rank(pattern: StructuredMatrix) -> bool:
    """True iff the pattern admits a permutation of all-nonzero entries.

    Equivalent to the state digraph having a family of disjoint cycles that
    covers every node. Tested as a perfect matching between rows and columns
    on the bipartite graph of nonzero positions.
    """
    if not pattern.is_square:
        raise ShapeError(
            f"structural rank test needs a square pattern,"
            f" got {pattern.rows}x{pattern.cols}"
        )
    return len(max_bipartite_matching(_row_lists(pattern), pattern.cols)) == pattern.rows


def _parent_test(
    a_pattern: StructuredMatrix, h_pattern: StructuredMatrix
) -> tuple[bool, SccPartition]:
    """Whether every parent component holds a measured state, and the SCC
    partition of the state digraph that the answer was read from."""
    if not is_structurally_full_rank(a_pattern):
        raise ScopeError(
            "system pattern is not structurally full rank; the parent-component"
            " test applies to structurally full-rank systems only"
        )
    if h_pattern.cols != a_pattern.cols:
        raise ShapeError(
            f"measurement pattern has {h_pattern.cols} columns,"
            f" expected {a_pattern.cols}"
        )
    measured = {j for (_, j) in h_pattern.nonzeros}
    partition = scc_decompose(a_pattern)
    observable = all(
        any(v in measured for v in comp) for comp in partition.parent_components()
    )
    return observable, partition


def check_structural_observability(
    a_pattern: StructuredMatrix, h_pattern: StructuredMatrix
) -> bool:
    """Structural observability test for structurally full-rank systems.

    True iff every parent component of the state digraph contains at least
    one measured state (a state whose column in the measurement pattern has
    a nonzero). Rejects patterns that are not structurally full rank, where
    this criterion is no longer equivalent to observability.
    """
    return _parent_test(a_pattern, h_pattern)[0]


def check_distributed_observability_structural(
    instance: ProblemInstance,
    h_pattern: StructuredMatrix,
    w_pattern: StructuredMatrix,
) -> bool:
    """Structural gate for a complete design.

    Requires the chosen links to come from the candidate network, every
    sensor to take exactly one measurement, the sensor-to-parent-component
    map to be a bijection, and the chosen link digraph to be strongly
    connected. Diagonal entries of the link pattern are not allowed; each
    sensor always has access to its own prediction.
    """
    check_design_shape(h_pattern, w_pattern, instance.m, instance.n)
    for (i, j) in w_pattern.nonzeros:
        if (i, j) not in instance.network.arcs:
            raise ValidationError(
                f"design uses link {i + 1} -> {j + 1} which is not in the"
                f" candidate network"
            )
    observable, partition = _parent_test(instance.system_pattern, h_pattern)
    # m sensors with one state each that reach all m parents cover them one
    # to one, so no state sits in a child and no parent is measured twice
    return (
        observable
        and one_state_per_sensor(h_pattern)
        and partition.kinds.count(PARENT) == instance.m
        and arcs_strongly_connected(instance.m, w_pattern.nonzeros)
    )
