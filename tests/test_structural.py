import numpy as np
import pytest

from obsnet import (
    ProblemInstance,
    ScopeError,
    ShapeError,
    StructuredMatrix,
    ValidationError,
    WeightedDigraph,
    arcs_strongly_connected,
    check_distributed_observability_structural,
    check_structural_observability,
    is_structurally_full_rank,
    max_bipartite_matching,
    scc_decompose,
)
from oracles import components_by_reachability, has_spanning_cycle_family, influence_edges


def random_pattern(rng, n, density) -> StructuredMatrix:
    nz = {(i, j) for i in range(n) for j in range(n) if rng.random() < density}
    return StructuredMatrix(n, n, frozenset(nz))


def test_scc_known_graph():
    # two 2-cycles, one feeding the other: state 1 drives state 2, so {0,1}
    # drains into {2,3}
    pattern = StructuredMatrix(4, 4, frozenset({(1, 0), (0, 1), (3, 2), (2, 3), (2, 1)}))
    partition = scc_decompose(pattern)
    assert partition.components == ((0, 1), (2, 3))
    assert partition.kinds == ("child", "parent")
    assert partition.condensation == frozenset({(0, 1)})


def test_scc_singletons_and_self_loops():
    # a self-loop on state 0; state 1 drives state 2
    partition = scc_decompose(StructuredMatrix(3, 3, frozenset({(0, 0), (2, 1)})))
    assert partition.components == ((0,), (1,), (2,))
    assert partition.kinds == ("parent", "child", "parent")


def test_scc_decompose_reads_pattern_orientation():
    # entry (1, 0) means state 0 drives state 1: the arc 0 -> 1, so state 1's
    # component is the parent and the condensation arc runs 0 -> 1
    partition = scc_decompose(StructuredMatrix(2, 2, frozenset({(1, 0)})))
    assert partition.kinds == ("child", "parent")
    assert partition.condensation == frozenset({(0, 1)})
    with pytest.raises(ShapeError, match="state digraph needs a square pattern, got 2x3"):
        scc_decompose(StructuredMatrix(2, 3, frozenset()))


def test_scc_matches_reachability_oracle():
    rng = np.random.default_rng(3)
    for _ in range(150):
        n = int(rng.integers(1, 9))
        edges = {
            (int(u), int(v))
            for u in range(n)
            for v in range(n)
            if rng.random() < 0.25
        }
        partition = scc_decompose(StructuredMatrix(n, n, {(v, u) for (u, v) in edges}))
        comps, kinds = components_by_reachability(n, edges)
        assert list(partition.components) == comps
        assert list(partition.kinds) == kinds


def test_is_strongly_connected():
    assert arcs_strongly_connected(1, frozenset())
    assert arcs_strongly_connected(4, frozenset({(0, 1), (1, 2), (2, 3), (3, 0)}))
    assert not arcs_strongly_connected(4, frozenset({(0, 1), (1, 2), (2, 3)}))


def test_components_and_strong_connectivity_match_scipy():
    # scipy's strong components as the independent oracle, on 0 to 9 nodes
    # with isolated nodes, self-loops and repeated arcs
    sparse = pytest.importorskip("scipy.sparse")
    csgraph = pytest.importorskip("scipy.sparse.csgraph")
    rng = np.random.default_rng(17)
    for trial in range(300):
        n = trial % 10
        k = int(rng.integers(0, 3 * n + 1))
        arcs = [(int(u), int(v)) for u, v in rng.integers(0, max(n, 1), size=(k, 2))]
        graph = sparse.csr_matrix(
            (np.ones(k), ([u for u, _ in arcs], [v for _, v in arcs])), shape=(n, n)
        )
        count, label = csgraph.connected_components(graph, directed=True, connection="strong")
        assert arcs_strongly_connected(n, arcs) == (count <= 1)
        members = [tuple(np.flatnonzero(label == c).tolist()) for c in range(count)]
        leaving = {label[u] for (u, v) in arcs if label[u] != label[v]}
        expected = sorted(
            (comp, "child" if c in leaving else "parent") for c, comp in enumerate(members)
        )
        partition = scc_decompose(StructuredMatrix(n, n, {(v, u) for (u, v) in arcs}))
        assert list(zip(partition.components, partition.kinds)) == expected


def test_max_bipartite_matching_hand_cases():
    # two lefts fighting over one right: matching size 1
    assert len(max_bipartite_matching([[0], [0]], 1)) == 1
    # disjoint perfect matching
    match = max_bipartite_matching([[0], [1], [2]], 3)
    assert match == {0: 0, 1: 1, 2: 2}
    assert max_bipartite_matching([[], []], 2) == {}


def test_full_rank_matches_permutation_oracle():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        pattern = random_pattern(rng, n, float(rng.uniform(0.1, 0.6)))
        assert is_structurally_full_rank(pattern) == has_spanning_cycle_family(
            n, pattern.nonzeros
        )


def test_full_rank_examples():
    diag = StructuredMatrix(3, 3, frozenset({(0, 0), (1, 1), (2, 2)}))
    assert is_structurally_full_rank(diag)
    # a zero row can never be completed
    missing_row = StructuredMatrix(2, 2, frozenset({(0, 0), (0, 1)}))
    assert not is_structurally_full_rank(missing_row)


def test_structural_observability_needs_full_rank():
    pattern = StructuredMatrix(2, 2, frozenset({(0, 0), (0, 1)}))
    h = StructuredMatrix(1, 2, frozenset({(0, 0)}))
    with pytest.raises(ScopeError):
        check_structural_observability(pattern, h)


def test_structural_observability_parent_coverage():
    # 1 <-> 2 cycle plus isolated self-loop state 3: two parent components
    pattern = StructuredMatrix(
        3, 3, frozenset({(0, 1), (1, 0), (2, 2)})
    )
    measured_both = StructuredMatrix(2, 3, frozenset({(0, 0), (1, 2)}))
    assert check_structural_observability(pattern, measured_both)
    measured_one = StructuredMatrix(2, 3, frozenset({(0, 0), (1, 1)}))
    assert not check_structural_observability(pattern, measured_one)


def test_structural_observability_matches_oracle_parents():
    rng = np.random.default_rng(23)
    checked = 0
    while checked < 150:
        n = int(rng.integers(1, 7))
        pattern = random_pattern(rng, n, float(rng.uniform(0.2, 0.7)))
        if not has_spanning_cycle_family(n, pattern.nonzeros):
            continue
        checked += 1
        measured = {int(j) for j in range(n) if rng.random() < 0.5}
        h = StructuredMatrix(
            max(1, len(measured)),
            n,
            frozenset((k, j) for k, j in enumerate(sorted(measured))),
        )
        comps, kinds = components_by_reachability(
            n, influence_edges(pattern.nonzeros)
        )
        expect = all(
            any(v in measured for v in comp)
            for comp, kind in zip(comps, kinds)
            if kind == "parent"
        )
        assert check_structural_observability(pattern, h) == expect


def two_parent_instance(links) -> ProblemInstance:
    return ProblemInstance(
        n=2,
        m=2,
        system_pattern=StructuredMatrix(2, 2, frozenset({(0, 0), (1, 1)})),
        sensing_cost={(0, 0): 1.0, (1, 1): 1.0, (0, 1): 5.0, (1, 0): 5.0},
        network=WeightedDigraph(2, links),
    )


def test_distributed_gate_accepts_good_design():
    instance = two_parent_instance({(0, 1): 1.0, (1, 0): 1.0})
    h = StructuredMatrix(2, 2, frozenset({(0, 0), (1, 1)}))
    w = StructuredMatrix(2, 2, frozenset({(0, 1), (1, 0)}))
    assert check_distributed_observability_structural(instance, h, w)


def test_distributed_gate_rejects_each_violation():
    instance = two_parent_instance({(0, 1): 1.0, (1, 0): 1.0})
    good_h = StructuredMatrix(2, 2, frozenset({(0, 0), (1, 1)}))
    good_w = StructuredMatrix(2, 2, frozenset({(0, 1), (1, 0)}))

    # not strongly connected
    one_way = StructuredMatrix(2, 2, frozenset({(0, 1)}))
    assert not check_distributed_observability_structural(instance, good_h, one_way)

    # two sensors on the same component
    doubled = StructuredMatrix(2, 2, frozenset({(0, 0), (1, 0)}))
    assert not check_distributed_observability_structural(instance, doubled, good_w)

    # idle sensor
    idle = StructuredMatrix(2, 2, frozenset({(0, 0)}))
    assert not check_distributed_observability_structural(instance, idle, good_w)

    # a sensor with two measurements, while every parent is measured
    busy = StructuredMatrix(2, 2, frozenset({(0, 0), (0, 1)}))
    assert not check_distributed_observability_structural(instance, busy, good_w)

    # link outside the candidate network is malformed, not just invalid
    sparse = two_parent_instance({(0, 1): 1.0})
    with pytest.raises(ValidationError, match="not in the"):
        check_distributed_observability_structural(sparse, good_h, good_w)


def test_distributed_gate_rejects_measurement_shape():
    # more measurement rows than sensors, with sensor 0 idle and with it busy
    instance = two_parent_instance({(0, 1): 1.0, (1, 0): 1.0})
    w = StructuredMatrix(2, 2, frozenset({(0, 1), (1, 0)}))
    for nonzeros in ({(1, 0), (2, 1)}, {(0, 0), (1, 1)}):
        h = StructuredMatrix(3, 2, frozenset(nonzeros))
        with pytest.raises(ShapeError, match="measurement pattern is 3x2, expected 2x2"):
            check_distributed_observability_structural(instance, h, w)


def test_distributed_gate_needs_sensor_per_parent():
    # three parent components but two sensors: never valid
    instance = ProblemInstance(
        n=3,
        m=2,
        system_pattern=StructuredMatrix(3, 3, frozenset({(0, 0), (1, 1), (2, 2)})),
        sensing_cost={(i, j): 1.0 for i in range(2) for j in range(3)},
        network=WeightedDigraph(2, {(0, 1): 1.0, (1, 0): 1.0}),
    )
    h = StructuredMatrix(2, 3, frozenset({(0, 0), (1, 1)}))
    w = StructuredMatrix(2, 2, frozenset({(0, 1), (1, 0)}))
    assert not check_distributed_observability_structural(instance, h, w)

    # one parent component (the cycle 1 <-> 2) but two sensors: never valid
    fewer = ProblemInstance(
        n=2,
        m=2,
        system_pattern=StructuredMatrix(2, 2, frozenset({(0, 1), (1, 0)})),
        sensing_cost={(i, j): 1.0 for i in range(2) for j in range(2)},
        network=WeightedDigraph(2, {(0, 1): 1.0, (1, 0): 1.0}),
    )
    h = StructuredMatrix(2, 2, frozenset({(0, 0), (1, 1)}))
    assert not check_distributed_observability_structural(fewer, h, w)


def test_distributed_gate_needs_full_rank():
    instance = ProblemInstance(
        n=2,
        m=1,
        system_pattern=StructuredMatrix(2, 2, frozenset({(0, 0), (0, 1)})),
        sensing_cost={(0, 0): 1.0, (0, 1): 1.0},
        network=WeightedDigraph(1, {}),
    )
    h = StructuredMatrix(1, 2, frozenset({(0, 0)}))
    w = StructuredMatrix(1, 1, frozenset())
    with pytest.raises(ScopeError):
        check_distributed_observability_structural(instance, h, w)


def test_distributed_gate_rejects_child_measurement():
    # state 1 drives state 2: {1} is a child component, {2} the only parent
    instance = ProblemInstance(
        n=2,
        m=1,
        system_pattern=StructuredMatrix(2, 2, frozenset({(0, 0), (1, 1), (1, 0)})),
        sensing_cost={(0, 0): 1.0, (0, 1): 1.0},
        network=WeightedDigraph(1, {}),
    )
    w = StructuredMatrix(1, 1, frozenset())
    on_parent = StructuredMatrix(1, 2, frozenset({(0, 1)}))
    on_child = StructuredMatrix(1, 2, frozenset({(0, 0)}))
    assert check_distributed_observability_structural(instance, on_parent, w)
    assert not check_distributed_observability_structural(instance, on_child, w)


def test_condensation_is_acyclic():
    rng = np.random.default_rng(29)
    for _ in range(60):
        n = int(rng.integers(2, 9))
        edges = {
            (int(u), int(v))
            for u in range(n)
            for v in range(n)
            if rng.random() < 0.3
        }
        partition = scc_decompose(StructuredMatrix(n, n, {(v, u) for (u, v) in edges}))
        k = len(partition.components)
        # follow condensation edges; any path longer than k means a cycle
        adj = [[] for _ in range(k)]
        for (a, b) in partition.condensation:
            assert a != b
            adj[a].append(b)

        def walk(c, depth=0):
            assert depth <= k, "cycle in condensation"
            for nxt in adj[c]:
                walk(nxt, depth + 1)

        for c in range(k):
            walk(c)
