import tracemalloc

import numpy as np
import pytest

from obsnet import (
    GuardError,
    InfeasibleError,
    ShapeError,
    ValidationError,
    WeightedDigraph,
    arcs_strongly_connected,
    brute_force_msss,
    brute_force_mst,
    min_branching,
    msss_2approx,
    msss_best_root,
    mst_solve,
)
from oracles import brute_force_branching_cost, reference_arcs, reference_best_union


def ring(m, cost=1.0) -> WeightedDigraph:
    return WeightedDigraph(m, {(i, (i + 1) % m): cost for i in range(m)})


def symmetric(m, edges) -> WeightedDigraph:
    arcs = {}
    for (u, v), c in edges.items():
        arcs[(u, v)] = c
        arcs[(v, u)] = c
    return WeightedDigraph(m, arcs)


def random_sc_digraph(rng, m, extra=0.3, max_cost=20, draw=None) -> WeightedDigraph:
    """A ring through all m nodes in random order, plus each other arc with
    probability ``extra``; costs are integers in [1, max_cost) unless
    ``draw(rng)`` gives them."""
    if draw is None:
        def draw(rng):
            return float(rng.integers(1, max_cost))
    order = [int(x) for x in rng.permutation(m)]
    arcs = {}
    for u, v in zip(order, order[1:] + order[:1]):
        arcs[(u, v)] = draw(rng)
    for u in range(m):
        for v in range(m):
            if u != v and (u, v) not in arcs and rng.random() < extra:
                arcs[(u, v)] = draw(rng)
    return WeightedDigraph(m, arcs)


# --- minimum spanning tree ---------------------------------------------------


def test_mst_triangle():
    net = symmetric(3, {(0, 1): 1.0, (0, 2): 2.0, (1, 2): 3.0})
    design = mst_solve(net)
    assert design.tree_cost == 3.0  # edges of cost 1 and 2
    assert design.total_cost == 6.0  # both directions of each
    assert design.selected_arcs == frozenset({(0, 1), (1, 0), (0, 2), (2, 0)})
    assert design.method == "mst" and design.optimality == "exact"


def test_mst_two_nodes():
    net = symmetric(2, {(0, 1): 5.0})
    design = mst_solve(net)
    assert design.total_cost == 10.0
    assert design.tree_cost == 5.0


def test_mst_single_node():
    design = mst_solve(WeightedDigraph(1, {}))
    assert design.selected_arcs == frozenset()
    assert design.total_cost == 0.0


def test_mst_disconnected_lists_cut():
    net = symmetric(4, {(0, 1): 1.0, (2, 3): 1.0})
    with pytest.raises(InfeasibleError, match=r"\[1, 2\]"):
        mst_solve(net)


def test_mst_rejects_asymmetric():
    with pytest.raises(ValidationError):
        mst_solve(WeightedDigraph(2, {(0, 1): 1.0}))
    with pytest.raises(ValidationError):
        mst_solve(WeightedDigraph(2, {(0, 1): 1.0, (1, 0): 2.0}))


@pytest.mark.parametrize("solve, message", [
    (mst_solve, "network is not symmetric; undirected solving needs every link"
                " present in both directions with equal cost"),
    (brute_force_mst, "spanning-tree oracle needs a symmetric network"),
], ids=["mst", "brute-force-mst"])
@pytest.mark.parametrize("arcs", [
    {(0, 1): 1.0}, {(0, 1): 1.0, (1, 0): 2.0}, {(1, 2): 1.0, (2, 1): 1.0, (0, 1): 1.0},
], ids=["missing", "unequal", "missing-last"])
def test_undirected_solvers_name_the_symmetry_rule(solve, message, arcs):
    with pytest.raises(ValidationError) as info:
        solve(WeightedDigraph(3, arcs))
    assert str(info.value) == message


def test_mst_matches_kruskal():
    nx = pytest.importorskip("networkx")

    def check(m, edges):
        net = symmetric(m, edges)
        fast = mst_solve(net)
        slow = brute_force_mst(net)
        assert fast.total_cost == slow.total_cost
        assert fast.tree_cost == slow.tree_cost
        assert arcs_strongly_connected(m, fast.selected_arcs)
        if len(set(edges.values())) == len(edges):  # distinct costs: one minimum tree
            assert fast.selected_arcs == slow.selected_arcs
            g = nx.Graph()
            g.add_nodes_from(range(m))
            g.add_weighted_edges_from((u, v, c) for (u, v), c in edges.items())
            tree = {(min(e), max(e)) for e in nx.minimum_spanning_tree(g).edges}
            assert slow.selected_arcs == frozenset(tree) | {(v, u) for (u, v) in tree}

    rng = np.random.default_rng(13)
    for _ in range(120):
        m = int(rng.integers(2, 8))
        edges = {}
        order = [int(x) for x in rng.permutation(m)]
        for u, v in zip(order, order[1:]):
            edges[(min(u, v), max(u, v))] = float(rng.integers(1, 15))
        for u in range(m):
            for v in range(u + 1, m):
                if (u, v) not in edges and rng.random() < 0.4:
                    edges[(u, v)] = float(rng.integers(1, 15))
        check(m, edges)

    # 21 to 200 edges; odd draws have distinct costs (one minimum tree),
    # even ones integer costs with ties
    rng = np.random.default_rng(17)
    for k in range(60):
        m = int(rng.integers(8, 30))
        count = min(int(rng.integers(21, 201)), m * (m - 1) // 2)
        order = [int(x) for x in rng.permutation(m)]
        pairs = [(order[i], order[int(rng.integers(0, i))]) for i in range(1, m)]
        others = [(u, v) for u in range(m) for v in range(u + 1, m)]
        pairs += [others[i] for i in rng.permutation(len(others))]
        edges = {}
        for u, v in pairs:
            if len(edges) < count:
                cost = rng.uniform(1.0, 10.0) if k % 2 else rng.integers(1, 15)
                edges.setdefault((min(u, v), max(u, v)), float(cost))
        assert 20 < len(edges) <= 200
        check(m, edges)


# --- branchings --------------------------------------------------------------


def test_branching_three_cycle():
    net = ring(3)
    out_arcs, out_cost = min_branching(net, 0, "out")
    assert out_arcs == frozenset({(0, 1), (1, 2)})
    assert out_cost == 2.0
    in_arcs, in_cost = min_branching(net, 0, "in")
    assert in_arcs == frozenset({(1, 2), (2, 0)})
    assert in_cost == 2.0


def test_branching_star_infeasible():
    # all arcs point into node 0: every node reaches it, but the network is
    # not strongly connected, so neither direction is served
    net = WeightedDigraph(3, {(1, 0): 1.0, (2, 0): 1.0})
    for direction in ("out", "in"):
        with pytest.raises(InfeasibleError, match="^candidate network is not strongly connected"):
            min_branching(net, 0, direction)


def test_branching_single_node_and_bad_args():
    assert min_branching(WeightedDigraph(1, {}), 0, "out") == (frozenset(), 0.0)
    with pytest.raises(ValidationError):
        min_branching(ring(3), 0, "sideways")


def test_branching_contracts_cycles():
    # cheap 2-cycle between 1 and 2 that must be broken to hang off root 0,
    # entered and left through its cheapest arcs
    net = WeightedDigraph(
        3, {(1, 2): 1.0, (2, 1): 1.0, (0, 1): 10.0, (0, 2): 12.0, (1, 0): 10.0, (2, 0): 20.0}
    )
    assert min_branching(net, 0, "out") == (frozenset({(0, 1), (1, 2)}), 11.0)
    assert min_branching(net, 0, "in") == (frozenset({(2, 1), (1, 0)}), 11.0)


def test_branching_matches_enumeration():
    rng = np.random.default_rng(31)
    for _ in range(120):
        m = int(rng.integers(2, 6))
        net = random_sc_digraph(rng, m, extra=0.55, max_cost=25)
        for root in range(m):
            for direction in ("out", "in"):
                expect = brute_force_branching_cost(net, root, direction)
                assert min_branching(net, root, direction)[1] == pytest.approx(expect, abs=1e-9)


def test_branching_reversal_duality():
    rng = np.random.default_rng(37)
    for _ in range(60):
        m = int(rng.integers(2, 7))
        net = random_sc_digraph(rng, m)
        for root in range(m):
            in_arcs, in_cost = min_branching(net, root, "in")
            rev = WeightedDigraph(m, {(v, u): c for (u, v), c in net.arcs.items()})
            out_rev_arcs, out_rev_cost = min_branching(rev, root, "out")
            assert in_cost == out_rev_cost
            assert in_arcs == frozenset((v, u) for (u, v) in out_rev_arcs)


def test_branching_selected_arcs_form_branching():
    rng = np.random.default_rng(41)
    for _ in range(60):
        m = int(rng.integers(2, 8))
        net = random_sc_digraph(rng, m)
        root = int(rng.integers(m))
        arcs, cost = min_branching(net, root, "out")
        assert len(arcs) == m - 1
        assert all(a in net.arcs for a in arcs)
        heads = [v for (_, v) in arcs]
        assert sorted(heads) == sorted(set(range(m)) - {root})
        assert cost == sum(net.arcs[a] for a in sorted(arcs))


# --- strongly connected subgraph ---------------------------------------------


def test_msss_three_cycle():
    design = msss_2approx(ring(3), 0)
    assert design.selected_arcs == frozenset({(0, 1), (1, 2), (2, 0)})
    assert design.total_cost == 3.0
    assert design.gap_bound == 1.0
    assert design.optimality == "two_approx"


def test_msss_root_range_is_checked_at_one_sensor():
    single = WeightedDigraph(1, {})
    for solve in (msss_2approx, lambda net, root: min_branching(net, root, "out")):
        with pytest.raises(ShapeError) as info:
            solve(single, 5)
        assert str(info.value) == "root 5 out of range for 1 sensors"
    for design in (msss_2approx(single, 0), msss_best_root(single)):
        assert (design.selected_arcs, design.total_cost, design.root) == (frozenset(), 0.0, None)
        assert design.optimality == "exact"


def test_msss_two_nodes_forced():
    net = WeightedDigraph(2, {(0, 1): 1.0, (1, 0): 5.0})
    design = msss_2approx(net, 0)
    assert design.selected_arcs == frozenset({(0, 1), (1, 0)})
    assert design.total_cost == 6.0
    assert brute_force_msss(net).total_cost == 6.0


def test_msss_requires_strong_connectivity():
    net = WeightedDigraph(3, {(0, 1): 1.0, (1, 2): 1.0})
    with pytest.raises(InfeasibleError):
        msss_2approx(net, 0)
    with pytest.raises(InfeasibleError, match="not strongly connected"):
        msss_best_root(net)
    with pytest.raises(InfeasibleError):
        brute_force_msss(net)


def test_msss_best_root_beats_or_ties_every_root():
    # costs in {1, 2, 3} make equal unions at different roots common, so the
    # design must match the per-root reference arc for arc, not only in cost
    rng = np.random.default_rng(43)
    for _ in range(200):
        m = int(rng.integers(2, 7))
        net = random_sc_digraph(rng, m, extra=0.5, max_cost=4)
        best = msss_best_root(net)
        assert (best.selected_arcs, best.root, best.total_cost) == reference_best_union(net)


def test_branchings_match_recursive_reference_on_ties():
    # one root-free contraction per direction must pick, at every root, the
    # arcs the per-root recursive search picks among tied optima; costs come
    # from {1}, {1, 2} or {1, 2, 3}
    rng = np.random.default_rng(61)
    for _ in range(510):
        m = int(rng.integers(2, 10))
        extra, top = float(rng.choice([0.2, 0.5, 0.9])), int(rng.integers(1, 4))
        net = random_sc_digraph(rng, m, extra=extra, max_cost=top + 1)
        for r in range(m):
            for direction in ("out", "in"):
                assert min_branching(net, r, direction)[0] == reference_arcs(net, r, direction)
        best = msss_best_root(net)
        assert (best.selected_arcs, best.root, best.total_cost) == reference_best_union(net)


def test_branching_cost_matches_networkx():
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(71)
    for _ in range(200):
        m = int(rng.integers(2, 12))
        net = random_sc_digraph(rng, m, extra=0.45, draw=lambda rng: float(rng.uniform(0.0, 10.0)))
        root = int(rng.integers(m))
        for direction in ("out", "in"):
            g = nx.DiGraph()
            g.add_nodes_from(range(m))
            for (u, v), c in net.arcs.items():
                tail, head = (u, v) if direction == "out" else (v, u)
                if head != root:  # no arc enters the root, so it roots any arborescence
                    g.add_edge(tail, head, weight=c)
            expect = nx.minimum_spanning_arborescence(g).size(weight="weight")
            assert min_branching(net, root, direction)[1] == pytest.approx(expect, abs=1e-9)


def test_deep_path_contracts_in_small_memory():
    # directed-hard's path shape: every in-arc choice forms a 2-cycle, so
    # the search contracts 399 times; the recursive form held 355 MB here
    m = 400
    arcs = {}
    for u in range(m - 1):
        arcs[(u, u + 1)] = arcs[(u + 1, u)] = 100.0 if u == 0 else 1.0
    net = WeightedDigraph(m, arcs)
    tracemalloc.start()
    try:
        design = msss_2approx(net, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert design.selected_arcs == frozenset(arcs)
    assert design.total_cost == 2 * (100 + 398)
    assert peak < 50e6


def test_first_column_argmin_builds_no_masked_copies():
    # D and KEY take 16 MB at m=1000; a first column argmin masked over all
    # of D and KEY adds two more m x m arrays, a 32 MB peak
    m = 1000
    rng = np.random.default_rng(61)
    arcs = {(u, (u + 1) % m): float(rng.uniform(1, 10)) for u in range(m)}
    for u in range(m):
        for v in rng.choice(m, size=10, replace=False):
            if v != u:
                arcs[(u, int(v))] = float(rng.uniform(1, 10))
    net = WeightedDigraph(m, arcs)
    tracemalloc.start()
    try:
        arcs_out, _ = min_branching(net, 0, "out")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(arcs_out) == m - 1
    assert peak < 28e6


def test_msss_single_node():
    design = msss_best_root(WeightedDigraph(1, {}))
    assert design.selected_arcs == frozenset()
    assert design.total_cost == 0.0
    assert design.optimality == "exact"


def test_msss_approximation_bound_and_sc_outputs():
    rng = np.random.default_rng(47)
    for _ in range(120):
        m = int(rng.integers(2, 7))
        net = random_sc_digraph(rng, m, extra=0.25)
        if len(net.arcs) > 20:
            continue
        lo = brute_force_msss(net)
        hi = msss_best_root(net)
        assert arcs_strongly_connected(m, lo.selected_arcs)
        assert arcs_strongly_connected(m, hi.selected_arcs)
        assert lo.total_cost <= hi.total_cost + 1e-9
        assert hi.total_cost <= 2 * lo.total_cost + 1e-9


def test_brute_force_msss_complete_digraph_cross_check():
    # independent enumeration in a different order: over subset bitmasks
    rng = np.random.default_rng(53)
    for _ in range(25):
        m = 3
        arcs = {
            (u, v): float(rng.integers(1, 9))
            for u in range(m)
            for v in range(m)
            if u != v
        }
        net = WeightedDigraph(m, arcs)
        fast = brute_force_msss(net)
        order = sorted(arcs)  # bitmask enumeration scans a fixed arc order
        best = None
        for mask in range(1, 1 << len(order)):
            subset = [order[k] for k in range(len(order)) if mask >> k & 1]
            fwd = {u: set() for u in range(m)}
            rev = {u: set() for u in range(m)}
            for (u, v) in subset:
                fwd[u].add(v)
                rev[v].add(u)

            def full_reach(adj):
                seen = {0}
                stack = [0]
                while stack:
                    x = stack.pop()
                    for y in adj[x]:
                        if y not in seen:
                            seen.add(y)
                            stack.append(y)
                return len(seen) == m

            if not (full_reach(fwd) and full_reach(rev)):
                continue
            cost = sum(arcs[a] for a in subset)
            if best is None or cost < best:
                best = cost
        assert fast.total_cost == best


def test_brute_force_msss_lexicographic_tie_break():
    # two disjoint optimal cycles through unit costs: 0->1->2->0 and 0->2->1->0
    arcs = {
        (0, 1): 1.0, (1, 2): 1.0, (2, 0): 1.0,
        (0, 2): 1.0, (2, 1): 1.0, (1, 0): 1.0,
    }
    design = brute_force_msss(WeightedDigraph(3, arcs))
    assert design.total_cost == 3.0
    # (0,1) < (0,2) lexicographically, so the first cycle wins
    assert design.selected_arcs == frozenset({(0, 1), (1, 2), (2, 0)})


def test_brute_force_guard_trips():
    arcs = {
        (u, v): 1.0 for u in range(5) for v in range(5) if u != v
    }
    assert len(arcs) == 20
    brute_force_msss(WeightedDigraph(5, arcs))  # exactly at the guard: fine
    arcs6 = {(u, v): 1.0 for u in range(6) for v in range(6) if u != v}
    with pytest.raises(GuardError):
        brute_force_msss(WeightedDigraph(6, arcs6))


def test_brute_force_mst_disconnection():
    with pytest.raises(InfeasibleError) as info:
        brute_force_mst(symmetric(3, {(0, 1): 1.0}))
    assert str(info.value) == "candidate network is disconnected: no spanning tree exists"


def test_total_cost_accumulation_is_stable():
    # equal designs report bit-identical totals regardless of solver
    rng = np.random.default_rng(59)
    for _ in range(30):
        m = int(rng.integers(2, 6))
        net = random_sc_digraph(rng, m, extra=0.2, max_cost=8)
        if len(net.arcs) > 20:
            continue
        lo = brute_force_msss(net)
        hi = msss_best_root(net)
        if lo.selected_arcs == hi.selected_arcs:
            assert lo.total_cost == hi.total_cost
