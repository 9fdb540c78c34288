"""Minimum-cost strongly connected communication topologies.

Undirected candidate networks reduce to a minimum spanning tree (solved
exactly with Prim's algorithm). Directed networks are the minimum spanning
strong subgraph problem, which is NP-hard; the polynomial route fixes a root
and takes the union of a minimum out-branching and a minimum in-branching,
which costs at most twice the optimum. Exact oracles back both routes:
Kruskal's algorithm for the tree, and a guarded brute-force search for
small directed networks.

Branchings are taken on strongly connected networks only: there one
root-free contraction per direction serves every root, and each root's
out- or in-branching is one O(m) expansion of it, for ``min_branching``
and the union solvers alike.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .errors import GuardError, InfeasibleError, ShapeError, ValidationError
from .graphs import WeightedDigraph
from .structural import arcs_strongly_connected

__all__ = [
    "NetworkDesign",
    "mst_solve",
    "min_branching",
    "msss_2approx",
    "msss_best_root",
    "brute_force_msss",
    "brute_force_mst",
]

BRUTE_FORCE_MAX_ARCS = 20

Arc = tuple[int, int]
_NO_KEY = np.iinfo(np.int64).max  # loses every tie-break


@dataclass(frozen=True)
class NetworkDesign:
    """A selected set of directed links keeping the sensor network strongly
    connected, with bookkeeping about how it was found.

    ``total_cost`` sums the cost of every selected directed arc once; for an
    undirected design both directions of a link are selected and both count.
    ``gap_bound`` is 0 for exact methods and 1 for the branching-union
    2-approximation (worst case is twice the optimum).
    """

    selected_arcs: frozenset[Arc]
    total_cost: float
    method: str  # "mst" | "branching-union" | "brute-force"
    root: int | None
    gap_bound: float
    tree_cost: float | None = None

    @property
    def optimality(self) -> str:
        return "exact" if self.gap_bound == 0 else "two_approx"


def _arcs_cost(net: WeightedDigraph, arcs) -> float:
    # Fixed arc order so equal designs always report bit-identical totals.
    return float(sum(float(net.arcs[a]) for a in sorted(arcs)))


# --- undirected case: minimum spanning tree --------------------------------


def mst_solve(net: WeightedDigraph) -> NetworkDesign:
    """Exact optimum for symmetric networks: Prim's minimum spanning tree.

    Every tree edge is selected in both directions, so the reported
    total_cost is the directed objective (twice the tree cost under
    symmetric link costs).
    """
    if net.asymmetric_arc() is not None:
        raise ValidationError(
            "network is not symmetric; undirected solving needs every link"
            " present in both directions with equal cost"
        )
    m = net.node_count
    neighbors: list[list[tuple[float, int]]] = [[] for _ in range(m)]
    for (u, v), cost in sorted(net.arcs.items()):
        neighbors[u].append((cost, v))

    visited = [False] * m
    visited[0] = True
    heap: list[tuple[float, int, int]] = []
    for cost, v in neighbors[0]:
        heapq.heappush(heap, (cost, 0, v))
    tree: list[Arc] = []
    while heap and len(tree) < m - 1:
        cost, u, v = heapq.heappop(heap)
        if visited[v]:
            continue
        visited[v] = True
        tree.append((min(u, v), max(u, v)))
        for cost2, w in neighbors[v]:
            if not visited[w]:
                heapq.heappush(heap, (cost2, v, w))
    if len(tree) < m - 1:
        reached = sorted(i + 1 for i in range(m) if visited[i])
        raise InfeasibleError(
            f"candidate network is disconnected: no links cross the cut"
            f" between sensors {reached} and the rest"
        )
    return _tree_design(net, tree, "mst")


def _tree_design(net: WeightedDigraph, tree: list[Arc], method: str) -> NetworkDesign:
    """An exact design selecting every tree edge (u < v) in both directions."""
    selected = frozenset(tree) | frozenset((v, u) for (u, v) in tree)
    return NetworkDesign(
        selected_arcs=selected,
        total_cost=_arcs_cost(net, selected),
        method=method,
        root=None,
        gap_bound=0.0,
        tree_cost=float(sum(float(net.arcs[e]) for e in sorted(tree))),
    )


# --- directed case: branchings and their union -----------------------------


def _lexmin(vals: np.ndarray, keys: np.ndarray, axis: int):
    """Position, value and key of the cheapest entry along ``axis``; ties
    go to the smallest arc key."""
    low = vals.min(axis=axis, keepdims=True)
    candidates = np.where(vals == low, keys, _NO_KEY)
    return candidates.argmin(axis=axis), low.squeeze(axis), candidates.min(axis=axis)


def _contract(D: np.ndarray, KEY: np.ndarray):
    """Edmonds' contraction phase as one loop over in-place cost matrices.

    D[u, v] costs arc u -> v (inf when absent) on a strongly connected
    network; KEY[u, v] is the key u*m + v of the original arc it stands for.
    Each node keeps its cheapest in-arc, ties to the smallest key. Walking
    in-arcs from each start in scan order always closes a cycle; the first
    one becomes a set in its first member's slot, last in scan order; the
    other members' rows and columns become inf. Into the set an arc costs D
    minus its head's cheapest in-cost, out of it its own cost; per row and
    column the cheapest survives, ties by key, so only the set's column
    needs a new argmin. The network ends as one node, and that contraction
    serves every root (Gabow, Galil, Spencer and Tarjan 1986, section 3).
    Returns the contraction tree over the sensors 0..m-1, then the sets as
    they formed: each node's ``parent`` and ``in_key``, the key of its
    in-arc when it joined a set (-1: none).
    """
    m = D.shape[0]
    # KEY starts as u*m + v, growing down every column of D and of D.T, so
    # the first row's arc is the smallest-key tie: a plain argmin suffices
    best_row, best_cost = D.argmin(axis=0), D.min(axis=0)
    parent, in_key = [-1] * m, [-1] * m
    held, slot_of = list(range(m)), list(range(m))  # slot -> node, node -> slot
    on_walk = [False] * m  # per slot
    scan, path, v, live = 0, [], None, m
    while live > 1:
        if v is None:  # the next live node in scan order starts a walk
            while parent[scan] >= 0:
                scan += 1
            v = slot_of[scan]
        while not on_walk[v]:
            on_walk[v] = True
            path.append(v)
            v = int(best_row[v])
        cut = path.index(v)
        cycle, path = path[cut:], path[:cut]
        s, new = cycle[0], len(parent)
        for u in cycle:
            parent[held[u]] = new
            in_key[held[u]] = int(KEY[best_row[u], u])
        members = np.array(cycle)
        _, leave, leave_key = _lexmin(D[members], KEY[members], 0)
        _, enter, enter_key = _lexmin(D[:, members] - best_cost[members], KEY[:, members], 1)
        D[s, :], KEY[s, :] = leave, leave_key
        D[:, s], KEY[:, s] = enter, enter_key
        D[members[1:], :] = D[:, members[1:]] = np.inf
        D[s, s] = np.inf
        best_row[(best_row[:, None] == members).any(axis=1)] = s
        best_row[s], best_cost[s], _ = _lexmin(D[:, s], KEY[:, s], 0)
        held[s], on_walk[s] = new, False
        slot_of.append(s)
        parent.append(-1)
        in_key.append(-1)
        live -= len(cycle) - 1
        v = s if path else None
    return parent, in_key


def _expand(tree, root: int, m: int, forward: bool) -> frozenset[Arc]:
    """Arcs of the minimum out- (or in-) branching at ``root`` from a
    contraction tree, in O(m). The root and the sets around it take no
    in-arc; from the last set down to the sensors, every other node takes
    its recorded in-arc unless a set around it was entered through it (an
    entering arc passes down the members holding its head). Keys decode as
    (key // m, key % m); an in-branching, contracted on D.T, turns around.
    """
    parent, in_key = tree
    done = [False] * len(parent)
    x = root
    while x >= 0:
        done[x] = True
        x = parent[x]
    arcs = []
    for x in range(len(parent) - 1, -1, -1):
        if done[x]:
            continue
        u, v = divmod(in_key[x], m)
        arcs.append((u, v) if forward else (v, u))
        while v != x:
            done[v] = True
            v = parent[v]
    return frozenset(arcs)


def _require_strongly_connected(net: WeightedDigraph) -> None:
    if not arcs_strongly_connected(net.node_count, net.arcs):
        raise InfeasibleError(
            "candidate network is not strongly connected; no strongly"
            " connected spanning subgraph exists"
        )


def _cost_matrices(net: WeightedDigraph, roots) -> tuple[np.ndarray, np.ndarray]:
    """Dense arc costs (inf when absent) and the arc keys KEY[u, v] = u*m + v
    of a strongly connected network, once every root is in range."""
    m = net.node_count
    _require_strongly_connected(net)
    for root in roots:
        if not (0 <= root < m):
            raise ShapeError(f"root {root} out of range for {m} sensors")
    D = np.full((m, m), np.inf)
    for (u, v), cost in net.arcs.items():
        D[u, v] = cost
    KEY = np.arange(m * m, dtype=np.int64).reshape(m, m)
    return D, KEY


def min_branching(
    net: WeightedDigraph, root: int, direction: str
) -> tuple[frozenset[Arc], float]:
    """Minimum-cost spanning branching through ``root`` of a strongly
    connected network, read from the contraction ``msss_best_root`` uses.

    direction "out": every node is reachable from the root along selected
    arcs (each non-root node gets exactly one incoming arc). direction "in":
    every node reaches the root, solved on the arc-reversed network.
    Returns the selected arcs of ``net`` and their summed cost.
    """
    if direction not in ("in", "out"):
        raise ValidationError(f"direction must be 'in' or 'out', got {direction!r}")
    forward = direction == "out"
    D, KEY = _cost_matrices(net, [root])
    # "in" is the out-branching of D.T; KEY stays, so ties break as on a reversed net
    arcs = _expand(_contract(D if forward else D.T, KEY), root, net.node_count, forward)
    return arcs, _arcs_cost(net, arcs)


def _best_union(net: WeightedDigraph, roots) -> NetworkDesign:
    """Cheapest out- plus in-branching union over ``roots``; the first root
    wins a tie."""
    m = net.node_count
    roots = list(roots)
    D, KEY = _cost_matrices(net, roots)  # checks the roots, at m == 1 too
    if m == 1:
        return NetworkDesign(frozenset(), 0.0, "branching-union", None, 0.0)
    out_tree = _contract(D.copy(), KEY.copy())
    in_tree = _contract(D.T, KEY)
    best: NetworkDesign | None = None
    for root in roots:
        selected = _expand(out_tree, root, m, True) | _expand(in_tree, root, m, False)
        cost = _arcs_cost(net, selected)
        if best is None or cost < best.total_cost:
            best = NetworkDesign(selected, cost, "branching-union", root, 1.0)
    assert best is not None
    return best


def msss_2approx(net: WeightedDigraph, root: int) -> NetworkDesign:
    """Branching-union approximation of the minimum spanning strong subgraph.

    The union of an out-branching and an in-branching through one root is
    strongly connected, and each branching alone costs at most the exact
    optimum, so the union costs at most twice the optimum.
    """
    return _best_union(net, [root])


def msss_best_root(net: WeightedDigraph) -> NetworkDesign:
    """Branching-union evaluated at every root; cheapest wins (still a 2-approximation)."""
    return _best_union(net, range(net.node_count))


# --- brute-force oracles ----------------------------------------------------


def brute_force_msss(net: WeightedDigraph) -> NetworkDesign:
    """Exact minimum spanning strong subgraph by pruned subset enumeration.

    Exhaustive over subsets of the arc list (include/exclude per arc in
    lexicographic order) with two sound prunings: a branch dies when its
    cost plus a degree-coverage lower bound exceeds the incumbent, and a
    branch that already spans strongly is closed because supersets cost at
    least as much and compare lexicographically larger. Ties pick the
    lexicographically smallest arc set.
    """
    m = net.node_count
    arcs = sorted(net.arcs)
    if len(arcs) > BRUTE_FORCE_MAX_ARCS:
        raise GuardError(
            f"brute-force subgraph guard: {len(arcs)} arcs exceed {BRUTE_FORCE_MAX_ARCS}"
        )
    if m == 1:
        return NetworkDesign(frozenset(), 0.0, "brute-force", None, 0.0)
    _require_strongly_connected(net)
    k = len(arcs)
    costs = [float(net.arcs[a]) for a in arcs]

    # Suffix minima: cheapest arc into / out of each node among arcs[idx:].
    INF = float("inf")
    min_in = [[INF] * m for _ in range(k + 1)]
    min_out = [[INF] * m for _ in range(k + 1)]
    for idx in range(k - 1, -1, -1):
        u, v = arcs[idx]
        min_in[idx] = list(min_in[idx + 1])
        min_out[idx] = list(min_out[idx + 1])
        min_in[idx][v] = min(min_in[idx][v], costs[idx])
        min_out[idx][u] = min(min_out[idx][u], costs[idx])

    best_cost = INF
    best_set: tuple[Arc, ...] | None = None
    in_deg = [0] * m
    out_deg = [0] * m
    chosen: list[Arc] = []

    def bound(idx: int, cost: float) -> float:
        lb_in = 0.0
        lb_out = 0.0
        for node in range(m):
            if in_deg[node] == 0:
                extra = min_in[idx][node]
                if extra == INF:
                    return INF
                lb_in += extra
            if out_deg[node] == 0:
                extra = min_out[idx][node]
                if extra == INF:
                    return INF
                lb_out += extra
        return cost + max(lb_in, lb_out)

    def rec(idx: int, cost: float, recheck: bool) -> None:
        nonlocal best_cost, best_set
        if recheck and all(in_deg) and all(out_deg) and arcs_strongly_connected(m, chosen):
            candidate = tuple(chosen)
            if cost < best_cost or (cost == best_cost and
                                    (best_set is None or candidate < best_set)):
                best_cost = cost
                best_set = candidate
            return  # supersets cost no less and sort later
        if idx == k or bound(idx, cost) > best_cost:
            return
        u, v = arcs[idx]
        chosen.append((u, v))
        in_deg[v] += 1
        out_deg[u] += 1
        rec(idx + 1, cost + costs[idx], True)
        chosen.pop()
        in_deg[v] -= 1
        out_deg[u] -= 1
        rec(idx + 1, cost, False)

    rec(0, 0.0, False)
    assert best_set is not None  # full arc set is strongly connected
    return NetworkDesign(
        selected_arcs=frozenset(best_set),
        total_cost=_arcs_cost(net, best_set),
        method="brute-force",
        root=None,
        gap_bound=0.0,
    )


def brute_force_mst(net: WeightedDigraph) -> NetworkDesign:
    """Exact oracle for the undirected case, independent of Prim's
    ``mst_solve``: Kruskal's algorithm (Kruskal 1956). Each edge is taken
    once, in (cost, u, v) order, and kept when it joins two trees of a
    union-find forest."""
    if net.asymmetric_arc() is not None:
        raise ValidationError("spanning-tree oracle needs a symmetric network")
    m = net.node_count
    parent = list(range(m))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    tree: list[Arc] = []
    for _, u, v in sorted((c, u, v) for (u, v), c in net.arcs.items() if u < v):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            tree.append((u, v))
    if len(tree) < m - 1:
        raise InfeasibleError("candidate network is disconnected: no spanning tree exists")
    return _tree_design(net, tree, "brute-force")
