"""Minimum-cost strongly connected communication topologies.

Undirected candidate networks reduce to a minimum spanning tree (solved
exactly with Prim's algorithm). Directed networks are the minimum spanning
strong subgraph problem, which is NP-hard; the polynomial route fixes a root
and takes the union of a minimum out-branching and a minimum in-branching,
which costs at most twice the optimum. Exact brute-force oracles back both
routes for small cases.

Strong connectivity and reachability come from ``structural.reachable``;
the branching routes check strong connectivity once per network and build
one dense cost matrix that every root's out- and in-branching reads.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import GuardError, InfeasibleError, ShapeError, ValidationError
from .graphs import WeightedDigraph
from .structural import arcs_strongly_connected, reachable

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
    if not net.is_symmetric():
        raise ValidationError(
            "network is not symmetric; undirected solving needs every link"
            " present in both directions with equal cost"
        )
    m = net.node_count
    if m == 1:
        return NetworkDesign(frozenset(), 0.0, "mst", None, 0.0, tree_cost=0.0)

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
    selected = frozenset((u, v) for (u, v) in tree) | frozenset((v, u) for (u, v) in tree)
    return NetworkDesign(
        selected_arcs=selected,
        total_cost=_arcs_cost(net, selected),
        method="mst",
        root=None,
        gap_bound=0.0,
        tree_cost=float(sum(float(net.arcs[e]) for e in sorted(tree))),
    )


# --- directed case: branchings and their union -----------------------------


def _column_argmin(D: np.ndarray, KEY: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per column: the row of the cheapest entry, ties by smallest arc key."""
    colmin = D.min(axis=0)
    candidates = np.where(D == colmin[None, :], KEY, np.iinfo(np.int64).max)
    return candidates.argmin(axis=0), colmin


def _find_cycle(succ: np.ndarray, root: int, k: int) -> list[int] | None:
    color = [0] * k  # 0 new, 1 on current walk, 2 finished
    color[root] = 2
    for start in range(k):
        if color[start]:
            continue
        path: list[int] = []
        v = start
        while color[v] == 0:
            color[v] = 1
            path.append(v)
            v = int(succ[v])
        cycle = None
        if color[v] == 1:
            cycle = path[path.index(v):]
        for p in path:
            color[p] = 2
        if cycle is not None:
            return cycle
    return None


def _arborescence(D: np.ndarray, KEY: np.ndarray, root: int) -> list[Arc]:
    """Recursive cycle-contracting search for a minimum out-branching.

    D[u, v] holds the (adjusted) cost of arc u -> v, inf when absent; KEY
    carries a total order on the original arcs for deterministic
    tie-breaking. Returns the selected entries of D as (u, v) pairs; at the
    top level those are the chosen arcs themselves.
    """
    k = D.shape[0]
    if k == 1:
        return []
    best_row, best_cost = _column_argmin(D, KEY)
    cycle = _find_cycle(best_row, root, k)
    if cycle is None:
        return [(int(best_row[v]), v) for v in range(k) if v != root]

    in_cycle = np.zeros(k, dtype=bool)
    in_cycle[cycle] = True
    keep = [v for v in range(k) if not in_cycle[v]]
    kn = len(keep)
    c = kn  # index of the contracted supernode
    cyc = np.array(cycle)

    Dn = np.full((kn + 1, kn + 1), np.inf)
    Kn = np.zeros((kn + 1, kn + 1), dtype=np.int64)
    Dn[:kn, :kn] = D[np.ix_(keep, keep)]
    Kn[:kn, :kn] = KEY[np.ix_(keep, keep)]

    # Arcs entering the cycle compete after paying off the cycle arc they evict.
    enter = D[np.ix_(keep, cyc)] - best_cost[cyc][None, :]
    enter_keys = KEY[np.ix_(keep, cyc)]
    cand = np.where(enter == enter.min(axis=1)[:, None], enter_keys, np.iinfo(np.int64).max)
    enter_pick = cand.argmin(axis=1)
    rows = np.arange(kn)
    Dn[:kn, c] = enter.min(axis=1) if kn else Dn[:kn, c]
    if kn:
        Kn[:kn, c] = enter_keys[rows, enter_pick]
    vsel = cyc[enter_pick] if kn else np.array([], dtype=np.int64)

    # Arcs leaving the cycle keep their cost; cheapest per target survives.
    leave = D[np.ix_(cyc, keep)]
    leave_keys = KEY[np.ix_(cyc, keep)]
    cand = np.where(leave == leave.min(axis=0)[None, :], leave_keys, np.iinfo(np.int64).max)
    leave_pick = cand.argmin(axis=0)
    if kn:
        Dn[c, :kn] = leave.min(axis=0)
        Kn[c, :kn] = leave_keys[leave_pick, rows]
    wsel = cyc[leave_pick] if kn else np.array([], dtype=np.int64)

    sub = _arborescence(Dn, Kn, keep.index(root))

    entering_head: int | None = None
    selected: list[Arc] = []
    for (i2, j2) in sub:
        if j2 == c:
            u, v = keep[i2], int(vsel[i2])
            selected.append((u, v))
            entering_head = v
        elif i2 == c:
            v = keep[j2]
            selected.append((int(wsel[j2]), v))
        else:
            selected.append((keep[i2], keep[j2]))
    assert entering_head is not None, "contracted node must receive exactly one arc"
    for v in cycle:
        if v != entering_head:
            selected.append((int(best_row[v]), v))
    return selected


def _cost_matrices(net: WeightedDigraph) -> tuple[np.ndarray, np.ndarray]:
    """Dense arc costs (inf when absent) and the arc keys KEY[u, v] = u*m + v."""
    m = net.node_count
    D = np.full((m, m), np.inf)
    for (u, v), cost in net.arcs.items():
        D[u, v] = cost
    KEY = (np.arange(m)[:, None] * m + np.arange(m)[None, :]).astype(np.int64)
    return D, KEY


def _branching(D: np.ndarray, KEY: np.ndarray, root: int, forward: bool) -> frozenset[Arc]:
    """Arcs of a minimum out- (or in-) branching at ``root``; the caller has
    checked that one spans.

    The in-branching is the out-branching of the reversed network, whose
    cost matrix is D.T. It keeps KEY, which orders the reversed arcs as a
    reversed network built from scratch would, so ties break the same way.
    """
    if forward:
        return frozenset(_arborescence(D, KEY, root))
    return frozenset((v, u) for (u, v) in _arborescence(D.T, KEY, root))


def min_branching(
    net: WeightedDigraph, root: int, direction: str
) -> tuple[frozenset[Arc], float]:
    """Minimum-cost spanning branching through ``root``.

    direction "out": every node is reachable from the root along selected
    arcs (each non-root node gets exactly one incoming arc). direction "in":
    every node reaches the root, solved on the arc-reversed network.
    Returns the selected arcs of ``net`` and their summed cost.
    """
    if direction not in ("in", "out"):
        raise ValidationError(f"direction must be 'in' or 'out', got {direction!r}")
    m = net.node_count
    if not (0 <= root < m):
        raise ShapeError(f"root {root} out of range for {m} sensors")

    forward = direction == "out"
    seen = reachable(m, net.arcs, root, forward)
    if not all(seen):
        missing = seen.index(False) + 1
        rel = "reachable from" if forward else "able to reach"
        raise InfeasibleError(
            f"no spanning {direction}-branching: sensor {missing} is not"
            f" {rel} root sensor {root + 1}"
        )
    D, KEY = _cost_matrices(net)
    arcs = _branching(D, KEY, root, forward)
    return arcs, _arcs_cost(net, arcs)


def _best_union(net: WeightedDigraph, roots) -> NetworkDesign:
    """Cheapest out- plus in-branching union over ``roots``; the first root
    wins a tie."""
    m = net.node_count
    if m == 1:
        return NetworkDesign(frozenset(), 0.0, "branching-union", None, 0.0)
    if not arcs_strongly_connected(m, net.arcs):
        raise InfeasibleError(
            "candidate network is not strongly connected; no strongly"
            " connected spanning subgraph exists"
        )
    D, KEY = _cost_matrices(net)
    best: NetworkDesign | None = None
    for root in roots:
        if not (0 <= root < m):
            raise ShapeError(f"root {root} out of range for {m} sensors")
        selected = _branching(D, KEY, root, True) | _branching(D, KEY, root, False)
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
    if not arcs_strongly_connected(m, arcs):
        raise InfeasibleError(
            "candidate network is not strongly connected; no strongly"
            " connected spanning subgraph exists"
        )
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
    """Exact oracle for the undirected case: enumerate all spanning trees."""
    if not net.is_symmetric():
        raise ValidationError("spanning-tree oracle needs a symmetric network")
    m = net.node_count
    edges = sorted({(min(u, v), max(u, v)) for (u, v) in net.arcs})
    if len(edges) > BRUTE_FORCE_MAX_ARCS:
        raise GuardError(
            f"brute-force tree guard: {len(edges)} edges exceed {BRUTE_FORCE_MAX_ARCS}"
        )
    if m == 1:
        return NetworkDesign(frozenset(), 0.0, "brute-force", None, 0.0, tree_cost=0.0)

    best_cost = float("inf")
    best_tree: tuple[Arc, ...] | None = None
    for combo in itertools.combinations(edges, m - 1):
        parent = list(range(m))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        joined = 0
        for (u, v) in combo:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
                joined += 1
        if joined != m - 1:
            continue
        cost = float(sum(float(net.arcs[e]) for e in combo))
        if cost < best_cost or (cost == best_cost and
                                (best_tree is None or combo < best_tree)):
            best_cost = cost
            best_tree = combo
    if best_tree is None:
        raise InfeasibleError("candidate network is disconnected: no spanning tree exists")
    selected = frozenset(best_tree) | frozenset((v, u) for (u, v) in best_tree)
    return NetworkDesign(
        selected_arcs=selected,
        total_cost=_arcs_cost(net, selected),
        method="brute-force",
        root=None,
        gap_bound=0.0,
        tree_cost=best_cost,
    )
