"""Independent brute-force routes used to pin expected values.

Everything here recomputes results from definitions, on purpose sharing no
code with the library: reachability closure instead of Tarjan, permutation
scans instead of matching or assignment solvers, explicit stacked
observability matrices instead of subspace iteration. Slow and small, but
trusted. ``reference_branching`` is the recursive per-root Edmonds search
the library once ran, kept unchanged as the tie-break reference;
``reference_instance_json`` and ``reference_design_json`` are the document
writers it once ran, a dict through ``json.dumps``, kept as the byte
reference for the direct writers; ``reference_parse_instance`` is the
instance reader it once ran, one entry at a time, kept as the reference for
the column-checked reader, down to the first error and its message;
``reference_trial_rank`` is the one-trial-at-a-time verifier it once ran,
kept as the rank reference for the stacked trials; ``reference_lsap`` is
the assignment loop it once ran, with a free-column mask and a full
potential update at every step, kept as the step-for-step reference for the
buffered loop; ``reference_generate_instance`` is the instance generator it
once ran, one scalar draw per coin, group size and link cost, kept as the
byte reference for the generator's block draws.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction

import numpy as np

from obsnet import (
    InfeasibleError,
    ProblemInstance,
    ShapeError,
    StructuredMatrix,
    ValidationError,
    WeightedDigraph,
    rng_for,
)
from obsnet.graphs import DesignResult
from obsnet.sensing import _hall_violator, _total_cost


def influence_edges(nonzeros) -> set[tuple[int, int]]:
    """Pattern entry (i, j) means state j drives state i: edge j -> i."""
    return {(j, i) for (i, j) in nonzeros}


def components_by_reachability(n: int, edges: set[tuple[int, int]]):
    """SCCs via transitive closure; returns (components, kinds) sorted by min node."""
    reach = [[False] * n for _ in range(n)]
    for v in range(n):
        reach[v][v] = True
    for (u, v) in edges:
        reach[u][v] = True
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                row_k = reach[k]
                row_i = reach[i]
                for j in range(n):
                    if row_k[j]:
                        row_i[j] = True
    comps = []
    assigned = [False] * n
    for v in range(n):
        if assigned[v]:
            continue
        comp = tuple(sorted(u for u in range(n) if reach[v][u] and reach[u][v]))
        for u in comp:
            assigned[u] = True
        comps.append(comp)
    comps.sort()
    kinds = []
    for comp in comps:
        inside = set(comp)
        outgoing = any(u in inside and v not in inside for (u, v) in edges)
        kinds.append("child" if outgoing else "parent")
    return comps, kinds


def parent_components(n: int, nonzeros) -> list[tuple[int, ...]]:
    comps, kinds = components_by_reachability(n, influence_edges(nonzeros))
    return [c for c, k in zip(comps, kinds) if k == "parent"]


def parent_costs_by_scan(instance: ProblemInstance):
    """(sensor, parent) cost and cheapest state by scanning every entry in
    state order; (inf, -1) where the sensor may measure no state of it."""
    parents = parent_components(instance.n, instance.system_pattern.nonzeros)
    cost = [[np.inf] * len(parents) for _ in range(instance.m)]
    state = [[-1] * len(parents) for _ in range(instance.m)]
    for i in range(instance.m):
        for p, comp in enumerate(parents):
            for s in comp:
                c = float(instance.sensing_cost[i, s])
                if c < cost[i][p]:
                    cost[i][p], state[i][p] = c, s
    return cost, state


def has_spanning_cycle_family(n: int, nonzeros) -> bool:
    """Permutation scan: some sigma with (i, sigma(i)) a nonzero for every i."""
    allowed = [set() for _ in range(n)]
    for (i, j) in nonzeros:
        allowed[i].add(j)
    for perm in itertools.permutations(range(n)):
        if all(perm[i] in allowed[i] for i in range(n)):
            return True
    return False


def brute_force_sensing_cost(instance: ProblemInstance) -> float | None:
    """Cheapest valid measurement placement by scanning all of them.

    Valid means: every sensor measures exactly one state, no state is
    measured twice, every parent component holds a measured state, and
    every chosen (sensor, state) pair has a listed cost. None if no valid
    placement exists.
    """
    parents = parent_components(instance.n, instance.system_pattern.nonzeros)
    best: float | None = None
    for states in itertools.permutations(range(instance.n), instance.m):
        cost = 0.0
        ok = True
        for i, s in enumerate(states):
            c = float(instance.sensing_cost[i, s])
            if c == np.inf:
                ok = False
                break
            cost += c
        if not ok:
            continue
        chosen = set(states)
        if any(not (set(p) & chosen) for p in parents):
            continue
        if best is None or cost < best:
            best = cost
    return best


def brute_force_branching_cost(
    net: WeightedDigraph, root: int, direction: str
) -> float | None:
    """Minimum spanning branching by scanning arc choices; None if infeasible."""
    m = net.node_count
    work = net.arcs if direction == "out" else {(v, u): c for (u, v), c in net.arcs.items()}
    candidates = [
        [(u, v) for (u, v) in sorted(work) if v == node]
        for node in range(m)
        if node != root
    ]
    if any(not lst for lst in candidates):
        return None
    best: float | None = None
    for pick in itertools.product(*candidates):
        parent = {v: u for (u, v) in pick}
        ok = True
        for v in parent:
            hops, x = 0, v
            while x != root and hops <= m:
                x = parent[x]
                hops += 1
            if x != root:
                ok = False
                break
        if not ok:
            continue
        cost = sum(work[a] for a in pick)
        if best is None or cost < best:
            best = cost
    return best


# --- the recursive branching the library replaced, kept as the reference ---
#
# One cycle contraction per recursion level, each level a fresh (k+1)^2 copy
# of the cost matrix. Slow and deep, so keep its inputs small (m <= 30): at
# m >= 1000 it holds gigabytes before Python's recursion limit trips.

Arc = tuple[int, int]


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


def reference_branching(D: np.ndarray, KEY: np.ndarray, root: int) -> list[Arc]:
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

    sub = reference_branching(Dn, Kn, keep.index(root))

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


def cost_matrices(net: WeightedDigraph) -> tuple[np.ndarray, np.ndarray]:
    """Dense arc costs (inf when absent) and the arc keys KEY[u, v] = u*m + v."""
    m = net.node_count
    D = np.full((m, m), np.inf)
    for (u, v), cost in net.arcs.items():
        D[u, v] = cost
    KEY = np.arange(m * m, dtype=np.int64).reshape(m, m)
    return D, KEY


def reference_arcs(net: WeightedDigraph, root: int, direction: str) -> frozenset[Arc]:
    """The reference's minimum out- or in-branching at ``root``; the in-branching
    is the out-branching of D.T under the same keys."""
    D, KEY = cost_matrices(net)
    if direction == "out":
        return frozenset(reference_branching(D, KEY, root))
    return frozenset((v, u) for (u, v) in reference_branching(D.T, KEY, root))


def reference_best_union(net: WeightedDigraph):
    """(arcs, root, cost) of the cheapest per-root branching union; the
    first root wins a tie."""
    best = None
    for r in range(net.node_count):
        arcs = reference_arcs(net, r, "out") | reference_arcs(net, r, "in")
        cost = float(sum(float(net.arcs[a]) for a in sorted(arcs)))
        if best is None or cost < best[2]:
            best = (arcs, r, cost)
    return best


def reference_lsap(cost: np.ndarray) -> tuple[np.ndarray, float]:
    """Shortest-augmenting-path assignment as the library once ran it: each
    step masks the used columns with ``np.where`` and updates the potentials
    of the whole tree by fancy indexing. Its entry check skips ``-inf``
    (``solve_lsap`` refuses it), so compare the two on other inputs."""
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise ShapeError(f"assignment needs a square matrix, got {cost.shape}")
    if np.isnan(cost).any() or (cost[np.isfinite(cost)] < 0).any():
        raise ShapeError("assignment costs must be nonnegative (inf = forbidden)")
    m = cost.shape[0]
    INF = np.inf
    u = np.zeros(m + 1)
    v = np.zeros(m + 1)
    row_of_col = np.full(m + 1, -1, dtype=np.int64)  # index m is the virtual start column
    for i in range(m):
        row_of_col[m] = i
        j0 = m
        minv = np.full(m, INF)
        way = np.full(m, m, dtype=np.int64)
        used = np.zeros(m + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = row_of_col[j0]
            free = ~used[:m]
            cur = cost[i0, :m] - u[i0] - v[:m]
            better = free & (cur < minv)
            minv[better] = cur[better]
            way[better] = j0
            masked = np.where(free, minv, INF)
            j1 = int(np.argmin(masked))
            delta = masked[j1]
            if not np.isfinite(delta):
                tree_rows = sorted({int(row_of_col[j]) for j in range(m + 1) if used[j]})
                rows, cols = _hall_violator(cost, tree_rows)
                raise InfeasibleError(
                    f"no feasible assignment: sensors {[r + 1 for r in rows]} can"
                    f" only cover parent components {[c + 1 for c in cols]}"
                    f" ({len(rows)} sensors, {len(cols)} components)"
                )
            u[row_of_col[used]] += delta
            v[np.flatnonzero(used[:m])] -= delta
            minv[free] -= delta
            j0 = j1
            if row_of_col[j0] == -1:
                break
        while j0 != m:  # walk the alternating path back, flipping matches
            j1 = int(way[j0])
            row_of_col[j0] = row_of_col[j1]
            j0 = j1
    col_of_row = np.empty(m, dtype=np.int64)
    col_of_row[row_of_col[:m]] = np.arange(m)
    return col_of_row, _total_cost(cost, col_of_row)


def observability_matrix_rank(a: np.ndarray, c: np.ndarray, tol: float = 1e-8) -> int:
    """Rank of the explicitly stacked observability matrix."""
    a = np.asarray(a, dtype=float)
    c = np.atleast_2d(np.asarray(c, dtype=float))
    n = a.shape[0]
    blocks = []
    cur = c
    for _ in range(n):
        blocks.append(cur)
        cur = cur @ a
    sing = np.linalg.svd(np.vstack(blocks), compute_uv=False)
    if sing.size == 0 or sing[0] == 0:
        return 0
    return int(np.sum(sing > tol * sing[0]))


def growing_basis_rank(a: np.ndarray, c: np.ndarray, tol: float) -> int:
    """The row-space expansion of ``kalman_rank_observable`` with a basis
    that grows by one ``np.vstack`` per step: the same projections and
    cut-off, so the same count, except where the last step overshoots n;
    the count is then more than n, where ``kalman_rank_observable`` caps
    it."""
    n = a.shape[0]
    basis = np.zeros((0, n))
    frontier = c
    reference = 0.0
    while frontier.shape[0] and basis.shape[0] < n:
        residual = frontier - (frontier @ basis.T) @ basis
        residual = residual - (residual @ basis.T) @ basis
        _, sing, vt = np.linalg.svd(residual, full_matrices=False)
        reference = max(reference, float(sing[0]))
        fresh = vt[sing > tol * reference]
        if fresh.shape[0] == 0:
            break
        basis = np.vstack([basis, fresh])
        frontier = fresh @ a
    return basis.shape[0]


def exact_observability_rank(a: np.ndarray, c: np.ndarray) -> int:
    """Rank of the stacked observability matrix in exact arithmetic.

    Each float is read as the binary fraction it stores, and the rows of
    c, c a, ..., c a^(n-1) are reduced with rationals, so no conditioning
    can hide a direction: the answer is the rank of the given numbers.
    """
    a = [[Fraction(x) for x in row] for row in np.asarray(a, dtype=float).tolist()]
    n = len(a)
    block = [[Fraction(x) for x in row] for row in np.atleast_2d(c).astype(float).tolist()]
    pivots: dict[int, list[Fraction]] = {}  # column -> row with a leading 1 there
    for _ in range(n):
        for row in block:
            # in insertion order: each pivot row is zero at the earlier pivots
            for j, pivot in pivots.items():
                if row[j]:
                    row = [x - row[j] * y for x, y in zip(row, pivot)]
            lead = next((j for j, x in enumerate(row) if x), None)
            if lead is not None:
                pivots[lead] = [x / row[lead] for x in row]
        if len(pivots) == n:
            break
        block = [
            [sum(r[k] * a[k][j] for k in range(n) if r[k]) for j in range(n)]
            for r in block
        ]
    return len(pivots)


def reference_rowspace_rank(step, c: np.ndarray, n: int, tol: float) -> int:
    """The row-space expansion of one trial: the basis grows in place, each
    new block is projected against it twice, and an SVD per step counts the
    directions above ``tol`` times the largest singular value seen; the
    count stops at n."""
    basis = np.empty((n, n))
    rank = 0
    frontier = c
    reference = 0.0
    while frontier.shape[0] and rank < n:
        b = basis[:rank]
        residual = frontier - (frontier @ b.T) @ b
        residual = residual - (residual @ b.T) @ b
        _, sing, vt = np.linalg.svd(residual, full_matrices=False)
        reference = max(reference, float(sing[0]))
        fresh = vt[sing > tol * reference]
        k = fresh.shape[0]
        if k == 0 or rank + k >= n:
            return min(rank + k, n)
        basis[rank:rank + k] = fresh
        rank += k
        frontier = step(fresh)
    return rank


def _realize(pattern: StructuredMatrix, rng: np.random.Generator) -> np.ndarray:
    out = np.zeros((pattern.rows, pattern.cols))
    pairs = np.array(pattern.sorted_pairs(), dtype=np.intp).reshape(-1, 2)
    out[pairs[:, 0], pairs[:, 1]] = rng.uniform(0.5, 1.5, size=len(pairs))
    return out


def reference_trial_rank(
    instance: ProblemInstance,
    h_pattern: StructuredMatrix,
    w_pattern: StructuredMatrix,
    rng: np.random.Generator,
    tol: float,
) -> int:
    """One trial of the networked rank test on its own: the system matrix
    (re-drawn up to seven times while numerically singular), the
    measurement values and the row-stochastic weights, drawn in that order
    from ``rng``, then ``reference_rowspace_rank`` of the pair
    (W kron A, measurement Gram rows), with W kron A applied one row's
    blocks at a time."""
    n, m = instance.n, instance.m
    for _ in range(8):
        a = _realize(instance.system_pattern, rng)
        if np.linalg.matrix_rank(a) == n:
            break
    h = _realize(h_pattern, rng)
    w = _realize(w_pattern, rng)
    w[np.arange(m), np.arange(m)] = rng.uniform(0.5, 1.5, size=m)
    w = w / w.sum(axis=1, keepdims=True)
    c = np.zeros((m, m * n))
    for (i, state) in h_pattern.sorted_pairs():
        c[i, i * n + state] = h[i, state] ** 2

    def step(rows: np.ndarray) -> np.ndarray:
        return (w.T @ (rows.reshape(-1, m, n) @ a)).reshape(-1, m * n)

    return reference_rowspace_rank(step, c, m * n, tol)


def build_measurement_gram(h: np.ndarray) -> np.ndarray:
    """Block-diagonal stack of the per-sensor output Grams.

    For an m x n measurement matrix the result is (m n) x (m n); block i on
    the diagonal is the outer product of row i with itself. This is the
    output map each sensor can evaluate locally in the networked filter.
    Each sensor must take exactly one measurement, so every row of h needs
    exactly one nonzero.
    """
    h = np.atleast_2d(np.asarray(h, dtype=float))
    m, n = h.shape
    counts = np.count_nonzero(h, axis=1)
    if not np.all(counts == 1):
        bad = int(np.flatnonzero(counts != 1)[0])
        raise ValidationError(
            f"sensor {bad + 1} has {int(counts[bad])} measurements; the"
            f" block-diagonal output map needs exactly one per sensor"
        )
    gram = np.zeros((m * n, m * n))
    for i in range(m):
        gram[i * n:(i + 1) * n, i * n:(i + 1) * n] = np.outer(h[i], h[i])
    return gram


def reference_instance_json(instance: ProblemInstance) -> str:
    """The instance document as a dict written by ``json.dumps``."""
    doc = {
        "n": instance.n,
        "m": instance.m,
        "A": [[i + 1, j + 1] for (i, j) in instance.system_pattern.sorted_pairs()],
        "c": [
            {"sensor": i + 1, "state": j + 1, "cost": cost}
            for i, row in enumerate(instance.sensing_cost.tolist())
            for j, cost in enumerate(row)
            if cost != math.inf
        ],
        "net": {
            "undirected": instance.network_undirected,
            "links": [
                {"from": u + 1, "to": v + 1, "cost": cost}
                for (u, v), cost in sorted(instance.network.arcs.items())
            ],
        },
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def reference_design_json(result: DesignResult) -> str:
    """The design document as a dict written by ``json.dumps``."""
    doc = {
        "H": [[i + 1, j + 1] for (i, j) in result.measurement_pattern.sorted_pairs()],
        "W": [[i + 1, j + 1] for (i, j) in result.network_pattern.sorted_pairs()],
        "sensing_cost": result.sensing_cost,
        "networking_cost": result.networking_cost,
        "network_optimality": result.network_optimality,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _require(doc, key: str, kind, path: str):
    if key not in doc:
        raise ValidationError(f"{path}: missing required field '{key}'")
    value = doc[key]
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValidationError(f"{path}.{key}: expected a number, got {value!r}")
        try:
            return float(value)
        except OverflowError:
            raise ValidationError(f"{path}.{key}: must fit a float, got an integer of"
                                  f" {len(str(abs(value)))} digits") from None
    if isinstance(value, bool) and kind is int or not isinstance(value, kind):
        raise ValidationError(f"{path}.{key}: expected {kind.__name__}, got {value!r}")
    return value


def _index(value, upper: int, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{path}: expected an integer index, got {value!r}")
    if not (1 <= value <= upper):
        raise ValidationError(f"{path}: index {value} out of range 1..{upper}")
    return value - 1


def reference_parse_instance(text: str) -> ProblemInstance:
    """The instance document read one entry at a time, every check in
    document order."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"instance document is not valid JSON: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"instance document cannot be read: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError("instance document must be a JSON object")
    n = _require(doc, "n", int, "instance")
    m = _require(doc, "m", int, "instance")
    if n < 1 or m < 1:
        raise ValidationError(f"instance: need n >= 1 and m >= 1, got n={n}, m={m}")

    nonzeros = set()
    for k, pair in enumerate(_require(doc, "A", list, "instance")):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ValidationError(f"A[{k}]: expected a [row, col] pair, got {pair!r}")
        i = _index(pair[0], n, f"A[{k}][0]")
        j = _index(pair[1], n, f"A[{k}][1]")
        if (i, j) in nonzeros:
            raise ValidationError(f"A[{k}]: duplicate nonzero ({pair[0]}, {pair[1]})")
        nonzeros.add((i, j))

    sensing_cost = np.full((m, n), np.inf)
    for k, entry in enumerate(_require(doc, "c", list, "instance")):
        if not isinstance(entry, dict):
            raise ValidationError(f"c[{k}]: expected an object, got {entry!r}")
        i = _index(entry.get("sensor"), m, f"c[{k}].sensor")
        j = _index(entry.get("state"), n, f"c[{k}].state")
        cost = _require(entry, "cost", float, f"c[{k}]")
        if not math.isfinite(cost) or cost < 0:
            raise ValidationError(f"c[{k}].cost: must be finite and >= 0, got {cost}")
        if sensing_cost[i, j] != np.inf:
            raise ValidationError(f"c[{k}]: duplicate entry for sensor {i + 1}, state {j + 1}")
        sensing_cost[i, j] = cost

    net_doc = _require(doc, "net", dict, "instance")
    undirected = _require(net_doc, "undirected", bool, "net")
    arcs = {}
    for k, link in enumerate(_require(net_doc, "links", list, "net")):
        if not isinstance(link, dict):
            raise ValidationError(f"net.links[{k}]: expected an object, got {link!r}")
        u = _index(link.get("from"), m, f"net.links[{k}].from")
        v = _index(link.get("to"), m, f"net.links[{k}].to")
        cost = _require(link, "cost", float, f"net.links[{k}]")
        if not math.isfinite(cost) or cost < 0:
            raise ValidationError(f"net.links[{k}].cost: must be finite and >= 0, got {cost}")
        if u == v:
            raise ValidationError(f"net.links[{k}]: self-link {u + 1} -> {u + 1} is not allowed")
        if (u, v) in arcs:
            raise ValidationError(f"net.links[{k}]: duplicate link {u + 1} -> {v + 1}")
        arcs[(u, v)] = cost
    if undirected:
        for (u, v), cost in arcs.items():
            back = arcs.get((v, u))
            if back is None:
                raise ValidationError(f"net: undirected flag set but link {u + 1} -> {v + 1}"
                                      f" has no reverse link {v + 1} -> {u + 1}")
            if back != cost:
                raise ValidationError(f"net: undirected flag set but links {u + 1} <-> {v + 1}"
                                      f" have unequal costs {cost} and {back}")

    return ProblemInstance(
        n=n,
        m=m,
        system_pattern=StructuredMatrix(n, n, frozenset(nonzeros)),
        sensing_cost=sensing_cost,
        network=WeightedDigraph(m, arcs),
        network_undirected=undirected,
    )


def _pick(rng: np.random.Generator, items: list[int]) -> int:
    return items[int(rng.integers(0, len(items)))]


def _reference_group_states(rng: np.random.Generator, n: int, groups: int) -> list[list[int]]:
    sizes = [1] * groups
    for _ in range(n - groups):
        sizes[int(rng.integers(0, groups))] += 1
    order = [int(x) for x in rng.permutation(n)]
    out: list[list[int]] = []
    at = 0
    for size in sizes:
        out.append(order[at:at + size])
        at += size
    return out


def _reference_system_pattern(
    rng: np.random.Generator, n: int, m: int, density: float
) -> StructuredMatrix:
    extra_max = min(n - m, 3)
    children = int(rng.integers(0, extra_max + 1)) if extra_max > 0 else 0
    groups = _reference_group_states(rng, n, m + children)

    nonzeros: set[tuple[int, int]] = set()
    for group in groups:
        for a, b in zip(group, group[1:] + group[:1]):
            nonzeros.add((b, a))
        for a in group:
            for b in group:
                if (b, a) not in nonzeros and rng.random() < density:
                    nonzeros.add((b, a))

    for q in range(m, m + children):
        added = False
        for t in range(q):
            if rng.random() < density:
                a, b = _pick(rng, groups[q]), _pick(rng, groups[t])
                nonzeros.add((b, a))
                added = True
        if not added:
            t = int(rng.integers(0, q))
            a, b = _pick(rng, groups[q]), _pick(rng, groups[t])
            nonzeros.add((b, a))
    return StructuredMatrix(n, n, frozenset(nonzeros))


def _reference_network(
    rng: np.random.Generator, m: int, density: float, undirected: bool
) -> WeightedDigraph:
    arcs: dict[tuple[int, int], float] = {}
    if m == 1:
        return WeightedDigraph(1, arcs)
    order = [int(x) for x in rng.permutation(m)]
    if undirected:
        edges = {
            (min(u, v), max(u, v))
            for u, v in zip(order, order[1:] + order[:1])
        }
        for u in range(m):
            for v in range(u + 1, m):
                if (u, v) not in edges and rng.random() < density:
                    edges.add((u, v))
        for (u, v) in sorted(edges):
            cost = float(rng.uniform(1.0, 10.0))
            arcs[(u, v)] = cost
            arcs[(v, u)] = cost
        return WeightedDigraph(m, arcs)
    chosen = set(zip(order, order[1:] + order[:1]))
    for u in range(m):
        for v in range(m):
            if u != v and (u, v) not in chosen and rng.random() < density:
                chosen.add((u, v))
    for (u, v) in sorted(chosen):
        arcs[(u, v)] = float(rng.uniform(1.0, 10.0))
    return WeightedDigraph(m, arcs)


def reference_generate_instance(
    n: int, m: int, density: float = 0.3, seed: int = 0, undirected: bool = False
) -> ProblemInstance:
    """``generate_instance`` with the generator's own streams but one scalar
    draw per coin, group size and link cost, as the library once drew them."""
    return ProblemInstance(
        n=n,
        m=m,
        system_pattern=_reference_system_pattern(rng_for(seed, "system"), n, m, density),
        sensing_cost=rng_for(seed, "costs").uniform(1.0, 10.0, size=(m, n)),
        network=_reference_network(rng_for(seed, "network"), m, density, undirected),
        network_undirected=undirected,
    )
