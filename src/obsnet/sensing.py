"""Measurement selection: reduce sensing costs to an assignment problem.

Parent components are disjoint, so choosing which sensor covers which parent
component is a square assignment problem once each (sensor, component) pair
is priced at the cheapest state inside the component. The assignment is
solved exactly with a shortest-augmenting-path Hungarian method that skips
forbidden entries natively and certifies infeasibility with a Hall-condition
violator.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import GuardError, InfeasibleError, ShapeError
from .graphs import ProblemInstance, StructuredMatrix, real_array
from .structural import SccPartition

__all__ = [
    "ParentCostMatrix",
    "SensorAssignment",
    "build_parent_cost_matrix",
    "hungarian_solve",
    "brute_force_assignment",
    "recover_measurement_structure",
]

BRUTE_FORCE_MAX_SENSORS = 10


@dataclass(frozen=True)
class ParentCostMatrix:
    """Sensor x parent-component costs, with the state achieving each minimum.

    ``cost`` is an m x m float array; ``np.inf`` marks a forbidden pair
    (the sensor may measure no state of that component). ``argmin_state[i, p]``
    is the state index attaining ``cost[i, p]``, or -1 where forbidden. Ties
    inside a component break toward the lowest state index.
    """

    size: int
    cost: np.ndarray
    argmin_state: np.ndarray
    parent_components: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class SensorAssignment:
    """A sensor -> parent-component bijection with its measured states.

    ``assignment[i]`` is the parent component covered by sensor i,
    ``measured_state[i]`` the state it measures, and ``total_cost`` the sum
    of the chosen sensing costs, accumulated in sensor order.
    """

    assignment: tuple[int, ...]
    measured_state: tuple[int, ...]
    total_cost: float


def build_parent_cost_matrix(
    instance: ProblemInstance, partition: SccPartition
) -> ParentCostMatrix:
    """Price every (sensor, parent component) pair at its cheapest state.

    Requires as many sensors as parent components; with fewer parents some
    sensor would sit idle, with more the system cannot be covered, so both
    are rejected rather than padded.
    """
    parents = tuple(tuple(c) for c in partition.parent_components())
    m = instance.m
    if len(parents) != m:
        raise InfeasibleError(
            f"instance has {len(parents)} parent components but {m} sensors;"
            f" the assignment reduction needs them equal"
        )
    cost = np.empty((m, m))
    argmin_state = np.empty((m, m), dtype=np.int64)
    for p, comp in enumerate(parents):
        states = np.array(comp)
        block = instance.sensing_cost[:, states]
        k = block.argmin(axis=1)  # components are sorted: ties pick the lowest state
        cost[:, p] = block.min(axis=1)
        argmin_state[:, p] = np.where(np.isinf(cost[:, p]), -1, states[k])
    return ParentCostMatrix(
        size=m, cost=cost, argmin_state=argmin_state, parent_components=parents
    )


def _total_cost(cost: np.ndarray, perm: tuple[int, ...] | list[int] | np.ndarray) -> float:
    # Plain left-to-right accumulation so every solver reports bit-identical
    # totals for the same selected entries.
    return float(sum(float(cost[i, j]) for i, j in enumerate(perm)))


def _hall_violator(cost: np.ndarray, rows: list[int]) -> tuple[list[int], list[int]]:
    """Certificate of infeasibility from a failed augmenting search.

    When the search tree for one row dies, every finite entry of every row in
    the tree sits in an already-scanned column, and the tree holds one more
    row than scanned columns. The tree rows therefore violate Hall's
    condition; return them with their combined feasible columns.
    """
    rows = sorted(set(rows))
    cols = sorted({int(j) for i in rows for j in np.flatnonzero(np.isfinite(cost[i]))})
    return rows, cols


def _check_costs(cost: np.ndarray) -> None:
    """The one entry rule of both assignment solvers: NaN and any negative
    entry, ``-inf`` included, are refused; ``+inf`` marks a forbidden pair."""
    if np.isnan(cost).any() or (cost < 0).any():
        raise ShapeError("assignment costs must be nonnegative (inf = forbidden)")


def solve_lsap(cost: np.ndarray) -> tuple[np.ndarray, float]:
    """Minimum-cost perfect assignment on a square matrix with inf = forbidden.

    Shortest augmenting path formulation with dual potentials, one
    augmentation per row, O(m^3) overall. Returns (column per row, total).
    Raises InfeasibleError carrying a sensor set that violates Hall's
    condition when no complete assignment exists, and ShapeError for costs
    that are not a square array of int, uint or float.
    """
    cost = real_array(cost, "assignment cost", ShapeError)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise ShapeError(f"assignment needs a square matrix, got {cost.shape}")
    _check_costs(cost)
    m = cost.shape[0]
    INF = np.inf
    u = np.zeros(m)
    v = np.zeros(m)
    row_of_col = np.full(m + 1, -1, dtype=np.int64)  # index m is the virtual start column
    # A free column's v never changes inside one row's search, and a tree
    # row's u is read only when the row joins. So the tree's rows and used
    # columns, with their potentials, live in these buffers in joining order,
    # take one slice update per step, and are written back when the search
    # ends. minv stays +inf on used columns, so no step needs a free mask.
    tree_rows = np.empty(m, dtype=np.int64)
    tree_cols = np.empty(m, dtype=np.int64)
    u_tree = np.empty(m)
    v_tree = np.empty(m)
    cur = np.empty(m)
    better = np.empty(m, dtype=bool)
    minv = np.empty(m)
    way = np.empty(m, dtype=np.int64)
    for i in range(m):
        row_of_col[m] = i
        minv.fill(INF)
        way.fill(m)
        tree_rows[0] = i
        u_tree[0] = u[i]
        k = 1  # tree rows; the tree's used real columns are tree_cols[:k - 1]
        i0, j0 = i, m
        while True:
            np.subtract(cost[i0], u_tree[k - 1], out=cur)
            np.subtract(cur, v, out=cur)
            cur[tree_cols[: k - 1]] = INF
            np.less(cur, minv, out=better)
            np.copyto(minv, cur, where=better)
            np.copyto(way, j0, where=better)
            j1 = int(minv.argmin())
            delta = minv[j1]
            if not math.isfinite(delta):
                rows, cols = _hall_violator(cost, tree_rows[:k].tolist())
                raise InfeasibleError(
                    f"no feasible assignment: sensors {[r + 1 for r in rows]} can"
                    f" only cover parent components {[c + 1 for c in cols]}"
                    f" ({len(rows)} sensors, {len(cols)} components)"
                )
            u_tree[:k] += delta
            v_tree[: k - 1] -= delta
            minv -= delta
            j0 = j1
            i0 = int(row_of_col[j0])
            if i0 == -1:
                break
            minv[j0] = INF
            tree_cols[k - 1] = j0
            v_tree[k - 1] = v[j0]
            tree_rows[k] = i0
            u_tree[k] = u[i0]
            k += 1
        u[tree_rows[:k]] = u_tree[:k]
        v[tree_cols[: k - 1]] = v_tree[: k - 1]
        while j0 != m:  # walk the alternating path back, flipping matches
            j1 = int(way[j0])
            row_of_col[j0] = row_of_col[j1]
            j0 = j1
    col_of_row = np.empty(m, dtype=np.int64)
    col_of_row[row_of_col[:m]] = np.arange(m)
    return col_of_row, _total_cost(cost, col_of_row)


def hungarian_solve(matrix: ParentCostMatrix) -> SensorAssignment:
    """Exact minimum-cost sensor-to-parent-component assignment."""
    perm, total = solve_lsap(matrix.cost)
    measured = tuple(int(matrix.argmin_state[i, perm[i]]) for i in range(matrix.size))
    return SensorAssignment(
        assignment=tuple(int(p) for p in perm),
        measured_state=measured,
        total_cost=total,
    )


def brute_force_assignment(matrix: ParentCostMatrix) -> SensorAssignment:
    """Oracle: enumerate all permutations; lexicographically first optimum wins."""
    m = matrix.size
    if m > BRUTE_FORCE_MAX_SENSORS:
        raise GuardError(
            f"brute-force assignment guard: m={m} exceeds {BRUTE_FORCE_MAX_SENSORS}"
        )
    cost = matrix.cost
    _check_costs(cost)
    rows = np.arange(m)
    best_cost = np.inf
    best_perm: tuple[int, ...] | None = None
    perms = itertools.permutations(range(m))
    while True:
        chunk = list(itertools.islice(perms, 100_000))
        if not chunk:
            break
        arr = np.array(chunk, dtype=np.int64)
        totals = cost[rows, arr].sum(axis=1)
        k = int(np.argmin(totals))
        if totals[k] < best_cost:  # strict: ties keep the earlier (lex smaller) permutation
            best_cost = float(totals[k])
            best_perm = tuple(int(x) for x in arr[k])
    if best_perm is None or not np.isfinite(best_cost):
        raise InfeasibleError("no feasible assignment avoids the forbidden entries")
    measured = tuple(int(matrix.argmin_state[i, best_perm[i]]) for i in range(m))
    return SensorAssignment(
        assignment=best_perm,
        measured_state=measured,
        total_cost=_total_cost(cost, best_perm),
    )


def recover_measurement_structure(assignment: SensorAssignment, n: int) -> StructuredMatrix:
    """Measurement pattern with one nonzero per sensor at its chosen state;
    ``DesignResult`` refuses one that measures a state twice."""
    m = len(assignment.assignment)
    return StructuredMatrix(m, n, frozenset(enumerate(assignment.measured_state)))
