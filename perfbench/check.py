"""Checks of obsnet's output documents that do not use obsnet's own code.

Each check reads the JSON documents itself and recomputes what it can with
scipy: the strongly connected components of the state digraph, the optimal
sensing cost (an assignment problem), the minimum spanning tree of an
undirected network, and a lower bound on a directed network's cost. Each
function returns a list of problems; empty means the document is correct.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components, minimum_spanning_tree


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


class Instance:
    """The parts of an instance document the checks need, 0-based."""

    def __init__(self, text: str):
        doc = json.loads(text)
        self.n, self.m = doc["n"], doc["m"]
        # pattern entry (i, j) is the state edge j -> i
        self.edges = [(j - 1, i - 1) for i, j in doc["A"]]
        self.cost = np.full((self.m, self.n), np.inf)
        for entry in doc["c"]:
            self.cost[entry["sensor"] - 1, entry["state"] - 1] = entry["cost"]
        self.undirected = doc["net"]["undirected"]
        self.links = {(k["from"] - 1, k["to"] - 1): k["cost"] for k in doc["net"]["links"]}


def check_instance(text: str, n: int, m: int, undirected: bool) -> list[str]:
    inst = Instance(text)
    problems = []
    if (inst.n, inst.m, inst.undirected) != (n, m, undirected):
        problems.append(f"instance is n={inst.n}, m={inst.m}, undirected={inst.undirected};"
                        f" asked for n={n}, m={m}, undirected={undirected}")
    if not np.isfinite(inst.cost).all():
        problems.append("instance lacks some sensing costs")
    return problems


def _strong_labels(size: int, arcs) -> tuple[int, np.ndarray]:
    rows = [u for u, _ in arcs]
    cols = [v for _, v in arcs]
    graph = coo_matrix((np.ones(len(arcs)), (rows, cols)), shape=(size, size))
    return connected_components(graph, directed=True, connection="strong")


def _optimal_sensing_cost(inst: Instance) -> tuple[float, np.ndarray, set[int]]:
    """Optimal sensing cost, the state -> component labels, the parent labels."""
    _, labels = _strong_labels(inst.n, inst.edges)
    has_exit = np.zeros(labels.max() + 1, dtype=bool)
    for a, b in inst.edges:
        if labels[a] != labels[b]:
            has_exit[labels[a]] = True
    parents = np.flatnonzero(~has_exit)
    if len(parents) != inst.m:
        raise ValueError(f"{len(parents)} parent components for {inst.m} sensors")
    table = np.column_stack([inst.cost[:, labels == p].min(axis=1) for p in parents])
    rows, cols = linear_sum_assignment(table)
    return float(table[rows, cols].sum()), labels, set(parents.tolist())


def check_design(inst_text: str, text: str) -> list[str]:
    """A design must be feasible, its costs must add up, its sensing cost must
    be optimal, and its network cost must be twice the MST weight (undirected)
    or at least the cheapest-link bound (directed). The recorded digests pin
    the exact directed designs for the default and held-out seeds."""
    inst = Instance(inst_text)
    doc = json.loads(text)
    problems = []
    h = [(i - 1, j - 1) for i, j in doc["H"]]
    w = [(i - 1, j - 1) for i, j in doc["W"]]

    try:
        optimum, labels, parents = _optimal_sensing_cost(inst)
    except ValueError as exc:
        return [f"instance outside the design pipeline's scope: {exc}"]
    if sorted(i for i, _ in h) != list(range(inst.m)):
        problems.append("H does not give every sensor exactly one measurement")
    covered = [int(labels[j]) for _, j in h]
    if len(set(covered)) != len(covered) or not set(covered) <= parents:
        problems.append("H does not cover each parent component exactly once")
    spent = sum(float(inst.cost[i, j]) for i, j in sorted(h))
    if not _close(doc["sensing_cost"], spent):
        problems.append(f"sensing_cost {doc['sensing_cost']} but H costs {spent}")
    if not _close(doc["sensing_cost"], optimum):
        problems.append(f"sensing_cost {doc['sensing_cost']} but the optimum is {optimum}")

    if any(arc not in inst.links for arc in w):
        problems.append("W uses a link outside the candidate network")
        return problems
    spent = sum(inst.links[arc] for arc in w)
    if not _close(doc["networking_cost"], spent):
        problems.append(f"networking_cost {doc['networking_cost']} but W costs {spent}")
    if inst.m == 1:
        return problems
    if _strong_labels(inst.m, w)[0] != 1:
        problems.append("W is not strongly connected")
    if inst.undirected:
        rows, cols = zip(*inst.links)
        tree = minimum_spanning_tree(
            coo_matrix((list(inst.links.values()), (rows, cols)), shape=(inst.m, inst.m)))
        if doc["network_optimality"] != "exact" or not _close(
                doc["networking_cost"], 2 * float(tree.sum())):
            problems.append(f"undirected networking_cost {doc['networking_cost']} is not"
                            f" twice the MST weight {float(tree.sum())}")
    else:
        # In a strongly connected W every sensor has a link in and a link out,
        # so W costs at least the cheapest in-link (or out-link) per sensor.
        cheapest_in = np.full(inst.m, np.inf)
        cheapest_out = np.full(inst.m, np.inf)
        for (u, v), cost in inst.links.items():
            cheapest_in[v] = min(cheapest_in[v], cost)
            cheapest_out[u] = min(cheapest_out[u], cost)
        low = max(cheapest_in.sum(), cheapest_out.sum())
        if doc["network_optimality"] != "two_approx" or doc["networking_cost"] < low - 1e-9:
            problems.append(f"directed networking_cost {doc['networking_cost']} below the"
                            f" bound {low} or not marked two_approx")
    return problems


def check_verify(text: str, trials: int) -> list[str]:
    doc = json.loads(text)
    expected = {"trials": trials, "passes": trials, "rank_deficits": [], "tolerance": 1e-8}
    if doc != expected:
        return [f"verify report {doc} is not {expected}"]
    return []
