"""Random problem instances with the structure the design pipeline expects.

Construction guarantees, not just high probability: the system pattern is
structurally full rank (its edges contain a spanning family of disjoint
cycles), the state digraph has exactly as many parent components as there
are sensors, every (sensor, state) pair has a finite sensing cost, and the
candidate network is strongly connected.
"""

from __future__ import annotations

import numbers

import numpy as np

from .errors import ValidationError
from .graphs import ProblemInstance, StructuredMatrix, WeightedDigraph
from .rng import rng_for

__all__ = ["generate_instance"]

MAX_CHILD_GROUPS = 3


def _pick(rng: np.random.Generator, items: list[int]) -> int:
    return items[int(rng.integers(0, len(items)))]


def _group_states(rng: np.random.Generator, n: int, groups: int) -> list[list[int]]:
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


def _system_pattern(rng: np.random.Generator, n: int, m: int, density: float) -> StructuredMatrix:
    extra_max = min(n - m, MAX_CHILD_GROUPS)
    children = int(rng.integers(0, extra_max + 1)) if extra_max > 0 else 0
    groups = _group_states(rng, n, m + children)

    nonzeros: set[tuple[int, int]] = set()
    for group in groups:
        # a cycle through the group: the union over groups is a spanning
        # family of disjoint cycles, hence structural full rank
        for a, b in zip(group, group[1:] + group[:1]):
            nonzeros.add((b, a))  # edge a -> b is pattern entry (b, a)
        for a in group:
            for b in group:
                if (b, a) not in nonzeros and rng.random() < density:
                    nonzeros.add((b, a))

    # Cross-group edges only run from higher to lower group index, so the
    # groups stay exactly the strongly connected components. The first m
    # groups get no outgoing edge (they are the parents); every child group
    # gets at least one, so the parent count is exactly m.
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


def _network(
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
    chosen = set(zip(order, order[1:] + order[:1]))  # a directed ring: SC
    for u in range(m):
        for v in range(m):
            if u != v and (u, v) not in chosen and rng.random() < density:
                chosen.add((u, v))
    for (u, v) in sorted(chosen):
        arcs[(u, v)] = float(rng.uniform(1.0, 10.0))
    return WeightedDigraph(m, arcs)


def generate_instance(
    n: int,
    m: int,
    density: float = 0.3,
    seed: int = 0,
    undirected: bool = False,
) -> ProblemInstance:
    """Deterministic random instance for a given seed.

    ``density`` sets the probability of optional extra edges in both the
    system pattern and the candidate network; the guaranteed structure
    (spanning cycles, m parent components, strong connectivity) is present
    even at density 0. Randomness flows through named substreams, so the
    system, the costs and the network each see stable draws regardless of
    the other sections.
    """
    if not all(isinstance(k, numbers.Integral) and type(k) is not bool for k in (n, m)):
        raise ValidationError(f"n and m must be integers, got n={n!r}, m={m!r}")
    if not isinstance(density, numbers.Real) or type(density) is bool:
        raise ValidationError(f"density must be a real number, got {density!r}")
    if n < 1 or m < 1:
        raise ValidationError(f"need n >= 1 and m >= 1, got n={n}, m={m}")
    if m > n:
        raise ValidationError(
            f"cannot place {m} sensors over {n} states: each sensor covers"
            f" a distinct parent component and each component needs a state"
        )
    if not 0.0 <= density <= 1.0:
        raise ValidationError(f"density must lie in [0, 1], got {density}")

    pattern = _system_pattern(rng_for(seed, "system"), n, m, density)
    sensing_cost = rng_for(seed, "costs").uniform(1.0, 10.0, size=(m, n))
    network = _network(rng_for(seed, "network"), m, density, undirected)
    return ProblemInstance(
        n=n,
        m=m,
        system_pattern=pattern,
        sensing_cost=sensing_cost,
        network=network,
        network_undirected=undirected,
    )
