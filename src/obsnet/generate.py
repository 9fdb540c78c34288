"""Random problem instances with the structure the design pipeline expects.

Construction guarantees, not just high probability: the system pattern is
structurally full rank (its edges contain a spanning family of disjoint
cycles), the state digraph has exactly as many parent components as there
are sensors, every (sensor, state) pair has a finite sensing cost, and the
candidate network is strongly connected.
"""

from __future__ import annotations

import numbers
from itertools import compress

import numpy as np

from .errors import ValidationError
from .graphs import ProblemInstance, StructuredMatrix, WeightedDigraph
from .rng import rng_for

__all__ = ["generate_instance"]

MAX_CHILD_GROUPS = 3


def _pick(rng: np.random.Generator, items: list[int]) -> int:
    return items[int(rng.integers(0, len(items)))]


def _group_states(rng: np.random.Generator, n: int, groups: int) -> list[list[int]]:
    # each group gets one state, then each other state a uniformly drawn group
    sizes = np.bincount(rng.integers(0, groups, size=n - groups), minlength=groups) + 1
    order = rng.permutation(n).tolist()
    ends = np.cumsum(sizes).tolist()
    return [order[end - size:end] for size, end in zip(sizes.tolist(), ends)]


def _system_pattern(rng: np.random.Generator, n: int, m: int, density: float) -> StructuredMatrix:
    extra_max = min(n - m, MAX_CHILD_GROUPS)
    children = int(rng.integers(0, extra_max + 1)) if extra_max > 0 else 0
    groups = _group_states(rng, n, m + children)

    # a cycle through each group: the union over groups is a spanning family
    # of disjoint cycles, hence structural full rank
    nonzeros: set[tuple[int, int]] = set()
    for group in groups:
        nonzeros.update(zip(group[1:] + group[:1], group))  # edge a -> b is entry (b, a)
    # then each other edge inside a group with probability density, one coin
    # per candidate in (group, a, b) order
    optional = [(b, a) for group in groups for a in group for b in group
                if (b, a) not in nonzeros]
    nonzeros.update(compress(optional, (rng.random(len(optional)) < density).tolist()))

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
    if m == 1:
        return WeightedDigraph(1, {})
    nodes = np.arange(m)
    allowed = nodes[:, None] < nodes if undirected else nodes[:, None] != nodes
    order = rng.permutation(m)
    chosen = np.zeros((m, m), dtype=bool)
    chosen[order, np.concatenate((order[1:], order[:1]))] = True  # a directed ring: SC
    if undirected:
        chosen |= chosen.T
    # each other link with probability density, one coin per candidate in
    # row-major order, then one cost per link in the same order
    candidates = allowed & ~chosen
    chosen[candidates] = rng.random(np.count_nonzero(candidates)) < density
    chosen &= allowed
    u, v = np.nonzero(chosen)
    links = zip(u.tolist(), v.tolist(), rng.uniform(1.0, 10.0, size=u.size).tolist())
    arcs: dict[tuple[int, int], float] = {}
    for a, b, cost in links:
        arcs[(a, b)] = cost
        if undirected:
            arcs[(b, a)] = cost
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

    # The (m, n) costs, the largest array, come first, so a size numpy refuses
    # or cannot allocate fails before any other work; each section draws from
    # its own stream, so the order changes no draw.
    try:
        sensing_cost = rng_for(seed, "costs").uniform(1.0, 10.0, size=(m, n))
        pattern = _system_pattern(rng_for(seed, "system"), n, m, density)
        network = _network(rng_for(seed, "network"), m, density, undirected)
    except (ValueError, MemoryError) as exc:
        raise ValidationError(f"a {m}x{n} instance is too large to generate: {exc}") from exc
    return ProblemInstance(
        n=n,
        m=m,
        system_pattern=pattern,
        sensing_cost=sensing_cost,
        network=network,
        network_undirected=undirected,
    )
