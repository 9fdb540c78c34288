import numpy as np
import pytest

from obsnet import (
    InfeasibleError,
    ProblemInstance,
    ScopeError,
    StructuredMatrix,
    WeightedDigraph,
    brute_force_msss,
    check_distributed_observability_structural,
    design_instance,
    generate_instance,
    mst_solve,
)
from oracles import brute_force_sensing_cost


def test_design_passes_structural_gate():
    for seed in range(25):
        n = 2 + seed % 6
        m = 1 + seed % min(4, n)
        instance = generate_instance(n, m, density=0.35, seed=seed)
        design = design_instance(instance)
        assert check_distributed_observability_structural(
            instance, design.measurement_pattern, design.network_pattern
        )
        assert set(design.network_pattern.nonzeros) <= set(instance.network.arcs)


def test_design_sensing_cost_matches_oracle():
    for seed in range(60):
        n = 2 + seed % 5  # up to 6 states
        m = 1 + seed % min(4, n)
        instance = generate_instance(n, m, density=(seed % 4) / 4.0, seed=1000 + seed)
        design = design_instance(instance)
        expect = brute_force_sensing_cost(instance)
        assert expect is not None
        assert abs(design.sensing_cost - expect) < 1e-9


def test_design_single_sensor():
    instance = generate_instance(4, 1, density=0.3, seed=2)
    design = design_instance(instance)
    assert design.network_pattern.nonzeros == frozenset()
    assert design.networking_cost == 0.0
    assert design.network_optimality == "exact"


def test_design_undirected_uses_mst():
    instance = generate_instance(5, 4, density=0.6, seed=9, undirected=True)
    design = design_instance(instance)
    assert design.network_optimality == "exact"
    assert design.networking_cost == mst_solve(instance.network).total_cost
    # both directions of every chosen link present
    for (u, v) in design.network_pattern.nonzeros:
        assert (v, u) in design.network_pattern.nonzeros


def test_design_exact_mode_matches_brute_force():
    for seed in (3, 4, 5):
        instance = generate_instance(5, 4, density=0.2, seed=seed)
        if len(instance.network.arcs) > 20:
            continue
        fast = design_instance(instance)
        exact = design_instance(instance, exact=True)
        expect = brute_force_msss(instance.network)
        assert exact.networking_cost == expect.total_cost
        assert exact.network_optimality == "exact"
        assert exact.networking_cost <= fast.networking_cost


def test_design_fixed_root_never_beats_all_roots():
    rng = np.random.default_rng(6)
    for seed in range(10):
        m = int(rng.integers(2, 5))
        instance = generate_instance(6, m, density=0.4, seed=300 + seed)
        best = design_instance(instance)
        for root in range(m):
            fixed = design_instance(instance, root=root)
            assert best.networking_cost <= fixed.networking_cost


def test_design_rejects_rank_deficient_system():
    instance = ProblemInstance(
        n=2,
        m=1,
        system_pattern=StructuredMatrix(2, 2, frozenset({(0, 0), (0, 1)})),
        sensing_cost={(0, 0): 1.0, (0, 1): 1.0},
        network=WeightedDigraph(1, {}),
    )
    with pytest.raises(ScopeError):
        design_instance(instance)


def test_design_infeasible_when_sensor_cannot_cover():
    # two parent components but sensor 1 may only measure component 1's state
    instance = ProblemInstance(
        n=2,
        m=2,
        system_pattern=StructuredMatrix(2, 2, frozenset({(0, 0), (1, 1)})),
        sensing_cost={(0, 0): 1.0, (1, 0): 2.0},
        network=WeightedDigraph(2, {(0, 1): 1.0, (1, 0): 1.0}),
    )
    with pytest.raises(InfeasibleError):
        design_instance(instance)


def test_design_infeasible_when_parents_outnumber_sensors():
    instance = ProblemInstance(
        n=3,
        m=2,
        system_pattern=StructuredMatrix(3, 3, frozenset({(0, 0), (1, 1), (2, 2)})),
        sensing_cost={(i, j): 1.0 for i in range(2) for j in range(3)},
        network=WeightedDigraph(2, {(0, 1): 1.0, (1, 0): 1.0}),
    )
    with pytest.raises(InfeasibleError, match="parent components"):
        design_instance(instance)


def test_design_costs_are_reported_separately():
    instance = generate_instance(6, 3, density=0.4, seed=77)
    design = design_instance(instance)
    sensing = sum(
        instance.sensing_cost[i, j]
        for (i, j) in sorted(design.measurement_pattern.nonzeros)
    )
    networking = sum(
        instance.network.arcs[a] for a in sorted(design.network_pattern.nonzeros)
    )
    assert design.sensing_cost == sensing
    assert design.networking_cost == networking
