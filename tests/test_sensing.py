import dataclasses
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obsnet import (
    GuardError,
    InfeasibleError,
    ProblemInstance,
    ShapeError,
    StructuredMatrix,
    ValidationError,
    WeightedDigraph,
    build_parent_cost_matrix,
    generate_instance,
    hungarian_solve,
    recover_measurement_structure,
    scc_decompose,
    solve_lsap,
)
from obsnet.graphs import DesignResult
from obsnet.sensing import ParentCostMatrix, brute_force_assignment
from oracles import parent_costs_by_scan, reference_lsap


def assignment_instance(n, m, costs, pattern=None) -> ProblemInstance:
    if pattern is None:
        pattern = StructuredMatrix(n, n, frozenset((j, j) for j in range(n)))
    return ProblemInstance(
        n=n,
        m=m,
        system_pattern=pattern,
        sensing_cost=costs,
        network=WeightedDigraph(m, {}) if m == 1 else WeightedDigraph(
            m, {(i, (i + 1) % m): 1.0 for i in range(m)}
        ),
    )


def random_cost_matrix(rng, m, forbid=0.25, integers=True):
    if integers:
        cost = rng.integers(1, 50, size=(m, m)).astype(float)
    else:
        cost = rng.uniform(0.1, 50.0, size=(m, m))
    cost[rng.random((m, m)) < forbid] = np.inf
    return cost


def test_parent_cost_matrix_picks_cheapest_state():
    # states 1,2 form one parent component, state 3 its own
    pattern = StructuredMatrix(3, 3, frozenset({(0, 1), (1, 0), (2, 2)}))
    instance = ProblemInstance(
        n=3,
        m=2,
        system_pattern=pattern,
        sensing_cost={(0, 0): 5.0, (0, 1): 2.0, (0, 2): 9.0, (1, 2): 4.0},
        network=WeightedDigraph(2, {(0, 1): 1.0, (1, 0): 1.0}),
    )
    partition = scc_decompose(pattern)
    matrix = build_parent_cost_matrix(instance, partition)
    assert matrix.parent_components == ((0, 1), (2,))
    assert matrix.cost[0, 0] == 2.0 and matrix.argmin_state[0, 0] == 1
    assert matrix.cost[0, 1] == 9.0 and matrix.argmin_state[0, 1] == 2
    assert np.isinf(matrix.cost[1, 0])
    assert matrix.cost[1, 1] == 4.0


def test_parent_cost_matrix_tie_prefers_lowest_state():
    pattern = StructuredMatrix(2, 2, frozenset({(0, 1), (1, 0)}))
    instance = ProblemInstance(
        n=2,
        m=1,
        system_pattern=pattern,
        sensing_cost={(0, 0): 3.0, (0, 1): 3.0},
        network=WeightedDigraph(1, {}),
    )
    partition = scc_decompose(pattern)
    matrix = build_parent_cost_matrix(instance, partition)
    assert matrix.argmin_state[0, 0] == 0


def test_parent_cost_matrix_matches_entry_scan():
    # costs in {1, 2, 3} make ties inside components common; inf forbids
    rng = np.random.default_rng(5)
    for seed in range(60):
        n = int(rng.integers(2, 12))
        m = int(rng.integers(1, min(n, 5) + 1))
        instance = generate_instance(n, m, density=0.3 * (seed % 3), seed=seed)
        table = rng.integers(1, 4, size=(m, n)).astype(float)
        table[rng.random((m, n)) < 0.3] = np.inf
        instance = dataclasses.replace(instance, sensing_cost=table)
        partition = scc_decompose(instance.system_pattern)
        matrix = build_parent_cost_matrix(instance, partition)
        cost, state = parent_costs_by_scan(instance)
        assert matrix.cost.tolist() == cost
        assert matrix.argmin_state.tolist() == state


def test_parent_count_mismatch_is_infeasible():
    pattern = StructuredMatrix(2, 2, frozenset({(0, 0), (1, 1)}))
    instance = ProblemInstance(
        n=2,
        m=1,
        system_pattern=pattern,
        sensing_cost={(0, 0): 1.0},
        network=WeightedDigraph(1, {}),
    )
    partition = scc_decompose(pattern)
    with pytest.raises(InfeasibleError, match="parent components"):
        build_parent_cost_matrix(instance, partition)


def test_lsap_single_entry():
    perm, total = solve_lsap(np.array([[7.0]]))
    assert list(perm) == [0]
    assert total == 7.0


def test_lsap_known_matrix():
    cost = np.array([[4.0, 1.0, 3.0], [2.0, 0.0, 5.0], [3.0, 2.0, 2.0]])
    perm, total = solve_lsap(cost)
    assert total == 5.0  # 1 + 2 + 2
    assert sorted(perm) == [0, 1, 2]


def test_lsap_respects_forbidden_entries():
    inf = np.inf
    cost = np.array([[1.0, inf], [inf, 1.0]])
    perm, total = solve_lsap(cost)
    assert list(perm) == [0, 1]
    assert total == 2.0


def test_lsap_infeasible_names_hall_violator():
    inf = np.inf
    # sensors 0 and 1 can only use column 0
    cost = np.array([[2.0, inf, inf], [5.0, inf, inf], [1.0, 2.0, 3.0]])
    with pytest.raises(InfeasibleError) as exc:
        solve_lsap(cost)
    message = str(exc.value)
    assert "sensors [1, 2]" in message
    assert "[1]" in message


def test_hall_certificate_is_always_genuine():
    rng = np.random.default_rng(11)
    seen = 0
    for _ in range(300):
        m = int(rng.integers(2, 8))
        cost = random_cost_matrix(rng, m, forbid=0.55)
        try:
            solve_lsap(cost)
        except InfeasibleError as exc:
            seen += 1
            # recompute the violation from the message indices
            msg = str(exc)
            rows = json.loads(msg.split("sensors ")[1].split(" can only")[0])
            cols = json.loads(msg.split("components ")[1].split(" (")[0])
            rows0 = [r - 1 for r in rows]
            cols0 = {c - 1 for c in cols}
            finite = {
                int(j) for r in rows0 for j in np.flatnonzero(np.isfinite(cost[r]))
            }
            assert finite <= cols0
            assert len(rows0) > len(cols0)
    assert seen > 20  # the sweep actually exercised infeasible cases


def _outcome(solver, cost):
    """(column per row, total as hex) or (exception type, message)."""
    try:
        perm, total = solver(cost)
    except (InfeasibleError, ShapeError) as exc:
        return type(exc), str(exc)
    return perm.tolist(), total.hex()


def test_lsap_matches_reference_loop_step_for_step():
    # same permutation, bit-identical total, same exception and message
    rng = np.random.default_rng(15)
    infeasible = 0
    for trial in range(2100):
        m = int(rng.integers(1, 26))
        kind = trial % 3
        if kind == 0:
            cost = rng.integers(0, 3, size=(m, m)).astype(float)
        elif kind == 1:
            cost = rng.integers(0, 40, size=(m, m)) * 0.1
        else:
            cost = rng.uniform(0.0, 10.0, size=(m, m))
        cost[rng.random((m, m)) < rng.uniform(0.20, 0.25)] = np.inf
        expected = _outcome(reference_lsap, cost)
        assert _outcome(solve_lsap, cost) == expected, (trial, cost)
        infeasible += expected[0] is InfeasibleError
    assert infeasible > 30  # Hall violations were exercised (44 at this seed)
    for cost in (
        rng.uniform(0.0, 10.0, size=(100, 100)),
        rng.uniform(0.0, 10.0, size=(400, 400)),
        rng.integers(1, 6, size=(200, 200)).astype(float),
    ):
        assert _outcome(solve_lsap, cost) == _outcome(reference_lsap, cost)


def test_lsap_leaves_the_callers_matrix_alone():
    rng = np.random.default_rng(8)
    for _ in range(50):
        m = int(rng.integers(1, 12))
        cost = random_cost_matrix(rng, m, forbid=0.3, integers=False)
        before = cost.tobytes()
        expected = _outcome(solve_lsap, cost)
        assert cost.tobytes() == before
        frozen = cost.copy()
        frozen.flags.writeable = False
        assert _outcome(solve_lsap, frozen) == expected
        assert frozen.tobytes() == before


@pytest.mark.parametrize(
    "cost",
    [
        [[-np.inf]],
        [[1.0, -np.inf], [2.0, 3.0]],
        [[np.nan, 1.0], [1.0, 2.0]],
        [[-1.0, 1.0], [1.0, 2.0]],
    ],
)
def test_every_solver_refuses_negative_and_nan_costs(cost):
    cost = np.array(cost)
    matrix = dataclasses.replace(build_fake_matrix(cost.shape[0]), cost=cost)
    message = "assignment costs must be nonnegative (inf = forbidden)"
    for solve in (
        lambda: solve_lsap(cost),
        lambda: hungarian_solve(matrix),
        lambda: brute_force_assignment(matrix),
    ):
        with pytest.raises(ShapeError) as info:
            solve()
        assert str(info.value) == message


@pytest.mark.parametrize(
    "cost, message",
    [
        ([["a"]], "assignment cost must hold real numbers, got dtype <U1"),
        ([[1, 2], [3]], "assignment cost is not an array: "),
        ([[1 + 2j]], "assignment cost must hold real numbers, got dtype complex128"),
        ([["1.5"]], "assignment cost must hold real numbers, got dtype <U3"),
        ([[True]], "assignment cost must hold real numbers, got dtype bool"),
    ],
)
def test_lsap_refuses_costs_that_are_not_real_numbers(cost, message):
    with pytest.raises(ShapeError) as info:
        solve_lsap(cost)
    assert str(info.value).startswith(message)


def test_hungarian_equals_brute_force_on_random_matrices():
    rng = np.random.default_rng(2)
    for trial in range(200):
        m = int(rng.integers(1, 8))
        cost = random_cost_matrix(rng, m, forbid=0.2, integers=bool(trial % 2))
        try:
            _, fast = solve_lsap(cost.copy())
        except InfeasibleError:
            fast = None
        # brute force by permutation scan
        best = None
        for perm in itertools.permutations(range(m)):
            total = sum(cost[i, p] for i, p in enumerate(perm))
            if np.isfinite(total) and (best is None or total < best):
                best = float(total)
        if best is None:
            assert fast is None
        else:
            assert fast is not None
            assert abs(fast - best) < 1e-9


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_lsap_optimum_never_above_any_permutation(m, seed):
    rng = np.random.default_rng(seed)
    cost = rng.uniform(0.0, 10.0, size=(m, m))
    perm, total = solve_lsap(cost.copy())
    other = rng.permutation(m)
    assert total <= float(sum(cost[i, p] for i, p in enumerate(other))) + 1e-9
    assert abs(total - float(sum(cost[i, p] for i, p in enumerate(perm)))) < 1e-12


def test_solver_totals_are_bitwise_equal():
    # both solvers accumulate in sensor order, so ties give identical floats
    partition_pattern = StructuredMatrix(
        4, 4, frozenset((j, j) for j in range(4))
    )
    for seed in range(40):
        rng = np.random.default_rng(seed)
        costs = {
            (i, j): float(rng.integers(1, 6)) / 8.0
            for i in range(4)
            for j in range(4)
        }
        instance = assignment_instance(4, 4, costs, partition_pattern)
        partition = scc_decompose(partition_pattern)
        matrix = build_parent_cost_matrix(instance, partition)
        fast = hungarian_solve(matrix)
        slow = brute_force_assignment(matrix)
        assert fast.total_cost == slow.total_cost


def build_fake_matrix(m):
    return ParentCostMatrix(
        size=m,
        cost=np.ones((m, m)),
        argmin_state=np.zeros((m, m), dtype=np.int64),
        parent_components=tuple((i,) for i in range(m)),
    )


def test_brute_force_guard():
    with pytest.raises(GuardError):
        brute_force_assignment(build_fake_matrix(11))


def test_recover_measurement_structure():
    from obsnet.sensing import SensorAssignment

    assignment = SensorAssignment(
        assignment=(1, 0), measured_state=(3, 0), total_cost=2.0
    )
    h = recover_measurement_structure(assignment, n=4)
    assert h.nonzeros == frozenset({(0, 3), (1, 0)})
    # a state measured twice is the design's column rule to refuse
    clash = SensorAssignment(assignment=(0, 1), measured_state=(2, 2), total_cost=2.0)
    h = recover_measurement_structure(clash, n=4)
    assert h.nonzeros == frozenset({(0, 2), (1, 2)})
    w = StructuredMatrix(2, 2, frozenset({(0, 1), (1, 0)}))
    with pytest.raises(ValidationError) as info:
        DesignResult(h, w, 2.0, 2.0, "exact")
    assert str(info.value) == "measurement pattern must have at most one nonzero per column"


def test_cost_monotonicity_under_cheaper_entries():
    # lowering one sensing cost can only lower (or keep) the optimum
    rng = np.random.default_rng(21)
    for _ in range(50):
        m = int(rng.integers(2, 6))
        cost = rng.uniform(1.0, 9.0, size=(m, m))
        _, before = solve_lsap(cost.copy())
        i, j = int(rng.integers(m)), int(rng.integers(m))
        cheaper = cost.copy()
        cheaper[i, j] = cost[i, j] / 2
        _, after = solve_lsap(cheaper)
        assert after <= before + 1e-9
