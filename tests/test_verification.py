import numpy as np
import pytest

from obsnet import (
    GuardError,
    InfeasibleError,
    ProblemInstance,
    ShapeError,
    StructuredMatrix,
    ValidationError,
    WeightedDigraph,
    design_instance,
    generate_instance,
    kalman_rank_observable,
    make_row_stochastic,
    observability_trial,
    realize_numeric,
    rng_for,
    verify_design_numeric,
)
from obsnet import verification
from obsnet.verification import _STACK_BYTES, _trial_ranks
from oracles import (
    build_measurement_gram,
    exact_observability_rank,
    growing_basis_rank,
    observability_matrix_rank,
    reference_trial_rank,
)


def test_realize_numeric_respects_structure():
    pattern = StructuredMatrix(3, 3, frozenset({(0, 1), (2, 2)}))
    a = realize_numeric(pattern, rng_for(0, "t"))
    assert a.shape == (3, 3)
    for i in range(3):
        for j in range(3):
            if (i, j) in pattern.nonzeros:
                assert 0.5 <= a[i, j] < 1.5
            else:
                assert a[i, j] == 0.0


def test_realize_numeric_deterministic_per_stream():
    pattern = StructuredMatrix(4, 4, frozenset({(i, i) for i in range(4)}))
    a = realize_numeric(pattern, rng_for(9, "x"))
    b = realize_numeric(pattern, rng_for(9, "x"))
    c = realize_numeric(pattern, rng_for(9, "y"))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_realize_numeric_empty_pattern():
    assert np.array_equal(
        realize_numeric(StructuredMatrix(2, 3, frozenset()), rng_for(0, "e")),
        np.zeros((2, 3)),
    )


def test_realizations_draw_one_value_per_nonzero_in_sorted_order():
    # one scalar draw per nonzero in sorted order, replayed on a twin stream
    rng = np.random.default_rng(59)
    for k in range(50):
        m = int(rng.integers(1, 8))
        nz = sorted((i, j) for i in range(m) for j in range(m) if rng.random() < 0.4)
        pattern = StructuredMatrix(m, m, frozenset(nz))
        twin = rng_for(k, "twin")
        a = np.zeros((m, m))
        for (i, j) in nz:
            a[i, j] = twin.uniform(0.5, 1.5)
        w = a.copy()
        for i in range(m):
            w[i, i] = twin.uniform(0.5, 1.5)
        w = w / w.sum(axis=1, keepdims=True)
        assert np.array_equal(realize_numeric(pattern, rng_for(k, "twin")), a)
        assert np.array_equal(make_row_stochastic(pattern, rng_for(k, "twin")), w)


def test_make_row_stochastic_single_sensor():
    w = make_row_stochastic(StructuredMatrix(1, 1, frozenset()), rng_for(0, "w"))
    assert np.array_equal(w, np.array([[1.0]]))


def test_make_row_stochastic_rows_sum_to_one():
    rng = np.random.default_rng(3)
    for trial in range(25):
        m = int(rng.integers(1, 7))
        nz = {
            (i, j)
            for i in range(m)
            for j in range(m)
            if i != j and rng.random() < 0.4
        }
        w = make_row_stochastic(
            StructuredMatrix(m, m, frozenset(nz)), rng_for(trial, "w")
        )
        assert np.allclose(w.sum(axis=1), 1.0, atol=1e-12)
        # self-weights always present, structure respected elsewhere
        assert all(w[i, i] > 0 for i in range(m))
        for i in range(m):
            for j in range(m):
                if i != j:
                    assert (w[i, j] > 0) == ((i, j) in nz)


def test_make_row_stochastic_rejects_nonsquare():
    from obsnet import ShapeError

    with pytest.raises(ShapeError):
        make_row_stochastic(StructuredMatrix(2, 3, frozenset()), rng_for(0, "w"))


def test_measurement_gram_hand_example():
    gram = build_measurement_gram(np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert gram.shape == (4, 4)
    assert np.array_equal(np.diag(gram), np.array([1.0, 0.0, 0.0, 1.0]))
    assert np.count_nonzero(gram) == 2


def test_measurement_gram_scalar():
    gram = build_measurement_gram(np.array([[3.0]]))
    assert np.array_equal(gram, np.array([[9.0]]))


def test_measurement_gram_is_psd_with_rank_m():
    rng = np.random.default_rng(5)
    for _ in range(20):
        m, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        h = np.zeros((m, n))
        for i in range(m):
            h[i, int(rng.integers(n))] = float(rng.uniform(0.5, 1.5))
        gram = build_measurement_gram(h)
        eigs = np.linalg.eigvalsh(gram)
        assert eigs.min() > -1e-12
        assert np.linalg.matrix_rank(gram) == m


def test_measurement_gram_rejects_bad_rows():
    with pytest.raises(ValidationError):
        build_measurement_gram(np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(ValidationError):
        build_measurement_gram(np.array([[0.0, 0.0], [0.0, 1.0]]))


def test_kalman_scalar_observable():
    assert kalman_rank_observable(np.array([[2.0]]), np.array([[1.0]])) == (True, 1)


def test_kalman_decoupled_mode_unobservable():
    ok, rank = kalman_rank_observable(np.diag([1.0, 2.0]), np.array([[1.0, 0.0]]))
    assert not ok
    assert rank == 1


def test_kalman_zero_output():
    ok, rank = kalman_rank_observable(np.eye(2), np.zeros((1, 2)))
    assert not ok
    assert rank == 0


def test_kalman_three_cycle_single_measurement():
    pattern = StructuredMatrix(3, 3, frozenset({(1, 0), (2, 1), (0, 2)}))
    a = realize_numeric(pattern, rng_for(12, "cycle"))
    c = np.array([[1.0, 0.0, 0.0]])
    ok, rank = kalman_rank_observable(a, c)
    assert ok and rank == 3
    assert observability_matrix_rank(a, c) == 3


def test_kalman_matches_explicit_observability_matrix():
    rng = np.random.default_rng(7)
    for _ in range(120):
        n = int(rng.integers(1, 7))
        a = np.where(rng.random((n, n)) < 0.4, rng.uniform(0.5, 1.5, (n, n)), 0.0)
        p = int(rng.integers(1, 3))
        c = np.where(rng.random((p, n)) < 0.5, rng.uniform(0.5, 1.5, (p, n)), 0.0)
        ok, rank = kalman_rank_observable(a, c)
        assert rank == exact_observability_rank(a, c)
        assert ok == (rank == n)


def test_kalman_rank_matches_a_growing_basis():
    # tiny tolerances count rounding noise, so a step can bring more fresh
    # rows than the basis has room for; the grown count then overshoots n,
    # and the rank is n, since the complement of the basis had no more room
    rng = np.random.default_rng(23)
    overshoots = 0
    for _ in range(150):
        n = int(rng.integers(1, 9))
        a = rng.standard_normal((n, n)) * 10.0 ** int(rng.integers(-100, 100))
        if rng.random() < 0.5:
            a[:, int(rng.integers(n))] = 0.0
        c = rng.standard_normal((int(rng.integers(1, 4)), n))
        tol = float(rng.choice([1e-300, 1e-20, 1e-8, 1e-3, 0.5]))
        ok, rank = kalman_rank_observable(a, c, tol)
        grown = growing_basis_rank(a, c, tol)
        assert rank == min(grown, n)
        assert ok == (rank == n)
        overshoots += grown > n
    assert overshoots > 0


@pytest.mark.parametrize("tol", [1e-20, 1e-8])
def test_kalman_rank_never_exceeds_the_state_count(tol):
    # at 1e-20 a step once counted rounding noise past the basis's room and
    # reported (False, 4) for this observable 3-state pair
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 3))
    c = rng.standard_normal((2, 3))
    assert kalman_rank_observable(a, c, tol) == (True, 3)


def test_kalman_rank_monotone_in_measurements():
    rng = np.random.default_rng(19)
    for _ in range(40):
        n = int(rng.integers(2, 6))
        a = rng.uniform(0.5, 1.5, (n, n)) * (rng.random((n, n)) < 0.5)
        c1 = rng.uniform(0.5, 1.5, (1, n)) * (rng.random((1, n)) < 0.6)
        extra = rng.uniform(0.5, 1.5, (1, n)) * (rng.random((1, n)) < 0.6)
        _, r1 = kalman_rank_observable(a, c1)
        _, r2 = kalman_rank_observable(a, np.vstack([c1, extra]))
        assert r2 >= r1


def test_kalman_shape_errors():
    with pytest.raises(ShapeError):
        kalman_rank_observable(np.zeros((2, 3)), np.zeros((1, 2)))
    with pytest.raises(ShapeError):
        kalman_rank_observable(np.eye(2), np.zeros((1, 3)))


@pytest.mark.parametrize(
    "a, c, message",
    [
        ([[np.nan, 1], [1, 0]], [[1, 0]], "state matrix and output map must be finite"),
        ([[np.inf, 1], [1, 0]], [[1, 0]], "state matrix and output map must be finite"),
        ([[1, 1], [1, 0]], [[-np.inf, 0]], "state matrix and output map must be finite"),
        ([["1", 1], [1, 0]], [[1, 0]], "state matrix must hold real numbers, got dtype <U"),
        ([[1, 1], [1, 0]], [["x", 0]], "output map must hold real numbers, got dtype <U"),
    ],
)
def test_kalman_refuses_entries_that_are_not_finite_real_numbers(a, c, message):
    with pytest.raises(ShapeError) as info:
        kalman_rank_observable(a, c)
    assert str(info.value).startswith(message)


@pytest.mark.parametrize("tol", [-1.0, 0.0, float("nan"), float("inf"), 1.0])
def test_kalman_rejects_tolerance_outside_unit_interval(tol):
    with pytest.raises(ValidationError, match="tolerance"):
        kalman_rank_observable(np.eye(2), np.ones((1, 2)), tol)


# --- end-to-end verification -------------------------------------------------


def decoupled_instance(links) -> ProblemInstance:
    return ProblemInstance(
        n=2,
        m=2,
        system_pattern=StructuredMatrix(2, 2, frozenset({(0, 0), (1, 1)})),
        sensing_cost={(0, 0): 1.0, (1, 1): 1.0},
        network=WeightedDigraph(2, links),
    )


def test_verify_accepts_generated_designs():
    for seed in range(12):
        n = 2 + seed % 5
        m = 1 + seed % min(3, n)
        instance = generate_instance(n, m, density=0.35, seed=seed)
        design = design_instance(instance)
        report = verify_design_numeric(instance, design, trials=8, seed=seed)
        assert report.trials == 8
        assert report.passes == 8
        assert report.rank_deficits == ()
        assert report.all_passed


def test_verify_report_json_shape():
    instance = generate_instance(3, 2, density=0.4, seed=4)
    design = design_instance(instance)
    report = verify_design_numeric(instance, design, trials=3, seed=1, tolerance=1e-8)
    doc = report.to_json_dict()
    assert doc["trials"] == 3 and doc["passes"] == 3
    assert doc["tolerance"] == 1e-8
    assert doc["rank_deficits"] == []


def test_verify_refuses_structurally_bad_design():
    from obsnet.graphs import DesignResult

    instance = decoupled_instance({(0, 1): 1.0})
    bad = DesignResult(
        measurement_pattern=StructuredMatrix(2, 2, frozenset({(0, 0), (1, 1)})),
        network_pattern=StructuredMatrix(2, 2, frozenset({(0, 1)})),
        sensing_cost=2.0,
        networking_cost=1.0,
        network_optimality="exact",
    )
    with pytest.raises(InfeasibleError, match="structural gate"):
        verify_design_numeric(instance, bad, trials=3, seed=0)


def test_verify_needs_positive_trials():
    instance = generate_instance(2, 1, seed=0)
    design = design_instance(instance)
    with pytest.raises(ValidationError):
        verify_design_numeric(instance, design, trials=0)


@pytest.mark.parametrize("trials", [2.5, "3", True, None, np.float64(3.0)])
def test_verify_refuses_trials_that_are_not_integers(trials):
    # True ran one trial and reported "trials": true; 2.5 and "3" raised bare TypeErrors
    instance = generate_instance(2, 1, seed=0)
    design = design_instance(instance)
    with pytest.raises(ValidationError) as info:
        verify_design_numeric(instance, design, trials=trials)
    assert str(info.value) == f"trials must be an integer, got {trials!r}"


@pytest.mark.parametrize("tolerance", ["x", None, True, np.array([1e-8])])
def test_rank_tests_refuse_a_tolerance_that_is_not_a_real_number(tolerance):
    # "x" and None raised bare TypeErrors from the interval check
    instance = generate_instance(2, 1, seed=0)
    design = design_instance(instance)
    message = f"tolerance must be a real number, got {tolerance!r}"
    with pytest.raises(ValidationError) as info:
        kalman_rank_observable(np.eye(2), np.ones((1, 2)), tolerance)
    assert str(info.value) == message
    with pytest.raises(ValidationError) as info:
        verify_design_numeric(instance, design, trials=1, tolerance=tolerance)
    assert str(info.value) == message


def test_verify_takes_numpy_integer_trials_as_plain_ints():
    instance = generate_instance(3, 2, density=0.4, seed=4)
    design = design_instance(instance)
    report = verify_design_numeric(instance, design, trials=np.int64(3), seed=np.int16(1))
    assert report == verify_design_numeric(instance, design, trials=3, seed=1)
    assert type(report.trials) is int and report.to_json_dict()["trials"] == 3


@pytest.mark.parametrize("tol", [-1.0, float("nan"), 1.5])
def test_trial_rejects_tolerance_outside_unit_interval(tol):
    # the one-way link design the gate refuses: a tolerance <= 0 would
    # certify it, so the trial checks the tolerance itself
    instance = decoupled_instance({(0, 1): 1.0})
    h = StructuredMatrix(2, 2, frozenset({(0, 0), (1, 1)}))
    w = StructuredMatrix(2, 2, frozenset({(0, 1)}))
    with pytest.raises(ValidationError, match="tolerance"):
        observability_trial(instance, h, w, rng_for(0, "tol", 0), tol)


@pytest.mark.parametrize("h, w, message", [
    (StructuredMatrix(2, 3, frozenset({(0, 0), (1, 1)})), StructuredMatrix(2, 2, frozenset()),
     "measurement pattern is 2x3, expected 2x2"),
    (StructuredMatrix(2, 2, frozenset({(0, 0), (1, 1)})), StructuredMatrix(3, 2, frozenset()),
     "network pattern is 3x2, expected 2x2"),
], ids=["H-shape", "W-shape"])
def test_trial_rejects_pattern_shapes(h, w, message):
    instance = decoupled_instance({(0, 1): 1.0, (1, 0): 1.0})
    with pytest.raises(ShapeError) as info:
        observability_trial(instance, h, w, rng_for(0, "shape", 0))
    assert str(info.value) == message


def test_non_sc_counterexample_fails_every_trial():
    # two decoupled parent components, each sensor sees one, but information
    # flows only one way between the sensors: sensor 0 never learns state 1
    instance = decoupled_instance({(0, 1): 1.0})
    h = StructuredMatrix(2, 2, frozenset({(0, 0), (1, 1)}))
    w = StructuredMatrix(2, 2, frozenset({(0, 1)}))
    for trial in range(40):
        ok, rank = observability_trial(instance, h, w, rng_for(77, "cx", trial))
        assert not ok
        assert instance.m * instance.n - rank >= 1
        assert rank == reference_trial_rank(instance, h, w, rng_for(77, "cx", trial), 1e-8)


def explicit_trial_rank(instance, h, w, rng) -> int:
    """The exact rank of the stacked observability matrix of the pair
    (W kron A, block-diagonal measurement Grams), with A, H and W drawn in
    the trial's order from a twin of the trial's stream."""
    a = realize_numeric(instance.system_pattern, rng)
    # a singular draw would be re-drawn by the trial, and the twin would drift
    assert np.linalg.matrix_rank(a) == instance.n
    h_num = realize_numeric(h, rng)
    w_num = make_row_stochastic(w, rng)
    return exact_observability_rank(np.kron(w_num, a), build_measurement_gram(h_num))


def test_trial_rank_matches_explicit_observability_matrix():
    # Designs, the one-way-link counterexample, and random measurement and
    # link patterns on the same systems, whose ranks fall short by every
    # amount and differ when the link direction is flipped. m n stays at
    # most 12 to keep the rational arithmetic fast.
    pick = np.random.default_rng(41)
    cases = [(decoupled_instance({(0, 1): 1.0}),
              StructuredMatrix(2, 2, frozenset({(0, 0), (1, 1)})),
              StructuredMatrix(2, 2, frozenset({(0, 1)})), 40)]
    for seed in range(36):
        n = 2 + seed % 3
        m = 1 + (seed // 3) % min(3, n)
        instance = generate_instance(n, m, density=0.4, seed=seed)
        design = design_instance(instance)
        cases.append((instance, design.measurement_pattern, design.network_pattern, 10))
        h = frozenset((i, int(pick.integers(n))) for i in range(m))
        w = frozenset(
            (i, j) for i in range(m) for j in range(m) if i != j and pick.random() < 0.4
        )
        cases.append((instance, StructuredMatrix(m, n, h), StructuredMatrix(m, m, w), 4))
    for case, (instance, h, w, trials) in enumerate(cases):
        for t in range(trials):
            _, rank = observability_trial(instance, h, w, rng_for(case, "twin", t))
            assert rank == explicit_trial_rank(instance, h, w, rng_for(case, "twin", t))


def test_scalar_design_verifies():
    instance = ProblemInstance(
        n=1,
        m=1,
        system_pattern=StructuredMatrix(1, 1, frozenset({(0, 0)})),
        sensing_cost={(0, 0): 2.0},
        network=WeightedDigraph(1, {}),
    )
    design = design_instance(instance)
    report = verify_design_numeric(instance, design, trials=5, seed=3)
    assert report.passes == 5


# --- stacked trials against the one-trial-at-a-time reference ----------------


def stacked_and_reference_ranks(instance, h, w, trials, seed, tol):
    """Per-trial ranks of one stacked call on the verify streams, and of the
    reference run one trial at a time on twins of the same streams."""
    rngs = [rng_for(seed, "verify", t) for t in range(trials)]
    stacked = _trial_ranks(instance, h, w, rngs, tol).tolist()
    reference = [
        reference_trial_rank(instance, h, w, rng_for(seed, "verify", t), tol)
        for t in range(trials)
    ]
    return stacked, reference


def test_stacked_trials_match_the_per_trial_reference():
    # n 2..20, m 1..5, both directions, tolerances 1e-4 to 1e-12
    pick = np.random.default_rng(101)
    for case in range(300):
        n = int(pick.integers(2, 21))
        m = int(pick.integers(1, min(5, n) + 1))
        density = float(pick.uniform(0.0, 0.6))
        instance = generate_instance(n, m, density, case, undirected=case % 2 == 0)
        design = design_instance(instance)
        tol = 10.0 ** -float(pick.uniform(4, 12))
        trials = int(pick.integers(1, 4))
        stacked, reference = stacked_and_reference_ranks(
            instance, design.measurement_pattern, design.network_pattern, trials, case, tol
        )
        assert stacked == reference, (n, m, density, case, tol)


@pytest.mark.parametrize("n, m, trials", [(20, 5, 30), (18, 5, 35), (15, 4, 40)])
def test_trials_spanning_several_stacks_match_the_reference(n, m, trials):
    dim = n * m
    assert trials > max(1, _STACK_BYTES // (8 * dim * dim))  # two stacks at least
    for seed in range(2):
        instance = generate_instance(n, m, 0.3, seed, undirected=seed == 1)
        design = design_instance(instance)
        stacked, reference = stacked_and_reference_ranks(
            instance, design.measurement_pattern, design.network_pattern, trials, seed, 1e-8
        )
        assert stacked == reference


def test_probe_trial_splits_off_its_own_cohort():
    # a sound design whose verify-stream trial 10 falls 2 short at 1e-8,
    # while the other 19 trials of its stack reach full rank 24
    instance = generate_instance(12, 2, 0.3, 1856036422)
    design = design_instance(instance)
    h, w = design.measurement_pattern, design.network_pattern
    stacked, reference = stacked_and_reference_ranks(instance, h, w, 20, 0, 1e-8)
    assert stacked == reference
    assert stacked == [24] * 10 + [22] + [24] * 9
    report = verify_design_numeric(instance, design, trials=20)
    assert (report.passes, report.rank_deficits) == (19, (2,))


def test_verify_never_reports_a_negative_deficit():
    # at these tolerances rounding noise counts as directions; a last step
    # once brought more fresh rows than the basis had room for, and the
    # report listed a deficit of -1 for 15 of these 180 calls
    for seed in range(60):
        n = 2 + seed % 6
        m = 1 + seed % min(3, n)
        instance = generate_instance(n, m, density=0.4, seed=seed)
        design = design_instance(instance)
        for tol in (1e-300, 1e-20, 1e-16):
            report = verify_design_numeric(instance, design, trials=4, seed=seed, tolerance=tol)
            assert all(d > 0 for d in report.rank_deficits)
            assert report.passes + len(report.rank_deficits) == 4


def test_verify_memory_stays_within_one_basis_and_the_stack_budget():
    # one dim-400 basis (1.28 MB) is larger than the stack budget, so each
    # trial runs alone: three stacked trials would hold three bases
    import tracemalloc

    instance = generate_instance(40, 10, 0.3, 1)
    design = design_instance(instance)
    dim = instance.n * instance.m
    tracemalloc.start()
    try:
        report = verify_design_numeric(instance, design, trials=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _STACK_BYTES < 8 * dim * dim
    assert report.passes == 3
    assert peak <= 8 * dim * dim + _STACK_BYTES


def test_verify_memory_does_not_grow_with_the_trial_count():
    # each stack is drawn when it runs: at dim 400 every trial is a stack of
    # its own, so 24 trials peak where 3 do; holding every trial's
    # realizations at once would grow the peak with the trial count
    import tracemalloc

    instance = generate_instance(200, 2, 0.3, 5)
    design = design_instance(instance)
    peaks = []
    for trials in (3, 24):
        tracemalloc.start()
        try:
            report = verify_design_numeric(instance, design, trials=trials)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert report.passes == trials
    assert peaks[1] <= 1.5 * peaks[0]


def test_verify_memory_does_not_grow_with_thousands_of_trials():
    # each stack's generators are made when it runs: holding every trial's
    # generator from the start, about 1 KB each, put 2,000 trials 1.75 MB
    # over 20. No cohort of this design splits, so every stack peaks at its
    # bases; a split stack also holds copies of its smaller parts' rows
    import tracemalloc

    instance = generate_instance(10, 10, 0.3, 2)
    design = design_instance(instance)
    peaks = []
    for trials in (20, 2000):
        tracemalloc.start()
        try:
            report = verify_design_numeric(instance, design, trials=trials)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert report.passes == trials
    assert peaks[1] <= peaks[0] + 500_000


def test_a_stack_whose_cohorts_split_holds_one_basis(monkeypatch):
    # 480 trials of this design run as 40 stacks of 12 at dim 100, each with
    # a 960 KB basis. When every part of a split copied its rows out of the
    # stack's basis, 24 stacks peaked over 1.5 MB and one at 2.67 MB; the part
    # with the most trials now keeps the stack's basis
    import tracemalloc

    instance = generate_instance(20, 5, 0.3, 4)
    design = design_instance(instance)
    basis_bytes = 8 * (instance.n * instance.m) ** 2
    rank_test = verification._rowspace_rank
    peaks = []

    def traced(*args):
        tracemalloc.start()
        try:
            return rank_test(*args)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    monkeypatch.setattr(verification, "_rowspace_rank", traced)
    report = verify_design_numeric(instance, design, trials=480)
    assert report.to_json_dict() == {
        "trials": 480, "passes": 480, "rank_deficits": [], "tolerance": 1e-8}
    assert len(peaks) == 40
    assert max(peaks) < 2 * 12 * basis_bytes


def test_verify_refuses_a_dimension_past_the_guard_before_drawing():
    # design-bulk's shape, dim 200,000: one trial's basis would take 320 GB,
    # so the guard must refuse it before any allocation
    import time

    instance = generate_instance(2000, 100, 0.3, 12345, True)
    design = design_instance(instance)
    start = time.perf_counter()
    with pytest.raises(GuardError) as info:
        verify_design_numeric(instance, design)
    assert time.perf_counter() - start < 1.0
    assert str(info.value) == (
        f"numeric verification guard: m*n=200000 exceeds {verification.VERIFY_MAX_DIM}"
    )
    assert info.value.exit_code == 3 and info.value.kind == "guard"


def test_every_rank_test_entry_point_checks_the_guard(monkeypatch):
    # dim 6 against a lowered guard: each entry point refuses before it draws
    instance = generate_instance(3, 2, 0.3, 1)
    design = design_instance(instance)
    h, w = design.measurement_pattern, design.network_pattern
    monkeypatch.setattr(verification, "VERIFY_MAX_DIM", 5)
    message = "numeric verification guard: m*n=6 exceeds 5"
    for run in (
        lambda: verify_design_numeric(instance, design),
        lambda: observability_trial(instance, h, w, rng_for(0, "guard", 0)),
        lambda: kalman_rank_observable(np.eye(6), np.ones((1, 6))),
    ):
        with pytest.raises(GuardError) as info:
            run()
        assert str(info.value) == message
    monkeypatch.setattr(verification, "VERIFY_MAX_DIM", 6)
    assert verify_design_numeric(instance, design, trials=2).passes == 2
    assert kalman_rank_observable(np.eye(6), np.eye(6)) == (True, 6)
