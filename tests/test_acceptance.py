"""Acceptance suite: eight end-to-end criteria, one verdict line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines and
the networking gap distribution; each criterion also asserts, so a plain
pytest run fails loudly when a bound is violated.
"""

import json
import statistics
import time

import numpy as np

from obsnet import (
    InfeasibleError,
    ParentCostMatrix,
    ProblemInstance,
    StructuredMatrix,
    WeightedDigraph,
    arcs_strongly_connected,
    brute_force_assignment,
    brute_force_msss,
    brute_force_mst,
    check_structural_observability,
    design_instance,
    generate_instance,
    hungarian_solve,
    kalman_rank_observable,
    min_branching,
    msss_2approx,
    mst_solve,
    observability_trial,
    parse_design,
    realize_numeric,
    rng_for,
    serialize_instance,
    verify_design_numeric,
)
from obsnet.cli import run
from oracles import brute_force_sensing_cost


def _verdict(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"acceptance criterion {num}: {status} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _fake_matrix(cost: np.ndarray) -> ParentCostMatrix:
    m = cost.shape[0]
    states = np.broadcast_to(np.arange(m), (m, m))
    return ParentCostMatrix(
        size=m,
        cost=cost,
        argmin_state=np.where(np.isfinite(cost), states, -1).astype(np.int64),
        parent_components=tuple((p,) for p in range(m)),
    )


def test_criterion_1_lsap_exactness():
    rng = np.random.default_rng(101)
    checked = 0
    start = time.perf_counter()
    while checked < 500:
        m = int(rng.integers(2, 9))
        integer_costs = checked % 2 == 0
        if integer_costs:
            cost = rng.integers(1, 50, size=(m, m)).astype(float)
        else:
            cost = rng.uniform(0.0, 10.0, size=(m, m))
        if rng.random() < 0.3:
            cost[rng.random(size=(m, m)) < 0.25] = np.inf
        matrix = _fake_matrix(cost)
        try:
            slow = brute_force_assignment(matrix)
        except InfeasibleError:
            try:
                hungarian_solve(matrix)
            except InfeasibleError:
                continue
            raise AssertionError("hungarian found an assignment the oracle ruled out")
        fast = hungarian_solve(matrix)
        if integer_costs:
            assert fast.total_cost == slow.total_cost
        else:
            assert abs(fast.total_cost - slow.total_cost) <= 1e-9
        checked += 1
    elapsed = time.perf_counter() - start
    _verdict(
        1,
        elapsed < 10.0,
        f"500/500 assignment optima matched brute force in {elapsed:.2f}s",
    )


def test_criterion_2_sensing_reduction_soundness():
    matched = 0
    for k in range(200):
        n = 2 + k % 5
        m = 1 + k % min(4, n)
        instance = generate_instance(n, m, density=(k % 4) / 4.0, seed=20_000 + k)
        pipeline_cost = design_instance(instance).sensing_cost
        oracle_cost = brute_force_sensing_cost(instance)
        assert oracle_cost is not None
        assert pipeline_cost == oracle_cost
        matched += 1
    _verdict(2, matched == 200, f"{matched}/200 sensing costs equal the exhaustive optimum")


def _random_symmetric_net(rng: np.random.Generator, m: int,
                          max_edges: int = 20) -> WeightedDigraph:
    arcs: dict[tuple[int, int], float] = {}
    order = [int(v) for v in rng.permutation(m)]
    for k in range(1, m):
        u, v = order[k], order[int(rng.integers(0, k))]
        c = float(rng.uniform(1.0, 10.0))
        arcs[(u, v)] = c
        arcs[(v, u)] = c
    for u in range(m):
        for v in range(u + 1, m):
            if (u, v) not in arcs and rng.random() < 0.35 and len(arcs) // 2 < max_edges:
                c = float(rng.uniform(1.0, 10.0))
                arcs[(u, v)] = c
                arcs[(v, u)] = c
    return WeightedDigraph(m, arcs)


def test_criterion_3_mst_exactness():
    rng = np.random.default_rng(303)
    nets = [_random_symmetric_net(rng, 2 + k % 6) for k in range(200)]
    # 12 to 34 sensors: more than 20 edges, at most 200
    nets += [_random_symmetric_net(rng, 12 + k % 23, max_edges=200) for k in range(46)]
    assert all(len(net.arcs) // 2 > 20 for net in nets[200:])
    for net in nets:
        fast = mst_solve(net)
        slow = brute_force_mst(net)
        assert fast.total_cost == slow.total_cost
        assert fast.selected_arcs == slow.selected_arcs
    _verdict(3, True, f"{len(nets)}/{len(nets)} spanning trees equal the Kruskal optimum")


def _random_sc_digraph(rng: np.random.Generator, m: int, max_arcs: int) -> WeightedDigraph:
    arcs: dict[tuple[int, int], float] = {}
    perm = [int(v) for v in rng.permutation(m)]
    for k in range(m):
        arcs[(perm[k], perm[(k + 1) % m])] = float(rng.uniform(1.0, 10.0))
    candidates = [
        (u, v)
        for u in range(m)
        for v in range(m)
        if u != v and (u, v) not in arcs
    ]
    extra = int(rng.integers(0, max_arcs - m + 1))
    for idx in rng.permutation(len(candidates))[:extra]:
        arcs[candidates[int(idx)]] = float(rng.uniform(1.0, 10.0))
    return WeightedDigraph(m, arcs)


def test_criterion_4_msss_approximation_bound():
    rng = np.random.default_rng(404)
    gaps = []
    for k in range(500):
        m = 2 + k % 5
        net = _random_sc_digraph(rng, m, max_arcs=min(20, m * (m - 1)))
        assert len(net.arcs) <= 20
        opt = brute_force_msss(net)
        approx = msss_2approx(net, root=0)
        gap = (approx.total_cost - opt.total_cost) / opt.total_cost
        assert gap <= 1.0 + 1e-12
        assert arcs_strongly_connected(m, approx.selected_arcs)
        gaps.append(gap)
    exact = sum(1 for g in gaps if g <= 1e-12)
    buckets = [
        sum(1 for g in gaps if lo < g <= hi)
        for lo, hi in ((1e-12, 0.1), (0.1, 0.25), (0.25, 0.5), (0.5, 1.0))
    ]
    print(
        "  gap distribution over 500 instances:"
        f" exact={exact}, (0,0.1]={buckets[0]}, (0.1,0.25]={buckets[1]},"
        f" (0.25,0.5]={buckets[2]}, (0.5,1]={buckets[3]};"
        f" mean={statistics.mean(gaps):.4f}, median={statistics.median(gaps):.4f},"
        f" max={max(gaps):.4f}"
    )
    _verdict(
        4,
        max(gaps) <= 1.0 + 1e-12,
        f"500/500 directed topologies within the 2-approximation bound"
        f" (max gap {max(gaps):.4f}), all outputs strongly connected",
    )


def test_criterion_5_structural_vs_numeric_consistency():
    rng = np.random.default_rng(505)
    agreements = 0
    disagreements = 0
    for k in range(300):
        n = 2 + k % 5
        instance = generate_instance(n, 1 + k % n, density=0.4, seed=50_000 + k)
        sensors = 1 + int(rng.integers(0, n))
        measured = rng.choice(n, size=sensors, replace=False)
        h_pattern = StructuredMatrix(
            sensors, n, frozenset((i, int(s)) for i, s in enumerate(measured))
        )
        structural = check_structural_observability(instance.system_pattern, h_pattern)
        a = realize_numeric(instance.system_pattern, rng)
        c = realize_numeric(h_pattern, rng)
        numeric, _ = kalman_rank_observable(a, c)
        if numeric == structural:
            agreements += 1
        else:
            disagreements += 1
            redraw = rng_for(50_000 + k, "redraw")
            a2 = realize_numeric(instance.system_pattern, redraw)
            c2 = realize_numeric(h_pattern, redraw)
            numeric2, _ = kalman_rank_observable(a2, c2)
            assert numeric2 == structural, "disagreement persisted after re-draw"
    rate = agreements / 300.0
    _verdict(
        5,
        rate >= 0.99,
        f"structural and numeric verdicts agree on {agreements}/300 systems"
        f" ({rate:.1%}); all {disagreements} disagreements vanished on re-draw",
    )


def test_criterion_6_distributed_observability(tmp_path):
    passes = 0
    trials = 0
    for k in range(100):
        n = 2 + k % 6
        m = 1 + k % min(4, n)
        instance = generate_instance(n, m, density=0.35, seed=60_000 + k)
        inst_path = tmp_path / f"i{k}.json"
        design_path = tmp_path / f"d{k}.json"
        inst_path.write_text(serialize_instance(instance), encoding="utf-8")
        assert run(["design", "--in", str(inst_path), "--out", str(design_path)]) == 0
        design = parse_design(design_path.read_text(encoding="utf-8"), n, m)
        report = verify_design_numeric(instance, design, trials=10, seed=k)
        passes += report.passes
        trials += report.trials
    rate = passes / trials

    counter = ProblemInstance(
        n=2,
        m=2,
        system_pattern=StructuredMatrix(2, 2, frozenset({(0, 0), (1, 1)})),
        sensing_cost={(0, 0): 1.0, (1, 1): 1.0},
        network=WeightedDigraph(2, {(0, 1): 1.0}),
    )
    h = StructuredMatrix(2, 2, frozenset({(0, 0), (1, 1)}))
    # one-way link only; self-access is implicit, so this W is not strongly connected
    w = StructuredMatrix(2, 2, frozenset({(0, 1)}))
    counter_fails = 0
    for t in range(50):
        ok, rank = observability_trial(counter, h, w, rng_for(606, "cex", t))
        if not ok:
            assert rank < 4
            counter_fails += 1
    _verdict(
        6,
        rate >= 0.99 and counter_fails == 50,
        f"designed instances pass {passes}/{trials} numeric trials ({rate:.1%});"
        f" one-way counterexample fails {counter_fails}/50 trials",
    )


def _best_time(fn, repeats: int = 3) -> float:
    fn()  # warm-up
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_criterion_7_complexity_slopes():
    rng = np.random.default_rng(707)
    sizes = [50, 100, 200, 400]

    hungarian_times = []
    for m in sizes:
        matrix = _fake_matrix(rng.uniform(1.0, 100.0, size=(m, m)))
        hungarian_times.append(_best_time(lambda matrix=matrix: hungarian_solve(matrix)))
    hungarian_slope = float(
        np.polyfit(np.log(sizes), np.log(hungarian_times), 1)[0]
    )

    branching_times = []
    for m in sizes:
        costs = rng.uniform(1.0, 100.0, size=(m, m))
        net = WeightedDigraph(
            m,
            {
                (u, v): float(costs[u, v])
                for u in range(m)
                for v in range(m)
                if u != v
            },
        )
        branching_times.append(
            _best_time(lambda net=net: min_branching(net, root=0, direction="out"))
        )
    branching_slope = float(
        np.polyfit(np.log(sizes), np.log(branching_times), 1)[0]
    )

    _verdict(
        7,
        hungarian_slope <= 3.3 and branching_slope <= 2.3,
        f"log-log runtime slopes: assignment {hungarian_slope:.2f} (limit 3.3),"
        f" branching {branching_slope:.2f} (limit 2.3)",
    )


def test_criterion_8_byte_determinism(tmp_path, capsys):
    inst_a, inst_b = tmp_path / "ia.json", tmp_path / "ib.json"
    for path in (inst_a, inst_b):
        assert run(["gen", "--n", "6", "--m", "3", "--seed", "8", "--out", str(path)]) == 0
    design_a, design_b = tmp_path / "da.json", tmp_path / "db.json"
    assert run(["design", "--in", str(inst_a), "--out", str(design_a)]) == 0
    assert run(["design", "--in", str(inst_b), "--out", str(design_b)]) == 0
    capsys.readouterr()
    assert run(["verify", "--in", str(inst_a), "--design", str(design_a),
                "--trials", "12", "--seed", "5"]) == 0
    verify_a = capsys.readouterr().out
    assert run(["verify", "--in", str(inst_b), "--design", str(design_b),
                "--trials", "12", "--seed", "5"]) == 0
    verify_b = capsys.readouterr().out

    same_instance = inst_a.read_bytes() == inst_b.read_bytes()
    same_design = design_a.read_bytes() == design_b.read_bytes()
    same_verify = verify_a == verify_b
    all_pass = json.loads(verify_a)["passes"] == 12
    _verdict(
        8,
        same_instance and same_design and same_verify and all_pass,
        "instance, design and verification JSON are byte-identical across reruns",
    )
