"""Write the golden corpus: pinned outputs of the whole pipeline.

Each case is an instance, either generated or built by hand through the
``ProblemInstance`` constructor. For each one the corpus stores the
``serialize_instance`` bytes, the design JSON over all roots (and, for a
directed network, with root 0 and from the exact search), the verify
report of the all-roots design with 3 trials, and, where a stage raises,
the CLI error kind and message. The design and verify stages run on the
parsed instance, as the CLI does. The ``oracle`` subcommand runs on the
instance bytes; its exit code, stdout and stderr are stored as printed.

``tests/test_golden.py`` recomputes every case and compares the bytes.
Rewrite the corpus only for an intended change of output:

    PYTHONPATH=src python tests/golden/make_golden.py
"""

from __future__ import annotations

import argparse
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from obsnet import (
    ObsnetError,
    ProblemInstance,
    StructuredMatrix,
    WeightedDigraph,
    design_instance,
    generate_instance,
    parse_instance,
    serialize_design,
    serialize_instance,
    verify_design_numeric,
)
from obsnet.cli import _error_kind, _print_error, cmd_oracle

CORPUS = Path(__file__).with_name("corpus.json")
TRIALS = 3


def _error(exc: ObsnetError) -> dict:
    return {"kind": _error_kind(exc), "message": str(exc)}


def _design(
    instance: ProblemInstance, root: int | None, verify: bool, exact: bool = False
) -> dict:
    try:
        design = design_instance(instance, root=root, exact=exact)
    except ObsnetError as exc:
        return {"error": _error(exc)}
    out = {"design": serialize_design(design)}
    if verify:
        try:
            report = verify_design_numeric(instance, design, trials=TRIALS)
            out["verify"] = json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n"
        except ObsnetError as exc:
            out["verify_error"] = _error(exc)
    return out


def _oracle(text: str) -> dict:
    """``obsnet oracle`` on the instance document, as the shell sees it;
    the subcommand is called as ``cli.run`` calls it, less the parser."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(out), redirect_stderr(err):
        path = Path(tmp) / "instance.json"
        path.write_text(text, encoding="utf-8")
        try:
            code = cmd_oracle(argparse.Namespace(input=str(path)))
        except ObsnetError as exc:
            _print_error(exc)
            code = exc.exit_code
    return {"exit_code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def render(instance: ProblemInstance) -> dict:
    """Every pinned output of one case."""
    text = serialize_instance(instance)
    parsed = parse_instance(text)
    out = {
        "instance": text,
        "all_roots": _design(parsed, None, verify=True),
        "oracle": _oracle(text),
    }
    if not parsed.network_undirected:
        out["root_0"] = _design(parsed, 0, verify=False)
        out["exact"] = _design(parsed, None, verify=False, exact=True)
    return out


def _generated() -> dict[str, ProblemInstance]:
    """n 2..14, m 1..min(n, 5), every density; the direction alternates."""
    cases = {}
    k = 0
    for n in range(2, 15):
        for m in range(1, min(n, 5) + 1):
            for density in (0.0, 0.3, 0.7):
                undirected = k % 2 == 1
                seed = 100 * n + 10 * m + int(10 * density)
                name = f"gen-n{n}-m{m}-d{density}-{'u' if undirected else 'd'}-s{seed}"
                cases[name] = generate_instance(n, m, density, seed, undirected)
                k += 1
    return cases


def _instance(n, m, nonzeros, costs, arcs, undirected=False) -> ProblemInstance:
    return ProblemInstance(
        n=n,
        m=m,
        system_pattern=StructuredMatrix(n, n, frozenset(nonzeros)),
        sensing_cost=costs,
        network=WeightedDigraph(m, arcs),
        network_undirected=undirected,
    )


def _cycle(states) -> set[tuple[int, int]]:
    """Pattern entries of a directed cycle through ``states`` (full rank on them)."""
    states = list(states)
    return {(b, a) for a, b in zip(states, states[1:] + states[:1])}


def _ring(m, cost=1.0) -> dict[tuple[int, int], float]:
    return {(u, (u + 1) % m): cost for u in range(m)} if m > 1 else {}


def _both_ways(edges) -> dict[tuple[int, int], float]:
    arcs = {}
    for (u, v), cost in edges.items():
        arcs[(u, v)] = cost
        arcs[(v, u)] = cost
    return arcs


def _handmade() -> dict[str, ProblemInstance]:
    two_parents = _cycle([0, 1]) | _cycle([2, 3])  # parents {x1,x2} and {x3,x4}
    three_parents = _cycle([0, 1]) | _cycle([2]) | _cycle([3, 4, 5])
    with_child = _cycle([0, 1]) | _cycle([2, 3]) | _cycle([4, 5]) | {(0, 4), (2, 5)}
    full = {(i, j): 1.0 for i in range(3) for j in range(6)}
    k3 = {(u, v): float(1 + (u + 2 * v) % 3) for u in range(3) for v in range(3) if u != v}
    k4_int = {(u, v): 1 + (u * v + u) % 3 for u in range(4) for v in range(4) if u != v}
    return {
        # missing sensing pairs
        "hand-missing-pairs": _instance(
            4, 2, two_parents,
            {(0, 0): 1.0, (0, 1): 4.0, (0, 2): 9.0, (0, 3): 7.0,
             (1, 0): 6.0, (1, 2): 2.0, (1, 3): 3.0},
            _ring(2)),
        "hand-missing-forces-expensive": _instance(
            4, 2, two_parents,
            {(0, 2): 8.0, (1, 0): 5.0, (1, 1): 0.5, (1, 3): 0.25},
            _ring(2, 2.0)),
        "hand-missing-row-in-child": _instance(
            6, 2, with_child,
            {(0, 0): 2.0, (0, 4): 0.1, (1, 3): 1.5, (1, 5): 0.1, (1, 2): 1.5},
            _ring(2)),
        "hand-infeasible-assignment": _instance(
            4, 2, two_parents,
            {(0, 0): 1.0, (0, 1): 2.0, (1, 1): 3.0},
            _ring(2)),
        "hand-infeasible-three": _instance(
            6, 3, three_parents,
            {(0, 0): 1.0, (1, 1): 1.0, (2, 0): 1.0, (2, 3): 1.0},
            _ring(3)),
        "hand-sensor-without-costs": _instance(
            4, 2, two_parents,
            {(0, 0): 1.0, (0, 2): 1.0},
            _ring(2)),
        "hand-no-costs-at-all": _instance(2, 1, _cycle([0, 1]), {}, {}),
        # equal costs inside a parent component
        "hand-ties-in-component": _instance(
            6, 3, three_parents, full, _ring(3)),
        "hand-ties-upper-states": _instance(
            6, 3, three_parents,
            {**full, (0, 0): 3.0, (1, 4): 0.5, (1, 5): 0.5, (2, 3): 0.5, (2, 4): 0.5},
            _ring(3)),
        "hand-ties-across-sensors": _instance(
            4, 2, two_parents,
            {(i, j): 2.0 for i in range(2) for j in range(4)},
            _both_ways({(0, 1): 1.0}), undirected=True),
        "hand-zero-costs": _instance(
            4, 2, two_parents,
            {(0, 1): 0.0, (0, 3): 0.0, (1, 0): 0.0, (1, 2): 0.0},
            _ring(2, 0.0)),
        # directed links with integer costs in {1, 2, 3}
        "hand-int-links-k3": _instance(
            6, 3, three_parents, full, k3),
        "hand-int-links-k4": _instance(
            8, 4, _cycle([0, 1]) | _cycle([2, 3]) | _cycle([4, 5]) | _cycle([6, 7]),
            {(i, j): 1.0 + (i + j) % 2 for i in range(4) for j in range(8)},
            k4_int),
        "hand-int-links-ring-chords": _instance(
            5, 5, _cycle([0]) | _cycle([1]) | _cycle([2]) | _cycle([3]) | _cycle([4]),
            {(i, j): float(1 + (i * j) % 3) for i in range(5) for j in range(5)},
            {**_ring(5, 2), (0, 2): 1, (2, 0): 3, (3, 1): 1, (4, 2): 1, (1, 4): 3}),
        "hand-int-links-all-equal": _instance(
            4, 4, _cycle([0]) | _cycle([1]) | _cycle([2]) | _cycle([3]),
            {(i, i): 1.0 for i in range(4)},
            {(u, v): 2 for u in range(4) for v in range(4) if u != v}),
        "hand-int-links-two-way-pairs": _instance(
            4, 4, _cycle([0]) | _cycle([1]) | _cycle([2]) | _cycle([3]),
            {(i, (i + 1) % 4): 1.5 for i in range(4)},
            {**_both_ways({(0, 1): 1, (1, 2): 1, (2, 3): 1}), (3, 0): 3}),
        # m = 1
        "hand-m1-single-state": _instance(1, 1, _cycle([0]), {(0, 0): 2.5}, {}),
        "hand-m1-ties": _instance(
            3, 1, _cycle([0, 1, 2]), {(0, 0): 1.0, (0, 1): 1.0, (0, 2): 1.0}, {}),
        "hand-m1-missing": _instance(
            4, 1, _cycle([0, 1]) | _cycle([2, 3]) | {(0, 2)},
            {(0, 1): 3.0, (0, 2): 0.5}, {}),
        "hand-m1-only-child-states": _instance(
            4, 1, _cycle([0, 1]) | _cycle([2, 3]) | {(0, 2)},
            {(0, 2): 1.0, (0, 3): 1.0}, {}),
        "hand-m1-undirected": _instance(
            2, 1, _cycle([0, 1]), {(0, 0): 1.0, (0, 1): 1.0}, {}, undirected=True),
        # scope and structure failures
        "hand-rank-deficient": _instance(
            2, 1, {(0, 0), (0, 1)}, {(0, 0): 1.0, (0, 1): 1.0}, {}),
        "hand-parents-outnumber-sensors": _instance(
            3, 2, _cycle([0]) | _cycle([1]) | _cycle([2]),
            {(i, j): 1.0 for i in range(2) for j in range(3)},
            _ring(2)),
        "hand-network-not-strongly-connected": _instance(
            4, 2, two_parents, {(i, j): 1.0 for i in range(2) for j in range(4)},
            {(0, 1): 1.0}),
        "hand-exact-guard": _instance(
            6, 6, set().union(*(_cycle([i]) for i in range(6))),
            {(i, i): 1.0 for i in range(6)},
            {(u, v): float(1 + (u + v) % 2) for u in range(6) for v in range(6) if u != v}),
        "hand-undirected-path": _instance(
            6, 3, three_parents, full,
            _both_ways({(0, 1): 3.0, (1, 2): 1.0, (0, 2): 3.0}), undirected=True),
    }


def cases() -> dict[str, ProblemInstance]:
    return {**_generated(), **_handmade()}


def main() -> None:
    corpus = {name: render(instance) for name, instance in cases().items()}
    CORPUS.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(corpus)} cases written to {CORPUS}")


if __name__ == "__main__":
    main()
