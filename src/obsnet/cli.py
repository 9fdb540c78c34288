"""Command-line frontend.

Subcommands wire the pipeline end to end: gen makes instances, analyze
reports structure, design solves placement and topology, verify runs the
numeric observability trials, oracle compares against the brute-force
solvers, export-dot renders an instance for Graphviz. All documents are
JSON on explicit paths; exit codes are stable: 0 success, 2 infeasible,
3 guard exceeded, 1 anything else.

``run(argv)`` builds its parser once per process, on its first call, and
parses every later argv with it; ``build_parser()`` returns a fresh parser
each time. The parser binds each subcommand to its ``cmd_*`` function at
that first call, so a test or script that replaces behaviour patches the
names those functions call (``generate_instance``, ``design_instance``,
...), not the ``cmd_*`` functions themselves.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .design import design_instance, parent_costs, solve_network
from .errors import ObsnetError, ValidationError
from .generate import generate_instance
from .graphs import (
    canonical_json,
    export_instance_dot,
    parse_design,
    parse_instance,
    serialize_design,
    serialize_instance_chunks,
)
from .network import brute_force_msss, brute_force_mst
from .sensing import brute_force_assignment, hungarian_solve
from .structural import (
    arcs_strongly_connected,
    is_structurally_full_rank,
    scc_decompose,
)
from .verification import verify_design_numeric

__all__ = ["build_parser", "run", "main"]


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path} is not UTF-8 text: {exc}") from exc


def _write(path: str, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


def _load_instance(path: str):
    return parse_instance(_read(path))


def _error_kind(exc: BaseException) -> str:
    if isinstance(exc, ObsnetError):
        return exc.kind
    if isinstance(exc, OSError):
        return "io"
    return "internal"


def _print_error(exc: BaseException) -> None:
    body = {"error": {"kind": _error_kind(exc), "message": str(exc)}}
    sys.stderr.write(canonical_json(body))


# --- subcommands ------------------------------------------------------------


def cmd_analyze(args: argparse.Namespace) -> int:
    instance = _load_instance(args.input)
    partition = scc_decompose(instance.system_pattern)
    doc = {
        "n": instance.n,
        "m": instance.m,
        "structurally_full_rank": is_structurally_full_rank(instance.system_pattern),
        "network_strongly_connected": arcs_strongly_connected(
            instance.m, instance.network.arcs
        ),
        "network_undirected": instance.network_undirected,
    }
    doc.update(partition.to_json_dict())
    sys.stdout.write(canonical_json(doc))
    return 0


def cmd_design(args: argparse.Namespace) -> int:
    instance = _load_instance(args.input)
    root = None
    if args.root is not None:
        if not 1 <= args.root <= instance.m:
            raise ValidationError(
                f"--root must name a sensor in 1..{instance.m}, got {args.root}"
            )
        root = args.root - 1
    result = design_instance(instance, root=root, exact=args.exact)
    _write(args.out, serialize_design(result))
    print(
        f"design written to {args.out}: sensing cost {result.sensing_cost},"
        f" networking cost {result.networking_cost} ({result.network_optimality})"
    )
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    instance = _load_instance(args.input)
    design = parse_design(_read(args.design), instance.n, instance.m)
    report = verify_design_numeric(
        instance, design, trials=args.trials, seed=args.seed, tolerance=args.tol
    )
    sys.stdout.write(canonical_json(report.to_json_dict()))
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    instance = _load_instance(args.input)
    matrix = parent_costs(instance)
    fast = hungarian_solve(matrix)
    heuristic = solve_network(instance, None, False)
    heuristic_cost, method = heuristic.total_cost, heuristic.method
    # a network past its oracle's guard is refused before the m! assignment scan
    oracle = brute_force_mst if instance.network_undirected else brute_force_msss
    oracle_cost = oracle(instance.network).total_cost
    slow = brute_force_assignment(matrix)
    gap = 0.0 if oracle_cost == 0 else (heuristic_cost - oracle_cost) / oracle_cost
    doc = {
        "sensing": {
            "hungarian_cost": fast.total_cost,
            "brute_force_cost": slow.total_cost,
            "match": fast.total_cost == slow.total_cost,
        },
        "networking": {
            "method": method,
            "heuristic_cost": heuristic_cost,
            "brute_force_cost": oracle_cost,
            "gap": gap,
        },
    }
    sys.stdout.write(canonical_json(doc))
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    instance = generate_instance(args.n, args.m, args.density, args.seed)
    with open(args.out, "w", encoding="utf-8") as out:  # the document is never held whole
        out.writelines(serialize_instance_chunks(instance))
    print(f"instance written to {args.out}")
    return 0


def cmd_export_dot(args: argparse.Namespace) -> int:
    instance = _load_instance(args.input)
    _write(args.out, export_instance_dot(instance))
    print(f"DOT graph written to {args.out}")
    return 0


# --- parser and entry point -------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="obsnet",
        description=(
            "Cost-optimal sensor placement and strongly connected"
            " communication topologies for distributed state estimation."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("analyze", help="structural report for an instance")
    p.add_argument("--in", dest="input", required=True, metavar="F",
                   help="instance JSON file")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("design", help="solve sensor placement and topology")
    p.add_argument("--in", dest="input", required=True, metavar="F",
                   help="instance JSON file")
    p.add_argument("--out", required=True, metavar="F", help="design JSON output path")
    roots = p.add_mutually_exclusive_group()
    roots.add_argument("--root", type=int, metavar="K",
                       help="fix the branching root to sensor K (1-based)")
    roots.add_argument("--all-roots", action="store_true",
                       help="try every root and keep the cheapest union (default)")
    p.add_argument("--exact", action="store_true",
                   help="solve the directed topology exactly by brute force"
                        " (small networks only; overrides root flags)")
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("verify", help="numeric observability trials for a design")
    p.add_argument("--in", dest="input", required=True, metavar="F",
                   help="instance JSON file")
    p.add_argument("--design", required=True, metavar="F", help="design JSON file")
    p.add_argument("--trials", type=int, default=20, metavar="T",
                   help="number of random realizations (default 20)")
    p.add_argument("--seed", type=int, default=0, metavar="S",
                   help="seed for the realization streams (default 0)")
    p.add_argument("--tol", type=float, default=1e-8, metavar="X",
                   help="relative rank tolerance (default 1e-8)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="compare solvers against brute force")
    p.add_argument("--in", dest="input", required=True, metavar="F",
                   help="instance JSON file")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("gen", help="generate a random solvable instance")
    p.add_argument("--n", type=int, required=True, metavar="N", help="number of states")
    p.add_argument("--m", type=int, required=True, metavar="M", help="number of sensors")
    p.add_argument("--density", type=float, default=0.3, metavar="D",
                   help="probability of optional extra edges (default 0.3)")
    p.add_argument("--seed", type=int, default=0, metavar="S",
                   help="generator seed (default 0)")
    p.add_argument("--out", required=True, metavar="F", help="instance JSON output path")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("export-dot", help="render an instance as Graphviz DOT")
    p.add_argument("--in", dest="input", required=True, metavar="F",
                   help="instance JSON file")
    p.add_argument("--out", required=True, metavar="F", help="DOT output path")
    p.set_defaults(func=cmd_export_dot)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # building the tree costs more than the pipeline on a small instance;
    # parsing leaves no state on it, so every call can share one
    return build_parser()


def run(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; 2 means infeasible here, so remap
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except ObsnetError as exc:
        _print_error(exc)
        return exc.exit_code
    except Exception as exc:  # noqa: BLE001 - exit-code contract over traceback
        _print_error(exc)
        return 1


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))
