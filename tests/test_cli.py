import argparse
import json
import tracemalloc

import pytest

from obsnet import (
    GuardError,
    InfeasibleError,
    ObsnetError,
    ScopeError,
    ShapeError,
    ValidationError,
    design_instance,
    generate_instance,
    parse_design,
    parse_instance,
    serialize_design,
    serialize_instance,
    verify_design_numeric,
)
from obsnet import cli
from obsnet.cli import run
from obsnet.graphs import canonical_json


def _gen(tmp_path, name="inst.json", n=6, m=3, density=0.4, seed=11, undirected=False):
    path = tmp_path / name
    instance = generate_instance(n, m, density=density, seed=seed, undirected=undirected)
    path.write_text(serialize_instance(instance), encoding="utf-8")
    return path, instance


def _stderr_kind(capsys):
    err = capsys.readouterr().err
    return json.loads(err)["error"]["kind"]


def test_gen_writes_parseable_instance(tmp_path, capsys):
    out = tmp_path / "g.json"
    code = run(["gen", "--n", "5", "--m", "3", "--seed", "4", "--out", str(out)])
    assert code == 0
    assert "instance written" in capsys.readouterr().out
    instance = parse_instance(out.read_text(encoding="utf-8"))
    assert instance.n == 5 and instance.m == 3


def test_gen_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["gen", "--n", "6", "--m", "3", "--seed", "9", "--out", str(a)]) == 0
    assert run(["gen", "--n", "6", "--m", "3", "--seed", "9", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.json"
    assert run(["gen", "--n", "6", "--m", "3", "--seed", "10", "--out", str(c)]) == 0
    assert a.read_bytes() != c.read_bytes()


def test_gen_streams_the_document_to_its_file(tmp_path, capsys):
    """gen writes the sensing-cost block a chunk at a time: while it writes a
    17.9 MB document the traced peak stays under 16 MB (it was 74.8 MB when
    the whole text was built first), and the file holds the joined text."""
    out = tmp_path / "bulk.json"
    tracemalloc.start()
    try:
        assert run(["gen", "--n", "2000", "--m", "100", "--seed", "1", "--out", str(out)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert out.read_text(encoding="utf-8") == serialize_instance(
        generate_instance(2000, 100, 0.3, 1))


def test_unallocatable_sensing_table_is_a_validation_error(tmp_path, capsys):
    """A 90-byte document whose 2**28 x 2**28 table numpy cannot allocate
    (2**59 bytes, past every address space, so nothing is touched) exited 1
    with kind "internal" and numpy's MemoryError text."""
    path = tmp_path / "huge.json"
    path.write_text('{"n": 268435456, "m": 268435456, "A": [], "c": [],'
                    ' "net": {"undirected": false, "links": []}}', encoding="utf-8")
    assert run(["design", "--in", str(path), "--out", str(tmp_path / "d.json")]) == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["kind"] == "validation"
    assert error["message"].startswith(
        "a 268435456x268435456 sensing cost table is too large: ")
    assert not (tmp_path / "d.json").exists()


def test_gen_of_a_size_numpy_cannot_allocate_is_a_validation_error(tmp_path, capsys):
    """gen --n 100000 --m 100000 exited 1 with kind "internal" and numpy's
    MemoryError text. At 2**28 x 2**28 the cost table asks for 2**59 bytes,
    past every address space, so it fails at once and touches no memory."""
    out = tmp_path / "huge.json"
    assert run(["gen", "--n", "268435456", "--m", "268435456", "--out", str(out)]) == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["kind"] == "validation"
    assert error["message"].startswith("a 268435456x268435456 instance is too large to generate: ")
    assert not out.exists()


@pytest.mark.parametrize("command", ["design", "analyze", "verify"])
def test_a_document_that_is_not_utf8_is_a_validation_error(tmp_path, capsys, command):
    """A byte 0xff in a document exited 1 with kind "internal" and the codec's
    text; verify reads the broken file as its design, the others as the
    instance."""
    path, _ = _gen(tmp_path)
    bad = tmp_path / "bad.json"
    bad.write_bytes(b'{"n": 1, "m": 1, "note": "\xff"}')
    argv = {"design": ["design", "--in", str(bad), "--out", str(tmp_path / "d.json")],
            "analyze": ["analyze", "--in", str(bad)],
            "verify": ["verify", "--in", str(path), "--design", str(bad)]}[command]
    assert run(argv) == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["kind"] == "validation"
    assert error["message"].startswith(f"{bad} is not UTF-8 text: ")


def test_analyze_reports_structure(tmp_path, capsys):
    path, instance = _gen(tmp_path)
    assert run(["analyze", "--in", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n"] == instance.n and doc["m"] == instance.m
    assert doc["structurally_full_rank"] is True
    assert doc["network_strongly_connected"] is True
    assert doc["network_undirected"] is False
    assert doc["num_parents"] == instance.m
    kinds = [comp["kind"] for comp in doc["components"]]
    assert kinds.count("parent") == instance.m


def test_design_roundtrip(tmp_path, capsys):
    path, instance = _gen(tmp_path)
    out = tmp_path / "design.json"
    assert run(["design", "--in", str(path), "--out", str(out)]) == 0
    msg = capsys.readouterr().out
    assert "sensing cost" in msg and "networking cost" in msg
    design = parse_design(out.read_text(encoding="utf-8"), instance.n, instance.m)
    assert design.sensing_cost > 0


def test_design_deterministic_bytes(tmp_path):
    path, _ = _gen(tmp_path)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["design", "--in", str(path), "--out", str(a)]) == 0
    assert run(["design", "--in", str(path), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_design_root_flag(tmp_path, capsys):
    path, instance = _gen(tmp_path)
    out = tmp_path / "d.json"
    assert run(["design", "--in", str(path), "--out", str(out), "--root", "2"]) == 0
    capsys.readouterr()
    # out-of-range root is a validation error, not infeasibility
    code = run(["design", "--in", str(path), "--out", str(out), "--root", "0"])
    assert code == 1
    assert _stderr_kind(capsys) == "validation"
    code = run(["design", "--in", str(path), "--out", str(out),
                "--root", str(instance.m + 1)])
    assert code == 1
    assert _stderr_kind(capsys) == "validation"


def test_design_root_and_all_roots_conflict(tmp_path, capsys):
    path, _ = _gen(tmp_path)
    out = tmp_path / "d.json"
    code = run(["design", "--in", str(path), "--out", str(out),
                "--root", "1", "--all-roots"])
    assert code == 1  # argparse usage error, remapped from 2
    capsys.readouterr()


def test_design_exact_flag(tmp_path, capsys):
    path, instance = _gen(tmp_path, n=5, m=4, density=0.15, seed=21)
    assert len(instance.network.arcs) <= 20
    out = tmp_path / "d.json"
    assert run(["design", "--in", str(path), "--out", str(out), "--exact"]) == 0
    assert "(exact)" in capsys.readouterr().out


def test_design_exact_guard_exit_code(monkeypatch, tmp_path, capsys):
    path, instance = _gen(tmp_path, n=10, m=8, density=0.9, seed=3)
    assert len(instance.network.arcs) > 20
    out = tmp_path / "d.json"
    code = run(["design", "--in", str(path), "--out", str(out), "--exact"])
    assert code == 3
    assert _stderr_kind(capsys) == "guard"
    assert not out.exists()

    # oracle refuses the same network before it scans the m! assignments
    def scan(matrix):
        raise AssertionError("brute_force_assignment ran")

    monkeypatch.setattr(cli, "brute_force_assignment", scan)
    assert run(["oracle", "--in", str(path)]) == 3
    assert _stderr_kind(capsys) == "guard"


def test_verify_reports_all_passes(tmp_path, capsys):
    path, _ = _gen(tmp_path)
    design = tmp_path / "d.json"
    assert run(["design", "--in", str(path), "--out", str(design)]) == 0
    capsys.readouterr()
    assert run(["verify", "--in", str(path), "--design", str(design),
                "--trials", "6", "--seed", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["trials"] == 6
    assert doc["passes"] == 6
    assert doc["rank_deficits"] == []  # deficits are recorded for failing trials only
    assert doc["tolerance"] == 1e-8


def test_verify_reports_rank_deficits(tmp_path, capsys):
    # a coarse tolerance drops genuine directions, so trials fail and each
    # failing trial records how far its rank fell short of m n = 24
    inst, design = tmp_path / "i.json", tmp_path / "d.json"
    assert run(["gen", "--n", "8", "--m", "3", "--seed", "4", "--out", str(inst)]) == 0
    assert run(["design", "--in", str(inst), "--out", str(design)]) == 0
    capsys.readouterr()
    assert run(["verify", "--in", str(inst), "--design", str(design),
                "--trials", "5", "--tol", "0.5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passes"] < doc["trials"] == 5
    assert len(doc["rank_deficits"]) == doc["trials"] - doc["passes"]
    assert all(1 <= deficit <= 24 for deficit in doc["rank_deficits"])


def test_verify_deterministic_stdout(tmp_path, capsys):
    path, _ = _gen(tmp_path)
    design = tmp_path / "d.json"
    assert run(["design", "--in", str(path), "--out", str(design)]) == 0
    capsys.readouterr()
    assert run(["verify", "--in", str(path), "--design", str(design)]) == 0
    first = capsys.readouterr().out
    assert run(["verify", "--in", str(path), "--design", str(design)]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_verify_refuses_gate_failure(tmp_path, capsys):
    path, instance = _gen(tmp_path, n=4, m=3, seed=6)
    design = tmp_path / "d.json"
    assert run(["design", "--in", str(path), "--out", str(design)]) == 0
    capsys.readouterr()
    # keep a single W link so the fused network cannot be strongly connected
    doc = json.loads(design.read_text(encoding="utf-8"))
    doc["W"] = doc["W"][:1]
    design.write_text(json.dumps(doc), encoding="utf-8")
    code = run(["verify", "--in", str(path), "--design", str(design)])
    assert code == 2
    err = capsys.readouterr().err
    body = json.loads(err)["error"]
    assert body["kind"] == "infeasible"
    assert "structural gate" in body["message"]


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf", "1.5"])
def test_verify_rejects_meaningless_tolerance(tmp_path, capsys, tol):
    # verify-probe's instance fails 1 trial of 20 at 1e-8: a tolerance <= 0
    # would pass that trial, 1.5 would fail all, and nan or inf is no JSON
    path, _ = _gen(tmp_path, n=12, m=2, density=0.3, seed=1856036422)
    design = tmp_path / "d.json"
    assert run(["design", "--in", str(path), "--out", str(design)]) == 0
    capsys.readouterr()
    code = run(["verify", "--in", str(path), "--design", str(design), "--tol", tol])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert json.loads(captured.err)["error"]["kind"] == "validation"


def test_oracle_agreement(tmp_path, capsys):
    path, _ = _gen(tmp_path, n=5, m=4, density=0.15, seed=8)
    assert run(["oracle", "--in", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["sensing"]["match"] is True
    assert doc["networking"]["gap"] >= 0.0
    assert doc["networking"]["heuristic_cost"] >= doc["networking"]["brute_force_cost"]


def test_oracle_undirected_is_exact(tmp_path, capsys):
    for n, m, density, seed in [(5, 4, 0.3, 12), (12, 9, 0.7, 2)]:
        path, instance = _gen(tmp_path, n=n, m=m, density=density, seed=seed, undirected=True)
        assert run(["oracle", "--in", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["networking"]["method"] == "mst"
        assert doc["networking"]["gap"] == 0.0
    # the spanning-tree oracle has no size guard: the last network has 31 edges
    assert len(instance.network.arcs) == 2 * 31


def test_oracle_single_sensor_costs_nothing(tmp_path, capsys):
    for undirected in (False, True):
        path, _ = _gen(tmp_path, n=3, m=1, seed=5, undirected=undirected)
        assert run(["oracle", "--in", str(path)]) == 0
        out = capsys.readouterr().out
        assert '"brute_force_cost": 0.0' in out and '"gap": 0.0' in out
        # the method of the solver that ran
        method = "mst" if undirected else "branching-union"
        assert json.loads(out)["networking"]["method"] == method


def test_export_dot(tmp_path, capsys):
    path, _ = _gen(tmp_path)
    out = tmp_path / "g.dot"
    assert run(["export-dot", "--in", str(path), "--out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert text.startswith("digraph")
    assert "x1" in text and "y1" in text
    capsys.readouterr()


def test_missing_input_file(tmp_path, capsys):
    code = run(["analyze", "--in", str(tmp_path / "nope.json")])
    assert code == 1
    assert _stderr_kind(capsys) == "io"


def test_malformed_instance_document(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    code = run(["analyze", "--in", str(path)])
    assert code == 1
    assert _stderr_kind(capsys) == "validation"


def test_infeasible_assignment_exit_code(tmp_path, capsys):
    # two decoupled self-loop states, both sensors restricted to state 1
    doc = {
        "n": 2,
        "m": 2,
        "A": [[1, 1], [2, 2]],
        "c": [
            {"sensor": 1, "state": 1, "cost": 1.0},
            {"sensor": 2, "state": 1, "cost": 2.0},
        ],
        "net": {
            "undirected": False,
            "links": [
                {"from": 1, "to": 2, "cost": 1.0},
                {"from": 2, "to": 1, "cost": 1.0},
            ],
        },
    }
    path = tmp_path / "inf.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "d.json"
    code = run(["design", "--in", str(path), "--out", str(out)])
    assert code == 2
    assert _stderr_kind(capsys) == "infeasible"


def test_scope_error_exit_code(tmp_path, capsys):
    # row of zeros: structurally rank deficient
    doc = {
        "n": 2,
        "m": 1,
        "A": [[1, 1], [1, 2]],
        "c": [
            {"sensor": 1, "state": 1, "cost": 1.0},
            {"sensor": 1, "state": 2, "cost": 1.0},
        ],
        "net": {"undirected": False, "links": []},
    }
    path = tmp_path / "scope.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "d.json"
    code = run(["design", "--in", str(path), "--out", str(out)])
    assert code == 2
    assert _stderr_kind(capsys) == "scope"
    assert run(["oracle", "--in", str(path)]) == 2
    assert _stderr_kind(capsys) == "scope"


@pytest.mark.parametrize(
    "exc, kind, code",
    [
        (ObsnetError("boom"), "error", 1),
        (ShapeError("boom"), "shape", 1),
        (ValidationError("boom"), "validation", 1),
        (InfeasibleError("boom"), "infeasible", 2),
        (ScopeError("boom"), "scope", 2),
        (GuardError("boom"), "guard", 3),
        (OSError("boom"), "io", 1),
        (RuntimeError("boom"), "internal", 1),
    ],
)
def test_error_kind_and_exit_code(monkeypatch, tmp_path, capsys, exc, kind, code):
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "generate_instance", fail)
    assert run(["gen", "--n", "2", "--m", "1", "--out", str(tmp_path / "g.json")]) == code
    assert json.loads(capsys.readouterr().err) == {"error": {"kind": kind, "message": "boom"}}


def test_usage_errors_exit_one(capsys):
    assert run([]) == 1
    assert run(["design"]) == 1
    assert run(["no-such-command"]) == 1
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert "obsnet" in capsys.readouterr().out


# --- one parser per process ---------------------------------------------------


def test_shared_parser_keeps_no_options_between_calls(tmp_path, capsys):
    path, instance = _gen(tmp_path)
    out = tmp_path / "d.json"
    all_roots = serialize_design(design_instance(instance))
    assert run(["design", "--in", str(path), "--out", str(out), "--root", "2"]) == 0
    assert out.read_bytes().decode() != all_roots
    assert run(["design", "--in", str(path), "--out", str(out)]) == 0
    assert out.read_bytes().decode() == all_roots
    capsys.readouterr()
    assert run(["verify", "--in", str(path), "--design", str(out),
                "--trials", "3", "--seed", "5", "--tol", "1e-6"]) == 0
    assert json.loads(capsys.readouterr().out)["trials"] == 3
    assert run(["verify", "--in", str(path), "--design", str(out)]) == 0
    text = capsys.readouterr().out
    design = parse_design(all_roots, instance.n, instance.m)
    assert text == canonical_json(verify_design_numeric(instance, design).to_json_dict())
    doc = json.loads(text)
    assert (doc["trials"], doc["tolerance"]) == (20, 1e-08)


def _fresh_parse(argv, capsys):
    """Exit code, stdout and stderr of argv through a parser of its own,
    for an argv that argparse ends with SystemExit."""
    with pytest.raises(SystemExit) as info:
        cli.build_parser().parse_args(argv)
    captured = capsys.readouterr()
    return 0 if info.value.code in (0, None) else 1, captured.out, captured.err


def test_usage_errors_and_help_leave_the_shared_parser_as_built(tmp_path, capsys):
    path, instance = _gen(tmp_path)
    out = tmp_path / "d.json"
    expected = serialize_design(design_instance(instance))
    for argv in (
        [],
        ["--help"],
        ["design", "--help"],
        ["design"],
        ["no-such-command"],
        ["design", "--in", str(path), "--out", str(out), "--root", "1", "--all-roots"],
        ["verify", "--in", str(path), "--design", str(out), "--trials", "2.5"],
    ):
        usual = _fresh_parse(argv, capsys)
        for _ in range(2):
            code = run(argv)
            captured = capsys.readouterr()
            assert (code, captured.out, captured.err) == usual, argv
        out.unlink(missing_ok=True)
        assert run(["design", "--in", str(path), "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert out.read_bytes().decode() == expected
        assert captured.out.startswith(f"design written to {out}: ") and captured.err == ""


def test_build_parser_returns_a_new_parser_each_time():
    first, second = cli.build_parser(), cli.build_parser()
    assert first is not second
    first.set_defaults(func=None)
    assert second.parse_args(["analyze", "--in", "x"]).func is cli.cmd_analyze


def test_run_builds_no_parser_after_its_first_call(monkeypatch, tmp_path, capsys):
    path, _ = _gen(tmp_path)
    design = tmp_path / "d.json"
    assert run(["design", "--in", str(path), "--out", str(design)]) == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert run(["design", "--in", str(path), "--out", str(design)]) == 0
    assert run(["verify", "--in", str(path), "--design", str(design), "--trials", "2"]) == 0
    assert run(["analyze", "--in", str(path)]) == 0
    assert run(["design"]) == 1
    assert run(["--help"]) == 0
    capsys.readouterr()
    assert built == []
    cli.build_parser()  # the count sees a build: one parser and six subcommands
    assert len(built) == 7
