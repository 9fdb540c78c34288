"""The instance reader takes its c records and links onto columns as json
decodes them, checks its A, c and net.links lists by whole columns, and reads
them again entry by entry only to name an error or to read a document of
another shape. Against the reference reader, which reads every entry in turn:
the same instance from a valid document, and the same exception and message
from a broken one."""

import dataclasses
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import obsnet
from obsnet import (
    ObsnetError,
    ProblemInstance,
    StructuredMatrix,
    ValidationError,
    WeightedDigraph,
    generate_instance,
    graphs,
    serialize_instance,
)
from obsnet.cli import run
from oracles import reference_parse_instance

# costs a document may hold: -0.0 keeps its sign, and ints past 2**53 round
COSTS = st.one_of(
    st.floats(0.0, 1e300),
    st.integers(0, 10**6),
    st.sampled_from([-0.0, 0.0, 0, 5e-324, 2**53 + 1, 2**63, 2**64]),
)


@st.composite
def documents(draw):
    """A valid instance document, its lists in no particular order."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 4))

    def cells(rows, cols, max_size):
        return st.lists(st.tuples(st.integers(1, rows), st.integers(1, cols)),
                        unique=True, max_size=max_size)

    links = {}
    for u, v in draw(cells(m, m, 6)):
        if u != v:
            links[(u, v)] = draw(COSTS)
    undirected = draw(st.booleans())
    if undirected:
        links.update({(v, u): cost for (u, v), cost in list(links.items())})
    return {
        "n": n,
        "m": m,
        "A": [[i, j] for i, j in draw(cells(n, n, 10))],
        "c": [{"sensor": i, "state": j, "cost": draw(COSTS)} for i, j in draw(cells(m, n, 12))],
        "net": {"undirected": undirected,
                "links": [{"from": u, "to": v, "cost": cost} for (u, v), cost in links.items()]},
    }


MISSING = object()
PAST = object()  # one past the largest index
INDEX_BREAKS = [True, False, 1.5, 1.0, "1", None, 0, -1, 2**63, 2**64, MISSING, PAST]
COST_BREAKS = [-1.0, -1, math.nan, math.inf, -math.inf, True, "1", None, MISSING,
               2**53 + 1, 2**63, 2**64, 10**400]
ENTRY_BREAKS = [5, None, "x", 1.5, [1], [1, 2, 3], {"row": 1}, [1, 2], {"sensor": 1}]


# per list: the entry a break lands on when the list is empty, and each index
# field with the count it may not pass
FIELDS = {
    "A": ([1, 1], {0: "n", 1: "n"}),
    "c": ({"sensor": 1, "state": 1, "cost": 1.0}, {"sensor": "m", "state": "n"}),
    "links": ({"from": 1, "to": 2, "cost": 1.0}, {"from": "m", "to": "m"}),
}


def _corrupt(data, doc) -> None:
    """Break one entry of A, c or net.links in place, duplicate one, or
    make a link a self-link."""
    key = data.draw(st.sampled_from(["A", "c", "links"]))
    entries = doc["net"]["links"] if key == "links" else doc[key]
    first, bounds = FIELDS[key]
    fields = list(bounds)
    if not entries:  # give the break an entry to land on
        entries.append(json.loads(json.dumps(first)))
    k = data.draw(st.integers(0, len(entries) - 1))
    well_formed = (isinstance(entries[k], list) and len(entries[k]) == 2 if key == "A"
                   else isinstance(entries[k], dict) and set(fields) <= entries[k].keys())
    how = data.draw(st.sampled_from(["index", "cost", "entry", "duplicate"]
                                    + ["self-link"] * (key == "links")))
    if how == "entry" or not well_formed:
        entries[k] = data.draw(st.sampled_from(ENTRY_BREAKS))
    elif how == "duplicate":
        copy = json.loads(json.dumps(entries[k]))
        entries.insert(data.draw(st.integers(0, len(entries))), copy)
    elif how == "self-link":
        entries[k]["to"] = entries[k]["from"]
    elif how == "cost" and key != "A":
        value = data.draw(st.sampled_from(COST_BREAKS))
        if value is MISSING:
            entries[k].pop("cost", None)
        else:
            entries[k]["cost"] = value
    else:
        field = data.draw(st.sampled_from(fields))
        value = data.draw(st.sampled_from(INDEX_BREAKS))
        if value is PAST:
            value = doc[bounds[field]] + 1
        if value is MISSING:
            del entries[k][field]
        else:
            entries[k][field] = value


def _outcome(read, text: str):
    try:
        instance = read(text)
    except ObsnetError as exc:
        return type(exc), str(exc)
    table = instance.sensing_cost
    return (instance.n, instance.m, instance.system_pattern, table.shape, table.tobytes(),
            list(instance.network.arcs.items()), instance.network_undirected)


def _reads_as_reference(text: str) -> None:
    """Same outcome as the reference reader; a valid document never takes
    the per-entry path."""
    with mock.patch.object(graphs, "_records_by_entry",
                           wraps=graphs._records_by_entry) as records_by_entry, \
         mock.patch.object(graphs, "_pattern_by_entry",
                           wraps=graphs._pattern_by_entry) as pattern_by_entry:
        got = _outcome(graphs.parse_instance, text)
    want = _outcome(reference_parse_instance, text)
    assert got == want
    if not isinstance(want[0], type):
        assert not records_by_entry.called and not pattern_by_entry.called


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_reader_matches_reference_on_generated_documents(data):
    doc = data.draw(documents())
    for _ in range(data.draw(st.integers(0, 2))):
        _corrupt(data, doc)
    _reads_as_reference(json.dumps(doc))


# hand-shaped documents: a generated one with 6,000 c entries, so that an
# error can follow a long valid prefix, and a small undirected one
BASES = [serialize_instance(generate_instance(300, 20, seed=3)),
         serialize_instance(generate_instance(8, 3, seed=5, undirected=True))]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_reader_matches_reference_on_hand_shaped_documents(data):
    doc = json.loads(data.draw(st.sampled_from(BASES)))
    for _ in range(data.draw(st.integers(0, 2))):
        _corrupt(data, doc)
    _reads_as_reference(json.dumps(doc))


@pytest.mark.parametrize("at", [0, 4321, 5999])
def test_a_duplicate_after_thousands_of_entries_is_named(at):
    doc = json.loads(BASES[0])
    assert len(doc["c"]) == 6000
    entry = doc["c"][at]
    doc["c"].append(dict(entry))
    with pytest.raises(ValidationError) as info:
        graphs.parse_instance(json.dumps(doc))
    assert str(info.value) == (
        f"c[6000]: duplicate entry for sensor {entry['sensor']}, state {entry['state']}"
    )


def test_a_self_link_after_thousands_of_links_is_named():
    doc = json.loads(serialize_instance(generate_instance(100, 100, 1.0, 5)))
    assert len(doc["net"]["links"]) == 9900
    doc["net"]["links"].append({"from": 1, "to": 1, "cost": 1.0})
    with pytest.raises(ValidationError) as info:
        graphs.parse_instance(json.dumps(doc))
    assert str(info.value) == "net.links[9900]: self-link 1 -> 1 is not allowed"


def _one_instance() -> str:
    """One instance, written canonically, without the cell of RECORD_KEYS
    (sensor 1 may not measure state 1) or the link of LINK_KEYS (1 -> 2), so
    that reading either object as a record would change the instance."""
    instance = generate_instance(12, 4, 0.3, 2)
    table = instance.sensing_cost.copy()
    table[0, 0] = np.inf
    assert (0, 1) not in instance.network.arcs
    return serialize_instance(dataclasses.replace(instance, sensing_cost=table))


# Documents that hold ONE_INSTANCE in other shapes. The c records and links
# are taken onto columns as json decodes them; a document with a
# record-shaped object where no record belongs is decoded again and read
# entry by entry (``reread``).
ONE_INSTANCE = _one_instance()


def _shuffled(value, rng: random.Random):
    """``value`` with the keys of every object in a random order."""
    if isinstance(value, dict):
        keys = list(value)
        rng.shuffle(keys)
        return {key: _shuffled(value[key], rng) for key in keys}
    if isinstance(value, list):
        return [_shuffled(item, rng) for item in value]
    return value


def _extra_key_in_each_record(doc):
    for record in doc["c"] + doc["net"]["links"]:
        record["note"] = "kept out"


RECORD_KEYS = {"sensor": 1, "state": 1, "cost": 0.5}
LINK_KEYS = {"from": 1, "to": 2, "cost": 0.5}
SHAPES = [  # (name, edit of the document, reread)
    ("extra-key-in-each-record", _extra_key_in_each_record, False),
    ("record-under-extra-key", lambda doc: doc.update(notes=[dict(RECORD_KEYS)]), True),
    ("link-under-extra-key", lambda doc: doc.update(notes={"link": dict(LINK_KEYS)}), True),
    ("top-level-record-keys", lambda doc: doc.update(RECORD_KEYS), True),
    ("top-level-link-keys", lambda doc: doc.update(LINK_KEYS), True),
    ("net-record-keys", lambda doc: doc["net"].update(RECORD_KEYS), True),
    ("net-link-keys", lambda doc: doc["net"].update(LINK_KEYS), True),
]


def _shaped(edit) -> str:
    doc = json.loads(ONE_INSTANCE)
    edit(doc)
    return json.dumps(doc)


@pytest.mark.parametrize("text, reread", [
    pytest.param(ONE_INSTANCE, False, id="canonical"),
    pytest.param(json.dumps(_shuffled(json.loads(ONE_INSTANCE), random.Random(3)),
                            separators=(",", ":")), False, id="compact-shuffled-keys"),
    *(pytest.param(_shaped(edit), reread, id=name) for name, edit, reread in SHAPES),
])
def test_documents_of_one_instance_parse_alike(text, reread):
    want = graphs.parse_instance(ONE_INSTANCE)
    with mock.patch.object(graphs, "_records_by_entry",
                           wraps=graphs._records_by_entry) as records_by_entry:
        got = graphs.parse_instance(text)
    assert records_by_entry.called == reread
    assert (got.n, got.m, got.network_undirected) == (want.n, want.m, want.network_undirected)
    assert got.sensing_cost.tobytes() == want.sensing_cost.tobytes()
    assert list(got.network.arcs.items()) == list(want.network.arcs.items())  # link order
    assert got.system_pattern == want.system_pattern
    assert _outcome(reference_parse_instance, text) == _outcome(graphs.parse_instance, text)


def _set(block: str, k: int, field: str, value):
    def edit(doc):
        records = doc["net"]["links"] if block == "links" else doc["c"]
        records[k][field] = value
    return edit


@pytest.mark.parametrize("edit, message", [
    pytest.param(lambda doc: doc["c"][5].pop("cost"),
                 "c[5]: missing required field 'cost'", id="missing-cost"),
    pytest.param(_set("c", 7, "sensor", True),
                 "c[7].sensor: expected an integer index, got True", id="true-sensor"),
    pytest.param(lambda doc: doc["c"].append(dict(doc["c"][3])),
                 "c[47]: duplicate entry for sensor 1, state 5", id="duplicate"),
    pytest.param(_set("links", 2, "to", 2),
                 "net.links[2]: self-link 2 -> 2 is not allowed", id="self-link"),
    pytest.param(lambda doc: doc["net"]["links"].insert(4, [1, 2]),
                 "net.links[4]: expected an object, got [1, 2]", id="non-object"),
    pytest.param(_set("c", 9, "cost", dict(LINK_KEYS)),
                 f"c[9].cost: expected a number, got {LINK_KEYS!r}", id="link-as-cost"),
    pytest.param(_set("links", 1, "cost", dict(RECORD_KEYS)),
                 f"net.links[1].cost: expected a number, got {RECORD_KEYS!r}",
                 id="record-as-cost"),
])
def test_broken_records_keep_their_messages(edit, message):
    text = _shaped(edit)
    with pytest.raises(ValidationError) as info:
        graphs.parse_instance(text)
    assert str(info.value) == message
    assert _outcome(reference_parse_instance, text) == (ValidationError, message)


def test_reader_holds_no_dict_per_record():
    """The reader's traced peak, from after the document text exists, per c
    record: a dict per record held about 330 B each; the taken columns hold
    about 160."""
    instance = generate_instance(1000, 50, 0.3, 1)
    records = int(np.isfinite(instance.sensing_cost).sum())
    text = serialize_instance(instance)
    assert records == 50_000
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        graphs.parse_instance(text)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak / records < 220


def _edit(path, value):
    def edit(doc):
        *keys, last = path
        for key in keys:
            doc = doc[key]
        doc[last] = value
    return edit


def test_integers_past_float_range_are_validation_errors(tmp_path, capsys):
    """Such integers raised OverflowError, and the CLI reported kind "internal"."""
    doc = json.loads(serialize_instance(generate_instance(6, 3, seed=2)))
    huge = 10**400
    cases = [
        (_edit(["c", 4, "cost"], huge),
         "c[4].cost: must fit a float, got an integer of 401 digits"),
        (_edit(["net", "links", 1, "cost"], huge),
         "net.links[1].cost: must fit a float, got an integer of 401 digits"),
    ]
    for k, (edit, message) in enumerate(cases):
        broken = json.loads(json.dumps(doc))
        edit(broken)
        path = tmp_path / f"huge-{k}.json"
        path.write_text(json.dumps(broken), encoding="utf-8")
        assert run(["design", "--in", str(path), "--out", str(tmp_path / "d.json")]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == {
            "kind": "validation", "message": message}


def test_design_cost_past_float_range_is_a_validation_error(tmp_path, capsys):
    instance = tmp_path / "inst.json"
    design = tmp_path / "design.json"
    assert run(["gen", "--n", "6", "--m", "3", "--seed", "2", "--out", str(instance)]) == 0
    assert run(["design", "--in", str(instance), "--out", str(design)]) == 0
    doc = json.loads(design.read_text(encoding="utf-8"))
    doc["sensing_cost"] = 10**400
    design.write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert run(["verify", "--in", str(instance), "--design", str(design)]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == {
        "kind": "validation",
        "message": "design.sensing_cost: must fit a float, got an integer of 401 digits",
    }


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="this Python reads integers of any length")
def test_unreadable_documents_are_validation_errors(tmp_path, capsys):
    """An integer past the int-string limit raised a plain ValueError, and
    deep nesting a RecursionError; the CLI reported both as "internal"."""
    long_n = "9" * (sys.get_int_max_str_digits() + 1)
    for k, text in enumerate([f'{{"n": {long_n}, "m": 1}}', "[" * 100_000]):
        path = tmp_path / f"bad-{k}.json"
        path.write_text(text, encoding="utf-8")
        assert run(["design", "--in", str(path), "--out", str(tmp_path / "d.json")]) == 1
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["kind"] == "validation"
        assert error["message"].startswith("instance document cannot be read: ")


@pytest.mark.parametrize("n, m", [(10**30, 1), (2**62, 4), (2**28, 2**28)],
                         ids=["dimension", "bytes", "allocation"])
def test_sensing_table_numpy_cannot_build_is_a_validation_error(tmp_path, capsys, n, m):
    """Past numpy's dimension or byte limit, building the (m, n) table raised
    numpy's ValueError, and the CLI reported it as "internal"; so did the
    MemoryError of a table numpy accepts but cannot allocate. A 2**28 x 2**28
    table asks for 2**59 bytes, past every address space, so the allocation
    fails at once and touches no memory. Sizes that could be allocated are
    not tried here."""
    message = f"a {m}x{n} sensing cost table is too large: "
    text = json.dumps({"n": n, "m": m, "A": [[1, 1]], "c": [],
                       "net": {"undirected": False, "links": []}})
    with pytest.raises(ValidationError, match=message):
        graphs.parse_instance(text)
    with pytest.raises(ValidationError, match=message):
        ProblemInstance(n=n, m=m, system_pattern=StructuredMatrix(n, n, frozenset({(0, 0)})),
                        sensing_cost={}, network=WeightedDigraph(m, {}))
    path = tmp_path / "huge.json"
    path.write_text(text, encoding="utf-8")
    assert run(["analyze", "--in", str(path)]) == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["kind"] == "validation"
    assert error["message"].startswith(message)


# Runs one route to a sensing-table copy with ``room`` bytes of address space
# left, and prints the exception it ends with, or "accepted".
TABLE_COPY_CHILD = """
import json, resource, sys
import numpy as np
from obsnet import generate, graphs

def cap(room):
    # the process may map ``room`` bytes more than it has mapped now
    with open("/proc/self/status") as status:
        mapped = next(int(line.split()[1]) * 1024 for line in status
                      if line.startswith("VmSize:"))
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    resource.setrlimit(resource.RLIMIT_AS, (mapped + room, hard))

route, m, n, room = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), int(sys.argv[4])
try:
    if route == "parse":
        text = json.dumps({"n": n, "m": m, "A": [[1, 1]], "c": [],
                           "net": {"undirected": False, "links": []}})
        cap(room)
        graphs.parse_instance(text)
    elif route == "convert":
        costs = np.ones((m, n), dtype=np.float32)
        pattern = graphs.StructuredMatrix(n, n, frozenset())
        network = graphs.WeightedDigraph(m, {})
        cap(room)
        graphs.ProblemInstance(n=n, m=m, system_pattern=pattern, sensing_cost=costs,
                               network=network)
    else:
        make = generate.ProblemInstance

        def capped(**fields):
            cap(room)
            return make(**fields)

        generate.ProblemInstance = capped
        generate.generate_instance(n, m, 0.0, 1)
    print("accepted")
except Exception as exc:
    print(type(exc).__name__, exc)
"""

TOO_LARGE = "ValidationError a {m}x{n} sensing cost table is too large: Unable to allocate"


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc and caps RLIMIT_AS")
@pytest.mark.parametrize("route, m, n, tables, want", [
    # the parsed table fits, its copy does not
    pytest.param("parse", 1, 5_000_000, 1.5, TOO_LARGE, id="parse-1-5000000"),
    # both fit, and the cost check needs no more
    pytest.param("parse", 1, 5_000_000, 2, "accepted", id="parse-checked-1-5000000"),
    # the drawn table is made; its copy does not fit
    pytest.param("generate", 1000, 5000, 0.5, TOO_LARGE, id="generate-1000-5000"),
    # a float32 table fits, its float64 copy does not
    pytest.param("convert", 1000, 5000, 0.5, TOO_LARGE, id="convert-1000-5000"),
])
def test_sensing_table_copy_that_cannot_be_allocated_is_a_validation_error(
        route, m, n, tables, want):
    """ProblemInstance keeps its own float64 copy of an array of sensing
    costs, and parse_instance and generate_instance each hand it a table they
    have just built. A copy or conversion that memory could not hold raised
    numpy's MemoryError, which the CLI reported as "internal", and so did the
    NaN and negative check's three (m, n) bool arrays after a copy that fit.
    A child process lets itself map ``tables`` 40 MB tables plus 1 MiB more
    than it has mapped; a table past glibc's 32 MiB mmap threshold is always
    mapped afresh, never taken from freed heap."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(obsnet.__file__).parents[1]))
    room = int(tables * 8 * m * n) + (1 << 20)
    child = subprocess.run(
        [sys.executable, "-c", TABLE_COPY_CHILD, route, str(m), str(n), str(room)],
        capture_output=True, text=True, env=env, timeout=120, check=True)
    assert child.stdout.startswith(want.format(m=m, n=n))
