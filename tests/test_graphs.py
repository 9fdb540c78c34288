import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obsnet import (
    ObsnetError,
    ProblemInstance,
    ShapeError,
    StructuredMatrix,
    ValidationError,
    WeightedDigraph,
    export_instance_dot,
    generate_instance,
    msss_best_root,
    parse_design,
    parse_instance,
    serialize_design,
    serialize_instance,
)
from obsnet import graphs
from obsnet.graphs import DesignResult, serialize_instance_chunks
from oracles import reference_design_json, reference_instance_json


def small_instance(undirected=False) -> ProblemInstance:
    cost = 2.0 if undirected else 3.0
    arcs = {(0, 1): 2.0, (1, 0): cost}
    return ProblemInstance(
        n=2,
        m=2,
        system_pattern=StructuredMatrix(2, 2, frozenset({(0, 0), (1, 1)})),
        sensing_cost={(0, 0): 1.0, (0, 1): 4.0, (1, 0): 2.0, (1, 1): 1.5},
        network=WeightedDigraph(2, arcs),
        network_undirected=undirected,
    )


def test_structured_matrix_rejects_out_of_range():
    with pytest.raises(ValidationError):
        StructuredMatrix(2, 2, frozenset({(2, 0)}))
    with pytest.raises(ShapeError):
        StructuredMatrix(-1, 2, frozenset())


def test_structured_matrix_takes_only_integer_indices():
    pattern = StructuredMatrix(2, 2, frozenset({(np.int64(1), np.int32(0)), (0, 1)}))
    assert pattern.nonzeros == {(1, 0), (0, 1)}
    assert all(type(x) is int for pair in pattern.nonzeros for x in pair)
    for bad in ((0.5, 1), (1, 1.0), (True, 0), (np.float64(0.0), 1)):
        with pytest.raises(ValidationError, match=r"^nonzero \(.*\) must have integer indices$"):
            StructuredMatrix(2, 2, frozenset({bad, (1, 0)}))
    with pytest.raises(ValidationError, match=r"^nonzero \(0\.5, 1\) "):
        StructuredMatrix(2, 2, frozenset({(0.5, 1)}))


def test_weighted_digraph_needs_a_node():
    for count in (0, -1):
        with pytest.raises(ValidationError, match=f"^network needs node_count >= 1, got {count}$"):
            WeightedDigraph(count, {})


def test_weighted_digraph_rejects_bad_costs():
    with pytest.raises(ValidationError):
        WeightedDigraph(2, {(0, 1): -1.0})
    with pytest.raises(ValidationError):
        WeightedDigraph(2, {(0, 1): float("inf")})
    with pytest.raises(ValidationError):
        WeightedDigraph(1, {(0, 1): 1.0})
    # parse_instance refuses a self-link, so the constructor does too
    with pytest.raises(ValidationError, match=r"^arc \(0, 0\) is a self-link, which is not allowed$"):
        WeightedDigraph(2, {(0, 0): 1.0, (0, 1): 1.0, (1, 0): 2.0})


def test_arcs_and_sensing_keys_take_the_pattern_index_rule():
    # a float index was accepted as an arc, and msss_best_root then raised a
    # bare TypeError; as a sensing-cost key it raised numpy's IndexError
    with pytest.raises(ValidationError) as info:
        msss_best_root(WeightedDigraph(2, {(0.5, 1): 1.0, (1, 0): 1.0}))
    assert str(info.value) == "arc (0.5, 1) must have integer indices"
    with pytest.raises(ValidationError) as info:
        _with_costs({(0.5, 0): 1.0})
    assert str(info.value) == "sensing cost entry (0.5, 0) must have integer indices"
    for bad in ((True, 1), (0, "1"), (None, 0), (np.float64(0.0), 1)):
        with pytest.raises(ValidationError, match=r"^arc \(.*\) must have integer indices$"):
            WeightedDigraph(2, {bad: 1.0})
        with pytest.raises(ValidationError, match=r"^sensing cost entry \(.*\) must have integer"):
            _with_costs({bad: 1.0})
    for (pair, message) in (((0, 2), "arc (0, 2) out of range for 2x2 network"),
                            ((-1, 0), "arc (-1, 0) out of range for 2x2 network")):
        with pytest.raises(ValidationError) as info:
            WeightedDigraph(2, {pair: 1.0})
        assert str(info.value) == message
    with pytest.raises(ValidationError) as info:
        _with_costs({(2, 0): 1.0})
    assert str(info.value) == "sensing cost entry (2, 0) out of range for 2x2 table"
    # a key that does not unpack into two raised a bare TypeError or ValueError;
    # a range or frozenset that did got in, and broke the solvers later
    for key in (5, (1, 2, 3), (0,), "abc", range(2), frozenset({0, 1})):
        with pytest.raises(ValidationError) as info:
            WeightedDigraph(2, {(0, 1): 1.0, key: 1.0})
        assert str(info.value) == f"arc {key!r} is not an index pair"
        with pytest.raises(ValidationError) as info:
            StructuredMatrix(2, 2, frozenset({key}))
        assert str(info.value) == f"nonzero {key!r} is not an index pair"
        with pytest.raises(ValidationError) as info:
            _with_costs({key: 1.0})
        assert str(info.value) == f"sensing cost entry {key!r} is not an index pair"
    net = WeightedDigraph(2, {(np.int64(0), np.uint8(1)): 1.0, (np.int32(1), 0): 2.0})
    assert net.arcs == {(0, 1): 1.0, (1, 0): 2.0}
    assert all(type(x) is int for arc in net.arcs for x in arc)
    instance = _with_costs({(np.int64(1), np.int16(0)): 2.5})
    assert instance.sensing_cost.tolist() == [[np.inf, np.inf], [2.5, np.inf]]


def test_weighted_digraph_cost_is_any_real_but_bool():
    net = WeightedDigraph(3, {(0, 1): np.int64(3), (1, 2): np.float32(0.5), (2, 0): 2})
    assert net.arcs == {(0, 1): 3.0, (1, 2): 0.5, (2, 0): 2.0}
    assert all(type(cost) is float for cost in net.arcs.values())
    for bad in (True, np.True_, "1"):
        with pytest.raises(ValidationError, match=r"cost must be a real number, got "):
            WeightedDigraph(2, {(0, 1): bad})
    with pytest.raises(ValidationError, match="cost must be finite and >= 0, got -3"):
        WeightedDigraph(2, {(0, 1): np.int64(-3)})
    # an int past float range raised a bare OverflowError
    with pytest.raises(ValidationError) as info:
        WeightedDigraph(2, {(0, 1): 10**400})
    assert str(info.value) == "arc (0, 1) cost must fit a float, got an integer of 401 digits"
    with pytest.raises(ValidationError) as info:
        _with_costs({(0, 0): 1.0, (1, 1): -10**400})
    assert str(info.value) == (
        "sensing cost for sensor 2, state 2 must fit a float, got an integer of 401 digits"
    )


def test_instance_roundtrip_exact():
    instance = small_instance()
    text = serialize_instance(instance)
    back = parse_instance(text)
    assert serialize_instance(back) == text
    assert np.array_equal(back.sensing_cost, instance.sensing_cost)


def test_generated_instance_roundtrip():
    for seed in range(5):
        text = serialize_instance(generate_instance(6, 3, density=0.4, seed=seed))
        assert serialize_instance(parse_instance(text)) == text


def test_int_link_costs_roundtrip_byte_stable():
    instance = dataclasses.replace(
        small_instance(), network=WeightedDigraph(2, {(0, 1): 1, (1, 0): 3})
    )
    text = serialize_instance(instance)
    assert serialize_instance(parse_instance(text)) == text
    assert '"cost": 1.0' in text and '"cost": 3.0' in text


def _with_costs(costs) -> ProblemInstance:
    return dataclasses.replace(small_instance(), sensing_cost=costs)


def test_sensing_cost_is_a_read_only_array():
    source = np.array([[1.0, np.inf], [2.0, 0.0]])
    instance = _with_costs(source)
    source[0, 0] = 7.0  # the instance holds its own copy
    assert instance.sensing_cost.dtype == np.float64
    assert instance.sensing_cost.tolist() == [[1.0, np.inf], [2.0, 0.0]]
    with pytest.raises(ValueError):
        instance.sensing_cost[0, 0] = 3.0
    # a mapping leaves the missing pairs forbidden
    assert _with_costs({(1, 0): 2.5}).sensing_cost.tolist() == [[np.inf, np.inf], [2.5, np.inf]]
    # inf entries are left out of the document, the rest keep their order
    doc = json.loads(serialize_instance(instance))
    assert [(e["sensor"], e["state"], e["cost"]) for e in doc["c"]] == [
        (1, 1, 1.0), (2, 1, 2.0), (2, 2, 0.0)
    ]


def test_sensing_cost_array_rejects_bad_entries():
    with pytest.raises(ShapeError, match="sensing cost is 2x3, expected 2x2"):
        _with_costs(np.ones((2, 3)))
    with pytest.raises(ShapeError, match="sensing cost is 4, expected 2x2"):
        _with_costs([1.0, 2.0, 3.0, 4.0])
    # the first bad entry in row-major order is named
    for bad, shown in ((np.nan, "nan"), (-1.0, "-1.0"), (-np.inf, "-inf")):
        costs = np.array([[1.0, np.inf], [bad, -5.0]])
        with pytest.raises(ValidationError) as info:
            _with_costs(costs)
        assert str(info.value) == (
            f"sensing cost for sensor 2, state 1 must be finite and >= 0, got {shown}"
        )


def test_sensing_cost_mapping_rejects_bad_entries():
    with pytest.raises(ValidationError, match=r"entry \(2, 0\) out of range"):
        _with_costs({(2, 0): 1.0})
    with pytest.raises(ValidationError, match=r"entry \(0, -1\) out of range"):
        _with_costs({(0, -1): 1.0})
    for bad in (float("inf"), float("nan"), -0.5):
        with pytest.raises(ValidationError) as info:
            _with_costs({(0, 0): 1.0, (1, 1): bad})
        assert str(info.value) == (
            f"sensing cost for sensor 2, state 2 must be finite and >= 0, got {bad}"
        )


def test_sensing_cost_must_be_real_numbers():
    for bad in ("1", None, 1j, True, np.True_):
        with pytest.raises(ValidationError) as info:
            _with_costs({(0, 0): bad})
        assert str(info.value) == (
            f"sensing cost for sensor 1, state 1 must be a real number, got {bad!r}"
        )
    for bad, dtype in (([["x"]], "<U1"), ([[True]], "bool"), ([[1j, 1], [1, 1]], "complex128"),
                       ([[1, None], [1, 1]], "object"), ([[10**20]], "object")):
        with pytest.raises(ValidationError) as info:
            _with_costs(bad)
        assert str(info.value) == f"sensing cost must hold real numbers, got dtype {dtype}"
    with pytest.raises(ValidationError, match="^sensing cost is not an array: "):
        _with_costs([[1.0, 2.0], [3.0]])
    # integer arrays are real numbers
    assert _with_costs(np.array([[1, 2], [3, 4]], dtype=np.uint8)).sensing_cost.tolist() == [
        [1.0, 2.0], [3.0, 4.0]
    ]


def test_parse_instance_rejects_garbage():
    with pytest.raises(ValidationError):
        parse_instance("not json")
    with pytest.raises(ValidationError):
        parse_instance("[1, 2]")
    ok = json.loads(serialize_instance(small_instance()))

    bad = dict(ok)
    del bad["net"]
    with pytest.raises(ValidationError):
        parse_instance(json.dumps(bad))

    bad = json.loads(serialize_instance(small_instance()))
    bad["A"].append(bad["A"][0])
    with pytest.raises(ValidationError, match="duplicate"):
        parse_instance(json.dumps(bad))

    bad = json.loads(serialize_instance(small_instance()))
    bad["A"][0] = [0, 1]
    with pytest.raises(ValidationError, match="out of range"):
        parse_instance(json.dumps(bad))

    bad = json.loads(serialize_instance(small_instance()))
    bad["c"][0]["cost"] = -2
    with pytest.raises(ValidationError, match="cost"):
        parse_instance(json.dumps(bad))

    bad = json.loads(serialize_instance(small_instance()))
    bad["c"].append(dict(bad["c"][2]))
    with pytest.raises(ValidationError, match="duplicate entry for sensor 2, state 1"):
        parse_instance(json.dumps(bad))

    bad = json.loads(serialize_instance(small_instance()))
    bad["net"]["links"].append({"from": 1, "to": 1, "cost": 1.0})
    with pytest.raises(ValidationError, match="self-link"):
        parse_instance(json.dumps(bad))

    bad = json.loads(serialize_instance(small_instance()))
    bad["n"] = True
    with pytest.raises(ValidationError):
        parse_instance(json.dumps(bad))


def _set(path, value):
    def edit(doc):
        *keys, last = path
        for key in keys:
            doc = doc[key]
        doc[last] = value
    return edit


@pytest.mark.parametrize("edit, message", [
    (_set(["A", 0], [1]), "A[0]: expected a [row, col] pair, got [1]"),
    (_set(["c", 0], 5), "c[0]: expected an object, got 5"),
    (_set(["net", "links", 1], [2, 1]), "net.links[1]: expected an object, got [2, 1]"),
    (_set(["net", "links", 0, "cost"], -1.0),
     "net.links[0].cost: must be finite and >= 0, got -1.0"),
    (lambda doc: doc["net"]["links"].append(dict(doc["net"]["links"][0])),
     "net.links[2]: duplicate link 1 -> 2"),
], ids=["A-not-a-pair", "c-not-an-object", "link-not-an-object", "negative-link-cost",
        "duplicate-link"])
def test_parse_instance_rejects_bad_entries(edit, message):
    doc = json.loads(serialize_instance(small_instance()))
    edit(doc)
    with pytest.raises(ValidationError) as info:
        parse_instance(json.dumps(doc))
    assert str(info.value) == message


@pytest.mark.parametrize("changes, error, message", [
    ({"n": 0}, ValidationError, "need n >= 1 and m >= 1, got n=0, m=2"),
    ({"m": 0}, ValidationError, "need n >= 1 and m >= 1, got n=2, m=0"),
    ({"system_pattern": StructuredMatrix(3, 3, frozenset())}, ShapeError,
     "system pattern is 3x3, expected 2x2"),
    ({"network": WeightedDigraph(3, {})}, ShapeError, "network has 3 nodes, expected m=2"),
    ({"network_undirected": True}, ValidationError,
     "network is flagged undirected but the links are not symmetric with equal costs"),
    ({"network": WeightedDigraph(2, {(0, 1): 1.0}), "network_undirected": True}, ValidationError,
     "network is flagged undirected but the links are not symmetric with equal costs"),
], ids=["n-zero", "m-zero", "pattern-shape", "network-size", "asymmetric-undirected",
        "one-way-undirected"])
def test_problem_instance_rejects_inconsistent_fields(changes, error, message):
    with pytest.raises(error) as info:
        dataclasses.replace(small_instance(), **changes)
    assert str(info.value) == message


def test_parse_instance_undirected_needs_symmetry():
    doc = json.loads(serialize_instance(small_instance()))
    doc["net"]["undirected"] = True
    with pytest.raises(ValidationError, match="unequal costs"):
        parse_instance(json.dumps(doc))
    sym = json.loads(serialize_instance(small_instance(undirected=True)))
    del sym["net"]["links"][1]
    sym["net"]["undirected"] = True
    with pytest.raises(ValidationError, match="no reverse"):
        parse_instance(json.dumps(sym))


def _three_sensor_links(*links) -> str:
    """An undirected three-sensor instance document with the 1-based links
    (from, to, cost) in this order."""
    return json.dumps({
        "n": 1, "m": 3, "A": [[1, 1]], "c": [],
        "net": {"undirected": True,
                "links": [{"from": u, "to": v, "cost": c} for (u, v, c) in links]},
    })


@pytest.mark.parametrize("links, message", [
    ([(3, 2, 1.0), (1, 2, 1.0), (2, 1, 1.0)],
     "net: undirected flag set but link 3 -> 2 has no reverse link 2 -> 3"),
    ([(2, 1, 1.0), (1, 3, 1.0), (1, 2, 1.0)],
     "net: undirected flag set but link 1 -> 3 has no reverse link 3 -> 1"),
    ([(2, 1, 4.0), (1, 2, 2.5)],
     "net: undirected flag set but links 2 <-> 1 have unequal costs 4.0 and 2.5"),
    ([(3, 1, 1.0), (1, 2, 2.0), (2, 1, 1.0), (1, 3, 1.0)],
     "net: undirected flag set but links 1 <-> 2 have unequal costs 2.0 and 1.0"),
    ([(2, 3, 1.0), (1, 2, 2.0), (2, 1, 1.0)],
     "net: undirected flag set but link 2 -> 3 has no reverse link 3 -> 2"),
], ids=["missing-first", "missing-later", "unequal-first", "unequal-later", "missing-before-unequal"])
def test_parse_instance_names_the_first_asymmetric_link_in_the_document(links, message):
    with pytest.raises(ValidationError) as info:
        parse_instance(_three_sensor_links(*links))
    assert str(info.value) == message


def _design() -> DesignResult:
    return DesignResult(
        measurement_pattern=StructuredMatrix(2, 3, frozenset({(0, 0), (1, 2)})),
        network_pattern=StructuredMatrix(2, 2, frozenset({(0, 1), (1, 0)})),
        sensing_cost=2.5,
        networking_cost=4.0,
        network_optimality="exact",
    )


def test_design_roundtrip():
    design = _design()
    text = serialize_design(design)
    assert parse_design(text, n=3, m=2) == design
    assert serialize_design(parse_design(text, n=3, m=2)) == text


def test_design_result_enforces_measurement_shape():
    with pytest.raises(ValidationError, match="one nonzero per row"):
        DesignResult(
            measurement_pattern=StructuredMatrix(2, 2, frozenset({(0, 0)})),
            network_pattern=StructuredMatrix(2, 2, frozenset()),
            sensing_cost=0.0,
            networking_cost=0.0,
            network_optimality="exact",
        )
    with pytest.raises(ValidationError, match="at most one"):
        DesignResult(
            measurement_pattern=StructuredMatrix(2, 2, frozenset({(0, 0), (1, 0)})),
            network_pattern=StructuredMatrix(2, 2, frozenset()),
            sensing_cost=0.0,
            networking_cost=0.0,
            network_optimality="exact",
        )
    with pytest.raises(ShapeError, match="network pattern is 3x3, expected 2x2"):
        dataclasses.replace(_design(), network_pattern=StructuredMatrix(3, 3, frozenset()))


def test_parse_design_rejects_bad_optimality():
    design = DesignResult(
        measurement_pattern=StructuredMatrix(1, 1, frozenset({(0, 0)})),
        network_pattern=StructuredMatrix(1, 1, frozenset()),
        sensing_cost=1.0,
        networking_cost=0.0,
        network_optimality="exact",
    )
    doc = json.loads(serialize_design(design))
    doc["network_optimality"] = "approximate"
    with pytest.raises(ValidationError) as info:
        parse_design(json.dumps(doc), 1, 1)
    # DesignResult's wording: it is the one check of the field
    assert str(info.value) == (
        "network_optimality must be 'exact' or 'two_approx', got 'approximate'"
    )


def _edited_design(edit) -> str:
    doc = json.loads(serialize_design(_design()))
    edit(doc)
    return json.dumps(doc)


@pytest.mark.parametrize("text, message", [
    ("not json", "design document is not valid JSON: "),
    ("[]", "design document must be a JSON object"),
    (_edited_design(_set(["H", 0], [1, 1, 1])),
     "H[0]: expected a [row, col] pair, got [1, 1, 1]"),
    (_edited_design(lambda doc: doc["W"].append([1, 2])), "W[2]: duplicate nonzero (1, 2)"),
], ids=["not-json", "not-an-object", "H-not-a-pair", "duplicate-W-pair"])
def test_parse_design_rejects_garbage(text, message):
    with pytest.raises(ValidationError) as info:
        parse_design(text, n=3, m=2)
    assert str(info.value).startswith(message)


def test_serialization_is_canonical():
    instance = generate_instance(5, 2, density=0.5, seed=11)
    a = serialize_instance(instance)
    b = serialize_instance(parse_instance(a))
    assert a == b
    assert a.endswith("\n")
    # keys sorted so byte output is stable
    doc = json.loads(a)
    assert list(doc) == sorted(doc)


def test_export_instance_dot_mentions_both_clusters():
    instance = dataclasses.replace(
        small_instance(), network=WeightedDigraph(2, {(0, 1): 2.0, (1, 0): 1.5})
    )
    dot = export_instance_dot(instance)
    assert "cluster_states" in dot
    assert "cluster_sensors" in dot
    assert "x1" in dot and "y2" in dot
    assert 'y1 -> y2 [label="2"]' in dot
    assert 'y2 -> y1 [label="1.5"]' in dot


# --- the direct writers against the json.dumps reference -------------------

# the floats where a hand-made formatter would part from json.dumps
SPECIAL_COSTS = [-0.0, 0.0, 5e-324, 1e-300, 0.1 + 0.2, 1e16, 1e17, 1e22, 2.0**53 + 2]
costs = st.one_of(st.sampled_from(SPECIAL_COSTS), st.floats(0.0, 1e300))
# what a library caller may pass as a link cost; the constructor refuses some
link_costs = st.one_of(
    costs,
    st.integers(-2, 10**20),
    st.integers(0, 10**6).map(np.int64),
    st.floats(0.0, width=32, allow_infinity=False).map(np.float32),
    st.booleans(),
    st.sampled_from([-1.0, np.inf, np.nan]),
)


def indices(upper: int):
    """What a library caller may pass as an index below ``upper``; the
    constructors refuse all but the in-range integers."""
    return st.one_of(
        st.integers(0, upper - 1),
        st.integers(-1, upper),
        st.integers(0, upper - 1).map(np.int64),
        st.integers(0, upper - 1).map(np.uint8),
        st.sampled_from([0.0, 0.5, np.float64(1.0), True, False, np.True_, "0", None]),
    )


def index_pairs(rows: int, cols: int):
    """A pair of ``indices``, or now and then a key that is no pair at all."""
    return st.one_of(
        st.tuples(indices(rows), indices(cols)),
        st.sampled_from([5, (1, 2, 3), (0,)]),
    )


def _writes_as_reference(instance: ProblemInstance) -> None:
    text = serialize_instance(instance)
    assert text == reference_instance_json(instance)
    assert serialize_instance(parse_instance(text)) == text


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_every_accepted_instance_roundtrips_byte_for_byte(data):
    n = data.draw(st.integers(1, 5))
    m = data.draw(st.integers(1, 4))
    cells = st.sets(index_pairs(n, n), max_size=6)
    if data.draw(st.booleans()):
        sensing = np.array(data.draw(st.lists(
            st.lists(st.one_of(costs, st.just(np.inf)), min_size=n, max_size=n),
            min_size=m, max_size=m,
        )))
    else:
        sensing = data.draw(st.dictionaries(index_pairs(m, n), costs, max_size=6))
    arcs = data.draw(st.dictionaries(index_pairs(m, m), link_costs, max_size=6))
    undirected = data.draw(st.booleans())
    if undirected:
        arcs.update({key[::-1]: cost for key, cost in arcs.items() if isinstance(key, tuple)})
    try:
        instance = ProblemInstance(
            n=n,
            m=m,
            system_pattern=StructuredMatrix(n, n, frozenset(data.draw(cells))),
            sensing_cost=sensing,
            network=WeightedDigraph(m, arcs),
            network_undirected=undirected,
        )
    except ObsnetError:
        return
    stored = [*instance.system_pattern.nonzeros, *instance.network.arcs]
    assert all(type(x) is int for pair in stored for x in pair)
    assert all(type(cost) is float for cost in instance.network.arcs.values())
    _writes_as_reference(instance)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 12),
    st.integers(1, 12),
    st.floats(0.0, 1.0),
    st.integers(0, 2**31 - 1),
    st.booleans(),
)
def test_generated_instances_write_as_reference(n, m, density, seed, undirected):
    instance = generate_instance(max(n, m), m, density, seed, undirected)
    _writes_as_reference(instance)


@pytest.mark.parametrize("changes", [
    {"system_pattern": StructuredMatrix(2, 2, frozenset())},
    {"sensing_cost": [[np.inf, np.inf], [2.0, 1.0]]},
    {"sensing_cost": np.full((2, 2), np.inf)},
    {"network": WeightedDigraph(2, {})},
    {
        "n": 1,
        "m": 1,
        "system_pattern": StructuredMatrix(1, 1, frozenset({(0, 0)})),
        "sensing_cost": [[1e16]],
        "network": WeightedDigraph(1, {}),
    },
    *({"sensing_cost": [[x, np.inf], [1.0, x]]} for x in SPECIAL_COSTS),
    *({"network": WeightedDigraph(2, {(0, 1): x, (1, 0): 1.0})} for x in SPECIAL_COSTS),
])
def test_hand_shaped_instances_write_as_reference(changes):
    _writes_as_reference(dataclasses.replace(small_instance(), **changes))


@pytest.mark.parametrize("cells", [1, 7, 13, 20, 10**6])
def test_cost_block_chunks_write_as_reference(monkeypatch, cells):
    """The c block is written a chunk of whole sensor rows at a time. Chunks
    of one row, of rows longer than the chunk, of several rows, of all-inf
    rows and of the whole table give the reference bytes, and no piece
    holds more records than its chunk's rows."""
    monkeypatch.setattr(graphs, "_CHUNK_CELLS", cells)
    base = generate_instance(7, 6, 0.3, 5)
    table = base.sensing_cost.copy()
    table[1:4] = np.inf  # at one row per chunk, three chunks write nothing
    table[4, ::2] = np.inf
    table[5, 3] = np.inf
    for costs in (table, np.full((6, 7), np.inf), base.sensing_cost):
        instance = dataclasses.replace(base, sensing_cost=costs)
        _writes_as_reference(instance)
        rows = max(1, cells // 7)
        pieces = serialize_instance_chunks(instance)
        assert max(piece.count('"sensor"') for piece in pieces) <= 7 * rows


def test_cost_block_of_several_chunks_writes_as_reference():
    # 18,000 cells: one full chunk of 54 rows and a last one of 6
    _writes_as_reference(generate_instance(300, 60, 0.3, 2))


scalar_costs = st.one_of(
    st.floats(),  # NaN and the infinities included: json.dumps writes them as it always has
    st.integers(-10**20, 10**20),
    st.floats().map(np.float64),
    st.sampled_from(SPECIAL_COSTS),
)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_design_writer_matches_reference(data):
    m = data.draw(st.integers(1, 4))
    n = data.draw(st.integers(m, 6))
    states = data.draw(st.permutations(range(n)))[:m]
    links = data.draw(st.sets(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1))))
    design = DesignResult(
        measurement_pattern=StructuredMatrix(m, n, frozenset(enumerate(states))),
        network_pattern=StructuredMatrix(m, m, frozenset(links)),
        sensing_cost=data.draw(scalar_costs),
        networking_cost=data.draw(scalar_costs),
        network_optimality=data.draw(st.sampled_from(["exact", "two_approx"])),
    )
    assert serialize_design(design) == reference_design_json(design)


@pytest.mark.parametrize("cost", [3, np.float64(2.5), float("nan"), -0.0, 1e22])
def test_design_with_no_links_writes_as_reference(cost):
    design = dataclasses.replace(
        _design(),
        network_pattern=StructuredMatrix(2, 2, frozenset()),
        sensing_cost=cost,
        networking_cost=cost,
    )
    text = serialize_design(design)
    assert text == reference_design_json(design)
    assert '"W": []' in text
