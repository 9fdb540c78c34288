"""Structured matrices, weighted networks and the problem instance data model.

Everything here is a plain immutable value: a sparsity pattern is a set of
(row, col) pairs, and a square one is also the state digraph (see
``structural.scc_decompose``); a network maps each link to its cost; a
problem instance bundles the system pattern with a read-only (m, n) array
of sensing costs, where ``inf`` marks a (sensor, state) pair that may not
be measured, and a candidate communication network.
Node and matrix indices are 0-based in memory; the JSON documents use
1-based indices, and the converters in this module are the only place the
two conventions meet.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import ShapeError, ValidationError

__all__ = [
    "StructuredMatrix",
    "WeightedDigraph",
    "ProblemInstance",
    "DesignResult",
    "check_design_shape",
    "real_array",
    "one_state_per_sensor",
    "canonical_json",
    "parse_instance",
    "serialize_instance",
    "serialize_instance_chunks",
    "parse_design",
    "serialize_design",
    "export_instance_dot",
]


def _index_pairs(pairs, rows: int, cols: int, what: str, owner: str) -> list | None:
    """The index rule of patterns, arcs and sensing-cost keys: each key in
    ``pairs`` is a tuple (i, j) of integers, bools excluded, with 0 <= i < rows
    and 0 <= j < cols. Returns the pairs as plain ints if any index was a numpy
    integer, else None, as plain ints need no copy."""
    if not set(map(type, pairs)) <= {tuple}:  # one set build, not a check per key
        key = next(k for k in pairs if type(k) is not tuple)
        raise ValidationError(f"{what} {key!r} is not an index pair")
    numpy_ints = False
    try:
        for (i, j) in pairs:
            if type(i) is not int or type(j) is not int:  # plain ints skip the slow check
                if not all(isinstance(x, numbers.Integral) and type(x) is not bool
                           for x in (i, j)):
                    raise ValidationError(f"{what} ({i!r}, {j!r}) must have integer indices")
                numpy_ints = True
            if not (0 <= i < rows and 0 <= j < cols):
                raise ValidationError(f"{what} ({i}, {j}) out of range for {rows}x{cols} {owner}")
    except ValueError:  # some tuple does not hold two
        for key in pairs:
            if len(key) != 2:
                raise ValidationError(f"{what} {key!r} is not an index pair") from None
        raise
    return [(int(i), int(j)) for (i, j) in pairs] if numpy_ints else None


def _bulk_pairs(pairs, kind: type, rows: int, cols: int, base: int) -> tuple | None:
    """``_bulk_cells`` of a collection of pairs, each a ``kind`` (tuple or
    list) of two indices; None also when some item is not such a pair."""
    if not set(map(type, pairs)) <= {kind}:
        return None
    try:
        first = _int_column([i for i, _ in pairs], base)
        second = _int_column([j for _, j in pairs], base)
    except ValueError:  # an item of other than two
        return None
    return _bulk_cells(first, second, rows, cols)


def _int_column(values: list, base: int) -> np.ndarray | None:
    """``values`` counted from ``base`` as a 0-based int64 array when each is
    a plain int (bools excluded) that fits; else None. The caller's list can
    go as soon as this returns."""
    if not set(map(type, values)) <= {int}:
        return None
    try:
        column = np.array(values, dtype=np.int64)
    except OverflowError:
        return None
    column -= base
    return column


def _bulk_cells(first, second, rows: int, cols: int) -> tuple | None:
    """The index rule on two ``_int_column`` results, the row and column
    indices of some cells: the pair when neither is None, every cell lies in
    the rows x cols grid and no cell repeats; else None, so that a per-entry
    path names the first error."""
    if first is None or second is None:
        return None
    try:
        keys = np.ravel_multi_index((first, second), (rows, cols))
    except ValueError:  # out of the grid, or a grid past int64
        return None
    keys.sort()
    return None if (keys[1:] == keys[:-1]).any() else (first, second)


def _bulk_costs(values) -> np.ndarray | None:
    """The cost rule checked as one column: ``values`` as a float64 array when
    each is a plain int or float, finite and >= 0 as a float; else None."""
    if not set(map(type, values)) <= {int, float}:
        return None
    try:
        costs = np.fromiter(values, np.float64, len(values))
    except OverflowError:  # an int past float range
        return None
    return costs if ((costs >= 0) & (costs < np.inf)).all() else None


def _cost_value(cost, what: str, i: int, j: int) -> float:
    """The cost rule of links and sensing: ``cost`` as a float once it is a
    real number, bools excluded, finite and >= 0; ``what % (i, j)`` names
    the cost in an error, formatted only then."""
    real = type(cost) is float or (isinstance(cost, numbers.Real) and not isinstance(cost, bool))
    try:
        if real and math.isfinite(cost) and cost >= 0:
            return float(cost)
    except OverflowError:  # an int past float range
        raise ValidationError(f"{what % (i, j)} must fit a float, got an integer of"
                              f" {len(str(abs(cost)))} digits") from None
    rule = f"finite and >= 0, got {cost}" if real else f"a real number, got {cost!r}"
    raise ValidationError(f"{what % (i, j)} must be {rule}")


@dataclass(frozen=True)
class StructuredMatrix:
    """A 0/1 sparsity pattern: which entries of a matrix may be nonzero.

    Attributes:
        rows: number of rows.
        cols: number of columns.
        nonzeros: frozenset of (row, col) pairs, 0-based.
    """

    rows: int
    cols: int
    nonzeros: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ShapeError(f"negative dimensions {self.rows}x{self.cols}")
        nonzeros = frozenset(self.nonzeros)
        pairs = _index_pairs(nonzeros, self.rows, self.cols, "nonzero", "pattern")
        object.__setattr__(self, "nonzeros", nonzeros if pairs is None else frozenset(pairs))

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def sorted_pairs(self) -> list[tuple[int, int]]:
        return sorted(self.nonzeros)


@dataclass(frozen=True)
class WeightedDigraph:
    """Directed graph with a nonnegative cost per arc; absent arcs are forbidden."""

    node_count: int
    arcs: Mapping[tuple[int, int], float]

    def __post_init__(self):
        if self.node_count < 1:
            raise ValidationError(f"network needs node_count >= 1, got {self.node_count}")
        arcs = dict(self.arcs)
        pairs = _index_pairs(arcs, self.node_count, self.node_count, "arc", "network")
        if pairs is not None:
            arcs = dict(zip(pairs, arcs.values()))
        for (u, v), cost in arcs.items():
            if u == v:
                raise ValidationError(f"arc ({u}, {v}) is a self-link, which is not allowed")
            # an int cost would serialize as 1, parse as 1.0
            arcs[(u, v)] = _cost_value(cost, "arc (%d, %d) cost", u, v)
        object.__setattr__(self, "arcs", arcs)

    def asymmetric_arc(self) -> tuple[int, int] | None:
        """The symmetry rule of undirected networks: the first arc, in
        insertion order, whose reverse is missing or costs differently;
        None when every link has an equal-cost reverse."""
        for (u, v), c in self.arcs.items():
            if self.arcs.get((v, u)) != c:
                return (u, v)
        return None


def _new_table(m: int, n: int, source: np.ndarray | None = None) -> np.ndarray:
    """A fresh (m, n) sensing-cost table: a float64 copy of ``source``, or
    all inf. A size numpy refuses to build (past its dimension or byte
    limits) or cannot allocate is a property of the document, so it is a
    ValidationError rather than numpy's ValueError or MemoryError."""
    try:
        return np.full((m, n), np.inf) if source is None else source.astype(np.float64, order="C")
    except (ValueError, MemoryError) as exc:
        raise ValidationError(f"a {m}x{n} sensing cost table is too large: {exc}") from exc


def _real_values(values, what: str, error: type[ValidationError | ShapeError]) -> np.ndarray:
    """``values`` as an array of int, uint or float, not copied if it
    already is one: bool, complex, str, object and ragged input raise
    ``error``."""
    try:
        table = np.asarray(values)
    except ValueError as exc:
        raise error(f"{what} is not an array: {exc}") from exc
    if table.dtype.kind not in "iuf":
        raise error(f"{what} must hold real numbers, got dtype {table.dtype}")
    return table


def real_array(values, what: str, error: type[ValidationError | ShapeError]) -> np.ndarray:
    """``values`` as a float64 array, not copied if it already is one. It
    must be an array of int, uint or float: bool, complex, str, object and
    ragged input raise ``error``."""
    return _real_values(values, what, error).astype(np.float64, copy=False)


def _cost_table(costs, m: int, n: int) -> np.ndarray:
    """Read-only (m, n) copy of the sensing costs, inf where forbidden."""
    if isinstance(costs, Mapping):
        table = _new_table(m, n)
        cells = _bulk_pairs(costs, tuple, m, n, 0)
        values = None if cells is None else _bulk_costs(costs.values())
        if values is not None:
            table[cells] = values
            entries = ()
        else:  # per entry, to name the first bad key or cost
            _index_pairs(costs, m, n, "sensing cost entry", "table")  # numpy ints index as well
            entries = costs.items()
    else:
        table = _real_values(costs, "sensing cost", ValidationError)
        if table.shape != (m, n):
            shape = "x".join(map(str, table.shape))
            raise ShapeError(f"sensing cost is {shape}, expected {m}x{n}")
        table = _new_table(m, n, table)  # converted and copied at once; frozen below
        entries = ()
        # inf forbids a pair. A NaN or negative entry breaks the cost rule: min
        # carries a NaN through and allocates nothing, so only a table that
        # breaks it is scanned, a row at a time, for its first bad entry.
        if not table.min() >= 0:
            i = next(i for i, row in enumerate(table) if not row.min() >= 0)
            j = int(np.flatnonzero(~(table[i] >= 0))[0])
            entries = [((i, j), float(table[i, j]))]
    for (i, j), cost in entries:
        table[i, j] = _cost_value(cost, "sensing cost for sensor %d, state %d", i + 1, j + 1)
    table.flags.writeable = False
    return table


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """One design problem: system pattern, sensing costs and candidate network.

    Attributes:
        n: number of states.
        m: number of sensors.
        system_pattern: n x n sparsity pattern of the dynamics matrix.
        sensing_cost: read-only (m, n) float64 array; entry [i, j] is the
            cost of sensor i measuring state j, and ``inf`` means sensor i
            may not measure state j. The constructor also takes a mapping
            (sensor, state) -> finite cost, where a missing key means inf.
        network: candidate communication links between sensors, with costs.
            A link (i, j) lets sensor i fuse the prediction shared by
            sensor j.
        network_undirected: if True, links come in symmetric equal-cost pairs.
    """

    n: int
    m: int
    system_pattern: StructuredMatrix
    sensing_cost: np.ndarray
    network: WeightedDigraph
    network_undirected: bool = False

    def __post_init__(self):
        if self.n < 1 or self.m < 1:
            raise ValidationError(f"need n >= 1 and m >= 1, got n={self.n}, m={self.m}")
        if self.system_pattern.rows != self.n or self.system_pattern.cols != self.n:
            raise ShapeError(
                f"system pattern is {self.system_pattern.rows}x{self.system_pattern.cols},"
                f" expected {self.n}x{self.n}"
            )
        object.__setattr__(self, "sensing_cost", _cost_table(self.sensing_cost, self.m, self.n))
        if self.network.node_count != self.m:
            raise ShapeError(
                f"network has {self.network.node_count} nodes, expected m={self.m}"
            )
        if self.network_undirected and self.network.asymmetric_arc() is not None:
            raise ValidationError(
                "network is flagged undirected but the links are not symmetric"
                " with equal costs"
            )


def check_design_shape(
    h: StructuredMatrix, w: StructuredMatrix, m: int, n: int
) -> None:
    """Raise ShapeError unless H is m x n and W is m x m (W is checked first)."""
    if w.rows != m or w.cols != m:
        raise ShapeError(f"network pattern is {w.rows}x{w.cols}, expected {m}x{m}")
    if h.rows != m or h.cols != n:
        raise ShapeError(f"measurement pattern is {h.rows}x{h.cols}, expected {m}x{n}")


def one_state_per_sensor(h: StructuredMatrix) -> bool:
    """True iff every row of H (every sensor) holds exactly one nonzero."""
    return sorted(i for (i, _) in h.nonzeros) == list(range(h.rows))


@dataclass(frozen=True)
class DesignResult:
    """Output of the design pipeline: chosen measurements and chosen links.

    The two cost fields are the sums of the selected sensing-cost entries and
    of the selected link costs; each directed link counts once, so an
    undirected link selected in both directions contributes twice.
    """

    measurement_pattern: StructuredMatrix
    network_pattern: StructuredMatrix
    sensing_cost: float
    networking_cost: float
    network_optimality: str  # "exact" or "two_approx"

    def __post_init__(self):
        if self.network_optimality not in ("exact", "two_approx"):
            raise ValidationError(
                f"network_optimality must be 'exact' or 'two_approx',"
                f" got {self.network_optimality!r}"
            )
        h = self.measurement_pattern
        if not one_state_per_sensor(h):
            raise ValidationError("measurement pattern must have exactly one nonzero per row")
        cols = [j for (_, j) in h.nonzeros]
        if len(set(cols)) != len(cols):
            raise ValidationError("measurement pattern must have at most one nonzero per column")
        check_design_shape(h, self.network_pattern, h.rows, h.cols)


# --- JSON documents -------------------------------------------------------
#
# Instance schema (1-based indices):
#   {"n": int, "m": int,
#    "A": [[i, j], ...],
#    "c": [{"sensor": i, "state": j, "cost": x}, ...],
#    "net": {"undirected": bool, "links": [{"from": i, "to": j, "cost": x}, ...]}}
#
# Design schema:
#   {"H": [[i, j], ...], "W": [[i, j], ...],
#    "sensing_cost": x, "networking_cost": x,
#    "network_optimality": "exact" | "two_approx"}


def _require(doc: Mapping, key: str, kind, path: str):
    if key not in doc:
        raise ValidationError(f"{path}: missing required field '{key}'")
    value = doc[key]
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValidationError(f"{path}.{key}: expected a number, got {value!r}")
        try:
            return float(value)
        except OverflowError:
            raise ValidationError(f"{path}.{key}: must fit a float, got an integer of"
                                  f" {len(str(abs(value)))} digits") from None
    if kind is int and isinstance(value, bool):
        raise ValidationError(f"{path}.{key}: expected {kind.__name__}, got {value!r}")
    if not isinstance(value, kind):
        raise ValidationError(f"{path}.{key}: expected {kind.__name__}, got {value!r}")
    return value


def _index(value, upper: int, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{path}: expected an integer index, got {value!r}")
    if not (1 <= value <= upper):
        raise ValidationError(f"{path}: index {value} out of range 1..{upper}")
    return value - 1


def _load(text: str, what: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{what} document is not valid JSON: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # too many digits, or nested too deep
        raise ValidationError(f"{what} document cannot be read: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError(f"{what} document must be a JSON object")
    return doc


# Patterns, sensing costs and links are checked by whole columns (_bulk_cells,
# _bulk_costs). The c records and the links reach their checks as column
# lists that _take_records fills while json decodes the document. Only when a
# column check fails, or the document is not shaped for the taken columns, is
# it decoded again and read entry by entry, which names the first bad entry in
# document order.

# What a taken c record or link leaves in its list in the decoded document
_C_MARK, _LINK_MARK = object(), object()


def _take_records(text: str) -> tuple | None:
    """``text`` decoded with each c record's and link's fields moved onto
    its block's (first, second, cost) column lists as json makes the record,
    so that no record dict outlives its own decode; a record leaves its
    block's mark in its place. Returns (doc, c columns, link columns) when
    doc is an object whose c and net.links lists hold nothing but marks, one
    per taken record of their block. A document shaped otherwise (a record
    anywhere else, an entry that is not a record, a record with a field
    missing) or not decoded at all gives None: its entries are read one at a
    time instead."""
    c, links = ([], [], []), ([], [], [])
    sensor, state, c_cost = (column.append for column in c)
    source, target, link_cost = (column.append for column in links)

    def take(obj: dict):
        # one key test per object: comparing obj.keys() with a field set
        # made the whole decode 10-30% slower
        if "sensor" in obj:
            sensor(obj["sensor"])
            state(obj["state"])
            c_cost(obj["cost"])
            return _C_MARK
        if "from" in obj:
            source(obj["from"])
            target(obj["to"])
            link_cost(obj["cost"])
            return _LINK_MARK
        return obj

    try:
        doc = json.loads(text, object_hook=take)
    except (ValueError, RecursionError, KeyError):  # KeyError: a record lacks a field
        return None
    net = doc.get("net") if isinstance(doc, dict) else None
    if not isinstance(net, dict):
        return None
    for entries, columns, mark in ((doc.get("c"), c, _C_MARK),
                                   (net.get("links"), links, _LINK_MARK)):
        if not (isinstance(entries, list)
                and entries.count(mark) == len(entries) == len(columns[0])):
            return None
    return doc, c, links


def _pattern(doc: Mapping, key: str, rows: int, cols: int, path: str) -> StructuredMatrix:
    """The rows x cols pattern stored under ``key`` as 1-based [row, col] pairs."""
    pairs = _require(doc, key, list, path)
    cells = _bulk_pairs(pairs, list, rows, cols, 1)
    if cells is None:
        return StructuredMatrix(rows, cols, _pattern_by_entry(pairs, key, rows, cols))
    return StructuredMatrix(rows, cols, frozenset(zip(cells[0].tolist(), cells[1].tolist())))


def _pattern_by_entry(pairs: list, key: str, rows: int, cols: int) -> frozenset:
    nonzeros = set()
    for k, pair in enumerate(pairs):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ValidationError(f"{key}[{k}]: expected a [row, col] pair, got {pair!r}")
        i = _index(pair[0], rows, f"{key}[{k}][0]")
        j = _index(pair[1], cols, f"{key}[{k}][1]")
        if (i, j) in nonzeros:
            raise ValidationError(f"{key}[{k}]: duplicate nonzero ({pair[0]}, {pair[1]})")
        nonzeros.add((i, j))
    return frozenset(nonzeros)


def _records(entries: list, taken: tuple | None, path: str, fields: tuple[str, str],
             rows: int, cols: int, duplicate: str, distinct: bool = False) -> tuple | None:
    """The 0-based (first, second, cost) columns of a record block: objects
    whose two index ``fields`` lie in 1..rows and 1..cols, with a "cost".
    No cell may repeat (``duplicate % cell`` names one), and with
    ``distinct`` no record's two indices may be equal. ``taken``, the
    block's column lists from ``_take_records``, is checked a column at a
    time, and a failed check gives None; without it, the ``entries`` are
    read one at a time and the first bad one is named."""
    if taken is not None:
        first = _int_column(taken[0], 1)
        second = _int_column(taken[1], 1)
        cells = _bulk_cells(first, second, rows, cols)
        if cells is None or (distinct and (first == second).any()):
            return None
        costs = _bulk_costs(taken[2])
        return None if costs is None else (first, second, costs)
    records = _records_by_entry(entries, path, fields, rows, cols, duplicate, distinct)
    first, second = np.array(list(records), dtype=np.int64).reshape(-1, 2).T
    return first, second, np.fromiter(records.values(), np.float64, len(records))


def _records_by_entry(entries: list, path: str, fields: tuple[str, str], rows: int, cols: int,
                      duplicate: str, distinct: bool) -> dict:
    records: dict[tuple[int, int], float] = {}
    for k, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ValidationError(f"{path}[{k}]: expected an object, got {entry!r}")
        i = _index(entry.get(fields[0]), rows, f"{path}[{k}].{fields[0]}")
        j = _index(entry.get(fields[1]), cols, f"{path}[{k}].{fields[1]}")
        cost = _require(entry, "cost", float, f"{path}[{k}]")
        if not math.isfinite(cost) or cost < 0:
            raise ValidationError(f"{path}[{k}].cost: must be finite and >= 0, got {cost}")
        if distinct and i == j:
            raise ValidationError(f"{path}[{k}]: self-link {i + 1} -> {i + 1} is not allowed")
        if (i, j) in records:
            raise ValidationError(f"{path}[{k}]: {duplicate % (i + 1, j + 1)}")
        records[(i, j)] = cost
    return records


def canonical_json(doc: Mapping) -> str:
    """The JSON writer for reports and error bodies: sorted keys, two-space
    indent, trailing newline. The instance and design writers below give the
    same bytes directly, since the indent keeps json off its C encoder."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# Per-item templates as canonical_json lays the items out; %r of a Python
# float is float.__repr__, which is what json writes for a finite float.
_PAIR = "    [\n      %d,\n      %d\n    ]"
_LINK = '      {\n        "cost": %r,\n        "from": %d,\n        "to": %d\n      }'

# A c record is a per-sensor head, which keeps a %r for the cost, and a
# per-state tail. The records of a chunk of whole sensor rows join into one
# template, and one % writes the chunk's costs. A chunk covers about
# _CHUNK_CELLS table cells (one row when a row is longer), which bounds what
# the writer holds at once; a small table is one chunk.
_COST_HEAD = '    {\n      "cost": %%r,\n      "sensor": %d,\n      "state": '
_COST_TAIL = "%d\n    }"
_CHUNK_CELLS = 16384


def _cost_chunks(table: np.ndarray):
    """The c block of the (m, n) sensing-cost ``table`` in pieces of one
    chunk each: a record per finite entry in row-major order, laid out as
    ``_block`` lays out a list."""
    m, n = table.shape
    step = max(1, _CHUNK_CELLS // n)
    heads = np.array([_COST_HEAD % (i + 1) for i in range(m)], dtype=object)
    tails = np.array([_COST_TAIL % (j + 1) for j in range(n)], dtype=object)
    opener = "[\n"
    for top in range(0, m, step):
        chunk = table[top:top + step]
        i, j = np.nonzero(chunk != np.inf)
        if i.size:
            template = ",\n".join((heads[i + top] + tails[j]).tolist())
            yield opener + template % tuple(chunk[i, j].tolist())
            opener = ",\n"
    yield "[]" if opener == "[\n" else "\n  ]"


def _block(template: str, items, indent: str = "  ") -> str:
    """A list block whose closing bracket sits at ``indent``, one item per tuple."""
    lines = [template % item for item in items]
    return "[\n" + ",\n".join(lines) + "\n" + indent + "]" if lines else "[]"


def _pair_block(pattern: StructuredMatrix) -> str:
    return _block(_PAIR, [(i + 1, j + 1) for (i, j) in pattern.sorted_pairs()])


def parse_instance(text: str) -> ProblemInstance:
    """Parse and validate an instance document. See the schema comment above."""
    taken = _take_records(text)
    instance = None if taken is None else _instance(*taken)
    del taken  # the columns go before a second decode
    return _instance(_load(text, "instance")) if instance is None else instance


def _instance(doc: dict, c: tuple | None = None,
              links: tuple | None = None) -> ProblemInstance | None:
    """The instance ``doc`` describes. With the taken columns of its c and
    net.links blocks, None if they fail a column check; without them, the
    blocks' entries are read one at a time."""
    n = _require(doc, "n", int, "instance")
    m = _require(doc, "m", int, "instance")
    if n < 1 or m < 1:
        raise ValidationError(f"instance: need n >= 1 and m >= 1, got n={n}, m={m}")

    system_pattern = _pattern(doc, "A", n, n, "instance")

    entries = _require(doc, "c", list, "instance")
    sensing_cost = _new_table(m, n)  # a table too large is named before any entry
    cells = _records(entries, c, "c", ("sensor", "state"), m, n,
                     "duplicate entry for sensor %d, state %d")
    if cells is None:
        return None
    sensors, states, costs = cells
    sensing_cost[sensors, states] = costs

    net_doc = _require(doc, "net", dict, "instance")
    undirected = _require(net_doc, "undirected", bool, "net")
    entries = _require(net_doc, "links", list, "net")
    cells = _records(entries, links, "net.links", ("from", "to"), m, m,
                     "duplicate link %d -> %d", distinct=True)
    if cells is None:
        return None
    u, v, costs = cells
    arcs = dict(zip(zip(u.tolist(), v.tolist()), costs.tolist()))
    network = WeightedDigraph(m, arcs)  # keeps the document's link order
    bad = network.asymmetric_arc() if undirected else None
    if bad is not None:
        u, v = bad
        back = arcs.get((v, u))
        if back is None:
            raise ValidationError(f"net: undirected flag set but link {u + 1} -> {v + 1}"
                                  f" has no reverse link {v + 1} -> {u + 1}")
        raise ValidationError(f"net: undirected flag set but links {u + 1} <-> {v + 1}"
                              f" have unequal costs {arcs[bad]} and {back}")

    return ProblemInstance(
        n=n,
        m=m,
        system_pattern=system_pattern,
        sensing_cost=sensing_cost,
        network=network,
        network_undirected=undirected,
    )


def serialize_instance(instance: ProblemInstance) -> str:
    """Canonical JSON for an instance: sorted keys, sensing costs in row-major
    (sensor, state) order with the inf entries left out, links in arc order."""
    return "".join(serialize_instance_chunks(instance))


def serialize_instance_chunks(instance: ProblemInstance):
    """``serialize_instance``'s text in pieces, for writing to a file without
    holding the document: no piece holds more than one chunk of the c block."""
    links = [(float(c), u + 1, v + 1) for (u, v), c in sorted(instance.network.arcs.items())]
    undirected = "true" if instance.network_undirected else "false"
    yield f'{{\n  "A": {_pair_block(instance.system_pattern)},\n  "c": '
    yield from _cost_chunks(instance.sensing_cost)
    yield (
        f',\n  "m": {instance.m:d},\n  "n": {instance.n:d},\n  "net": {{\n'
        f'    "links": {_block(_LINK, links, "    ")},\n    "undirected": {undirected}\n  }}\n}}\n'
    )


def parse_design(text: str, n: int, m: int) -> DesignResult:
    """Parse a design document against the instance dimensions n (states) and m (sensors)."""
    doc = _load(text, "design")
    optimality = _require(doc, "network_optimality", str, "design")
    return DesignResult(
        measurement_pattern=_pattern(doc, "H", m, n, "design"),
        network_pattern=_pattern(doc, "W", m, m, "design"),
        sensing_cost=_require(doc, "sensing_cost", float, "design"),
        networking_cost=_require(doc, "networking_cost", float, "design"),
        network_optimality=optimality,
    )


def serialize_design(result: DesignResult) -> str:
    """Canonical JSON for a design result; json.dumps writes each cost as it
    would inside the document, whether an int, a float or NaN."""
    return (
        f'{{\n  "H": {_pair_block(result.measurement_pattern)},\n'
        f'  "W": {_pair_block(result.network_pattern)},\n'
        f'  "network_optimality": {json.dumps(result.network_optimality)},\n'
        f'  "networking_cost": {json.dumps(result.networking_cost)},\n'
        f'  "sensing_cost": {json.dumps(result.sensing_cost)}\n}}\n'
    )


# --- DOT export -----------------------------------------------------------


def _format_cost(cost: float) -> str:
    if float(cost).is_integer():
        return str(int(cost))
    return repr(float(cost))


def export_instance_dot(instance: ProblemInstance) -> str:
    """Render a whole instance as DOT: state digraph plus candidate network.

    States form one cluster with their influence edges (an edge x_j -> x_i
    means state j drives state i); sensors form a second cluster with the
    candidate links and their costs.
    """
    lines = ["digraph instance {"]
    lines.append("  subgraph cluster_states {")
    lines.append('    label="states";')
    for j in range(instance.n):
        lines.append(f'    x{j + 1} [label="x{j + 1}"];')
    for (i, j) in instance.system_pattern.sorted_pairs():
        lines.append(f"    x{j + 1} -> x{i + 1};")
    lines.append("  }")
    lines.append("  subgraph cluster_sensors {")
    lines.append('    label="sensors";')
    for i in range(instance.m):
        lines.append(f'    y{i + 1} [label="y{i + 1}"];')
    for (u, v), cost in sorted(instance.network.arcs.items()):
        lines.append(f'    y{u + 1} -> y{v + 1} [label="{_format_cost(cost)}"];')
    lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"
