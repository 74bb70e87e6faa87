import copy
import json
import math
import pickle
import random
import re
import sys

import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

from gridrepair.model import (
    Island,
    Line,
    Node,
    ValidationError,
    build_precedence_graph,
    NetworkInstance,
    derive_line_weights,
    island_heads,
    partition_islands,
    validate,
)

from gridrepair.lp import LpModel
from gridrepair.schedule import Assignment, list_schedule
from gridrepair.seq_opt import SingleCrewOptimum

from conftest import (
    REFERENCE_SIZES,
    SWITCH_PROBABILITIES,
    feeder,
    instance_to_json,
    instances,
    reference_partition,
    reference_precedence,
    reference_validate,
)


def two_island_raw():
    return {
        "root": "0",
        "crews": 2,
        "nodes": [
            {"id": "0", "weight": 0},
            {"id": "1", "weight": 1},
            {"id": "2", "weight": 10},
        ],
        "lines": [
            {"id": "e1", "from": "0", "to": "1", "repair_time": 2, "switch": False},
            {"id": "e2", "from": "1", "to": "2", "repair_time": 1, "switch": True},
        ],
    }


class TestValidate:
    def test_well_formed(self):
        inst = validate(two_island_raw())
        assert [ln.id for ln in inst.lines] == ["e1", "e2"]
        assert inst.crews == 2

    def test_orients_lines_away_from_root(self):
        raw = two_island_raw()
        # flip the stored endpoints; orientation must come out the same
        raw["lines"][0]["from"], raw["lines"][0]["to"] = "1", "0"
        inst = validate(raw)
        line = next(ln for ln in inst.lines if ln.id == "e1")
        assert (line.upstream, line.downstream) == ("0", "1")

    def test_extra_line_closes_cycle(self):
        raw = two_island_raw()
        raw["lines"].append(
            {"id": "e3", "from": "2", "to": "0", "repair_time": 1, "switch": False}
        )
        with pytest.raises(ValidationError, match=r"^line 'e3' \('2'-'0'\) closes a cycle$"):
            validate(raw)

    def test_negative_repair_time(self):
        raw = two_island_raw()
        raw["lines"][1]["repair_time"] = -1
        with pytest.raises(ValidationError, match="^line 'e2' has negative repair time -1.0$"):
            validate(raw)

    def test_negative_weight(self):
        raw = two_island_raw()
        raw["nodes"][2]["weight"] = -3
        with pytest.raises(ValidationError, match="^node '2' has negative weight -3.0$"):
            validate(raw)

    def test_unknown_root(self):
        raw = two_island_raw()
        raw["root"] = "missing"
        with pytest.raises(ValidationError, match="^root 'missing' is not a node$"):
            validate(raw)

    def test_duplicate_node_id(self):
        raw = two_island_raw()
        raw["nodes"].append({"id": "1", "weight": 2})
        with pytest.raises(ValidationError, match="^duplicate node id '1'$"):
            validate(raw)

    def test_duplicate_line_id(self):
        raw = two_island_raw()
        raw["nodes"].append({"id": "3", "weight": 2})
        raw["lines"].append(
            {"id": "e1", "from": "2", "to": "3", "repair_time": 1, "switch": False}
        )
        with pytest.raises(ValidationError, match="^duplicate line id 'e1'$"):
            validate(raw)

    def test_disconnected(self):
        raw = two_island_raw()
        raw["nodes"] += [{"id": "4", "weight": 1}, {"id": "5", "weight": 1}]
        raw["lines"].append(
            {"id": "e9", "from": "4", "to": "5", "repair_time": 1, "switch": False}
        )
        with pytest.raises(ValidationError, match="^node '4' is not connected to the root$"):
            validate(raw)

    def test_all_weights_zero(self):
        raw = two_island_raw()
        for node in raw["nodes"]:
            node["weight"] = 0
        with pytest.raises(ValidationError, match="^every node weight is zero$"):
            validate(raw)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_repair_time(self, value):
        raw = two_island_raw()
        raw["lines"][1]["repair_time"] = value
        message = f"^line 'e2' has non-finite repair time {value}$"
        with pytest.raises(ValidationError, match=message):
            validate(raw)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_weight(self, value):
        raw = two_island_raw()
        raw["nodes"][2]["weight"] = value
        with pytest.raises(ValidationError, match=f"^node '2' has non-finite weight {value}$"):
            validate(raw)

    @pytest.mark.parametrize("key", ["root", "crews", "nodes", "lines"])
    def test_missing_top_level_field(self, key):
        raw = two_island_raw()
        del raw[key]
        with pytest.raises(ValidationError, match=key):
            validate(raw)

    def test_missing_line_field(self):
        raw = two_island_raw()
        del raw["lines"][1]["repair_time"]
        with pytest.raises(ValidationError, match="line entry 1 .*'repair_time'"):
            validate(raw)

    @pytest.mark.parametrize(
        "entry, key, value, message",
        [
            (None, "crews", 2.7, "crews must be an integer, got 2.7"),
            (None, "crews", True, "crews must be an integer, got True"),
            (None, "crews", float("nan"), "crews must be an integer, got nan"),
            (("lines", 1), "switch", "no", "line 'e2' switch flag must be a boolean, got 'no'"),
            (("nodes", 2), "weight", "3", "node '2' has non-numeric weight '3'"),
            (("nodes", 2), "weight", 10**400, "node '2' has non-finite weight inf"),
            (("nodes", 1), "id", ["1"], "node entry 1 id must be a string, got ['1']"),
            (("nodes", 1), "id", 1, "node entry 1 id must be a string, got 1"),
            (None, "root", 0, "root must be a string, got 0"),
            (("lines", 0), "id", 5, "line entry 0 id must be a string, got 5"),
            (("lines", 1), "from", ["1"], "line 'e2' 'from' must be a string, got ['1']"),
            (("lines", 1), "to", 2, "line 'e2' 'to' must be a string, got 2"),
        ],
        ids=["crews-float", "crews-bool", "crews-nan", "switch-str", "weight-str",
             "weight-huge-int", "node-id-array", "node-id-int", "root-int", "line-id-int",
             "from-array", "to-int"],
    )
    def test_wrong_type_rejected_not_coerced(self, entry, key, value, message):
        raw = two_island_raw()
        target = raw if entry is None else raw[entry[0]][entry[1]]
        target[key] = value
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            validate(raw)

    def test_zero_repair_time_admitted(self):
        raw = two_island_raw()
        raw["lines"][0]["repair_time"] = 0
        inst = validate(raw)
        assert inst.repair_times()["e1"] == 0


class TestDerivedStructure:
    def test_islands_and_precedence_are_derived_once(self):
        inst = validate(two_island_raw())
        assert inst.islands is inst.islands
        assert inst.precedence is inst.precedence
        assert inst.islands == partition_islands(inst)
        assert inst.precedence == build_precedence_graph(inst, inst.islands)

    def test_cache_leaves_equality_hash_and_pickle_alone(self):
        fresh, used = validate(two_island_raw()), validate(two_island_raw())
        used.precedence  # fills both caches
        assert fresh == used and hash(fresh) == hash(used)
        clone = pickle.loads(pickle.dumps(used))
        assert clone == fresh and clone.islands == fresh.islands

    def test_repair_times_built_once(self):
        inst = validate(two_island_raw())
        assert inst.repair_times() is inst.repair_times()
        assert inst.repair_times() == {"e1": 2.0, "e2": 1.0}


# The same three records as `validate` and `list_schedule` build them, which
# is without the named tuples' own constructors.
_BUILT = validate({"root": "s", "crews": 1,
                   "nodes": [{"id": "s", "weight": 0}, {"id": "n1", "weight": 2.5}],
                   "lines": [{"id": "e1", "from": "s", "to": "n1", "repair_time": 3.0,
                              "switch": True}]})


@pytest.mark.parametrize("record, text", [
    (Node("n1", 2.5), "Node(id='n1', weight=2.5)"),
    (Line("e1", "s", "n1", 3.0, True),
     "Line(id='e1', upstream='s', downstream='n1', repair_time=3.0, is_switch=True)"),
    (Assignment("e1", 0.0, 3.0), "Assignment(line='e1', start=0.0, completion=3.0)"),
    (_BUILT.nodes[0], "Node(id='n1', weight=2.5)"),
    (_BUILT.lines[0],
     "Line(id='e1', upstream='s', downstream='n1', repair_time=3.0, is_switch=True)"),
    (list_schedule(["e1"], 1, _BUILT.repair_times()).crews[0][0],
     "Assignment(line='e1', start=0.0, completion=3.0)"),
    (Island("e1", ("e1",), ("n1",), 2.5, 3.0),
     "Island(id='e1', line_ids=('e1',), node_ids=('n1',), weight=2.5, processing=3.0)"),
    (_BUILT.islands.islands[0],
     "Island(id='e1', line_ids=('e1',), node_ids=('n1',), weight=2.5, processing=3.0)"),
], ids=["node", "line", "assignment", "validated-node", "validated-line", "scheduled-assignment",
        "island", "partitioned-island"])
def test_record_contract(record, text):
    """The records keep the repr, immutability, equality, hash and pickling
    they had as frozen dataclasses, however they were built."""
    assert type(record) in (Node, Line, Assignment, Island)
    assert repr(record) == text
    fields = list(type(record).__annotations__)
    with pytest.raises(AttributeError):
        setattr(record, fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = 1
    clone = pickle.loads(pickle.dumps(record))
    assert type(clone) is type(record) and clone == record and hash(clone) == hash(record)
    values = [getattr(record, name) for name in fields]
    made = type(record)(*values)
    assert made == record != type(record)(*values[:-1], None)
    assert hash(made) == hash(record) and pickle.dumps(made) == pickle.dumps(record)


_NETWORK = ("NetworkInstance(nodes=(Node(id='n1', weight=2.5), Node(id='s', weight=0.0)), "
            "lines=(Line(id='e1', upstream='s', downstream='n1', repair_time=3.0, "
            "is_switch=True),), root='s', crews=1)")


@pytest.mark.parametrize("record, text, hashable", [
    (_BUILT, _NETWORK, True),
    (_BUILT.islands,
     "IslandSet(islands=(Island(id='e1', line_ids=('e1',), node_ids=('n1',), weight=2.5, "
     "processing=3.0), Island(id='s', line_ids=(), node_ids=('s',), weight=0.0, "
     "processing=0.0)))", True),
    (_BUILT.precedence, "PrecedenceGraph(root='s', parent={'e1': 's'})", False),
    (SingleCrewOptimum(_BUILT, ("s", "e1")),
     f"SingleCrewOptimum(instance={_NETWORK}, island_order=('s', 'e1'))", True),
    (LpModel(["x"], [1.0], [0.0]),
     "LpModel(variables=['x'], objective=[1.0], lower=[0.0], start=[0], index=[], value=[], "
     "rhs=[])", False),
], ids=["instance", "islands", "precedence", "single-crew", "lp-model"])
def test_plain_record_contract(record, text, hashable):
    """The `model.Record` classes keep the repr, equality, hash, pickling,
    immutability (no field set or deleted) and constructor checks they had as
    dataclasses (frozen, but for `LpModel`), with their cached tables filled or not."""
    assert repr(record) == text
    values = record._values()
    made = type(record)(*values)
    assert made == record != type(record)(*values[:-1], object()) and record != values
    clone = pickle.loads(pickle.dumps(record))
    assert type(clone) is type(record) and clone == record
    if hashable:
        assert hash(made) == hash(record) == hash(clone)
    else:
        with pytest.raises(TypeError):
            hash(record)
    if isinstance(record, LpModel):  # the cutting-plane loop grows it
        record.rhs = record.rhs
        return
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = 1
    with pytest.raises(AttributeError):
        delattr(record, record._fields[0])
    assert repr(record) == text and type(record)(**dict(zip(record._fields, values))) == record
    for args, kwargs in [(values[:-1], {}), ((*values, None), {}),
                         (values, {record._fields[0]: values[0]}), (values, {"extra": 1})]:
        with pytest.raises(TypeError):
            type(record)(*args, **kwargs)


class TestLineWeights:
    def test_two_island(self, two_island):
        assert derive_line_weights(two_island) == {"e1": 1, "e2": 10}

    def test_chain(self):
        inst = validate(
            {
                "root": "0",
                "crews": 1,
                "nodes": [
                    {"id": "0", "weight": 7},
                    {"id": "1", "weight": 3},
                    {"id": "2", "weight": 5},
                ],
                "lines": [
                    {"id": "x", "from": "0", "to": "1", "repair_time": 1, "switch": False},
                    {"id": "y", "from": "1", "to": "2", "repair_time": 1, "switch": False},
                ],
            }
        )
        weights = derive_line_weights(inst)
        assert weights == {"x": 3, "y": 5}
        # the root's weight 7 lands on no line
        assert 7 not in weights.values()


class TestPartition:
    def test_two_island(self, two_island):
        islands = partition_islands(two_island)
        by_id = {isl.id: isl for isl in islands.islands}
        assert set(by_id) == {"e1", "e2"}
        assert by_id["e1"].weight == 1 and by_id["e1"].processing == 2
        assert by_id["e2"].weight == 10 and by_id["e2"].processing == 1

    def test_no_switches_single_island(self, graham):
        islands = partition_islands(graham)
        assert len(islands.islands) == 1
        assert len(islands.islands[0].line_ids) == 7

    def test_feeder_has_seven_islands(self, feeder123):
        islands = partition_islands(feeder123)
        assert len(islands.islands) == 7

    def test_deterministic_under_line_reordering(self):
        raw = two_island_raw()
        raw["lines"].reverse()
        a = partition_islands(validate(two_island_raw()))
        b = partition_islands(validate(raw))
        assert a == b

    def test_all_switch_lines(self):
        # every line a switch: the source sits alone in a line-less island
        raw = two_island_raw()
        for ln in raw["lines"]:
            ln["switch"] = True
        islands = partition_islands(validate(raw))
        assert len(islands.islands) == len(raw["lines"]) + 1
        root_island = [isl for isl in islands.islands if isl.id == "0"]
        assert root_island and root_island[0].line_ids == ()
        non_root = [isl for isl in islands.islands if isl.line_ids]
        assert all(len(isl.line_ids) == 1 for isl in non_root)


class TestPrecedence:
    def test_two_island_edge(self, two_island):
        islands = partition_islands(two_island)
        prec = build_precedence_graph(two_island, islands)
        assert prec.root == "e1"
        assert prec.edges() == [("e1", "e2")]

    def test_fork_edges(self, fork):
        islands = partition_islands(fork)
        prec = build_precedence_graph(fork, islands)
        assert prec.edges() == [("a", "b"), ("a", "c")]

    def test_single_island_no_edges(self, graham):
        islands = partition_islands(graham)
        prec = build_precedence_graph(graham, islands)
        assert prec.edges() == []
        assert prec.topological_order == (islands.islands[0].id,)

    def test_depths(self, feeder123):
        islands = partition_islands(feeder123)
        prec = build_precedence_graph(feeder123, islands)
        depth = prec.depth
        assert depth[prec.root] == 0
        assert max(depth.values()) == 3


@given(instances(max_nodes=12))
@settings(max_examples=80, deadline=None)
def test_partition_invariants(inst):
    islands = partition_islands(inst)
    prec = build_precedence_graph(inst, islands)
    # islands partition the lines
    all_lines = [lid for isl in islands.islands for lid in isl.line_ids]
    assert sorted(all_lines) == sorted([ln.id for ln in inst.lines])
    # island weights add up to the non-root node weight
    weights = inst.node_weights()
    total = sum(w for nid, w in weights.items() if nid != inst.root)
    assert sum(isl.weight for isl in islands.islands) == pytest.approx(total)
    # one precedence edge per switch, in-degree <= 1, rooted out-tree
    switches = sum(1 for ln in inst.lines if ln.is_switch)
    assert len(prec.edges()) == switches
    assert len(prec.parent) == len(islands.islands) - 1
    assert prec.root not in prec.parent
    order = prec.topological_order
    assert sorted(order) == sorted(isl.id for isl in islands.islands)
    seen = set()
    for iid in order:
        assert prec.parent.get(iid) is None or prec.parent[iid] in seen
        seen.add(iid)


@given(instances(max_nodes=10))
@settings(max_examples=40, deadline=None)
def test_partition_invariant_under_shuffle(inst):
    raw = instance_to_json(inst)
    raw["lines"] = list(reversed(raw["lines"]))
    raw["nodes"] = list(reversed(raw["nodes"]))
    assert partition_islands(validate(raw)) == partition_islands(inst)


# Differential tests against the reference forms in conftest.py: the same
# instance, or the same error class and message, on every input.


class _Str(str):
    pass


class _Int(int):
    pass


class _Dict(dict):
    pass


def _reference_raw():
    return {
        "root": "0",
        "crews": 2,
        "nodes": [
            {"id": "0", "weight": 0},
            {"id": "1", "weight": 1},
            {"id": "2", "weight": 10},
            {"id": "3", "weight": 4.5},
        ],
        "lines": [
            {"id": "e1", "from": "0", "to": "1", "repair_time": 2, "switch": False},
            {"id": "e2", "from": "1", "to": "2", "repair_time": 1, "switch": True},
            {"id": "e3", "from": "3", "to": "1", "repair_time": 3.25, "switch": False},
        ],
    }


def _parent(raw, path):
    for key in path[:-1]:
        raw = raw[key]
    return raw


def _set(path, value):
    return lambda raw: _parent(raw, path).__setitem__(path[-1], value)


def _delete(path):
    return lambda raw: _parent(raw, path).__delitem__(path[-1])


def _add_line(lid, u, v, p=1, switch=False):
    return lambda raw: raw["lines"].append(
        {"id": lid, "from": u, "to": v, "repair_time": p, "switch": switch})


def _add_node(nid, w=1):
    return lambda raw: raw["nodes"].append({"id": nid, "weight": w})


def _both(*mutations):
    def mutate(raw):
        for fn in mutations:
            fn(raw)
    return mutate


MUTATIONS = {
    "unchanged": lambda raw: None,
    "instance not an object": lambda raw: [raw],
    "instance empty": lambda raw: raw.clear(),
    "instance missing crews": _delete(("crews",)),
    "instance extra field": _set(("extra",), 1),
    "node missing weight": _delete(("nodes", 1, "weight")),
    "node extra field": _set(("nodes", 2, "name"), "x"),
    "line missing switch": _delete(("lines", 1, "switch")),
    "line extra field": _set(("lines", 0, "length"), 3),
    "node entry a list": _set(("nodes", 1), ["1", 1]),
    "line entry a string": _set(("lines", 2), "e3"),
    "node entry a dict subclass": _set(("nodes", 1), _Dict(id="1", weight=1)),
    "line entry a dict subclass": _set(
        ("lines", 0), _Dict({"id": "e1", "from": "0", "to": "1", "repair_time": 2,
                             "switch": False})),
    "crews a bool": _set(("crews",), True),
    "crews zero": _set(("crews",), 0),
    "crews a string": _set(("crews",), "2"),
    "nodes not an array": _set(("nodes",), {}),
    "lines not an array": _set(("lines",), None),
    "weight a bool": _set(("nodes", 1, "weight"), True),
    "repair time a bool": _set(("lines", 0, "repair_time"), False),
    "switch an int": _set(("lines", 1, "switch"), 1),
    "weight a string": _set(("nodes", 2, "weight"), "10"),
    "weight None": _set(("nodes", 2, "weight"), None),
    "node id a str subclass": _set(("nodes", 3, "id"), _Str("3")),
    "line id a str subclass": _set(("lines", 2, "id"), _Str("e3")),
    "endpoint a str subclass": _set(("lines", 2, "to"), _Str("1")),
    "root a str subclass": _set(("root",), _Str("0")),
    "weight an int subclass": _set(("nodes", 2, "weight"), _Int(10)),
    "repair time an int subclass": _set(("lines", 1, "repair_time"), _Int(7)),
    "node id an int": _set(("nodes", 1, "id"), 1),
    "line id None": _set(("lines", 1, "id"), None),
    "line id a list": _set(("lines", 1, "id"), ["e2"]),
    "endpoint an int": _set(("lines", 0, "from"), 0),
    "root an int": _set(("root",), 0),
    "weight NaN": _set(("nodes", 1, "weight"), math.nan),
    "weight inf": _set(("nodes", 1, "weight"), math.inf),
    "weight -inf": _set(("nodes", 1, "weight"), -math.inf),
    "weight 10**400": _set(("nodes", 1, "weight"), 10**400),
    "weight just above the largest float": _set(
        ("nodes", 1, "weight"), int(sys.float_info.max) + 1),
    "weight the largest float": _set(("nodes", 1, "weight"), sys.float_info.max),
    "weight negative": _set(("nodes", 1, "weight"), -1),
    "weight -0.0": _set(("nodes", 1, "weight"), -0.0),
    "repair time NaN": _set(("lines", 2, "repair_time"), math.nan),
    "repair time inf": _set(("lines", 2, "repair_time"), math.inf),
    "repair time -inf": _set(("lines", 2, "repair_time"), -math.inf),
    "repair time 10**400": _set(("lines", 2, "repair_time"), 10**400),
    "repair time negative": _set(("lines", 2, "repair_time"), -2.5),
    "repair time -0.0": _set(("lines", 2, "repair_time"), -0.0),
    "repair time subnormal": _set(("lines", 2, "repair_time"), 5e-324),
    "duplicate node id": _set(("nodes", 3, "id"), "1"),
    "duplicate line id": _set(("lines", 2, "id"), "e1"),
    "unknown root": _set(("root",), "9"),
    "unknown from": _set(("lines", 1, "from"), "9"),
    "unknown to": _set(("lines", 2, "to"), "9"),
    "self-loop added": _add_line("e4", "2", "2"),
    "self-loop in place of a line": _set(("lines", 2, "from"), "1"),
    "cycle and a disconnected node": _both(_add_node("4"), _add_line("e4", "2", "0")),
    "disconnected node before a cycle": _both(
        _add_node("4"), _add_line("e0", "3", "0"), _add_line("e5", "2", "4")),
    "too many lines": _add_line("e4", "0", "1", switch=True),
    "too few lines": _delete(("lines", 2)),
    "a node of its own": _add_node("4"),
    "all weights zero": _both(_set(("nodes", 1, "weight"), 0), _set(("nodes", 2, "weight"), 0.0),
                              _set(("nodes", 3, "weight"), -0.0)),
    "only the root weighs": _both(_set(("nodes", 0, "weight"), 1), _set(("nodes", 1, "weight"), 0),
                                  _set(("nodes", 2, "weight"), 0), _set(("nodes", 3, "weight"), 0)),
    "lines reversed": lambda raw: raw["lines"].reverse(),
    "endpoints swapped": _both(_set(("lines", 0, "from"), "1"), _set(("lines", 0, "to"), "0")),
    "no lines, one node": _both(_set(("nodes",), [{"id": "0", "weight": 3}]),
                                _set(("lines",), [])),
    "no nodes": _both(_set(("nodes",), []), _set(("lines",), [])),
}


def _outcome(fn, arg):
    """The value `fn(arg)` returns, or the class and message of what it raises."""
    try:
        value = fn(arg)
    except (ValueError, TypeError) as exc:
        return ("raised", type(exc), str(exc))
    return ("returned", value, repr(value))


@pytest.mark.parametrize("mutation", MUTATIONS, ids=list(MUTATIONS))
def test_validate_matches_reference(mutation):
    raw = _reference_raw()
    raw = MUTATIONS[mutation](raw) or raw  # a mutation may return a replacement
    expected = _outcome(reference_validate, copy.deepcopy(raw))
    assert _outcome(validate, raw) == expected


# an entry with as many fields as it should have, one of them unknown
RENAMED = {
    "node weight renamed": _both(_delete(("nodes", 1, "weight")), _set(("nodes", 1, "wieght"), 1)),
    "node id renamed": _both(_delete(("nodes", 0, "id")), _set(("nodes", 0, "ID"), "0")),
    "line switch renamed": _both(_delete(("lines", 1, "switch")),
                                 _set(("lines", 1, "switched"), True)),
    "line from renamed": _both(_delete(("lines", 2, "from")), _set(("lines", 2, "From"), "1")),
}


@pytest.mark.parametrize("mutation", RENAMED, ids=list(RENAMED))
def test_renamed_field_is_reported_as_reference(mutation):
    raw = _reference_raw()
    RENAMED[mutation](raw)
    expected = _outcome(reference_validate, copy.deepcopy(raw))
    assert expected[0] == "raised" and "unknown field" in expected[2]
    assert _outcome(validate, raw) == expected


@pytest.mark.parametrize("switch_probability", SWITCH_PROBABILITIES)
@pytest.mark.parametrize("nodes", REFERENCE_SIZES)
def test_accepted_and_partitioned_as_reference(nodes, switch_probability):
    for seed in (1, 2):
        inst = feeder(nodes, switch_probability, seed)
        raw = instance_to_json(inst)
        raw["lines"].reverse()
        for ln in raw["lines"][::3]:
            ln["from"], ln["to"] = ln["to"], ln["from"]
        expected = reference_validate(copy.deepcopy(raw))
        got = validate(raw)
        assert got == expected and repr(got) == repr(expected)
        assert _outcome(partition_islands, got) == _outcome(reference_partition, expected)


def _forms(raw, rng):
    """The lines of `raw`, an oriented file in id order, in four forms; only the
    first two are oriented, so only they skip the orienting traversal."""
    lines = raw["lines"]

    def flip(ln):
        return {**ln, "from": ln["to"], "to": ln["from"]}

    shuffled = [flip(ln) if rng.random() < 0.5 else ln for ln in lines]
    rng.shuffle(shuffled)
    return {"oriented": lines, "oriented, listed leaves first": lines[::-1],
            "half-reversed": [flip(ln) if k % 2 else ln for k, ln in enumerate(lines)],
            "shuffled": shuffled}


def _assert_heads_and_partition(inst, expected):
    """`inst` heads its islands as `island_heads` does on its own lines, and
    partitions and orders them as the references do on `expected`."""
    assert inst._heads == island_heads({ln.downstream: ln.upstream for ln in inst.lines},
                                       {ln.downstream for ln in inst.lines if ln.is_switch},
                                       inst.root)
    got, want = _outcome(partition_islands, inst), _outcome(reference_partition, expected)
    assert got == want
    if got[0] == "returned":
        for isl in want[1].islands:  # one head per island, its node nearest the root
            (top,) = {inst._heads[nid] for nid in isl.node_ids}
            assert top == inst.root or any(ln.is_switch and ln.downstream == top
                                           for ln in inst.lines)
        assert (build_precedence_graph(inst, got[1])
                == reference_precedence(expected, want[1]))


@pytest.mark.parametrize("switch_probability", SWITCH_PROBABILITIES)
@pytest.mark.parametrize("nodes", REFERENCE_SIZES)
def test_recorded_heads_match_those_of_the_lines(nodes, switch_probability):
    rng = random.Random(nodes)
    for seed in (1, 2):
        raw = instance_to_json(feeder(nodes, switch_probability, seed))
        expected = reference_validate(copy.deepcopy(raw))
        for form, lines in _forms(raw, rng).items():
            inst = validate({**raw, "lines": lines})
            assert inst == expected
            if form.startswith("oriented"):  # recorded by validate's own walk
                assert "_heads" in vars(inst)
            _assert_heads_and_partition(inst, expected)


def test_island_heads_of_small_feeder_maps():
    # a 2-cycle off the root, within the step bound and beyond a tree's depth
    assert island_heads({"a": "r", "b": "c", "c": "b"}, set(), "r") is None
    assert island_heads({"a": "a"}, set(), "r") is None
    assert island_heads({"a": "r", "b": "a"}, {"b"}, "r") == {"r": "r", "a": "r", "b": "b"}


def _star(root, switches):
    """A root with one line to each leaf; `switches` maps line id to its switch flag."""
    leaves = [f"leaf{k}" for k in range(len(switches))]
    return validate({
        "root": root,
        "crews": 2,
        "nodes": [{"id": root, "weight": 0}] + [{"id": n, "weight": 2} for n in leaves],
        "lines": [{"id": lid, "from": root, "to": leaf, "repair_time": 1, "switch": sw}
                  for (lid, sw), leaf in zip(switches.items(), leaves)],
    })


PARTITION_CASES = {
    "root out-lines all switches": _star("r", {"a": True, "b": True, "c": True}),
    "root out-lines mixed": _star("r", {"a": True, "b": False, "c": True}),
    "root(<id>) rename": _star("a", {"a": True, "b": True}),
    "root id is a larger line id": _star("b", {"a": True, "b": True}),
    "island id collision": _star("r", {"r": True, "root(r)": True}),
    "fixture feeder123": "feeder123.json",
    "fixture two_island": "two_island.json",
}


@pytest.mark.parametrize("case", PARTITION_CASES, ids=list(PARTITION_CASES))
def test_partition_matches_reference(case, fixtures_dir):
    inst = PARTITION_CASES[case]
    if isinstance(inst, str):
        inst = validate(json.loads((fixtures_dir / inst).read_text()))
    assert _outcome(partition_islands, inst) == _outcome(reference_partition, inst)


@pytest.mark.parametrize("case", PARTITION_CASES, ids=list(PARTITION_CASES))
def test_directly_built_instance_heads_its_own_lines(case, fixtures_dir):
    inst = PARTITION_CASES[case]
    if isinstance(inst, str):
        inst = validate(json.loads((fixtures_dir / inst).read_text()))
    built = NetworkInstance(nodes=inst.nodes, lines=inst.lines, root=inst.root, crews=inst.crews)
    assert "_heads" not in vars(built)
    _assert_heads_and_partition(built, inst)


def _tree_file(draw):
    """A valid instance file: a random tree over shuffled node ids, rooted at a
    random node, its lines in shuffled order, each line's `from` and `to`
    swapped with a drawn probability (so the root is often a `to`)."""
    count = draw(st.integers(min_value=1, max_value=12))
    names = draw(st.permutations([f"n{k}" for k in range(count)]))
    parents = [draw(st.integers(min_value=0, max_value=k - 1)) for k in range(1, count)]
    root = names[draw(st.integers(min_value=0, max_value=count - 1))]
    adjacent = {name: [] for name in names}
    for k, parent in enumerate(parents, 1):
        adjacent[names[parent]].append(names[k])
        adjacent[names[k]].append(names[parent])
    lines, stack, seen = [], [root], {root}
    while stack:  # orient away from the drawn root
        cur = stack.pop()
        for other in adjacent[cur]:
            if other not in seen:
                seen.add(other)
                stack.append(other)
                lines.append([cur, other])
    swap = draw(st.sampled_from([0.0, 0.5, 1.0]))
    line_ids = draw(st.permutations([f"l{k}" for k in range(len(lines))]))
    raw_lines = []
    for lid, (u, v) in zip(line_ids, lines):
        if draw(st.floats(min_value=0, max_value=1)) < swap:
            u, v = v, u
        raw_lines.append({"id": lid, "from": u, "to": v,
                          "repair_time": draw(st.sampled_from([0, 1, 2.5, 7])),
                          "switch": draw(st.booleans())})
    order = draw(st.sampled_from(["id", "shuffled", "reversed"]))
    if order == "shuffled":
        raw_lines = draw(st.permutations(raw_lines))
    elif order == "reversed":
        raw_lines.reverse()
    else:
        raw_lines.sort(key=lambda ln: ln["id"])
    weights = [draw(st.sampled_from([0, 1, 3])) for _ in names]
    return {"root": root, "crews": 2,
            "nodes": [{"id": name, "weight": w} for name, w in zip(sorted(names), weights)],
            "lines": raw_lines}


def _break(draw, raw):
    """Apply one drawn defect to a valid file (or none)."""
    lines, nodes = raw["lines"], raw["nodes"]
    ids = [n["id"] for n in nodes]
    kind = draw(st.sampled_from(["none", "2-cycle", "cycle", "self-loop", "fed twice",
                                 "lone node", "extra line", "missing line",
                                 "duplicate line id", "duplicate node id", "unknown endpoint"]))
    if kind == "none" or (not lines and kind not in ("lone node", "duplicate node id")):
        return
    k = draw(st.integers(min_value=0, max_value=max(0, len(lines) - 1)))
    if kind in ("2-cycle", "cycle"):
        # feed some node from a node below it: an oriented line a -> b becomes
        # the feeder of a, so a and b (or a longer loop) close off the root
        feeds = {ln["to"]: ln for ln in lines}
        below = [ln for ln in lines if ln["from"] in feeds and ln["from"] != raw["root"]]
        if not below:
            return
        child = draw(st.sampled_from(below))
        top = child["from"]
        if kind == "cycle":
            while child["to"] in {ln["from"] for ln in lines}:
                child = next(ln for ln in lines if ln["from"] == child["to"])
        feeds[top]["from"] = child["to"]
    elif kind == "self-loop":
        lines[k]["from"] = lines[k]["to"]
    elif kind == "fed twice":
        lines[k]["to"] = draw(st.sampled_from([ln["to"] for ln in lines]))
    elif kind == "lone node":
        nodes.append({"id": "lone", "weight": 1})
    elif kind == "extra line":
        lines.insert(k, {"id": "extra", "from": draw(st.sampled_from(ids)),
                         "to": draw(st.sampled_from(ids)), "repair_time": 1, "switch": False})
    elif kind == "missing line":
        del lines[k]
    elif kind == "duplicate line id":
        lines.append({**lines[k], "from": lines[k]["to"], "to": lines[k]["from"]})
    elif kind == "duplicate node id":
        nodes.append({"id": draw(st.sampled_from(ids)), "weight": 1})
    else:
        lines[k][draw(st.sampled_from(["from", "to"]))] = "nowhere"


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_validate_matches_reference_on_drawn_files(data):
    raw = _tree_file(data.draw)
    _break(data.draw, raw)
    got, expected = _outcome(validate, copy.deepcopy(raw)), _outcome(reference_validate, raw)
    assert got == expected
