import json
import pickle

import pytest
from hypothesis import given, settings

from gridrepair.model import (
    AllWeightsZero,
    CycleDetected,
    Disconnected,
    DuplicateId,
    NegativeRepairTime,
    NegativeWeight,
    NonFiniteValue,
    SchemaError,
    UnknownRoot,
    ValidationError,
    build_precedence_graph,
    derive_line_weights,
    partition_islands,
    validate,
)

from conftest import instances


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
        with pytest.raises(CycleDetected, match="e3"):
            validate(raw)

    def test_negative_repair_time(self):
        raw = two_island_raw()
        raw["lines"][1]["repair_time"] = -1
        with pytest.raises(NegativeRepairTime, match="e2"):
            validate(raw)

    def test_negative_weight(self):
        raw = two_island_raw()
        raw["nodes"][2]["weight"] = -3
        with pytest.raises(NegativeWeight, match="'2'"):
            validate(raw)

    def test_unknown_root(self):
        raw = two_island_raw()
        raw["root"] = "missing"
        with pytest.raises(UnknownRoot, match="missing"):
            validate(raw)

    def test_duplicate_node_id(self):
        raw = two_island_raw()
        raw["nodes"].append({"id": "1", "weight": 2})
        with pytest.raises(DuplicateId, match="'1'"):
            validate(raw)

    def test_duplicate_line_id(self):
        raw = two_island_raw()
        raw["nodes"].append({"id": "3", "weight": 2})
        raw["lines"].append(
            {"id": "e1", "from": "2", "to": "3", "repair_time": 1, "switch": False}
        )
        with pytest.raises(DuplicateId, match="e1"):
            validate(raw)

    def test_disconnected(self):
        raw = two_island_raw()
        raw["nodes"] += [{"id": "4", "weight": 1}, {"id": "5", "weight": 1}]
        raw["lines"].append(
            {"id": "e9", "from": "4", "to": "5", "repair_time": 1, "switch": False}
        )
        with pytest.raises(Disconnected, match="'4'"):
            validate(raw)

    def test_all_weights_zero(self):
        raw = two_island_raw()
        for node in raw["nodes"]:
            node["weight"] = 0
        with pytest.raises(AllWeightsZero):
            validate(raw)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_repair_time(self, value):
        raw = two_island_raw()
        raw["lines"][1]["repair_time"] = value
        with pytest.raises(NonFiniteValue, match="line 'e2'"):
            validate(raw)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_weight(self, value):
        raw = two_island_raw()
        raw["nodes"][2]["weight"] = value
        with pytest.raises(NonFiniteValue, match="node '2'"):
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
        "entry, key, value, exc, match",
        [
            (None, "crews", 2.7, SchemaError, "crews must be an integer, got 2.7"),
            (None, "crews", True, SchemaError, "crews must be an integer, got True"),
            (None, "crews", float("nan"), SchemaError, "crews must be an integer, got nan"),
            (("lines", 1), "switch", "no", SchemaError, "line 'e2' switch .*'no'"),
            (("nodes", 2), "weight", "3", SchemaError, "node '2' .*weight '3'"),
            (("nodes", 2), "weight", 10**400, NonFiniteValue, "node '2'"),
        ],
        ids=["crews-float", "crews-bool", "crews-nan", "switch-str", "weight-str",
             "weight-huge-int"],
    )
    def test_wrong_type_rejected_not_coerced(self, entry, key, value, exc, match):
        raw = two_island_raw()
        target = raw if entry is None else raw[entry[0]][entry[1]]
        target[key] = value
        with pytest.raises(exc, match=match):
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
        by_id = islands.by_id()
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
        assert prec.topological_order() == [islands.islands[0].id]

    def test_depths(self, feeder123):
        islands = partition_islands(feeder123)
        prec = build_precedence_graph(feeder123, islands)
        depth = prec.depth()
        assert depth[prec.root] == 0
        assert max(depth.values()) == 3


@given(instances(max_nodes=12))
@settings(max_examples=80, deadline=None)
def test_partition_invariants(inst):
    islands = partition_islands(inst)
    prec = build_precedence_graph(inst, islands)
    # islands partition the lines
    all_lines = [lid for isl in islands.islands for lid in isl.line_ids]
    assert sorted(all_lines) == sorted(inst.line_ids())
    # island weights add up to the non-root node weight
    weights = inst.node_weights()
    total = sum(w for nid, w in weights.items() if nid != inst.root)
    assert sum(isl.weight for isl in islands.islands) == pytest.approx(total)
    # one precedence edge per switch, in-degree <= 1, rooted out-tree
    switches = sum(1 for ln in inst.lines if ln.is_switch)
    assert len(prec.edges()) == switches
    assert len(prec.parent) == len(islands.islands) - 1
    assert prec.root not in prec.parent
    order = prec.topological_order()
    assert sorted(order) == sorted(islands.ids())
    seen = set()
    for iid in order:
        assert prec.parent.get(iid) is None or prec.parent[iid] in seen
        seen.add(iid)


@given(instances(max_nodes=10))
@settings(max_examples=40, deadline=None)
def test_partition_invariant_under_shuffle(inst):
    from gridrepair.harness import instance_to_json

    raw = instance_to_json(inst)
    raw["lines"] = list(reversed(raw["lines"]))
    raw["nodes"] = list(reversed(raw["nodes"]))
    assert partition_islands(validate(raw)) == partition_islands(inst)
