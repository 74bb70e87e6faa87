"""The exchange-argument sequencer is validated against brute enumeration:
its cost must match the best over ALL island permutations, not just the
precedence-respecting ones.
"""

import itertools
import random

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

from gridrepair import schedule as sched
from gridrepair import seq_opt
from gridrepair.harness import load_instance
from gridrepair.model import (Line, NetworkInstance, Node, build_precedence_graph,
                              partition_islands, validate)

from conftest import (
    REFERENCE_SIZES,
    SWITCH_PROBABILITIES,
    feeder,
    instance_to_json,
    instances,
    reference_island_sequence,
    reference_partition,
    reference_precedence,
)


def ancestors_and_self(precedence, island_id):
    chain = [island_id]
    while chain[-1] in precedence.parent:
        chain.append(precedence.parent[chain[-1]])
    return chain


def island_order_harm(order, islands, precedence):
    """Independent cost of one island permutation with a single crew.

    Islands run contiguously in the given order; energization is the max
    completion over each island's ancestor chain.
    """
    by_id = {isl.id: isl for isl in islands.islands}
    clock = 0.0
    completion = {}
    for iid in order:
        clock += by_id[iid].processing
        completion[iid] = clock
    harm = 0.0
    for iid in order:
        e = max(completion[a] for a in ancestors_and_self(precedence, iid))
        harm += by_id[iid].weight * e
    return harm


def id_order(islands):
    """The arrangement of each island's lines in id order."""
    return {isl.id: isl.line_ids for isl in islands.islands}


def best_over_all_orders(islands, precedence):
    ids = [isl.id for isl in islands.islands]
    return min(
        island_order_harm(order, islands, precedence)
        for order in itertools.permutations(ids)
    )


class TestOptimalSequence:
    def test_two_island(self, two_island):
        islands = partition_islands(two_island)
        prec = build_precedence_graph(two_island, islands)
        assert seq_opt.optimal_island_sequence(islands, prec) == ["e1", "e2"]
        assert seq_opt.optimal_single_crew_harm(two_island).harm == 32

    def test_fork(self, fork):
        islands = partition_islands(fork)
        prec = build_precedence_graph(fork, islands)
        assert seq_opt.optimal_island_sequence(islands, prec) == ["a", "b", "c"]
        assert seq_opt.optimal_single_crew_harm(fork).harm == 31
        # the tempting wrong order is strictly worse
        assert island_order_harm(["a", "c", "b"], islands, prec) == 37

    def test_single_island(self, graham):
        islands = partition_islands(graham)
        prec = build_precedence_graph(graham, islands)
        assert seq_opt.optimal_island_sequence(islands, prec) == ["j0"]

    def test_single_line(self):
        inst = validate(
            {
                "root": "0",
                "crews": 1,
                "nodes": [{"id": "0", "weight": 0}, {"id": "1", "weight": 4}],
                "lines": [
                    {"id": "x", "from": "0", "to": "1", "repair_time": 5, "switch": False}
                ],
            }
        )
        assert seq_opt.optimal_single_crew_harm(inst).harm == 20


class TestExpandSequence:
    def test_singleton_islands(self, two_island):
        islands = partition_islands(two_island)
        assert seq_opt.expand_sequence(["e1", "e2"], id_order(islands)) == ["e1", "e2"]

    def test_block_is_id_sorted(self):
        inst = validate(
            {
                "root": "0",
                "crews": 1,
                "nodes": [
                    {"id": "0", "weight": 0},
                    {"id": "1", "weight": 1},
                    {"id": "2", "weight": 1},
                    {"id": "3", "weight": 1},
                ],
                "lines": [
                    {"id": "x3", "from": "0", "to": "1", "repair_time": 1, "switch": False},
                    {"id": "x1", "from": "1", "to": "2", "repair_time": 1, "switch": False},
                    {"id": "x2", "from": "2", "to": "3", "repair_time": 1, "switch": False},
                ],
            }
        )
        assert partition_islands(inst).islands[0].line_ids == ("x1", "x2", "x3")
        plan = seq_opt.optimal_single_crew_harm(inst).plan
        assert plan.priority == ("x1", "x2", "x3")

    def test_fork(self, fork):
        islands = partition_islands(fork)
        assert seq_opt.expand_sequence(["a", "b", "c"], id_order(islands)) == ["a", "b", "c"]

    def test_arrangement_order_kept(self):
        arrangement = {"a": ("a2", "a1"), "b": ("b1",)}
        assert seq_opt.expand_sequence(["b", "a"], arrangement) == ["b1", "a2", "a1"]


@given(instances(max_nodes=9))
@settings(max_examples=120, deadline=None)
def test_matches_enumeration_over_all_orders(inst):
    islands = partition_islands(inst)
    if len(islands.islands) > 7:
        return
    prec = build_precedence_graph(inst, islands)
    order = seq_opt.optimal_island_sequence(islands, prec)
    assert island_order_harm(order, islands, prec) == pytest.approx(
        best_over_all_orders(islands, prec)
    )


@given(instances(max_nodes=10))
@settings(max_examples=60, deadline=None)
def test_output_is_linear_extension_with_contiguous_blocks(inst):
    islands = partition_islands(inst)
    prec = build_precedence_graph(inst, islands)
    order = seq_opt.optimal_island_sequence(islands, prec)
    assert sorted(order) == sorted(isl.id for isl in islands.islands)
    pos = {iid: k for k, iid in enumerate(order)}
    for child, parent in prec.parent.items():
        assert pos[parent] < pos[child]
    lines = seq_opt.expand_sequence(order, id_order(islands))
    of_line = islands.island_of_line
    runs = [iid for iid, _ in itertools.groupby(lines, key=lambda lid: of_line[lid])]
    assert len(runs) == len(set(runs))


@given(instances(max_nodes=9), st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_within_island_permutation_is_cost_neutral(inst, seed):
    islands = partition_islands(inst)
    prec = build_precedence_graph(inst, islands)
    best = seq_opt.optimal_single_crew_harm(inst)
    rng = random.Random(seed)
    by_id = {isl.id: isl for isl in islands.islands}
    shuffled = []
    for iid in best.island_order:
        block = list(by_id[iid].line_ids)
        rng.shuffle(block)
        shuffled.extend(block)
    plan = sched.list_schedule(shuffled, 1, inst.repair_times())
    e = sched.energization_times(plan, islands, prec)
    assert sched.harm(e, islands.weights) == pytest.approx(best.harm)


@pytest.mark.parametrize("name", ["two_island", "fork", "graham_m3", "feeder123"])
def test_on_demand_plan_matches_eager_simulation(name, fixtures_dir):
    """The plan, energization and harm simulated on first read are those of
    an eager list schedule of the island order."""
    inst = load_instance(fixtures_dir / f"{name}.json")
    best = seq_opt.optimal_single_crew_harm(inst)
    arrangement = id_order(inst.islands)
    lines = [lid for iid in best.island_order for lid in arrangement[iid]]
    plan = sched.list_schedule(lines, 1, inst.repair_times())
    energization = sched.energization_times(plan, inst.islands, inst.precedence)
    assert best.plan == plan
    assert best.energization == energization
    assert best.harm == sched.harm(energization, inst.islands.weights)
    assert best.plan is best.plan and best.energization is best.energization


def _sequence_pair(inst):
    """The island order of the sequencer and of its Fraction-only reference."""
    islands, prec = partition_islands(inst), inst.precedence
    return (seq_opt.optimal_island_sequence(islands, prec),
            reference_island_sequence(islands, prec))


@pytest.mark.parametrize("tenths", [False, True], ids=["integers", "tenths"])
@pytest.mark.parametrize("switch_probability", SWITCH_PROBABILITIES)
@pytest.mark.parametrize("nodes", REFERENCE_SIZES)
def test_island_sequence_matches_reference(nodes, switch_probability, tenths):
    """Integer data ties many ratios exactly; data in tenths (0.1, 0.3, ...)
    makes ratios that round to one float but differ exactly."""
    for seed in (1, 2):
        inst = feeder(nodes, switch_probability, seed)
        if tenths:
            raw = instance_to_json(inst)
            for entry in raw["nodes"]:
                entry["weight"] *= 0.1
            for entry in raw["lines"]:
                entry["repair_time"] *= 0.1
            inst = validate(raw)
        got, expected = _sequence_pair(inst)
        assert got == expected


def _siblings(children):
    """A root with one switch line to each child; `children` maps line id to
    (repair time, weight of the node it feeds)."""
    return validate({
        "root": "r",
        "crews": 1,
        "nodes": [{"id": "r", "weight": 0}]
        + [{"id": f"n-{lid}", "weight": w} for lid, (_, w) in children.items()],
        "lines": [{"id": lid, "from": "r", "to": f"n-{lid}", "repair_time": p, "switch": True}
                  for lid, (p, _) in children.items()],
    })


class TestRatioEdgeCases:
    def test_ratios_equal_as_floats_differ_exactly(self):
        # 1/3 and 3333333333333333/10**16 round to the same float; 1/3 is
        # larger, so "b" must come first although "a" has the smaller id
        inst = _siblings({"a": (10**16, 3333333333333333), "b": (3, 1)})
        assert 1 / 3 == 3333333333333333 / 10**16
        got, expected = _sequence_pair(inst)
        assert got == expected == ["r", "b", "a"]

    def test_ratio_beyond_float_range(self):
        # 10 / 5e-324 overflows a float division; it sorts after the
        # zero-time island, and 10 / 5e-324 before 9 / 5e-324 before 1 / 1e-300
        inst = _siblings({"a": (1e-300, 1), "b": (5e-324, 9), "c": (5e-324, 10),
                          "d": (0, 1), "e": (2, 1)})
        got, expected = _sequence_pair(inst)
        assert got == expected == ["r", "d", "c", "b", "a", "e"]


# Repair times and node weights that stress the exact merge: subnormals,
# extremes, 10**16-scale ints (not all exact as floats), tenths (whose ratios
# tie as floats but not exactly), zeros and small ints (which tie exactly).
EXTREME_VALUES = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-323, 1e-300, 3e-300, 1e300, 2e300, 1e308]),
    st.integers(10**16 - 8, 10**16 + 8).map(float),
    st.integers(0, 40).map(lambda k: k * 0.1),
    st.integers(0, 6).map(float),
)


@st.composite
def extreme_island_trees(draw):
    """A random tree of 2-40 lines with switches, drawn from EXTREME_VALUES.

    Built from its records, as `validate` builds them, without `validate`: that
    rejects totals that overflow a float (1e300 times 1e300), which the merge
    must still order exactly.
    """
    lines = draw(st.integers(2, 40))
    nodes = [Node("0", 1.0)] + [Node(str(k), draw(EXTREME_VALUES)) for k in range(1, lines + 1)]
    return NetworkInstance(
        nodes=tuple(sorted(nodes)),
        lines=tuple(Line(f"e{k:02d}", str(draw(st.integers(0, k - 1))), str(k),
                         draw(EXTREME_VALUES), draw(st.booleans())) for k in range(1, lines + 1)),
        root="0",
        crews=1,
    )


@given(extreme_island_trees())
@settings(max_examples=300, deadline=None)
def test_island_sequence_matches_reference_on_extreme_data(inst):
    """The integer merge orders islands as the Fraction-only reference does.
    Where an island's sum overflows to inf the reference cannot run (nor can
    the merge), and the case is skipped."""
    try:
        expected = reference_island_sequence(inst.islands, inst.precedence)
    except OverflowError:
        assume(False)
    assert seq_opt.optimal_island_sequence(inst.islands, inst.precedence) == expected


@given(extreme_island_trees())
@settings(max_examples=200, deadline=None)
def test_directly_built_trees_partition_as_reference(inst):
    """An instance built without `validate` heads its islands from its own lines
    on first use, and partitions and orders them as the references do."""
    assert "_heads" not in vars(inst)
    expected = reference_partition(inst)
    assert partition_islands(inst) == expected and repr(inst.islands) == repr(expected)
    assert build_precedence_graph(inst, inst.islands) == reference_precedence(inst, expected)


def _cascade(n, comb):
    """A chain of n switch lines with node weights rising downstream, so each
    merge lands on a composite that merges next; with `comb`, every third
    chain node also feeds a switch leaf of weight 2 that merges part way."""
    chain = [(str(k - 1), str(k), 1 + k % 3, k) for k in range(1, n + 1)]
    leaves = [(str(k), f"leaf{k}", 2, 2) for k in range(0, n, 3)] if comb else []
    return validate({
        "root": "0", "crews": 1,
        "nodes": [{"id": "0", "weight": 0}]
        + [{"id": v, "weight": w} for _, v, _, w in chain + leaves],
        "lines": [{"id": f"e-{v}", "from": u, "to": v, "repair_time": p, "switch": True}
                  for u, v, p, _ in chain + leaves],
    })


@pytest.mark.parametrize("comb", [False, True], ids=["chain", "comb"])
@pytest.mark.parametrize("n", [2, 50, 3000])
def test_island_sequence_matches_reference_on_cascades(n, comb):
    got, expected = _sequence_pair(_cascade(n, comb))
    assert got == expected
    assert len(got) == n + 1 + (len(range(0, n, 3)) if comb else 0)
