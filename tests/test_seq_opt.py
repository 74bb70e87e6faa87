"""The exchange-argument sequencer is validated against brute enumeration:
its cost must match the best over ALL island permutations, not just the
precedence-respecting ones.
"""

import itertools
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from gridrepair import schedule as sched
from gridrepair import seq_opt
from gridrepair.model import build_precedence_graph, partition_islands, validate

from conftest import instances


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
    by_id = islands.by_id()
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


def best_over_all_orders(islands, precedence):
    ids = islands.ids()
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
        assert seq_opt.expand_sequence(["e1", "e2"], islands) == ["e1", "e2"]

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
        islands = partition_islands(inst)
        assert seq_opt.expand_sequence(["x1"], islands) == ["x1", "x2", "x3"]

    def test_fork(self, fork):
        islands = partition_islands(fork)
        assert seq_opt.expand_sequence(["a", "b", "c"], islands) == ["a", "b", "c"]


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
    assert sorted(order) == sorted(islands.ids())
    pos = {iid: k for k, iid in enumerate(order)}
    for child, parent in prec.parent.items():
        assert pos[parent] < pos[child]
    lines = seq_opt.expand_sequence(order, islands)
    of_line = islands.island_of_line()
    runs = [iid for iid, _ in itertools.groupby(lines, key=lambda lid: of_line[lid])]
    assert len(runs) == len(set(runs))


@given(instances(max_nodes=9), st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_within_island_permutation_is_cost_neutral(inst, seed):
    islands = partition_islands(inst)
    prec = build_precedence_graph(inst, islands)
    best = seq_opt.optimal_single_crew_harm(inst)
    rng = random.Random(seed)
    by_id = islands.by_id()
    shuffled = []
    for iid in best.island_order:
        block = list(by_id[iid].line_ids)
        rng.shuffle(block)
        shuffled.extend(block)
    plan = sched.list_schedule(shuffled, 1, inst.repair_times())
    e = sched.energization_times(plan, islands, prec)
    assert sched.harm(e, islands.weights()) == pytest.approx(best.harm)
