import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

from gridrepair import schedule as sched
from gridrepair.model import build_precedence_graph, partition_islands
from gridrepair.schedule import ListNotPermutation, list_schedule

from conftest import instances, makespan

FORK_TIMES = {"a": 1.0, "b": 2.0, "c": 3.0}


class TestListSchedule:
    def test_fork_two_crews(self):
        plan = list_schedule(["a", "b", "c"], 2, FORK_TIMES)
        assert plan.starts() == {"a": 0, "b": 0, "c": 1}
        assert plan.completions() == {"a": 1, "b": 2, "c": 4}

    def test_single_crew_prefix_sums(self):
        plan = list_schedule(["c", "a", "b"], 1, FORK_TIMES)
        assert plan.completions() == {"c": 3, "a": 4, "b": 6}

    def test_more_crews_than_jobs(self):
        plan = list_schedule(["a", "b", "c"], 5, FORK_TIMES)
        assert plan.starts() == {"a": 0, "b": 0, "c": 0}
        assert plan.completions() == {"a": 1, "b": 2, "c": 3}

    def test_not_a_permutation(self):
        with pytest.raises(ListNotPermutation):
            list_schedule(["a", "b"], 2, FORK_TIMES)
        with pytest.raises(ListNotPermutation):
            list_schedule(["a", "b", "b"], 2, FORK_TIMES)
        with pytest.raises(ListNotPermutation):  # right length, an unknown id
            list_schedule(["a", "b", "z"], 2, FORK_TIMES)
        with pytest.raises(ListNotPermutation):  # right length, a duplicate
            list_schedule(["a", "a", "b"], 2, FORK_TIMES)

    def test_first_jobs_fill_crews_in_order(self):
        plan = list_schedule(["b", "c", "a"], 3, FORK_TIMES)
        assert [crew[0].line for crew in plan.crews] == ["b", "c", "a"]

    def test_zero_time_jobs_complete_at_start(self):
        times = {"z": 0.0, "a": 2.0}
        plan = list_schedule(["a", "z"], 1, times)
        assert plan.starts()["z"] == 2.0
        assert plan.completions()["z"] == 2.0


class TestEnergization:
    def test_two_island(self, two_island):
        islands = partition_islands(two_island)
        prec = build_precedence_graph(two_island, islands)
        plan = list_schedule(["e1", "e2"], 2, two_island.repair_times())
        e = sched.energization_times(plan, islands, prec)
        assert e == {"e1": 2, "e2": 2}

    def test_single_island_is_makespan(self, graham):
        islands = partition_islands(graham)
        prec = build_precedence_graph(graham, islands)
        plan = list_schedule(sorted(graham.repair_times()), 3, graham.repair_times())
        e = sched.energization_times(plan, islands, prec)
        assert e == {"j0": makespan(plan)}

    def test_own_crew_equals_path_max(self, fork):
        islands = partition_islands(fork)
        prec = build_precedence_graph(fork, islands)
        plan = list_schedule(["a", "b", "c"], 3, fork.repair_times())
        e = sched.energization_times(plan, islands, prec)
        assert e == {"a": 1, "b": 2, "c": 3}


class TestHarm:
    def test_two_island_single_crew(self, two_island):
        islands = partition_islands(two_island)
        prec = build_precedence_graph(two_island, islands)
        plan = list_schedule(["e1", "e2"], 1, two_island.repair_times())
        e = sched.energization_times(plan, islands, prec)
        assert sched.harm(e, islands.weights) == 32

    def test_all_weights_zero(self):
        assert sched.harm({"x": 5.0, "y": 9.0}, {"x": 0.0, "y": 0.0}) == 0

    def test_fork_two_crews(self, fork):
        islands = partition_islands(fork)
        prec = build_precedence_graph(fork, islands)
        plan = list_schedule(["a", "b", "c"], 2, fork.repair_times())
        e = sched.energization_times(plan, islands, prec)
        assert sched.harm(e, islands.weights) == 21


class TestInfiniteCrew:
    def test_two_island(self, two_island):
        islands = partition_islands(two_island)
        prec = build_precedence_graph(two_island, islands)
        e, h = sched.infinite_crew_energization(islands, prec, two_island.repair_times())
        assert e == {"e1": 2, "e2": 2} and h == 22

    def test_fork(self, fork):
        islands = partition_islands(fork)
        prec = build_precedence_graph(fork, islands)
        e, h = sched.infinite_crew_energization(islands, prec, fork.repair_times())
        assert e == {"a": 1, "b": 2, "c": 3} and h == 18

    def test_single_line(self):
        from gridrepair.model import validate

        inst = validate(
            {
                "root": "0",
                "crews": 1,
                "nodes": [{"id": "0", "weight": 0}, {"id": "1", "weight": 2}],
                "lines": [
                    {"id": "x", "from": "0", "to": "1", "repair_time": 5, "switch": False}
                ],
            }
        )
        islands = partition_islands(inst)
        prec = build_precedence_graph(inst, islands)
        e, h = sched.infinite_crew_energization(islands, prec, inst.repair_times())
        assert e == {"x": 5} and h == 10


@given(inst=instances(max_nodes=10), m=st.integers(1, 4), seed=st.integers(0, 2**16))
@settings(max_examples=80, deadline=None)
def test_list_schedule_properties(inst, m, seed):
    import random

    repair = inst.repair_times()
    order = sorted(repair)
    random.Random(seed).shuffle(order)
    plan = sched.list_schedule(order, m, repair)
    starts = plan.starts()
    completions = plan.completions()

    # completion = start + repair time
    for lid in repair:
        assert completions[lid] == pytest.approx(starts[lid] + repair[lid])

    # start of each job at most the average of the earlier load
    elapsed = 0.0
    for lid in order:
        assert starts[lid] <= elapsed / m + 1e-9
        elapsed += repair[lid]

    # no idle: busy time adds up, makespan bounded by average plus a peak
    busy = sum(a.completion - a.start for crew in plan.crews for a in crew)
    total = sum(repair.values())
    assert busy == pytest.approx(total)
    peak = max(repair.values(), default=0.0)
    assert makespan(plan) <= total / m + peak + 1e-9

    # within a crew: back to back from 0
    for crew in plan.crews:
        at = 0.0
        for a in crew:
            assert a.start == pytest.approx(at)
            at = a.completion


@given(inst=instances(max_nodes=10), m=st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_energization_feasible_for_relaxation_rows(inst, m):
    islands = partition_islands(inst)
    prec = build_precedence_graph(inst, islands)
    repair = inst.repair_times()
    plan = sched.list_schedule(sorted(repair), m, repair)
    e = sched.energization_times(plan, islands, prec)
    completions = plan.completions()
    of_line = islands.island_of_line
    for lid in repair:
        assert completions[lid] >= repair[lid] - 1e-12
        assert e[of_line[lid]] >= completions[lid] - 1e-12
    for parent, child in prec.edges():
        assert e[child] >= e[parent] - 1e-12


@given(inst=instances(max_nodes=9))
@settings(max_examples=40, deadline=None)
def test_enough_crews_reach_infinite_crew_harm(inst):
    islands = partition_islands(inst)
    prec = build_precedence_graph(inst, islands)
    repair = inst.repair_times()
    m = max(1, len(repair))
    plan = sched.list_schedule(sorted(repair), m, repair)
    e = sched.energization_times(plan, islands, prec)
    _, h_inf = sched.infinite_crew_energization(islands, prec, repair)
    assert sched.harm(e, islands.weights) == pytest.approx(h_inf)
