import dataclasses

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from gridrepair import algos, oracle
from gridrepair import schedule as sched
from gridrepair.model import validate

from conftest import instances


class TestLpListSchedule:
    def test_two_island(self, two_island):
        # both lines complete at E = 2 in the relaxation: e1, midpoint 1, goes first
        result = algos.lp_list_schedule(two_island, crews=2)
        assert result.schedule.priority == ("e1", "e2")
        assert result.harm == 22

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
        result = algos.lp_list_schedule(inst)
        assert result.schedule.starts()["x"] == 0
        assert result.harm == 20

    def test_fork(self, fork):
        result = algos.lp_list_schedule(fork, crews=2)
        assert result.schedule.priority == ("a", "b", "c")
        assert result.harm == 21
        best = oracle.brute_force_optimal(fork, 2)
        assert best.harm == 21

    def test_harm_recomputable_from_schedule(self, fork):
        result = algos.lp_list_schedule(fork, crews=2)
        e = sched.energization_times(result.schedule, fork.islands, fork.precedence)
        assert sched.harm(e, fork.islands.weights) == result.harm


class TestConvertSingleToM:
    def test_fork(self, fork):
        result = algos.convert_single_to_m(fork, crews=2)
        assert result.harm == 21
        # per-island conversion bound, island c: 4 <= (6 + 3) / 2
        assert result.energization["c"] == 4
        assert result.energization["c"] <= 0.5 * 6 + 0.5 * 3

    def test_one_crew_matches_exact_sequencer(self, fork, two_island):
        for inst in (fork, two_island):
            result = algos.convert_single_to_m(inst, crews=1)
            assert result.harm == result.single_crew.harm

    def test_two_island(self, two_island):
        result = algos.convert_single_to_m(two_island, crews=2)
        assert result.harm == 22
        assert result.energization["e2"] <= 0.5 * 3 + 0.5 * 2

    def test_within_island_orders(self, graham):
        default = algos.convert_single_to_m(graham, crews=3)
        assert default.schedule.priority[0] == "j0"  # longest first by id
        assert default.harm == 21
        reversed_ = algos.convert_single_to_m(
            graham, crews=3, within_island_order="reversed"
        )
        assert reversed_.schedule.priority[-1] == "j0"
        adversarial = algos.convert_single_to_m(
            graham, crews=3, within_island_order="adversarial-longest-last"
        )
        assert adversarial.schedule.priority[-1] == "j0"
        assert adversarial.harm == 35

    def test_unknown_order_rejected(self, graham):
        with pytest.raises(ValueError):
            algos.convert_single_to_m(graham, within_island_order="sorted-by-vibes")


class TestSingleOptimal:
    def test_matches_sequencer(self, fork):
        result = algos.single_optimal(fork)
        assert result.harm == 31
        assert result.crews == 1


def test_convert_simulates_only_the_m_crew_plan(feeder123, monkeypatch):
    """The conversion reads only the single-crew order: one list schedule per call."""
    calls = []
    real = sched.list_schedule

    def counted(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(sched, "list_schedule", counted)
    result = algos.convert_single_to_m(feeder123, crews=3)
    assert calls == [3]
    result.single_crew.harm  # the single-crew plan is simulated when read
    assert calls == [3, 1]


def test_convert_leaves_the_unlimited_crew_bound_to_the_bench(feeder123, monkeypatch):
    """Only the certificate reads E-infinity, so the bench row computes it."""
    def refuse(*args, **kwargs):
        raise AssertionError("convert computed the unlimited-crew energization")

    monkeypatch.setattr(sched, "infinite_crew_energization", refuse)
    for order in algos.WITHIN_ISLAND_ORDERS:
        algos.convert_single_to_m(feeder123, crews=3, within_island_order=order)


def test_results_carry_only_what_their_algorithm_derives(fork):
    assert [f.name for f in dataclasses.fields(algos.AlgoResult)] == [
        "algorithm", "schedule", "energization", "harm", "lp", "single_crew"]
    lp_list = algos.lp_list_schedule(fork, crews=2)
    convert, single = algos.convert_single_to_m(fork, crews=2), algos.single_optimal(fork)
    assert lp_list.lp is not None and lp_list.single_crew is None
    assert convert.lp is None and single.lp is None
    assert (convert.crews, single.crews) == (2, 1)
    assert single.energization == single.single_crew.energization
    assert single.harm == single.single_crew.harm


@given(inst=instances(max_nodes=9), m=st.sampled_from([2, 3]))
@settings(max_examples=40, deadline=None)
def test_per_job_and_per_island_guarantees(inst, m):
    result = algos.lp_list_schedule(inst, crews=m)
    completions = result.schedule.completions()
    repair = inst.repair_times()

    elapsed = 0.0
    for lid in result.schedule.priority:
        assert result.schedule.starts()[lid] <= elapsed / m + 1e-9
        elapsed += repair[lid]
    for lid in repair:
        assert completions[lid] <= 2.0 * result.lp.completion[lid] + 1e-6
    for iid, e in result.energization.items():
        assert e <= 2.0 * result.lp.energization[iid] + 1e-6


@given(inst=instances(max_nodes=9), m=st.sampled_from([2, 3]),
       order=st.sampled_from(algos.WITHIN_ISLAND_ORDERS))
@settings(max_examples=40, deadline=None)
def test_conversion_island_bound(inst, m, order):
    result = algos.convert_single_to_m(inst, crews=m, within_island_order=order)
    repair = inst.repair_times()
    single_plan = sched.list_schedule(list(result.single_crew.plan.priority), 1, repair)
    single_e = sched.energization_times(single_plan, inst.islands, inst.precedence)
    infinite_e, _ = sched.infinite_crew_energization(inst.islands, inst.precedence, repair)
    for iid, e in result.energization.items():
        assert e <= single_e[iid] / m + (m - 1) / m * infinite_e[iid] + 1e-9


@given(inst=instances(max_nodes=8), m=st.sampled_from([2, 3]))
@settings(max_examples=30, deadline=None)
def test_global_ratios_against_oracle(inst, m):
    best = oracle.brute_force_optimal(inst, m).harm
    h1 = algos.lp_list_schedule(inst, crews=m).harm
    h2 = algos.convert_single_to_m(inst, crews=m).harm
    assert h1 <= 2.0 * best + 1e-6
    assert h2 <= (2.0 - 1.0 / m) * best + 1e-6


def test_source_only_network_is_trivially_energized():
    inst = validate(
        {
            "root": "0",
            "crews": 1,
            "nodes": [{"id": "0", "weight": 3}],
            "lines": [],
        }
    )
    assert algos.lp_list_schedule(inst).harm == 0
    assert algos.convert_single_to_m(inst).harm == 0
    assert oracle.brute_force_optimal(inst, 1).harm == 0


def test_all_lines_undamaged_means_zero_harm():
    inst = validate(
        {
            "root": "0",
            "crews": 2,
            "nodes": [
                {"id": "0", "weight": 0},
                {"id": "1", "weight": 5},
                {"id": "2", "weight": 3},
            ],
            "lines": [
                {"id": "u", "from": "0", "to": "1", "repair_time": 0, "switch": False},
                {"id": "v", "from": "1", "to": "2", "repair_time": 0, "switch": True},
            ],
        }
    )
    assert algos.lp_list_schedule(inst).harm == 0
    assert algos.convert_single_to_m(inst).harm == 0
    assert algos.single_optimal(inst).harm == 0
    assert oracle.brute_force_optimal(inst, 2).harm == 0
