import itertools
import tracemalloc
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from gridrepair import algos, lp, oracle, seq_opt
from gridrepair import schedule as sched
from gridrepair.harness import GenParams, generate_random, random_raw
from gridrepair.model import build_precedence_graph, partition_islands, validate

from conftest import certified_bounds, exhaustive_separation, instances


def reference_brute_force(instance, m):
    """The oracle as it was first written: every permutation of the damaged
    lines built up front and list-scheduled on all m crews at once."""
    if m < 1:
        raise ValueError(f"crew count must be >= 1, got {m}")
    islands, precedence = instance.islands, instance.precedence
    repair = instance.repair_times()
    zero_lines = sorted(lid for lid in repair if repair[lid] == 0)
    damaged = sorted(lid for lid in repair if repair[lid] > 0)
    n = len(damaged)
    if n > oracle.MAX_BRUTE_FORCE_LINES:
        raise oracle.TooLarge(n, oracle.MAX_BRUTE_FORCE_LINES)

    weights = islands.weights
    if n == 0:
        energization = {iid: 0.0 for iid in weights}
        return oracle.OracleResult(
            harm=sched.harm(energization, weights),
            priority_list=tuple(zero_lines),
            enumerated=1,
        )

    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
    completions = _simulate_all(perms, np.array([repair[j] for j in damaged]), m)

    col = {lid: k for k, lid in enumerate(damaged)}
    group = {}
    for isl in islands.islands:
        cols = [col[lid] for lid in isl.line_ids if lid in col]
        group[isl.id] = (
            completions[:, cols].max(axis=1) if cols else np.zeros(len(perms))
        )
    energization = sched.energize(group, precedence, np.maximum)
    harms = sum(weights[iid] * energization[iid] for iid in sorted(weights))

    best = int(np.argmin(harms))
    best_list = tuple(zero_lines) + tuple(damaged[k] for k in perms[best])
    return oracle.OracleResult(
        harm=float(harms[best]), priority_list=best_list, enumerated=len(perms)
    )


def _simulate_all(perms, p, m):
    """Per-line completions of every permutation; crew ties go to the lowest index."""
    count, n = perms.shape
    free = np.zeros((count, m))
    completions = np.zeros((count, n))
    rows = np.arange(count)
    for pos in range(n):
        jobs = perms[:, pos]
        crew = np.argmin(free, axis=1)
        finish = free[rows, crew] + p[jobs]
        completions[rows, jobs] = finish
        free[rows, crew] = finish
    return completions


def _chain(times, weights, switches):
    """Path feeder: line l<k> feeds node n<k> from node n<k-1>."""
    return validate({
        "root": "n0",
        "crews": 1,
        "nodes": [{"id": "n0", "weight": 0}]
        + [{"id": f"n{k + 1}", "weight": w} for k, w in enumerate(weights)],
        "lines": [
            {"id": f"l{k + 1}", "from": f"n{k}", "to": f"n{k + 1}",
             "repair_time": p, "switch": sw}
            for k, (p, sw) in enumerate(zip(times, switches))
        ],
    })


def _generated(seed, lines, repair_time, switch_probability):
    return generate_random(GenParams(
        seed=seed, nodes=(lines + 1, lines + 1),
        switch_probability=switch_probability, repair_time=repair_time,
    ))


DIFFERENTIAL_CASES = [
    # seeded instances with every damaged-line count from 0 to 8
    *(pytest.param(_generated(100 + lines, lines, (1, 10), 0.4), id=f"seeded-{lines}")
      for lines in range(1, 9)),
    pytest.param(_chain([0, 0, 0], [1, 2, 3], [True, False, True]), id="all-zero-time"),
    pytest.param(_generated(7, 8, (0, 4), 0.5), id="zero-time-lines"),
    pytest.param(_generated(8, 8, (3, 3), 0.5), id="equal-times"),
    pytest.param(_generated(9, 7, (1, 2), 0.3), id="near-equal-times"),
    pytest.param(_generated(10, 8, (1, 10), 0.0), id="single-island"),
    pytest.param(_chain([2, 5, 1, 4, 3, 2, 6, 1], [1, 0, 3, 1, 2, 5, 1, 4], [True] * 8),
                 id="deep-chain"),
    pytest.param(_chain([3, 3, 0, 3, 2, 0, 3, 3], [2, 1, 1, 0, 4, 1, 3, 2],
                        [True, True, False, True, True, True, False, True]),
                 id="chain-ties-zeros"),
    pytest.param(_chain([0.1, 0.2, 0.7, 1 / 3, 0.3, 2.5, 0.1], [0.3, 1.1, 0.7, 2.9, 0.1, 1 / 7, 5],
                        [False, True, True, False, True, False, True]),
                 id="fractional"),
]


@pytest.mark.parametrize("inst", DIFFERENTIAL_CASES)
def test_matches_reference_brute_force(inst):
    n = sum(1 for p in inst.repair_times().values() if p > 0)
    # m = n - 1 leaves one suffix level after the first-c sets, m = n none
    for m in sorted({1, 2, 3, max(1, n - 1), max(1, n), n + 2}):
        assert oracle.brute_force_optimal(inst, m) == reference_brute_force(inst, m), m


# few distinct values, so ties are common; zeros and non-dyadic fractions among them
REPAIR_TIMES = (0, 0.1, 0.2, 1 / 3, 0.7, 1, 2, 2.5)


@st.composite
def tied_instances(draw):
    """Generated feeders of at most 7 lines with repair times from REPAIR_TIMES."""
    nodes = draw(st.integers(min_value=2, max_value=8))
    raw = random_raw(GenParams(
        seed=draw(st.integers(min_value=0, max_value=2**31 - 1)), nodes=(nodes, nodes),
        switch_probability=draw(st.sampled_from([0.0, 0.4, 1.0]))))
    for line in raw["lines"]:
        line["repair_time"] = draw(st.sampled_from(REPAIR_TIMES))
    return validate(raw)


@given(tied_instances(), st.integers(min_value=1, max_value=5))
@settings(max_examples=60, deadline=None)
def test_matches_reference_on_tied_zero_and_fractional_times(inst, m):
    assert oracle.brute_force_optimal(inst, m) == reference_brute_force(inst, m)


def _peak(inst, m):
    """Peak traced bytes of one oracle call, its cached index tables built before."""
    oracle.brute_force_optimal(inst, m)
    tracemalloc.start()
    oracle.brute_force_optimal(inst, m)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return peak


def test_first_line_sets_cut_memory():
    """At m = 3 each 3-line set is simulated once for its 3! = 6 orderings,
    so the peak is well under a third of the one-crew peak (c = 1)."""
    inst = _generated(108, 8, (1, 10), 0.4)
    peaks = {m: _peak(inst, m) for m in (1, 3)}
    assert peaks[3] <= peaks[1] / 3, peaks


def test_memory_does_not_grow_with_crews():
    inst = _generated(108, 8, (1, 10), 0.4)
    peaks = {m: _peak(inst, m) for m in (8, 64)}
    assert peaks[64] <= 1.5 * peaks[8], peaks


class TestBruteForce:
    def test_two_island(self, two_island):
        result = oracle.brute_force_optimal(two_island, 2)
        assert result.harm == 22
        assert result.enumerated == 2
        assert result.priority_list == ("e1", "e2")  # lexicographically first optimum

    def test_fork(self, fork):
        result = oracle.brute_force_optimal(fork, 2)
        assert result.harm == 21
        assert result.enumerated == 6

    def test_fork_harm_spread_over_all_lists(self, fork):
        islands = partition_islands(fork)
        prec = build_precedence_graph(fork, islands)
        harms = sorted(
            sched.harm(
                sched.energization_times(
                    sched.list_schedule(list(perm), 2, fork.repair_times()),
                    islands,
                    prec,
                ),
                islands.weights,
            )
            for perm in itertools.permutations(["a", "b", "c"])
        )
        assert harms == [21, 21, 22, 22, 24, 24]

    def test_guard(self):
        params = GenParams(seed=3, nodes=(12, 12), repair_time=(1, 5))
        inst = generate_random(params)
        with pytest.raises(oracle.TooLarge):
            oracle.brute_force_optimal(inst, 2)

    def test_many_crews_hit_infinite_crew_floor(self, fork):
        islands = partition_islands(fork)
        prec = build_precedence_graph(fork, islands)
        _, h_inf = sched.infinite_crew_energization(islands, prec, fork.repair_times())
        assert oracle.brute_force_optimal(fork, 7).harm == h_inf

    def test_optimal_list_replays_to_same_harm(self, fork):
        result = oracle.brute_force_optimal(fork, 2)
        islands = partition_islands(fork)
        prec = build_precedence_graph(fork, islands)
        plan = sched.list_schedule(list(result.priority_list), 2, fork.repair_times())
        e = sched.energization_times(plan, islands, prec)
        assert sched.harm(e, islands.weights) == result.harm


class TestCheckBounds:
    """The lower bounds E1/m and E-infinity on the optimum, as `certify_row`
    checks them through `_lower_bound_failures`."""

    def test_two_island(self, two_island):
        optimum, single, infinite = certified_bounds(two_island, 2)
        assert (optimum, single, infinite) == (22, 32, 22)
        assert oracle._lower_bound_failures(optimum, single, infinite, 2) == []
        assert optimum - single / 2 == pytest.approx(22 - 16)
        assert optimum - infinite == 0  # the unlimited-crew bound is tight here

    def test_fork(self, fork):
        optimum, single, infinite = certified_bounds(fork, 2)
        assert (optimum, single, infinite) == (21, 31, 18)
        assert oracle._lower_bound_failures(optimum, single, infinite, 2) == []

    def test_one_crew_bound_tight(self, fork):
        optimum, single, infinite = certified_bounds(fork, 1)
        assert optimum == single == 31
        assert oracle._lower_bound_failures(optimum, single, infinite, 1) == []

    def test_optimum_below_either_bound_fails(self, two_island):
        # E1/m = 16 and E-infinity = 22 at m = 2
        assert oracle._lower_bound_failures(21.5, 32, 22, 2) == [
            "m-crew optimum 21.5 below unlimited-crew bound 22"]
        assert len(oracle._lower_bound_failures(15.5, 32, 22, 2)) == 2
        alg1 = algos.lp_list_schedule(two_island, crews=2)
        alg2 = algos.convert_single_to_m(two_island, crews=2)
        with pytest.raises(oracle.InvariantViolation,
                           match="below single-crew bound 32.0/2; m-crew optimum 15.5 below "
                                 "unlimited-crew bound 22"):
            oracle.certify_row("two_island", two_island, 2, alg1, alg2, 15.5)


class TestExhaustiveSeparation:
    def test_violated_pair(self):
        result = exhaustive_separation(
            {"1": 0.1, "2": 0.1}, {"1": 1.0, "2": 1.0}, 1
        )
        assert result.subset == frozenset({"1", "2"})
        assert result.violation == pytest.approx(2.8)

    def test_clean_point(self):
        result = exhaustive_separation(
            {"1": 2.0, "2": 1.0}, {"1": 2.0, "2": 1.0}, 2
        )
        assert result.violation <= 0

    def test_boundary_single(self):
        result = exhaustive_separation({"1": 1.0}, {"1": 1.0}, 1)
        assert result.subset == frozenset({"1"})
        assert result.violation == pytest.approx(0.0)

    def test_guard(self):
        p = {f"l{k}": 1.0 for k in range(13)}
        c = {lid: 1.0 for lid in p}
        with pytest.raises(oracle.TooLarge):
            exhaustive_separation(c, p, 1)


@given(instances(max_nodes=6), st.sampled_from([1, 2, 3]))
@settings(max_examples=40, deadline=None)
def test_vectorized_simulation_matches_scalar(inst, m):
    """The oracle's batched simulator against the scalar one, list by list."""
    repair = inst.repair_times()
    damaged = sorted(lid for lid in repair if repair[lid] > 0)
    zero = sorted(lid for lid in repair if repair[lid] == 0)
    islands = partition_islands(inst)
    prec = build_precedence_graph(inst, islands)
    weights = islands.weights
    best = None
    for perm in itertools.permutations(damaged):
        plan = sched.list_schedule(zero + list(perm), m, repair)
        e = sched.energization_times(plan, islands, prec)
        h = sched.harm(e, weights)
        best = h if best is None else min(best, h)
    result = oracle.brute_force_optimal(inst, m)
    assert result.harm == best


@given(instances(max_nodes=9))
@settings(max_examples=50, deadline=None)
def test_single_crew_brute_force_matches_sequencer(inst):
    islands = partition_islands(inst)
    if len(islands.islands) > 7:
        return
    assert oracle.brute_force_optimal(inst, 1).harm == pytest.approx(
        seq_opt.optimal_single_crew_harm(inst).harm
    )


@given(instances(max_nodes=8), st.sampled_from([1, 2, 3]))
@settings(max_examples=30, deadline=None)
def test_bound_checks_never_fire_on_valid_instances(inst, m):
    optimum, single, infinite = certified_bounds(inst, m)
    assert oracle._lower_bound_failures(optimum, single, infinite, m) == []


@given(st.integers(0, 2**31 - 1), st.integers(10, 300), st.sampled_from([0.0, 0.1, 0.5, 1.0]),
       st.integers(0, 3))
@settings(max_examples=25, deadline=None)
def test_spare_crews_certify_at_every_size(seed, lines, switch_probability, spare):
    """A certificate that needs no oracle: with a crew per damaged line the
    LP, the lp-list harm and the unlimited-crew optimum are one number at any
    size, and every bound `certify_row` checks without an optimum holds.
    No HiGHS solve runs."""
    inst = generate_random(GenParams(seed=seed, nodes=(lines + 1, lines + 1),
                                     switch_probability=switch_probability))
    repair = inst.repair_times()
    m = max(1, sum(1 for t in repair.values() if t > 0)) + spare
    with mock.patch.object(lp, "simplex_solve", side_effect=AssertionError("a HiGHS solve ran")):
        alg1 = algos.lp_list_schedule(inst, crews=m)
    alg2 = algos.convert_single_to_m(inst, crews=m)
    infinite = sched.infinite_crew_energization(inst.islands, inst.precedence, repair)
    assert repr(alg1.lp.objective) == repr(alg1.harm) == repr(infinite[1])
    oracle.certify_row("spare-crews", inst, m, alg1, alg2, h_opt=None)
