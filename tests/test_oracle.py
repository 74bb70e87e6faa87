import builtins
import dataclasses
import functools
import itertools
import math
import re
import tracemalloc
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from gridrepair import algos, lp, oracle, seq_opt
from gridrepair import schedule as sched
from gridrepair.harness import GenParams, bench_instance, generate_random, random_raw
from gridrepair.model import build_precedence_graph, partition_islands, validate

from conftest import (certified_bounds, exhaustive_separation, instances, mixed_magnitude_feeder,
                      small_mixed_magnitude_feeder)


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

    perms = _permutations(n)
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


@functools.cache
def _permutations(n):
    """Every permutation of range(n), in lexicographic order, one per row."""
    return np.array(list(itertools.permutations(range(n))), dtype=np.int64)


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


def _zero_weights(seed, lines):
    """A generated feeder whose odd-numbered nodes weigh 0, so that some
    islands weigh 0 and others do not."""
    raw = random_raw(GenParams(seed=seed, nodes=(lines + 1, lines + 1),
                               switch_probability=0.5, repair_time=(1, 10)))
    for k, node in enumerate(raw["nodes"]):
        node["weight"] = 0 if k % 2 else node["weight"] + 1
    return validate(raw)


DEEP_TIMES, DEEP_WEIGHTS = [2, 5, 1, 4, 3, 2, 6, 1, 3], [1, 0, 3, 1, 2, 5, 1, 4, 2]
# three islands of three lines on a path: within each, two lines of equal time
# (twins); across them, the same times again (not twins)
TWIN_TIMES, TWIN_SWITCHES = [2, 2, 5, 2, 5, 5, 2, 2, 5], [True, False, False] * 3

# instances of 8 and 9 damaged lines, where the branch-and-bound pruning engages
# (at m = 1, 2 with 8 lines and m <= 4 with 9); each case at both sizes
PRUNED_CASES = [
    pytest.param(case(lines), id=f"{name}-{lines}")
    for lines in (8, 9)
    for name, case in [
        # many lists tie: a bound that dropped a tie would lose the smallest list
        ("equal-times", lambda lines: _generated(8, lines, (3, 3), 0.5)),
        ("zero-weight-islands", lambda lines: _zero_weights(20 + lines, lines)),
        ("single-island", lambda lines: _generated(10, lines, (1, 10), 0.0)),
        ("deep-chain", lambda lines: _chain(DEEP_TIMES[:lines], DEEP_WEIGHTS[:lines],
                                            [True] * lines)),
        # the conversion's harm, the incumbent, is the optimum at m = 2 (and at m = 1)
        ("incumbent-optimal", lambda lines: _generated({8: 200, 9: 223}[lines], lines,
                                                       (1, 10), 0.4)),
        # twins in every island, and equal times across islands, which are not twins
        ("island-twins", lambda lines: _chain(TWIN_TIMES[:lines], DEEP_WEIGHTS[:lines],
                                              TWIN_SWITCHES[:lines])),
        ("tree-twins", lambda lines: _generated(33, lines, (2, 3), 0.3)),
    ]
]
_REFERENCE = {}


def _pruned_reference(inst, m):
    """reference_brute_force(inst, m) of a PRUNED_CASES instance, computed once."""
    key = (id(inst), m)
    if key not in _REFERENCE:
        _REFERENCE[key] = reference_brute_force(inst, m)
    return _REFERENCE[key]


@pytest.mark.parametrize("inst", PRUNED_CASES)
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_pruned_sizes_match_reference_brute_force(inst, m):
    assert sum(1 for p in inst.repair_times().values() if p > 0) in (8, 9)
    assert oracle.brute_force_optimal(inst, m) == _pruned_reference(inst, m)


@pytest.mark.parametrize("inst", PRUNED_CASES)
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_the_optimum_as_incumbent_keeps_the_smallest_optimal_list(inst, m):
    """The tightest valid incumbent drops every prefix it can and still
    returns the lexicographically smallest optimal list; one ulp lower, no
    list reaches it, which raises instead of answering."""
    best = _pruned_reference(inst, m)
    assert oracle.brute_force_optimal(inst, m, incumbent=best.harm) == best
    with pytest.raises(oracle.InvariantViolation, match="above the incumbent"):
        oracle.brute_force_optimal(inst, m, incumbent=np.nextafter(best.harm, -np.inf))


def test_an_incumbent_below_every_bound_raises():
    inst = next(case.values[0] for case in PRUNED_CASES if case.id == "deep-chain-9")
    with pytest.raises(oracle.InvariantViolation, match="every prefix's bound is above"):
        oracle.brute_force_optimal(inst, 2, incumbent=0.0)


def _pairs(inst):
    """Pairs of damaged lines of equal repair time, split into those of one
    island (twins) and those of two."""
    repair, island_of = inst.repair_times(), inst.islands.island_of_line
    pairs = [(a, b) for a, b in itertools.combinations(sorted(repair), 2)
             if repair[a] == repair[b] > 0]
    same = [pair for pair in pairs if island_of[pair[0]] == island_of[pair[1]]]
    return same, [pair for pair in pairs if pair not in same]


def test_pruned_cases_are_what_they_say():
    cases = {case.id: case.values[0] for case in PRUNED_CASES}
    for lines in (8, 9):
        weights = cases[f"zero-weight-islands-{lines}"].islands.weights.values()
        assert 0 in weights and max(weights) > 0
        assert len(cases[f"single-island-{lines}"].islands.islands) == 1
        assert len(cases[f"deep-chain-{lines}"].precedence.topological_order) == lines + 1
        best = cases[f"incumbent-optimal-{lines}"]
        assert algos.convert_single_to_m(best, 2).harm == reference_brute_force(best, 2).harm
        for name in ("island-twins", "tree-twins"):
            twins, lookalikes = _pairs(cases[f"{name}-{lines}"])
            assert len(twins) >= 3 and len(lookalikes) >= 3, name


@pytest.mark.parametrize("case, m", [("island-twins-9", 2), ("tree-twins-8", 3)])
def test_the_twin_rule_drops_lists_but_no_answer(case, m):
    """A line placed before its lower twin drops its set or prefix: the
    answer is the one found with no twins known."""
    inst = next(case_.values[0] for case_ in PRUNED_CASES if case_.id == case)
    with mock.patch.object(oracle, "_in_order", wraps=oracle._in_order) as in_order:
        result = oracle.brute_force_optimal(inst, m)
    kept = [oracle._in_order(*call.args) for call in in_order.call_args_list]
    assert kept and all(0 < k.sum() < len(k) for k in kept)
    with mock.patch.object(oracle, "_twin_code", return_value=None):
        assert oracle.brute_force_optimal(inst, m) == result == _pruned_reference(inst, m)


def _bound_checks(inst, m):
    """How many prefix levels the oracle's bound checked: its `energize`
    calls beyond the final scoring and the incumbent's."""
    with mock.patch.object(sched, "energize", wraps=sched.energize) as energize:
        oracle.brute_force_optimal(inst, m)
    return max(0, energize.call_count - 2)


@pytest.mark.parametrize("case, m, checks", [
    ("deep-chain-9", 2, 3),  # each check drops at least a quarter, so all three run
    ("incumbent-optimal-8", 2, 3),
    ("single-island-9", 2, 2),  # one island: ties keep nearly all, but twins do not
    ("equal-times-8", 1, 3),  # every island's lines are twins
    ("deep-chain-8", 3, 1),  # 8!/3! = 6720 lists prune; the first check keeps most
    ("seeded-7", 1, 0),  # 7! = 5040 lists: too few to prune
])
def test_bound_checks_where_it_pays(case, m, checks):
    inst = next(case_.values[0] for case_ in PRUNED_CASES + DIFFERENTIAL_CASES
                if case_.id == case)
    assert _bound_checks(inst, m) == checks


@pytest.mark.parametrize("inst", DIFFERENTIAL_CASES)
def test_matches_reference_brute_force(inst):
    n = sum(1 for p in inst.repair_times().values() if p > 0)
    # m = n - 1 leaves one suffix level after the first-c sets, m = n none
    for m in sorted({1, 2, 3, max(1, n - 1), max(1, n), n + 2}):
        assert oracle.brute_force_optimal(inst, m) == reference_brute_force(inst, m), m


# few distinct values, so ties are common; zeros and non-dyadic fractions among them
REPAIR_TIMES = (0, 0.1, 0.2, 1 / 3, 0.7, 1, 2, 2.5)


@st.composite
def tied_instances(draw, nodes=(2, 8)):
    """Generated feeders of nodes[0] - 1 to nodes[1] - 1 lines with repair
    times from REPAIR_TIMES."""
    nodes = draw(st.integers(*nodes))
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


@given(tied_instances(nodes=(9, 10)), st.integers(min_value=1, max_value=4))
@settings(max_examples=15, deadline=None)
def test_matches_reference_on_tied_times_where_pruning_engages(inst, m):
    """8 and 9 lines, where the bound prunes at m <= 2 and m <= 4; ties and
    zero times are where a bound that cut too much would show."""
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


@pytest.mark.parametrize("alg", ["alg1", "alg2"])
def test_a_harm_below_the_unlimited_crew_bound_fails_beyond_the_guard(alg):
    """Every harm is checked against E-infinity and E1/m, also on rows the
    oracle cannot solve (here 40 lines, so `h_opt` is None)."""
    inst = _generated(5, 40, (1, 10), 0.3)
    results = {"alg1": algos.lp_list_schedule(inst, crews=3),
               "alg2": algos.convert_single_to_m(inst, crews=3)}
    oracle.certify_row("forty", inst, 3, results["alg1"], results["alg2"], h_opt=None)
    infinite = inst.infinite_crew_energization[1]
    results[alg] = dataclasses.replace(results[alg], harm=infinite - 1)
    what = {"alg1": "lp-list harm", "alg2": "conversion harm"}[alg]
    with pytest.raises(oracle.InvariantViolation,
                       match=rf"^forty \(m=3\): .*{what} {infinite - 1} below unlimited-crew bound"):
        oracle.certify_row("forty", inst, 3, results["alg1"], results["alg2"], h_opt=None)


@pytest.mark.parametrize("seed, m, bound", [(10005, 3, "conversion bound"),
                                             (722, 1, "(2 - 1/m) harm guarantee")])
def test_a_bound_missed_by_one_rounding_is_met(seed, m, bound):
    """Rows of the mixed-magnitude sweep whose energizations reach about 1e12
    (feeder 10005: island l18 at 828011933311.7555 against its conversion
    bound 828011933311.7554) and 1e16 (feeder 722: the conversion harm
    7557835430169086.0 against the optimum 7557835430169085.0).  Both miss
    by one rounding, which an absolute slack does not cover at that size."""
    inst = mixed_magnitude_feeder(seed)
    alg1 = algos.lp_list_schedule(inst, crews=m)
    alg2 = algos.convert_single_to_m(inst, crews=m)
    try:
        h_opt = oracle.brute_force_optimal(inst, m).harm
    except oracle.TooLarge:  # the conversion bound needs no optimum
        h_opt = None
    oracle.certify_row(f"mixed-{seed}", inst, m, alg1, alg2, h_opt)
    message = rf"^mixed-{seed} \(m={m}\): {re.escape(bound)} broken"
    with mock.patch.object(oracle, "ULPS", 0.0), pytest.raises(oracle.InvariantViolation,
                                                               match=message):
        oracle.certify_row(f"mixed-{seed}", inst, m, alg1, alg2, h_opt)


@pytest.mark.parametrize("seed", [44, 71, 95, 479, 2003, 2295, 3008, 4427, 4600, 5006])
def test_a_relaxation_the_lp_loop_accepts_certifies(seed):
    """Rows of the small mixed-magnitude sweep at m = 1, with values of 1e9
    to 1e14, whose relaxation ends above the brute-force optimum by up to
    9.7e-14 of it (seed 95): within the LP loop's own acceptance tolerance,
    which `certify_row` allows on top of its absolute 1e-6."""
    bench_instance(f"mixed-{seed}", small_mixed_magnitude_feeder(seed), 1)


def compensated_sum(items, start=0):
    """`sum` as CPython 3.12 and later run it: an int total adds ints plainly;
    a float total adds each further float with Neumaier's compensation and
    each int plainly, and from the first other item on adds plainly."""
    items, total, compensation = iter(items), start, 0.0
    for item in items:
        total = total + item
        if type(total) is not int:
            break
    for item in items if type(total) is float else ():
        if type(item) is float:
            t = total + item
            compensation += (total - t) + item if abs(total) >= abs(item) else (item - t) + total
            total = t
        elif isinstance(item, int):
            total += float(item)
        else:
            total = total + (compensation if math.isfinite(compensation) else 0.0) + item
            compensation = 0.0
            break
    for item in items:
        total = total + item
    return total + compensation if compensation and math.isfinite(compensation) else total


@pytest.mark.parametrize("make, seed, m", [
    (small_mixed_magnitude_feeder, 11, 1), (small_mixed_magnitude_feeder, 17, 1),
    (mixed_magnitude_feeder, 45, 2), (mixed_magnitude_feeder, 45, 3),
    (mixed_magnitude_feeder, 73, 3)])
def test_rows_certify_where_sum_compensates_floats(monkeypatch, make, seed, m):
    """Were harm a `sum()`, on Python 3.12 and later the scalar incumbent of
    these rows would be compensated and the oracle's arrays not: the incumbent
    sat one ulp below the optimum of the same list (feeder 45: 6575597681132587.0
    against 6575597681132588.0), and the oracle raised InvariantViolation."""
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    assert sum([0.1] * 10) == 1.0  # 0.9999999999999999 added left to right
    bench_instance(f"mixed-{seed}", make(seed), m)


def test_a_relaxation_above_the_optimum_by_more_than_the_slack_fails():
    inst = small_mixed_magnitude_feeder(95)
    alg1 = algos.lp_list_schedule(inst, crews=1)
    alg2 = algos.convert_single_to_m(inst, crews=1)
    h_opt = oracle.brute_force_optimal(inst, 1).harm
    slack = 1e-6 + (lp.GAP_TOLERANCE + oracle.ULPS) * h_opt
    for share in (0.5, 2.0):
        relaxation = dataclasses.replace(alg1.lp, objective=h_opt + share * slack)
        row = (inst, 1, dataclasses.replace(alg1, lp=relaxation), alg2, h_opt)
        if share < 1:
            oracle.certify_row("mixed-95", *row)
        else:
            with pytest.raises(oracle.InvariantViolation,
                               match=r"^mixed-95 \(m=1\): relaxation exceeds the optimum$"):
                oracle.certify_row("mixed-95", *row)


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
