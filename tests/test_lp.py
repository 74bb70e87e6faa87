import itertools
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import numpy as np

from gridrepair import oracle
from gridrepair.lp import (
    Cut,
    LpModel,
    load_rhs,
    lp_midpoints,
    separate,
    simplex_solve,
    solve_relaxation,
)
from gridrepair.model import build_precedence_graph, partition_islands, validate

from conftest import instances


class TestSimplexSolve:
    def test_one_variable_bound(self):
        model = LpModel(variables=["x"], objective=np.array([1.0]), lower=np.array([1.0]))
        vertex = simplex_solve(model)
        assert vertex.values[0] == pytest.approx(1.0)
        assert vertex.objective == pytest.approx(1.0)

    def test_chained_lower_bounds(self):
        model = LpModel(
            variables=["C", "E"], objective=np.array([0.0, 1.0]), lower=np.array([2.0, 0.0])
        )
        model.add_row(np.array([-1.0, 1.0]), 0.0)
        vertex = simplex_solve(model)
        assert vertex.values.tolist() == pytest.approx([2.0, 2.0])

    def test_two_island_base_model(self, two_island):
        # base rows only, no load cuts: all lower bounds tight
        islands = partition_islands(two_island)
        prec = build_precedence_graph(two_island, islands)
        from gridrepair.lp import _base_model

        model = _base_model(two_island, islands, prec)
        assert model.variables == ["C[e1]", "C[e2]", "E[e1]", "E[e2]"]
        vertex = simplex_solve(model)
        assert vertex.values.tolist() == pytest.approx([2.0, 1.0, 2.0, 2.0])
        assert vertex.objective == pytest.approx(22.0)

    def test_unbounded_raises(self):
        from gridrepair.lp import Unbounded

        model = LpModel(variables=["x"], objective=np.array([-1.0]), lower=np.zeros(1))
        with pytest.raises(Unbounded):
            simplex_solve(model)

    def test_infeasible_raises(self):
        from gridrepair.lp import Infeasible

        model = LpModel(variables=["x"], objective=np.array([1.0]), lower=np.zeros(1))
        model.add_row(np.array([-1.0]), 1.0)  # x <= -1
        with pytest.raises(Infeasible):
            simplex_solve(model)


class TestSeparate:
    def test_full_pair_most_violated(self):
        cut = separate({"1": 0.1, "2": 0.1}, {"1": 1.0, "2": 1.0}, 1)
        assert cut is not None
        assert cut.lines == frozenset({"1", "2"})
        violation = cut.rhs - (1.0 * 0.1 + 1.0 * 0.1)
        assert violation == pytest.approx(2.8)
        # the singleton is violated too, but less
        single = load_rhs([1.0], 1) - 0.1
        assert single == pytest.approx(0.9)

    def test_satisfied_point_returns_none(self):
        assert separate({"1": 2.0, "2": 1.0}, {"1": 2.0, "2": 1.0}, 2) is None

    def test_boundary_equality_returns_none(self):
        assert separate({"1": 1.0}, {"1": 1.0}, 1) is None

    def test_zero_time_lines_ignored(self):
        cut = separate({"z": 0.0, "a": 0.1}, {"z": 0.0, "a": 1.0}, 1)
        assert cut is not None and cut.lines == frozenset({"a"})

    def test_pooled_most_violated_yields_next(self):
        # prefixes {1} (violation 0.9) and {1, 2} (violation 2.4)
        c, p = {"1": 0.1, "2": 0.5}, {"1": 1.0, "2": 1.0}
        assert separate(c, p, 1).lines == frozenset({"1", "2"})
        cut = separate(c, p, 1, pooled={frozenset({"1", "2"})})
        assert cut is not None and cut.lines == frozenset({"1"})
        assert cut.rhs == pytest.approx(1.0)

    def test_pooled_only_violated_yields_none(self):
        # {1} is violated by 0.9; {1, 2} holds with slack 2.1
        c, p = {"1": 0.1, "2": 5.0}, {"1": 1.0, "2": 1.0}
        assert separate(c, p, 1).lines == frozenset({"1"})
        assert separate(c, p, 1, pooled={frozenset({"1"})}) is None

    def test_equal_violation_takes_smaller_sorted_ids(self):
        # {b} and {a, b} are both violated by exactly 1.0
        p = {"a": 1.0, "b": 1.0}
        assert separate({"a": 2.0, "b": 0.0}, p, 1).lines == frozenset({"a", "b"})
        # mirrored point: {a} and {a, b} tie, and ["a"] < ["a", "b"]
        assert separate({"a": 0.0, "b": 2.0}, p, 1).lines == frozenset({"a"})


class TestSolveRelaxation:
    def test_two_island(self, two_island):
        sol = solve_relaxation(two_island, crews=2)
        assert sol.objective == pytest.approx(22.0)
        assert sol.completion == pytest.approx({"e1": 2.0, "e2": 1.0})
        assert sol.energization == pytest.approx({"e1": 2.0, "e2": 2.0})

    def test_single_line(self):
        inst = validate(
            {
                "root": "0",
                "crews": 1,
                "nodes": [{"id": "0", "weight": 0}, {"id": "1", "weight": 1}],
                "lines": [
                    {"id": "x", "from": "0", "to": "1", "repair_time": 1, "switch": False}
                ],
            }
        )
        sol = solve_relaxation(inst)
        assert sol.completion["x"] == pytest.approx(1.0)
        assert sol.objective == pytest.approx(1.0)

    def test_fork_against_full_cut_enumeration(self, fork):
        # independent oracle: the same LP with every subset cut added up front
        islands = partition_islands(fork)
        prec = build_precedence_graph(fork, islands)
        from gridrepair.lp import _base_model

        p = fork.repair_times()
        model = _base_model(fork, islands, prec)
        for r in range(1, 4):
            for subset in itertools.combinations(sorted(p), r):
                cut = Cut.for_subset(subset, p, 2)
                row = np.zeros(len(model.variables))
                for lid in subset:
                    row[model.variables.index(f"C[{lid}]")] = p[lid]
                model.add_row(row, cut.rhs)
        full = simplex_solve(model)
        sol = solve_relaxation(fork, crews=2)
        assert sol.objective == pytest.approx(full.objective, abs=1e-9)
        assert sol.objective == pytest.approx(20.0)
        assert sol.completion == pytest.approx({"a": 1.0, "b": 2.0, "c": 11.0 / 3.0})

    def test_fork_binding_cut_present(self, fork):
        sol = solve_relaxation(fork, crews=2)
        assert frozenset({"a", "b", "c"}) in {cut.lines for cut in sol.cuts}
        triple = load_rhs([1.0, 2.0, 3.0], 2)
        assert triple == pytest.approx(16.0)

    def test_objective_history_monotone(self, fork, feeder123):
        for inst, m in ((fork, 2), (feeder123, 3)):
            sol = solve_relaxation(inst, crews=m)
            for earlier, later in zip(sol.objective_history, sol.objective_history[1:]):
                assert later >= earlier - 1e-9


class TestMidpoints:
    def test_two_island(self, two_island):
        sol = solve_relaxation(two_island, crews=2)
        assert sol.midpoints == pytest.approx({"e1": 1.0, "e2": 0.5})

    def test_fork(self, fork):
        sol = solve_relaxation(fork, crews=2)
        assert sol.midpoints == pytest.approx(
            {"a": 0.5, "b": 1.0, "c": 13.0 / 6.0}
        )

    def test_zero_time_line_midpoint_is_completion(self):
        inst = validate(
            {
                "root": "0",
                "crews": 1,
                "nodes": [
                    {"id": "0", "weight": 0},
                    {"id": "1", "weight": 1},
                    {"id": "2", "weight": 1},
                ],
                "lines": [
                    {"id": "x", "from": "0", "to": "1", "repair_time": 0, "switch": False},
                    {"id": "y", "from": "1", "to": "2", "repair_time": 3, "switch": False},
                ],
            }
        )
        sol = solve_relaxation(inst)
        assert sol.midpoints["x"] == pytest.approx(sol.completion["x"])

    def test_midpoint_form_of_pooled_cuts(self, fork):
        sol = solve_relaxation(fork, crews=2)
        p = fork.repair_times()
        mids = lp_midpoints(sol, p)
        for cut in sol.cuts:
            lhs = sum(p[j] * mids[j] for j in cut.lines)
            total = sum(p[j] for j in cut.lines)
            assert lhs >= total * total / 4.0 - 1e-9


def random_separation_vector(rng, n):
    p = {f"l{k}": float(rng.randint(0, 10)) for k in range(n)}
    c = {lid: rng.randint(0, 60) / 4.0 for lid in p}
    return c, p


@given(st.integers(0, 2**31 - 1), st.integers(1, 10), st.sampled_from([1, 2, 3]))
@settings(max_examples=150, deadline=None)
def test_separation_verdict_matches_enumeration(seed, n, m):
    rng = random.Random(seed)
    c, p = random_separation_vector(rng, n)
    if all(v == 0 for v in p.values()):
        return
    truth = oracle.exhaustive_separation(c, p, m)
    cut = separate(c, p, m)
    if cut is None:
        assert truth.violation <= 1e-7
    else:
        violation = cut.rhs - sum(p[j] * c[j] for j in cut.lines)
        assert violation > 1e-7
        assert violation == pytest.approx(truth.violation, abs=1e-9)


@given(instances(max_nodes=13), st.sampled_from([1, 2, 3]))
@settings(max_examples=50, deadline=None)
def test_solution_satisfies_every_subset_inequality(inst, m):
    sol = solve_relaxation(inst, crews=m)
    p = inst.repair_times()
    if all(v == 0 for v in p.values()):
        return
    worst = oracle.exhaustive_separation(sol.completion, p, m)
    assert worst.violation <= 1e-6
