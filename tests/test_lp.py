import copy
import functools
import heapq
import math
import os
import random
import sys
import textwrap
from fractions import Fraction
from pathlib import Path
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import numpy as np

from gridrepair import algos, lp, oracle, seq_opt
from gridrepair import schedule as sched
from gridrepair.harness import (GenParams, bench_instance, generate_random, load_instance,
                               random_raw)
from gridrepair.lp import (
    Cut,
    Infeasible,
    LpModel,
    Unbounded,
    _most_violated,
    _new_highs,
    separate,
    simplex_solve,
    solve_relaxation,
)
from gridrepair.model import ValidationError, build_precedence_graph, partition_islands, validate

from conftest import (
    FIXTURES,
    _canonical_pass,
    all_subset_relaxation,
    exact_dual_bound,
    exhaustive_separation,
    instance_to_json,
    instances,
    island_all_subset_relaxation,
    load_rhs,
    mixed_magnitude_feeder,
    small_mixed_magnitude_feeder,
    path_raw,
    presolve_on,
    reference_full_space_relaxation,
    reference_most_violated,
    reference_solve_highs,
    reference_solve_linprog,
    row_scale,
    run_fresh,
    two_order_most_violated,
    violation,
)


ROUND_CASES = [(f.name, m) for f in sorted(FIXTURES.glob("*.json")) for m in (1, 2, 3)] + [
    (f"gen-{seed}", 3) for seed in (1, 2, 3)
]


# every fixture at m = 1, 2, 3 and the three 60-line feeders of tests/golden.json
POOL_CASES = [(f.name, m) for f in sorted(FIXTURES.glob("*.json")) for m in (1, 2, 3)] + [
    (f"golden-{seed}", 3) for seed in (1, 2, 3)
]


def case_instance(name):
    """A fixture, a generated 50-line feeder (`gen-<seed>`), one of the
    generated 60-line feeders `tests/golden.json` pins (`golden-<seed>`) or
    the generated feeder of ROADMAP.md's tables (`lines-<n>`)."""
    if name.startswith("lines-"):
        return generated_feeder(int(name[6:]))
    if name.startswith("gen-"):
        return generate_random(GenParams(seed=int(name[4:]), nodes=(51, 51),
                                         switch_probability=0.1, repair_time=(1, 10)))
    if name.startswith("golden-"):  # as tests/test_golden.py generates them
        return generate_random(GenParams(seed=int(name[7:]), nodes=(61, 61),
                                         switch_probability=0.1, repair_time=(1, 10),
                                         crews=(3,)))
    return load_instance(FIXTURES / name)


def generated_feeder(lines):
    """`GenParams(seed=7)` with `lines` lines, 10 % switches, times 1 to 10, m = 3."""
    return generate_random(GenParams(seed=7, nodes=(lines + 1, lines + 1), switch_probability=0.1,
                                     repair_time=(1, 10), crews=(3,)))


def first_rows(sol):
    """The base rows of a relaxation's final model: all but its last
    len(sol.cuts) rows, the load cuts."""
    model, k = sol.model, len(sol.model.rhs) - len(sol.cuts)
    return LpModel(model.variables, model.objective, model.lower, start=model.start[:k + 1],
                   index=model.index[:model.start[k]], value=model.value[:model.start[k]],
                   rhs=model.rhs[:k])


def seeded_prefixes(inst, m):
    """The line sets of the load cuts `solve_relaxation` may seed beside
    round 1's cut, from their definition: each prefix of the optimal
    single-crew island order that ends at an island boundary, over the lines
    of positive time, and is violated at E-infinity by more than
    SEPARATION_TOLERANCE of its right-hand side and LP_TOLERANCE of its row
    divisor min(1, p(A)); in order, each set once."""
    p, islands = inst.repair_times(), inst.islands
    energization, _ = sched.infinite_crew_energization(islands, inst.precedence, p)
    line_ids = {isl.id: isl.line_ids for isl in islands.islands}
    found, prefix = [], []
    for iid in seq_opt.optimal_island_sequence(islands, inst.precedence):
        added = [lid for lid in line_ids[iid] if p[lid] > 0]
        if not added:
            continue
        prefix += added
        rhs = load_rhs([p[lid] for lid in prefix], m)
        violation = rhs - math.fsum(p[lid] * energization[islands.island_of_line[lid]]
                                    for lid in prefix)
        scale = min(1.0, math.fsum(p[lid] for lid in prefix))
        if violation > max(lp.SEPARATION_TOLERANCE * rhs, lp.LP_TOLERANCE * scale):
            found.append(frozenset(prefix))
    return found


def round_models(monkeypatch, name, m):
    """Every model `solve_relaxation` would solve on a fixture or a generated
    50-line feeder if round 1 were solved: the base rows, which it does not
    solve and which are recorded here explicitly, then the models it solves,
    its later rounds.  Where it solves none, the second model is the
    canonical pass of the base rows (`conftest._canonical_pass`)."""
    inst = case_instance(name)
    models = []

    def record(model, *presolve):
        models.append(copy.deepcopy(model))  # the loop appends to its lists
        return simplex_solve(model, *presolve)

    monkeypatch.setattr(lp, "simplex_solve", record)
    sol = solve_relaxation(inst, crews=m)
    base = first_rows(sol)
    if models:
        models.insert(0, base)
    else:
        _canonical_pass(base, record(base).objective)
    monkeypatch.undo()
    return models


class TestSimplexSolve:
    def test_one_variable_bound(self):
        model = LpModel(variables=["x"], objective=[1.0], lower=[1.0])
        vertex = simplex_solve(model)
        assert vertex.values[0] == pytest.approx(1.0)
        assert vertex.objective == pytest.approx(1.0)

    def test_chained_lower_bounds(self):
        model = LpModel(variables=["C", "E"], objective=[0.0, 1.0], lower=[2.0, 0.0])
        model.add_row([0, 1], [-1.0, 1.0], 0.0)
        vertex = simplex_solve(model)
        assert list(vertex.values) == pytest.approx([2.0, 2.0])

    def test_two_island_base_model(self, two_island):
        # base rows only, no load cuts: E[e1] at its bound, E[e2] at its parent's
        islands = partition_islands(two_island)
        prec = build_precedence_graph(two_island, islands)
        from gridrepair.lp import _base_model

        model = _base_model(two_island, islands, prec)
        assert model.variables == ["E[e1]", "E[e2]"]
        assert model.lower == [2.0, 1.0]
        vertex = simplex_solve(model)
        assert list(vertex.values) == pytest.approx([2.0, 2.0])
        assert vertex.objective == pytest.approx(22.0)

    def test_unbounded_raises(self):
        from gridrepair.lp import Unbounded

        model = LpModel(variables=["x"], objective=[-1.0], lower=[0.0])
        for solve in (simplex_solve, lambda model: reference_solve_linprog(model, False)):
            with pytest.raises(Unbounded):
                solve(model)

    def test_infeasible_raises(self):
        from gridrepair.lp import Infeasible

        model = LpModel(variables=["x"], objective=[1.0], lower=[0.0])
        model.add_row([0], [-1.0], 1.0)  # x <= -1
        for solve in (simplex_solve, lambda model: reference_solve_linprog(model, False)):
            with pytest.raises(Infeasible):
                solve(model)

    @pytest.mark.parametrize("name, m, presolve", [
        pytest.param(name, m, on, id=f"{name}-{m}" + ("-presolve-on" if on else ""))
        for on in (False, True) for name, m in ROUND_CASES])
    def test_direct_path_matches_linprog_on_every_round(self, monkeypatch, name, m, presolve):
        """Presolve on is the setting of `solve_relaxation`'s retries and last loop."""
        models = round_models(monkeypatch, name, m)
        assert len(models) >= 2  # the base rows and the rounds, or their canonical pass
        monkeypatch.setattr(lp, "_shared", (os.getpid(), _new_highs()))
        for model in models:
            direct = simplex_solve(model, presolve)
            reference = reference_solve_linprog(model, presolve)
            assert list(direct.values) == list(reference.values)
            assert direct.objective == reference.objective
            # the same duals, the `<=` rows' marginals negated, so both paths
            # give the same dual bound
            assert list(direct.row_duals) == list(reference.row_duals)
            assert list(direct.reduced_costs) == list(reference.reduced_costs)

    @pytest.mark.parametrize("name, m", ROUND_CASES)
    def test_sparse_rows_give_the_dense_path_matrix(self, monkeypatch, name, m):
        highs = _new_highs()
        models = round_models(monkeypatch, name, m)
        monkeypatch.setattr(lp, "_shared", (os.getpid(), highs))
        for model in models:
            n, k = len(model.variables), len(model.rhs)
            dense = np.zeros((k, n))  # the >= rows, one by one
            for r in range(k):
                s, e = model.start[r], model.start[r + 1]
                dense[r, model.index[s:e]] = model.value[s:e]
            # their CSC arrays, column-major as np.nonzero gives
            columns = dense.T
            col, row = np.nonzero(columns)
            start = np.concatenate(([0], np.cumsum(np.bincount(col, minlength=n))))
            simplex_solve(model)
            held = highs.getLp().a_matrix_  # the matrix HiGHS holds after passModel
            assert [held.start_, held.index_, held.value_] == [
                start.tolist(), row.tolist(), columns[col, row].tolist()]

    def test_reused_instance_solves_cold(self, monkeypatch):
        highs = _new_highs()
        models = round_models(monkeypatch, "feeder123.json", 3)
        a, b = models[0], models[-1]  # the base rows and the last round

        def solve(model, on):
            monkeypatch.setattr(lp, "_shared", (os.getpid(), on))
            vertex = simplex_solve(model)
            return list(vertex.values), vertex.objective, on.getInfo().simplex_iteration_count

        fresh = solve(a, _new_highs())
        first, _, again, twice = solve(a, highs), solve(b, highs), solve(a, highs), solve(a, highs)
        assert first == fresh
        assert again == fresh
        assert twice == fresh  # a kept basis would take no iterations here

    @pytest.mark.parametrize("name, m", POOL_CASES)
    def test_pass_matches_the_reference_pass(self, monkeypatch, name, m):
        """The solve, and the LP HiGHS holds after it, equal those of the pass
        that sets `col_cost_` from Python, on every round."""
        ours, theirs = _new_highs(), _new_highs()
        models = round_models(monkeypatch, name, m)
        monkeypatch.setattr(lp, "_shared", (os.getpid(), ours))
        for model in models:
            assert simplex_solve(model) == reference_solve_highs(model, theirs)
            assert held_lp(ours) == held_lp(theirs)

    @pytest.mark.parametrize("failure", [Infeasible, Unbounded])
    def test_shared_instance_after_a_failed_solve(self, monkeypatch, feeder123, failure):
        def relax():
            sol = solve_relaxation(feeder123, crews=3)
            return (sol.completion, sol.energization, sol.objective, sol.objective_history,
                    sol.iterations, lp._shared_highs().getInfo().simplex_iteration_count)

        monkeypatch.setattr(lp, "_shared", (os.getpid(), _new_highs()))
        fresh = relax()
        monkeypatch.undo()
        model = LpModel(variables=["x"], objective=[1.0], lower=[0.0])
        if failure is Infeasible:
            model.add_row([0], [-1.0], 1.0)  # x <= -1
        else:
            model.objective = [-1.0]
        with pytest.raises(failure):
            simplex_solve(model)  # on the shared instance
        assert relax() == fresh


def held_lp(highs) -> tuple:
    """The LP `highs` holds: sizes, sense, matrix, and every float vector as
    `float.hex` strings, so costs and bounds compare bit for bit."""
    held = highs.getLp()
    matrix = held.a_matrix_
    vectors = (held.col_cost_, held.col_lower_, held.col_upper_, held.row_lower_,
               held.row_upper_, matrix.value_)
    return (held.num_col_, held.num_row_, held.sense_, held.offset_, matrix.format_,
            list(matrix.start_), list(matrix.index_),
            [[float(v).hex() for v in vector] for vector in vectors])


def test_model_needs_no_numpy():
    """Building, extending and rendering a model load no NumPy; only a solve does."""
    proc = run_fresh(f"""
        import sys
        from gridrepair import harness, lp
        inst = harness.load_instance({str(FIXTURES / "feeder123.json")!r})
        model = lp._base_model(inst, inst.islands, inst.precedence)
        model.add_row([0, 1], [2.0, 3.0], 4.0)
        assert "load cut on {{x}}" in lp.format_model(model, [lp.Cut(frozenset("x"), 4.0)])
        assert "numpy" not in sys.modules
    """)
    assert proc.returncode == 0, proc.stderr


def test_cached_zero_cost_lp_keeps_no_rows():
    """Once `passModel` has copied a model, the cached `HighsLp` of its column
    count holds no rows, so a long-lived process keeps no matrix per column count."""
    inst = generate_random(GenParams(seed=7, nodes=(201, 201), switch_probability=0.1,
                                     repair_time=(1, 10), crews=(3,)))
    sol = solve_relaxation(inst)
    cached = lp._zero_cost_lps[len(sol.model.variables)]
    matrix = cached.a_matrix_
    assert len(sol.model.rhs) > 40 and len(cached.col_lower_) == len(sol.model.variables)
    assert cached.num_row_ == matrix.num_row_ == 0
    assert list(matrix.start_) == [0] and len(matrix.index_) == len(matrix.value_) == 0
    assert len(cached.row_lower_) == len(cached.row_upper_) == 0


def presolve(highs) -> str:
    status, value = highs.getOptionValue("presolve")
    return value


def answer(sol) -> tuple:
    """Every field of an `LpSolution`, floats by `repr`, so -0.0 differs from 0.0."""
    return (repr(sol.completion), repr(sol.energization), repr(sol.midpoints),
            repr(sol.objective), repr(sol.objective_history), sol.cuts, repr(sol.model))


def spy_dual_bound(monkeypatch, gaps):
    """Record in `gaps`, for each loop `solve_relaxation` judges, how far its
    objective UB lies above `lp._dual_bound`, and UB."""
    bound = lp._dual_bound

    def spy(model, vertex, caps):
        gaps.append((vertex.objective - bound(model, vertex, caps), vertex.objective))
        return vertex.objective - gaps[-1][0]

    monkeypatch.setattr(lp, "_dual_bound", spy)


def unseeded(monkeypatch):
    """Make `solve_relaxation` add one cut per round in every loop, as its
    reruns do: round 1 gets no seeds."""
    monkeypatch.setattr(lp, "_single_crew_prefixes", lambda *args: ())


def seeded(sol) -> bool:
    """Whether round 1 of the relaxation `sol` seeded a cut beside its own."""
    return len(sol.cuts) > sol.iterations - 1


class TestPresolveFallback:
    """`solve_relaxation` runs its first loop, seeded where round 1 has seeds,
    with HiGHS presolve off, and solves a solve of it that fails once more, in
    place, with presolve on, HiGHS's default.  Where that fails too, or the
    loop ends off its optimum, the loop of one cut per round runs with
    presolve on and gives the answer or the error."""

    CASES = [("fork.json", 2), ("feeder123.json", 3), ("golden-5", 3), ("golden-6", 3)]
    # presolve moves its answer, so the unseeded loops with presolve off and on differ
    MOVED = {"golden-6"}
    # the calls of the two mixed-magnitude sweeps, all at m = 1, where a solve
    # of the first loop fails with presolve off and its retry solves, so that
    # the loop answers alone
    RESCUED = [("item-7", seed) for seed in (
        135, 456, 646, 983, 1486, 1537, 1563, 2307, 3116, 3184, 3759, 3868, 3959, 4338, 4542,
        4637, 5023, 5048, 5174, 5224, 5249, 5370, 5445, 5875)] + [
        ("2-20-nodes", seed) for seed in (1343, 2698, 5212, 8548)]

    @staticmethod
    def relax(monkeypatch, inst, m, fail_at=(), on_at=(), seeds=True, on=False):
        """`solve_relaxation`, and per loop (`lp._base_model` call) the presolve
        setting each of its solves ran with.  The solves numbered in `fail_at`
        raise; those in `on_at`, and with `on` every solve, run with presolve
        on, whatever the loop asked for."""
        if not seeds:
            unseeded(monkeypatch)
        seen, base = [], lp._base_model

        def loop(*args):
            seen.append([])
            return base(*args)

        def record(model, presolve=False):
            k = sum(map(len, seen)) + 1
            presolve = presolve or on or k in on_at
            seen[-1].append("on" if presolve else "off")
            if k in fail_at:
                raise lp.Infeasible(f"stand-in for HiGHS failing with presolve {seen[-1][-1]}")
            return simplex_solve(model, presolve)

        monkeypatch.setattr(lp, "_base_model", loop)
        monkeypatch.setattr(lp, "simplex_solve", record)
        sol = solve_relaxation(inst, crews=m)
        monkeypatch.undo()
        return sol, seen

    @pytest.mark.parametrize("at", ["first", "last"])
    @pytest.mark.parametrize("name, m", CASES)
    def test_a_failed_loop_gives_the_presolve_on_answer(self, monkeypatch, name, m, at):
        """Where the first or the last solve of the first loop fails with
        presolve off, it is solved again on the same model with presolve on,
        and the loop goes on with its cuts and presolve off: the answer is the
        loop's with that one solve run with presolve on."""
        inst = case_instance(name)
        first, (first_seen,) = self.relax(monkeypatch, inst, m)
        assert first_seen == ["off"] * len(first_seen)
        k = 1 if at == "first" else len(first_seen)
        want, (want_seen,) = self.relax(monkeypatch, inst, m, on_at={k})
        got, (seen,) = self.relax(monkeypatch, inst, m, fail_at={k})
        assert want_seen[k - 1] == "on" and want_seen.count("on") == 1
        assert seen == want_seen[:k - 1] + ["off"] + want_seen[k - 1:]
        assert answer(got) == answer(want)
        assert seeded(got) == seeded(first)

    @pytest.mark.parametrize("at", ["first", "last"])
    @pytest.mark.parametrize("name, m", CASES[1:])
    def test_a_failed_seeded_loop_gives_the_unseeded_answer(self, monkeypatch, name, m, at):
        """Where a solve of the seeded loop fails with presolve off and again
        with presolve on, the loop of one cut per round runs with presolve on,
        and its answer is the call's: no loop runs with presolve off after it,
        and on golden-6 the loop of one cut per round with presolve off would
        answer otherwise."""
        inst = case_instance(name)
        want, (want_seen,) = self.relax(monkeypatch, inst, m, seeds=False, on=True)
        off, _ = self.relax(monkeypatch, inst, m, seeds=False)
        assert (answer(off) != answer(want)) == (name in self.MOVED)
        first, (first_seen,) = self.relax(monkeypatch, inst, m)
        assert seeded(first) and answer(first) != answer(want)
        k = 1 if at == "first" else len(first_seen)
        got, seen = self.relax(monkeypatch, inst, m, fail_at={k, k + 1})
        assert seen == [first_seen[:k] + ["on"], want_seen] and set(want_seen) == {"on"}
        assert answer(got) == answer(want)

    @pytest.mark.parametrize("failure", [Infeasible, lp.IterationLimit])
    def test_presolve_is_off_after_the_rerun_fails_too(self, monkeypatch, feeder123, failure):
        """Where every solve fails, after HiGHS ran it: the first loop's first
        solve, its retry and the presolve-on loop's first solve run, and the
        last error is the call's.  The next call solves with presolve off, as
        on a fresh instance."""
        monkeypatch.setattr(lp, "_shared", (os.getpid(), _new_highs()))
        fresh = solve_relaxation(feeder123, crews=3)
        monkeypatch.setattr(lp, "_shared", (os.getpid(), _new_highs()))
        solve, seen = lp.simplex_solve, []

        def fail(model, presolve=False):
            seen.append("on" if presolve else "off")
            solve(model, presolve)
            raise failure(f"stand-in for a failure with presolve {seen[-1]}")

        with monkeypatch.context() as patch:
            patch.setattr(lp, "simplex_solve", fail)
            with pytest.raises(failure, match="with presolve on"):
                solve_relaxation(feeder123, crews=3)
        assert seen == ["off", "on", "on"] and presolve(lp._shared_highs()) == "on"
        assert answer(solve_relaxation(feeder123, crews=3)) == answer(fresh)
        assert presolve(lp._shared_highs()) == "off"

    @pytest.mark.parametrize("name, m", CASES)
    def test_a_vertex_off_its_optimum_reruns(self, monkeypatch, name, m):
        """Every presolve-off vertex is moved up by 1 in each column, off every
        bound and tight row its duals name: the first loop, seeded where it
        has seeds, ends above its dual bound by about a unit per unit of
        weight, and the loop of one cut per round runs with presolve on."""
        inst = case_instance(name)
        want, (on_seen,) = self.relax(monkeypatch, inst, m, seeds=False, on=True)
        assert on_seen  # a solved round

        def shifted(model, presolve=False):
            vertex = simplex_solve(model, presolve)
            if presolve:
                return vertex
            moved = [v + 1.0 for v in vertex.values]
            objective = math.fsum(w * v for w, v in zip(model.objective, moved))
            return vertex._replace(values=moved, objective=objective)

        gaps = []
        monkeypatch.setattr(lp, "simplex_solve", shifted)
        spy_dual_bound(monkeypatch, gaps)
        got = solve_relaxation(inst, crews=m)
        monkeypatch.undo()
        weight = sum(inst.islands.weights.values())
        assert len(gaps) == 1 and 0.5 * weight < gaps[0][0] < 2 * weight
        assert answer(got) == answer(want)

    @pytest.mark.parametrize("name, m", CASES)
    @pytest.mark.parametrize("perturb", ["dual", "column"])
    def test_a_perturbed_dual_is_rejected(self, monkeypatch, name, m, perturb):
        """Each presolve-off vertex keeps its values and objective, but the
        dual of its most priced load cut is scaled up by 1.5 (where it has
        one: a round's vertex may price no cut), or raised until
        every column on that cut prices below 0, so that the bound takes
        those columns at their caps instead of their lower bounds.  The first
        loop ends above its bound by more than GAP_TOLERANCE, and the loop of
        one cut per round runs with presolve on."""
        inst = case_instance(name)
        want, _ = self.relax(monkeypatch, inst, m, seeds=False, on=True)

        def perturbed(model, presolve=False):
            vertex = simplex_solve(model, presolve)
            if presolve:
                return vertex
            duals = list(vertex.row_duals)
            k = max((k for k, b in enumerate(model.rhs) if b > 0), key=duals.__getitem__)
            if perturb == "dual":  # a priced `>=` row's dual is positive
                duals[k] *= 1.5
            else:  # each column's price falls by at least twice the largest weight
                least = min(model.value[model.start[k]:model.start[k + 1]])
                duals[k] += 2.0 * max(model.objective) / least
            return vertex._replace(row_duals=duals)

        gaps = []
        monkeypatch.setattr(lp, "simplex_solve", perturbed)
        spy_dual_bound(monkeypatch, gaps)
        got = solve_relaxation(inst, crews=m)
        monkeypatch.undo()
        assert len(gaps) == 1
        assert all(gap > lp.GAP_TOLERANCE * max(1.0, abs(ub)) for gap, ub in gaps)
        assert answer(got) == answer(want)

    def test_the_cut_pool_limit_does_not_rerun(self, monkeypatch, fork):
        """A loop that outgrows its cut pool fails at once, with presolve off:
        a rerun would not stop it sooner.  Round 1's seeds count against the
        pool, so the loop makes that many solves fewer."""
        monkeypatch.setattr(lp, "_shared", (os.getpid(), _new_highs()))
        sizes, seen = iter(range(1, 10**6)), []

        def endless(completions, times, m, pooled):
            return (0,) * next(sizes), 0.0, 1.0  # a new subset each round, always met

        def record(model, presolve=False):
            seen.append("on" if presolve else "off")
            return simplex_solve(model, presolve)

        monkeypatch.setattr(lp, "_most_violated", endless)
        monkeypatch.setattr(lp, "simplex_solve", record)
        with pytest.raises(lp.CutPoolLimit, match="cut pool exceeded"):
            solve_relaxation(fork, crews=2)
        seeds = seeded_prefixes(fork, 2)
        assert seeds and seen == ["off"] * (10 * len(fork.repair_times()) ** 2 - len(seeds))
        assert presolve(lp._shared_highs()) == "off"

    @pytest.mark.parametrize("seed", [4034, 5134, 9185, 13155])
    def test_mixed_magnitude_feeders_end_at_the_optimum(self, monkeypatch, seed):
        """Feeders of a mixed-magnitude sweep where, at m = 1, the presolve-off
        loop ends above its model's optimum, and on 4034, 9185 and 13155
        above the brute-force optimum: HiGHS holds a row tight that its
        primal values leave slack.  The dual bound rejects it, the loop of one
        cut per round runs with presolve on, and its answer passes every
        certificate of `bench_instance`."""
        inst = mixed_magnitude_feeder(seed)
        got = solve_relaxation(inst, crews=1)
        with monkeypatch.context() as patch, presolve_on():
            unseeded(patch)
            want = solve_relaxation(inst, crews=1)
        assert answer(got) == answer(want)
        monkeypatch.setattr(lp, "GAP_TOLERANCE", math.inf)  # no rerun
        assert solve_relaxation(inst, crews=1).objective > got.objective
        monkeypatch.undo()

        assert got.objective <= oracle.brute_force_optimal(inst, 1).harm + 1e-6
        optimum = all_subset_relaxation(inst, 1)
        weight = sum(inst.islands.weights.values())
        assert got.objective <= optimum + lp.LP_TOLERANCE * (abs(optimum) + weight)
        bench_instance(f"mixed-{seed}", inst, 1)  # raises if a certificate fails

    def test_a_retry_that_fails_too_falls_back_on_a_small_feeder(self, monkeypatch):
        """Feeder 75 of ROADMAP item 7's sweep, at m = 1: a solve of the
        seeded loop fails with presolve off and again with presolve on, and
        the loop of one cut per round with presolve on solves it, as it did
        before round 1 was seeded."""
        inst = small_mixed_magnitude_feeder(75)
        got, seen = self.relax(monkeypatch, inst, 1)
        assert len(seen) == 2 and seen[0][-2:] == ["off", "on"] and set(seen[1]) == {"on"}
        want, _ = self.relax(monkeypatch, inst, 1, seeds=False, on=True)
        assert answer(got) == answer(want)
        assert got.objective <= oracle.brute_force_optimal(inst, 1).harm + 1e-6

    @pytest.mark.parametrize("sweep, seed", RESCUED)
    def test_a_retry_in_place_rescues_the_first_loop(self, monkeypatch, sweep, seed):
        """Real inputs, not a stand-in failure: a solve of the first loop fails
        with presolve off, its retry with presolve on solves, and the loop
        goes on to an answer in one loop, which passes every certificate of
        `bench_instance` where the oracle reaches."""
        make = small_mixed_magnitude_feeder if sweep == "item-7" else mixed_magnitude_feeder
        inst = make(seed)
        sol, (seen,) = self.relax(monkeypatch, inst, 1)  # one loop, and no LpError
        retries = [k for k, on in enumerate(seen) if on == "on"]
        assert retries and all(seen[k - 1] == "off" for k in retries)
        if damaged_lines(inst) <= oracle.MAX_BRUTE_FORCE_LINES:
            bench_instance(f"{sweep}-{seed}", inst, 1)  # raises if a certificate fails

    @pytest.mark.parametrize("seed, fails", [(3586, True), (5886, False)])
    def test_no_relaxation_above_the_optimum(self, monkeypatch, seed, fails):
        """Feeders of ROADMAP item 7's sweep, at m = 1, on which the unseeded
        loop fails with presolve on.  On 3586 the seeded loop ends 2.0 above
        the optimum with no complementary-slackness gap, but 3.4e-9 of its
        objective above its dual bound: a reduced cost of -2.7e-9 on an E
        near 1e9.  The loop of one cut per round then runs with presolve on
        and fails.  On 5886 the seeded loop solves, below the optimum."""
        inst = small_mixed_magnitude_feeder(seed)
        optimum = oracle.brute_force_optimal(inst, 1).harm
        with monkeypatch.context() as patch, presolve_on():
            unseeded(patch)
            with pytest.raises(lp.LpError):
                solve_relaxation(inst, crews=1)
        with monkeypatch.context() as patch:
            patch.setattr(lp, "GAP_TOLERANCE", math.inf)  # no rerun
            unchecked = solve_relaxation(inst, crews=1).objective
        gaps = []
        with monkeypatch.context() as patch:
            spy_dual_bound(patch, gaps)
            if fails:
                with pytest.raises(lp.LpError):
                    solve_relaxation(inst, crews=1)
            else:
                assert solve_relaxation(inst, crews=1).objective == unchecked <= optimum + 1e-6
        gap, ub = gaps[0]  # the seeded loop's
        if fails:
            assert unchecked > optimum + 1e-6 and ub == unchecked
            assert len(gaps) == 1 and 3e-9 < gap / ub < 4e-9
        else:
            assert gaps == [(gap, unchecked)] and gap <= lp.GAP_TOLERANCE * ub

    def test_a_rerun_loads_no_numpy(self, tmp_path):
        """The one solve of lp-list on feeder123.json fails once, with presolve
        off: its retry runs with presolve on, the instance keeps that setting
        until a solve asks for another, and NumPy stays unloaded."""
        proc = run_fresh(f"""
            import sys
            from gridrepair import cli, lp
            solve, seen = lp.simplex_solve, []
            def fail_once(model, presolve=False):
                seen.append(presolve)
                if len(seen) == 1:
                    raise lp.LpError("stand-in for HiGHS failing with presolve off")
                return solve(model, presolve)
            lp.simplex_solve = fail_once
            assert cli.main(["schedule", {str(FIXTURES / "feeder123.json")!r}, "--alg",
                             "lp-list", "--crews", "3", "--out", {str(tmp_path / "o.json")!r}]) == 0
            assert seen == [False, True]
            assert lp._shared_highs().getOptionValue("presolve")[1] == "on"
            assert "numpy" not in sys.modules
        """)
        assert proc.returncode == 0, proc.stderr


def heavy_feeder(seed, largest):
    """`GenParams(seed=seed, nodes=(3, 9), repair_time=(1, 10))` with its node
    weights scaled so that the largest is `largest`."""
    raw = random_raw(GenParams(seed=seed, nodes=(3, 9), repair_time=(1, 10)))
    top = max(node["weight"] for node in raw["nodes"])
    for node in raw["nodes"]:
        node["weight"] *= largest / top
    return validate(raw)


class TestHeavyWeights:
    """HiGHS's dual simplex can end "Not Set" on costs of about 1e8 or more
    ("excessively large costs"), with presolve off and on, so a presolve-on
    solve divides the costs by a power of two to below 2^20."""

    def test_only_a_presolve_on_solve_scales_the_costs(self, monkeypatch):
        """The last round of feeder123.json at m = 3, its weights scaled by
        powers of two to a largest of 2^19 to 2^20 (`light`, which no solve
        scales) and 2^30 times those (`heavy`).  With presolve on, HiGHS holds
        light's costs for heavy and gives light's vertex, with objective and
        duals 2^30 times light's; with presolve off, it holds heavy's costs."""
        model = round_models(monkeypatch, "feeder123.json", 3)[-1]
        top = math.frexp(max(model.objective))[1]
        light, heavy = (LpModel(model.variables, [math.ldexp(w, shift - top)
                                                  for w in model.objective],
                                model.lower, model.start, model.index, model.value, model.rhs)
                        for shift in (20, 50))
        highs = _new_highs()
        monkeypatch.setattr(lp, "_shared", (os.getpid(), highs))
        want = simplex_solve(light, True)
        got = simplex_solve(heavy, True)
        assert list(highs.getLp().col_cost_) == light.objective
        assert got.values == want.values and got.objective == math.ldexp(want.objective, 30)
        for ours, theirs in ((got.row_duals, want.row_duals),
                             (got.reduced_costs, want.reduced_costs)):
            assert list(ours) == [math.ldexp(d, 30) for d in theirs]
        try:
            simplex_solve(heavy)
        except lp.LpError:  # HiGHS may fail on them: the retry scales them
            pass
        assert list(highs.getLp().col_cost_) == heavy.objective

    @pytest.mark.parametrize("largest", [1e8, 1e9, 1e10, 1e11, 1e12, 1e13])
    def test_a_heavy_weight_sweep_certifies(self, largest):
        """Seeds 0-299 at m = 1-3: with the costs unscaled, 3 to 31 of each
        900 calls raised LpError, HiGHS ending "Not Set" with presolve off
        and on."""
        for seed in range(300):
            inst = heavy_feeder(seed, largest)
            for m in (1, 2, 3):
                bench_instance(f"gen-{seed}", inst, m)  # raises if a certificate fails

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_a_heavy_zero_time_island_certifies(self, m):
        """An island of one line of time 0 weighing 5e14, among weights of 2
        to 10, every line a switch.  Scaling the presolve-off solves too, by
        2^29, took the weights of 2 to 10 near HiGHS's 1e-9 dual tolerance:
        at m = 2 the relaxation then exceeded the optimum."""
        weights = {"n0": 4, "n1": 5e14, "n2": 8, "n3": 10, "n4": 5, "n5": 2}
        lines = [("l1", "n0", "n1", 0), ("l2", "n1", "n2", 4), ("l3", "n1", "n3", 9),
                 ("l4", "n0", "n4", 10), ("l5", "n3", "n5", 5)]
        inst = validate({
            "root": "n0", "crews": m,
            "nodes": [{"id": nid, "weight": w} for nid, w in weights.items()],
            "lines": [{"id": lid, "from": u, "to": v, "repair_time": t, "switch": True}
                      for lid, u, v, t in lines]})
        bench_instance("heavy-zero-time-island", inst, m)  # raises if a certificate fails


def test_the_benchmarked_inputs_never_solve_with_presolve_on(monkeypatch):
    """No solve fails and no loop ends off its optimum on the bench corpus
    (`gridrepair bench --seed 0 --count 200`, m = 2, 3) or on the generated
    60-line feeders golden-1 to golden-6, so none runs with presolve on: the
    retry and the presolve-on loop cannot move their answers."""
    solve, asked = lp.simplex_solve, []

    def record(model, presolve=False):
        asked.append(presolve)
        return solve(model, presolve)

    monkeypatch.setattr(lp, "simplex_solve", record)
    for seed in range(200):
        inst = generate_random(GenParams(seed=seed))
        for m in (2, 3):
            solve_relaxation(inst, crews=m)
    for seed in range(1, 7):
        solve_relaxation(case_instance(f"golden-{seed}"), crews=3)
    assert len(asked) > 200 and not any(asked)


# prints the relaxation's answers on two fixtures, every float by `repr`
RELAXATION_ANSWERS = textwrap.dedent(f"""
    from gridrepair import harness, lp
    for name, m in [("fork.json", 2), ("feeder123.json", 3)]:
        sol = lp.solve_relaxation(harness.load_instance({str(FIXTURES)!r} + "/" + name), crews=m)
        print(repr((sol.completion, sol.objective_history, [sorted(c.lines) for c in sol.cuts],
                    sol.model)))
""")

# run after a patch that keeps `lp._binding` from loading the extension file
# itself: it imports the module the standard way, the one SciPy's own import gives
STANDARD_IMPORT = textwrap.dedent("""
    import sys
    from gridrepair import lp
    core = lp._binding()
    assert "scipy.optimize" in sys.modules
    from scipy.optimize._highspy import _core
    assert _core is core and lp._binding() is core
""")


@functools.cache
def fast_load_answers() -> str:
    """`RELAXATION_ANSWERS` as printed where the extension file is loaded on its own."""
    proc = run_fresh(RELAXATION_ANSWERS)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestDualBound:
    """The safe dual bound `lp._dual_bound` that accepts a loop, and the box
    `lp._caps` it is taken in (the `lp` module docstring)."""

    @staticmethod
    def bounds(monkeypatch, inst, m):
        """Each (model, vertex, caps, float bound) that `solve_relaxation`
        judges a loop by."""
        seen, bound = [], lp._dual_bound

        def spy(model, vertex, caps):
            seen.append((model, vertex, caps, bound(model, vertex, caps)))
            return seen[-1][-1]

        with monkeypatch.context() as patch:
            patch.setattr(lp, "_dual_bound", spy)
            try:
                solve_relaxation(inst, crews=m)
            except lp.LpError:  # a rung that failed still judged the loops before it
                pass
        return seen

    @staticmethod
    def caps(inst, m):
        p = inst.repair_times()
        order = seq_opt.optimal_island_sequence(inst.islands, inst.precedence)
        return lp._caps(order, inst.islands, inst.precedence, inst.infinite_crew_energization[0],
                        m, [p[lid] for lid in sorted(p) if p[lid] > 0])

    @pytest.mark.parametrize("name", sorted(f.name for f in FIXTURES.glob("*.json")))
    def test_the_float_bound_is_below_the_exact_one_on_the_fixtures(self, monkeypatch, name):
        inst, checked = case_instance(name), 0
        for m in range(1, 6):
            for model, vertex, caps, bound in self.bounds(monkeypatch, inst, m):
                exact = exact_dual_bound(model, vertex, caps)
                assert bound <= exact
                # the allowance is a few units in the last place of the objective
                assert exact - Fraction(bound) <= 1e-14 * abs(vertex.objective)
                # and the loop is accepted: HiGHS gives a priced `>=` row a dual <= 0
                ub = vertex.objective
                assert ub - bound <= lp.GAP_TOLERANCE * max(1.0, abs(ub))
                checked += 1
        assert checked >= 1

    def test_the_float_bound_is_below_the_exact_one_on_mixed_magnitudes(self, monkeypatch):
        """ROADMAP item 7's sweep, seeds 0-599 at m = 1..5: times from 1e-6
        to 1e12.  Its loops that solve are nearly all at m = 1 and 2."""
        checked = 0
        for seed in range(600):
            try:
                inst = small_mixed_magnitude_feeder(seed)
            except ValidationError:
                continue
            for m in range(1, 6):
                try:
                    seen = self.bounds(monkeypatch, inst, m)
                except ValidationError:  # beyond HiGHS's limits
                    continue
                for model, vertex, caps, bound in seen:
                    assert bound <= exact_dual_bound(model, vertex, caps), (seed, m)
                    checked += 1
        assert checked >= 350

    def test_the_caps_keep_the_all_subset_optimum(self):
        """The island LP with every load cut a row has the same optimum with
        E <= `lp._caps` as without, on ROADMAP item 7's feeders, seeds 0-199,
        at m = 1 and 2, as they are and with every weight but the root's 0,
        so that every other island is free.  A feeder whose cuts reach
        HiGHS's limits, or whose LP HiGHS fails on without caps, is left out."""
        compared = free = 0
        for seed in range(200):
            try:
                inst = small_mixed_magnitude_feeder(seed)
            except ValidationError:
                continue
            raw = instance_to_json(inst)
            for node in raw["nodes"]:
                node["weight"] = 1.0 if node["id"] == raw["root"] else 0.0
            for variant in (inst, validate(raw)):
                p = variant.repair_times()
                if load_rhs(p.values(), 1) >= 1e20:
                    continue
                for m in (1, 2):
                    try:
                        want = island_all_subset_relaxation(variant, m)
                    except lp.LpError:
                        continue
                    got = island_all_subset_relaxation(variant, m, self.caps(variant, m))
                    assert got == pytest.approx(want, rel=1e-15, abs=1e-15), (seed, m)
                    compared += 1
                    free += 0.0 in variant.islands.weights.values()
        assert compared >= 500 and free >= 300


@pytest.mark.parametrize("sweep, seed", [
    ("item-7", seed) for seed in (264, 733, 1018, 2069, 4883, 5381, 5666)] + [
    ("2-20-nodes", seed) for seed in (1654, 6957)])
def test_no_island_energizes_before_its_parent(sweep, seed):
    """Feeders of the two mixed-magnitude sweeps whose last vertex at m = 1
    breaks a precedence row: on 264, whose E reach 4e7, E[l3] = -0.0 sits
    0.001 below its parent's, which fails the 2x energization bound, and on
    5666 E[l2] = 100 sits 70 below its parent's.  The answer is that vertex
    lifted onto the tree, so every row holds exactly, and every
    certificate of `bench_instance` passes."""
    inst = (small_mixed_magnitude_feeder if sweep == "item-7" else mixed_magnitude_feeder)(seed)
    e = solve_relaxation(inst, crews=1).energization
    for child, parent in inst.precedence.parent.items():
        assert e[child] >= e[parent], (child, parent)
    bench_instance(f"{sweep}-{seed}", inst, 1)  # raises if a certificate fails


class TestBinding:
    """`lp._binding` loads SciPy's HiGHS extension without `scipy.optimize`,
    and imports it the standard way where that fails.  Each case runs in a
    fresh interpreter, since the module is loaded once per process."""

    def test_lp_runs_leave_scipy_optimize_unimported(self, tmp_path):
        fixtures = {f.stem: str(f) for f in FIXTURES.glob("*.json")}
        proc = run_fresh(f"""
            import copy, sys
            from gridrepair import cli, harness, lp
            out = {str(tmp_path / "out.json")!r}
            assert cli.main(["schedule", {fixtures["feeder123"]!r}, "--alg", "lp-list",
                             "--crews", "3", "--out", out]) == 0
            assert "numpy" not in sys.modules
            assert "scipy.optimize" not in sys.modules
            core = sys.modules["scipy.optimize._highspy._core"]
            models = []
            def record(model, *presolve):
                models.append(copy.deepcopy(model))
                return solve(model, *presolve)
            solve, lp.simplex_solve = lp.simplex_solve, record
            harness.bench_instance("fork", harness.load_instance({fixtures["fork"]!r}), 2)
            lp.simplex_solve = solve
            assert models
            assert "scipy.optimize" not in sys.modules
            assert sys.modules["scipy.optimize._highspy._core"] is core

            sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})
            from conftest import reference_solve_linprog
            from scipy.optimize._highspy import _core
            assert _core is core and lp._binding() is core
            for model in models:
                assert reference_solve_linprog(model, False) == lp.simplex_solve(model)
        """)
        assert proc.returncode == 0, proc.stderr

    def test_a_crew_per_damaged_line_loads_neither_binding_nor_numpy(self, tmp_path):
        proc = run_fresh(f"""
            import sys
            from gridrepair import cli
            two_island, fork = {str(FIXTURES / "two_island.json")!r}, {str(FIXTURES / "fork.json")!r}
            out = {str(tmp_path / "out.json")!r}
            for command in (["schedule", two_island, "--alg", "lp-list"], ["oracle", two_island]):
                assert cli.main([*command, "--crews", "2", "--out", out]) == 0
            assert "scipy.optimize._highspy._core" not in sys.modules
            assert "numpy" not in sys.modules
            # fork has three damaged lines: two crews still solve
            assert cli.main(["schedule", fork, "--alg", "lp-list", "--crews", "2", "--out", out]) == 0
            assert "scipy.optimize._highspy._core" in sys.modules
        """)
        assert proc.returncode == 0, proc.stderr

    def test_scipy_optimize_imported_first(self):
        proc = run_fresh("""
            import importlib.machinery, importlib.util
            import scipy.optimize
            from scipy.optimize._highspy import _core
            from gridrepair import lp
            assert lp._binding() is _core
            def refuse(*args, **kwargs):
                raise AssertionError("a second call loaded something")
            importlib.util.find_spec = importlib.machinery.ExtensionFileLoader = refuse
            assert lp._binding() is _core
        """)
        assert proc.returncode == 0, proc.stderr

    def test_loaded_once(self):
        proc = run_fresh("""
            import importlib.machinery, sys
            loads = []
            class Counting(importlib.machinery.ExtensionFileLoader):
                def exec_module(self, module):
                    loads.append(self.name)
                    super().exec_module(module)
            importlib.machinery.ExtensionFileLoader = Counting  # for lp alone
            from gridrepair import lp
            core = lp._binding()
            assert core is not None and lp._binding() is core
            assert loads == ["scipy.optimize._highspy._core"]
            assert sys.modules["scipy.optimize._highspy._core"] is core
            assert core.__spec__.parent == "scipy.optimize._highspy"
        """)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("missing", [
        "importlib.machinery.EXTENSION_SUFFIXES = []",
        "importlib.util.find_spec = lambda name, *a: None if name == 'scipy' else find_spec(name, *a)",
    ], ids=["no-suffix", "no-scipy-spec"])
    def test_extension_not_found_falls_back(self, missing):
        proc = run_fresh(textwrap.dedent(f"""
            import importlib.machinery, importlib.util
            find_spec = importlib.util.find_spec
            {missing}
        """) + STANDARD_IMPORT + RELAXATION_ANSWERS)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == fast_load_answers()

    def test_import_error_falls_back(self):
        proc = run_fresh(textwrap.dedent("""
            import importlib.abc, importlib.machinery  # abc registers the real loader class
            class Broken(importlib.machinery.ExtensionFileLoader):
                def exec_module(self, module):
                    raise ImportError("stand-in for a broken extension")
            importlib.machinery.ExtensionFileLoader = Broken  # SciPy's own import keeps the real one
        """) + STANDARD_IMPORT + RELAXATION_ANSWERS)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == fast_load_answers()

    @pytest.mark.parametrize("hidden", ["scipy.optimize._highspy._core", "scipy.optimize._highspy"],
                             ids=["no-core", "no-highspy"])
    def test_a_scipy_without_the_binding_fails_loudly(self, hidden):
        """Where the binding cannot be imported at all, nor its package as in
        a SciPy before it had one, lp-list raises an ImportError that names
        it: none of the CLI's exit codes, and no other solver."""
        proc = run_fresh(f"""
            import importlib.machinery, sys
            from gridrepair import cli
            importlib.machinery.EXTENSION_SUFFIXES = []  # the file is not found
            class Hide:
                def find_spec(self, name, path=None, target=None):
                    if name == {hidden!r}:
                        raise ModuleNotFoundError(f"No module named {{name!r}}", name=name)
            sys.meta_path.insert(0, Hide())
            sys.exit(cli.main(["schedule", {str(FIXTURES / "fork.json")!r},
                               "--alg", "lp-list"]))
        """)
        assert proc.returncode not in (0, 2, 3)
        assert ("ImportError: cannot import SciPy's HiGHS binding scipy.optimize._highspy._core"
                in proc.stderr)

    def test_other_load_errors_propagate(self):
        proc = run_fresh(f"""
            import importlib.machinery, sys
            from gridrepair import cli
            class Failing(importlib.machinery.ExtensionFileLoader):
                def exec_module(self, module):
                    raise RuntimeError("stand-in for a failing extension")
            importlib.machinery.ExtensionFileLoader = Failing
            sys.exit(cli.main(["schedule", {str(FIXTURES / "fork.json")!r},
                               "--alg", "lp-list"]))
        """)
        assert proc.returncode not in (0, 2)
        assert "RuntimeError: stand-in for a failing extension" in proc.stderr


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
        # prefixes {0} (violation 0.9) and {0, 1} (violation 2.4), by position
        c, p = [0.1, 0.5], [1.0, 1.0]
        assert _most_violated(c, p, 1, set()) == ((0, 1), load_rhs(p, 1), 1.0)
        subset, rhs, scale = _most_violated(c, p, 1, {(0, 1)})
        assert subset == (0,)
        assert rhs == load_rhs([p[i] for i in subset], 1) == pytest.approx(1.0)

    def test_pooled_only_violated_yields_none(self):
        # {0} is violated by 0.9; {0, 1} holds with slack 2.1
        c, p = [0.1, 5.0], [1.0, 1.0]
        assert _most_violated(c, p, 1, set())[0] == (0,)
        assert _most_violated(c, p, 1, {(0,)}) is None

    def test_tolerance_is_relative_to_the_cut(self):
        # times of 1e-4: the pair's cut, rhs 3e-8, is violated by 2e-9, a fifteenth of it
        p = {"a": 1e-4, "b": 1e-4}
        assert separate({"a": 1.4e-4, "b": 1.4e-4}, p, 1).lines == frozenset({"a", "b"})
        # times of 1e6: rhs 3e12, violated by about 2e-3, a share of 7e-16
        p = {"a": 1e6, "b": 1e6}
        assert separate({"a": 1.5e6 - 1e-9, "b": 1.5e6 - 1e-9}, p, 1) is None
        assert separate({"a": 1.5e6 - 1e-3, "b": 1.5e6 - 1e-3}, p, 1).lines == frozenset(p)

    def test_a_cut_highs_takes_as_met_is_not_separated(self):
        """The pair's cut asks E >= 0.1583003476..., 8.6e-10 above E's bound,
        the longer time: HiGHS takes the row as met at the bound, within its
        1e-9 tolerance, and its canonical pass, capped at that objective, then
        found the model infeasible."""
        p = {"a": 0.15830034683570984, "b": 1.1672414395576811e-05}
        inst = validate({
            "root": "0", "crews": 1,
            "nodes": [{"id": v, "weight": w} for v, w in (("0", 0), ("1", 15), ("2", 0))],
            "lines": [{"id": lid, "from": u, "to": v, "repair_time": p[lid], "switch": False}
                      for lid, u, v in (("a", "0", "1"), ("b", "1", "2"))]})
        assert separate(dict.fromkeys(p, p["a"]), p, 1) is None
        sol = solve_relaxation(inst)
        assert (sol.energization, sol.iterations) == ({"a": p["a"]}, 1)

    def test_equal_violation_takes_smaller_sorted_ids(self):
        # {b} and {a, b} are both violated by exactly 1.0
        p = {"a": 1.0, "b": 1.0}
        assert separate({"a": 2.0, "b": 0.0}, p, 1).lines == frozenset({"a", "b"})
        # mirrored point: {a} and {a, b} tie, and ["a"] < ["a", "b"]
        assert separate({"a": 0.0, "b": 2.0}, p, 1).lines == frozenset({"a"})


class TestSolveRelaxation:
    def test_two_island(self, two_island):
        # each line's completion is its island's E: e2's island waits for e1's
        sol = solve_relaxation(two_island, crews=2)
        assert sol.objective == pytest.approx(22.0)
        assert sol.completion == pytest.approx({"e1": 2.0, "e2": 2.0})
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
        # independent oracle: the full-space LP with every subset cut added up front
        sol = solve_relaxation(fork, crews=2)
        assert sol.objective == pytest.approx(all_subset_relaxation(fork, 2), abs=1e-9)
        assert sol.objective == pytest.approx(20.0)
        assert sol.completion == pytest.approx({"a": 1.0, "b": 2.0, "c": 11.0 / 3.0})

    def test_fork_binding_cut_present(self, fork):
        sol = solve_relaxation(fork, crews=2)
        assert frozenset({"a", "b", "c"}) in {cut.lines for cut in sol.cuts}
        triple = load_rhs([1.0, 2.0, 3.0], 2)
        assert triple == pytest.approx(16.0)

    @pytest.mark.parametrize("name, m", POOL_CASES + [("lines-200", 3), ("lines-400", 3)])
    def test_cut_pool_is_the_singletons_then_one_cut_per_round(self, name, m):
        """The singleton cuts are the columns' lower bounds, E of an island at
        least each of its repair times.  Round 1 adds its cut, the most
        violated at E-infinity, and beside it each island-boundary prefix of
        the optimal single-crew island order that is violated there and not
        yet pooled; each later round adds one cut.  The cuts are the last
        rows of the model, in that order, each aggregated per island."""
        inst = case_instance(name)
        p, of_line = inst.repair_times(), inst.islands.island_of_line
        sol = solve_relaxation(inst, crews=m)
        lower = dict(zip(sol.model.variables, sol.model.lower))
        assert all(lower[f"E[{of_line[lid]}]"] >= t for lid, t in p.items())
        least, _ = sched.infinite_crew_energization(inst.islands, inst.precedence, p)
        first = separate({lid: least[of_line[lid]] for lid in p}, p, m)
        seeds = [s for s in seeded_prefixes(inst, m) if first is None or s != first.lines]
        if first is None:
            assert sol.cuts == [] and sol.iterations == 1
        else:
            assert sol.cuts[0] == first
            assert [cut.lines for cut in sol.cuts[1:1 + len(seeds)]] == seeds
            assert len(sol.cuts) == len(seeds) + sol.iterations - 1
        # the generated feeders go on past round 1's seeds; the fixtures rarely do
        assert not name.startswith("lines-") or sol.iterations > 3
        first_cut = len(sol.model.rhs) - len(sol.cuts)
        for k, cut in enumerate(sol.cuts, first_cut):
            assert cut.rhs == load_rhs([p[j] for j in cut.lines], m)
            islands = sorted({of_line[j] for j in cut.lines})
            columns = sol.model.index[sol.model.start[k]:sol.model.start[k + 1]]
            assert [sol.model.variables[j] for j in columns] == [f"E[{i}]" for i in islands]

    def test_seeds_leave_a_200_line_feeder_few_solves(self, monkeypatch):
        """With one cut per round the 200-line generated feeder took 25 HiGHS
        solves; round 1's seeds leave it 4, rounds and canonical pass."""
        solves = []
        solve = lp.simplex_solve
        monkeypatch.setattr(lp, "simplex_solve",
                            lambda model, *args: solves.append(model) or solve(model, *args))
        sol = solve_relaxation(case_instance("lines-200"), crews=3)
        assert len(solves) <= 6 and len(sol.cuts) > sol.iterations + 10

    def test_objective_history_monotone(self, fork, feeder123):
        for inst, m in ((fork, 2), (feeder123, 3)):
            sol = solve_relaxation(inst, crews=m)
            for earlier, later in zip(sol.objective_history, sol.objective_history[1:]):
                assert later >= earlier - 1e-9


class TestUniqueOptimum:
    """Where the last vertex is the model's one optimal point, the answer
    does not depend on how HiGHS reaches it."""

    def test_an_exact_midpoint_tie_goes_by_depth_then_id(self):
        """At m = 1 line b, in the root island, and line a, behind a switch,
        both of time 2, share E = 3 at the unique optimum (the heavier island
        waits for the other): their midpoints tie exactly, and b, upstream,
        goes first although a has the smaller id."""
        inst = validate({
            "root": "0", "crews": 1,
            "nodes": [{"id": "0", "weight": 0}, {"id": "1", "weight": 1},
                      {"id": "2", "weight": 2}],
            "lines": [{"id": "b", "from": "0", "to": "1", "repair_time": 2, "switch": False},
                      {"id": "a", "from": "1", "to": "2", "repair_time": 2, "switch": True}]})
        result = algos.lp_list_schedule(inst, crews=1)
        assert result.lp.midpoints == {"a": 2.0, "b": 2.0}
        assert result.schedule.priority == ("b", "a")


FIXTURE_NAMES = [f.name for f in sorted(FIXTURES.glob("*.json"))]


def assert_matches_the_full_space_loop(inst, m):
    """The island-space objective equals the full-space loop's at rel 1e-9."""
    want = reference_full_space_relaxation(inst, crews=m).objective
    assert solve_relaxation(inst, crews=m).objective == pytest.approx(want, rel=1e-9, abs=0)


class TestIslandSpace:
    """The island-space relaxation has the optimum of the paper's full-space
    LP: against the full-space cutting-plane loop (tests/conftest.py) on the
    fixtures, the bench corpus and generated feeders, and against the LP with
    every subset cut up front on a sweep of mixed-magnitude times."""

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_fixtures_match_the_full_space_loop(self, name, m):
        assert_matches_the_full_space_loop(case_instance(name), m)

    def test_bench_corpus_matches_the_full_space_loop(self):
        """The corpus `gridrepair bench --seed 0 --count 200` draws, at m = 2, 3."""
        for seed in range(200):
            inst = generate_random(GenParams(seed=seed))
            for m in (2, 3):
                assert_matches_the_full_space_loop(inst, m)

    @pytest.mark.parametrize("lines", [25, 50, 100, 200])
    @pytest.mark.parametrize("repair_time", [(1, 10), (0, 10)], ids=["damaged", "some-undamaged"])
    def test_generated_feeders_match_the_full_space_loop(self, lines, repair_time):
        inst = generate_random(GenParams(seed=7, nodes=(lines + 1, lines + 1),
                                         switch_probability=0.1, repair_time=repair_time,
                                         crews=(3,)))
        assert_matches_the_full_space_loop(inst, 3)

    def test_every_subset_cut_up_front_on_mixed_magnitudes(self):
        """Up to 10 damaged lines, times integer, mixed 1e-6 to 100, all near
        1e-4, or log-uniform over 1e-6 to 1e6, about one line in seven
        undamaged, and 1 to 4 crews.  The objective is exact up to HiGHS's
        feasibility tolerance, LP_TOLERANCE per unit of objective and of
        island weight.  An absolute separation tolerance of 1e-7 fails here
        on the small times, and so do cut rows that are not scaled.  A sweep
        call that raises LpError (ROADMAP item 7) must fail the full-space
        loop too."""
        kinds = {
            "integer": lambda rng: rng.randint(1, 10),
            "mixed": lambda rng: rng.choice([1, 2, 100, 1e-6, 1e-4]),
            "tiny": lambda rng: 10 ** rng.uniform(-5, -3),
            "wide": lambda rng: 10 ** rng.uniform(-6, 6),
        }
        solved = 0
        for seed in range(800):
            rng = random.Random(seed)
            nodes = rng.randint(2, 11)
            raw = random_raw(GenParams(seed=seed, nodes=(nodes, nodes),
                                       switch_probability=rng.choice([0.0, 0.3, 1.0])))
            draw = list(kinds.values())[seed % len(kinds)]
            for line in raw["lines"]:
                line["repair_time"] = 0 if rng.random() < 0.15 else draw(rng)
            for node in raw["nodes"]:
                node["weight"] = rng.choice([0, 1, rng.randint(0, 10), rng.uniform(0, 1e4)])
            raw["nodes"][-1]["weight"] += 1  # some non-root weight is positive
            inst, m = validate(raw), rng.randint(1, 4)
            try:
                got = solve_relaxation(inst, crews=m).objective
            except lp.LpError:
                with pytest.raises(lp.LpError):
                    reference_full_space_relaxation(inst, crews=m)
                continue
            want = all_subset_relaxation(inst, m)
            weight = sum(inst.islands.weights.values())
            assert abs(got - want) <= lp.LP_TOLERANCE * (abs(want) + weight), (seed, got, want)
            solved += 1
        assert solved > 790


def damaged_lines(inst):
    return sum(1 for t in inst.repair_times().values() if t > 0)


def assert_is_the_highs_answer(inst, m):
    """`solve_relaxation` takes as round 1, unsolved, the least point of the
    base rows, E = E-infinity.  Checks that HiGHS's cold solve of those rows
    returns that point exactly, that every solve it makes gets a model with a
    load cut, and, where the least point meets every cut, that the answer is
    what the loop would return if it solved round 1: HiGHS's objective and
    point there, in one round with no cut."""
    p, of_line = inst.repair_times(), inst.islands.island_of_line
    lines = [lid for lid in sorted(p) if p[lid] > 0]
    base = lp._base_model(inst, inst.islands, inst.precedence)  # built as the loop builds it
    energization, _ = sched.infinite_crew_energization(inst.islands, inst.precedence, p)
    least = [energization[iid] for iid in inst.islands.weights]
    vertex = simplex_solve(base)
    # equal as numbers: HiGHS may give -0.0 for a column of lower bound 0.0,
    # where the least point, the one reported, has 0.0
    assert vertex.values == least
    assert all(math.copysign(1.0, e) == 1.0 for e in least)

    solved = []

    def record(model, *presolve):
        solved.append(copy.deepcopy(model))
        return simplex_solve(model, *presolve)

    with mock.patch.object(lp, "simplex_solve", record):
        try:
            sol = solve_relaxation(inst, crews=m)
        except lp.LpError:  # HiGHS failing on a later round (ROADMAP item 7)
            sol = None
    for model in solved:  # a load cut beyond the precedence rows
        assert len(model.rhs) > len(base.rhs)
    if sol is None:
        assert solved  # the failure came from a solve, never from the unsolved round 1
        return
    assert first_rows(sol) == base
    completions = [energization[of_line[lid]] for lid in lines]
    if _most_violated(completions, [p[lid] for lid in lines], m, ()) is None:
        assert least == list(sol.energization.values())
        assert sol.completion == {lid: energization[of_line[lid]] if p[lid] > 0 else 0.0
                                  for lid in sorted(p)}
        assert repr(vertex.objective) == repr(sol.objective)
        assert solved == [] and sol.iterations == 1 and sol.cuts == []
    else:
        assert solved and sol.iterations >= 2


# every fixture with a crew per damaged line, and with one or two to spare
SPARE_CREW_CASES = [(f.name, max(1, damaged_lines(load_instance(f))) + spare)
                    for f in sorted(FIXTURES.glob("*.json")) for spare in (0, 1, 2)]


class TestSpareCrews:
    """Round 1 of the relaxation is the least point of the base rows, taken
    with no HiGHS solve; it is what HiGHS returns there.  With at most m
    damaged lines it is the answer, and no solve runs at all."""

    @pytest.mark.parametrize("name, m", SPARE_CREW_CASES)
    def test_fixtures_make_no_solve_and_match_highs(self, monkeypatch, name, m):
        inst = case_instance(name)
        calls = []
        monkeypatch.setattr(lp, "simplex_solve", lambda *args: calls.append(args))
        solve_relaxation(inst, crews=m)
        monkeypatch.undo()
        assert calls == []
        assert_is_the_highs_answer(inst, m)

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_fixtures_at_one_to_five_crews_match_highs(self, name, m):
        assert_is_the_highs_answer(case_instance(name), m)

    def test_bench_corpus_matches_highs(self):
        """The corpus `gridrepair bench --seed 0 --count 500` draws, at m = 2, 3."""
        spare = 0
        for seed in range(500):
            inst = generate_random(GenParams(seed=seed))
            for m in (2, 3):
                assert_is_the_highs_answer(inst, m)
                spare += damaged_lines(inst) <= m
        assert 300 < spare < 700  # both kinds of case are covered

    @given(st.data())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_decimal_and_wide_float_data_match_highs(self, data):
        """Feeders of up to 9 lines with decimal repair times, or times of
        1e-6 to 1e12, node weights up to 1e13, often zero, so that whole
        islands weigh nothing, and 1 to n + 2 crews."""
        nodes = data.draw(st.integers(2, 10))
        raw = random_raw(GenParams(seed=data.draw(st.integers(0, 2**31 - 1)), nodes=(nodes, nodes),
                                   switch_probability=data.draw(st.sampled_from([0.0, 0.3, 1.0]))))
        decimal = st.integers(1, 10**4).map(lambda k: k / 100)
        wide = st.builds(lambda mantissa, e: mantissa * 10.0**e, st.floats(1, 10), st.integers(-6, 11))
        times = data.draw(st.sampled_from([decimal, wide]))
        for line in raw["lines"]:  # about one line in five undamaged
            line["repair_time"] = data.draw(times) if data.draw(st.integers(0, 4)) else 0
        weights = st.one_of(st.just(0), st.integers(0, 10), st.floats(0, 1e13))
        for node in raw["nodes"]:
            node["weight"] = data.draw(weights)
        raw["nodes"][-1]["weight"] += 1  # some non-root weight is positive
        inst = validate(raw)
        m = data.draw(st.integers(1, max(1, damaged_lines(inst)) + 2))
        try:
            solve_relaxation(inst, crews=m)
        except ValidationError:  # a HiGHS range rule: checked before any solve, as before
            return
        except lp.LpError:  # a later round's solve failed; the guard still checks round 1
            pass
        assert_is_the_highs_answer(inst, m)


def _path(times, weights, switches=(2,)):
    """`path_raw`'s feeder with a switch on each line e<k> for k in `switches`."""
    raw = path_raw(times, weights)
    for k, line in enumerate(raw["lines"], 1):
        line["switch"] = k in switches
    return validate(raw)


# HiGHS rejects a matrix value of 1e15 or more and takes a bound of 1e20 or more as
# infinite.  A cut's coefficient, a sum of its times, reaches 1e15 only where its
# right-hand side already reaches 1e20 (m at most the line count).  An island
# weight is a cost, not a matrix value, and 1e15 is the input's limit on it.
LIMIT_CASES = {
    "a cut's right-hand side": (_path([1e10] * 3, [1, 1, 1]),
                                "right-hand side of the load cut on ['e1', 'e2', 'e3'] 3.75e+20 "
                                "reaches HiGHS's limit 1e+20"),
    "a repair time of 1e20, an island's lower bound": (
        _path([1e20, 1, 1], [1, 1, 1]), "line 'e1' repair time 1e+20 reaches HiGHS's limit 1e+20"),
    "an island weight of 1e16": (
        _path([1, 1, 1], [1, 1e16, 1]),
        "island 'e2' weight 1e+16 reaches the input's weight limit 1e+15"),
    "an island weight of exactly 1e15": (
        _path([1, 1, 1], [1, 1e15 - 1, 1]),
        "island 'e2' weight 1000000000000000.0 reaches the input's weight limit 1e+15"),
}


@pytest.mark.parametrize("case", LIMIT_CASES, ids=list(LIMIT_CASES))
def test_rows_beyond_highs_limits_are_input_errors(case):
    inst, message = LIMIT_CASES[case]
    with pytest.raises(ValidationError) as err:
        solve_relaxation(inst, crews=2)
    assert not isinstance(err.value, lp.LpError) and isinstance(err.value, ValueError)
    assert str(err.value) == message


def _far_line(time):
    """Three lines of time 1 in the root island and, behind a switch, a line of
    `time` alone in its island: the one violated cut, on the three, leaves it out."""
    return validate({
        "root": "r", "crews": 2, "nodes": [{"id": v, "weight": 1} for v in "rabcd"],
        "lines": [{"id": f"l{k}", "from": u, "to": v, "repair_time": 1, "switch": False}
                  for k, (u, v) in enumerate(("ra", "ab", "bc"), 1)]
        + [{"id": "l4", "from": "r", "to": "d", "repair_time": time, "switch": True}]})


def test_a_repair_time_of_1e20_needs_its_rule(monkeypatch):
    """No cut holds the far line, so only its island's lower bound meets HiGHS,
    which takes 1e20 as infinite: without the rule the solve fails."""
    assert solve_relaxation(_far_line(9.9e19)).energization == {"l1": 1.25, "l4": 9.9e19}
    with pytest.raises(ValidationError, match="line 'l4' repair time 1e[+]20 reaches"):
        solve_relaxation(_far_line(1e20))
    monkeypatch.setattr(lp, "_limit", lambda *args: None)
    with pytest.raises(Infeasible):
        solve_relaxation(_far_line(1e20))


def test_a_repair_time_of_1e15_now_solves():
    """Rejected while each singleton cut was a row, whose right-hand side
    7.5e29 crossed 1e20; the island model holds it as a lower bound."""
    sol = solve_relaxation(_path([1e15, 1, 1], [1, 1, 1]), crews=2)
    assert (sol.completion, sol.energization, sol.iterations) == (
        dict.fromkeys(["e1", "e2", "e3"], 1e15), dict.fromkeys(["e1", "e2"], 1e15), 1)


def test_rows_just_inside_highs_limits_solve():
    # a largest cut rhs of 3.75e18, and a weight just below 1e15: the first point
    # pinned is the one solve_relaxation gave before it checked HiGHS's limits;
    # the second is its unique optimum, where the canonical pass, which it no
    # longer runs, moved both E by the slack of its objective cap
    sol = solve_relaxation(_path([1e9] * 3, [1, 1, 1]), crews=2)
    assert (sol.completion, sol.energization) == (
        {"e1": 1e9, "e2": 1.375e9, "e3": 1.375e9}, {"e1": 1e9, "e2": 1.375e9})
    sol = solve_relaxation(_path([1, 1, 1], [1, 1e15 - 2, 1]), crews=2)
    assert (sol.completion, sol.energization) == (
        dict.fromkeys(["e1", "e2", "e3"], 1.25), dict.fromkeys(["e1", "e2"], 1.25))


def test_a_unique_optimum_needs_no_objective_cap():
    """Its objective 1.25e20 made a canonical pass's cap HiGHS cannot take,
    but the loop's last vertex was its unique optimum, so it solved."""
    sol = solve_relaxation(_path([1e6] * 3, [1, 1e14, 1]), crews=2)
    assert sol.energization == dict.fromkeys(["e1", "e2"], 1.25e6)
    assert sol.objective == pytest.approx(1.25e20, rel=1e-12)


def test_a_degenerate_optimum_needs_no_objective_cap():
    """The last island weighs 0, so its E is free at the optimum: the
    canonical pass ran here, and its objective cap of 1.25e20 was rejected
    as an input error.  The last vertex, lifted, is the answer now."""
    inst = _path([1e6] * 4, [1, 1, 1e14, 0], switches=(2, 4))
    sol = solve_relaxation(inst, crews=2)
    e = sol.energization
    assert list(e) == ["e1", "e2", "e4"] and e["e4"] >= e["e2"] >= e["e1"] >= 1e6
    assert sol.objective == pytest.approx(1.25e20, rel=1e-12)
    assert sol.objective == pytest.approx(math.fsum(
        inst.islands.weights[iid] * e[iid] for iid in e), rel=1e-12)


class TestMidpoints:
    def test_two_island(self, two_island):
        sol = solve_relaxation(two_island, crews=2)
        assert sol.midpoints == pytest.approx({"e1": 1.0, "e2": 1.5})

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
        mids = sol.midpoints
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
    truth = exhaustive_separation(c, p, m)
    cut = separate(c, p, m)
    if cut is None:
        assert truth.violation <= separation_threshold(truth.subset, p, m)
    else:
        violation = cut.rhs - sum(p[j] * c[j] for j in cut.lines)
        assert violation > separation_threshold(cut.lines, p, m)
        assert violation == pytest.approx(truth.violation, abs=1e-9)


@given(instances(max_nodes=13), st.sampled_from([1, 2, 3]))
@settings(max_examples=50, deadline=None)
def test_solution_satisfies_every_subset_inequality(inst, m):
    sol = solve_relaxation(inst, crews=m)
    p = inst.repair_times()
    if all(v == 0 for v in p.values()):
        return
    worst = exhaustive_separation(sol.completion, p, m)
    assert worst.violation <= 1e-6


def separation_threshold(subset, p, m):
    """The violation a cut on `subset` must exceed to be separated: a share
    SEPARATION_TOLERANCE of its right-hand side, and HiGHS's tolerance on its row."""
    return max(lp.SEPARATION_TOLERANCE * load_rhs([p[j] for j in subset], m),
               lp.LP_TOLERANCE * row_scale(p[j] for j in subset))


def prefix_orders(c, p):
    """The midpoint and completion orders of the lines with positive time.
    Separation scores the first alone; the pooled sets of the tests are drawn
    from both, so that a pooled subset need not be a midpoint prefix."""
    lines = [j for j in sorted(p) if p[j] > 0]
    return (
        sorted(lines, key=lambda j: (c[j] - p[j] / 2.0, j)),
        sorted(lines, key=lambda j: (c[j], j)),
    )


def reference_separate(c, p, m, pooled=frozenset()):
    """The prefix-by-prefix fsum separation over the midpoint order that
    `separate` must reproduce."""
    best = None  # (-violation, sorted ids)
    order = prefix_orders(c, p)[0]
    for k in range(1, len(order) + 1):
        excess = violation(order[:k], c, p, m)
        if excess <= separation_threshold(order[:k], p, m) or (best and -excess > best[0]):
            continue
        key = (-excess, sorted(order[:k]))
        if (best is None or key < best) and frozenset(key[1]) not in pooled:
            best = key
    return None if best is None else Cut(frozenset(best[1]), load_rhs([p[j] for j in best[1]], m))


def separate_pooled(c, p, m, pooled):
    """`separate` with the id subsets in `pooled` skipped: `_most_violated` on
    the lines of positive time in id order, with `pooled` by position."""
    lines = [j for j in sorted(p) if p[j] > 0]
    index = {j: k for k, j in enumerate(lines)}
    positions = {tuple(sorted(index[j] for j in s)) for s in pooled if s.issubset(index)}
    found = _most_violated([float(c[j]) for j in lines], [float(p[j]) for j in lines], m,
                           positions)
    return None if found is None else Cut(frozenset(lines[i] for i in found[0]), found[1])


def separation_point(rng, n, m):
    """Integer or half-integer p and C, so that violations often tie exactly.

    Half the points sit on a list schedule's tight load bounds, pushed down
    by a few half-units, where adding a line often leaves the violation as it is.
    """
    step = rng.choice([1.0, 0.5])
    p = {f"l{k}": rng.randint(0, 20) * step for k in range(n)}
    if rng.random() < 0.3:  # repeated lines tie in both orders
        p = {lid: p[f"l{k % 3}"] for k, lid in enumerate(p)}
    if rng.random() < 0.5:
        c, before = {}, 0.0
        for lid in rng.sample(sorted(p), n):
            c[lid] = before / m + p[lid] * (m + 1) / (2 * m) - rng.choice([0, 0, 0, 0.5, 1])
            before += p[lid]
        return c, p
    load = max(1.0, sum(p.values()) / m)
    c = {lid: rng.randint(0, int(2 * load * rng.choice([0.5, 1.0, 1.5]))) / 2.0 for lid in p}
    return c, p


SEPARATION_POINTS = [(12, 300), (200, 20), (2000, 1)]


def separation_points(n_max, points):
    """The points of `test_separate_matches_reference`: C, p, m and a sample of
    up to 5 prefixes of the two orders to pool (None for a single point)."""
    rng = random.Random(n_max)
    for _ in range(points):
        n = n_max if points == 1 else rng.randint(1, n_max)
        m = rng.choice([1, 2, 3])
        c, p = separation_point(rng, n, m)
        sample = None
        if points > 1:
            orders = prefix_orders(c, p)
            prefixes = [frozenset(o[:k]) for o in orders for k in range(1, len(o) + 1)]
            sample = set(rng.sample(prefixes, min(len(prefixes), 5)))
        yield c, p, m, sample


@pytest.mark.parametrize("n_max,points", SEPARATION_POINTS)
def test_separate_matches_reference(n_max, points):
    for c, p, m, sample in separation_points(n_max, points):
        first = reference_separate(c, p, m)
        cases = [(frozenset(), first)]
        if first is not None:  # pool the maximum, then the runner-up too
            second = reference_separate(c, p, m, {first.lines})
            cases.append(({first.lines}, second))
            if second is not None and points > 1:
                pooled = {first.lines, second.lines}
                cases.append((pooled, reference_separate(c, p, m, pooled)))
        if sample is not None:
            cases.append((sample, reference_separate(c, p, m, sample)))
        for pooled, want in cases:
            got = separate_pooled(c, p, m, pooled) if pooled else separate(c, p, m)
            assert (got is None) == (want is None)
            if want is not None:
                assert got.lines == want.lines
                assert got.rhs == want.rhs


POINT_KINDS = ("random", "negative", "tight", "schedule")


def differential_point(rng, n, m, kind):
    """Positive times and completions for the separation core.

    The data are multiples of 1, 1/2 or 1/10, and lines repeat, so keys tie
    exactly.  The completions are of one `kind`: random; partly negative,
    which exercises the |p*C| term; just under a list schedule's tight load
    bounds; or those of an m-crew list schedule, where no load inequality
    is violated.
    """
    step = rng.choice([1.0, 0.5, 0.1])
    times = [rng.randint(1, 20) * step for _ in range(n)]
    if rng.random() < 0.3:
        times = [times[k % 3] for k in range(n)]
    load = sum(times) / m
    if kind == "random":
        return [rng.randint(0, int(4 * load)) / 2.0 for _ in times], times
    if kind == "negative":
        return [rng.randint(-int(2 * load) - 1, -1) / 2.0 if k == 0 else
                rng.randint(-int(2 * load), int(2 * load)) / 2.0 for k in range(n)], times
    completions, before, free = [0.0] * n, 0.0, [0.0] * m
    for i in rng.sample(range(n), n):
        if kind == "tight":
            completions[i] = before / m + times[i] * (m + 1) / (2 * m) - rng.choice([0, 0.5, 1])
            before += times[i]
        else:
            completions[i] = heapq.heappop(free) + times[i]
            heapq.heappush(free, completions[i])
    return completions, times


def prefixes(completions, times):
    """Sorted positions of every prefix of the midpoint and completion orders."""
    positions = range(len(times))
    orders = (sorted(positions, key=lambda i: completions[i] - times[i] / 2.0),
              sorted(positions, key=lambda i: completions[i]))
    return sorted({tuple(sorted(o[:k])) for o in orders for k in range(1, len(o) + 1)})


DIFFERENTIAL_POINTS = [(n, 160) for n in range(1, 9)] + [(60, 40), (400, 8)]


def differential_points(n, points):
    """The points of `test_most_violated_matches_reference`: completions,
    times, m, every prefix of the two orders and a sample of 5 of them."""
    rng = random.Random(n)
    for k in range(points):
        m = rng.choice([1, 2, 3])
        c, p = differential_point(rng, n, m, POINT_KINDS[k % len(POINT_KINDS)])
        every = prefixes(c, p)
        yield c, p, m, every, set(rng.sample(every, min(len(every), 5)))


@pytest.mark.parametrize("n, points", DIFFERENTIAL_POINTS)
def test_most_violated_matches_reference(n, points):
    """The plain-Python separation core returns the cut the NumPy form
    returns, its right-hand side and row divisor bit for bit: with nothing,
    the best cuts, a sample or every prefix pooled."""
    unviolated = ties = 0
    for c, p, m, every, sample in differential_points(n, points):
        first = reference_most_violated(c, p, m, set())
        cases = [set(), sample, set(every)]
        if first is None:
            unviolated += 1
        else:  # pool the maximum, then the runner-up too
            second = reference_most_violated(c, p, m, {first[0]})
            cases += [{first[0]}, {first[0]} | ({second[0]} if second else set())]
            if n <= 8:  # an exact tie in violation, broken by the sorted positions
                violations = [violation(s, c, p, m) for s in every]
                ties += violations.count(max(violations)) > 1
        for pooled in cases:
            assert _most_violated(c, p, m, pooled) == reference_most_violated(c, p, m, pooled)
        assert _most_violated(c, p, m, set(every)) is None
    assert unviolated and (ties or n == 1 or n > 8)


def test_the_completion_order_adds_no_cut():
    """The two-order rule that separation used to apply picks the midpoint
    rule's cut on every unpooled call of the two differential tests' points.
    With the maximum pooled it may pick another prefix of the completion
    order, violated by no more than the pooled maximum."""
    for n, points in DIFFERENTIAL_POINTS:
        for c, p, m, _, _ in differential_points(n, points):
            first = reference_most_violated(c, p, m, set())
            assert two_order_most_violated(c, p, m, set()) == first
            if first is not None:
                other = two_order_most_violated(c, p, m, {first[0]})
                if other != reference_most_violated(c, p, m, {first[0]}):
                    assert violation(other[0], c, p, m) <= violation(first[0], c, p, m)
    for n_max, points in SEPARATION_POINTS:
        for c, p, m, _ in separation_points(n_max, points):
            lines = [j for j in sorted(p) if p[j] > 0]
            completions, times = [float(c[j]) for j in lines], [float(p[j]) for j in lines]
            assert (two_order_most_violated(completions, times, m, set())
                    == reference_most_violated(completions, times, m, set()))


@given(st.lists(st.tuples(st.fractions(Fraction(1, 8), 20, max_denominator=8),
                          st.fractions(-20, 60, max_denominator=8)), min_size=1, max_size=8),
       st.integers(1, 4))
@settings(max_examples=300, deadline=None)
def test_every_most_violated_subset_is_a_strict_midpoint_threshold_set(lines, m):
    """The lemma of the `lp` module docstring, in exact arithmetic: of all
    2^n subsets, the empty one at violation 0, every non-empty maximizer of
    f(A) - sum_A p_j C_j holds exactly the lines whose midpoint M = C - p/2
    lies below some threshold, so it is a prefix of the midpoint order."""
    n = len(lines)
    mid = [c - t / 2 for t, c in lines]
    violation = {}
    for mask in range(1, 2**n):
        subset = [lines[j] for j in range(n) if mask >> j & 1]
        total = sum(t for t, _ in subset)
        violation[mask] = (total * total / (2 * m) + sum(t * t for t, _ in subset) / 2
                           - sum(t * c for t, c in subset))
    best = max(0, *violation.values())
    for mask, value in violation.items():
        if value == best:
            inside = [mid[j] for j in range(n) if mask >> j & 1]
            outside = [mid[j] for j in range(n) if not mask >> j & 1]
            assert not outside or max(inside) < min(outside)
