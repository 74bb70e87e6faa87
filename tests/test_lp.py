import copy
import heapq
import itertools
import os
import random
import sys
import textwrap
from dataclasses import replace
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import numpy as np

from gridrepair import lp, oracle
from gridrepair import schedule as sched
from gridrepair.harness import GenParams, generate_random, load_instance, random_raw
from gridrepair.lp import (
    Cut,
    Infeasible,
    LpModel,
    Unbounded,
    _most_violated,
    _new_highs,
    _solve_highs,
    _solve_linprog,
    load_rhs,
    separate,
    simplex_solve,
    solve_relaxation,
)
from gridrepair.model import ValidationError, build_precedence_graph, partition_islands, validate

from conftest import (
    FIXTURES,
    exhaustive_separation,
    instances,
    path_raw,
    reference_most_violated,
    reference_solve_highs,
    run_fresh,
)


ROUND_CASES = [(f.name, m) for f in sorted(FIXTURES.glob("*.json")) for m in (1, 2, 3)] + [
    (f"gen-{seed}", 3) for seed in (1, 2, 3)
]


# every fixture at m = 1, 2, 3 and the three 60-line feeders of tests/golden.json
POOL_CASES = [(f.name, m) for f in sorted(FIXTURES.glob("*.json")) for m in (1, 2, 3)] + [
    (f"golden-{seed}", 3) for seed in (1, 2, 3)
]


def case_instance(name):
    """A fixture, a generated 50-line feeder (`gen-<seed>`) or one of the
    generated 60-line feeders `tests/golden.json` pins (`golden-<seed>`)."""
    if name.startswith("gen-"):
        return generate_random(GenParams(seed=int(name[4:]), nodes=(51, 51),
                                         switch_probability=0.1, repair_time=(1, 10)))
    if name.startswith("golden-"):  # as tests/test_golden.py generates them
        return generate_random(GenParams(seed=int(name[7:]), nodes=(61, 61),
                                         switch_probability=0.1, repair_time=(1, 10),
                                         crews=(3,)))
    return load_instance(FIXTURES / name)


def first_rows(model, rounds):
    """The base and singleton rows of the final `model` of a relaxation of
    `rounds` rounds: each round after the first added one load cut."""
    k = len(model.rhs) - (rounds - 1)
    return replace(model, start=model.start[:k + 1], index=model.index[:model.start[k]],
                   value=model.value[:model.start[k]], rhs=model.rhs[:k])


def round_models(monkeypatch, name, m):
    """Every model `solve_relaxation` solved on a fixture or a generated
    50-line feeder before round 1 became the base rows' least point: the base
    and singleton rows, which it no longer solves and which are recorded here
    explicitly, then the models it solves, its later rounds and its canonical
    pass.  Where it solves none, the second model is the canonical pass of the
    base and singleton rows, as it was."""
    inst = case_instance(name)
    models = []

    def record(model):
        models.append(copy.deepcopy(model))  # the loop appends to its lists
        return simplex_solve(model)

    monkeypatch.setattr(lp, "simplex_solve", record)
    sol = solve_relaxation(inst, crews=m)
    base = first_rows(sol.model, sol.iterations)
    if models:
        models.insert(0, base)
    else:
        lp._canonical_pass(base, record(base).objective)
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
        # base rows only, no load cuts: all lower bounds tight
        islands = partition_islands(two_island)
        prec = build_precedence_graph(two_island, islands)
        from gridrepair.lp import _base_model

        model = _base_model(two_island, islands, prec)
        assert model.variables == ["C[e1]", "C[e2]", "E[e1]", "E[e2]"]
        vertex = simplex_solve(model)
        assert list(vertex.values) == pytest.approx([2.0, 1.0, 2.0, 2.0])
        assert vertex.objective == pytest.approx(22.0)

    def test_unbounded_raises(self):
        from gridrepair.lp import Unbounded

        model = LpModel(variables=["x"], objective=[-1.0], lower=[0.0])
        for solve in (simplex_solve, _solve_linprog):
            with pytest.raises(Unbounded):
                solve(model)

    def test_infeasible_raises(self):
        from gridrepair.lp import Infeasible

        model = LpModel(variables=["x"], objective=[1.0], lower=[0.0])
        model.add_row([0], [-1.0], 1.0)  # x <= -1
        for solve in (simplex_solve, _solve_linprog):
            with pytest.raises(Infeasible):
                solve(model)

    def test_direct_path_runs_on_the_tested_scipy(self):
        # the benchmark must measure HiGHS called directly, not the fallback
        import scipy

        if not scipy.__version__.startswith("1.17."):
            pytest.skip(f"direct HiGHS path is tested with SciPy 1.17, not {scipy.__version__}")
        model = LpModel(variables=["x"], objective=[1.0], lower=[1.0])
        assert _solve_highs(model) is not None

    @pytest.mark.parametrize("name, m", ROUND_CASES)
    def test_direct_path_matches_linprog_on_every_round(self, monkeypatch, name, m):
        models = round_models(monkeypatch, name, m)
        assert len(models) >= 2  # the cutting-plane rounds and the canonical pass
        for model in models:
            direct, reference = _solve_highs(model), _solve_linprog(model)
            assert list(direct.values) == list(reference.values)
            assert direct.objective == reference.objective

    @pytest.mark.parametrize("name, m", ROUND_CASES)
    def test_sparse_rows_give_the_dense_path_matrix(self, monkeypatch, name, m):
        highs = _new_highs()
        if highs is None:
            pytest.skip("SciPy's HiGHS binding is not importable")
        models = round_models(monkeypatch, name, m)
        monkeypatch.setattr(lp, "_shared", (os.getpid(), highs))
        for model in models:
            n, k = len(model.variables), len(model.rhs)
            dense = np.zeros((k, n))  # the >= rows, one by one
            for r in range(k):
                s, e = model.start[r], model.start[r + 1]
                dense[r, model.index[s:e]] = [-v for v in model.value[s:e]]
            # the CSC arrays of the -rows linprog passes, column-major as np.nonzero gives
            columns = -dense.T
            col, row = np.nonzero(columns)
            start = np.concatenate(([0], np.cumsum(np.bincount(col, minlength=n))))
            _solve_highs(model)
            held = highs.getLp().a_matrix_  # the matrix HiGHS holds after passModel
            assert [held.start_, held.index_, held.value_] == [
                start.tolist(), row.tolist(), columns[col, row].tolist()]

    def test_reused_instance_solves_cold(self, monkeypatch):
        highs = _new_highs()
        if highs is None:
            pytest.skip("SciPy's HiGHS binding is not importable")
        models = round_models(monkeypatch, "feeder123.json", 3)
        a, b = models[0], models[-1]  # the first round and the canonical pass

        def solve(model, on):
            monkeypatch.setattr(lp, "_shared", (os.getpid(), on))
            vertex = _solve_highs(model)
            return list(vertex.values), vertex.objective, on.getInfo().simplex_iteration_count

        fresh = solve(a, _new_highs())
        first, _, again, twice = solve(a, highs), solve(b, highs), solve(a, highs), solve(a, highs)
        assert first == fresh
        assert again == fresh
        assert twice == fresh  # a kept basis would take no iterations here

    @pytest.mark.parametrize("name, m", POOL_CASES)
    def test_pass_matches_the_reference_pass(self, monkeypatch, name, m):
        """The solve, and the LP HiGHS holds after it, equal those of the pass
        that sets `col_cost_` from Python, on every round and canonical pass."""
        ours, theirs = _new_highs(), _new_highs()
        if ours is None:
            pytest.skip("SciPy's HiGHS binding is not importable")
        models = round_models(monkeypatch, name, m)
        monkeypatch.setattr(lp, "_shared", (os.getpid(), ours))
        for model in models:
            assert _solve_highs(model) == reference_solve_highs(model, theirs)
            assert held_lp(ours) == held_lp(theirs)

    @pytest.mark.parametrize("failure", [Infeasible, Unbounded])
    def test_shared_instance_after_a_failed_solve(self, monkeypatch, feeder123, failure):
        if _new_highs() is None:
            pytest.skip("SciPy's HiGHS binding is not importable")

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
        assert "load cut on" in lp.format_model(model)
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
    assert len(sol.model.rhs) > 400 and len(cached.col_lower_) == len(sol.model.variables)
    assert cached.num_row_ == matrix.num_row_ == 0
    assert list(matrix.start_) == [0] and len(matrix.index_) == len(matrix.value_) == 0
    assert len(cached.row_lower_) == len(cached.row_upper_) == 0


FALLBACK_SOLVES = textwrap.dedent(f"""
    import copy, sys
    from gridrepair import harness, lp
    assert lp._new_highs() is None
    models = []
    def record(model):
        models.append(copy.deepcopy(model))
        return solve(model)
    solve, lp.simplex_solve = lp.simplex_solve, record
    harness.bench_instance("fork", harness.load_instance({str(FIXTURES / "fork.json")!r}), 2)
    assert len(models) >= 2 and lp._shared[1] is None
    for model in models:
        assert solve(model) == lp._solve_linprog(model)
""")


class TestBinding:
    """`lp._binding` loads SciPy's HiGHS extension without `scipy.optimize`.
    Each case runs in a fresh interpreter, since the module is loaded once
    per process."""

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
            def record(model):
                models.append(copy.deepcopy(model))
                return solve(model)
            solve, lp.simplex_solve = lp.simplex_solve, record
            harness.bench_instance("fork", harness.load_instance({fixtures["fork"]!r}), 2)
            lp.simplex_solve = solve
            assert len(models) >= 2
            assert "scipy.optimize" not in sys.modules
            assert sys.modules["scipy.optimize._highspy._core"] is core

            from scipy.optimize import linprog
            from scipy.optimize._highspy import _core
            assert _core is core and lp._binding() is core
            for model in models:
                assert lp._solve_linprog(model) == lp._solve_highs(model)
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
        """) + FALLBACK_SOLVES)
        assert proc.returncode == 0, proc.stderr

    def test_import_error_falls_back(self):
        proc = run_fresh(textwrap.dedent("""
            import importlib.abc, importlib.machinery  # abc registers the real loader class
            class Broken(importlib.machinery.ExtensionFileLoader):
                def exec_module(self, module):
                    raise ImportError("stand-in for a broken extension")
            importlib.machinery.ExtensionFileLoader = Broken  # SciPy's own import keeps the real one
        """) + FALLBACK_SOLVES + textwrap.dedent("""
            assert "scipy.optimize._highspy._core" in sys.modules  # loaded by linprog's import
        """))
        assert proc.returncode == 0, proc.stderr

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
        assert _most_violated(c, p, 1, set()) == (0, 1)
        subset = _most_violated(c, p, 1, {(0, 1)})
        assert subset == (0,)
        assert load_rhs([p[i] for i in subset], 1) == pytest.approx(1.0)

    def test_pooled_only_violated_yields_none(self):
        # {0} is violated by 0.9; {0, 1} holds with slack 2.1
        c, p = [0.1, 5.0], [1.0, 1.0]
        assert _most_violated(c, p, 1, set()) == (0,)
        assert _most_violated(c, p, 1, {(0,)}) is None

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
                columns = [model.variables.index(f"C[{lid}]") for lid in subset]
                model.add_row(columns, [p[lid] for lid in subset],
                              load_rhs([p[lid] for lid in subset], 2))
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

    @pytest.mark.parametrize("name, m", POOL_CASES)
    def test_cut_pool_is_the_singletons_then_one_cut_per_round(self, name, m):
        inst = case_instance(name)
        p = inst.repair_times()
        positive = [lid for lid in sorted(p) if p[lid] > 0]
        sol = solve_relaxation(inst, crews=m)
        assert len(sol.cuts) == len(positive) + sol.iterations - 1
        assert [cut.lines for cut in sol.cuts[:len(positive)]] == [
            frozenset((lid,)) for lid in positive]
        for cut in sol.cuts:
            assert cut.rhs == load_rhs([p[j] for j in cut.lines], m)

    def test_objective_history_monotone(self, fork, feeder123):
        for inst, m in ((fork, 2), (feeder123, 3)):
            sol = solve_relaxation(inst, crews=m)
            for earlier, later in zip(sol.objective_history, sol.objective_history[1:]):
                assert later >= earlier - 1e-9


def damaged_lines(inst):
    return sum(1 for t in inst.repair_times().values() if t > 0)


def assert_is_the_highs_answer(inst, m):
    """`solve_relaxation` takes as round 1, unsolved, the least point of the
    base and singleton rows, C = p and E = E-infinity.  Checks that HiGHS's
    cold solve of those rows returns that point exactly, that no solve it
    makes gets a model without a load cut beyond the singletons, and, where
    the least point meets every cut, that the answer is what the loop
    returned when it solved round 1: HiGHS's objective there and the
    canonical pass's point, in one round on the singleton cuts alone."""
    p = inst.repair_times()
    ids = sorted(p)
    damaged = [k for k, lid in enumerate(ids) if p[lid] > 0]  # their C columns
    times, singletons = [p[ids[k]] for k in damaged], {(i,) for i in range(len(damaged))}
    base = lp._base_model(inst, inst.islands, inst.precedence)  # built as the loop builds it
    for k, t in zip(damaged, times):
        base.add_row([k], [t], load_rhs([t], m))
    energization, _ = sched.infinite_crew_energization(inst.islands, inst.precedence, p)
    least = [p[lid] for lid in ids] + [energization[iid] for iid in inst.islands.weights]
    vertex = simplex_solve(base)
    assert vertex.values == least
    assert repr(vertex.values) == repr(least)  # no -0.0 where the least point has 0.0

    solved = []

    def record(model):
        solved.append(copy.deepcopy(model))
        return simplex_solve(model)

    with mock.patch.object(lp, "simplex_solve", record):
        try:
            sol = solve_relaxation(inst, crews=m)
        except lp.LpError:  # HiGHS failing on a later round (ROADMAP item 7), as at the parent
            sol = None
    for model in solved:  # a cut on two or more lines: the base rows each hold an E column
        rows = [model.index[model.start[k]:model.start[k + 1]] for k in range(len(model.rhs))]
        assert any(len(row) > 1 and max(row) < len(ids) for row in rows)
    if sol is None:
        assert solved  # the failure came from a solve, never from the unsolved round 1
        return
    assert first_rows(sol.model, sol.iterations) == base
    if _most_violated(times, times, m, singletons) is None:
        # equal as numbers: the canonical pass may give -0.0 where the least point has 0.0
        x = lp._canonical_pass(base, vertex.objective).values
        assert x == least == [*sol.completion.values(), *sol.energization.values()]
        assert repr(vertex.objective) == repr(sol.objective)
        assert solved == [] and sol.iterations == 1
        assert [cut.lines for cut in sol.cuts] == [frozenset((ids[k],)) for k in damaged]
    else:
        assert solved and sol.iterations >= 2


# every fixture with a crew per damaged line, and with one or two to spare
SPARE_CREW_CASES = [(f.name, max(1, damaged_lines(load_instance(f))) + spare)
                    for f in sorted(FIXTURES.glob("*.json")) for spare in (0, 1, 2)]


class TestSpareCrews:
    """Round 1 of the relaxation is the least point of the base and singleton
    rows, taken with no HiGHS solve; it is what HiGHS returns there.  With at
    most m damaged lines it is the answer, and no solve runs at all."""

    @pytest.mark.parametrize("name, m", SPARE_CREW_CASES)
    def test_fixtures_make_no_solve_and_match_highs(self, monkeypatch, name, m):
        inst = case_instance(name)
        calls = []
        monkeypatch.setattr(lp, "simplex_solve", calls.append)
        solve_relaxation(inst, crews=m)
        monkeypatch.undo()
        assert calls == []
        assert_is_the_highs_answer(inst, m)

    @pytest.mark.parametrize("name", [f.name for f in sorted(FIXTURES.glob("*.json"))])
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


def _path(times, weights):
    return validate(path_raw(times, weights))


# HiGHS rejects a matrix value of 1e15 or more and takes a bound of 1e20 or more as infinite
LIMIT_CASES = {
    "a cut's right-hand side": (_path([1e10] * 3, [1, 1, 1]),
                                "right-hand side of the load cut on ['e1', 'e2', 'e3'] 3.75e+20"),
    "a repair time of 1e15": (_path([1e15, 1, 1], [1, 1, 1]),
                              "right-hand side of the load cut on ['e1'] 7.500000000000001e+29"),
    "an island weight, a coefficient of the objective cap": (
        _path([1, 1, 1], [1, 1e16, 1]), "island 'e2' weight 1e+16 "),
    "an island weight of exactly 1e15": (_path([1, 1, 1], [1, 1e15 - 1, 1]),
                                         "island 'e2' weight 1000000000000000.0"),
    "the objective cap": (_path([1e6] * 3, [1, 1e14, 1]),
                          "objective cap of the canonical pass 1.250000001250025e+20"),
}


@pytest.mark.parametrize("case", LIMIT_CASES, ids=list(LIMIT_CASES))
def test_rows_beyond_highs_limits_are_input_errors(case):
    inst, message = LIMIT_CASES[case]
    with pytest.raises(ValidationError) as err:
        solve_relaxation(inst, crews=2)
    assert not isinstance(err.value, lp.LpError) and isinstance(err.value, ValueError)
    assert str(err.value).startswith(message) and "reaches HiGHS's limit" in str(err.value)


def test_rows_just_inside_highs_limits_solve():
    # a largest cut rhs of 3.75e18, and a weight just below 1e15: the points
    # pinned are those solve_relaxation gave before it checked HiGHS's limits
    sol = solve_relaxation(_path([1e9] * 3, [1, 1, 1]), crews=2)
    assert (sol.completion, sol.energization) == (
        {"e1": 1e9, "e2": 1.375e9, "e3": 1.375e9}, {"e1": 1e9, "e2": 1.375e9})
    sol = solve_relaxation(_path([1, 1, 1], [1, 1e15 - 2, 1]), crews=2)
    assert (sol.completion, sol.energization) == (
        {"e1": 1.2499999974999996, "e2": 1.25000000125, "e3": 1.25000000125},
        {"e1": 1.2499999974999996, "e2": 1.25000000125})


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
    worst = exhaustive_separation(sol.completion, p, m)
    assert worst.violation <= 1e-6


def prefix_orders(c, p):
    """The midpoint and completion orders of the lines with positive time."""
    lines = [j for j in sorted(p) if p[j] > 0]
    return (
        sorted(lines, key=lambda j: (c[j] - p[j] / 2.0, j)),
        sorted(lines, key=lambda j: (c[j], j)),
    )


def reference_separate(c, p, m, pooled=frozenset()):
    """The prefix-by-prefix fsum separation that `separate` must reproduce."""
    from gridrepair.lp import _violation

    best = None  # (-violation, sorted ids)
    for order in prefix_orders(c, p):
        for k in range(1, len(order) + 1):
            violation = _violation(order[:k], c, p, m)
            if violation <= 1e-7 or (best and -violation > best[0]):
                continue
            key = (-violation, sorted(order[:k]))
            if (best is None or key < best) and frozenset(key[1]) not in pooled:
                best = key
    return None if best is None else Cut(frozenset(best[1]), load_rhs([p[j] for j in best[1]], m))


def separate_pooled(c, p, m, pooled):
    """`separate` with the id subsets in `pooled` skipped: `_most_violated` on
    the lines of positive time in id order, with `pooled` by position."""
    lines = [j for j in sorted(p) if p[j] > 0]
    index = {j: k for k, j in enumerate(lines)}
    positions = {tuple(sorted(index[j] for j in s)) for s in pooled if s.issubset(index)}
    subset = _most_violated([float(c[j]) for j in lines], [float(p[j]) for j in lines], m,
                            positions)
    if subset is None:
        return None
    ids = [lines[i] for i in subset]
    return Cut(frozenset(ids), load_rhs([p[j] for j in ids], m))


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


@pytest.mark.parametrize("n_max,points", [(12, 300), (200, 20), (2000, 1)])
def test_separate_matches_reference(n_max, points):
    rng = random.Random(n_max)
    for _ in range(points):
        n = n_max if points == 1 else rng.randint(1, n_max)
        m = rng.choice([1, 2, 3])
        c, p = separation_point(rng, n, m)
        first = reference_separate(c, p, m)
        cases = [(frozenset(), first)]
        if first is not None:  # pool the maximum, then the runner-up too
            second = reference_separate(c, p, m, {first.lines})
            cases.append(({first.lines}, second))
            if second is not None and points > 1:
                pooled = {first.lines, second.lines}
                cases.append((pooled, reference_separate(c, p, m, pooled)))
        if points > 1:
            orders = prefix_orders(c, p)
            prefixes = [frozenset(o[:k]) for o in orders for k in range(1, len(o) + 1)]
            pooled = set(rng.sample(prefixes, min(len(prefixes), 5)))
            cases.append((pooled, reference_separate(c, p, m, pooled)))
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


@pytest.mark.parametrize("n, points", [(n, 160) for n in range(1, 9)] + [(60, 40), (400, 8)])
def test_most_violated_matches_reference(n, points):
    """The plain-Python separation core returns the subset the NumPy form
    returns: with nothing, the best cuts, a sample or every prefix pooled."""
    rng = random.Random(n)
    unviolated = ties = 0
    for k in range(points):
        m = rng.choice([1, 2, 3])
        c, p = differential_point(rng, n, m, POINT_KINDS[k % len(POINT_KINDS)])
        every = prefixes(c, p)
        first = reference_most_violated(c, p, m, set())
        cases = [set(), set(rng.sample(every, min(len(every), 5))), set(every)]
        if first is None:
            unviolated += 1
        else:  # pool the maximum, then the runner-up too
            cases += [{first}, {first, reference_most_violated(c, p, m, {first})}]
            if n <= 8:  # an exact tie in violation, broken by the sorted positions
                violations = [lp._violation(s, c, p, m) for s in every]
                ties += violations.count(max(violations)) > 1
        for pooled in cases:
            assert _most_violated(c, p, m, pooled) == reference_most_violated(c, p, m, pooled)
        assert _most_violated(c, p, m, set(every)) is None
    assert unviolated and (ties or n == 1 or n > 8)
