"""The calls the traced benchmark makes into the program, as it makes them.

`perfbench/worker.py`'s `layers` calls each layer's public function
directly, by position where it passes arguments by position.  The suite
collects `perfbench/test_checks.py` too, but that file makes none of these
traced layer calls, so this test makes every one of them, with the same
argument shapes, on one fixture: a signature change that would crash a
traced run fails here.
"""

import pytest

from gridrepair import algos, harness, lp, model, oracle, schedule, seq_opt


def test_traced_layer_calls(fixtures_dir):
    instance, m = harness.load_instance(fixtures_dir / "two_island.json"), 2
    p = instance.repair_times()
    islands = model.partition_islands(instance)
    assert (len(instance.lines), len(islands.islands)) == (2, 2)
    assert model.derive_line_weights(instance) == {"e1": 1.0, "e2": 10.0}
    prec = model.build_precedence_graph(instance, islands)

    sol = lp.solve_relaxation(instance, islands, prec, crews=m)
    assert sol.iterations >= 1 and len(sol.cuts) == sol.iterations - 1
    assert lp.simplex_solve(sol.model).objective == sol.objective
    assert lp.separate(sol.completion, p, m) is None
    results = [algos.lp_list_schedule(instance, crews=m, solution=sol)]

    single = seq_opt.optimal_single_crew_harm(instance)
    assert list(single.island_order) == seq_opt.optimal_island_sequence(islands, prec)
    results.append(algos.convert_single_to_m(instance, crews=m))
    energization, _ = schedule.infinite_crew_energization(islands, prec, p)
    assert energization == {"e1": 2.0, "e2": 2.0}

    for result in results:
        plan = schedule.list_schedule(list(result.schedule.priority), m, p)
        assert plan == result.schedule
        assert schedule.energization_times(result.schedule, islands, prec) == result.energization
        assert harness.result_to_json(result)["crews"] == m
    assert oracle.brute_force_optimal(instance, m).enumerated == 2
    harness.bench_instance("warmup", instance, 2)


@pytest.mark.parametrize("name, m", [("feeder123.json", 3), ("fork.json", 2)])
def test_the_traced_relaxation_reads_the_instance_tables(fixtures_dir, name, m):
    """`solve_relaxation` takes `islands` and `precedence` by position only so
    that the traced call runs: built afresh, as that call builds them, they
    give the answer of the call without them; another instance's raise."""
    instance = harness.load_instance(fixtures_dir / name)
    islands = model.partition_islands(instance)
    prec = model.build_precedence_graph(instance, islands)
    traced = lp.solve_relaxation(instance, islands, prec, crews=m)
    fresh = harness.load_instance(fixtures_dir / name)
    assert traced == lp.solve_relaxation(fresh, crews=m)
    assert len(traced.cuts) > 0
    other = harness.load_instance(fixtures_dir / "two_island.json")
    for given in ((other.islands, None), (None, other.precedence), (other.islands, prec)):
        with pytest.raises(ValueError, match="must be the instance's own"):
            lp.solve_relaxation(instance, *given, crews=m)
