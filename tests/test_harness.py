import csv
import dataclasses
import functools
import io
import json
import os

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from gridrepair import algos, harness, lp, oracle
from gridrepair.harness import (
    GenParams,
    generate_random,
    instance_from_json,
    load_instance,
    rows_to_csv,
    run_bench,
)
from gridrepair.model import ValidationError, partition_islands, validate

from conftest import TIMING_COLUMNS, instance_to_json, save_instance


@pytest.mark.parametrize("name", ["fork.json", "two_island.json", "graham_m3.json",
                                  "feeder123.json"])
def test_result_text_is_the_indented_json_dump(fixtures_dir, name):
    inst = load_instance(fixtures_dir / name)
    results = [algos.single_optimal(inst)] + [
        alg(inst, crews=m) for alg in (algos.lp_list_schedule, algos.convert_single_to_m)
        for m in (1, 2, 3)
    ]
    if name == "fork.json":  # more crews than lines: a crew with no assignment
        results += [algos.lp_list_schedule(inst, crews=5), algos.convert_single_to_m(inst, crews=5)]
        assert () in results[-1].schedule.crews
    for result in results:
        want = json.dumps(harness.result_to_json(result), indent=2)
        assert harness.result_to_text(result) == want


AWKWARD_IDS = ["%", "%s", "%%", '"', "\\", "{}", "%(x)s {0}", "\u00fc\u20ac", "\u2028",
               "\x00\x1f", "\U0001f50c"]


def _chain(ids, times, switches=None):
    """A path feeder root -> a -> b -> ..., one line per id, every node weighing 1."""
    nodes = ["root", *(f"node {k}" for k in range(len(ids)))]
    switches = switches or [k % 2 == 1 for k in range(len(ids))]
    return validate({
        "root": "root", "crews": 1,
        "nodes": [{"id": nid, "weight": 1} for nid in nodes],
        "lines": [{"id": lid, "from": nodes[k], "to": nodes[k + 1], "repair_time": p,
                   "switch": sw} for k, (lid, p, sw) in enumerate(zip(ids, times, switches))],
    })


TEXT_CASES = {
    "more crews than lines": (_chain(["a", "b", "c"], [1, 2, 3]), 5),
    "every repair time 0": (_chain(["a", "b", "c", "d"], [0, 0, 0, 0]), 2),
    "awkward ids": (_chain(AWKWARD_IDS, range(1, len(AWKWARD_IDS) + 1)), 3),
    "awkward ids, no switches": (
        _chain(AWKWARD_IDS, [2] * len(AWKWARD_IDS), [False] * len(AWKWARD_IDS)), 2),
    "extreme times": (_chain(["a", "b", "c", "d", "e"], [5e-324, 1e-7, 1e16, 0.0, 1e-7]), 2),
}


@pytest.mark.parametrize("case", TEXT_CASES, ids=list(TEXT_CASES))
def test_result_text_matches_the_dump_on_edge_cases(case):
    inst, m = TEXT_CASES[case]
    results = [algos.single_optimal(inst), algos.convert_single_to_m(inst, crews=m),
               algos.convert_single_to_m(inst, crews=m, within_island_order="reversed")]
    if case != "extreme times":  # 1e16 is beyond HiGHS's largest matrix value
        results.append(algos.lp_list_schedule(inst, crews=m))
    for result in results:
        assert harness.result_to_text(result) == json.dumps(harness.result_to_json(result),
                                                            indent=2)


class TestLoadSave:
    def test_fixture_round_trip(self, two_island, tmp_path):
        path = tmp_path / "copy.json"
        save_instance(path, two_island)
        assert load_instance(path) == two_island

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"root": "0",\n  "crews": }')
        with pytest.raises(ValidationError, match=r"^Expecting value \(line 2, column 12\)$"):
            load_instance(path)

    def test_unknown_field_rejected(self, two_island):
        raw = instance_to_json(two_island)
        raw["lines"][0]["voltage"] = 11.0
        with pytest.raises(ValidationError, match="^line entry 0 has unknown field 'voltage'$"):
            instance_from_json(raw)

    def test_unknown_top_level_field_rejected(self, two_island):
        raw = instance_to_json(two_island)
        raw["feeder"] = "IEEE-123"
        with pytest.raises(ValidationError, match="^instance has unknown field 'feeder'$"):
            instance_from_json(raw)

    def test_missing_field_named(self, two_island):
        raw = instance_to_json(two_island)
        del raw["crews"]
        with pytest.raises(ValidationError, match="^instance is missing field 'crews'$"):
            instance_from_json(raw)

    def test_result_json_shape(self, fork):
        result = algos.convert_single_to_m(fork, crews=2)
        payload = harness.result_to_json(result)
        assert payload["algorithm"] == "convert"
        assert payload["crews"] == 2
        assert payload["harm"] == 21
        assert len(payload["assignments"]) == 2
        assert set(payload["energization"]) == {"a", "b", "c"}
        json.dumps(payload)  # serializable


class TestGenerator:
    def test_same_seed_same_bytes(self):
        params = GenParams(seed=1, nodes=(5, 5))
        a = json.dumps(instance_to_json(generate_random(params)))
        b = json.dumps(instance_to_json(generate_random(params)))
        assert a == b

    def test_different_seeds_differ(self):
        a = generate_random(GenParams(seed=1, nodes=(6, 6)))
        b = generate_random(GenParams(seed=2, nodes=(6, 6)))
        assert instance_to_json(a) != instance_to_json(b)

    def test_switch_probability_zero_single_island(self):
        inst = generate_random(GenParams(seed=7, nodes=(8, 8), switch_probability=0.0))
        assert len(partition_islands(inst).islands) == 1

    def test_switch_probability_one_all_singletons(self):
        inst = generate_random(GenParams(seed=7, nodes=(8, 8), switch_probability=1.0))
        islands = partition_islands(inst)
        # every non-root node alone with its switch line, the source by itself
        non_root = [isl for isl in islands.islands if isl.line_ids]
        assert len(non_root) == len(inst.lines)
        assert all(len(isl.line_ids) == 1 for isl in non_root)
        assert len(islands.islands) == len(inst.lines) + 1

    @given(st.integers(0, 2**31 - 1), st.sampled_from([(2, 9), (1, 1)]))
    @example(15, (1, 1))  # one node, whose first weight drawn is 0
    @settings(max_examples=100, deadline=None)
    def test_always_validates(self, seed, nodes):
        generate_random(GenParams(seed=seed, nodes=nodes))  # validate() runs inside


class TestBench:
    def test_small_run_and_csv(self, tmp_path):
        out = tmp_path / "bench.csv"
        rows = run_bench(GenParams(seed=11, nodes=(2, 6), crews=(2,)), 6, out_path=out)
        assert len(rows) == 6
        text = out.read_text()
        parsed = list(csv.reader(io.StringIO(text)))
        assert parsed[0] == harness.BENCH_COLUMNS
        assert len(parsed) == 7

    def test_rows_respect_bound_ordering(self):
        rows = run_bench(GenParams(seed=23, nodes=(2, 7), crews=(2, 3)), 5)
        for row in rows:
            assert row.h_opt is not None
            assert row.h_infinite <= row.h_opt + 1e-9
            assert row.h_opt <= row.h_alg1 + 1e-9
            assert row.h_opt <= row.h_alg2 + 1e-9
            assert row.h_lp <= row.h_opt + 1e-6

    def test_deterministic_modulo_timing(self):
        def strip(rows):
            keep = [
                k for k, col in enumerate(harness.BENCH_COLUMNS)
                if col not in TIMING_COLUMNS
            ]
            parsed = list(csv.reader(io.StringIO(rows_to_csv(rows))))
            return [[line[k] for k in keep] for line in parsed]

        params = GenParams(seed=5, nodes=(2, 6), crews=(2,))
        assert strip(run_bench(params, 5)) == strip(run_bench(params, 5))

    def test_beyond_the_oracle_leaves_its_cells_empty(self):
        instance = generate_random(GenParams(seed=7, nodes=(11, 11), repair_time=(1, 10)))
        assert sum(1 for p in instance.repair_times().values() if p > 0) == 10
        row = harness.bench_instance("gen-7", instance, 2)
        assert row.h_opt is None and row.t_oracle == 0.0
        assert (row.ratio_alg1, row.ratio_alg2, row.ratio_lp) == (None, None, None)
        header, line = list(csv.reader(io.StringIO(rows_to_csv([row]))))
        cells = dict(zip(header, line))
        assert [cells[k] for k in ("h_opt", "ratio_alg1", "ratio_alg2", "ratio_lp")] == [""] * 4
        assert cells["t_oracle"] == "0" and cells["h_alg1"] != ""

    def test_all_undamaged_instance_zero_harm(self):
        params = GenParams(seed=2, nodes=(5, 5), repair_time=(0, 0))
        rows = run_bench(params, 1)
        assert all(row.h_alg1 == 0 and row.h_alg2 == 0 and row.h_opt == 0 for row in rows)

    def test_row_derives_each_value_once(self, monkeypatch):
        from gridrepair import model, seq_opt
        from gridrepair import schedule as sched

        calls = {"partition": 0, "precedence": 0, "order": 0, "infinite": 0, "single": 0,
                 "one_crew_plan": 0}

        def counting(key, fn, when=lambda *a: True):
            def wrapper(*args, **kwargs):
                calls[key] += when(*args)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(model, "partition_islands",
                            counting("partition", model.partition_islands))
        monkeypatch.setattr(model, "build_precedence_graph",
                            counting("precedence", model.build_precedence_graph))
        order = functools.cached_property(
            counting("order", model.PrecedenceGraph.topological_order.func))
        order.__set_name__(model.PrecedenceGraph, "topological_order")
        monkeypatch.setattr(model.PrecedenceGraph, "topological_order", order)
        monkeypatch.setattr(sched, "infinite_crew_energization",
                            counting("infinite", sched.infinite_crew_energization))
        monkeypatch.setattr(seq_opt, "optimal_single_crew_harm",
                            counting("single", seq_opt.optimal_single_crew_harm))
        monkeypatch.setattr(sched, "list_schedule",
                            counting("one_crew_plan", sched.list_schedule,
                                     lambda priority, m, times: m == 1))
        instance = generate_random(GenParams(seed=4, nodes=(7, 7)))
        harness.bench_instance("gen-4", instance, 2)
        assert calls == {"partition": 1, "precedence": 1, "order": 1, "infinite": 1,
                         "single": 1, "one_crew_plan": 1}

    def test_violation_writes_the_instance_for_replay(self, tmp_path, monkeypatch):
        from gridrepair import oracle

        certify = oracle.certify_row

        def fail_on_gen_13(name, *args):
            if name == "gen-13":
                raise oracle.InvariantViolation(f"{name} (m=2): fabricated for the test")
            return certify(name, *args)

        monkeypatch.setattr(oracle, "certify_row", fail_on_gen_13)
        params = GenParams(seed=11, nodes=(2, 6), crews=(2, 3))
        out = tmp_path / "bench.csv"
        with pytest.raises(oracle.InvariantViolation, match=r"^gen-13 \(m=2\): fabricated"):
            run_bench(params, 4, out_path=out, jobs=1)
        assert not out.exists()
        replay = json.loads((tmp_path / "bench.csv.violation.json").read_text())
        assert instance_from_json(replay) == generate_random(dataclasses.replace(params, seed=13))

    def test_the_incumbent_changes_no_cell(self, monkeypatch):
        """`bench_instance` gives the oracle the better list schedule's harm; the
        rows, timings aside, are those of an oracle that finds its own."""
        params = GenParams(seed=160, nodes=(2, 10), crews=(1, 2, 3, 4))
        strip = lambda rows: [
            {k: v for k, v in dataclasses.asdict(r).items() if not k.startswith("t_")}
            for r in rows
        ]
        rows = run_bench(params, 40, jobs=1)
        damaged = [sum(1 for t in generate_random(dataclasses.replace(params, seed=seed))
                       .repair_times().values() if t > 0) for seed in range(160, 200)]
        assert damaged.count(8) == damaged.count(9) == 4  # where the bound prunes
        brute_force_optimal = oracle.brute_force_optimal
        monkeypatch.setattr(oracle, "brute_force_optimal",
                            lambda instance, m, incumbent=None: brute_force_optimal(instance, m))
        assert strip(run_bench(params, 40, jobs=1)) == strip(rows)

    def test_an_oracle_violation_is_named_for_replay(self, tmp_path, monkeypatch):
        def wrong_incumbent(instance, m, incumbent=None):
            raise oracle.InvariantViolation("fabricated for the test")

        monkeypatch.setattr(oracle, "brute_force_optimal", wrong_incumbent)
        out = tmp_path / "bench.csv"
        with pytest.raises(oracle.InvariantViolation, match=r"^gen-11 \(m=2\): fabricated"):
            run_bench(GenParams(seed=11, nodes=(2, 6), crews=(2, 3)), 4, out_path=out)
        assert (tmp_path / "bench.csv.violation.json").exists()

    def test_each_row_validates_its_instance_once(self, monkeypatch):
        calls = []
        validate = harness.validate
        monkeypatch.setattr(harness, "validate", lambda raw: calls.append(raw) or validate(raw))
        rows = run_bench(GenParams(seed=11, nodes=(2, 6), crews=(2, 3)), 4, jobs=1)
        assert len(rows) == len(calls) == 4 * 2

    def test_worker_pool_matches_serial(self):
        params = GenParams(seed=31, nodes=(2, 5), crews=(2,))
        serial = run_bench(params, 4, jobs=1)
        parallel = run_bench(params, 4, jobs=2)
        strip = lambda rows: [
            (r.instance, r.crews, r.h_lp, r.h_alg1, r.h_alg2, r.h_opt) for r in rows
        ]
        assert strip(serial) == strip(parallel)

    def test_forked_workers_after_a_parent_solve(self, two_island):
        # the parent holds its shared HiGHS instance before the pool forks
        lp.solve_relaxation(two_island, crews=2)
        assert lp._shared[0] == os.getpid()
        params = GenParams(seed=47, nodes=(2, 7), crews=(2, 3))
        strip = lambda rows: [
            {k: v for k, v in dataclasses.asdict(r).items() if not k.startswith("t_")}
            for r in rows
        ]
        assert strip(run_bench(params, 6, jobs=2)) == strip(run_bench(params, 6, jobs=1))
