import csv
import io
import json

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from gridrepair import algos, harness
from gridrepair.harness import (
    GenParams,
    ParseError,
    generate_corpus,
    generate_random,
    instance_from_json,
    instance_to_json,
    load_instance,
    rows_to_csv,
    run_bench,
)
from gridrepair.model import SchemaError, partition_islands


class TestLoadSave:
    def test_fixture_round_trip(self, two_island, tmp_path):
        path = tmp_path / "copy.json"
        harness.save_instance(path, two_island)
        assert load_instance(path) == two_island

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"root": "0",\n  "crews": }')
        with pytest.raises(ParseError) as err:
            load_instance(path)
        assert err.value.line == 2 and err.value.column > 0

    def test_unknown_field_rejected(self, two_island):
        raw = instance_to_json(two_island)
        raw["lines"][0]["voltage"] = 11.0
        with pytest.raises(SchemaError, match="voltage"):
            instance_from_json(raw)

    def test_unknown_top_level_field_rejected(self, two_island):
        raw = instance_to_json(two_island)
        raw["feeder"] = "IEEE-123"
        with pytest.raises(SchemaError, match="feeder"):
            instance_from_json(raw)

    def test_missing_field_named(self, two_island):
        raw = instance_to_json(two_island)
        del raw["crews"]
        with pytest.raises(SchemaError, match="crews"):
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

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=100, deadline=None)
    def test_always_validates(self, seed):
        generate_random(GenParams(seed=seed))  # validate() runs inside

    def test_corpus_filter(self):
        corpus = generate_corpus(
            GenParams(seed=0, nodes=(3, 9)), 20, max_islands=3
        )
        assert len(corpus) == 20
        for _, inst in corpus:
            assert len(partition_islands(inst).islands) <= 3


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
                if col not in harness.TIMING_COLUMNS
            ]
            parsed = list(csv.reader(io.StringIO(rows_to_csv(rows))))
            return [[line[k] for k in keep] for line in parsed]

        params = GenParams(seed=5, nodes=(2, 6), crews=(2,))
        assert strip(run_bench(params, 5)) == strip(run_bench(params, 5))

    def test_all_undamaged_instance_zero_harm(self):
        params = GenParams(seed=2, nodes=(5, 5), repair_time=(0, 0))
        rows = run_bench(params, 1)
        assert all(row.h_alg1 == 0 and row.h_alg2 == 0 and row.h_opt == 0 for row in rows)

    def test_row_derives_each_value_once(self, monkeypatch):
        from gridrepair import model, seq_opt
        from gridrepair import schedule as sched

        calls = {"partition": 0, "infinite": 0, "single": 0, "one_crew_plan": 0}

        def counting(key, fn, when=lambda *a: True):
            def wrapper(*args, **kwargs):
                calls[key] += when(*args)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(model, "partition_islands",
                            counting("partition", model.partition_islands))
        monkeypatch.setattr(sched, "infinite_crew_energization",
                            counting("infinite", sched.infinite_crew_energization))
        monkeypatch.setattr(seq_opt, "optimal_single_crew_harm",
                            counting("single", seq_opt.optimal_single_crew_harm))
        monkeypatch.setattr(sched, "list_schedule",
                            counting("one_crew_plan", sched.list_schedule,
                                     lambda priority, m, times: m == 1))
        instance = generate_random(GenParams(seed=4, nodes=(7, 7)))
        harness.bench_instance("gen-4", instance, 2)
        assert calls == {"partition": 1, "infinite": 1, "single": 1, "one_crew_plan": 1}

    def test_worker_pool_matches_serial(self):
        params = GenParams(seed=31, nodes=(2, 5), crews=(2,))
        serial = run_bench(params, 4, jobs=1)
        parallel = run_bench(params, 4, jobs=2)
        strip = lambda rows: [
            (r.instance, r.crews, r.h_lp, r.h_alg1, r.h_alg2, r.h_opt) for r in rows
        ]
        assert strip(serial) == strip(parallel)
