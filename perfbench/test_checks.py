"""Tests for the benchmark's own output checks and input generator.

    python3 -m pytest perfbench/test_checks.py -q

Each check must pass on the program's real outputs and fail on a
deliberately corrupted copy of them.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
from gridrepair import algos, harness, oracle  # noqa: E402
from gridrepair.model import partition_islands, validate  # noqa: E402

FIXTURES = HERE.parent / "fixtures"


def _raw(name: str) -> dict:
    return json.loads((FIXTURES / name).read_text())


def _output(raw: dict, alg: str, m: int) -> dict:
    instance = harness.instance_from_json(raw)
    if alg == "convert":
        result = algos.convert_single_to_m(instance, crews=m)
    else:
        result = algos.lp_list_schedule(instance, crews=m)
    return json.loads(json.dumps(harness.result_to_json(result)))


@pytest.fixture(scope="module")
def feeder123():
    raw = _raw("feeder123.json")
    return raw, checks.Feeder.from_raw(raw)


@pytest.fixture(scope="module")
def medium():
    spec = gen.WORKLOADS["lp-feeders"]
    raw = gen.feeder(random.Random(7), 60, spec, 3)
    return raw, checks.Feeder.from_raw(raw)


def _problems(case, out, m=3, convert=False):
    raw, feeder = case
    return checks.check_schedule(feeder, out, m, convert)


class TestFeeder:
    @pytest.mark.parametrize("name", ["two_island.json", "fork.json", "graham_m3.json",
                                      "feeder123.json"])
    def test_islands_agree_with_program(self, name):
        raw = _raw(name)
        feeder = checks.Feeder.from_raw(raw)
        islands = partition_islands(harness.instance_from_json(raw))
        assert {i.id: sorted(i.line_ids) for i in islands.islands} == feeder.members
        assert {i.id: i.weight for i in islands.islands} == feeder.weight

    def test_root_island_without_lines_takes_root_id(self):
        raw = {"root": "a", "crews": 1,
               "nodes": [{"id": "a", "weight": 0}, {"id": "b", "weight": 1}],
               "lines": [{"id": "e", "from": "b", "to": "a", "repair_time": 2, "switch": True}]}
        feeder = checks.Feeder.from_raw(raw)
        assert feeder.members == {"a": [], "e": ["e"]}
        assert feeder.parent == {"e": "a"}


class TestSchedule:
    @pytest.mark.parametrize("alg", ["convert", "lp-list"])
    def test_program_outputs_pass(self, feeder123, medium, alg):
        for case in (feeder123, medium):
            out = _output(case[0], alg, 3)
            assert _problems(case, out, convert=alg == "convert") == []

    def test_shifted_completion_fails(self, feeder123):
        out = _output(feeder123[0], "convert", 3)
        out["assignments"][1][2]["completion"] += 1.0
        assert any("completion - start" in p for p in _problems(feeder123, out))

    def test_shifted_job_leaves_an_idle_gap(self, feeder123):
        out = _output(feeder123[0], "convert", 3)
        job = out["assignments"][0][-1]
        job["start"] += 1.0
        job["completion"] += 1.0
        assert any("idles" in p for p in _problems(feeder123, out))

    def test_dropped_line_fails(self, feeder123):
        out = _output(feeder123[0], "lp-list", 3)
        out["assignments"][2].pop()
        assert any("never assigned" in p for p in _problems(feeder123, out))

    def test_duplicated_line_fails(self, feeder123):
        out = _output(feeder123[0], "lp-list", 3)
        crew = out["assignments"][0]
        last = crew[-1]
        crew.append({"line": crew[0]["line"], "start": last["completion"],
                     "completion": last["completion"] + feeder123[1].p[crew[0]["line"]]})
        assert any("assigned twice" in p for p in _problems(feeder123, out))

    def test_wrong_crew_count_fails(self, feeder123):
        out = _output(feeder123[0], "convert", 3)
        assert _problems(feeder123, out, m=2)

    def test_wrong_harm_fails(self, medium):
        out = _output(medium[0], "lp-list", 3)
        out["harm"] += 1.0
        assert any("reported harm" in p for p in _problems(medium, out))

    def test_wrong_energization_fails(self, medium):
        out = _output(medium[0], "convert", 3)
        island = sorted(out["energization"])[-1]
        out["energization"][island] += 0.5
        assert any(f"island {island}" in p for p in _problems(medium, out, convert=True))

    def test_missing_island_fails(self, medium):
        out = _output(medium[0], "convert", 3)
        out["energization"].pop(sorted(out["energization"])[0])
        assert any("islands differ" in p for p in _problems(medium, out))

    def test_harm_below_unlimited_crew_bound_fails(self, medium):
        out = _output(medium[0], "lp-list", 3)
        out["harm"] = 0.5 * medium[1].harm(medium[1].unlimited_crews())
        assert any("unlimited-crew bound" in p for p in _problems(medium, out))

    def test_unbalanced_crews_fail_list_and_conversion_bounds(self):
        # one crew takes four unit jobs while the other stops after one:
        # no list schedule does that, and the island finishes too late
        nodes = [{"id": "r", "weight": 0}] + [{"id": f"v{k}", "weight": 1} for k in range(5)]
        lines = [{"id": f"e{k}", "from": "r", "to": f"v{k}", "repair_time": 1, "switch": False}
                 for k in range(5)]
        feeder = checks.Feeder.from_raw({"root": "r", "crews": 2, "nodes": nodes,
                                         "lines": lines})
        crews = [[{"line": f"e{k}", "start": float(k), "completion": float(k + 1)}
                  for k in range(4)],
                 [{"line": "e4", "start": 0.0, "completion": 1.0}]]
        out = {"crews": 2, "assignments": crews, "energization": {"e0": 4.0}, "harm": 20.0}
        problems = checks.check_schedule(feeder, out, 2, convert=True)
        assert any("after the average load" in p for p in problems)
        assert any("E1/m" in p for p in problems)


class TestBenchRow:
    @pytest.fixture(scope="class")
    def rows(self):
        out = []
        for seed in range(40, 52):
            raw = gen.small_instance(seed, gen.WORKLOADS["certify-small"])
            for m in (2, 3):
                row = harness.bench_instance(f"gen-{seed}", harness.instance_from_json(raw), m)
                out.append((checks.Feeder.from_raw(raw), vars(row).copy(), m))
        return out

    def test_program_rows_pass(self, rows):
        for feeder, row, m in rows:
            assert checks.check_row(feeder, row, m) == []

    @pytest.mark.parametrize("field, corrupt, message", [
        ("h_opt", lambda row: row["h_opt"] + 1.0, "h_opt"),
        ("h_infinite", lambda row: row["h_infinite"] + 1.0, "h_infinite"),
        ("h_single", lambda row: row["h_single"] - 1.0, "h_single"),
        ("h_lp", lambda row: row["h_opt"] * 1.01, "h_lp"),
        ("h_alg1", lambda row: row["h_opt"] * 0.99, "below opt"),
        ("h_alg2", lambda row: row["h_opt"] * 0.99, "below opt"),
        ("islands", lambda row: row["islands"] + 1, "islands"),
        ("lines", lambda row: row["lines"] - 1, "lines"),
    ])
    def test_corrupted_row_fails(self, rows, field, corrupt, message):
        feeder, row, m = max(rows, key=lambda r: r[1]["h_opt"])
        bad = dict(row, **{field: corrupt(row)})
        assert any(message in p for p in checks.check_row(feeder, bad, m))

    def test_ratio_bounds(self, rows):
        feeder, row, m = max(rows, key=lambda r: r[1]["h_opt"])
        opt = row["h_opt"]
        bad = dict(row, h_alg2=(2.0 - 1.0 / m) * opt * 1.01)
        assert any("(2 - 1/m)" in p for p in checks.check_row(feeder, bad, m))
        bad = dict(row, h_alg1=2.0 * opt * 1.01)
        assert any("2 * opt" in p for p in checks.check_row(feeder, bad, m))

    @pytest.mark.parametrize("seed", range(100, 130))
    def test_brute_force_agrees_with_oracle(self, seed):
        raw = gen.small_instance(seed, gen.WORKLOADS["certify-small"])
        instance = harness.instance_from_json(raw)
        feeder = checks.Feeder.from_raw(raw)
        for m in (1, 2, 3):
            assert checks.optimum(feeder, m) == pytest.approx(
                oracle.brute_force_optimal(instance, m).harm, rel=1e-12)


class TestGenerator:
    def test_small_instances_are_the_standard_corpus(self):
        spec = gen.WORKLOADS["certify-small"]
        params = harness.GenParams(seed=0)
        for seed in range(200, 260):
            ours = validate(gen.small_instance(seed, spec))
            theirs = harness.generate_random(harness.GenParams(
                seed=seed, nodes=params.nodes, switch_probability=spec["switch_probability"],
                repair_time=spec["repair_time"], weight=spec["weight"], crews=spec["crews"]))
            assert ours == theirs

    def test_same_seed_same_bytes(self, tmp_path):
        first = gen.build("convert-xl", 3, tmp_path / "a")
        second = gen.build("convert-xl", 3, tmp_path / "b")
        assert first["ops"] == second["ops"]
        for op in first["ops"]:
            assert (tmp_path / "a" / op["file"]).read_bytes() == \
                (tmp_path / "b" / op["file"]).read_bytes()

    def test_feeders_have_a_fixed_switch_count(self):
        spec = gen.WORKLOADS["lp-feeders"]
        rng = random.Random(1)
        for lines in (80, 101, 120):
            raw = gen.feeder(rng, lines, spec, 3)
            assert sum(ln["switch"] for ln in raw["lines"]) == round(0.1 * lines)


def test_tail_has_ten_samples_beyond_it():
    samples = [float(k) for k in range(40)]
    assert run.tail(samples) == 29.0
    assert sum(s > run.tail(samples) for s in samples) == run.TAIL_BEYOND


def _result(ops, times, reference):
    return {"records": [{"op": op} for op in ops], "times": times, "reference": reference}


def test_times_are_scaled_by_the_reference_samples_around_them():
    slow = 2 * run.REFERENCE_S
    result = _result([0, 2], [0.010, 0.030], [(0, slow), (1, slow), (2, slow)])
    assert run.scaled_times(result) == pytest.approx({0: 0.005, 2: 0.015})


def test_op_times_skip_operations_that_failed():
    ref = [(0, run.REFERENCE_S), (1, run.REFERENCE_S), (2, run.REFERENCE_S)]
    first = [_result([0, 2], [0.003, 0.001], ref), _result([1], [0.002], ref[:2])]
    second = [_result([0, 2], [0.001, None], ref), _result([1], [0.004], ref[:2])]
    assert run.op_times(first + second) == pytest.approx([0.002, 0.003])
