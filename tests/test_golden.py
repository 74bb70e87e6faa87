"""Differential guard: CLI outputs on the bundled fixtures against recorded ones.

`golden.json` holds, per fixture, the `islands` output and the `schedule`
JSON of `convert` and `single-optimal` at m = 1, 2, 3 byte for byte, plus
the `lp-list` harm and LP objective (compared at relative tolerance 1e-9,
since HiGHS may land on a different float).  For the three small fixtures
it also holds the `schedule --alg lp-list --dump-lp` text at m = 1, 2, 3,
byte for byte: the final model is data, not a solver answer.  Under
`generated-lp-list` it holds the `schedule --alg lp-list --crews 3` JSON of
three generated 60-line feeders, byte for byte.  Under `oracle` it holds
the `oracle` JSON of the three small fixtures at m = 1, 2, 3 and of
generated feeders with 7, 8 and 9 damaged lines at m = 1, 2, 3, 4 and n,
byte for byte.
Under `convert-orders` it holds the `schedule --alg convert` JSON with
`--within-island-order reversed` and `adversarial-longest-last` at
m = 1, 2, 3 on `feeder123.json` and the three generated feeders, and under
`bench` the CSV of `bench --seed 1000 --count 40 --max-lines 8 --crews 2,3`
without its timing columns, both byte for byte.  Under `convert-scale` it
holds the sha256 of the `schedule --alg convert` JSON of generated 600-,
900- and 1200-line feeders at m = 1, 2, 3 and every within-island order.
A refactor must reproduce them unchanged.  Regenerate only for a deliberate output change:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import csv
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from gridrepair import algos
from gridrepair.cli import EXIT_OK, main
from gridrepair.harness import GenParams, generate_random, load_instance

from conftest import TIMING_COLUMNS, save_instance

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden.json"
NAMES = ("fork.json", "two_island.json", "graham_m3.json", "feeder123.json")
CREWS = (1, 2, 3)
DUMP_LP_NAMES = ("fork.json", "two_island.json", "graham_m3.json")
GENERATED = "generated-lp-list"
GENERATED_SEEDS = (1, 2, 3)
ORACLE = "oracle"
ORACLE_GENERATED_LINES = (7, 8, 9)
CONVERT_ORDERS = "convert-orders"
CONVERT_ORDER_SOURCES = ("feeder123.json", "generated-1", "generated-2", "generated-3")
NON_DEFAULT_ORDERS = ("reversed", "adversarial-longest-last")
BENCH = "bench"
CONVERT_SCALE = "convert-scale"
CONVERT_SCALE_LINES = (600, 900, 1200)


def _stdout(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == EXIT_OK
    return buf.getvalue()


def _dump_lp(path: str, m: int) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        dump = Path(tmp) / "model.txt"
        _stdout(["schedule", path, "--alg", algos.LP_LIST, "--crews", str(m),
                 "--dump-lp", str(dump)])
        return dump.read_text()


def fixture_outputs(name: str) -> dict:
    path = str(FIXTURES / name)
    out = {"islands": _stdout(["islands", path])}
    for alg in (algos.CONVERT, algos.SINGLE_OPTIMAL):
        out[alg] = {
            str(m): _stdout(["schedule", path, "--alg", alg, "--crews", str(m)])
            for m in CREWS
        }
    instance = load_instance(path)
    out[algos.LP_LIST] = {}
    for m in CREWS:
        result = algos.lp_list_schedule(instance, crews=m)
        out[algos.LP_LIST][str(m)] = {
            "harm": result.harm,
            "objective": result.lp.objective,
        }
    if name in DUMP_LP_NAMES:
        out["dump_lp"] = {str(m): _dump_lp(path, m) for m in CREWS}
    return out


def _generated(seed: int, tmp: str) -> str:
    """Writes a generated 60-line feeder with about 10 % switches under `tmp`."""
    params = GenParams(seed=seed, nodes=(61, 61), switch_probability=0.1,
                       repair_time=(1, 10), crews=(3,))
    path = Path(tmp) / "feeder.json"
    save_instance(path, generate_random(params))
    return str(path)


def generated_lp_list(seed: int) -> str:
    """lp-list JSON of a generated feeder, m = 3."""
    with tempfile.TemporaryDirectory() as tmp:
        return _stdout(["schedule", _generated(seed, tmp), "--alg", algos.LP_LIST, "--crews", "3"])


def convert_order_outputs(source: str) -> dict:
    """convert JSON at each non-default within-island order, m = 1, 2, 3."""
    with tempfile.TemporaryDirectory() as tmp:
        if source in NAMES:
            path = str(FIXTURES / source)
        else:
            path = _generated(int(source.removeprefix("generated-")), tmp)
        return {
            order: {
                str(m): _stdout(["schedule", path, "--alg", algos.CONVERT, "--crews", str(m),
                                 "--within-island-order", order])
                for m in CREWS
            }
            for order in NON_DEFAULT_ORDERS
        }


def convert_scale_digests(lines: int) -> dict:
    """sha256 of the convert JSON of a generated feeder of `lines` lines (about
    10 % switches, some undamaged lines), at every within-island order and
    m = 1, 2, 3."""
    params = GenParams(seed=lines, nodes=(lines + 1, lines + 1), switch_probability=0.1,
                       repair_time=(0, 10), crews=(3,))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "feeder.json"
        save_instance(path, generate_random(params))
        return {
            order: {
                str(m): hashlib.sha256(_stdout(
                    ["schedule", str(path), "--alg", algos.CONVERT, "--crews", str(m),
                     "--within-island-order", order]).encode()).hexdigest()
                for m in CREWS
            }
            for order in algos.WITHIN_ISLAND_ORDERS
        }


def bench_without_timing() -> str:
    """The standard bench CSV on 40 instances, its timing columns dropped."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "bench.csv"
        _stdout(["bench", "--seed", "1000", "--count", "40", "--max-lines", "8",
                 "--crews", "2,3", "--out", str(out)])
        rows = list(csv.reader(io.StringIO(out.read_text())))
    keep = [k for k, column in enumerate(rows[0]) if column not in TIMING_COLUMNS]
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([row[k] for k in keep] for row in rows)
    return buf.getvalue()


def oracle_outputs(name: str) -> dict:
    path = str(FIXTURES / name)
    return {str(m): _stdout(["oracle", path, "--crews", str(m)]) for m in CREWS}


def generated_oracle_outputs(lines: int) -> dict:
    """oracle JSON of a generated feeder whose `lines` lines are all damaged, at
    m = 1, 2, 3, 4 and m = lines (every line starts at time 0)."""
    params = GenParams(seed=lines, nodes=(lines + 1, lines + 1), repair_time=(1, 10))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "feeder.json"
        save_instance(path, generate_random(params))
        return {str(m): _stdout(["oracle", str(path), "--crews", str(m)])
                for m in (1, 2, 3, 4, lines)}


@pytest.mark.parametrize("name", NAMES)
def test_fixture_outputs_match_golden(name):
    expected = json.loads(GOLDEN.read_text())[name]
    got = fixture_outputs(name)
    lp_expected = expected.pop(algos.LP_LIST)
    lp_got = got.pop(algos.LP_LIST)
    assert got == expected
    for m, values in lp_expected.items():
        for key, value in values.items():
            assert lp_got[m][key] == pytest.approx(value, rel=1e-9, abs=1e-9), (m, key)


@pytest.mark.parametrize("seed", GENERATED_SEEDS)
def test_generated_lp_list_matches_golden(seed):
    assert generated_lp_list(seed) == json.loads(GOLDEN.read_text())[GENERATED][str(seed)]


@pytest.mark.parametrize("name", DUMP_LP_NAMES)
def test_oracle_matches_golden(name):
    assert oracle_outputs(name) == json.loads(GOLDEN.read_text())[ORACLE][name]


@pytest.mark.parametrize("lines", ORACLE_GENERATED_LINES)
def test_generated_oracle_matches_golden(lines):
    expected = json.loads(GOLDEN.read_text())[ORACLE][f"generated-{lines}"]
    assert generated_oracle_outputs(lines) == expected


@pytest.mark.parametrize("source", CONVERT_ORDER_SOURCES)
def test_convert_orders_match_golden(source):
    assert convert_order_outputs(source) == json.loads(GOLDEN.read_text())[CONVERT_ORDERS][source]


@pytest.mark.parametrize("lines", CONVERT_SCALE_LINES)
def test_convert_at_scale_matches_golden(lines):
    expected = json.loads(GOLDEN.read_text())[CONVERT_SCALE][str(lines)]
    assert convert_scale_digests(lines) == expected


def test_bench_csv_matches_golden():
    assert bench_without_timing() == json.loads(GOLDEN.read_text())[BENCH]


if __name__ == "__main__":
    golden = {name: fixture_outputs(name) for name in NAMES}
    golden[GENERATED] = {str(seed): generated_lp_list(seed) for seed in GENERATED_SEEDS}
    golden[ORACLE] = {f"generated-{n}": generated_oracle_outputs(n)
                      for n in ORACLE_GENERATED_LINES}
    golden[ORACLE].update((name, oracle_outputs(name)) for name in DUMP_LP_NAMES)
    golden[CONVERT_ORDERS] = {source: convert_order_outputs(source)
                              for source in CONVERT_ORDER_SOURCES}
    golden[BENCH] = bench_without_timing()
    golden[CONVERT_SCALE] = {str(n): convert_scale_digests(n) for n in CONVERT_SCALE_LINES}
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    sys.exit(0)
