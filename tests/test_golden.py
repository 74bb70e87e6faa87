"""Differential guard: CLI outputs on the bundled fixtures against recorded ones.

`golden.json` holds, per fixture, the `islands` output and the `schedule`
JSON of `convert` and `single-optimal` at m = 1, 2, 3 byte for byte, plus
the `lp-list` harm and LP objective (compared at relative tolerance 1e-9,
since HiGHS may land on a different float).  For the three small fixtures
it also holds the `schedule --alg lp-list --dump-lp` text at m = 1, 2, 3,
byte for byte: the final model is data, not a solver answer.  A refactor must reproduce
them unchanged.  Regenerate only for a deliberate output change:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from gridrepair import algos
from gridrepair.cli import EXIT_OK, main
from gridrepair.harness import load_instance

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden.json"
NAMES = ("fork.json", "two_island.json", "graham_m3.json", "feeder123.json")
CREWS = (1, 2, 3)
DUMP_LP_NAMES = ("fork.json", "two_island.json", "graham_m3.json")


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
            "harm": result.report.harm,
            "objective": result.lp.objective,
        }
    if name in DUMP_LP_NAMES:
        out["dump_lp"] = {str(m): _dump_lp(path, m) for m in CREWS}
    return out


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


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({name: fixture_outputs(name) for name in NAMES}, indent=1) + "\n"
    )
    sys.exit(0)
