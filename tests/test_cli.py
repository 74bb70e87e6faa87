import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gridrepair.cli import EXIT_INVALID, EXIT_OK, main


def test_validate_ok(fixtures_dir, capsys):
    assert main(["validate", str(fixtures_dir / "two_island.json")]) == EXIT_OK
    out = capsys.readouterr().out
    assert "2 islands" in out


def test_validate_rejects_bad_instance(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "root": "0", "crews": 1,
        "nodes": [{"id": "0", "weight": 1}, {"id": "1", "weight": 1}],
        "lines": [{"id": "x", "from": "0", "to": "1", "repair_time": -2, "switch": False}],
    }))
    assert main(["validate", str(path)]) == EXIT_INVALID
    assert "x" in capsys.readouterr().err


def test_validate_rejects_non_finite_repair_time(tmp_path, capsys):
    path = tmp_path / "nan.json"
    path.write_text(json.dumps({
        "root": "0", "crews": 1,
        "nodes": [{"id": "0", "weight": 0}, {"id": "1", "weight": 1}],
        "lines": [{"id": "x", "from": "0", "to": "1", "repair_time": float("nan"),
                   "switch": False}],
    }))
    assert main(["validate", str(path)]) == EXIT_INVALID
    assert "line 'x'" in capsys.readouterr().err


def test_missing_file_is_an_input_error(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "nope.json")]) == EXIT_INVALID
    assert "error" in capsys.readouterr().err


def test_validate_rejects_unknown_field(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "root": "0", "crews": 1, "voltage": 13.8,
        "nodes": [{"id": "0", "weight": 1}],
        "lines": [],
    }))
    assert main(["validate", str(path)]) == EXIT_INVALID
    assert "voltage" in capsys.readouterr().err


def test_islands_output(fixtures_dir, capsys):
    assert main(["islands", str(fixtures_dir / "fork.json")]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert [isl["id"] for isl in payload["islands"]] == ["a", "b", "c"]
    assert payload["precedence"]["edges"] == [["a", "b"], ["a", "c"]]


@pytest.mark.parametrize(
    "alg,expected",
    [("lp-list", 21), ("convert", 21), ("single-optimal", 31)],
)
def test_schedule_algorithms(fixtures_dir, capsys, alg, expected):
    code = main(["schedule", str(fixtures_dir / "fork.json"), "--alg", alg, "--crews", "2"])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["harm"] == expected
    assert payload["algorithm"] == alg


def test_schedule_dump_lp(fixtures_dir, tmp_path, capsys):
    dump = tmp_path / "model.txt"
    code = main([
        "schedule", str(fixtures_dir / "fork.json"),
        "--alg", "lp-list", "--crews", "2", "--dump-lp", str(dump),
    ])
    assert code == EXIT_OK
    text = dump.read_text()
    assert "minimize" in text
    assert "load cut" in text
    assert "C[a]" in text and "E[b]" in text


def test_parser_built_once_keeps_no_options_between_calls(fixtures_dir, tmp_path, capsys):
    from gridrepair import cli

    fork, dump = str(fixtures_dir / "fork.json"), tmp_path / "model.txt"
    assert main(["schedule", fork, "--alg", "lp-list", "--crews", "3",
                 "--dump-lp", str(dump)]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["crews"] == 3
    dump.unlink()
    assert main(["schedule", fork, "--alg", "lp-list"]) == EXIT_OK
    assert not dump.exists()
    assert json.loads(capsys.readouterr().out)["crews"] == 2  # the instance's own count
    assert cli._build_parser() is cli._build_parser()


def test_schedule_within_island_order(fixtures_dir, capsys):
    code = main([
        "schedule", str(fixtures_dir / "graham_m3.json"),
        "--alg", "convert", "--within-island-order", "adversarial-longest-last",
    ])
    assert code == EXIT_OK
    assert json.loads(capsys.readouterr().out)["harm"] == 35


def test_oracle(fixtures_dir, capsys):
    assert main(["oracle", str(fixtures_dir / "two_island.json"), "--crews", "2"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["optimum"] == 22
    assert payload["enumerated"] == 2


def test_oracle_too_large(fixtures_dir, capsys):
    assert main(["oracle", str(fixtures_dir / "feeder123.json")]) == EXIT_INVALID
    assert "guard" in capsys.readouterr().err


def test_bench_writes_csv(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    code = main([
        "bench", "--seed", "9", "--count", "4", "--max-lines", "5",
        "--crews", "2", "--out", str(out),
    ])
    assert code == EXIT_OK
    assert out.read_text().startswith("instance,")
    printed = capsys.readouterr().out
    assert printed.startswith(f"wrote 4 rows to {out}\n")
    assert "worst conversion ratio" in printed


@pytest.mark.parametrize("crews", ["", ",", "2,x"])
def test_bench_without_crew_counts_is_an_input_error(tmp_path, capsys, crews):
    out = tmp_path / "rows.csv"
    code = main(["bench", "--count", "2", "--crews", crews, "--out", str(out)])
    assert code == EXIT_INVALID
    assert "--crews" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "option, value",
    [("--count", "-3"), ("--max-lines", "0"), ("--switch-probability", "1.5"),
     ("--jobs", "0"), ("--jobs", "-2")],
)
def test_bench_out_of_range_option_is_an_input_error(tmp_path, capsys, option, value):
    out = tmp_path / "rows.csv"
    code = main(["bench", "--count", "2", option, value, "--out", str(out)])
    assert code == EXIT_INVALID
    assert option in capsys.readouterr().err
    assert not out.exists()


def test_invariant_violation_exits_3(tmp_path, capsys, monkeypatch):
    from gridrepair import cli, harness, oracle

    def explode(*args, **kwargs):
        raise oracle.InvariantViolation("gen-0 (m=2): fabricated for the test")

    monkeypatch.setattr(harness, "run_bench", explode)
    code = main(["bench", "--count", "1", "--out", str(tmp_path / "x.csv")])
    assert code == cli.EXIT_VIOLATION
    assert "violation" in capsys.readouterr().err


def test_lp_error_exits_3(fixtures_dir, capsys, monkeypatch):
    from gridrepair import cli, lp

    def infeasible(model, highs=None):
        raise lp.Infeasible("fabricated for the test")

    monkeypatch.setattr(lp, "simplex_solve", infeasible)
    code = main(["schedule", str(fixtures_dir / "fork.json"), "--alg", "lp-list"])
    assert code == cli.EXIT_VIOLATION
    assert "Infeasible" in capsys.readouterr().err


def test_list_not_permutation_exits_3(fixtures_dir, capsys, monkeypatch):
    from gridrepair import cli
    from gridrepair import schedule as sched

    def broken(*args, **kwargs):
        raise sched.ListNotPermutation("fabricated for the test")

    monkeypatch.setattr(sched, "list_schedule", broken)
    code = main(["schedule", str(fixtures_dir / "fork.json"), "--alg", "convert"])
    assert code == cli.EXIT_VIOLATION
    assert "ListNotPermutation" in capsys.readouterr().err


def test_scipy_loaded_only_to_solve_an_lp(fixtures_dir, tmp_path):
    import gridrepair

    src = str(Path(gridrepair.__file__).resolve().parent.parent)
    script = (
        "import sys\n"
        "from gridrepair import cli\n"
        f"code = cli.main(['schedule', {str(fixtures_dir / 'feeder123.json')!r}, "
        f"'--alg', 'convert', '--out', {str(tmp_path / 'out.json')!r}])\n"
        "assert code == 0, code\n"
        "assert 'scipy' not in sys.modules, 'scipy was imported'\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_numpy_loaded_only_by_the_lp_and_the_oracle(fixtures_dir, tmp_path):
    import gridrepair

    src = str(Path(gridrepair.__file__).resolve().parent.parent)
    fixture, out = str(fixtures_dir / "feeder123.json"), str(tmp_path / "out.json")
    script = (
        "import sys\n"
        "from gridrepair import cli, lp, oracle\n"
        f"for argv in (['validate', {fixture!r}], ['islands', {fixture!r}],\n"
        f"             ['schedule', {fixture!r}, '--alg', 'convert', '--crews', '3',\n"
        f"              '--out', {out!r}]):\n"
        "    assert cli.main(argv) == 0, argv\n"
        "    assert 'numpy' not in sys.modules, argv\n"
        f"assert cli.main(['schedule', {fixture!r}, '--alg', 'lp-list', '--out', {out!r}]) == 0\n"
        "assert 'numpy' in sys.modules\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_schedule_out_file(fixtures_dir, tmp_path):
    out = tmp_path / "result.json"
    code = main([
        "schedule", str(fixtures_dir / "two_island.json"),
        "--alg", "convert", "--out", str(out),
    ])
    assert code == EXIT_OK
    assert json.loads(out.read_text())["harm"] == 22
