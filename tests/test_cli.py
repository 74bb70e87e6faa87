import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gridrepair import algos
from gridrepair.cli import EXIT_INVALID, EXIT_OK, main
from gridrepair.harness import load_instance

from conftest import SRC, path_raw, run_fresh


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


@pytest.mark.parametrize("opening", ["[", '{"a": '], ids=["arrays", "objects"])
@pytest.mark.parametrize("command", [["validate"], ["schedule", "--alg", "convert"]],
                         ids=["validate", "schedule"])
def test_deeply_nested_json_is_an_input_error(tmp_path, capsys, opening, command):
    path = tmp_path / "deep.json"
    path.write_text(opening * 100000)
    assert main([command[0], str(path), *command[1:]]) == EXIT_INVALID
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and "nest too deeply" in err and not out


@pytest.mark.parametrize("alg", ["single-optimal", "lp-list", "convert"])
@pytest.mark.parametrize("crews", ["0", "-1"])
def test_schedule_crews_below_one_is_an_input_error(fixtures_dir, capsys, alg, crews):
    code = main(["schedule", str(fixtures_dir / "fork.json"), "--alg", alg, "--crews", crews])
    assert code == EXIT_INVALID
    out, err = capsys.readouterr()
    assert err.startswith("error: --crews") and not out


def test_island_with_no_lines_prints_floats(tmp_path, capsys):
    path = tmp_path / "source.json"
    path.write_text(json.dumps({"root": "s", "crews": 1, "nodes": [{"id": "s", "weight": 1}],
                                "lines": []}))
    assert main(["islands", str(path)]) == EXIT_OK
    text = capsys.readouterr().out
    assert '"weight": 0.0,' in text and '"processing": 0.0' in text
    assert json.loads(text)["islands"] == [
        {"id": "s", "lines": [], "nodes": ["s"], "weight": 0.0, "processing": 0.0}]


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
    assert "E[a]" in text and "E[b]" in text and "C[" not in text


# Ids with brackets and ", ", starting with C or E, and a switch out of the
# root, so the root island E[0] owns no lines.
AWKWARD = {
    "root": "E[0]", "crews": 1,
    "nodes": [{"id": "E[0]", "weight": 0}, {"id": "C, 1", "weight": 2},
              {"id": "E]2[", "weight": 5}, {"id": "C[3], [4]", "weight": 1},
              {"id": "E, 5", "weight": 3}],
    "lines": [
        {"id": "C[s]", "from": "E[0]", "to": "C, 1", "repair_time": 2, "switch": True},
        {"id": "E, x]", "from": "C, 1", "to": "E]2[", "repair_time": 3, "switch": False},
        {"id": "E]y[, C", "from": "E]2[", "to": "C[3], [4]", "repair_time": 1, "switch": True},
        {"id": "E[z], C[w]", "from": "C, 1", "to": "E, 5", "repair_time": 4, "switch": False},
    ],
}

AWKWARD_DUMP = """\
minimize
  10*E[C[s]] + 1*E[E]y[, C]
subject to
  E[C[s]] >= 4
  E[E[0]] >= 0
  E[E]y[, C] >= 1
  -1*E[C[s]] + 1*E[E]y[, C] >= 0    # E]y[, C after C[s]
  1*E[C[s]] - 1*E[E[0]] >= 0    # C[s] after E[0]
  9*E[C[s]] + 1*E[E]y[, C] >= 65    # load cut on {"C[s]", "E, x]", "E[z], C[w]", "E]y[, C"}
  9*E[C[s]] >= 55    # load cut on {"C[s]", "E, x]", "E[z], C[w]"}
"""


def test_dump_lp_names_rows_from_awkward_ids(tmp_path, capsys):
    path, dump = tmp_path / "awkward.json", tmp_path / "model.txt"
    path.write_text(json.dumps(AWKWARD))
    assert main(["schedule", str(path), "--alg", "lp-list", "--dump-lp", str(dump)]) == EXIT_OK
    assert dump.read_text() == AWKWARD_DUMP


def _load_cut_ids(label: str) -> list[str]:
    """The ids of a `load cut on {...}` label: JSON strings if the first
    starts with a quote, else split on ", "."""
    text = label.removeprefix("load cut on {").removesuffix("}")
    return json.loads(f"[{text}]") if text.startswith('"') else text.split(", ")


@pytest.mark.parametrize("raw", ["awkward", "fork"])
def test_dump_lp_load_cut_labels_read_back(fixtures_dir, raw):
    """Each load-cut label names exactly its cut's lines, awkward ids or not."""
    from gridrepair import lp
    from gridrepair.model import validate

    inst = validate(AWKWARD) if raw == "awkward" else load_instance(fixtures_dir / "fork.json")
    sol = lp.solve_relaxation(inst)
    labels = [line.split("    # ", 1)[1]
              for line in lp.format_model(sol.model, sol.cuts).splitlines()
              if "# load cut on {" in line]
    assert [frozenset(_load_cut_ids(label)) for label in labels] == [c.lines for c in sol.cuts]
    assert any('"' in label for label in labels) == (raw == "awkward")


def _separator_instance(line_id: str) -> dict:
    """r -> a -> b over two switch lines: `line_id` feeds island `line_id`,
    and line `y` its child island `y`."""
    return {"root": "r", "crews": 1,
            "nodes": [{"id": "r", "weight": 0}, {"id": "a", "weight": 1}, {"id": "b", "weight": 2}],
            "lines": [{"id": line_id, "from": "r", "to": "a", "repair_time": 1, "switch": True},
                      {"id": "y", "from": "a", "to": "b", "repair_time": 2, "switch": True}]}


SEPARATOR_DUMP = """\
minimize
  1*E[x after y] + 2*E[y]
subject to
  E[r] >= 0
  E[x after y] >= 1
  E[y] >= 2
  -1*E[r] + 1*E[x after y] >= 0    # "x after y" after "r"
  -1*E[x after y] + 1*E[y] >= 0    # "y" after "x after y"
  1*E[x after y] + 2*E[y] >= 7    # load cut on {x after y, y}
"""


def test_dump_lp_quotes_ids_holding_a_label_separator(tmp_path):
    path, dump = tmp_path / "separator.json", tmp_path / "model.txt"
    path.write_text(json.dumps(_separator_instance("x after y")))
    assert main(["schedule", str(path), "--alg", "lp-list", "--dump-lp", str(dump),
                 "--out", str(tmp_path / "out.json")]) == EXIT_OK
    assert dump.read_text() == SEPARATOR_DUMP
    path.write_text(json.dumps(_separator_instance("x covers y")))
    assert main(["schedule", str(path), "--alg", "lp-list", "--dump-lp", str(dump),
                 "--out", str(tmp_path / "out.json")]) == EXIT_OK
    text = dump.read_text()  # " covers " is no label's separator
    assert "# x covers y after r\n" in text and "# load cut on {x covers y, y}\n" in text


@pytest.mark.parametrize("alg", ["convert", "single-optimal"])
def test_dump_lp_needs_lp_list(fixtures_dir, tmp_path, capsys, alg):
    dump = tmp_path / "model.txt"
    code = main(["schedule", str(fixtures_dir / "fork.json"), "--alg", alg,
                 "--dump-lp", str(dump)])
    assert code == EXIT_INVALID
    out, err = capsys.readouterr()
    assert "--dump-lp" in err and not out
    assert not dump.exists()


@pytest.mark.parametrize("alg", ["convert", "lp-list", "single-optimal"])
def test_within_island_order_needs_convert(fixtures_dir, tmp_path, capsys, alg):
    out = tmp_path / "out.json"
    code = main(["schedule", str(fixtures_dir / "fork.json"), "--alg", alg,
                 "--within-island-order", "reversed", "--out", str(out)])
    stdout, err = capsys.readouterr()
    if alg == "convert":
        assert code == EXIT_OK and out.exists() and not err
    else:
        assert code == EXIT_INVALID and not stdout and not out.exists()
        assert "--within-island-order" in err and f"--alg {alg}" in err


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


def _outcome(argv: list[str], capsys) -> tuple:
    """`main(argv)`'s exit code, whether returned or raised, stdout and stderr."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return (code, *capsys.readouterr())


# argv shapes `cli._parse` parses itself, over all five commands: options in
# any order, some left to their defaults (a string default goes through `type`)
PARSED = {
    "validate": ["validate", "f.json"],
    "islands": ["islands", "f.json"],
    "schedule": ["schedule", "f.json", "--alg", "lp-list", "--crews", "3", "--out", "o.json"],
    "schedule-reordered": ["schedule", "--out", "o.json", "--within-island-order", "given",
                           "--crews", "2", "--alg", "convert", "f.json"],
    "schedule-dump-lp": ["schedule", "--dump-lp", "m.txt", "f.json", "--alg", "lp-list"],
    "schedule-empty-values": ["schedule", "", "--alg", "single-optimal", "--out", ""],
    "oracle": ["oracle", "f.json", "--crews", "2", "--out", "o.json"],
    "bench-defaults": ["bench", "--out", "b.csv"],
    "bench-crews": ["bench", "--crews", "2,3", "--out", "b.csv"],
    "bench-every-option": ["bench", "--jobs", "2", "--switch-probability", "0.5", "--max-lines",
                           "4", "--count", "5", "--seed", "3", "--out", "b.csv", "--crews", "2"],
}


@pytest.mark.parametrize("argv", PARSED.values(), ids=list(PARSED))
def test_parse_gives_the_namespace_argparse_gives(argv):
    from gridrepair import cli

    parsed, expected = cli._parse(argv), cli._build_parser()[0].parse_args(argv)
    assert parsed == expected
    assert {dest: type(value) for dest, value in vars(parsed).items()} == {
        dest: type(value) for dest, value in vars(expected).items()}


def test_parse_sends_a_string_default_through_type(monkeypatch):
    from gridrepair import cli

    seed = next(action for action in cli._build_parser()[1]["bench"] if action.dest == "seed")
    monkeypatch.setattr(seed, "default", "7")
    argv = ["bench", "--out", "b.csv"]
    assert cli._parse(argv) == cli._build_parser()[0].parse_args(argv)
    assert cli._parse(argv).seed == 7


def test_parse_reads_only_actions_that_take_one_value():
    """`_parse` gives each option the one token after it: no flag, list or
    count action may join the parser unless `_parse` learns to decline it."""
    from gridrepair import cli

    for actions in cli._build_parser()[1].values():
        assert all(action.nargs is None and action.const is None for action in actions)


# argv shapes `cli._parse` declines: (argv, `main`'s exit code, an argv that
# `_parse` takes and argparse reads the same, where argparse does not exit)
FORK = "FORK"  # stands for fixtures/fork.json
DECLINED = {
    "help": (["schedule", "-h"], 0, None),
    "top-level-help": (["--help"], 0, None),
    "equals": (["schedule", FORK, "--alg=lp-list"], 0, ["schedule", FORK, "--alg", "lp-list"]),
    "abbreviation": (["schedule", FORK, "--alg", "lp-list", "--cr", "3"], 0,
                     ["schedule", FORK, "--alg", "lp-list", "--crews", "3"]),
    "repeated": (["schedule", FORK, "--alg", "lp-list", "--crews", "2", "--crews", "3"], 0,
                 ["schedule", FORK, "--alg", "lp-list", "--crews", "3"]),
    "double-dash": (["validate", "--", FORK], 0, ["validate", FORK]),
    "dash-value": (["schedule", FORK, "--alg", "lp-list", "--crews", "-1"], 2, None),
    "bad-type": (["schedule", FORK, "--alg", "lp-list", "--crews", "x"], 2, None),
    "bad-choice": (["schedule", FORK, "--alg", "bogus"], 2, None),
    "missing-required": (["schedule", FORK], 2, None),
    "missing-value": (["schedule", FORK, "--alg"], 2, None),
    "unknown": (["schedule", FORK, "--alg", "lp-list", "--foo"], 2, None),
    "extra-positional": (["validate", FORK, FORK], 2, None),
    "unknown-command": (["check", FORK], 2, None),
    "no-arguments": ([], 2, None),
}


@pytest.mark.parametrize("case", DECLINED, ids=list(DECLINED))
def test_declined_argv_reaches_argparse_unchanged(fixtures_dir, capsys, monkeypatch, case):
    from gridrepair import cli

    def fill(tokens: list[str] | None) -> list[str] | None:
        fork = str(fixtures_dir / "fork.json")
        return None if tokens is None else [fork if token == FORK else token for token in tokens]

    argv, code, plain = DECLINED[case]
    argv, plain = fill(argv), fill(plain)
    assert cli._parse(argv) is None
    parser, seen = cli._build_parser()[0], []
    parse_args = parser.parse_args
    monkeypatch.setattr(parser, "parse_args", lambda args: seen.append(args) or parse_args(args))
    outcome = _outcome(argv, capsys)
    monkeypatch.undo()
    assert seen == [argv] and outcome[0] == code
    try:
        parsed = parser.parse_args(argv)
    except SystemExit as exc:  # argparse's own help or usage message, byte for byte
        assert (exc.code, *capsys.readouterr()) == outcome
        return
    if plain is None:  # argparse takes `--crews -1`; the command rejects it
        assert parsed.crews == -1
        assert outcome[1:] == ("", "error: --crews must be at least 1, got -1\n")
    else:
        assert cli._parse(plain) == parsed and _outcome(plain, capsys) == outcome


def _emit_by_write_text(payload, out):
    """`cli._emit` as it was, writing through `Path.write_text`."""
    text = payload if isinstance(payload, str) else json.dumps(payload, indent=2)
    if out is None:
        print(text)
    else:
        Path(out).write_text(text + ("\n" if not text.endswith("\n") else ""), encoding="utf-8")


@pytest.mark.parametrize("case", ["new-files", "longer-files", "one-byte-writes"])
def test_out_and_dump_lp_hold_the_bytes_write_text_gave(tmp_path, capsys, monkeypatch, case):
    """`--out` and `--dump-lp` files are byte for byte what `Path.write_text`
    wrote: over a longer file too, and when each write takes one byte."""
    from gridrepair import cli

    raw = path_raw([2, 1, 3], [1, 10, 4])
    raw["crews"] = 1  # so that the model holds a load cut, named from every line id
    raw["lines"][0]["id"] = "lé1"
    path = tmp_path / "feeder.json"
    path.write_text(json.dumps(raw, ensure_ascii=False), encoding="utf-8")
    names, files, writes, write = ("out.json", "model.txt"), {}, [], os.write
    for side in ("write_text", "emit"):
        folder = tmp_path / side
        folder.mkdir()
        if case == "longer-files":
            for name in names:
                (folder / name).write_bytes(b"x" * 100_000)
        with monkeypatch.context() as patch:
            if side == "write_text":
                patch.setattr(cli, "_emit", _emit_by_write_text)
            elif case == "one-byte-writes":
                patch.setattr(os, "write",
                              lambda fd, data: writes.append(fd) or write(fd, data[:1]))
            assert main(["schedule", str(path), "--alg", "lp-list", "--out",
                         str(folder / names[0]), "--dump-lp", str(folder / names[1])]) == EXIT_OK
        files[side] = [(folder / name).read_bytes() for name in names]
    assert files["emit"] == files["write_text"] and not capsys.readouterr().out
    assert "load cut on {e2, e3, lé1}".encode("utf-8") in files["emit"][1]
    if case == "one-byte-writes":
        assert len(writes) == sum(map(len, files["emit"]))


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


@pytest.mark.parametrize("crews", ["0", "-3"])
def test_oracle_crews_below_one_is_an_input_error(fixtures_dir, capsys, crews):
    code = main(["oracle", str(fixtures_dir / "fork.json"), "--crews", crews])
    assert code == EXIT_INVALID
    out, err = capsys.readouterr()
    assert err == f"error: --crews must be at least 1, got {crews}\n" and not out


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


@pytest.mark.parametrize("crews, below", [("0", "0"), ("-1", "-1"), ("2,0", "0"),
                                          ("3,-2,2", "-2")])
def test_bench_crews_below_one_fails_before_any_row(tmp_path, capsys, monkeypatch, crews, below):
    from gridrepair import harness

    rows = []
    bench_instance = harness.bench_instance
    monkeypatch.setattr(harness, "bench_instance",
                        lambda *args: rows.append(args) or bench_instance(*args))
    out = tmp_path / "rows.csv"
    code = main(["bench", "--count", "2", "--crews", crews, "--out", str(out)])
    assert code == EXIT_INVALID
    assert capsys.readouterr().err == f"error: --crews must be at least 1, got {below}\n"
    assert rows == [] and not out.exists()


@pytest.mark.parametrize("crews, repeated", [("2,2", "2"), ("3,2,3", "3"), ("1,2,2,1", "2")])
def test_bench_repeated_crew_count_fails_before_any_row(tmp_path, capsys, monkeypatch, crews,
                                                       repeated):
    from gridrepair import harness

    rows = []
    monkeypatch.setattr(harness, "bench_instance", lambda *args: rows.append(args))
    out = tmp_path / "rows.csv"
    code = main(["bench", "--count", "2", "--crews", crews, "--out", str(out)])
    assert code == EXIT_INVALID
    assert capsys.readouterr().err == (
        f"error: --crews lists crew count {repeated} more than once, got {crews!r}\n")
    assert rows == [] and not out.exists()


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

    def infeasible(model, *presolve):
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


def test_bare_value_error_is_a_bug_not_an_input_error(fixtures_dir, capsys, monkeypatch):
    """Exit 2 is kept for rejected input; a plain ValueError from inside a
    layer, here `max()` of an empty sequence, is a bug and exits 3."""
    from gridrepair import algos, cli

    def broken(*args, **kwargs):
        return max([])

    monkeypatch.setattr(algos, "convert_single_to_m", broken)
    code = main(["schedule", str(fixtures_dir / "fork.json"), "--alg", "convert"])
    assert (code, *capsys.readouterr()) == (
        cli.EXIT_VIOLATION, "", "violation: ValueError: max() arg is an empty sequence\n")


# files json.loads fails on with a ValueError other than a JSON syntax error
UNREADABLE = {
    "not UTF-8": (b"\xff{}", "'utf-8' codec can't decode byte 0xff in position 0: "
                               "invalid start byte"),
    "an integer of 5000 digits": (b'{"crews": ' + b"1" * 5000 + b"}",
                                  "Exceeds the limit (4300 digits) for integer string "
                                  "conversion: value has 5000 digits; use "
                                  "sys.set_int_max_str_digits() to increase the limit"),
}


@pytest.mark.parametrize("case", UNREADABLE, ids=list(UNREADABLE))
def test_unreadable_file_is_an_input_error(tmp_path, capsys, case):
    data, message = UNREADABLE[case]
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    assert (main(["validate", str(path)]), *capsys.readouterr()) == (
        EXIT_INVALID, "", f"error: {message}\n")


def test_scipy_loaded_only_to_solve_an_lp(fixtures_dir, tmp_path):
    proc = run_fresh(f"""
        import sys
        from gridrepair import cli
        code = cli.main(['schedule', {str(fixtures_dir / 'feeder123.json')!r},
                         '--alg', 'convert', '--out', {str(tmp_path / 'out.json')!r}])
        assert code == 0, code
        assert 'scipy' not in sys.modules, 'scipy was imported'
    """)
    assert proc.returncode == 0, proc.stderr


def test_numpy_loaded_only_by_the_oracle(fixtures_dir, tmp_path):
    fixture, out = str(fixtures_dir / "feeder123.json"), str(tmp_path / "out.json")
    lp_list = ["schedule", fixture, "--alg", "lp-list", "--out", out]
    proc = run_fresh(f"""
        import sys
        from gridrepair import cli, lp, oracle
        for argv in (['validate', {fixture!r}], ['islands', {fixture!r}],
                     ['schedule', {fixture!r}, '--alg', 'convert', '--crews', '3',
                      '--out', {out!r}],
                     {lp_list!r}, {[*lp_list, '--dump-lp', str(tmp_path / 'model.txt')]!r}):
            assert cli.main(argv) == 0, argv
            assert 'numpy' not in sys.modules, argv
        assert cli.main(['oracle', {str(fixtures_dir / 'fork.json')!r}, '--out', {out!r}]) == 0
        assert 'numpy' in sys.modules
    """)
    assert proc.returncode == 0, proc.stderr


def test_lp_list_stdout_is_the_result_alone(fixtures_dir, tmp_path):
    """A fresh lp-list run prints its result JSON and nothing else: HiGHS
    writes to the process's stdout, so a banner would land there."""
    argv = ["schedule", str(fixtures_dir / "feeder123.json"), "--alg", "lp-list", "--crews", "3"]
    out = tmp_path / "out.json"
    assert main([*argv, "--out", str(out)]) == EXIT_OK
    proc = subprocess.run([sys.executable, "-m", "gridrepair.cli", *argv,
                           "--dump-lp", str(tmp_path / "model.txt")],
                          env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == out.read_text() and not proc.stderr


@pytest.mark.parametrize("escaped", [False, True], ids=["utf-8", "ascii-escaped"])
def test_files_are_utf_8_whatever_the_locale(tmp_path, escaped):
    """The instance is read, and `--out` and `--dump-lp` written, as UTF-8
    under an ASCII locale too, with the bytes a UTF-8 locale gives.  Before,
    the raw file exited 2 (a decode error) and the escaped one 3 (an encode
    error in `--dump-lp`)."""
    raw = path_raw([2, 1, 3], [1, 10, 4])
    raw["crews"] = 1  # so that the model holds a load cut, named from every line id
    raw["lines"][0]["id"], raw["nodes"][2]["id"], raw["lines"][1]["to"] = "lé1", "né2", "né2"
    raw["lines"][2]["from"] = "né2"
    path = tmp_path / "feeder.json"
    path.write_bytes(json.dumps(raw, ensure_ascii=escaped).encode("utf-8"))
    outputs = []
    for locale in ({"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"},
                   {"PYTHONUTF8": "1"}):
        folder = tmp_path / str(len(outputs))
        folder.mkdir()
        proc = subprocess.run(
            [sys.executable, "-m", "gridrepair.cli", "schedule", str(path), "--alg", "lp-list",
             "--out", "out.json", "--dump-lp", "model.txt"],
            env=dict(os.environ, PYTHONPATH=SRC, **locale), cwd=folder, capture_output=True)
        assert proc.returncode == 0, proc.stderr
        outputs.append([(folder / name).read_bytes() for name in ("out.json", "model.txt")])
    assert outputs[0] == outputs[1]
    assert "load cut on {e2, e3, lé1}".encode("utf-8") in outputs[0][1]


def test_cli_import_leaves_the_process_pool_unloaded():
    """Nor NumPy (only the oracle needs it), `scipy.optimize` (an LP solve
    loads SciPy's HiGHS binding alone) or `csv` (only the bench writes CSV)."""
    proc = run_fresh("""
        import sys
        import gridrepair.cli
        for module in ('concurrent.futures.process', 'multiprocessing', 'numpy',
                       'scipy.optimize', 'csv'):
            assert module not in sys.modules, module
    """)
    assert proc.returncode == 0, proc.stderr


def test_bench_row_is_the_only_dataclass():
    """The records are named tuples and plain classes, which cost far less to
    define at import than a dataclass.  `BenchRow` stays one because
    perfbench's worker records each bench row with `dataclasses.asdict`."""
    import dataclasses
    import importlib
    import inspect
    import pkgutil

    import gridrepair

    found = set()
    for info in pkgutil.iter_modules(gridrepair.__path__):
        module = importlib.import_module(f"gridrepair.{info.name}")
        found |= {f"{info.name}.{name}" for name, cls in vars(module).items()
                  if inspect.isclass(cls) and cls.__module__ == module.__name__
                  and dataclasses.is_dataclass(cls)}
    assert found == {"harness.BenchRow"}


def test_convert_leaves_fractions_and_decimal_unloaded(fixtures_dir, tmp_path):
    """The ratio merge runs on ints: neither importing the CLI nor a convert
    run loads `fractions` (or `decimal`, which it imports)."""
    proc = run_fresh(f"""
        import sys
        from gridrepair import cli
        assert 'fractions' not in sys.modules and 'decimal' not in sys.modules
        code = cli.main(['schedule', {str(fixtures_dir / 'feeder123.json')!r},
                         '--alg', 'convert', '--out', {str(tmp_path / 'out.json')!r}])
        assert code == 0, code
        assert 'fractions' not in sys.modules, 'fractions was imported'
        assert 'decimal' not in sys.modules, 'decimal was imported'
    """)
    assert proc.returncode == 0, proc.stderr


def test_schedule_out_file(fixtures_dir, tmp_path):
    out = tmp_path / "result.json"
    code = main([
        "schedule", str(fixtures_dir / "two_island.json"),
        "--alg", "convert", "--out", str(out),
    ])
    assert code == EXIT_OK
    assert json.loads(out.read_text())["harm"] == 22


def _path_file(tmp_path, times, weights):
    path = tmp_path / "path.json"
    path.write_text(json.dumps(path_raw(times, weights)))
    return str(path)


_DELETE = object()


def _malformed(keys=(), value=None, times=(1, 2, 3), weights=(1, 1, 1)) -> str:
    """The text of `path_raw(times, weights)` with the entry at `keys` set to
    `value`, or deleted if `value` is `_DELETE`."""
    raw = path_raw(list(times), list(weights))
    if keys:
        *parents, last = keys
        target = raw
        for key in parents:
            target = target[key]
        if value is _DELETE:
            del target[last]
        else:
            target[last] = value
    return json.dumps(raw)


# one malformed file per rule that rejects an instance, and its whole message
REJECTED = {
    "unknown field": (_malformed(("lines", 0, "voltage"), 11.0),
                      "line entry 0 has unknown field 'voltage'"),
    "missing field": (_malformed(("nodes", 1, "weight"), _DELETE),
                      "node entry 1 is missing field 'weight'"),
    "non-string id": (_malformed(("lines", 1, "id"), 5), "line entry 1 id must be a string, got 5"),
    "non-numeric value": (_malformed(("nodes", 2, "weight"), "3"),
                          "node '2' has non-numeric weight '3'"),
    "non-boolean switch": (_malformed(("lines", 0, "switch"), "no"),
                           "line 'e1' switch flag must be a boolean, got 'no'"),
    "duplicate node id": (_malformed(("nodes", 2, "id"), "1"), "duplicate node id '1'"),
    "duplicate line id": (_malformed(("lines", 1, "id"), "e1"), "duplicate line id 'e1'"),
    "unknown root": (_malformed(("root",), "9"), "root '9' is not a node"),
    "unknown endpoint": (_malformed(("lines", 1, "to"), "9"),
                         "line 'e2' endpoint '9' is not a node"),
    # node 3 is cut off too: the cycle is reported first
    "cycle": (_malformed(("lines", 2, "to"), "0"), "line 'e3' ('2'-'0') closes a cycle"),
    "disconnected node": (_malformed(("lines", 2), _DELETE),
                          "node '3' is not connected to the root"),
    "negative repair time": (_malformed(("lines", 0, "repair_time"), -2),
                             "line 'e1' has negative repair time -2.0"),
    "negative weight": (_malformed(("nodes", 1, "weight"), -3),
                        "node '1' has negative weight -3.0"),
    "all weights zero": (_malformed(("nodes", 0, "weight"), 0, weights=(0, 0, 0)),
                         "every node weight is zero"),
    "crews below 1": (_malformed(("crews",), 0), "crews must be >= 1, got 0"),
    "non-finite value": (_malformed(("lines", 1, "repair_time"), float("nan")),
                         "line 'e2' has non-finite repair time nan"),
    "overflowing total": (_malformed(times=(1e308, 1e308, 1)),
                          "total repair time inf is not finite within rounding"),
    "JSON syntax error": ('{"root": "0",\n  "crews": }', "Expecting value (line 2, column 12)"),
    "too-deep nesting": ("[" * 100000, "{path}: arrays and objects nest too deeply to parse"),
    "repair times of 1e10": (_malformed(times=(1e10,) * 3),
                             "right-hand side of the load cut on ['e1', 'e2', 'e3'] 3.75e+20 "
                             "reaches HiGHS's limit 1e+20"),
    "an island weight of 1e16": (_malformed(weights=(1, 1e16, 1)),
                                 "island 'e2' weight 1e+16 reaches the input's weight limit 1e+15"),
    "a repair time of 1e-9": (_malformed(times=(1e-9, 1, 1)),
                              "line 'e1' repair time 1e-09 is at most HiGHS's small matrix value "
                              "1e-09, which it drops from the load cuts"),
}


@pytest.mark.parametrize("case", REJECTED, ids=list(REJECTED))
def test_each_rejection_rule_exits_2_with_its_message(tmp_path, capsys, case):
    text, message = REJECTED[case]
    path = tmp_path / "bad.json"
    path.write_text(text)
    code = main(["schedule", str(path), "--alg", "lp-list"])
    assert (code, *capsys.readouterr()) == (
        EXIT_INVALID, "", f"error: {message.replace('{path}', str(path))}\n")


def test_lp_rows_inside_highs_limits_keep_their_output(tmp_path, capsys):
    assert main(["schedule", _path_file(tmp_path, [1e9] * 3, [1, 1, 1]), "--alg",
                 "lp-list"]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["assignments"] == [
        [{"line": "e1", "start": 0.0, "completion": 1e9},
         {"line": "e3", "start": 1e9, "completion": 2e9}],
        [{"line": "e2", "start": 0.0, "completion": 1e9}]]
    assert (out["energization"], out["harm"]) == ({"e1": 1e9, "e2": 2e9}, 5e9)


# HiGHS drops a matrix value of at most 1e-9, here a load cut's coefficient: at 1e-9
# lp-list used to exit 3 (its canonical pass infeasible), and at 1e-10 it solved a
# model without those coefficients
@pytest.mark.parametrize("time", [1e-9, 1e-10])
def test_repair_times_highs_drops_exit_2(tmp_path, capsys, time):
    code = main(["schedule", _path_file(tmp_path, [time] * 3, [1, 1, 1]), "--alg", "lp-list"])
    captured = capsys.readouterr()
    assert code == EXIT_INVALID and captured.out == ""
    assert (f"line 'e1' repair time {time!r} is at most HiGHS's small matrix value 1e-09"
            in captured.err)


def test_repair_times_above_what_highs_drops_keep_their_output(tmp_path, capsys):
    assert main(["schedule", _path_file(tmp_path, [2e-9] * 3, [1, 1, 1]), "--alg",
                 "lp-list"]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["assignments"] == [
        [{"line": "e1", "start": 0.0, "completion": 2e-9},
         {"line": "e3", "start": 2e-9, "completion": 4e-9}],
        [{"line": "e2", "start": 0.0, "completion": 2e-9}]]
    assert (out["energization"], out["harm"]) == ({"e1": 2e-9, "e2": 4e-9}, 1e-8)


@pytest.mark.parametrize("times, weights, total", [
    ([1e308, 1e308], [1, 1], "total repair time inf"),
    ([1e200, 1], [1e200, 1], "total weight times total repair time inf"),
    ([1.7976931348623157e308, 0], [1, 0], "total repair time 1.7976931348623157e+308"),
], ids=["repair times of 1e308", "weights times times", "within rounding of the largest float"])
@pytest.mark.parametrize("command", [
    ["validate"], ["islands"], ["oracle"],
    *(["schedule", "--alg", alg] for alg in ("convert", "single-optimal", "lp-list")),
], ids=["validate", "islands", "oracle", "convert", "single-optimal", "lp-list"])
def test_totals_that_overflow_a_float_exit_2(tmp_path, capsys, command, times, weights, total):
    code = main([command[0], _path_file(tmp_path, times, weights), *command[1:]])
    captured = capsys.readouterr()
    assert code == EXIT_INVALID and captured.out == ""
    assert total in captured.err and "is not finite within rounding" in captured.err


def _feeder_file(tmp_path, lines, weights):
    """An instance file rooted at node "0": `lines` holds (id, from, to, repair
    time, switch) per line, `weights` each node weight that is not zero."""
    nodes = sorted({"0"} | {end for _, u, v, _, _ in lines for end in (u, v)})
    path = tmp_path / "feeder.json"
    path.write_text(json.dumps({
        "root": "0", "crews": 1,
        "nodes": [{"id": nid, "weight": weights.get(nid, 0)} for nid in nodes],
        "lines": [{"id": lid, "from": u, "to": v, "repair_time": p, "switch": sw}
                  for lid, u, v, p, sw in lines]}))
    return str(path)


# ROADMAP item 7: valid instances on which lp-list exited 3 at one crew while
# the relaxation was solved in full space, HiGHS ending it with the status in the id
LP_EXIT_3_FEEDERS = {
    "mixed-magnitude path, status Unknown": (
        [(f"e{k}", str(k - 1), str(k), p, k in (1, 3, 4))
         for k, p in enumerate((1e-6, 1e-6, 1e-6, 100, 1e-6, 1), 1)],
        {"0": 1, "1": 1000, "2": 5, "3": 10, "4": 1, "6": 5}),
    "times of 1e-4 to 1e10, status Unbounded": (
        [("l1", "0", "1", 1.5016074485926843e-4, False),
         ("l2", "1", "2", 956074253.5068634, False),
         ("l3", "0", "3", 8040398359.144447, False),
         ("l4", "1", "4", 1.1754864689604069e-3, False),
         ("l5", "3", "5", 212421.37892140413, False),
         ("l6", "0", "6", 1.6621405051973843, False)],
        {"2": 2935.080534862229, "3": 2745.594935390708, "5": 2823.3054736214203, "6": 1}),
    "one island weighing 6.8e12, status Not Set": (
        [("l1", "0", "1", 0.02, False), ("l2", "0", "2", 0, False), ("l3", "1", "3", 0, False),
         ("l4", "1", "4", 0, False), ("l5", "0", "5", 0, False), ("l6", "4", "6", 0.04, False),
         ("l7", "2", "7", 8.24, False), ("l8", "3", "8", 16.41, False),
         ("l9", "8", "9", 0, False)],
        {"9": 6809641621586.625}),
}


# ROADMAP item 7: valid instances on which lp-list exited 3 at one crew with
# the island-space relaxation, HiGHS ending it with the status in the id
LP_EXIT_3_OPEN = {
    "every line a switch, one time of 7.2e8, status Unbounded": (
        [("l1", "0", "1", 100, True), ("l2", "0", "2", 0, True), ("l3", "1", "3", 0, True),
         ("l4", "2", "4", 2, True), ("l5", "2", "5", 0, True), ("l6", "5", "6", 100, True),
         ("l7", "4", "7", 722749950.6016811, True), ("l8", "5", "8", 2, True),
         ("l9", "7", "9", 0, True)],
        {"0": 264.5023435515692, "1": 6725.383675079929, "2": 2251.6047330169185, "3": 1,
         "5": 1, "6": 1, "9": 2}),
    # failed with HiGHS presolve on and with it off: HiGHS found the canonical
    # pass infeasible, a pass that the loop's unique optimum now skips
    "times of 1.8e-4 to 5.8e9, status Infeasible": (
        [("l1", "0", "1", 2, True), ("l2", "1", "2", 1, True), ("l3", "0", "3", 2, False),
         ("l4", "0", "4", 0, True), ("l5", "2", "5", 0.00017697142471849613, False),
         ("l6", "0", "6", 5822861169.170683, False), ("l7", "2", "7", 100, True),
         ("l8", "5", "8", 10.475179534316196, False), ("l9", "8", "9", 2, True),
         ("l10", "7", "10", 25754687.893439732, False)],
        {"0": 9241.901032831269, "2": 1, "4": 1, "5": 2720.610078914719,
         "6": 3122.1210092026254, "7": 8764.5630745464, "8": 3165.768242965764,
         "9": 7980.423371392228, "10": 1462.5341009453941}),
}


@pytest.mark.parametrize("alg", ["lp-list", "convert"])
@pytest.mark.parametrize("lines, weights", LP_EXIT_3_FEEDERS.values(), ids=LP_EXIT_3_FEEDERS)
def test_valid_feeders_never_exit_3(tmp_path, capsys, lines, weights, alg):
    code = main(["schedule", _feeder_file(tmp_path, lines, weights), "--alg", alg,
                 "--crews", "1"])
    assert code in (EXIT_OK, EXIT_INVALID), capsys.readouterr().err


# the one of them on which lp-list still exits 3
STILL_EXIT_3 = "every line a switch, one time of 7.2e8, status Unbounded"
LP_EXIT_3_SOLVED = {**LP_EXIT_3_FEEDERS,
                    **{name: feeder for name, feeder in LP_EXIT_3_OPEN.items()
                       if name != STILL_EXIT_3}}


@pytest.mark.parametrize("lines, weights, alg", [
    pytest.param(*LP_EXIT_3_OPEN[name], alg, id=f"{name}-{alg}", marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="ROADMAP item 7: HiGHS ends the relaxation non-optimal")
        if (name, alg) == (STILL_EXIT_3, "lp-list") else ())
    for alg in ("lp-list", "convert") for name in LP_EXIT_3_OPEN])
def test_open_feeders_never_exit_3(tmp_path, capsys, lines, weights, alg):
    code = main(["schedule", _feeder_file(tmp_path, lines, weights), "--alg", alg,
                 "--crews", "1"])
    assert code in (EXIT_OK, EXIT_INVALID), capsys.readouterr().err


@pytest.mark.parametrize("lines, weights", LP_EXIT_3_SOLVED.values(), ids=LP_EXIT_3_SOLVED)
def test_former_exit_3_feeders_schedule_within_twice_the_lp(tmp_path, capsys, lines, weights):
    """The island-space relaxation solves the three full-space failures and
    one of its own: lp-list exits 0, and its harm is at most twice the LP
    bound."""
    path = _feeder_file(tmp_path, lines, weights)
    assert main(["schedule", path, "--alg", "lp-list", "--crews", "1"]) == EXIT_OK
    harm = json.loads(capsys.readouterr().out)["harm"]
    result = algos.lp_list_schedule(load_instance(path), crews=1)
    assert harm == result.harm <= 2.0 * result.lp.objective


# ROADMAP item 7: lp-list exited 3 at two crews on this valid feeder, HiGHS's
# dual simplex ending "Not Set" on its costs of 1e8 to 4e8 with presolve off
# and on ("excessively large costs")
HEAVY_WEIGHTS = (
    [("l1", "0", "1", 8, False), ("l2", "1", "2", 4, True), ("l3", "0", "3", 7, False)],
    {"0": 9e8, "1": 1e8, "2": 4e8, "3": 1e8})


@pytest.mark.parametrize("crews", [1, 2, 3])
def test_heavy_weights_schedule_within_twice_the_lp(tmp_path, capsys, crews):
    path = _feeder_file(tmp_path, *HEAVY_WEIGHTS)
    code = main(["schedule", path, "--alg", "lp-list", "--crews", str(crews)])
    captured = capsys.readouterr()
    assert code == EXIT_OK, captured.err
    result = algos.lp_list_schedule(load_instance(path), crews=crews)
    assert json.loads(captured.out)["harm"] == result.harm <= 2.0 * result.lp.objective
