import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# appended to the copy's harness.py: every oracle JSON gains a key
ORACLE_PATCH = """

_unpatched_oracle_to_json = oracle_to_json


def oracle_to_json(result, crews):
    return {**_unpatched_oracle_to_json(result, crews), "patched": True}
"""


def tree_diff(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(ROOT / "scripts" / "tree_diff.py"), *args],
                          capture_output=True, text=True)


def patched_src(tmp_path: Path, module: str) -> Path:
    """A copy of `src` in `tmp_path` whose `gridrepair/<module>` the caller
    then patches."""
    copy = tmp_path / "src"
    shutil.copytree(ROOT / "src", copy, ignore=shutil.ignore_patterns("__pycache__"))
    return copy / "gridrepair" / module


def test_tree_diff_fails_on_a_changed_oracle_answer(tmp_path):
    harness = patched_src(tmp_path, "harness.py")
    with open(harness, "a") as out:
        out.write(ORACLE_PATCH)
    proc = tree_diff("--count", "3", "--repeat", "1", str(ROOT / "src"), str(tmp_path / "src"))
    result = json.loads(proc.stdout)
    assert proc.returncode == 1 and result["same_answers"] is False
    # the relaxation layer runs first and agrees; only the 3 seeds x 2 crew counts
    # differ, and the cli layer's `oracle fork.json`
    assert result["first_difference"] == {
        "layer": "oracle", "seed": 0, "m": 2, "differing_calls": 7}
    # each oracle group reports its largest best time beside its median
    for group in result["oracle_median_best_us"].values():
        assert all(top >= mid > 0 for top, mid in zip(group["max_us"], group["us"]))
    # each relaxation separates once at its first point, then once after each HiGHS solve
    for group in result["relaxation"].values():
        assert group["separation_calls"] == [group["calls"] + n for n in group["highs_solves"]]
        assert [seconds > 0 for seconds in group["separation_s"]] == [group["calls"] > 0] * 2
        assert group["presolve_fallbacks"] == [0, 0]
        # round 1 seeds cuts only where it finds one, so never with a crew per line
        seeded, spare = group["seeded_cuts"], group is result["relaxation"]["n<=m"]
        assert seeded[0] == seeded[1] and (seeded[0] == 0) == spare
        passes = group["canonical_passes"]
        assert passes[0] == passes[1] <= group["highs_solves"][0] and (not spare or passes[0] == 0)


def test_tree_diff_fails_on_a_changed_cli_answer(tmp_path):
    cli = patched_src(tmp_path, "cli.py")
    text, line = cli.read_text(), 'f"OK: {len(instance.nodes)} nodes, '
    assert text.count(line) == 1  # the start of `validate`'s success line
    cli.write_text(text.replace(line, line.replace("OK", "ok")))
    proc = tree_diff("--count", "1", "--repeat", "1", str(ROOT / "src"), str(tmp_path / "src"))
    result = json.loads(proc.stdout)
    assert proc.returncode == 1 and result["same_answers"] is False
    # the relaxation, oracle and load layers agree; only the four `validate` commands differ
    assert result["first_difference"] == {
        "layer": "cli", "command": "validate feeder123.json", "differing_calls": 4}
    assert result["cli"]["validate feeder123.json"]["loaded"] == [[], []]


@pytest.mark.parametrize("option", ["--count", "--max-lines", "--repeat"])
def test_tree_diff_rejects_an_option_below_one(option):
    proc = tree_diff(option, "0", str(ROOT / "src"))
    assert proc.returncode == 2 and not proc.stdout
    assert f"error: {option} must be at least 1" in proc.stderr


# appended to a copy's lp.py: round 1 seeds no cut, so every loop adds one cut per round
NO_SEEDS = """


def _single_crew_prefixes(island_order, lines, of_line):
    return ()
"""

# appended to the copy's lp.py: every solve with presolve off fails
PRESOLVE_OFF_FAILS = """

_unpatched_simplex_solve = simplex_solve


def simplex_solve(model):
    if _shared_highs().getOptionValue("presolve")[1] == "off":
        raise Infeasible("stand-in for HiGHS failing with presolve off")
    return _unpatched_simplex_solve(model)
"""


def test_tree_diff_counts_the_presolve_on_reruns(tmp_path):
    """Both trees seed no cuts, so a loop that fails reruns with presolve on
    at once, in the same rounds as the other tree's presolve-off loop."""
    trees = [tmp_path / "unseeded", tmp_path / "fails"]
    for tree, patch in zip(trees, [NO_SEEDS, NO_SEEDS + PRESOLVE_OFF_FAILS]):
        with open(patched_src(tree, "lp.py"), "a") as out:
            out.write(patch)
    proc = tree_diff("--count", "3", "--repeat", "1", *(str(tree / "src") for tree in trees))
    assert proc.returncode in (0, 1), proc.stderr
    relaxation = json.loads(proc.stdout)["relaxation"]
    assert all(group["seeded_cuts"] == [0, 0] for group in relaxation.values())
    # a call reruns once its first solve fails; with n <= m none solves
    assert relaxation["n<=m"]["presolve_fallbacks"] == [0, 0]
    group = relaxation["n>m"]
    assert group["presolve_fallbacks"][0] == 0 < group["presolve_fallbacks"][1] <= group["calls"]
    assert group["highs_solves"][1] == group["highs_solves"][0] + group["presolve_fallbacks"][1]


# appended to the copy's lp.py: no vertex counts as the unique optimum, so the
# canonical pass runs at the end of every loop that solves
NO_UNIQUE_OPTIMUM = """


def _unique_optimum(vertex, columns):
    return False
"""


def test_tree_diff_counts_the_canonical_passes(tmp_path):
    with open(patched_src(tmp_path, "lp.py"), "a") as out:
        out.write(NO_UNIQUE_OPTIMUM)
    proc = tree_diff("--count", "3", "--repeat", "1", str(ROOT / "src"), str(tmp_path / "src"))
    assert proc.returncode in (0, 1), proc.stderr
    relaxation = json.loads(proc.stdout)["relaxation"]
    assert relaxation["n<=m"]["canonical_passes"] == [0, 0]  # no solve, so no pass
    group = relaxation["n>m"]
    (skipping, always), solves = group["canonical_passes"], group["highs_solves"]
    # each pass is one HiGHS solve; one that finds a cut adds a round too
    assert skipping < always and solves[1] - solves[0] >= always - skipping
    assert relaxation["all"]["canonical_passes"] == group["canonical_passes"]
