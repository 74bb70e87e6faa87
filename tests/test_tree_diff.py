import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import reference_conversion_harm, reference_single_crew_seeds

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
        # every call spends some time before its first solve, or ends without one
        assert [seconds > 0 for seconds in group["round1_s"]] == [group["calls"] > 0] * 2
        assert group["presolve_fallbacks"] == group["presolve_retries"] == [0, 0]
        assert group["loops"] == [group["calls"]] * 2  # no loop ran again
        # round 1 seeds cuts only where it finds one, so never with a crew per line
        seeded, spare = group["seeded_cuts"], group is result["relaxation"]["n<=m"]
        assert seeded[0] == seeded[1] and (seeded[0] == 0) == spare


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


# appended to the copy's oracle.py: answers on feeders of more than one island change
MULTI_ISLAND_PATCH = """

_unpatched_brute_force_optimal = brute_force_optimal


def brute_force_optimal(instance, m, incumbent=None):
    result = _unpatched_brute_force_optimal(instance, m, incumbent)
    if len(instance.islands.islands) == 1:
        return result
    return OracleResult(result.harm, result.priority_list, enumerated=0)
"""


def test_tree_diff_draws_its_corpus_at_the_switch_probability(tmp_path):
    """At the default 0.4 the corpus's oracle calls differ first; at 0 every
    corpus feeder is one island, so only `oracle fork.json` differs."""
    with open(patched_src(tmp_path, "oracle.py"), "a") as out:
        out.write(MULTI_ISLAND_PATCH)
    trees = str(ROOT / "src"), str(tmp_path / "src")
    results = [json.loads(tree_diff("--count", "3", "--repeat", "1", *options, *trees).stdout)
               for options in ([], ["--switch-probability", "0"])]
    assert [result["switch_probability"] for result in results] == [0.4, 0.0]
    assert results[0]["first_difference"]["layer"] == "oracle"
    assert results[1]["first_difference"] == {
        "layer": "cli", "command": "oracle fork.json", "differing_calls": 1}


# appended to a copy's lp.py: round 1 seeds no cut, so every loop adds one cut per round
NO_SEEDS = """

_unpatched_single_crew_seeds = _single_crew_seeds


def _single_crew_seeds(*args):
    return [], _unpatched_single_crew_seeds(*args)[1]
"""

# appended to the copy's lp.py: every solve with presolve off fails
PRESOLVE_OFF_FAILS = """

_unpatched_simplex_solve = simplex_solve


def simplex_solve(model, presolve=False):
    if not presolve:
        raise Infeasible("stand-in for HiGHS failing with presolve off")
    return _unpatched_simplex_solve(model, presolve)
"""


def test_tree_diff_counts_the_presolve_on_reruns(tmp_path):
    """Both trees seed no cuts.  Where every presolve-off solve fails, each
    is retried in place with presolve on, and the loop goes on in the same
    rounds as the other tree's presolve-off loop: one loop per call, and
    two solves per round."""
    trees = [tmp_path / "unseeded", tmp_path / "fails"]
    for tree, patch in zip(trees, [NO_SEEDS, NO_SEEDS + PRESOLVE_OFF_FAILS]):
        with open(patched_src(tree, "lp.py"), "a") as out:
            out.write(patch)
    proc = tree_diff("--count", "3", "--repeat", "1", *(str(tree / "src") for tree in trees))
    assert proc.returncode in (0, 1), proc.stderr
    relaxation = json.loads(proc.stdout)["relaxation"]
    assert all(group["seeded_cuts"] == [0, 0] for group in relaxation.values())
    assert relaxation["n<=m"]["presolve_retries"] == [0, 0]  # with n <= m none solves
    group = relaxation["n>m"]
    solves, retries = group["highs_solves"], group["presolve_retries"]
    assert retries == [0, solves[0]] and solves[1] == 2 * solves[0] > 0
    assert group["presolve_fallbacks"] == [0, 0] and group["loops"] == [group["calls"]] * 2


# appended to the copy's lp.py: every solve of a first loop fails, with
# presolve off and in its retry with presolve on
FIRST_LOOP_FAILS = """

_unpatched_simplex_solve, _retry = simplex_solve, [False]


def simplex_solve(model, presolve=False):
    retry, _retry[0] = _retry[0], not presolve
    if not presolve or retry:
        raise Infeasible("stand-in for HiGHS failing in a first loop")
    return _unpatched_simplex_solve(model, presolve)
"""


def test_tree_diff_counts_the_presolve_on_loops(tmp_path):
    """Where the first loop's first solve fails with presolve off and in its
    retry, the loop of one cut per round runs with presolve on and answers:
    one retry, one presolve-on loop and one more loop per call that solves."""
    with open(patched_src(tmp_path, "lp.py"), "a") as out:
        out.write(FIRST_LOOP_FAILS)
    proc = tree_diff("--count", "3", "--repeat", "1", str(ROOT / "src"), str(tmp_path / "src"))
    assert proc.returncode in (0, 1), proc.stderr
    group = json.loads(proc.stdout)["relaxation"]["all"]
    (_, retries), (_, fallbacks) = group["presolve_retries"], group["presolve_fallbacks"]
    assert group["presolve_retries"][0] == group["presolve_fallbacks"][0] == 0
    assert 0 < retries == fallbacks <= group["calls"]
    assert group["loops"] == [group["calls"], group["calls"] + fallbacks]
    seeded, unseeded = group["seeded_cuts"]
    assert seeded > 0 == unseeded  # the loop that answers adds one cut per round


# appended to a copy's lp.py: round 1's seeds and conversion bound built prefix by prefix
REFERENCE_SEEDS = "\n\n" + "\n\n".join(map(inspect.getsource, (
    reference_conversion_harm, reference_single_crew_seeds))) + """

_single_crew_seeds = reference_single_crew_seeds
"""


def test_tree_diff_finds_the_reference_seeds_the_same(tmp_path):
    """A tree whose round 1 builds each seed from its own prefix, as
    `reference_single_crew_seeds` does, gives the same answers, HiGHS solves,
    retries, loops, seeded cuts and separation calls as the one walk."""
    with open(patched_src(tmp_path, "lp.py"), "a") as out:
        out.write(REFERENCE_SEEDS)
    proc = tree_diff("--count", "12", "--repeat", "1", str(ROOT / "src"), str(tmp_path / "src"))
    result = json.loads(proc.stdout)
    assert proc.returncode == 0 and result["same_answers"] is True, proc.stderr
    group = result["relaxation"]["all"]
    for field in ("highs_solves", "presolve_retries", "presolve_fallbacks", "loops",
                  "seeded_cuts", "separation_calls"):
        assert group[field][0] == group[field][1], field
    assert group["seeded_cuts"][0] > 0
