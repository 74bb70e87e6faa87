import json
import shutil
import sys
from pathlib import Path

import pytest

from conftest import FIXTURES, reference_single_crew_seeds
from gridrepair import algos, harness, lp, oracle

ROOT = Path(__file__).resolve().parent.parent
sys.path.append(str(ROOT / "scripts"))
import tree_diff  # noqa: E402
from tree_diff import COUNTS, CREWS, worker  # noqa: E402

# appended to the copy's harness.py: every oracle JSON gains a key
ORACLE_PATCH = """

_unpatched_oracle_to_json = oracle_to_json


def oracle_to_json(result, crews):
    return {**_unpatched_oracle_to_json(result, crews), "patched": True}
"""


def run_tree_diff(monkeypatch, capsys, *args: str) -> tuple[int, str, str]:
    """The exit status, stdout and stderr of `scripts/tree_diff.py args`, whose
    `main` runs in this process on a load corpus of one feeder of 100 lines,
    written in each of the three forms (its workers and commands still run in
    processes of their own)."""
    monkeypatch.setattr(sys, "argv", ["tree_diff.py", *args])
    monkeypatch.setattr(tree_diff, "SIZES", (100,))
    monkeypatch.setattr(tree_diff, "FEEDERS", 1)
    try:
        code = tree_diff.main()
    except SystemExit as exc:
        code = exc.code
    return (code, *capsys.readouterr())


def run_worker(count: int, switch_probability: float = 0.4) -> dict:
    """The report of `scripts/tree_diff.py`'s `worker`, run in this process on
    the corpus of seeds 0 to count - 1 of at most 8 lines, with no load files."""
    return worker({"count": count, "max_lines": 8, "crews": CREWS,
                   "switch_probability": switch_probability, "files": []})


def answers(report: dict, layer: str) -> list[str]:
    return [answer for _, answer in report[layer]]


def patched_src(tmp_path: Path, module: str) -> Path:
    """A copy of `src` in `tmp_path` whose `gridrepair/<module>` the caller
    then patches."""
    copy = tmp_path / "src"
    shutil.copytree(ROOT / "src", copy, ignore=shutil.ignore_patterns("__pycache__"))
    return copy / "gridrepair" / module


def test_tree_diff_fails_on_a_changed_oracle_answer(tmp_path, monkeypatch, capsys):
    harness = patched_src(tmp_path, "harness.py")
    with open(harness, "a") as out:
        out.write(ORACLE_PATCH)
    code, stdout, _ = run_tree_diff(monkeypatch, capsys, "--count", "3", "--repeat", "1",
                                    str(ROOT / "src"), str(tmp_path / "src"))
    result = json.loads(stdout)
    assert code == 1 and result["same_answers"] is False
    assert result["switch_probability"] == 0.4  # the default
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


def test_tree_diff_fails_on_a_changed_cli_answer(tmp_path, monkeypatch, capsys):
    cli = patched_src(tmp_path, "cli.py")
    text, line = cli.read_text(), 'f"OK: {len(instance.nodes)} nodes, '
    assert text.count(line) == 1  # the start of `validate`'s success line
    cli.write_text(text.replace(line, line.replace("OK", "ok")))
    code, stdout, _ = run_tree_diff(monkeypatch, capsys, "--count", "1", "--repeat", "1",
                                    "--switch-probability", "0",
                                    str(ROOT / "src"), str(tmp_path / "src"))
    result = json.loads(stdout)
    assert code == 1 and result["same_answers"] is False
    assert result["switch_probability"] == 0.0
    # the relaxation, oracle and load layers agree; only the four `validate` commands differ
    assert result["first_difference"] == {
        "layer": "cli", "command": "validate feeder123.json", "differing_calls": 4}
    assert result["cli"]["validate feeder123.json"]["loaded"] == [[], []]


@pytest.mark.parametrize("option", ["--count", "--max-lines", "--repeat"])
def test_tree_diff_rejects_an_option_below_one(monkeypatch, capsys, option):
    code, stdout, stderr = run_tree_diff(monkeypatch, capsys, option, "0", str(ROOT / "src"))
    assert code == 2 and not stdout
    assert f"error: {option} must be at least 1" in stderr


def test_tree_diff_draws_its_corpus_at_the_switch_probability(monkeypatch):
    """A stand-in oracle changes its answer on feeders of more than one island,
    as on fork.json.  At the default 0.4 some corpus feeders have more than
    one island and the oracle layer's answers change; at 0 every corpus
    feeder is one island, and no answer changes."""
    reports = {probability: run_worker(3, probability) for probability in (0.4, 0.0)}
    optimal, islands = oracle.brute_force_optimal, []

    def multi_island_changed(instance, m, incumbent=None):
        result = optimal(instance, m, incumbent)
        islands.append(len(instance.islands.islands))
        return result if islands[-1] == 1 else result._replace(enumerated=0)

    fork = harness.load_instance(FIXTURES / "fork.json")
    assert multi_island_changed(fork, 2) != optimal(fork, 2)
    monkeypatch.setattr(oracle, "brute_force_optimal", multi_island_changed)
    for probability, report in reports.items():
        islands.clear()
        changed = run_worker(3, probability)
        assert changed["calls"] == report["calls"]
        assert answers(changed, "relaxation") == answers(report, "relaxation")
        differ = answers(changed, "oracle") != answers(report, "oracle")
        assert differ == (max(islands) > 1) == (probability > 0)


def test_tree_diff_counts_the_presolve_on_reruns(monkeypatch):
    """Both runs seed no cuts.  Where every presolve-off solve fails, each is
    retried in place with presolve on, and the loop goes on in the same
    rounds as the other run's presolve-off loop: one loop per call, and two
    solves per round."""
    walk = lp._single_crew_seeds  # no seeds beside the walk's own U
    monkeypatch.setattr(lp, "_single_crew_seeds", lambda *args: ([], walk(*args)[1]))
    unseeded = run_worker(3)
    solve = lp.simplex_solve

    def presolve_off_fails(model, presolve=False):
        if not presolve:
            raise lp.Infeasible("stand-in for HiGHS failing with presolve off")
        return solve(model, presolve)

    monkeypatch.setattr(lp, "simplex_solve", presolve_off_fails)
    fails = run_worker(3)
    assert fails["calls"] == unseeded["calls"]
    solved = 0
    for (_, n, m), off, on in zip(unseeded["calls"], unseeded["counts"], fails["counts"]):
        assert off["seeded_cuts"] == on["seeded_cuts"] == 0
        assert off["presolve_retries"] == 0 and on["presolve_retries"] == off["highs_solves"]
        assert on["highs_solves"] == 2 * off["highs_solves"]
        assert off["presolve_fallbacks"] == on["presolve_fallbacks"] == 0
        assert off["loops"] == on["loops"] == 1
        if n <= m:  # none solves
            assert on["highs_solves"] == 0
        solved += off["highs_solves"]
    assert solved > 0


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


def test_tree_diff_counts_the_presolve_on_loops(tmp_path, monkeypatch, capsys):
    """Where the first loop's first solve fails with presolve off and in its
    retry, the loop of one cut per round runs with presolve on and answers:
    one retry, one presolve-on loop and one more loop per call that solves."""
    with open(patched_src(tmp_path, "lp.py"), "a") as out:
        out.write(FIRST_LOOP_FAILS)
    code, stdout, stderr = run_tree_diff(monkeypatch, capsys, "--count", "3", "--repeat", "1",
                                         str(ROOT / "src"), str(tmp_path / "src"))
    assert code in (0, 1), stderr
    group = json.loads(stdout)["relaxation"]["all"]
    (_, retries), (_, fallbacks) = group["presolve_retries"], group["presolve_fallbacks"]
    assert group["presolve_retries"][0] == group["presolve_fallbacks"][0] == 0
    assert 0 < retries == fallbacks <= group["calls"]
    assert group["loops"] == [group["calls"], group["calls"] + fallbacks]
    seeded, unseeded = group["seeded_cuts"]
    assert seeded > 0 == unseeded  # the loop that answers adds one cut per round


def test_tree_diff_finds_the_reference_seeds_the_same(monkeypatch):
    """A run whose round 1 builds each seed from its own prefix, as
    `reference_single_crew_seeds` does, gives the same answers, HiGHS solves,
    retries, loops, seeded cuts and separation calls as the one walk."""
    walk = run_worker(12)
    monkeypatch.setattr(lp, "_single_crew_seeds", reference_single_crew_seeds)
    reference = run_worker(12)
    for layer in ("relaxation", "oracle"):
        assert answers(reference, layer) == answers(walk, layer), layer
    for walked, referenced in zip(walk["counts"], reference["counts"], strict=True):
        for field in COUNTS:
            assert walked[field] == referenced[field], field
    assert sum(count["seeded_cuts"] for count in walk["counts"]) > 0


class Interrupted(BaseException):
    """Not an Exception, so the relaxation layer does not catch it."""


@pytest.mark.parametrize("module, name", [(None, None), (lp, "_most_violated"),
                                          (algos, "lp_list_schedule")],
                         ids=["returns", "raises-in-the-relaxation", "raises-in-its-schedule"])
def test_tree_diff_worker_restores_lp(monkeypatch, module, name):
    """`lp`'s functions are the ones from before the call once `worker` returns,
    or raises from inside a relaxation or from the lp-list schedule built on it."""
    if module:
        def raises(*args, **kwargs):
            raise Interrupted("stand-in raising inside the relaxation layer")

        monkeypatch.setattr(module, name, raises)
    names = ("simplex_solve", "_most_violated", "_base_model", "solve_relaxation")
    before = [getattr(lp, name) for name in names]
    if module:
        with pytest.raises(Interrupted):
            run_worker(1)
    else:
        assert run_worker(1)["counts"]
    assert all(getattr(lp, name) is function for name, function in zip(names, before))
