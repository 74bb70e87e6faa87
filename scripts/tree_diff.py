#!/usr/bin/env python3
"""Answers and per-call times of four layers, compared across `src` trees.

    python scripts/tree_diff.py [--count K] [--max-lines L] [--repeat R]
                                [--switch-probability P] SRC [SRC ...]

Each SRC is a `src` directory holding the `gridrepair` package, say a
checkout of the parent commit's `src` and this one's.  Each repetition runs
`worker` for every SRC in a fresh interpreter with PYTHONPATH=SRC, from an
empty directory; the order rotates on each repetition, so no side always
runs first.  `worker` imports the package there and runs three layers, each
once untimed, then once timed, and the CLI commands of a fourth each run in
a process of their own:

* `relaxation`: on the corpus `gridrepair bench --seed 0 --count K
  --max-lines L` draws (`harness.generate_random`, seeds 0 to K - 1), with
  each line a switch with probability P (0.4 by default, as in the bench;
  at 0 every feeder is one island, where the oracle meets the most ties), at
  m = 2 and 3, `lp.solve_relaxation`, counting its `lp.simplex_solve` calls,
  whether it ran a loop with HiGHS presolve on after a loop that failed or
  ended off its optimum (a presolve-on `lp.simplex_solve` call after its
  first loop), the solves of its first loop that it retried in place with
  presolve on (its presolve-on `lp.simplex_solve` calls in that loop), the
  loops it ran (`lp._base_model` calls: 1, or 2 where the loop of one cut
  per round ran with presolve on), the cut rows that round 1 seeded beside
  its own cut (the cuts beyond one per solved round) and its separation
  calls (`lp._most_violated`), with their seconds, and its round-1 seconds
  (up to its first `lp.simplex_solve` call, or the whole call where it
  solves nothing), on the untimed pass, then the lp-list schedule built
  from it (not timed);
* `oracle`: `oracle.brute_force_optimal` on the same (instance, m);
* `load`: for each size of 100 to 2000 lines, five random radial feeders
  (node k hangs off a uniformly drawn earlier node, 10 % switches, repair
  times and weights 0-10, m = 3), generated here with the standard library
  and written in three forms: `oriented` (every line from its upstream
  node, lines in id order), `half-reversed` (every other line given `to` ->
  `from`) and `shuffled` (lines in random order, each reversed with
  probability 1/2).  Only the first form skips the orienting traversal.
  Timed: `harness.load_instance`, then `instance.islands`, then
  `harness.result_to_text` of the `convert` schedule (the schedule itself
  is not timed);
* `cli`: `validate`, `schedule --alg convert` and `--alg lp-list --dump-lp`
  on each bundled fixture, `islands` and `schedule --alg single-optimal` on
  feeder123.json, `oracle` on fork.json, `schedule fork.json --alg lp-list
  --crews 2 --out out.json` spelled twice (so, which the CLI parses itself,
  and with `--alg=lp-list --cr 2`, which it leaves to argparse) and `bench
  --count 20`.  Each runs
  `gridrepair.cli` as `python -m` does, then reports its exit code, whether
  it loaded numpy and scipy.optimize, and its own peak RSS: `VmHWM`, or
  `ru_maxrss` where /proc is missing (not `wait4`'s, which a child inherits
  from its launcher).  Timed: the whole process.

One JSON object is printed, each figure listed per SRC in the order given:
the median over a group of calls of each call's best time, in microseconds
for the relaxation (per calls with at most m damaged lines, the others and
all, with the total count of HiGHS solves, of calls that took the
presolve-on loop, of solves retried in place, of loops, of seeded cut rows
and of separation calls, and the separation's and round 1's seconds: each
the sum over the calls of each call's best) and for
the oracle (per damaged-line count n and m, with the largest best time
of the group beside the median as `max_us`), and in milliseconds per feeder size and form for load
plus JSON writing (`load_write`), the islands alone (`islands`) and load
plus islands (`load_islands`), and per command the best wall time in s,
the largest peak RSS in MB and the modules loaded.  `same_answers` says
whether every run of every SRC gave the same answer for each call:
completion and energization maps, objective `repr`, round count, cut count
and lp-list JSON, or the same error; the `oracle` JSON; the schedule JSON
and `gridrepair islands` JSON of each file; each command's exit code,
stdout, stderr, `--dump-lp` text, `--out` JSON and bench CSV without its
`t_*` columns.
If not, `first_difference` names the layer and the first differing call,
file or command, and the exit status is 1; a worker or command that ends
without its report exits 2, naming the SRC.  Each SRC is byte-compiled
first, so no side pays for compiling its sources.  Standard library only,
apart from the package under test, which only `worker` imports.  `worker`
can be imported from this file and called in-process on whichever
`gridrepair` is importable: the tests do so with stand-ins for the
package's functions.  The `lp` functions it patches to count are restored
before it returns or raises.
"""

from __future__ import annotations

import argparse
import compileall
import csv
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CREWS = (2, 3)
LAYERS = ("relaxation", "oracle", "load", "cli")
SIZES = (100, 250, 500, 1000, 2000)
FEEDERS = 5
FORMS = ("oriented", "half-reversed", "shuffled")
LOAD_TIMES = ("load_write", "islands", "load_islands")

# the counts `worker` keeps per relaxation call, each summed per group in the output
COUNTS = ("highs_solves", "presolve_fallbacks", "presolve_retries", "loops", "seeded_cuts",
          "separation_calls")
# and the seconds it keeps per call, each summed per group of the calls' best
SECONDS = ("separation_s", "round1_s")


def worker(config: dict) -> dict:
    """The relaxation, oracle and load layers, run in this interpreter on the
    `gridrepair` it imports (the module docstring).

    `config` holds count, max_lines, switch_probability, crews and files.
    The report holds [seed, n, m] per call (`calls`), each call's COUNTS and
    SECONDS from the untimed pass (`counts`) and, per layer, [times, answer]
    per call or file.  `lp`'s functions count that pass, and are what they
    were again once this returns or raises.
    """
    import contextlib
    import io

    from gridrepair import algos, cli, harness, lp, oracle

    calls = []
    for seed in range(config["count"]):
        instance = harness.generate_random(harness.GenParams(
            seed=seed, nodes=(2, config["max_lines"] + 1), crews=tuple(config["crews"]),
            switch_probability=config["switch_probability"]))
        n = sum(1 for p in instance.repair_times().values() if p > 0)
        calls += [(seed, n, m, instance) for m in config["crews"]]

    def relaxation(instance, m):
        start = time.perf_counter()
        try:
            sol = lp.solve_relaxation(instance, crews=m)
        except Exception as exc:
            return [time.perf_counter() - start], f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        plan = algos.lp_list_schedule(instance, crews=m, solution=sol)
        return [seconds], json.dumps([
            repr(sol.completion), repr(sol.energization), repr(sol.objective),
            sol.iterations, len(sol.cuts), harness.result_to_text(plan)])

    def optimum(instance, m):
        start = time.perf_counter()
        result = oracle.brute_force_optimal(instance, m)
        seconds = time.perf_counter() - start
        return [seconds], json.dumps(harness.oracle_to_json(result, m))

    def load(path):
        start = time.perf_counter()
        instance = harness.load_instance(path)
        loaded = time.perf_counter()
        instance.islands
        split = time.perf_counter()
        result = algos.convert_single_to_m(instance, crews=instance.crews)
        start_write = time.perf_counter()
        text = harness.result_to_text(result)
        written = time.perf_counter() - start_write
        with contextlib.redirect_stdout(io.StringIO()) as islands:
            cli.main(["islands", path])
        return ([loaded - start + written, split - loaded, split - start],
                text + islands.getvalue())

    solve, separate, counts = lp.simplex_solve, lp._most_violated, []
    base_model, relax = lp._base_model, lp.solve_relaxation

    def round_one():  # the seconds since the call began, at its first solve or its end
        if not counts[-1]["highs_solves"]:
            counts[-1]["round1_s"] = time.perf_counter() - counts[-1]["round1_s"]

    def counted(model, presolve=False):
        round_one()
        count = counts[-1]
        count["highs_solves"] += 1
        if presolve:  # a retry in the first loop, else the presolve-on loop
            if count["loops"] == 1:
                count["presolve_retries"] += 1
            else:
                count["presolve_fallbacks"] = 1
        return solve(model, presolve)

    def looped(*args):
        counts[-1]["loops"] += 1
        return base_model(*args)

    def started(*args, **kwargs):
        counts[-1]["round1_s"] = time.perf_counter()
        try:
            return relax(*args, **kwargs)
        finally:
            round_one()

    def timed(*args):
        start = time.perf_counter()
        found = separate(*args)
        counts[-1]["separation_s"] += time.perf_counter() - start
        counts[-1]["separation_calls"] += 1
        return found

    # looked up by the loop at each call, so every solve and separation is counted
    lp.simplex_solve, lp._most_violated = counted, timed
    lp._base_model, lp.solve_relaxation = looped, started
    try:
        for _, _, m, instance in calls:
            counts.append({**dict.fromkeys(COUNTS, 0), **dict.fromkeys(SECONDS, 0.0)})
            _, answer = relaxation(instance, m)
            if answer.startswith("["):  # not an error: the cuts beyond one per solved round
                rounds, cuts = json.loads(answer)[3:5]
                counts[-1]["seeded_cuts"] = cuts - (rounds - 1)
    finally:
        lp.simplex_solve, lp._most_violated = solve, separate
        lp._base_model, lp.solve_relaxation = base_model, relax
    out = {"calls": [call[:3] for call in calls], "counts": counts,
           "relaxation": [relaxation(instance, m) for _, _, m, instance in calls]}
    for _, _, m, instance in calls:
        optimum(instance, m)
    out["oracle"] = [optimum(instance, m) for _, _, m, instance in calls]
    for path in config["files"]:
        load(path)
    out["load"] = [load(path) for path in config["files"]]
    return out


# Run in a fresh interpreter with PYTHONPATH=SRC: argv is the report file and
# `worker`'s config as JSON.  scripts/ goes on the path after SRC, so SRC's
# `gridrepair` is the one `worker` imports.
ENTRY = f"""
import json, sys
sys.path.append({str(ROOT / "scripts")!r})
import tree_diff
with open(sys.argv[1], "w") as report:
    json.dump(tree_diff.worker(json.loads(sys.argv[2])), report)
"""

# Run in a fresh process per command with PYTHONPATH=SRC: argv is the report
# file, then the command's; file descriptors 1 and 2 stay the CLI's.
RUNNER = """
import json, runpy, sys
report, sys.argv, code = sys.argv[1], ["gridrepair", *sys.argv[2:]], 0
try:
    runpy.run_module("gridrepair.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
try:
    with open("/proc/self/status") as status:
        kib = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
except OSError:  # ru_maxrss is in KiB, on macOS in bytes
    from resource import RUSAGE_SELF, getrusage
    kib = getrusage(RUSAGE_SELF).ru_maxrss / (1024 if sys.platform == "darwin" else 1)
with open(report, "w") as out:
    json.dump([code, [m for m in ("numpy", "scipy.optimize") if m in sys.modules],
               round(kib / 1024, 1)], out)
"""
FIXTURES = ("feeder123.json", "fork.json", "graham_m3.json", "two_island.json")
COMMANDS = [argv for name in FIXTURES for argv in (
    ["validate", name], ["schedule", name, "--alg", "convert"],
    ["schedule", name, "--alg", "lp-list", "--dump-lp", "model.txt"])] + [
    ["islands", "feeder123.json"], ["schedule", "feeder123.json", "--alg", "single-optimal"],
    ["oracle", "fork.json"],
    ["schedule", "fork.json", "--alg", "lp-list", "--crews", "2", "--out", "out.json"],
    ["schedule", "fork.json", "--alg=lp-list", "--cr", "2", "--out", "out.json"],
    ["bench", "--count", "20", "--out", "bench.csv"]]


def feeder(rng: random.Random, lines: int) -> dict:
    """An oriented feeder of `lines` lines, listed in id order."""
    width = len(str(lines))
    node_ids = [f"n{k:0{width}d}" for k in range(lines + 1)]
    switches = set(rng.sample(range(1, lines + 1), round(0.1 * lines)))
    return {
        "root": node_ids[0],
        "crews": 3,
        "nodes": [{"id": nid, "weight": rng.randint(1 if k == 1 else 0, 10)}
                  for k, nid in enumerate(node_ids)],
        "lines": [{"id": f"l{k:0{width}d}", "from": node_ids[rng.randrange(k)], "to": node_ids[k],
                   "repair_time": rng.randint(0, 10), "switch": k in switches}
                  for k in range(1, lines + 1)],
    }


def reverse(line: dict) -> dict:
    return {**line, "from": line["to"], "to": line["from"]}


def write_corpus(folder: Path) -> dict[str, tuple[int, str]]:
    """Write every feeder in every form; file path -> (size, form)."""
    rng, files = random.Random(19), {}
    for size in SIZES:
        for k in range(FEEDERS):
            raw = feeder(rng, size)
            lines = raw["lines"]
            shuffled = [reverse(ln) if rng.random() < 0.5 else ln for ln in lines]
            rng.shuffle(shuffled)
            forms = {"oriented": lines,
                     "half-reversed": [reverse(ln) if j % 2 else ln for j, ln in enumerate(lines)],
                     "shuffled": shuffled}
            for form in FORMS:
                path = folder / f"{size}-{k}-{form}.json"
                path.write_text(json.dumps({**raw, "lines": forms[form]}))
                files[str(path)] = (size, form)
    return files


def launch(src: str, script: str, args: list[str], cwd: str, what: str) -> tuple:
    """Wall seconds, the process and the JSON report of `script` run in a fresh
    interpreter with PYTHONPATH=SRC; exits 2 if it ends without its report."""
    env, report = dict(os.environ, PYTHONPATH=str(Path(src).resolve())), Path(cwd, "report")
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", script, report.name, *args],
                          env=env, cwd=cwd, capture_output=True, text=True)
    seconds = time.perf_counter() - start
    if proc.returncode:  # the report is the script's last act, so there is none
        sys.stderr.write(f"{proc.stderr}error: {src}: {what} failed with exit {proc.returncode}\n")
        sys.exit(2)
    out = json.loads(report.read_text())
    report.unlink()
    return seconds, proc, out


def run_command(src: str, argv: list[str], cwd: str) -> tuple[list, str, float, list]:
    """[wall seconds], the answer, peak RSS in MB and the modules loaded of one cold run."""
    seconds, proc, (code, loaded, peak) = launch(src, RUNNER, argv, cwd, " ".join(argv))
    paths = [Path(cwd, name) for name in ("model.txt", "out.json", "bench.csv")]
    texts = {path.name: path.read_text() for path in paths if path.exists()}
    for path in paths:
        path.unlink(missing_ok=True)
    if "bench.csv" in texts:  # without its wall-time columns
        rows = list(csv.reader(texts["bench.csv"].splitlines()))
        texts["bench.csv"] = [[cell for cell, column in zip(row, rows[0])
                               if not column.startswith("t_")] for row in rows]
    return [seconds], json.dumps([code, proc.stdout, proc.stderr, texts]), peak, loaded


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=200, metavar="K")
    parser.add_argument("--max-lines", type=int, default=8, metavar="L")
    parser.add_argument("--repeat", type=int, default=5, metavar="R")
    parser.add_argument("--switch-probability", type=float, default=0.4, metavar="P")
    parser.add_argument("src", nargs="+")
    args = parser.parse_args()
    for option in ("count", "max_lines", "repeat"):
        if getattr(args, option) < 1:
            parser.error(f"--{option.replace('_', '-')} must be at least 1")
    for src in set(args.src):
        compileall.compile_dir(src, quiet=1)
    trees = list(range(len(args.src)))
    best: dict[tuple[str, int, int], list[float]] = {}  # (layer, tree, call) -> best seconds
    answers: dict[tuple[str, int], set[str]] = {}  # (layer, call) -> every answer given
    counts: dict[int, list[dict]] = {}  # tree -> per call COUNTS and SECONDS
    cold: dict[tuple[int, int], tuple] = {}  # (tree, command) -> largest peak RSS, modules
    with tempfile.TemporaryDirectory() as cwd:  # so that no `gridrepair` is found beside it
        files = write_corpus(Path(cwd))
        shutil.copytree(ROOT / "fixtures", cwd, dirs_exist_ok=True)
        config = {"count": args.count, "max_lines": args.max_lines,
                  "switch_probability": args.switch_probability, "crews": CREWS,
                  "files": list(files)}
        for k in range(args.repeat):
            for tree in trees[k % len(trees):] + trees[:k % len(trees)]:
                out = launch(args.src[tree], ENTRY, [json.dumps(config)], cwd, "the worker")[2]
                out["cli"] = [run_command(args.src[tree], argv, cwd) for argv in COMMANDS]
                counts[tree], calls = out["counts"], out["calls"]
                for j, call in enumerate(counts[tree]):
                    for part in SECONDS:
                        key, seconds = (part, tree, j), call[part]
                        best[key] = [min(best.get(key, [seconds])[0], seconds)]
                for layer in LAYERS:
                    for j, (seconds, answer, *_) in enumerate(out[layer]):
                        key = (layer, tree, j)
                        best[key] = [min(pair) for pair in zip(best.get(key, seconds), seconds)]
                        answers.setdefault((layer, j), set()).add(answer)
                for j, (_, _, peak, loaded) in enumerate(out["cli"]):
                    cold[tree, j] = max(cold.get((tree, j), (0.0,))[0], peak), loaded

    def medians(layer: str, group: list[int], scale: float, digits: int, part: int = 0) -> list:
        return [round(statistics.median(best[layer, tree, j][part] for j in group) * scale, digits)
                if group else None for tree in trees]

    result = {"count": args.count, "max_lines": args.max_lines, "repeat": args.repeat,
              "switch_probability": args.switch_probability,
              "crews": list(CREWS), "feeders_per_size": FEEDERS,
              "python": sys.version.split()[0], "src": args.src,
              "relaxation": {}, "oracle_median_best_us": {}, "load_median_best_ms": {},
              "cli": {" ".join(argv): {"best_s": medians("cli", [j], 1, 4),
                                       "peak_rss_mb": [cold[tree, j][0] for tree in trees],
                                       "loaded": [cold[tree, j][1] for tree in trees]}
                      for j, argv in enumerate(COMMANDS)}}
    for label, keep in (("n<=m", lambda n, m: n <= m), ("n>m", lambda n, m: n > m),
                        ("all", lambda n, m: True)):
        group = [j for j, (_, n, m) in enumerate(calls) if keep(n, m)]
        result["relaxation"][label] = {
            "calls": len(group), "median_best_us": medians("relaxation", group, 1e6, 1),
            **{name: [sum(counts[tree][j][name] for j in group) for tree in trees]
               for name in COUNTS},
            **{part: [round(sum(best[part, tree, j][0] for j in group), 6) for tree in trees]
               for part in SECONDS}}
    for n in sorted({n for _, n, _ in calls}):
        for m in CREWS:
            group = [j for j, call in enumerate(calls) if call[1:] == [n, m]]
            result["oracle_median_best_us"][f"n={n} m={m}"] = {
                "instances": len(group), "us": medians("oracle", group, 1e6, 1),
                "max_us": [round(max(best["oracle", tree, j][0] for j in group) * 1e6, 1)
                           if group else None for tree in trees]}
    paths = list(files)
    for size in SIZES:
        for form in FORMS:
            group = [j for j, path in enumerate(paths) if files[path] == (size, form)]
            result["load_median_best_ms"][f"{size} lines, {form}"] = {
                name: medians("load", group, 1e3, 3, part) for part, name in enumerate(LOAD_TIMES)}
    differ = [key for key, texts in answers.items() if len(texts) > 1]  # in layer order
    result["same_answers"] = not differ
    if differ:
        layer, j = differ[0]
        call = ({"file": Path(paths[j]).name} if layer == "load"
                else {"command": " ".join(COMMANDS[j])} if layer == "cli"
                else {"seed": calls[j][0], "m": calls[j][2]})
        result["first_difference"] = {"layer": layer, **call, "differing_calls": len(differ)}
    print(json.dumps(result, indent=1))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
