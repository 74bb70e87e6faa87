#!/usr/bin/env python3
"""Answers and per-call times of three layers, compared across `src` trees.

    python scripts/tree_diff.py [--count K] [--max-lines L] [--repeat R] SRC [SRC ...]

Each SRC is a `src` directory holding the `gridrepair` package, say a
checkout of the parent commit's `src` and this one's.  Each repetition runs
every SRC in a fresh interpreter with PYTHONPATH=SRC, from an empty
directory; the order rotates on each repetition, so no side always runs
first.  The interpreter runs three layers, each once untimed, then once
timed:

* `relaxation`: on the corpus `gridrepair bench --seed 0 --count K
  --max-lines L` draws (`harness.generate_random`, seeds 0 to K - 1), at
  m = 2 and 3, `lp.solve_relaxation`, counting its `lp.simplex_solve` calls
  (rounds and canonical passes) on the untimed pass, then the lp-list
  schedule built from it (not timed);
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
  is not timed).

One JSON object is printed, each figure listed per SRC in the order given:
the median over a group of calls of each call's best time, in microseconds
for the relaxation (per calls with at most m damaged lines, the others and
all, with the total count of HiGHS solves) and for the oracle (per damaged-
line count n and m), and in milliseconds per feeder size and form for load
plus JSON writing (`load_write`), the islands alone (`islands`) and load
plus islands (`load_islands`).  `same_answers` says whether every run of
every SRC gave the same answer for each call: completion and energization
maps, objective `repr`, round count, cut count and lp-list JSON, or the
same error; the `oracle` JSON; the schedule JSON and `gridrepair islands`
JSON of each file.  If not, `first_difference` names the layer and the
first differing call or file, and the exit status is 1.  Each SRC is
byte-compiled first, so no side pays for compiling its sources.  Standard
library only, apart from the package under test.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

CREWS = (2, 3)
LAYERS = ("relaxation", "oracle", "load")
SIZES = (100, 250, 500, 1000, 2000)
FEEDERS = 5
FORMS = ("oriented", "half-reversed", "shuffled")
LOAD_TIMES = ("load_write", "islands", "load_islands")

# Run in a fresh interpreter with PYTHONPATH=SRC: argv is one JSON object of
# count, max_lines, crews and files; prints [seed, n, m] per call, the HiGHS
# solves per call and, per layer, [times, answer] per call or file.
WORKER = """
import contextlib, io, json, sys, time
from gridrepair import algos, cli, harness, lp, oracle

config = json.loads(sys.argv[1])
calls = []
for seed in range(config["count"]):
    instance = harness.generate_random(harness.GenParams(
        seed=seed, nodes=(2, config["max_lines"] + 1), crews=tuple(config["crews"])))
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

solve, solves = lp.simplex_solve, []

def counted(model):
    solves[-1] += 1
    return solve(model)

lp.simplex_solve = counted  # looked up by the loop at each call, so every solve is counted
for _, _, m, instance in calls:
    solves.append(0)
    relaxation(instance, m)
lp.simplex_solve = solve
out = {"calls": [call[:3] for call in calls], "solves": solves,
       "relaxation": [relaxation(instance, m) for _, _, m, instance in calls]}
for _, _, m, instance in calls:
    optimum(instance, m)
out["oracle"] = [optimum(instance, m) for _, _, m, instance in calls]
for path in config["files"]:
    load(path)
out["load"] = [load(path) for path in config["files"]]
print(json.dumps(out))
"""


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


def run_once(src: str, config: dict, cwd: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    proc = subprocess.run([sys.executable, "-c", WORKER, json.dumps(config)],
                          env=env, cwd=cwd, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=200, metavar="K")
    parser.add_argument("--max-lines", type=int, default=8, metavar="L")
    parser.add_argument("--repeat", type=int, default=5, metavar="R")
    parser.add_argument("src", nargs="+")
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    for src in set(args.src):
        compileall.compile_dir(src, quiet=1)
    trees = list(range(len(args.src)))
    best: dict[tuple[str, int, int], list[float]] = {}  # (layer, tree, call) -> best seconds
    answers: dict[tuple[str, int], set[str]] = {}  # (layer, call) -> every answer given
    solves: dict[int, list[int]] = {}  # tree -> HiGHS solves per call
    with tempfile.TemporaryDirectory() as cwd:  # so that no `gridrepair` is found beside it
        files = write_corpus(Path(cwd))
        config = {"count": args.count, "max_lines": args.max_lines, "crews": CREWS,
                  "files": list(files)}
        for k in range(args.repeat):
            for tree in trees[k % len(trees):] + trees[:k % len(trees)]:
                out = run_once(args.src[tree], config, cwd)
                solves[tree], calls = out["solves"], out["calls"]
                for layer in LAYERS:
                    for j, (seconds, answer) in enumerate(out[layer]):
                        key = (layer, tree, j)
                        best[key] = [min(pair) for pair in zip(best.get(key, seconds), seconds)]
                        answers.setdefault((layer, j), set()).add(answer)

    def medians(layer: str, group: list[int], scale: float, digits: int, part: int = 0) -> list:
        return [round(statistics.median(best[layer, tree, j][part] for j in group) * scale, digits)
                if group else None for tree in trees]

    result = {"count": args.count, "max_lines": args.max_lines, "repeat": args.repeat,
              "crews": list(CREWS), "feeders_per_size": FEEDERS,
              "python": sys.version.split()[0], "src": args.src,
              "relaxation": {}, "oracle_median_best_us": {}, "load_median_best_ms": {}}
    for label, keep in (("n<=m", lambda n, m: n <= m), ("n>m", lambda n, m: n > m),
                        ("all", lambda n, m: True)):
        group = [j for j, (_, n, m) in enumerate(calls) if keep(n, m)]
        result["relaxation"][label] = {
            "calls": len(group), "median_best_us": medians("relaxation", group, 1e6, 1),
            "highs_solves": [sum(solves[tree][j] for j in group) for tree in trees]}
    for n in sorted({n for _, n, _ in calls}):
        for m in CREWS:
            group = [j for j, call in enumerate(calls) if call[1:] == [n, m]]
            result["oracle_median_best_us"][f"n={n} m={m}"] = {
                "instances": len(group), "us": medians("oracle", group, 1e6, 1)}
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
                else {"seed": calls[j][0], "m": calls[j][2]})
        result["first_difference"] = {"layer": layer, **call, "differing_calls": len(differ)}
    print(json.dumps(result, indent=1))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
