#!/usr/bin/env python3
"""Answers and per-call times of `lp.solve_relaxation` in two or more trees.

    python scripts/relaxation_diff.py [--count K] [--max-lines L] SRC [SRC ...]

Each SRC is a `src` directory holding the `gridrepair` package, say a
checkout of the parent commit's `src` and this one's.  The corpus is the
one `gridrepair bench --seed 0 --count K --max-lines L` draws
(`harness.generate_random`, seeds 0 to K - 1), at m = 2 and 3.  Each SRC
runs in a fresh interpreter with PYTHONPATH=SRC, which calls
`solve_relaxation` on every (instance, m) once untimed, counting its
`lp.simplex_solve` calls, then once timed, and builds the lp-list schedule
from the timed call's relaxation.  One JSON object is printed: per SRC, in
the order given, the median time in microseconds and the total number of
HiGHS solves (rounds and canonical passes) over the calls with at most m
damaged lines, over the others, and over all.
`same_answers` says whether every SRC gave the same completion and
energization maps, objective `repr`, round count, cut count and lp-list
JSON for each (instance, m), or the same error; the exit status is 1 if
not, and the first differing (seed, m) is printed.  Each SRC is
byte-compiled first, so no side pays for compiling its sources.
Standard library only, apart from the package under test.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

CREWS = (2, 3)

# Run in a fresh interpreter with PYTHONPATH=SRC: argv is count, max-lines and
# the crew counts; prints [seed, n, m, solves, seconds, answer] per call.
WORKER = """
import json, sys, time
from gridrepair import algos, harness, lp

count, max_lines, *crews = map(int, sys.argv[1:])
calls = []
for seed in range(count):
    instance = harness.generate_random(harness.GenParams(
        seed=seed, nodes=(2, max_lines + 1), crews=tuple(crews)))
    n = sum(1 for p in instance.repair_times().values() if p > 0)
    calls += [(seed, n, m, instance) for m in crews]

def answer(instance, m):
    start = time.perf_counter()
    try:
        sol = lp.solve_relaxation(instance, crews=m)
    except Exception as exc:
        return time.perf_counter() - start, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    plan = algos.lp_list_schedule(instance, crews=m, solution=sol)
    return seconds, json.dumps([
        repr(sol.completion), repr(sol.energization), repr(sol.objective),
        sol.iterations, len(sol.cuts), harness.result_to_text(plan)])

solve, solves = lp.simplex_solve, []

def counted(model):
    solves[-1] += 1
    return solve(model)

lp.simplex_solve = counted  # looked up by the loop at each call, so every solve is counted
for _, _, m, instance in calls:
    solves.append(0)
    answer(instance, m)
lp.simplex_solve = solve
print(json.dumps([[seed, n, m, count, *answer(instance, m)]
                  for (seed, n, m, instance), count in zip(calls, solves)]))
"""


def run_once(src: str, count: int, max_lines: int, cwd: str) -> list:
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    proc = subprocess.run(
        [sys.executable, "-c", WORKER, str(count), str(max_lines), *map(str, CREWS)],
        env=env, cwd=cwd, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=500, metavar="K")
    parser.add_argument("--max-lines", type=int, default=8, metavar="L")
    parser.add_argument("src", nargs="+")
    args = parser.parse_args()
    for src in args.src:
        compileall.compile_dir(src, quiet=1)
    with tempfile.TemporaryDirectory() as cwd:  # so that no `gridrepair` is found beside it
        runs = [run_once(src, args.count, args.max_lines, cwd) for src in args.src]
    result = {"count": args.count, "max_lines": args.max_lines, "crews": list(CREWS),
              "python": sys.version.split()[0], "trees": []}
    for src, rows in zip(args.src, runs):
        medians, solves = {}, {}
        for label, keep in (("n<=m", lambda n, m: n <= m), ("n>m", lambda n, m: n > m),
                            ("all", lambda n, m: True)):
            kept = [row for row in rows if keep(row[1], row[2])]
            times = [seconds for _, _, _, _, seconds, _ in kept]
            medians[label] = {"calls": len(times),
                              "us": round(statistics.median(times) * 1e6, 1) if times else None}
            solves[label] = sum(count for _, _, _, count, _, _ in kept)
        result["trees"].append({"src": src, "median_us": medians, "highs_solves": solves})
    differ = [k for k, calls in enumerate(zip(*runs)) if len({call[5] for call in calls}) > 1]
    result["same_answers"] = not differ
    if differ:
        seed, _, m, _, _, _ = runs[0][differ[0]]
        result["first_difference"] = {"seed": seed, "m": m, "differing_calls": len(differ)}
    print(json.dumps(result, indent=1))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
