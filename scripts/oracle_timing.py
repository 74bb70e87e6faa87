#!/usr/bin/env python3
"""Per-call times of the brute-force oracle, by damaged-line count and crews.

    python scripts/oracle_timing.py [--count K] [--repeat R] [--max-lines L] [SRC ...]

Each SRC is a `src` directory holding the `gridrepair` package (default:
this checkout's).  The corpus is the one `gridrepair bench --seed 0
--count K --max-lines L` draws (`harness.generate_random`, seeds 0 to
K - 1), at m = 2 and 3.  Each repetition runs every SRC in a fresh
interpreter with PYTHONPATH=SRC; the order rotates on each repetition, so
no side always runs first.  An interpreter calls `oracle.brute_force_optimal`
on every (instance, m) once untimed, which loads NumPy and builds the
cached index tables, then once timed.  One JSON object is printed: per
damaged-line count n and m, the number of instances and, per SRC, the
median over those instances of each one's best time in microseconds.
`same_answers` says whether every run of every SRC printed the same
`oracle` JSON for each (instance, m); the exit status is 1 if not.  Each
SRC is byte-compiled first, so no side pays for compiling its sources.
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

ROOT = Path(__file__).resolve().parent.parent
CREWS = (2, 3)

# Run in a fresh interpreter with PYTHONPATH=SRC: argv is count, max-lines and
# the crew counts; prints [seed, n, m, seconds, oracle JSON] per call.
WORKER = """
import json, sys, time
from gridrepair import harness, oracle

count, max_lines, *crews = map(int, sys.argv[1:])
calls = []
for seed in range(count):
    instance = harness.generate_random(harness.GenParams(
        seed=seed, nodes=(2, max_lines + 1), crews=tuple(crews)))
    n = sum(1 for p in instance.repair_times().values() if p > 0)
    calls += [(seed, n, m, instance) for m in crews]
for _, _, m, instance in calls:
    oracle.brute_force_optimal(instance, m)
rows = []
for seed, n, m, instance in calls:
    start = time.perf_counter()
    result = oracle.brute_force_optimal(instance, m)
    seconds = time.perf_counter() - start
    rows.append([seed, n, m, seconds, json.dumps(harness.oracle_to_json(result, m))])
print(json.dumps(rows))
"""


def run_once(src: str, count: int, max_lines: int, cwd: str) -> list:
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    proc = subprocess.run(
        [sys.executable, "-c", WORKER, str(count), str(max_lines), *map(str, CREWS)],
        env=env, cwd=cwd, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=200, metavar="K")
    parser.add_argument("--repeat", type=int, default=5, metavar="R")
    parser.add_argument("--max-lines", type=int, default=8, metavar="L")
    parser.add_argument("src", nargs="*", default=[str(ROOT / "src")])
    args = parser.parse_args()
    srcs = args.src
    for src in srcs:
        compileall.compile_dir(src, quiet=1)
    best: dict[tuple[str, int, int], float] = {}  # (src, seed, m) -> best seconds
    size: dict[int, int] = {}  # seed -> damaged lines
    answers: dict[tuple[int, int], set[str]] = {}
    with tempfile.TemporaryDirectory() as cwd:  # so that no `gridrepair` is found beside it
        for k in range(args.repeat):
            for src in srcs[k % len(srcs):] + srcs[:k % len(srcs)]:
                for seed, n, m, seconds, text in run_once(src, args.count, args.max_lines, cwd):
                    key = (src, seed, m)
                    best[key] = min(best.get(key, seconds), seconds)
                    size[seed] = n
                    answers.setdefault((seed, m), set()).add(text)
    same = all(len(texts) == 1 for texts in answers.values())
    result = {"count": args.count, "repeat": args.repeat, "max_lines": args.max_lines,
              "python": sys.version.split()[0], "median_best_us": {}, "same_answers": same}
    for n in sorted(set(size.values())):
        seeds = [seed for seed, lines in size.items() if lines == n]
        for m in CREWS:
            row = {"instances": len(seeds)}
            row.update((src, round(statistics.median(
                best[src, seed, m] for seed in seeds) * 1e6, 1)) for src in srcs)
            result["median_best_us"][f"n={n} m={m}"] = row
    print(json.dumps(result, indent=1))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
