#!/usr/bin/env python3
"""Per-feeder times of loading an instance file and writing a schedule's JSON.

    python scripts/load_timing.py [--repeat R] [SRC ...]

Each SRC is a `src` directory holding the `gridrepair` package (default:
this checkout's).  The feeders are generated here, with the standard
library only, once per run: for each size of 100 to 2000 lines, five
random radial feeders (node k hangs off a uniformly drawn earlier node,
10 % switches, repair times and weights 0-10, m = 3), each written in
three forms:

* `oriented`: every line from its upstream node, lines in id order;
* `half-reversed`: the same lines with every other one given `to` -> `from`;
* `shuffled`: the lines in random order, each reversed with probability 1/2.

Only the first form skips the orienting traversal.  Each repetition runs
every SRC in a fresh interpreter with PYTHONPATH=SRC; the order rotates on
each repetition, so no side always runs first.  An interpreter makes one
untimed pass over every file, then times `harness.load_instance` plus
`harness.result_to_text` of the `convert` schedule (the schedule itself is
not timed) on each file once.  One JSON object is printed: per size and
form, the median over the five feeders of each one's best time in
milliseconds, per SRC.  `same_outputs` says whether every run of every SRC
wrote the same schedule JSON for each file; the exit status is 1 if not.
Each SRC is byte-compiled first, so no side pays for compiling its sources.
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

ROOT = Path(__file__).resolve().parent.parent
SIZES = (100, 250, 500, 1000, 2000)
FEEDERS = 5
FORMS = ("oriented", "half-reversed", "shuffled")

# Run in a fresh interpreter with PYTHONPATH=SRC: argv is the files; prints
# [seconds, schedule JSON] per file.
WORKER = """
import json, sys, time
from gridrepair import algos, harness

def once(path):
    start = time.perf_counter()
    instance = harness.load_instance(path)
    loaded = time.perf_counter() - start
    result = algos.convert_single_to_m(instance, crews=instance.crews)
    start = time.perf_counter()
    text = harness.result_to_text(result)
    return loaded + time.perf_counter() - start, text

paths = sys.argv[1:]
for path in paths:
    once(path)
print(json.dumps([once(path) for path in paths]))
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


def run_once(src: str, paths: list[str], cwd: str) -> list:
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    proc = subprocess.run([sys.executable, "-c", WORKER, *paths],
                          env=env, cwd=cwd, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=5, metavar="R")
    parser.add_argument("src", nargs="*", default=[str(ROOT / "src")])
    args = parser.parse_args()
    srcs = args.src
    for src in srcs:
        compileall.compile_dir(src, quiet=1)
    best: dict[tuple[str, str], float] = {}  # (src, file) -> best seconds
    texts: dict[str, set[str]] = {}
    with tempfile.TemporaryDirectory() as cwd:  # so that no `gridrepair` is found beside it
        files = write_corpus(Path(cwd))
        paths = list(files)
        for k in range(args.repeat):
            for src in srcs[k % len(srcs):] + srcs[:k % len(srcs)]:
                for path, (seconds, text) in zip(paths, run_once(src, paths, cwd)):
                    best[src, path] = min(best.get((src, path), seconds), seconds)
                    texts.setdefault(path, set()).add(text)
    same = all(len(outputs) == 1 for outputs in texts.values())
    result = {"repeat": args.repeat, "feeders_per_size": FEEDERS,
              "python": sys.version.split()[0], "median_best_ms": {}, "same_outputs": same}
    for size in SIZES:
        for form in FORMS:
            group = [path for path, key in files.items() if key == (size, form)]
            result["median_best_ms"][f"{size} lines, {form}"] = {
                src: round(statistics.median(best[src, path] for path in group) * 1e3, 3)
                for src in srcs}
    print(json.dumps(result, indent=1))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
