#!/usr/bin/env python3
"""Per-feeder times of loading an instance file, partitioning its islands and
writing a schedule's JSON.

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

Only the first form skips the orienting traversal, and with it heads its
islands in validation's own walk; the other two head them on first use.
Each repetition runs every SRC in a fresh interpreter with PYTHONPATH=SRC;
the order rotates on each repetition, so no side always runs first.  An
interpreter makes one untimed pass over every file, then times on each
file once: `harness.load_instance`, then `instance.islands` (the island
partition), then `harness.result_to_text` of the `convert` schedule (the
schedule itself is not timed).  One JSON object is printed: per size and
form, per SRC, the median over the five feeders of each one's best time in
milliseconds, for load plus JSON writing (`load_write`), for the islands
alone (`islands`) and for load plus islands (`load_islands`).
`same_outputs` says whether every run of every SRC wrote the same schedule
JSON and the same `gridrepair islands` JSON for each file; the exit status
is 1 if not.  Each SRC is byte-compiled first, so no side pays for
compiling its sources.
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
# [[load, islands, write seconds], schedule JSON + islands JSON] per file.
WORKER = """
import contextlib, io, json, sys, time
from gridrepair import algos, cli, harness

def once(path):
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
    return [loaded - start, split - loaded, written], text + islands.getvalue()

paths = sys.argv[1:]
for path in paths:
    once(path)
print(json.dumps([once(path) for path in paths]))
"""

# what each reported time sums, from the worker's [load, islands, write]
TIMES = {"load_write": (0, 2), "islands": (1,), "load_islands": (0, 1)}


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
    best: dict[tuple[str, str, str], float] = {}  # (src, file, time) -> best seconds
    texts: dict[str, set[str]] = {}
    with tempfile.TemporaryDirectory() as cwd:  # so that no `gridrepair` is found beside it
        files = write_corpus(Path(cwd))
        paths = list(files)
        for k in range(args.repeat):
            for src in srcs[k % len(srcs):] + srcs[:k % len(srcs)]:
                for path, (seconds, text) in zip(paths, run_once(src, paths, cwd)):
                    for name, parts in TIMES.items():
                        total = sum(seconds[j] for j in parts)
                        best[src, path, name] = min(best.get((src, path, name), total), total)
                    texts.setdefault(path, set()).add(text)
    same = all(len(outputs) == 1 for outputs in texts.values())
    result = {"repeat": args.repeat, "feeders_per_size": FEEDERS,
              "python": sys.version.split()[0], "median_best_ms": {}, "same_outputs": same}
    for size in SIZES:
        for form in FORMS:
            group = [path for path, key in files.items() if key == (size, form)]
            result["median_best_ms"][f"{size} lines, {form}"] = {
                src: {name: round(statistics.median(best[src, path, name] for path in group) * 1e3,
                                  3) for name in TIMES}
                for src in srcs}
    print(json.dumps(result, indent=1))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
