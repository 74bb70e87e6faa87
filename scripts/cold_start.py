#!/usr/bin/env python3
"""Whole-CLI cold-start times: each command run in K fresh interpreters.

    python scripts/cold_start.py [--repeat K] [SRC ...]

Each SRC is a `src` directory holding the `gridrepair` package (default:
this checkout's).  Every command runs as `python -m gridrepair.cli ...` with
PYTHONPATH=SRC, K times per SRC; with several SRCs the order rotates on each
repetition, so no side always runs first.  The commands are `validate`,
`schedule --alg convert` and `schedule --alg lp-list` on each bundled
fixture, `oracle` on fork.json and `bench --count 20`.  One JSON object is
printed: per command and SRC, the median wall time in seconds, the largest
peak RSS of a run in MB (from `wait4`, so the child alone), which of
`numpy` and `scipy.optimize` the command loaded, and whether the SRCs
printed the same stdout.  The loaded modules come from one more run per
command and SRC, under `-X importtime` and left out of the times.  Each SRC
is byte-compiled first, as perfbench does, so no side pays for compiling
its sources.  Standard library only; Linux or macOS.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WATCHED = ("numpy", "scipy.optimize")  # the heavy imports a command may load


def commands(out_dir: str) -> dict[str, list[str]]:
    fixtures = sorted((ROOT / "fixtures").glob("*.json"))
    table = {}
    for f in fixtures:
        table[f"validate {f.name}"] = ["validate", str(f)]
        for alg in ("convert", "lp-list"):
            table[f"schedule --alg {alg} {f.name}"] = ["schedule", str(f), "--alg", alg]
    table["oracle fork.json"] = ["oracle", str(ROOT / "fixtures" / "fork.json")]
    table["bench --count 20"] = ["bench", "--count", "20", "--out",
                                 os.path.join(out_dir, "bench.csv")]
    return table


def run_once(src: str, argv: list[str]) -> tuple[float, float, str]:
    """Wall seconds, peak RSS in MB and the stdout digest of one cold run."""
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "gridrepair.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    stdout = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise SystemExit(f"{src}: gridrepair {' '.join(argv)} exited {proc.returncode}")
    kib = usage.ru_maxrss / 1024 if sys.platform == "darwin" else usage.ru_maxrss
    return wall, kib / 1024, hashlib.sha256(stdout).hexdigest()


def loaded(src: str, argv: list[str]) -> list[str]:
    """Which WATCHED modules one untimed run imports, read from the
    `-X importtime` lines it writes to stderr."""
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "gridrepair.cli", *argv],
                          env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, check=True)
    names = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
             if line.startswith("import time:")}
    return [module for module in WATCHED if module in names]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=5, metavar="K")
    parser.add_argument("src", nargs="*", default=[str(ROOT / "src")])
    args = parser.parse_args()
    srcs = args.src
    for src in srcs:
        compileall.compile_dir(src, quiet=1)
    with tempfile.TemporaryDirectory() as out_dir:
        table = commands(out_dir)
        runs = {(label, src): [] for label in table for src in srcs}
        for k in range(args.repeat):
            order = srcs[k % len(srcs):] + srcs[:k % len(srcs)]
            for label, argv in table.items():
                for src in order:
                    runs[label, src].append(run_once(src, argv))
        modules = {(label, src): loaded(src, argv) for label, argv in table.items()
                   for src in srcs}
    result = {"repeat": args.repeat, "python": sys.version.split()[0], "commands": {}}
    for label in table:
        row = {src: {"wall_s": round(statistics.median(r[0] for r in runs[label, src]), 4),
                     "peak_rss_mb": round(max(r[1] for r in runs[label, src]), 1),
                     "loaded": modules[label, src]}
               for src in srcs}
        row["same_stdout"] = len({r[2] for src in srcs for r in runs[label, src]}) == 1
        result["commands"][label] = row
    print(json.dumps(result, indent=1))


if __name__ == "__main__":
    main()
