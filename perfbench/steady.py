"""Run workloads repeatedly and report each metric's median and quartiles.

    python3 perfbench/steady.py --workloads lp-feeders,convert-xl --seeds 1-10

One timed run (``--trace 0``) at a time, each with its own seed, exactly as
the benchmark's command is run, for ``run_seconds`` from ``BENCHMARK.json``.  For every metric it prints the median, the first and
third quartile (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median, next to the bound from ``BENCHMARK.json``; it also
prints the failed share of operations.  The bounds in ``BENCHMARK.json``
are set from this report.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(tok) for tok in text.split(",")]


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in config["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in config["end_to_end"]}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        shares = set()
        for seed in _seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(config["run_seconds"]),
                   "--trace", "0"]
            started = time.monotonic()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            wall = time.monotonic() - started
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            shares.add((result["failed"], result["attempted"]))
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            figures = " ".join(f"{name}={metric['value']:.4g}"
                               for name, metric in result["metrics"].items())
            print(f"{workload} seed {seed}: {wall:.0f} s, correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {figures}", flush=True)
        print(f"\n{workload}: failed/attempted per run {sorted(shares)}")
        print(f"{'metric':36} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            print(f"{name:36} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.3f} "
                  f"{'' if bound is None else bound:>6}")
        print(flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
