"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload lp-feeders --seed 1 --seconds 24 --trace 0

Generates the workload's inputs for the seed (cached, not timed), starts
the workload in fresh processes (see ``worker.py``), checks every output
with the benchmark's own code (``checks.py``) and prints as its last line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
they are the per-layer ones from a separate traced run.  Run from the root
of a source checkout; it exits non-zero without a result when the program
source is missing.
"""

from __future__ import annotations

import argparse
import bisect
import compileall
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402

WORKER_TIMEOUT_S = 150
TRACED_PASSES = 1  # each operation of a traced run is followed by its layer calls
PARTS = 4  # fresh processes per pass, each with its own set-up
TAIL_BEYOND = 10  # samples that must lie above the reported tail percentile
MIN_TAIL_SAMPLES = 40
# Seconds the worker's reference loop takes at the reference speed (its
# fastest on the machine described in README.md); every reported time is
# scaled to that speed.
REFERENCE_S = 0.0028
REFERENCE_WINDOW = 4  # reference samples on each side of an operation


def _env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def _processes(manifest_path: Path, mode: str, passes: int, spec: dict,
               work: Path) -> list[dict]:
    """Make `passes` passes over the operations, each split over PARTS
    fresh workload processes run one after the other; one result per
    process.

    Process k runs on CPU k of the launcher's affinity set, cycling.
    """
    cpus = sorted(os.sched_getaffinity(0))
    results = []
    for k in range(passes * PARTS):
        proc_dir = work / f"p{k}"
        out = proc_dir / "result.json"
        cmd = [sys.executable, str(HERE / "worker.py"), "--manifest", str(manifest_path),
               "--mode", mode, "--cpu", str(cpus[k % len(cpus)]),
               "--part", str(k % PARTS), "--parts", str(PARTS),
               "--reference-every", str(spec["reference_every"]),
               "--work", str(proc_dir), "--out", str(out), "--spawned"]
        spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(cmd + [repr(spawned)], env=_env(), cwd=ROOT,
                              timeout=WORKER_TIMEOUT_S, stdout=subprocess.DEVNULL)
        if proc.returncode != 0:
            raise SystemExit(f"workload process ({mode}, {k}) exited with {proc.returncode}")
        results.append(json.loads(out.read_text()))
    return results


def _import_ms(module: str) -> float:
    """Wall time of importing `module` in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, 'src'); t = time.perf_counter(); "
            f"import {module}; print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code], env=_env(), cwd=ROOT, timeout=60,
                          capture_output=True, text=True, check=True)
    return float(proc.stdout) * 1000.0


def check_records(folder: Path, manifest: dict, records: list[dict]) -> tuple[int, int]:
    """Check every operation's output; returns (failed, wrong).

    An operation fails when it raised, exited non-zero or produced a wrong
    output; `wrong` counts the last kind only.
    """
    feeders: dict[str, checks.Feeder] = {}
    failed = wrong = 0
    for rec in records:
        op = manifest["ops"][rec["op"]]
        if "error" in rec:
            print(f"failed: {op['name']}: {rec['error']}", file=sys.stderr)
            failed += 1
            continue
        if op["file"] not in feeders:
            raw = json.loads((folder / op["file"]).read_text())
            feeders[op["file"]] = checks.Feeder.from_raw(raw)
        feeder = feeders[op["file"]]
        if manifest["kind"] == "cli":
            out = json.loads(Path(rec["out"]).read_text())
            problems = checks.check_schedule(feeder, out, manifest["crews"],
                                             convert=manifest["alg"] == "convert")
        else:
            problems = checks.check_row(feeder, rec["row"], op["m"])
        if problems:
            print(f"wrong: {op['name']}: {'; '.join(problems[:3])}", file=sys.stderr)
            failed += 1
            wrong += 1
    return failed, wrong


def speed_factors(reference: list[list[float]], ops: int) -> list[float]:
    """For each operation of one process, REFERENCE_S over the median of the
    reference-loop samples around it.

    The machine's speed swings by tens of percent within seconds, and for
    minutes at a time, from outside this process.  A time multiplied by its
    factor is the time at the reference speed: the swings cancel, while the
    program's own cost does not touch the reference loop.
    """
    positions = [int(position) for position, _ in reference]
    seconds = [s for _, s in reference]
    factors = []
    for op in range(ops):
        before = bisect.bisect_right(positions, op) - 1  # last sample taken before op
        window = seconds[max(0, before - REFERENCE_WINDOW):before + REFERENCE_WINDOW + 2]
        factors.append(REFERENCE_S / statistics.median(window))
    return factors


def scaled_times(result: dict) -> dict[int, float | None]:
    """One process's operation times at the reference speed, by operation
    index; None for an operation that failed."""
    factors = speed_factors(result["reference"], len(result["times"]))
    return {rec["op"]: None if t is None else t * f
            for rec, t, f in zip(result["records"], result["times"], factors)}


def op_times(results: list[dict]) -> list[float]:
    """Each operation's time at the reference speed, the median over the
    run's passes.  An operation that failed in any pass is left out."""
    per_op: dict[int, list[float | None]] = {}
    for result in results:
        for op, t in scaled_times(result).items():
            per_op.setdefault(op, []).append(t)
    return [statistics.median(ts) for ts in per_op.values() if None not in ts]


def tail(samples: list[float]) -> float:
    """Highest percentile with at least TAIL_BEYOND samples above it."""
    ordered = sorted(samples)
    return ordered[len(ordered) - TAIL_BEYOND - 1]


def end_to_end(results: list[dict]) -> dict:
    times = op_times(results)
    # set-up ran just before the first operation: scale it by that one's factor
    setup = [r["setup_s"] * speed_factors(r["reference"], 1)[0] for r in results]
    metrics = {
        "ops_per_s": (len(times) / math.fsum(times), "1/s"),
        "op_p50_ms": (statistics.median(times) * 1000.0, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in results), "MB"),
    }
    if len(times) >= MIN_TAIL_SAMPLES:
        metrics["op_tail_ms"] = (tail(times) * 1000.0, "ms")
    return metrics


PER_LAYER_MS = (
    "harness.load_instance", "harness.result_to_json",
    "model.partition_islands", "model.derive_line_weights", "model.build_precedence_graph",
    "seq_opt.optimal_single_crew_harm", "seq_opt.optimal_island_sequence",
    "schedule.list_schedule", "schedule.energization_times",
    "schedule.infinite_crew_energization",
    "lp.solve_relaxation", "lp.simplex_solve_final", "lp.separate_final",
    "algos.lp_list_schedule", "algos.convert_single_to_m",
    "oracle.brute_force_optimal",
)
PER_LAYER_COUNTS = {  # metric -> (span, attribute)
    "model.lines": ("model.partition_islands", "lines"),
    "model.islands": ("model.partition_islands", "islands"),
    "lp.rounds": ("lp.solve_relaxation", "rounds"),
    "lp.cuts": ("lp.solve_relaxation", "cuts"),
    "oracle.enumerated": ("oracle.brute_force_optimal", "enumerated"),
}


def per_layer(results: list[dict]) -> dict:
    """Per-layer figures from the spans of a traced run.

    A layer's time is milliseconds per operation, scaled to the reference
    speed by the factor of the operation it belongs to, averaged over the
    operations.  A layer the workload's operation never calls reads 0.
    Counts are totals over the pass, so they repeat exactly for a seed.
    """
    duration: dict[tuple[str, int], float] = {}  # (name, op) -> scaled seconds
    counts = {metric: 0 for metric in PER_LAYER_COUNTS}
    certify: dict[int, float] = {}
    for result in results:
        factors = speed_factors(result["reference"], len(result["times"]))
        factor = {rec["op"]: f for rec, f in zip(result["records"], factors)}
        spans = result["spans"]
        for s in spans:
            if s["name"] in ("op", "layers"):
                op = s["attrs"]["op"]
                if "timed_children_s" in s["attrs"]:
                    own = s["end"] - s["start"] - s["attrs"]["timed_children_s"]
                    certify[op] = own * factor[op]
            else:
                op = spans[s["parent"]]["attrs"]["op"]
                for metric, (span, attr) in PER_LAYER_COUNTS.items():
                    if s["name"] == span:
                        counts[metric] += s["attrs"][attr]
            duration[s["name"], op] = (s["end"] - s["start"]) * factor[op]
    ops = {op for name, op in duration if name == "op"}

    def per_op_ms(name: str) -> float:
        return math.fsum(duration.get((name, op), 0.0) for op in ops) * 1000.0 / len(ops)

    metrics = {f"{name}_ms": (per_op_ms(name), "ms") for name in PER_LAYER_MS}
    metrics.update({metric: (total, "count") for metric, total in counts.items()})
    solve_ms = metrics["lp.solve_relaxation_ms"][0] * len(ops)
    metrics["lp.ms_per_round"] = (solve_ms / counts["lp.rounds"] if counts["lp.rounds"] else 0.0,
                                  "ms")
    metrics["harness.certify_ms"] = (
        math.fsum(certify.values()) * 1000.0 / len(ops) if certify else 0.0, "ms")
    metrics["trace.op_p50_ms"] = (
        statistics.median(duration["op", op] for op in ops) * 1000.0, "ms")
    metrics["cli.import_ms"] = (
        statistics.median(_import_ms("gridrepair.cli") for _ in range(3)), "ms")
    metrics["model.import_ms"] = (
        statistics.median(_import_ms("gridrepair.model") for _ in range(3)), "ms")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(gen.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "gridrepair" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    compileall.compile_dir(ROOT / "src", quiet=1)

    folder = gen.ensure(args.workload, args.seed)
    manifest = json.loads((folder / "manifest.json").read_text())
    work = gen.CACHE / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    spec = gen.WORKLOADS[args.workload]
    if args.trace:
        mode, passes = "trace", TRACED_PASSES
    else:
        mode, passes = "run", max(1, round(args.seconds / spec["pass_s"]))
    try:
        results = _processes(folder / "manifest.json", mode, passes, spec, work)
        metrics = per_layer(results) if args.trace else end_to_end(results)
        records = [rec for result in results for rec in result["records"]]
        failed, wrong = check_records(folder, manifest, records)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({
        "correct": wrong == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
