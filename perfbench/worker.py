"""One workload process: import the program, warm up, time its part of a pass.

Started by ``run.py`` as a fresh interpreter, ``parts`` times per pass
over the operations, pinned to one CPU, with BLAS pools pinned to one
thread and a fixed ``PYTHONHASHSEED``.  Part k of ``parts`` takes every
operation whose index is k modulo ``parts``, so no process runs an
operation twice or on state an earlier one left behind (a cache keyed by
instance, say), just as every ``gridrepair`` invocation starts cold.
Modes:

* ``run``: import and warm up, then time each operation of its part
  once, in order.  A fixed reference loop, which shares no code with the
  program, is timed before the first operation and after every
  ``--reference-every`` operations; ``run.py`` scales each operation's
  time by the machine speed these samples show around it.
* ``trace``: as ``run``, but after each operation also call each layer's
  public function directly on the same input, recording spans in memory;
  they are written out when the process ends.

Results go to ``--out`` as JSON; output files of the CLI operations go
under ``--work``.  Nothing is checked here: ``run.py`` checks every output
with its own code after this process has ended.
"""

import argparse
import dataclasses
import gc
import json
import os
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


REFERENCE_ITERATIONS = 40_000


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def reference_loop() -> float:
    """Seconds taken by a fixed pure-Python loop, garbage collection off.

    It allocates nothing that lives, so the program's heap cannot change
    its time; only the speed the machine gives this process can.
    """
    gc.disable()
    start = _clock()
    acc = 0
    for i in range(REFERENCE_ITERATIONS):
        acc = (acc + i * i) % 1_000_003
    elapsed = _clock() - start
    gc.enable()
    return elapsed


class Tracer:
    """Spans (name, start, end, parent, attrs) kept in memory."""

    def __init__(self):
        self.spans: list[dict] = []

    def open(self, name: str, parent: int | None, **attrs) -> int:
        self.spans.append({"name": name, "parent": parent, "start": _clock(), "attrs": attrs})
        return len(self.spans) - 1

    def close(self, index: int) -> None:
        self.spans[index]["end"] = _clock()

    def call(self, name: str, parent: int, fn, *args, **kwargs):
        index = self.open(name, parent)
        result = fn(*args, **kwargs)
        self.close(index)
        return self.spans[index]["attrs"], result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--manifest", type=Path, required=True)
    parser.add_argument("--mode", choices=("run", "trace"), required=True)
    parser.add_argument("--cpu", type=int, required=True, help="the one CPU this process runs on")
    parser.add_argument("--part", type=int, required=True)
    parser.add_argument("--parts", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="CLOCK_MONOTONIC reading taken just before this process was started")
    parser.add_argument("--reference-every", type=int, required=True,
                        help="operations between two samples of the reference loop")
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    # Contention from outside the machine slows one CPU at a time; the
    # launcher moves each process to the next CPU.
    os.sched_setaffinity(0, {args.cpu})
    sys.path.insert(0, str(SRC))
    from gridrepair import algos, cli, harness, lp, model, oracle, schedule, seq_opt

    if not Path(harness.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"gridrepair imported from {harness.__file__}, not {SRC}")

    folder = args.manifest.parent
    manifest = json.loads(args.manifest.read_text())
    kind = manifest["kind"]

    def cli_op(path: Path, out: Path) -> int:
        return cli.main(
            ["schedule", str(path), "--alg", manifest["alg"],
             "--crews", str(manifest["crews"]), "--out", str(out)]
        )

    args.work.mkdir(parents=True, exist_ok=True)
    if kind == "cli":
        if cli_op(folder / manifest["warmup"], args.work / "warmup.json") != 0:
            raise SystemExit("warm-up operation failed")
    else:
        harness.bench_instance("warmup", harness.load_instance(folder / manifest["warmup"]), 2)
    gc.collect()
    setup_s = _clock() - args.spawned

    tracer = Tracer() if args.mode == "trace" else None

    def layers(op: dict, parent: int) -> None:
        """Direct calls to each public layer function the operation runs, on a
        fresh copy of its input."""
        t = tracer.call
        if kind == "cli":
            _, instance = t("harness.load_instance", parent, harness.load_instance,
                            folder / op["file"])
            m = manifest["crews"]
        else:
            instance, m = harness.load_instance(folder / op["file"]), op["m"]
        p = instance.repair_times()
        attrs, islands = t("model.partition_islands", parent, model.partition_islands, instance)
        attrs.update(lines=len(instance.lines), islands=len(islands.islands))
        t("model.derive_line_weights", parent, model.derive_line_weights, instance)
        _, prec = t("model.build_precedence_graph", parent, model.build_precedence_graph,
                    instance, islands)
        alg = manifest.get("alg")
        if alg == "lp-list" or kind == "bench":
            attrs, sol = t("lp.solve_relaxation", parent, lp.solve_relaxation,
                           instance, islands, prec, crews=m)
            attrs.update(rounds=sol.iterations, cuts=len(sol.cuts))
            t("lp.simplex_solve_final", parent, lp.simplex_solve, sol.model)
            t("lp.separate_final", parent, lp.separate, sol.completion, p, m)
            _, result = t("algos.lp_list_schedule", parent, algos.lp_list_schedule,
                          instance, crews=m, solution=sol)
        if alg == "convert" or kind == "bench":
            t("seq_opt.optimal_single_crew_harm", parent, seq_opt.optimal_single_crew_harm,
              instance)
            t("seq_opt.optimal_island_sequence", parent, seq_opt.optimal_island_sequence,
              islands, prec)
            _, result = t("algos.convert_single_to_m", parent, algos.convert_single_to_m,
                          instance, crews=m)
            t("schedule.infinite_crew_energization", parent,
              schedule.infinite_crew_energization, islands, prec, p)
        t("schedule.list_schedule", parent, schedule.list_schedule,
          list(result.schedule.priority), m, p)
        t("schedule.energization_times", parent, schedule.energization_times,
          result.schedule, islands, prec)
        if kind == "cli":
            t("harness.result_to_json", parent, harness.result_to_json, result)
        else:
            attrs, found = t("oracle.brute_force_optimal", parent, oracle.brute_force_optimal,
                             instance, m)
            attrs.update(enumerated=found.enumerated)

    times: list[float | None] = []  # per operation of the part; None if it failed
    records: list[dict] = []
    reference = [(0, reference_loop())]  # (operations done before it, seconds)
    ops = manifest["ops"]
    part = range(args.part, len(ops), args.parts)
    for done, index in enumerate(part, start=1):
        op = ops[index]
        record = {"op": index}
        if kind == "cli":
            out = args.work / f"{op['name']}.json"
            call, call_args, record["out"] = cli_op, (folder / op["file"], out), str(out)
        else:
            # A fresh instance per row, read outside the timer, as
            # `gridrepair bench` validates a fresh one per task.
            instance = harness.load_instance(folder / op["file"])
            call, call_args = harness.bench_instance, (op["name"], instance, op["m"])
        gc.collect(1)  # every operation starts with empty young generations
        start = _clock()
        try:
            value = call(*call_args)
        except Exception as exc:  # an operation that raises counts as failed
            value, record["error"] = None, f"{type(exc).__name__}: {exc}"
        elapsed = _clock() - start
        if kind == "cli" and "error" not in record and value != 0:
            record["error"] = f"exit code {value}"
        elif kind == "bench" and value is not None:
            record["row"] = dataclasses.asdict(value)
        ok = "error" not in record
        times.append(elapsed if ok else None)
        records.append(record)
        if tracer is not None and ok:
            attrs = {"op": index}
            if kind == "bench":
                row = record["row"]
                # bench_instance's own timers around its LP, algorithm and oracle calls
                attrs["timed_children_s"] = (
                    row["t_lp"] + row["t_alg1"] + row["t_alg2"] + row["t_oracle"]
                )
            tracer.spans.append({"name": "op", "parent": None, "start": start,
                                 "end": start + elapsed, "attrs": attrs})
            root = tracer.open("layers", None, op=index)
            layers(op, root)
            tracer.close(root)
        if done % args.reference_every == 0 or done == len(part):
            reference.append((done, reference_loop()))

    payload = {
        "setup_s": setup_s,
        "times": times,
        "reference": reference,
        "records": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        payload["spans"] = tracer.spans
    args.out.write_text(json.dumps(payload) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
