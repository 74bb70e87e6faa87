"""Instance I/O, seeded random generation, and the benchmark runner.

Instance files are strict JSON: `model.validate` rejects unknown fields
and wrong types, so typos in hand-written fixtures fail loudly.
Generated instances use integer repair times and weights, which keeps
every harm exactly representable; only LP columns carry float noise.
"""

from __future__ import annotations

import io
import json
import random
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import NamedTuple

from gridrepair import algos, oracle
from gridrepair.lp import solve_relaxation
from gridrepair.model import NetworkInstance, ValidationError, validate


# The name perfbench/test_checks.py imports; `validate` makes every check.
instance_from_json = validate


def load_instance(path: str | Path) -> NetworkInstance:
    try:
        with open(path, encoding="utf-8") as file:  # universal newlines, as `read_text`
            obj = json.load(file)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{exc.msg} (line {exc.lineno}, column {exc.colno})") from exc
    except ValueError as exc:  # not UTF-8, or an integer of over 4300 digits: bad input too
        raise ValidationError(str(exc)) from exc
    except RecursionError:  # an input error too: exit 2, not a traceback
        raise ValidationError(f"{path}: arrays and objects nest too deeply to parse") from None
    return validate(obj)


def result_to_json(result: algos.AlgoResult) -> dict:
    return {
        "algorithm": result.algorithm,
        "crews": result.crews,
        "assignments": [[{"line": a.line, "start": a.start, "completion": a.completion}
                         for a in crew] for crew in result.schedule.crews],
        "energization": {iid: result.energization[iid] for iid in sorted(result.energization)},
        "harm": result.harm,
    }


def result_to_text(result: algos.AlgoResult) -> str:
    """`json.dumps(result_to_json(result), indent=2)`, byte for byte, without that
    pure-Python encoder: one C-encoded `json.dumps` formats every number, in text
    order, and one `%` format puts them and the quoted line ids in the assignments."""
    quote, iids = json.encoder.encode_basestring_ascii, sorted(result.energization)
    times = [t for crew in result.schedule.crews for a in crew for t in a[1:]]  # start, completion
    flat = [result.crews, *times, *map(result.energization.get, iids), result.harm]
    numbers = json.dumps(flat)[1:-1].split(", ")

    def block(items: list[str], pad: str, brackets: str = "[]") -> str:
        inner = f",\n{pad}  ".join(items)
        return f"{brackets[0]}\n{pad}  {inner}\n{pad}{brackets[1]}" if items else brackets

    item = '{\n        "line": %s,\n        "start": %s,\n        "completion": %s\n      }'
    assignments = block([block([item] * len(c), "    ") for c in result.schedule.crews], "  ")
    args = [None] * (len(times) // 2 * 3)  # per assignment: quoted line id, start, completion
    args[0::3] = [quote(a.line) for crew in result.schedule.crews for a in crew]
    args[1::3], args[2::3] = numbers[1:len(times):2], numbers[2:len(times) + 1:2]
    energization = [f"{quote(i)}: {n}" for i, n in zip(iids, numbers[len(times) + 1:])]
    return (f'{{\n  "algorithm": {quote(result.algorithm)},\n  "crews": {numbers[0]},\n'
            f'  "assignments": {assignments % tuple(args)},\n'
            f'  "energization": {block(energization, "  ", "{}")},\n  "harm": {numbers[-1]}\n}}')


def oracle_to_json(result: oracle.OracleResult, crews: int) -> dict:
    return {
        "crews": crews,
        "optimum": result.harm,
        "priority_list": list(result.priority_list),
        "enumerated": result.enumerated,
    }


class GenParams(NamedTuple):
    """Knobs for the seeded instance generator; same seed, same bytes."""

    seed: int
    nodes: tuple[int, int] = (2, 9)
    switch_probability: float = 0.4
    repair_time: tuple[int, int] = (0, 10)
    weight: tuple[int, int] = (0, 10)
    crews: tuple[int, ...] = (2, 3)


def random_raw(params: GenParams) -> dict:
    """A uniform random tree by random-parent attachment, as the instance
    file's JSON object; with crew counts of at least 1 it always validates.

    Node weights are redrawn until at least one non-root weight is positive
    (the root's, on a feeder of one node), so the result is a well-formed
    instance by construction.
    """
    rng = random.Random(params.seed)
    lo, hi = params.nodes
    count = rng.randint(lo, hi)
    width = len(str(count - 1)) if count > 1 else 1
    node_ids = [f"n{k:0{width}d}" for k in range(count)]
    while True:
        weights = [rng.randint(*params.weight) for _ in range(count)]
        if any(w > 0 for w in (weights[1:] if count > 1 else weights)):
            break
    lines = []
    for k in range(1, count):
        parent = rng.randrange(k)
        lines.append({"id": f"l{k:0{width}d}", "from": node_ids[parent], "to": node_ids[k],
                      "repair_time": rng.randint(*params.repair_time),
                      "switch": rng.random() < params.switch_probability})
    return {
        "root": node_ids[0],
        "crews": params.crews[0] if params.crews else 1,
        "nodes": [{"id": nid, "weight": w} for nid, w in zip(node_ids, weights)],
        "lines": lines,
    }


def generate_random(params: GenParams) -> NetworkInstance:
    """`random_raw(params)`, validated."""
    return validate(random_raw(params))


# the package's one dataclass: perfbench records each row with `dataclasses.asdict`
@dataclass(frozen=True)
class BenchRow:
    instance: str
    lines: int
    islands: int
    crews: int
    h_lp: float
    h_alg1: float
    h_alg2: float
    h_single: float
    h_infinite: float
    h_opt: float | None
    ratio_alg1: float | None
    ratio_alg2: float | None
    ratio_lp: float | None
    t_lp: float
    t_alg1: float
    t_alg2: float
    t_oracle: float


BENCH_COLUMNS = [f.name for f in fields(BenchRow)]


def _cell(value: str | int | float | None) -> str | int:
    if value is None:
        return ""
    return f"{value:.10g}" if isinstance(value, float) else value


def rows_to_csv(rows: list[BenchRow]) -> str:
    import csv  # only here: no other command writes CSV
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(BENCH_COLUMNS)
    writer.writerows([_cell(getattr(row, name)) for name in BENCH_COLUMNS] for row in rows)
    return buf.getvalue()


def bench_instance(name: str, instance: NetworkInstance, m: int) -> BenchRow:
    """Run every algorithm on one instance and certify every guarantee.

    Raises oracle.InvariantViolation naming the instance if any tested
    bound fails; the caller serializes the instance for replay.
    """
    repair = instance.repair_times()

    t0 = time.perf_counter()
    relaxation = solve_relaxation(instance, crews=m)
    t_lp = time.perf_counter() - t0

    t0 = time.perf_counter()
    alg1 = algos.lp_list_schedule(instance, crews=m, solution=relaxation)
    t_alg1 = time.perf_counter() - t0

    t0 = time.perf_counter()
    alg2 = algos.convert_single_to_m(instance, crews=m)
    t_alg2 = time.perf_counter() - t0

    t0 = time.perf_counter()
    try:
        # the better of the two list schedules' harms is the oracle's incumbent
        found = oracle.brute_force_optimal(instance, m, incumbent=min(alg1.harm, alg2.harm))
        h_opt, t_oracle = found.harm, time.perf_counter() - t0
    except oracle.TooLarge:  # beyond the oracle's reach: no optimum to compare with
        h_opt, t_oracle = None, 0.0
    except oracle.InvariantViolation as exc:  # named, for the bench's replay file
        raise oracle.InvariantViolation(f"{name} (m={m}): {exc}") from exc

    oracle.certify_row(name, instance, m, alg1, alg2, h_opt)

    return BenchRow(
        instance=name,
        lines=len(repair),
        islands=len(instance.islands.islands),
        crews=m,
        h_lp=alg1.lp.objective,
        h_alg1=alg1.harm,
        h_alg2=alg2.harm,
        h_single=alg2.single_crew.harm,
        h_infinite=instance.infinite_crew_energization[1],
        h_opt=h_opt,
        ratio_alg1=None if h_opt in (None, 0) else alg1.harm / h_opt,
        ratio_alg2=None if h_opt in (None, 0) else alg2.harm / h_opt,
        ratio_lp=None if h_opt in (None, 0) else alg1.lp.objective / h_opt,
        t_lp=t_lp,
        t_alg1=t_alg1,
        t_alg2=t_alg2,
        t_oracle=t_oracle,
    )


def _bench_task(args: tuple[str, dict, int]) -> BenchRow:
    name, raw, m = args
    return bench_instance(name, validate(raw), m)


def run_bench(
    params: GenParams,
    count: int,
    out_path: str | Path | None = None,
    jobs: int = 1,
) -> list[BenchRow]:
    """Benchmark generated instances across the configured crew counts.

    Rows come back ordered by instance id then crew count regardless of
    worker scheduling.  On an invariant violation the offending instance is
    written as generated next to the output file, for replay, and the error
    re-raised.
    """
    # named by their seeds; each (instance, m) task validates its raw dict once
    corpus = [(f"gen-{seed}", random_raw(params._replace(seed=seed)))
              for seed in range(params.seed, params.seed + count)]
    tasks = [(name, raw, m) for name, raw in corpus for m in params.crews]
    try:
        if jobs > 1:
            from concurrent.futures import ProcessPoolExecutor  # only here: a costly import

            with ProcessPoolExecutor(max_workers=jobs) as pool:
                rows = list(pool.map(_bench_task, tasks))
        else:
            rows = [_bench_task(t) for t in tasks]
    except oracle.InvariantViolation as exc:
        if out_path is not None:
            name = str(exc).split(" ", 1)[0]
            replay = dict(corpus).get(name)
            if replay is not None:
                Path(str(out_path) + ".violation.json").write_text(
                    json.dumps(replay, indent=2) + "\n", encoding="utf-8"
                )
        raise
    if out_path is not None:
        Path(out_path).write_text(rows_to_csv(rows), encoding="utf-8")
    return rows
