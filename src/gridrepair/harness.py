"""Instance I/O, seeded random generation, and the benchmark runner.

Instance files are strict JSON: `model.validate` rejects unknown fields
and wrong types, so typos in hand-written fixtures fail loudly.
Generated instances use integer repair times and weights, which keeps
every harm exactly representable; only LP columns carry float noise.
"""

from __future__ import annotations

import csv
import io
import json
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from pathlib import Path

from gridrepair import algos, oracle
from gridrepair.lp import solve_relaxation
from gridrepair.model import NetworkInstance, validate


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


# The name perfbench/test_checks.py imports; `validate` makes every check.
instance_from_json = validate


def instance_to_json(instance: NetworkInstance) -> dict:
    return {
        "root": instance.root,
        "crews": instance.crews,
        "nodes": [{"id": n.id, "weight": n.weight} for n in instance.nodes],
        "lines": [{"id": ln.id, "from": ln.upstream, "to": ln.downstream,
                   "repair_time": ln.repair_time, "switch": ln.is_switch}
                  for ln in instance.lines],
    }


def load_instance(path: str | Path) -> NetworkInstance:
    text = Path(path).read_text()
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, exc.lineno, exc.colno) from exc
    return validate(obj)


def save_instance(path: str | Path, instance: NetworkInstance) -> None:
    Path(path).write_text(json.dumps(instance_to_json(instance), indent=2) + "\n")


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
    pure-Python encoder: one C-encoded `json.dumps` of a flat list formats every
    number, in text order."""
    quote, iids = json.encoder.encode_basestring_ascii, sorted(result.energization)
    times = [t for crew in result.schedule.crews for a in crew for t in a[1:]]  # start, completion
    flat = [result.crews, *times, *map(result.energization.get, iids), result.harm]
    number = iter(json.dumps(flat)[1:-1].split(", ")).__next__

    def block(items: list[str], pad: str, brackets: str = "[]") -> str:
        inner = f",\n{pad}  ".join(items)
        return f"{brackets[0]}\n{pad}  {inner}\n{pad}{brackets[1]}" if items else brackets

    head = f'{{\n  "algorithm": {quote(result.algorithm)},\n  "crews": {number()},\n'
    item = '{{\n        "line": {},\n        "start": {},\n        "completion": {}\n      }}'
    crews = [[item.format(quote(a.line), number(), number()) for a in crew]
             for crew in result.schedule.crews]
    assignments = block([block(crew, "    ") for crew in crews], "  ")
    energization = block([f"{quote(i)}: {number()}" for i in iids], "  ", "{}")
    return (f'{head}  "assignments": {assignments},\n  "energization": {energization},\n'
            f'  "harm": {number()}\n}}')


def oracle_to_json(result: oracle.OracleResult, crews: int) -> dict:
    return {
        "crews": crews,
        "optimum": result.harm,
        "priority_list": list(result.priority_list),
        "enumerated": result.enumerated,
    }


@dataclass(frozen=True)
class GenParams:
    """Knobs for the seeded instance generator; same seed, same bytes."""

    seed: int
    nodes: tuple[int, int] = (2, 9)
    switch_probability: float = 0.4
    repair_time: tuple[int, int] = (0, 10)
    weight: tuple[int, int] = (0, 10)
    crews: tuple[int, ...] = (2, 3)


def generate_random(params: GenParams) -> NetworkInstance:
    """Uniform random tree by random-parent attachment; always validates.

    Node weights are redrawn until at least one non-root weight is
    positive, so the result is a well-formed instance by construction.
    """
    rng = random.Random(params.seed)
    lo, hi = params.nodes
    count = rng.randint(lo, hi)
    width = len(str(count - 1)) if count > 1 else 1
    node_ids = [f"n{k:0{width}d}" for k in range(count)]
    while True:
        weights = [rng.randint(*params.weight) for _ in range(count)]
        if count == 1 or any(w > 0 for w in weights[1:]):
            break
    lines = []
    for k in range(1, count):
        parent = rng.randrange(k)
        lines.append({"id": f"l{k:0{width}d}", "from": node_ids[parent], "to": node_ids[k],
                      "repair_time": rng.randint(*params.repair_time),
                      "switch": rng.random() < params.switch_probability})
    raw = {
        "root": node_ids[0],
        "crews": params.crews[0] if params.crews else 1,
        "nodes": [{"id": nid, "weight": w} for nid, w in zip(node_ids, weights)],
        "lines": lines,
    }
    return validate(raw)


def generate_corpus(
    params: GenParams, count: int, max_islands: int | None = None
) -> list[tuple[str, NetworkInstance]]:
    """Deterministic stream of generated instances, optionally filtered.

    Seeds advance one by one from params.seed; instances with more
    islands than `max_islands` are skipped, not redrawn, so the corpus is
    reproducible from the base seed alone.
    """
    out: list[tuple[str, NetworkInstance]] = []
    trial = 0
    while len(out) < count:
        candidate = replace(params, seed=params.seed + trial)
        trial += 1
        instance = generate_random(candidate)
        if max_islands is not None:
            if len(instance.islands.islands) > max_islands:
                continue
        out.append((f"gen-{candidate.seed}", instance))
    return out


TIMING_COLUMNS = ("t_lp", "t_alg1", "t_alg2", "t_oracle")


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

    damaged = sum(1 for lid in repair if repair[lid] > 0)
    h_opt = None
    t_oracle = 0.0
    if damaged <= oracle.MAX_BRUTE_FORCE_LINES:
        t0 = time.perf_counter()
        h_opt = oracle.brute_force_optimal(instance, m).harm
        t_oracle = time.perf_counter() - t0

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
        h_infinite=alg2.infinite_crew_harm,
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
    worker scheduling.  On an invariant violation the offending instance
    is written next to the output file for replay and the error re-raised.
    """
    corpus = generate_corpus(params, count)
    tasks = [
        (name, instance_to_json(instance), m)
        for name, instance in corpus
        for m in params.crews
    ]
    try:
        if jobs > 1:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                rows = list(pool.map(_bench_task, tasks))
        else:
            rows = [_bench_task(t) for t in tasks]
    except oracle.InvariantViolation as exc:
        if out_path is not None:
            name = str(exc).split(" ", 1)[0]
            replay = {n: raw for n, raw, _ in tasks}.get(name)
            if replay is not None:
                Path(str(out_path) + ".violation.json").write_text(
                    json.dumps(replay, indent=2) + "\n"
                )
        raise
    if out_path is not None:
        Path(out_path).write_text(rows_to_csv(rows))
    return rows
