import contextlib
import heapq
import itertools
import json
import math
import os
import random
import subprocess
import sys
import textwrap
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import strategies as st

from gridrepair import lp, oracle, schedule
from gridrepair.harness import (GenParams, bench_instance, generate_random, load_instance,
                                random_raw)
from gridrepair.lp import LP_TOLERANCE, LpModel, LpSolution, LpVertex
from gridrepair.model import (
    Island,
    IslandSet,
    Line,
    NetworkInstance,
    Node,
    PrecedenceGraph,
    ValidationError,
    derive_line_weights,
    validate,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SRC = str(Path(lp.__file__).resolve().parent.parent)
MAX_SUBSET_LINES = 12
MAX_ALL_SUBSET_LINES = 10
# the bench CSV columns that hold wall times; every other column is deterministic
TIMING_COLUMNS = ("t_lp", "t_alg1", "t_alg2", "t_oracle")


@pytest.fixture(scope="session")
def two_island():
    return load_instance(FIXTURES / "two_island.json")


@pytest.fixture(scope="session")
def fork():
    return load_instance(FIXTURES / "fork.json")


@pytest.fixture(scope="session")
def graham():
    return load_instance(FIXTURES / "graham_m3.json")


@pytest.fixture(scope="session")
def feeder123():
    return load_instance(FIXTURES / "feeder123.json")


@pytest.fixture(scope="session")
def fixtures_dir():
    return FIXTURES


def run_fresh(script: str) -> subprocess.CompletedProcess:
    """Run `script` in a fresh interpreter that imports gridrepair from this tree."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-c", textwrap.dedent(script)], env=env,
                          capture_output=True, text=True, timeout=120)


@st.composite
def instances(draw, min_nodes=2, max_nodes=9, zero_times=True):
    """Random generated instances; the seed is the shrink target."""
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    nodes = draw(st.integers(min_value=min_nodes, max_value=max_nodes))
    switch_probability = draw(st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0]))
    params = GenParams(
        seed=seed,
        nodes=(nodes, nodes),
        switch_probability=switch_probability,
        repair_time=(0 if zero_times else 1, 10),
    )
    return generate_random(params)


# sizes and switch probabilities of the generated feeders the reference tests cover
REFERENCE_SIZES = (1, 2, 3, 8, 40, 300, 1200)
SWITCH_PROBABILITIES = (0.0, 0.1, 0.5, 1.0)


def feeder(nodes, switch_probability, seed):
    """A generated feeder of exactly `nodes` nodes, some lines undamaged."""
    return generate_random(GenParams(
        seed=seed, nodes=(nodes, nodes), switch_probability=switch_probability,
        repair_time=(0, 10)))


def instance_to_json(instance):
    """`instance` as the instance file's JSON object; `validate` reads it back."""
    return {
        "root": instance.root,
        "crews": instance.crews,
        "nodes": [{"id": n.id, "weight": n.weight} for n in instance.nodes],
        "lines": [{"id": ln.id, "from": ln.upstream, "to": ln.downstream,
                   "repair_time": ln.repair_time, "switch": ln.is_switch}
                  for ln in instance.lines],
    }


def path_raw(times, weights):
    """A path feeder 0 - 1 - ... as the instance file's JSON object: line k runs
    from node k - 1 to node k with repair time times[k - 1], node k weighs
    weights[k - 1] (the root 1), line e2 is the one switch, and m = 2."""
    return {
        "root": "0", "crews": 2,
        "nodes": [{"id": "0", "weight": 1}]
        + [{"id": str(k), "weight": w} for k, w in enumerate(weights, 1)],
        "lines": [{"id": f"e{k}", "from": str(k - 1), "to": str(k), "repair_time": t,
                   "switch": k == 2} for k, t in enumerate(times, 1)],
    }


def generate_corpus(params, count):
    """`count` generated instances, named by their seeds, which advance one by
    one from params.seed, as `gridrepair bench` draws them."""
    seeds = range(params.seed, params.seed + count)
    return [(f"gen-{seed}", generate_random(params._replace(seed=seed))) for seed in seeds]


def mixed_magnitude_feeder(seed):
    """Feeder `seed` of a sweep of 2-20 nodes, switch probability 0.5, each
    repair time 0, one of 1, 2 and 100, log-uniform over 1e-6 to 1e12 or
    uniform to 1e12, and each node weight 0, 1 or uniform to 1e4."""
    rng = random.Random(seed)
    nodes = rng.randint(2, 20)
    raw = random_raw(GenParams(seed=seed, nodes=(nodes, nodes), switch_probability=0.5))
    for line in raw["lines"]:
        kind = rng.randrange(4)
        line["repair_time"] = (0 if kind == 0 else rng.choice([1, 2, 100]) if kind == 1
                               else 10 ** rng.uniform(-6, 12) if kind == 2
                               else rng.uniform(0, 1e12))
    for node in raw["nodes"]:
        node["weight"] = rng.choice([0, 1, rng.uniform(0, 1e4)])
    return validate(raw)


def small_mixed_magnitude_feeder(seed):
    """Feeder `seed` of ROADMAP item 7's sweep: 2-10 nodes, switch
    probability 0, 0.3 or 1, each repair time 0, one of 1, 2 and 100 or
    log-uniform over 1e-6 to 1e12, and each node weight 0, 1 or uniform to
    1e4."""
    rng = random.Random(seed)
    nodes = rng.randint(2, 10)
    raw = random_raw(GenParams(seed=seed, nodes=(nodes, nodes),
                               switch_probability=rng.choice([0.0, 0.3, 1.0])))
    for line in raw["lines"]:
        kind = rng.randrange(3)
        line["repair_time"] = (0 if kind == 0 else rng.choice([1, 2, 100]) if kind == 1
                               else 10 ** rng.uniform(-6, 12))
    for node in raw["nodes"]:
        node["weight"] = rng.choice([0, 1, rng.uniform(0, 1e4)])
    return validate(raw)


def save_instance(path, instance):
    """Write `instance` as an indented instance file that `load_instance` reads back."""
    Path(path).write_text(json.dumps(instance_to_json(instance), indent=2) + "\n")


def makespan(plan):
    """The latest completion over every crew of a schedule, 0 if it has no jobs."""
    return max((a.completion for crew in plan.crews for a in crew), default=0.0)


def certified_bounds(instance, m):
    """Certify both algorithms' m-crew runs against the brute-force optimum
    as a bench row does (`oracle.certify_row` raises InvariantViolation on a
    broken guarantee), and return the values of its lower-bound check: the
    optimum, the single-crew optimum and the unlimited-crew optimum."""
    row = bench_instance("certified", instance, m)
    return row.h_opt, row.h_single, row.h_infinite


def load_rhs(subset_times, m):
    """Right-hand side f(A) of the load inequality for one subset."""
    times = list(subset_times)
    total = math.fsum(times)
    return total * total / (2.0 * m) + math.fsum(t * t for t in times) / 2.0


def violation(subset, c, p, m):
    """f(A) - sum_A p_j C_j, exactly (fsum), for the keys `subset` of `c` and `p`."""
    return load_rhs((p[j] for j in subset), m) - math.fsum(p[j] * c[j] for j in subset)


@dataclass(frozen=True)
class SeparationResult:
    subset: frozenset[str]
    violation: float


def exhaustive_separation(
    c: dict[str, float], p: dict[str, float], m: int
) -> SeparationResult:
    """Exact maximizer of the load-inequality violation over all subsets.

    Enumerates every one of the 2^n - 1 non-empty subsets; n is capped at
    12.  Serves as the ground truth for the prefix separation routine.
    """
    lines = sorted(p)
    n = len(lines)
    if n > MAX_SUBSET_LINES:
        raise oracle.TooLarge(n, MAX_SUBSET_LINES)
    if n == 0:
        raise ValueError("no lines to separate over")
    pv = np.array([p[j] for j in lines])
    pc = np.array([p[j] * c[j] for j in lines])
    masks = np.arange(1, 2**n, dtype=np.uint32)
    bits = (masks[:, None] >> np.arange(n)) & 1  # (2^n - 1, n)
    totals = bits @ pv
    violations = totals * totals / (2.0 * m) + bits @ (pv * pv) / 2.0 - bits @ pc
    best = int(np.argmax(violations))
    subset = frozenset(lines[k] for k in range(n) if bits[best, k])
    # recompute in exact scalar arithmetic for the reported value
    value = load_rhs((p[j] for j in subset), m) - math.fsum(p[j] * c[j] for j in subset)
    return SeparationResult(subset=subset, violation=value)


def row_scale(subset_times):
    """The divisor of a cut's row: its total time, if below 1 (the `lp` module docstring)."""
    return min(1.0, math.fsum(subset_times))


def _prefix_most_violated(completions, times, m, pooled, keys):
    """The prefixes of the orders sorted by each of `keys` scored at once from
    NumPy prefix sums, with `lp`'s rounding-error bound, and candidates
    re-scored exactly (fsum) from the highest bound down; the shape of
    `lp._most_violated`'s answer, its right-hand side and divisor from
    `load_rhs` and `row_scale`.  A prefix is violated by more than
    SEPARATION_TOLERANCE times its right-hand side and more than HiGHS's
    tolerance on its row."""
    from gridrepair.lp import SEPARATION_TOLERANCE

    # one row per order; stable sorts break ties by position, that is by id
    orders = np.array([np.argsort(key, kind="stable") for key in keys])
    pt = times[orders]
    ptc = pt * completions[orders]
    load = np.cumsum(pt, axis=1) ** 2 / (2.0 * m) + np.cumsum(pt * pt, axis=1) / 2.0
    slack = 4.0 * (np.arange(1, len(times) + 1) + 8) * 2.0**-53
    slack = slack * (load + np.cumsum(np.abs(ptc), axis=1))
    upper = load - np.cumsum(ptc, axis=1) + slack
    row, last = np.nonzero(upper > SEPARATION_TOLERANCE * (load - slack))
    bounds = upper[row, last]
    rank = np.argsort(-bounds, kind="stable")
    candidates = zip(bounds[rank].tolist(), row[rank].tolist(), (last[rank] + 1).tolist())
    orders, c, p = orders.tolist(), completions.tolist(), times.tolist()
    best = None  # (-violation, sorted positions)
    for bound, which, size in candidates:
        if best is not None and bound < -best[0]:
            break
        subset = orders[which][:size]
        excess = violation(subset, c, p, m)
        rhs = load_rhs((p[i] for i in subset), m)
        solver = LP_TOLERANCE * row_scale(p[i] for i in subset)
        if excess <= max(SEPARATION_TOLERANCE * rhs, solver):
            continue
        key = (-excess, tuple(sorted(subset)))
        if (best is None or key < best) and key[1] not in pooled:
            best = key
    if best is None:
        return None
    subset = best[1]
    return subset, load_rhs((p[i] for i in subset), m), row_scale(p[i] for i in subset)


def reference_most_violated(completions, times, m, pooled):
    """`lp._most_violated` in NumPy: the prefixes of the midpoint order alone."""
    completions, times = np.asarray(completions, dtype=float), np.asarray(times, dtype=float)
    return _prefix_most_violated(completions, times, m, pooled, [completions - times / 2.0])


def two_order_most_violated(completions, times, m, pooled):
    """The rule `lp._most_violated` had until it dropped the completion order:
    the prefixes of the midpoint order and of the completion order.  The
    most violated subset is a midpoint prefix (the `lp` module docstring), so
    the two rules differ only where the maximum is pooled, and in float
    noise on huge magnitudes."""
    completions, times = np.asarray(completions, dtype=float), np.asarray(times, dtype=float)
    return _prefix_most_violated(completions, times, m, pooled,
                                 [completions - times / 2.0, completions])


# Reference implementations: the straightforward forms of `model.validate`,
# `model.partition_islands` and `seq_opt.optimal_island_sequence` (per-field
# helper calls, string-keyed union-find, a Fraction-only ratio key).  The
# faster versions must agree with them on every instance and every error.


def _ref_fields(entry, fields, owner):
    if not isinstance(entry, dict):
        raise ValidationError(f"{owner} must be an object")
    for key in entry:
        if key not in fields:
            raise ValidationError(f"{owner} has unknown field {key!r}")
    for key in fields:
        if key not in entry:
            raise ValidationError(f"{owner} is missing field {key!r}")


def _ref_number(value, name, owner):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{owner} has non-numeric {name} {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ValidationError(f"{owner} has non-finite {name} {number}")
    return number


def _ref_id(value, owner):
    if not isinstance(value, str):
        raise ValidationError(f"{owner} must be a string, got {value!r}")
    return value


def reference_validate(raw: dict) -> NetworkInstance:
    """`model.validate` with per-field checks and, for every file whatever its
    line order and orientation, the orienting traversal it used before files
    already oriented from the root skipped it."""
    _ref_fields(raw, ("root", "crews", "nodes", "lines"), "instance")
    crews = raw["crews"]
    if isinstance(crews, bool) or not isinstance(crews, int):
        raise ValidationError(f"crews must be an integer, got {crews!r}")
    if crews < 1:
        raise ValidationError(f"crews must be >= 1, got {crews}")
    for key in ("nodes", "lines"):
        if not isinstance(raw[key], list):
            raise ValidationError(f"{key} must be an array")

    nodes, seen_nodes = [], set()
    for k, entry in enumerate(raw["nodes"]):
        _ref_fields(entry, ("id", "weight"), f"node entry {k}")
        nid = _ref_id(entry["id"], f"node entry {k} id")
        if nid in seen_nodes:
            raise ValidationError(f"duplicate node id {nid!r}")
        seen_nodes.add(nid)
        w = _ref_number(entry["weight"], "weight", f"node {nid!r}")
        if w < 0:
            raise ValidationError(f"node {nid!r} has negative weight {w}")
        nodes.append(Node(nid, w))

    root = _ref_id(raw["root"], "root")
    if root not in seen_nodes:
        raise ValidationError(f"root {root!r} is not a node")

    raw_lines, seen_lines = [], set()
    for k, entry in enumerate(raw["lines"]):
        _ref_fields(entry, ("id", "from", "to", "repair_time", "switch"), f"line entry {k}")
        lid = _ref_id(entry["id"], f"line entry {k} id")
        if lid in seen_lines:
            raise ValidationError(f"duplicate line id {lid!r}")
        seen_lines.add(lid)
        u = _ref_id(entry["from"], f"line {lid!r} 'from'")
        v = _ref_id(entry["to"], f"line {lid!r} 'to'")
        for end in (u, v):
            if end not in seen_nodes:
                raise ValidationError(f"line {lid!r} endpoint {end!r} is not a node")
        p = _ref_number(entry["repair_time"], "repair time", f"line {lid!r}")
        if p < 0:
            raise ValidationError(f"line {lid!r} has negative repair time {p}")
        sw = entry["switch"]
        if not isinstance(sw, bool):
            raise ValidationError(f"line {lid!r} switch flag must be a boolean, got {sw!r}")
        raw_lines.append((lid, u, v, p, sw))

    # only a failed traversal runs the union-find: a cycle is reported before
    # a disconnected node
    adjacency = {nid: [] for nid in seen_nodes}
    for k, (_, u, v, _, _) in enumerate(raw_lines):
        adjacency[u].append((v, k))
        adjacency[v].append((u, k))
    parent_of, visited, stack = {}, {root}, [root]
    while stack:
        cur = stack.pop()
        for other, k in adjacency[cur]:
            if other not in visited:
                visited.add(other)
                parent_of[other] = k
                stack.append(other)
    if len(visited) < len(seen_nodes) or len(raw_lines) != len(seen_nodes) - 1:
        comp = {nid: nid for nid in seen_nodes}
        for lid, u, v, _, _ in raw_lines:
            ru, rv = u, v
            while comp[ru] != ru:
                comp[ru] = ru = comp[comp[ru]]
            while comp[rv] != rv:
                comp[rv] = rv = comp[comp[rv]]
            if ru == rv:
                raise ValidationError(f"line {lid!r} ({u!r}-{v!r}) closes a cycle")
            comp[ru] = rv
        missing = sorted(seen_nodes - visited)[0]
        raise ValidationError(f"node {missing!r} is not connected to the root")
    if all(n.weight == 0 for n in nodes):
        raise ValidationError("every node weight is zero")
    # the one check added since: totals that overflow a float with a 2**-20 margin
    total = sum(line[3] for line in raw_lines)
    weight = sum(n.weight for n in nodes if n.id != root)
    if not math.isfinite(total * (1 + 2**-20)):
        raise ValidationError(f"total repair time {total} is not finite within rounding")
    if not math.isfinite(weight * total * (1 + 2**-20)):
        raise ValidationError(f"total weight times total repair time {weight * total} "
                              "is not finite within rounding")

    lines = []
    for node_id, k in parent_of.items():
        lid, u, v, p, sw = raw_lines[k]
        lines.append(Line(lid, v if u == node_id else u, node_id, p, sw))
    return NetworkInstance(
        nodes=tuple(sorted(nodes, key=lambda n: n.id)),
        lines=tuple(sorted(lines, key=lambda ln: ln.id)),
        root=root,
        crews=crews,
    )


def reference_partition(instance: NetworkInstance) -> IslandSet:
    """`model.partition_islands` as a union-find over the non-switch lines."""
    comp = {n.id: n.id for n in instance.nodes}

    def find(x):
        while comp[x] != x:
            comp[x] = comp[comp[x]]
            x = comp[x]
        return x

    for ln in instance.lines:
        if not ln.is_switch:
            comp[find(ln.upstream)] = find(ln.downstream)
    members, line_groups = {}, {}
    for n in instance.nodes:
        members.setdefault(find(n.id), []).append(n.id)
        line_groups.setdefault(find(n.id), [])
    for ln in instance.lines:
        line_groups[find(ln.downstream)].append(ln.id)
    line_weights = derive_line_weights(instance)
    repair = instance.repair_times()
    islands, taken = [], set()
    for rep, node_ids in members.items():
        line_ids = sorted(line_groups[rep])
        if line_ids:
            island_id = line_ids[0]
        else:
            island_id = instance.root
            if island_id in {sorted(g)[0] for g in line_groups.values() if g}:
                island_id = f"root({instance.root})"
        if island_id in taken:
            raise ValidationError(f"island id collision on {island_id!r}")
        taken.add(island_id)
        islands.append(Island(
            id=island_id,
            line_ids=tuple(line_ids),
            node_ids=tuple(sorted(node_ids)),
            weight=sum((line_weights[lid] for lid in line_ids), 0.0),  # 0.0 with no lines
            processing=sum((repair[lid] for lid in line_ids), 0.0),
        ))
    return IslandSet(islands=tuple(sorted(islands, key=lambda isl: isl.id)))


def reference_precedence(instance: NetworkInstance, islands: IslandSet) -> PrecedenceGraph:
    """`model.build_precedence_graph` with each switch line's islands looked up by
    line and by node."""
    of_node = {nid: isl.id for isl in islands.islands for nid in isl.node_ids}
    of_line = {lid: isl.id for isl in islands.islands for lid in isl.line_ids}
    return PrecedenceGraph(root=of_node[instance.root], parent={
        of_line[ln.id]: of_node[ln.upstream] for ln in instance.lines if ln.is_switch})


def reference_island_sequence(islands: IslandSet, precedence: PrecedenceGraph) -> list[str]:
    """`seq_opt.optimal_island_sequence` with an exact Fraction ratio key."""

    def key(weight, processing, head):
        if processing == 0:
            return (0, Fraction(0), head)
        return (1, -weight / processing, head)

    jobs = {isl.id: [[isl.id], Fraction(isl.processing), Fraction(isl.weight)]
            for isl in islands.islands}
    merged_into = {iid: iid for iid in jobs}

    def find(x):
        while merged_into[x] != x:
            merged_into[x] = merged_into[merged_into[x]]
            x = merged_into[x]
        return x

    version = dict.fromkeys(jobs, 0)
    heap = [(key(w, p, iid), 0, iid) for iid, (_, p, w) in jobs.items() if iid != precedence.root]
    heapq.heapify(heap)
    remaining = len(jobs) - 1
    while remaining:
        _, ver, head = heapq.heappop(heap)
        if find(head) != head or ver != version[head]:
            continue
        ids, p, w = jobs[head]
        target = find(precedence.parent[ids[0]])
        parent_job = jobs[target]
        parent_job[0].extend(ids)
        parent_job[1] += p
        parent_job[2] += w
        merged_into[head] = target
        remaining -= 1
        if target != precedence.root:
            version[target] += 1
            heapq.heappush(heap, (key(parent_job[2], parent_job[1], target),
                                  version[target], target))
    return list(jobs[precedence.root][0])


def reference_solve_linprog(model: LpModel, presolve: bool) -> LpVertex:
    """`lp.simplex_solve` through SciPy's public `linprog(method="highs-ds")`,
    with the same HiGHS options and presolve on or off: the `>=` rows as
    dense `<=` rows, negated with their right-hand sides, and columns bounded
    below.  The row duals are the `<=` rows' marginals, negated, so they are
    the duals of the `>=` rows.  Each failed status raises the `lp` error it
    stands for."""
    from scipy.optimize import linprog

    dense = np.zeros((len(model.rhs), len(model.variables)))  # the `>=` rows
    dense[np.repeat(np.arange(len(model.rhs)), np.diff(model.start)), model.index] = model.value
    res = linprog(
        model.objective,
        A_ub=-dense if model.rhs else None,
        b_ub=-np.array(model.rhs) if model.rhs else None,
        bounds=[(lo, None) for lo in model.lower],
        method="highs-ds",
        options={**lp._HIGHS_OPTIONS, "presolve": presolve},
    )
    if res.status != 0:
        failure = {1: lp.IterationLimit, 2: lp.Infeasible, 3: lp.Unbounded}
        raise failure.get(res.status, lp.LpError)(res.message)
    return LpVertex(values=res.x.tolist(), objective=float(res.fun),
                    row_duals=(-res.ineqlin.marginals).tolist(),
                    reduced_costs=res.lower.marginals.tolist())


def reference_solve_highs(model: LpModel, highs=None) -> LpVertex:
    """`lp.simplex_solve` as first written: every field of the HighsLp, the
    cost vector too, set from Python lists before one `passModel`.  Setting
    `col_cost_` loads NumPy, since SciPy's binding types it as an array.  The
    vertex carries HiGHS's duals, as `lp`'s does."""
    highs = lp._shared_highs() if highs is None else highs
    hs = lp._binding()

    n, k = len(model.variables), len(model.rhs)
    lower, rhs = model.lower, model.rhs
    held = hs.HighsLp()
    matrix = held.a_matrix_
    held.num_col_, held.num_row_ = matrix.num_col_, matrix.num_row_ = n, k
    matrix.format_ = hs.MatrixFormat.kRowwise
    matrix.start_, matrix.index_, matrix.value_ = model.start, model.index, model.value
    held.col_cost_ = model.objective
    held.col_lower_ = lower
    held.col_upper_ = [hs.kHighsInf] * n
    held.row_lower_ = rhs
    held.row_upper_ = [hs.kHighsInf] * k

    if highs.passModel(held) == hs.HighsStatus.kError:
        raise lp.Infeasible("HiGHS rejected the model")
    run_failed = highs.run() == hs.HighsStatus.kError
    status = highs.getModelStatus()
    if run_failed or status != hs.HighsModelStatus.kOptimal:
        known = hs.HighsModelStatus
        failure = {known.kInfeasible: lp.Infeasible, known.kModelError: lp.Infeasible,
                   known.kUnbounded: lp.Unbounded, known.kIterationLimit: lp.IterationLimit,
                   known.kTimeLimit: lp.IterationLimit}.get(status, lp.LpError)
        raise failure(f"HiGHS model status {highs.modelStatusToString(status)}")
    solution = highs.getSolution()
    x, fun = solution.col_value, highs.getObjectiveValue()
    tol = math.sqrt(lp.LP_TOLERANCE) * 10
    if not (all(v >= lo - tol for v, lo in zip(x, lower))
            and all(v >= b - tol for v, b in zip(solution.row_value, rhs))
            and not math.isnan(fun)):
        raise lp.LpError("the optimal point HiGHS returned violates the constraints")
    return LpVertex(values=x, objective=fun, row_duals=solution.row_dual,
                    reduced_costs=solution.col_dual)


def full_space_base_model(
    instance: NetworkInstance, islands: IslandSet, precedence: PrecedenceGraph
) -> LpModel:
    """The full-space relaxation's base rows, as `lp` built them before it
    moved to island space: columns C by line id then E by island id, one row
    per island over each of its lines and one per child island over its
    parent."""
    p, weights = instance.repair_times(), islands.weights
    lids, iids = sorted(p), list(weights)  # islands are in id order
    line_col = {lid: k for k, lid in enumerate(lids)}
    island_col = {iid: len(lids) + k for k, iid in enumerate(iids)}
    model = LpModel(
        variables=[f"C[{lid}]" for lid in lids] + [f"E[{iid}]" for iid in iids],
        objective=[0.0] * len(lids) + [float(weights[iid]) for iid in iids],
        lower=[float(p[lid]) for lid in lids] + [0.0] * len(iids),
    )
    pairs = []  # (column +1, column -1) per row: island over line, child over parent
    for isl in islands.islands:
        for lid in isl.line_ids:
            pairs += (island_col[isl.id], line_col[lid])
    for parent, child in precedence.edges():
        pairs += (island_col[child], island_col[parent])
    model.start, model.index = list(range(0, len(pairs) + 1, 2)), pairs
    model.value = [1.0, -1.0] * (len(pairs) // 2)
    model.rhs = [0.0] * (len(pairs) // 2)
    return model


# `lp`'s canonical pass as it last ran there, for `_full_space_relaxation` and the tests
def _canonical_pass(model: LpModel, optimum: float, presolve: bool = False) -> LpVertex:
    """Re-minimize sum(E) with the objective capped at its optimum."""
    cap = optimum + max(LP_TOLERANCE, LP_TOLERANCE * abs(optimum))
    weighted = [k for k, w in enumerate(model.objective) if w]
    # the cap row -objective >= -cap goes on copies: the loop's model must not get it
    canon = LpModel(model.variables, [1.0] * len(model.variables), model.lower,
                    start=model.start[:], index=model.index[:], value=model.value[:],
                    rhs=model.rhs[:])
    canon.add_row(weighted, [-model.objective[k] for k in weighted], -cap)
    try:
        return lp.simplex_solve(canon, presolve)
    except lp.LpError:  # HiGHS drops a cap of 1e20 or more, and its point may then break it
        lp._limit(cap, "objective cap of the canonical pass")
        raise


def _full_space_relaxation(
    instance: NetworkInstance,
    islands: IslandSet | None = None,
    precedence: PrecedenceGraph | None = None,
    crews: int | None = None,
) -> LpSolution:
    """`lp.solve_relaxation` as it was in full space, kept verbatim as the
    differential reference of the island-space loop: the same optimum, on
    n + k columns and the n singleton rows.  The separation is the two-order
    rule of that time (`two_order_most_violated`); the canonical pass is
    `_canonical_pass`, as `lp` ran it then.

    Cutting-plane solve of the relaxation.

    Starts from the base rows plus all singleton cuts, then alternates
    solving and separating until no subset inequality is violated.  A
    final pass re-minimizes sum(C) + sum(E) at the optimal objective so
    the reported point is the same deterministic vertex regardless of
    which optimal face the simplex lands on; separation is re-checked on
    that point too.  Round 1 is C = p, E = E-infinity, unsolved: the least
    point, optimum and canonical point of the base and singleton rows, and
    with at most m damaged lines the answer (the `lp` module docstring).
    """
    own = islands is None and precedence is None  # the instance's, which keeps E-infinity
    islands = instance.islands if islands is None else islands
    precedence = instance.precedence if precedence is None else precedence
    m = instance.crews if crews is None else crews
    if m < 1:
        raise ValueError(f"crew count must be >= 1, got {m}")
    p = instance.repair_times()
    lids, n = sorted(p), len(p)
    # lines with p > 0, by position: their C columns and times
    columns = [k for k, lid in enumerate(lids) if p[lid] > 0]
    times = [p[lids[k]] for k in columns]

    for iid, weight in islands.weights.items():  # each a coefficient of the objective cap
        if weight >= 1e15:
            raise ValidationError(
                f"island {iid!r} weight {weight!r} reaches the input's weight limit 1e+15")
    if min(times, default=1.0) <= 1e-9:  # HiGHS drops such a coefficient from every load cut
        lid = next(lids[k] for k, t in zip(columns, times) if t <= 1e-9)
        raise ValidationError(f"line {lid!r} repair time {p[lid]!r} is at most HiGHS's "
                              "small matrix value 1e-09, which it drops from the load cuts")
    model = full_space_base_model(instance, islands, precedence)
    first_cut = len(model.rhs)  # the rows from here on are the cut pool
    # the singleton cuts in one batch; fsum of one term is exact, so each
    # rhs is load_rhs([t], m) bit for bit
    model.start += range(len(model.index) + 1, len(model.index) + len(columns) + 1)
    model.index += columns
    model.value += times
    model.rhs += [t * t / (2.0 * m) + t * t / 2.0 for t in times]
    for k, rhs in zip(columns, model.rhs[first_cut:]):  # a time of 1e15 or more crosses 1e20 here
        lp._limit(rhs, "right-hand side of the load cut on {}", [lids[k]])
    pooled = {(i,) for i in range(len(columns))}  # the pool's subsets, by position in `columns`

    cut_limit = 10 * max(1, len(p)) ** 2
    # round 1, the least point: canonical as it stands, and C is `times` on the damaged lines
    energization, harm = (instance.infinite_crew_energization if own
                          else schedule.infinite_crew_energization(islands, precedence, p))
    x, history = [p[lid] for lid in lids] + [energization[i] for i in islands.weights], [harm]
    c = times
    found = two_order_most_violated(c, times, m, pooled)
    while found is not None:
        subset = found[0]
        rhs = load_rhs((times[i] for i in subset), m)
        lp._limit(rhs, "right-hand side of the load cut on {}",
                  [lids[columns[i]] for i in subset])
        model.add_row([columns[i] for i in subset], [times[i] for i in subset], rhs)
        pooled.add(subset)
        if len(pooled) > cut_limit:
            excess = violation(subset, c, times, m)
            raise lp.IterationLimit(
                f"cut pool exceeded {cut_limit} (last violation {excess:.3e})")
        vertex = lp.simplex_solve(model)
        history.append(vertex.objective)
        x = vertex.values
        c = [x[k] for k in columns]
        found = two_order_most_violated(c, times, m, pooled)
        if found is None:
            x = _canonical_pass(model, vertex.objective).values
            c = [x[k] for k in columns]
            found = two_order_most_violated(c, times, m, pooled)

    completion = dict(zip(lids, x[:n]))
    midpoints = {lid: completion[lid] - p[lid] / 2.0 for lid in lids}
    cuts = [lp.Cut(frozenset(lids[j] for j in model.index[model.start[k]:model.start[k + 1]]),
                model.rhs[k]) for k in range(first_cut, len(model.rhs))]
    # the midpoint form of each cut, sum_A p_j M_j >= (sum_A p_j)^2 / (2m),
    # is algebraically the cut itself and must hold at any feasible point
    for cut in cuts:
        lhs = math.fsum(p[j] * midpoints[j] for j in cut.lines)
        square = cut.rhs - math.fsum(p[j] * p[j] for j in cut.lines) / 2.0
        if lhs < square - 1e-6 * max(1.0, abs(square)):
            raise lp.LpError(
                f"midpoint form violated on {sorted(cut.lines)}: {lhs} < {square}"
            )
    return LpSolution(
        completion=completion,
        energization=dict(zip(islands.weights, x[n:])),
        midpoints=midpoints,
        objective=history[-1],
        cuts=cuts,
        objective_history=history,
        model=model,
    )


def reference_full_space_relaxation(
    instance: NetworkInstance,
    islands: IslandSet | None = None,
    precedence: PrecedenceGraph | None = None,
    crews: int | None = None,
) -> LpSolution:
    """`_full_space_relaxation` with HiGHS presolve on, as every solve was
    when it was written, so the reference does not move with the
    presolve-off solve of `lp.solve_relaxation`."""
    with presolve_on():
        return _full_space_relaxation(instance, islands, precedence, crews)


@contextlib.contextmanager
def presolve_on():
    """Within it, every `lp.simplex_solve` runs with HiGHS presolve on,
    whatever its caller asks, as `lp.solve_relaxation`'s last loop does."""
    solve = lp.simplex_solve
    with mock.patch.object(lp, "simplex_solve", lambda model, presolve=False: solve(model, True)):
        yield


def all_subset_relaxation(instance: NetworkInstance, m: int) -> float:
    """The relaxation's optimum with every one of its 2^n - 1 load cuts a row
    of the full-space model, solved once by `reference_solve_linprog` with
    presolve on: the LP the cutting planes close in on, with no separation
    at all.  Each cut row is divided by min(1, p(A)), as `lp` divides its
    own, so that HiGHS's absolute feasibility tolerance is no looser on a
    cut of tiny times than on a bound.  At most 10 damaged lines.

    Presolve stays on here although `lp` solves with it off: on seed 75 of
    `test_every_subset_cut_up_front_on_mixed_magnitudes` the presolve-off
    dual simplex ends this LP at 838888.4279137279, where the presolve-on
    dual simplex and HiGHS's interior point method (presolve on or off) give
    838888.4231531104 and the island loop 838888.4231578679."""
    p = instance.repair_times()
    lines = [lid for lid in sorted(p) if p[lid] > 0]
    if len(lines) > MAX_ALL_SUBSET_LINES:
        raise oracle.TooLarge(len(lines), MAX_ALL_SUBSET_LINES)
    model = full_space_base_model(instance, instance.islands, instance.precedence)
    column = {lid: k for k, lid in enumerate(sorted(p))}
    for size in range(1, len(lines) + 1):
        for subset in itertools.combinations(lines, size):
            times = [p[lid] for lid in subset]
            scale = min(1.0, math.fsum(times))
            model.add_row([column[lid] for lid in subset], [t / scale for t in times],
                          load_rhs(times, m) / scale)
    return reference_solve_linprog(model, True).objective


def exact_dual_bound(model: LpModel, vertex: LpVertex, caps) -> Fraction:
    """`lp._dual_bound` in exact arithmetic, with no allowance: LB = y.b +
    sum_j min(l_j r_j, u_j r_j), y = max(0, row dual), r = w - A'y, on the
    model's stored floats and the box `caps`."""
    r = [Fraction(w) for w in model.objective]
    bound = Fraction(0)
    for k, dual in enumerate(vertex.row_duals):
        y = Fraction(max(0.0, dual))
        bound += y * Fraction(model.rhs[k])
        for i in range(model.start[k], model.start[k + 1]):
            r[model.index[i]] -= Fraction(model.value[i]) * y
    return bound + sum(min(Fraction(lo) * rj, Fraction(cap) * rj)
                       for rj, lo, cap in zip(r, model.lower, caps))


def island_all_subset_relaxation(instance: NetworkInstance, m: int, caps=None) -> float:
    """The island LP of `lp` with every one of its 2^n - 1 load cuts a row,
    each divided by min(1, p(A)) as `lp` divides its own, and with a row
    -E_j >= -caps[j] per column where `caps` is given; solved once by
    `reference_solve_linprog` with presolve on (`all_subset_relaxation`
    says why).  At most 10 damaged lines."""
    p, islands = instance.repair_times(), instance.islands
    lines = [lid for lid in sorted(p) if p[lid] > 0]
    if len(lines) > MAX_ALL_SUBSET_LINES:
        raise oracle.TooLarge(len(lines), MAX_ALL_SUBSET_LINES)
    model = lp._base_model(instance, islands, instance.precedence)
    column = {iid: k for k, iid in enumerate(islands.weights)}
    for size in range(1, len(lines) + 1):
        for subset in itertools.combinations(lines, size):
            times = [p[lid] for lid in subset]
            coefficients: dict[int, float] = {}
            for lid in subset:
                k = column[islands.island_of_line[lid]]
                coefficients[k] = coefficients.get(k, 0.0) + p[lid]
            scale = min(1.0, math.fsum(times))
            model.add_row(list(coefficients), [v / scale for v in coefficients.values()],
                          load_rhs(times, m) / scale)
    for k, cap in enumerate(caps or ()):
        model.add_row([k], [-1.0], -cap)
    return reference_solve_linprog(model, True).objective
