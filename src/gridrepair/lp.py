"""LP relaxation of the m-crew repair problem, solved by cutting planes.

Variables are per-line completion times C and per-island energization
times E, in that column order.  The model, in plain Python lists, is the
one record of the relaxation: an objective, lower bounds and, for the `>=`
rows, a row-wise sparse matrix in lists that only grow, one row per
constraint.  Besides the base rows (E above every member completion and
above the parent island's E; C is bounded below by its repair time),
feasible completion vectors obey one load inequality per line subset A:

    sum_{j in A} p_j C_j >= f(A) = (sum_A p_j)^2 / (2m) + sum_A p_j^2 / 2

The exponentially many subset rows are generated on demand, one row per
cut, and these rows, the ones on C columns alone, are the cut pool.  The
candidates are the prefixes of the solution sorted by completion and by
midpoint (C - p/2).  Midpoint prefixes are exact maximizers of the
violation whenever any subset is violated, which a threshold argument
shows and the test suite re-checks against full subset enumeration.
Round 1 is not solved: every point of the base and singleton rows (which
C = p meets, as p/2m + p/2 <= p) dominates C = p, E = E-infinity, so with
weights >= 0 it is their optimum and canonical point, the vertex HiGHS
returns there bit for bit (tests/test_lp.py::TestSpareCrews pins that).
With at most m lines of positive time it meets every cut: (sum_A p)^2 <=
|A| sum_A p^2 <= m sum_A p^2 gives f(A) <= sum_A p^2, the left side there.
Separation scores all prefixes at once from running sums and re-scores
exactly (fsum) only those whose score plus its rounding-error bound,
4(k+8) 2^-53 times the sum of the magnitudes on a prefix of k lines, can
still beat the best exact violation, so it picks the cut the
prefix-by-prefix fsum scan picks.

The loop runs on integer column indices and plain Python floats.  One
HiGHS instance per process, its options set once, solves every model, and
each round passes it the whole model afresh, the row-wise lists as they
stand: a cold solve that keeps no basis.  It goes straight to HiGHS
through SciPy's private binding (`scipy.optimize._highspy._core`, tested
with SciPy 1.17) with the matrix, bounds and options that
`linprog(method="highs-ds")` would pass, and falls back to `linprog` where
that binding cannot be loaded; both give the same vertex bit for bit.
The binding is loaded from its file, without the half second of importing
`scipy.optimize`, and only by the functions that solve.  Only the `linprog`
fallback loads NumPy: the binding imports it only to convert an array, and
the direct solve passes the binding lists and reads back only lists.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import json
import math
import os
import sys
from dataclasses import dataclass, field, replace
from typing import Collection, Iterable, Mapping, NamedTuple, Sequence

from gridrepair import schedule as sched
from gridrepair.model import IslandSet, NetworkInstance, PrecedenceGraph, ValidationError

LP_TOLERANCE = 1e-9
SEPARATION_TOLERANCE = 1e-7
_CORE = "scipy.optimize._highspy._core"  # the binding's module name

_HIGHS_OPTIONS = {
    "primal_feasibility_tolerance": LP_TOLERANCE,
    "dual_feasibility_tolerance": LP_TOLERANCE,
}


class LpError(Exception):
    pass


class Infeasible(LpError):
    """The model has no feasible point; the construction is buggy."""


class Unbounded(LpError):
    """The objective is unbounded below; the construction is buggy."""


class IterationLimit(LpError):
    pass


def load_rhs(subset_times: Iterable[float], m: int) -> float:
    """Right-hand side f(A) of the load inequality for one subset."""
    times = list(subset_times)
    total = math.fsum(times)
    return total * total / (2.0 * m) + math.fsum(t * t for t in times) / 2.0


class Cut(NamedTuple):
    """One load inequality: sum over `lines` of p_j C_j >= rhs."""

    lines: frozenset[str]
    rhs: float


@dataclass
class LpModel:
    """Minimize objective . x subject to row k . x >= rhs[k] and x >= lower.

    The rows are held row-wise in the `<=` form HiGHS is given, negated: row k
    has the columns index[start[k]:start[k + 1]] with the coefficients minus
    value[start[k]:start[k + 1]].  `variables` names the columns, C[line id]
    then E[island id]; `format_model` names each row from them.
    """

    variables: list[str]
    objective: list[float]
    lower: list[float]
    start: list[int] = field(default_factory=lambda: [0])
    index: list[int] = field(default_factory=list)
    value: list[float] = field(default_factory=list)
    rhs: list[float] = field(default_factory=list)

    def add_row(self, columns: Iterable[int], values: Iterable[float], rhs: float) -> None:
        self.index += columns
        self.value += (-float(v) for v in values)
        self.start.append(len(self.index))
        self.rhs.append(rhs)


class LpVertex(NamedTuple):
    values: list[float]  # one entry per model variable, in column order
    objective: float


def simplex_solve(model: LpModel) -> LpVertex:
    """Solve the model to an optimal basic solution.

    Backed by the HiGHS dual simplex (deterministic pivoting with its own
    anti-cycling safeguards) at 1e-9 feasibility tolerances.  HiGHS gets
    the model directly on the process's shared instance where SciPy's
    binding allows it, else through `linprog`.  Both give the same vertex
    bit for bit.
    """
    vertex = _solve_highs(model)
    return _solve_linprog(model) if vertex is None else vertex


_shared: tuple[int, object] | None = None  # (pid, the instance of `_shared_highs`)
_zero_cost_lps: dict[int, object] = {}  # column count -> a HighsLp of that many zero costs


def _shared_highs():
    """The process's one HiGHS instance, built on first use.  It is keyed by
    the process id, so a forked child builds its own."""
    global _shared
    if _shared is None or _shared[0] != os.getpid():
        _shared = (os.getpid(), _new_highs())
    return _shared[1]


def _binding():
    """SciPy's HiGHS extension module, loaded from its file beside the `scipy`
    package (which `find_spec` finds without importing) and kept in `sys.modules`,
    so `scipy.optimize` reuses it; None where the file is missing or fails to import."""
    if _CORE in sys.modules:
        return sys.modules[_CORE]
    scipy = importlib.util.find_spec("scipy")
    paths = [os.path.join(folder, "optimize", "_highspy", "_core" + suffix)
             for folder in ((scipy.submodule_search_locations or ()) if scipy else ())
             for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next(filter(os.path.isfile, paths), None)
    if path is None:
        return None
    loader = importlib.machinery.ExtensionFileLoader(_CORE, path)
    try:
        core = importlib.util.module_from_spec(importlib.util.spec_from_loader(_CORE, loader))
        loader.exec_module(core)  # module_from_spec alone leaves it uninitialised
    except ImportError:
        return None
    sys.modules[_CORE] = core
    return core


def _new_highs():
    """A HiGHS instance with the options `linprog(method="highs-ds")` sets
    (presolve, dual simplex, the two 1e-9 tolerances, output off); None
    where `_binding` finds no extension module."""
    hs = _binding()
    if hs is None:
        return None
    highs = hs._Highs()
    for option, value in (
        ("presolve", "on"), ("solver", "simplex"),
        ("simplex_strategy", hs.simplex_constants.SimplexStrategy.kSimplexStrategyDual),
        ("highs_debug_level", hs.HighsDebugLevel.kHighsDebugLevelNone),
        *_HIGHS_OPTIONS.items(),
        ("output_flag", False), ("log_to_console", False),
    ):
        if highs.setOptionValue(option, value) != hs.HighsStatus.kOk:
            raise LpError(f"HiGHS rejected option {option}={value!r}")
    return highs


def _solve_highs(model: LpModel) -> LpVertex | None:
    """Solve on the process's shared HiGHS instance through SciPy's private
    binding; None if it is missing.  `passModel` drops the model and basis it held.

    With `_new_highs`, the one user of `_binding()`, the extension module
    `scipy.optimize._highspy._core` (tested with SciPy 1.17).  It passes the
    HighsLp `linprog(method="highs-ds")` builds, the matrix of -rows with row
    bounds [-inf, -rhs] and column bounds [lower, inf], and raises what
    `_solve_linprog` raises per status.
    The matrix goes row-wise; HiGHS stores it column-wise, rows ascending in
    each column, which is the CSC matrix linprog passes.  The binding's
    `col_cost_` setter takes a NumPy array, so the HighsLp has n zero costs
    HiGHS sized (`addVar`, once per n) and `changeColCost` sets the nonzero ones.
    """
    highs = _shared_highs()
    if highs is None:
        return None
    hs = _binding()

    n, k = len(model.variables), len(model.rhs)
    lower, upper = model.lower, [-rhs for rhs in model.rhs]
    lp = _zero_cost_lps.get(n)  # filled with lists: the binding converts them faster than arrays
    if lp is None:
        highs.clearModel()
        for _ in range(n):
            highs.addVar(0.0, hs.kHighsInf)
        lp = _zero_cost_lps[n] = highs.getLp()
    matrix = lp.a_matrix_
    lp.num_row_ = matrix.num_row_ = k
    matrix.format_ = hs.MatrixFormat.kRowwise
    matrix.start_, matrix.index_, matrix.value_ = model.start, model.index, model.value
    lp.col_lower_ = lower
    lp.row_lower_ = [-hs.kHighsInf] * k
    lp.row_upper_ = upper

    passed = highs.passModel(lp)
    # HiGHS holds its own copy now; the cached LP keeps no rows for the process's life
    lp.num_row_ = matrix.num_row_ = 0
    matrix.start_, matrix.index_, matrix.value_, lp.row_lower_, lp.row_upper_ = [0], [], [], [], []
    if passed == hs.HighsStatus.kError:
        raise Infeasible("HiGHS rejected the model")
    for column, cost in enumerate(model.objective):
        if cost and highs.changeColCost(column, cost) != hs.HighsStatus.kOk:
            raise LpError(f"HiGHS rejected cost {cost!r} of column {column}")
    run_failed = highs.run() == hs.HighsStatus.kError
    status = highs.getModelStatus()
    if run_failed or status != hs.HighsModelStatus.kOptimal:
        known = hs.HighsModelStatus
        failure = {known.kInfeasible: Infeasible, known.kModelError: Infeasible,
                   known.kUnbounded: Unbounded, known.kIterationLimit: IterationLimit,
                   known.kTimeLimit: IterationLimit}.get(status, LpError)
        raise failure(f"HiGHS model status {highs.modelStatusToString(status)}")
    solution = highs.getSolution()
    x, fun = solution.col_value, highs.getObjectiveValue()
    # linprog's own check of the returned point, at its tolerance; NaN fails it
    tol = math.sqrt(LP_TOLERANCE) * 10
    if not (all(v >= lo - tol for v, lo in zip(x, lower))
            and all(v <= up + tol for v, up in zip(solution.row_value, upper))
            and not math.isnan(fun)):
        raise LpError("the optimal point HiGHS returned violates the constraints")
    return LpVertex(values=x, objective=fun)


def _solve_linprog(model: LpModel) -> LpVertex:
    """The same solve through public `linprog`: the fallback, and the tests' reference."""
    import numpy as np
    from scipy.optimize import linprog

    dense = np.zeros((len(model.rhs), len(model.variables)))  # the `<=` rows
    dense[np.repeat(np.arange(len(model.rhs)), np.diff(model.start)), model.index] = model.value
    res = linprog(
        model.objective,
        A_ub=dense if model.rhs else None,
        b_ub=-np.array(model.rhs) if model.rhs else None,
        bounds=[(lo, None) for lo in model.lower],
        method="highs-ds",
        options=_HIGHS_OPTIONS,
    )
    if res.status != 0:
        raise {1: IterationLimit, 2: Infeasible, 3: Unbounded}.get(res.status, LpError)(res.message)
    return LpVertex(values=res.x.tolist(), objective=float(res.fun))


def _violation(subset: Iterable, c: Mapping | Sequence, p: Mapping | Sequence, m: int) -> float:
    return load_rhs((p[j] for j in subset), m) - math.fsum(p[j] * c[j] for j in subset)


def separate(c: Mapping[str, float], p: Mapping[str, float], m: int) -> Cut | None:
    """Most violated load inequality at the point C, or None if all hold.

    Candidates are the prefixes of the midpoint order and the completion
    order; zero-time lines are left out, as they contribute nothing to
    either side.  When any subset is violated the returned prefix attains
    the exact maximum violation over all 2^n - 1 subsets.  Ties in
    violation go to the smaller sorted id list.
    """
    lines = [j for j in sorted(p) if p[j] > 0]
    completions, times = ([float(x[j]) for j in lines] for x in (c, p))
    subset = _most_violated(completions, times, m, ())
    if subset is None:
        return None
    ids = [lines[i] for i in subset]
    return Cut(frozenset(ids), load_rhs((p[j] for j in ids), m))


def _most_violated(completions: list[float], times: list[float], m: int,
                   pooled: Collection[tuple[int, ...]]) -> tuple[int, ...] | None:
    """`separate` on the positive `times` of the lines in id order and their
    `completions`: the sorted positions of the cut, or None.  Subsets in
    `pooled`, by sorted position, are skipped: a pooled cut's residual
    violation is solver noise.

    Every prefix is scored from running sums S = sum p, Q = sum p^2 and
    W = sum p*C as S^2/2m + Q/2 - W.  On a prefix of k lines this score is
    within 4(k+8) 2^-53 (S^2/2m + Q/2 + sum |p*C|) of the exact (fsum)
    violation: k-1 roundings in each running sum, a few more in the
    products and in the exact value's own formula.
    Candidates are re-scored exactly from the highest upper bound down,
    until a bound falls below the best exact violation found, and the rule
    of `separate` is applied to the exact values.  The bound is rigorous, so
    the cut is the least key over all violated unpooled prefixes, whatever
    the order the candidates come in.
    """
    candidates = []  # (upper bound, order, prefix length)
    positions = range(len(times))
    # stable sorts break ties by position, that is by id
    for order in (sorted(positions, key=lambda i: completions[i] - times[i] / 2.0),
                  sorted(positions, key=completions.__getitem__)):
        s = q = w = a = 0.0
        for k, i in enumerate(order, 1):
            pt = times[i]
            ptc = pt * completions[i]
            s += pt
            q += pt * pt
            w += ptc
            a += abs(ptc)
            load = s * s / (2.0 * m) + q / 2.0
            upper = load - w + 4.0 * (k + 8) * 2.0**-53 * (load + a)
            if upper > SEPARATION_TOLERANCE:
                candidates.append((upper, order, k))
    candidates.sort(key=lambda candidate: candidate[0], reverse=True)
    best: tuple[float, tuple[int, ...]] | None = None  # (-violation, sorted positions)
    for bound, order, size in candidates:
        if best is not None and bound < -best[0]:
            break
        subset = order[:size]
        violation = _violation(subset, completions, times, m)
        if violation <= SEPARATION_TOLERANCE:
            continue
        key = (-violation, tuple(sorted(subset)))
        if (best is None or key < best) and key[1] not in pooled:
            best = key
    return None if best is None else best[1]


@dataclass
class LpSolution:
    """Optimal point of the relaxation; `cuts` are its model's load-cut rows."""

    completion: dict[str, float]
    energization: dict[str, float]
    midpoints: dict[str, float]  # C - p/2
    objective: float
    cuts: list[Cut]
    objective_history: list[float]  # one per round; the first, w . E-infinity, has no solve
    model: LpModel

    @property
    def iterations(self) -> int:
        return len(self.objective_history)


def _base_model(
    instance: NetworkInstance, islands: IslandSet, precedence: PrecedenceGraph
) -> LpModel:
    """Columns C by line id then E by island id; island-cover and precedence rows."""
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
    model.value = [-1.0, 1.0] * (len(pairs) // 2)  # negated, as the model holds its rows
    model.rhs = [0.0] * (len(pairs) // 2)
    return model


def solve_relaxation(
    instance: NetworkInstance,
    islands: IslandSet | None = None,
    precedence: PrecedenceGraph | None = None,
    crews: int | None = None,
) -> LpSolution:
    """Cutting-plane solve of the relaxation.

    Starts from the base rows plus all singleton cuts, then alternates
    solving and separating until no subset inequality is violated.  A
    final pass re-minimizes sum(C) + sum(E) at the optimal objective so
    the reported point is the same deterministic vertex regardless of
    which optimal face the simplex lands on; separation is re-checked on
    that point too.  Round 1 is C = p, E = E-infinity, unsolved: the least
    point, optimum and canonical point of the base and singleton rows, and
    with at most m damaged lines the answer (module docstring).
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
        _limit(weight, 1e15, "island {!r} weight", iid)
    if min(times, default=1.0) <= 1e-9:  # HiGHS drops such a coefficient from every load cut
        lid = next(lids[k] for k, t in zip(columns, times) if t <= 1e-9)
        raise ValidationError(f"line {lid!r} repair time {p[lid]!r} is at most HiGHS's "
                              "small matrix value 1e-09, which it drops from the load cuts")
    model = _base_model(instance, islands, precedence)
    first_cut = len(model.rhs)  # the rows from here on are the cut pool
    # the singleton cuts in one batch; fsum of one term is exact, so each
    # rhs is load_rhs([t], m) bit for bit
    model.start += range(len(model.index) + 1, len(model.index) + len(columns) + 1)
    model.index += columns
    model.value += [-t for t in times]
    model.rhs += [t * t / (2.0 * m) + t * t / 2.0 for t in times]
    for k, rhs in zip(columns, model.rhs[first_cut:]):  # a time of 1e15 or more crosses 1e20 here
        _limit(rhs, 1e20, "right-hand side of the load cut on {}", [lids[k]])
    pooled = {(i,) for i in range(len(columns))}  # the pool's subsets, by position in `columns`

    cut_limit = 10 * max(1, len(p)) ** 2
    # round 1, the least point: canonical as it stands, and C is `times` on the damaged lines
    energization, harm = (instance.infinite_crew_energization if own
                          else sched.infinite_crew_energization(islands, precedence, p))
    x, history = [p[lid] for lid in lids] + [energization[i] for i in islands.weights], [harm]
    c = times
    subset = _most_violated(c, times, m, pooled)
    while subset is not None:
        rhs = load_rhs((times[i] for i in subset), m)
        _limit(rhs, 1e20, "right-hand side of the load cut on {}",
               [lids[columns[i]] for i in subset])
        model.add_row([columns[i] for i in subset], [times[i] for i in subset], rhs)
        pooled.add(subset)
        if len(pooled) > cut_limit:
            violation = _violation(subset, c, times, m)
            raise IterationLimit(f"cut pool exceeded {cut_limit} (last violation {violation:.3e})")
        vertex = simplex_solve(model)
        history.append(vertex.objective)
        x = vertex.values
        c = [x[k] for k in columns]
        subset = _most_violated(c, times, m, pooled)
        if subset is None:
            x = _canonical_pass(model, vertex.objective).values
            c = [x[k] for k in columns]
            subset = _most_violated(c, times, m, pooled)

    completion = dict(zip(lids, x[:n]))
    midpoints = {lid: completion[lid] - p[lid] / 2.0 for lid in lids}
    cuts = [Cut(frozenset(lids[j] for j in model.index[model.start[k]:model.start[k + 1]]),
                model.rhs[k]) for k in range(first_cut, len(model.rhs))]
    # the midpoint form of each cut, sum_A p_j M_j >= (sum_A p_j)^2 / (2m),
    # is algebraically the cut itself and must hold at any feasible point
    for cut in cuts:
        lhs = math.fsum(p[j] * midpoints[j] for j in cut.lines)
        square = cut.rhs - math.fsum(p[j] * p[j] for j in cut.lines) / 2.0
        if lhs < square - 1e-6 * max(1.0, abs(square)):
            raise LpError(
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


def _limit(value: float, limit: float, what: str, *args: object) -> None:
    """Reject, naming `what.format(*args)`, a `value` that reaches `limit`: HiGHS
    cannot take a matrix value of 1e15 or more, nor a bound of 1e20 or more."""
    if value >= limit:
        raise ValidationError(f"{what.format(*args)} {value!r} reaches HiGHS's limit {limit:g}")


def _canonical_pass(model: LpModel, optimum: float) -> LpVertex:
    """Re-minimize sum of all variables with the objective capped at its optimum."""
    cap = optimum + max(LP_TOLERANCE, LP_TOLERANCE * abs(optimum))
    weighted = [k for k, w in enumerate(model.objective) if w]
    # the cap row -objective >= -cap goes on copies: the loop's model must not get it
    canon = replace(model, objective=[1.0] * len(model.variables), start=model.start[:],
                    index=model.index[:], value=model.value[:], rhs=model.rhs[:])
    canon.add_row(weighted, [-model.objective[k] for k in weighted], -cap)
    try:
        return simplex_solve(canon)
    except LpError:  # HiGHS drops a cap of 1e20 or more, and its point may then break it
        _limit(cap, 1e20, "objective cap of the canonical pass")
        raise


def format_model(model: LpModel) -> str:
    """Plain-text rendering of the final model for audit.

    Each row is named from its columns (E then C: an island covers a line;
    E then E: a child island after its parent; C alone: a load cut), its ids
    JSON-quoted if any holds a quote or the label's separator, to read back.
    """

    def terms(columns: list[int], values: Iterable[float]) -> str:
        named = sorted(zip((model.variables[k] for k in columns), values))
        return " + ".join(f"{coef:g}*{v}" for v, coef in named)

    def quoted(ids: list[str], *separators: str) -> list[str]:
        if any(s in i for i in ids for s in (*separators, '"')):
            return [json.dumps(i) for i in ids]
        return ids

    weighted = [k for k, w in enumerate(model.objective) if w]
    out = ["minimize", "  " + (terms(weighted, [model.objective[k] for k in weighted]) or "0"),
           "subject to"]
    for v, lo in zip(model.variables, model.lower):
        out.append(f"  {v} >= {lo:g}")
    for k, rhs in enumerate(model.rhs):
        row = slice(model.start[k], model.start[k + 1])
        columns, values = model.index[row], [-v for v in model.value[row]]
        names = [model.variables[j] for j in columns]
        kinds, ids = [name[:2] for name in names], [name[2:-1] for name in names]
        if kinds == ["E[", "C["]:
            label = "island {} covers {}".format(*quoted(ids, " covers "))
        elif kinds == ["E[", "E["]:
            label = "{} after {}".format(*quoted(ids, " after "))
        elif set(kinds) == {"C["}:
            label = f"load cut on {{{', '.join(quoted(sorted(ids), ', ', '{', '}'))}}}"
        else:
            label = ""
        line = f"  {terms(columns, values).replace('+ -', '- ')} >= {rhs:g}"
        out.append(line + (f"    # {label}" if label else ""))
    return "\n".join(out) + "\n"
