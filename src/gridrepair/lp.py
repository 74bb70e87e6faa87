"""LP relaxation of the m-crew repair problem, solved by cutting planes.

The paper's LP has a completion time C per line and an energization time E
per island, E above its lines' C and its parent island's E, C_j >= p_j, and
one load inequality per line subset A:

    sum_{j in A} p_j C_j >= f(A) = (sum_A p_j)^2 / (2m) + sum_A p_j^2 / 2

As every p_j >= 0, setting C_j to its island's E keeps a feasible point
feasible at the same objective, so the island-space model solved here has
the same optimum: one column E per island, in id order, weighted by the
island's weight and bounded below by its largest repair time (which implies
every singleton cut); a row E_child - E_parent >= 0 per switch; and a cut on
A as the row sum_i p(A & island i) E_i >= f(A), divided by min(1, p(A)) so
that HiGHS's absolute tolerance is no looser on a row of tiny times than on
a bound.  A line's completion is its island's E (0 for a line of zero time):
an optimal point of the paper's LP, all that the midpoint argument of Hall,
Schulz, Shmoys & Wein (1997) needs for each line to finish by twice it.  The
model, in plain Python lists, is the one record of the relaxation: an
objective, lower bounds and `>=` rows as a row-wise sparse matrix in lists
that only grow.

Cut rows are generated on demand, one per round.  The candidates are the
prefixes of the lines of positive time sorted by completion and by midpoint
(C - p/2).  Midpoint prefixes are exact maximizers of the violation
whenever any subset is violated, which a threshold argument shows and the
test suite re-checks against full subset enumeration.  A prefix is violated
when its violation exceeds SEPARATION_TOLERANCE times f(A), so times of any
magnitude converge alike, and the violation HiGHS would take as met on its
row.  Round 1 is not solved: E-infinity, the least point of the bounds and
precedence rows, is their optimum for weights >= 0 and the vertex HiGHS
returns there bit for bit (tests/test_lp.py::TestSpareCrews).  With at most
m lines of positive time it meets every cut: (sum_A p)^2 <= m sum_A p^2
gives f(A) <= sum_A p^2, at most the left side.  Once no prefix is violated,
a canonical pass re-minimizes sum(E) with the objective capped at its
optimum, so the point does not depend on the vertex HiGHS lands on.
Separation scores all prefixes at once from running sums and re-scores
exactly (fsum) only those whose score plus its rounding-error bound,
4(k+8) 2^-53 times the sum of the magnitudes on a prefix of k lines, can
still beat the best exact violation, so it picks the cut the
prefix-by-prefix fsum scan picks.

The loop runs on integer column indices and plain Python floats.  One
HiGHS instance per process, its options set once, solves every model, and
each round passes it the whole model afresh: a cold solve that keeps no
basis.  It goes straight to HiGHS through SciPy's private binding
(`scipy.optimize._highspy._core`, tested with SciPy 1.17) with the matrix,
bounds and options that `linprog(method="highs-ds")` would pass, and falls
back to `linprog` where that binding cannot be loaded; both give the same
vertex bit for bit.  The binding is loaded from its file, without the half
second of importing `scipy.optimize`, and only by the functions that solve.
Only the `linprog` fallback loads NumPy: the direct solve passes the
binding lists and reads back only lists.
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
SEPARATION_TOLERANCE = 1e-10  # relative to the right-hand side of the prefix's cut
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
    value[start[k]:start[k + 1]].  `variables` names the columns, E[island id].
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


def _row_scale(subset_times: Iterable[float]) -> float:
    """The divisor of a cut's row: its total time, if below 1 (module docstring)."""
    return min(1.0, math.fsum(subset_times))


def _violation(subset: Iterable, c: Mapping | Sequence, p: Mapping | Sequence, m: int) -> float:
    return load_rhs((p[j] for j in subset), m) - math.fsum(p[j] * c[j] for j in subset)


def separate(c: Mapping[str, float], p: Mapping[str, float], m: int) -> Cut | None:
    """Most violated load inequality at the point C, or None if all hold.

    Candidates are the prefixes of the midpoint order and the completion
    order; zero-time lines are left out, as they contribute nothing to
    either side.  The most violated of all 2^n - 1 subsets is such a prefix;
    the one returned is the most violated prefix that counts as violated
    (module docstring).  Ties in violation go to the smaller sorted id list.
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
            slack = 4.0 * (k + 8) * 2.0**-53 * (load + a)
            # the exact right-hand side is at least load - slack
            if load - w + slack > SEPARATION_TOLERANCE * (load - slack):
                candidates.append((load - w + slack, order, k))
    candidates.sort(key=lambda candidate: candidate[0], reverse=True)
    best: tuple[float, tuple[int, ...]] | None = None  # (-violation, sorted positions)
    for bound, order, size in candidates:
        if best is not None and bound < -best[0]:
            break
        subset = order[:size]
        rhs = load_rhs((times[i] for i in subset), m)
        violation = rhs - math.fsum(times[i] * completions[i] for i in subset)
        # HiGHS takes a row violated by at most LP_TOLERANCE as met
        solver = LP_TOLERANCE * _row_scale(times[i] for i in subset)
        if violation <= max(SEPARATION_TOLERANCE * rhs, solver):
            continue
        key = (-violation, tuple(sorted(subset)))
        if (best is None or key < best) and key[1] not in pooled:
            best = key
    return None if best is None else best[1]


@dataclass
class LpSolution:
    """Optimal point of the relaxation; `cuts` are its model's load-cut rows,
    the last len(cuts) rows, in row order."""

    completion: dict[str, float]  # the E of each line's island; 0 for a line of zero time
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
    """Columns E by island id, each bounded below by its island's largest repair
    time; one precedence row per switch."""
    p, weights = instance.repair_times(), islands.weights
    column = {iid: k for k, iid in enumerate(weights)}  # islands are in id order
    model = LpModel(
        variables=[f"E[{iid}]" for iid in weights],
        objective=[float(w) for w in weights.values()],
        lower=[max((float(p[lid]) for lid in isl.line_ids), default=0.0)
               for isl in islands.islands],
    )
    pairs = []  # (column +1, column -1) per row: child over parent
    for parent, child in precedence.edges():
        pairs += (column[child], column[parent])
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
    """Cutting-plane solve of the island-space relaxation (module docstring).

    Round 1, unsolved, is E = E-infinity; each later round adds the most
    violated cut and solves the model cold.  Separation is re-checked on the
    canonical pass's point too.
    """
    own = islands is None and precedence is None  # the instance's, which keeps E-infinity
    islands = instance.islands if islands is None else islands
    precedence = instance.precedence if precedence is None else precedence
    m = instance.crews if crews is None else crews
    if m < 1:
        raise ValueError(f"crew count must be >= 1, got {m}")
    p = instance.repair_times()
    lids, iids = sorted(p), list(islands.weights)
    of_line = islands.island_of_line
    column = {iid: k for k, iid in enumerate(iids)}
    # the lines with p > 0 in id order, their times and their islands' columns
    lines = [lid for lid in lids if p[lid] > 0]
    times = [p[lid] for lid in lines]
    columns = [column[of_line[lid]] for lid in lines]

    for iid, weight in islands.weights.items():  # each a coefficient of the objective cap
        _limit(weight, 1e15, "island {!r} weight", iid)
    for lid, t in zip(lines, times):
        if t <= 1e-9:  # HiGHS drops it where it is an island's one term in a cut of total >= 1
            raise ValidationError(f"line {lid!r} repair time {t!r} is at most HiGHS's "
                                  "small matrix value 1e-09, which it drops from the load cuts")
        _limit(t, 1e20, "line {!r} repair time", lid)  # its island E's lower bound
    model = _base_model(instance, islands, precedence)

    cuts, pooled = [], set()  # the pool's subsets, by position in `lines`
    cut_limit = 10 * max(1, len(p)) ** 2
    # round 1, the least point: canonical as it stands
    energization, harm = (instance.infinite_crew_energization if own
                          else sched.infinite_crew_energization(islands, precedence, p))
    x, history = [energization[iid] for iid in iids], [harm]
    c = [x[k] for k in columns]
    subset = _most_violated(c, times, m, pooled)
    while subset is not None:
        cut = Cut(frozenset(lines[i] for i in subset), load_rhs((times[i] for i in subset), m))
        _limit(cut.rhs, 1e20, "right-hand side of the load cut on {}", sorted(cut.lines))
        coefficients = dict.fromkeys(sorted({columns[i] for i in subset}), 0.0)
        for i in subset:  # p(A & island) per island column
            coefficients[columns[i]] += times[i]
        scale = _row_scale(coefficients.values())
        model.add_row(list(coefficients), [v / scale for v in coefficients.values()],
                      cut.rhs / scale)
        cuts.append(cut)
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

    energization = dict(zip(iids, x))
    completion = {lid: energization[of_line[lid]] if p[lid] > 0 else 0.0 for lid in lids}
    return LpSolution(
        completion=completion,
        energization=energization,
        midpoints={lid: completion[lid] - p[lid] / 2.0 for lid in lids},
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
    """Re-minimize sum(E) with the objective capped at its optimum."""
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


def format_model(model: LpModel, cuts: Sequence[Cut]) -> str:
    """Plain-text rendering of the final model for audit.

    The rows before the last len(cuts) are precedence rows, named from
    their columns (a child island after its parent); the rest are the load
    cuts, each named from its cut's lines.  Ids are JSON-quoted if any holds
    a quote or the label's separator, to read back.
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
    first_cut = len(model.rhs) - len(cuts)
    for k, rhs in enumerate(model.rhs):
        row = slice(model.start[k], model.start[k + 1])
        columns, values = model.index[row], [-v for v in model.value[row]]
        if k < first_cut:
            ids = [model.variables[j][2:-1] for j in columns]  # E[child], E[parent]
            label = "{} after {}".format(*quoted(ids, " after "))
        else:
            ids = quoted(sorted(cuts[k - first_cut].lines), ", ", "{", "}")
            label = f"load cut on {{{', '.join(ids)}}}"
        out.append(f"  {terms(columns, values).replace('+ -', '- ')} >= {rhs:g}    # {label}")
    return "\n".join(out) + "\n"
