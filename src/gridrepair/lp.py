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

Cut rows are generated on demand, one per round but for round 1.  The
candidates are the prefixes of the midpoint order: the lines of positive
time sorted by M = C - p/2.  Adding a line j outside A changes the violation
f(A) - sum_A p_j C_j by p_j ((p(A) + p_j/2)/m - M_j), so every j in a most
violated A and every i outside it have M_j <= (p(A) - p_j/2)/m < p(A)/m <
(p(A) + p_i/2)/m <= M_i: each maximizer over all 2^n - 1 subsets is a
strict M-threshold set, a prefix of that order (Queyranne 1993; Hall,
Schulz, Shmoys & Wein 1997), which the test suite re-checks in exact
arithmetic.  A prefix is violated when its violation exceeds
SEPARATION_TOLERANCE times f(A), so times of any magnitude converge alike,
and the violation HiGHS would take as met on its row.  Round 1 is not
solved: E-infinity, the least point of the bounds and precedence rows, is
their optimum for weights >= 0 and the vertex HiGHS returns there bit for
bit (tests/test_lp.py::TestSpareCrews).  With at most m lines of positive
time it meets every cut: (sum_A p)^2 <= m sum_A p^2 gives f(A) <=
sum_A p^2, at most the left side.  Where round 1 does find a cut, it is
seeded: beside that cut go, before the first solve, the cuts on the
prefixes of the optimal single-crew island order (`seq_opt`) that end at an
island boundary and that E-infinity violates by the same rule, but for a
right-hand side of 1e20 or more, which HiGHS cannot take.  For one machine
the vertex of a sequence is tight exactly on its prefix sets (Queyranne
1993), so these name most of the final cuts at once; on the lp-feeders
benchmark they cut the solves per relaxation from 5.3 to 2.3.  Every later
round adds one cut.  Once no prefix is violated, the last vertex is the
answer, lifted top-down onto the precedence tree (`schedule.energize`): each
island's E becomes the larger of its own and its parent's, so every
precedence row holds exactly, as the 2x energization bound needs.  Raising E
keeps every cut (their coefficients are >= 0) and every bound, and any
optimal point of the LP keeps the midpoint argument, so no pass picks one
point of a degenerate optimal face; the objective reported is the vertex's.
Separation scores all prefixes in one pass of running sums and re-scores
exactly (fsum), once each, only those whose score plus its rounding-error
bound, 4(k+8) 2^-53 times the sum of the magnitudes on a prefix of k lines,
can still beat the best exact violation, so it picks the cut the
prefix-by-prefix fsum scan picks.

The loop runs on integer column indices and plain Python floats.  One HiGHS
instance per process solves every model, and each round passes it the whole
model afresh: a cold solve that keeps no basis.  Presolve is off: on models
of a few columns and rows it is most of a solve.  A solve that fails is
solved once more on the same model with presolve on, HiGHS's default, and
the loop goes on from there with its cuts.  The loop is run again from
round 1, without seeds and with presolve on, when that retry fails too, and
when its last solved vertex is not proven optimal: when its objective UB
exceeds the safe dual bound LB (Neumaier & Shcherbina 2004; Jansson 2004) by
more than GAP_TOLERANCE max(1, |UB|), as HiGHS's values can with presolve
off on times that span seven orders of magnitude or more.  A presolve-on
solve divides the costs by a power of two, to below 2^20, and multiplies
the objective and duals back: HiGHS's dual simplex can fail on costs of
about 1e8 or more ("excessively large costs"), with presolve off and on.
Presolve-off solves take the costs as they are, as scaling them too would
take light weights beside a heavy one near HiGHS's 1e-9 dual tolerance.
With y the row duals clipped at 0 on the rows AE >= b and r = w - A'y, each
E in them and in a box l <= E <= u has w.E = y.AE + r.E >= y.b +
sum_j min(l_j r_j, u_j r_j) = LB.  An optimum of the all-subset LP lies in
the box u_j = min(1.5P, U / W_j) (`_caps`; P the total time, U the
conversion bound, W_j the weight at or below island j): lowering each E
above 1.5P to it keeps every row, as f(A) - f(A - A_L) <= p(A_L) P for the
lines A_L it lowers, and as E only rises down the tree, W_j E_j <= w.E <= U.
So LB bounds that LP, up to the rounding of the stored cut rows;
`_dual_bound` takes a proven float allowance off it.  The solve goes
straight to HiGHS through SciPy's private binding
(`scipy.optimize._highspy._core`, SciPy 1.15 or later, tested with 1.17)
with the options that SciPy's public `highs-ds` method would pass and the
rows as written, bounded below, where that method passes them negated and
bounded above: it gives that method's vertex, objective and reduced costs
bit for bit, and its row duals negated (the tests' reference solve checks
this).  The binding is loaded from its file, without the half second of
importing `scipy.optimize`, and only by the functions that solve; where
that fails it is imported the standard way, and a SciPy without it raises
ImportError.  The solve loads no NumPy: it passes the binding lists and
reads back only lists.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import json
import math
import os
import sys
from typing import Collection, Iterable, Mapping, NamedTuple, Sequence

from gridrepair import schedule as sched
from gridrepair import seq_opt
from gridrepair.model import IslandSet, NetworkInstance, PrecedenceGraph, Record, ValidationError

LP_TOLERANCE = 1e-9
SEPARATION_TOLERANCE = 1e-10  # relative to the right-hand side of the prefix's cut
GAP_TOLERANCE = 1e-13  # of the objective: the most UB - LB a loop may end on
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


class CutPoolLimit(IterationLimit):
    """Separation went on finding cuts past the pool's 10 n^2 subsets."""


class Cut(NamedTuple):
    """One load inequality: sum over `lines` of p_j C_j >= rhs."""

    lines: frozenset[str]
    rhs: float


class LpModel(Record):
    """Minimize objective . x subject to row k . x >= rhs[k] and x >= lower.

    The rows are held row-wise as HiGHS is given them: row k has the columns
    index[start[k]:start[k + 1]] with the coefficients value[start[k]:start[k + 1]].
    `variables` names the columns, E[island id].  Unlike the other records, it is mutable.
    """

    variables: list[str]
    objective: list[float]
    lower: list[float]
    start: list[int]
    index: list[int]
    value: list[float]
    rhs: list[float]
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None

    def __init__(self, variables: list[str], objective: list[float], lower: list[float],
                 start: list[int] | None = None, index: list[int] | None = None,
                 value: list[float] | None = None, rhs: list[float] | None = None) -> None:
        self.variables, self.objective, self.lower = variables, objective, lower
        self.start = [0] if start is None else start
        self.index, self.value, self.rhs = ([] if x is None else x for x in (index, value, rhs))

    def add_row(self, columns: Iterable[int], values: Iterable[float], rhs: float) -> None:
        self.index += columns
        self.value += map(float, values)
        self.start.append(len(self.index))
        self.rhs.append(rhs)


class LpVertex(NamedTuple):
    values: list[float]  # one entry per model variable, in column order
    objective: float
    row_duals: Sequence[float] = ()  # one per row, HiGHS's sign; nonzero only on a tight row
    reduced_costs: Sequence[float] = ()  # one per column; nonzero only at its lower bound


_shared: tuple[int, object] | None = None  # (pid, the instance of `_shared_highs`)
_zero_cost_lps: dict[int, object] = {}  # column count -> a HighsLp of that many zero costs
_presolve: tuple[object, bool] | None = None  # (a HiGHS instance, the presolve it was last set to)


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
    so `scipy.optimize` reuses it.  Where the file is missing or fails to
    import, the module is imported the standard way, through `scipy.optimize`."""
    if _CORE in sys.modules:
        return sys.modules[_CORE]
    scipy = importlib.util.find_spec("scipy")
    paths = [os.path.join(folder, "optimize", "_highspy", "_core" + suffix)
             for folder in ((scipy.submodule_search_locations or ()) if scipy else ())
             for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next(filter(os.path.isfile, paths), None)
    if path is not None:
        loader = importlib.machinery.ExtensionFileLoader(_CORE, path)
        try:
            core = importlib.util.module_from_spec(importlib.util.spec_from_loader(_CORE, loader))
            loader.exec_module(core)  # module_from_spec alone leaves it uninitialised
        except ImportError:
            pass
        else:
            sys.modules[_CORE] = core
            return core
    try:
        return importlib.import_module(_CORE)
    except ImportError as error:  # where SciPy lacks a parent package, only that is named
        raise ImportError(f"cannot import SciPy's HiGHS binding {_CORE}: {error}") from error


def _new_highs():
    """A HiGHS instance with the options the tests' reference solve gives
    SciPy's `highs-ds` method (presolve off, dual simplex, the two 1e-9
    tolerances, output off).  On models of a few columns and rows presolve
    is most of a solve."""
    hs = _binding()
    highs = hs._Highs()
    for option, value in (
        ("presolve", "off"), ("solver", "simplex"),
        ("simplex_strategy", hs.simplex_constants.SimplexStrategy.kSimplexStrategyDual),
        ("highs_debug_level", hs.HighsDebugLevel.kHighsDebugLevelNone),
        *_HIGHS_OPTIONS.items(),
        ("output_flag", False), ("log_to_console", False),
    ):
        if highs.setOptionValue(option, value) != hs.HighsStatus.kOk:
            raise LpError(f"HiGHS rejected option {option}={value!r}")
    return highs


def simplex_solve(model: LpModel, presolve: bool = False) -> LpVertex:
    """Solve the model to an optimal basic solution.

    Backed by the HiGHS dual simplex (deterministic pivoting with its own
    anti-cycling safeguards) at 1e-9 feasibility tolerances, with presolve
    on or off as `presolve` says (the option is set only where it changes),
    on the process's shared instance; `passModel` drops the model and basis
    it held.  HiGHS gets the rows with row bounds [rhs, inf], passed
    row-wise (HiGHS stores them column-wise, rows ascending in each column),
    and column bounds [lower, inf].  The binding's `col_cost_` setter takes
    a NumPy array, so the HighsLp has n zero costs HiGHS sized (`addVar`,
    once per n) and `changeColCost` sets the nonzero ones: with presolve on,
    divided by a power of two to below 2^20, which the objective and the
    duals are multiplied back by (module docstring).
    """
    global _presolve
    highs, hs = _shared_highs(), _binding()
    if _presolve != (highs, presolve):
        if highs.setOptionValue("presolve", "on" if presolve else "off") != hs.HighsStatus.kOk:
            raise LpError(f"HiGHS rejected option presolve={presolve!r}")
        _presolve = (highs, presolve)
    n, k = len(model.variables), len(model.rhs)
    lower, rhs = model.lower, model.rhs
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
    lp.row_lower_ = rhs
    lp.row_upper_ = [hs.kHighsInf] * k

    passed = highs.passModel(lp)
    # HiGHS holds its own copy now; the cached LP keeps no rows for the process's life
    lp.num_row_ = matrix.num_row_ = 0
    matrix.start_, matrix.index_, matrix.value_, lp.row_lower_, lp.row_upper_ = [0], [], [], [], []
    if passed == hs.HighsStatus.kError:
        raise Infeasible("HiGHS rejected the model")
    # with presolve on, the costs are divided by 2^shift to below 2^20
    shift = max(0, math.frexp(max(model.objective, default=0.0))[1] - 20) if presolve else 0
    for column, cost in enumerate(model.objective):
        if cost and highs.changeColCost(column, math.ldexp(cost, -shift)) != hs.HighsStatus.kOk:
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
    x, fun = solution.col_value, math.ldexp(highs.getObjectiveValue(), shift)
    # SciPy's own check of the returned point, at its tolerance; NaN fails it
    tol = math.sqrt(LP_TOLERANCE) * 10
    if not (all(v >= lo - tol for v, lo in zip(x, lower))
            and all(v >= b - tol for v, b in zip(solution.row_value, rhs))
            and not math.isnan(fun)):
        raise LpError("the optimal point HiGHS returned violates the constraints")
    duals = solution.row_dual, solution.col_dual
    if shift:
        duals = [[math.ldexp(d, shift) for d in part] for part in duals]
    return LpVertex(values=x, objective=fun, row_duals=duals[0], reduced_costs=duals[1])


def separate(c: Mapping[str, float], p: Mapping[str, float], m: int) -> Cut | None:
    """Most violated load inequality at the point C, or None if all hold.

    Candidates are the prefixes of the midpoint order; zero-time lines are
    left out, as they contribute nothing to either side.  The most violated
    of all 2^n - 1 subsets is such a prefix; the one returned is the most
    violated prefix that counts as violated (module docstring).  Ties in
    violation go to the smaller sorted id list.
    """
    lines = [j for j in sorted(p) if p[j] > 0]
    completions, times = ([float(x[j]) for j in lines] for x in (c, p))
    found = _most_violated(completions, times, m, ())
    return None if found is None else Cut(frozenset(lines[i] for i in found[0]), found[1])


def _exact_cut(subset: Sequence[int], completions: Sequence[float], times: Sequence[float],
               m: int) -> tuple[float, float, float] | None:
    """The exact (fsum) violation at `completions` of the load cut on the
    positions `subset`, its right-hand side and its row's divisor
    min(1, p(A)); None unless it counts as violated (module docstring)."""
    t = [times[i] for i in subset]
    total = math.fsum(t)  # f(A), and the divisor, on the same sums
    rhs = total * total / (2.0 * m) + math.fsum([x * x for x in t]) / 2.0
    violation = rhs - math.fsum([x * completions[i] for x, i in zip(t, subset)])
    scale = min(1.0, total)
    # HiGHS takes a row violated by at most LP_TOLERANCE as met
    if violation <= max(SEPARATION_TOLERANCE * rhs, LP_TOLERANCE * scale):
        return None
    return violation, rhs, scale


def _most_violated(completions: list[float], times: list[float], m: int,
                   pooled: Collection[tuple[int, ...]]
                   ) -> tuple[tuple[int, ...], float, float] | None:
    """`separate` on the positive `times` of the lines in id order and their
    `completions`: the cut's sorted positions, its right-hand side and its
    row's divisor min(1, p(A)) (module docstring), or None.  Subsets in
    `pooled`, by sorted position, are skipped: a pooled cut's residual
    violation is solver noise.

    Every prefix of the midpoint order is scored from running sums
    S = sum p, Q = sum p^2 and W = sum p*C as S^2/2m + Q/2 - W.  On a prefix
    of k lines this score is within 4(k+8) 2^-53 (S^2/2m + Q/2 + sum |p*C|)
    of the exact (fsum) violation: k-1 roundings in each running sum, a few
    more in the products and in the exact value's own formula.  Candidates
    are re-scored exactly from the highest upper bound down, until a bound
    falls below the best exact violation found, and the rule of `separate`
    is applied to the exact values.  The bound is rigorous, so the cut is
    the least key over all violated unpooled prefixes, whatever the order
    the candidates come in.
    """
    midpoints = [c - t / 2.0 for c, t in zip(completions, times)]
    order = sorted(range(len(times)), key=midpoints.__getitem__)  # stable: ties go by id
    candidates = []  # (upper bound, prefix length)
    two_m, ulps = 2.0 * m, 4.0 * 2.0**-53
    s = q = w = a = 0.0
    for k, i in enumerate(order, 1):
        pt = times[i]
        ptc = pt * completions[i]
        s += pt
        q += pt * pt
        w += ptc
        a += abs(ptc)
        load = s * s / two_m + q / 2.0
        slack = (k + 8) * ulps * (load + a)
        bound = load - w + slack
        # the exact right-hand side is at least load - slack
        if bound > SEPARATION_TOLERANCE * (load - slack):
            candidates.append((bound, k))
    candidates.sort(reverse=True)
    best = None  # (-violation, sorted positions, right-hand side, row divisor)
    for bound, size in candidates:
        if best is not None and bound < -best[0]:
            break
        subset = order[:size]
        exact = _exact_cut(subset, completions, times, m)
        if exact is None:
            continue
        violation, rhs, scale = exact
        key = (-violation, tuple(sorted(subset)))
        if (best is None or key < best[:2]) and key[1] not in pooled:
            best = (*key, rhs, scale)
    return None if best is None else best[1:]


class LpSolution(NamedTuple):
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
    model.value = [1.0, -1.0] * (len(pairs) // 2)
    model.rhs = [0.0] * (len(pairs) // 2)
    return model


def solve_relaxation(
    instance: NetworkInstance,
    islands: IslandSet | None = None,
    precedence: PrecedenceGraph | None = None,
    crews: int | None = None,
) -> LpSolution:
    """Cutting-plane solve of the island-space relaxation (module docstring).

    Round 1, unsolved, is E = E-infinity; its most violated cut goes in with
    the seeds of `_single_crew_prefixes` it violates, each later round adds
    the most violated cut, and each round's model is solved cold, with HiGHS
    presolve off; a solve that fails (LpError) is solved again with presolve
    on.  Once no prefix is violated, the last vertex, lifted onto the
    precedence tree, is the answer and its objective the call's.  The loop
    is not taken if a retry fails too (but for the cut pool's
    CutPoolLimit, which is raised) or its last vertex's objective exceeds
    `_dual_bound` by more than GAP_TOLERANCE of it; then the loop of one cut
    per round runs with presolve on, and its answer or error is the call's.
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

    # not HiGHS's limit: a weight is a cost, in no row, and presolve-on solves scale
    # the costs; 1e15 is the boundary of valid weights (ROADMAP item 7)
    for iid, weight in islands.weights.items():
        if weight >= 1e15:
            raise ValidationError(
                f"island {iid!r} weight {weight!r} reaches the input's weight limit 1e+15")
    for lid, t in zip(lines, times):
        if t <= 1e-9:  # HiGHS drops it where it is an island's one term in a cut of total >= 1
            raise ValidationError(f"line {lid!r} repair time {t!r} is at most HiGHS's "
                                  "small matrix value 1e-09, which it drops from the load cuts")
        _limit(t, "line {!r} repair time", lid)  # its island E's lower bound
    # round 1, the least point, on the tree as it stands
    energization, harm = (instance.infinite_crew_energization if own
                          else sched.infinite_crew_energization(islands, precedence, p))
    least = [energization[iid] for iid in iids]
    cut_limit = 10 * max(1, len(p)) ** 2
    at_least = [least[k] for k in columns]
    first = _most_violated(at_least, times, m, ())  # round 1's cut: E-infinity is unsolved
    order = [] if first is None else seq_opt.optimal_island_sequence(islands, precedence)
    # its seeds: a right-hand side of 1e20 or more would be rejected, so such a seed is left out
    seeds = [(prefix, *exact[1:]) for prefix in _single_crew_prefixes(order, lines, of_line)
             if prefix != first[0] and (exact := _exact_cut(prefix, at_least, times, m))
             and exact[1] < 1e20]
    caps = _caps(order, islands, precedence, energization, m, times) if order else []

    def cutting_planes(seeded: Sequence[tuple[tuple[int, ...], float, float]], presolve: bool
                       ) -> tuple[LpModel, LpVertex, list[float], list[Cut]]:
        model = _base_model(instance, islands, precedence)
        cuts, pooled = [], set()  # the pool's subsets, by position in `lines`

        def solved() -> LpVertex:  # with presolve off, a failed solve once more on
            try:
                return simplex_solve(model, presolve)
            except LpError:
                if presolve:
                    raise
                return simplex_solve(model, True)

        def add_cut(subset: tuple[int, ...], rhs: float, scale: float) -> None:
            cut = Cut(frozenset(map(lines.__getitem__, subset)), rhs)
            if rhs >= 1e20:
                _limit(rhs, "right-hand side of the load cut on {}", sorted(cut.lines))
            coefficients = dict.fromkeys(sorted({columns[i] for i in subset}), 0.0)
            for i in subset:  # p(A & island) per island column
                coefficients[columns[i]] += times[i]
            model.add_row(list(coefficients), [v / scale for v in coefficients.values()],
                          rhs / scale)
            cuts.append(cut)
            pooled.add(subset)

        vertex = LpVertex(values=least, objective=harm)  # round 1, unsolved: no duals
        history, c, found = [harm], at_least, first
        for cut in () if found is None else (found, *seeded):  # round 1's cut, then its seeds
            add_cut(*cut)
        while found is not None:
            if len(pooled) > cut_limit:
                violation = _exact_cut(found[0], c, times, m)[0]  # not None: a found cut
                raise CutPoolLimit(
                    f"cut pool exceeded {cut_limit} (last violation {violation:.3e})")
            vertex = solved()
            history.append(vertex.objective)
            c = [vertex.values[k] for k in columns]
            found = _most_violated(c, times, m, pooled)
            if found is not None:
                add_cut(*found)
        return model, vertex, history, cuts

    # the first loop (seeded, presolve off) answers if it ends within GAP_TOLERANCE of
    # its dual bound; else the loop of one cut per round, presolve on, whatever its end
    try:
        model, vertex, history, cuts = cutting_planes(seeds, False)
        ub = vertex.objective
        taken = not caps or (  # no caps: E-infinity, unsolved, is optimal as it stands
            ub - _dual_bound(model, vertex, caps) <= GAP_TOLERANCE * max(1.0, abs(ub)))
    except CutPoolLimit:
        raise
    except LpError:  # a solve failed with presolve off and on
        taken = False
    if not taken:
        model, vertex, history, cuts = cutting_planes((), True)

    # the last vertex lifted top-down onto the tree (E-infinity is already), keys in id order
    lifted = sched.energize(dict(zip(iids, vertex.values)), precedence)
    energization = {iid: lifted[iid] for iid in iids}
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


def _single_crew_prefixes(island_order: Iterable[str], lines: list[str],
                          of_line: Mapping[str, str]) -> Iterable[tuple[int, ...]]:
    """The island-boundary prefixes of `island_order`, the optimal single-crew
    island order (`seq_opt.optimal_island_sequence`), as sorted positions in
    `lines`, the lines of positive time in id order; an island without such a
    line adds no prefix.  For one machine the optimal vertex is tight exactly
    on its sequence's prefix sets (Queyranne 1993), so these name most of the
    cuts the loop would otherwise find one round at a time."""
    members: dict[str, list[int]] = {}
    for i, lid in enumerate(lines):
        members.setdefault(of_line[lid], []).append(i)
    prefix: list[int] = []
    for iid in island_order:
        if iid in members:
            prefix = sorted(prefix + members[iid])
            yield tuple(prefix)


def _conversion_harm(island_order: Sequence[str], islands: IslandSet,
                     infinite: Mapping[str, float], m: int) -> float:
    """Harm of the conversion bound sum_i w_i (E1_i / m + (m - 1) / m E-infinity_i),
    E1 the single-crew energization along `island_order`, a linear extension of
    the precedence: the list schedule on m crews in that order meets it."""
    weights, done, terms = islands.weights, 0.0, []
    processing = {isl.id: isl.processing for isl in islands.islands}
    for iid in island_order:
        done += processing[iid]
        terms.append(weights[iid] * (done / m + (m - 1) / m * infinite[iid]))
    return math.fsum(terms)


def _caps(island_order: Sequence[str], islands: IslandSet, precedence: PrecedenceGraph,
          infinite: Mapping[str, float], m: int, times: Sequence[float]) -> list[float]:
    """The box min(1.5P, U / W_j) of the module docstring, by column, for n
    positive `times` and k islands: U / W_j is at most n + 2k + 7 roundings of
    nonnegative floats off exact (barring underflow), which U's factor covers."""
    below, parent = dict(islands.weights), precedence.parent  # W_j
    for iid in reversed(precedence.topological_order[1:]):  # children first
        below[parent[iid]] += below[iid]
    upper = _conversion_harm(island_order, islands, infinite, m) * (
        1.0 + 32 * (len(times) + len(below)) * 2.0**-53)
    box = 1.5 * math.fsum(times)
    return [min(box, upper / w) if w else box for w in below.values()]


def _dual_bound(model: LpModel, vertex: LpVertex, caps: Sequence[float]) -> float:
    """LB of the module docstring at the vertex's duals and the box `caps`,
    less an allowance.  With u = 2^-53, a product or an fsum is within u of
    its magnitude, so r_j, the fsum of w_j and of v y_k over column j's row
    entries v, is within e_j = u (|r_j| + P_j), P_j the summed magnitudes of
    the inexact products (v != +-1), and min(l_j r, u_j r) at the exact r is
    at least s_j (r_j - e_j), s_j = l_j where r_j >= 2e_j, else u_j.  The
    allowance 2u (|LB| + y.b + sum_j s_j (2|r_j| + P_j)) twice covers those
    and LB's roundings."""
    sums = [[w] for w in model.objective]  # r_j's terms
    inexact = [0.0] * len(sums)  # P_j
    rows = []  # y_k b_k
    start, index, value = model.start, model.index, model.value
    for k, dual in enumerate(vertex.row_duals):
        if dual > 0.0:
            rows.append(dual * model.rhs[k])
            for i in range(start[k], start[k + 1]):
                product = value[i] * dual
                sums[index[i]].append(-product)
                if abs(value[i]) != 1.0:
                    inexact[index[i]] += abs(product)
    terms, spread = rows[:], rows[:]  # LB's terms; the allowance's
    for column, lo, cap, error in zip(sums, model.lower, caps, inexact):
        r = math.fsum(column)
        slope = lo if r >= (abs(r) + error) * 2.0**-52 else cap
        terms.append(slope * r)
        spread.append(slope * (2.0 * abs(r) + error))
    bound = math.fsum(terms)
    return bound - 2.0**-52 * (abs(bound) + math.fsum(spread))


def _limit(value: float, what: str, *args: object) -> None:
    """Reject, naming `what.format(*args)`, a bound or right-hand side `value`
    of 1e20 or more, which HiGHS takes as infinite."""
    if value >= 1e20:
        raise ValidationError(f"{what.format(*args)} {value!r} reaches HiGHS's limit 1e+20")


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
        columns, values = model.index[row], model.value[row]
        if k < first_cut:
            ids = [model.variables[j][2:-1] for j in columns]  # E[child], E[parent]
            label = "{} after {}".format(*quoted(ids, " after "))
        else:
            ids = quoted(sorted(cuts[k - first_cut].lines), ", ", "{", "}")
            label = f"load cut on {{{', '.join(ids)}}}"
        out.append(f"  {terms(columns, values).replace('+ -', '- ')} >= {rhs:g}    # {label}")
    return "\n".join(out) + "\n"
