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
round adds one cut.  Once no prefix is violated, the vertex is the answer
where it is the model's one optimal point: where it is dual-nondegenerate,
with a row dual or reduced cost beyond LP_TOLERANCE on each of its n
nonbasic variables (`_unique_optimum`; Bertsimas & Tsitsiklis 1997, 3.2).
Elsewhere, at a degenerate optimum such as an island of weight 0 whose E is
free, a canonical pass re-minimizes sum(E) with the objective capped at its
optimum, so the point does not depend on the vertex HiGHS lands on, and
separation is re-checked at that point.  Separation scores all
prefixes in one pass of running sums and re-scores exactly (fsum), once
each, only those whose score plus its rounding-error bound, 4(k+8) 2^-53
times the sum of the magnitudes on a prefix of k lines, can still beat the
best exact violation, so it picks the cut the prefix-by-prefix fsum scan
picks.

The loop runs on integer column indices and plain Python floats.  One
HiGHS instance per process solves every model, and each round passes it
the whole model afresh: a cold solve that keeps no basis.  Presolve is
off: on models of a few columns and rows it is most of a solve.  A loop
is run again from round 1 when a solve fails, and when its last vertex is
not optimal: with presolve off, on times that span about seven orders of
magnitude or more, HiGHS can return the duals of an optimal basis with
primal values that miss it, a row it holds tight left slack, and an
objective above the model's optimum by the complementary-slackness gap
(`_slackness_gap`).  It is also run again when its objective exceeds the
harm of a schedule, the conversion bound of the list schedule in the
single-crew order (`_conversion_harm`), which no relaxation can: on such
times a seeded model can end there with no gap.  A seeded loop runs again
without seeds, one cut per round, with presolve off, and that loop runs
again with presolve on, HiGHS's default: the loops as they ran before
round 1 was seeded, bit for bit.  Presolve is off again after the last
run, whatever its end.  The solve goes straight to HiGHS through SciPy's
private binding (`scipy.optimize._highspy._core`, SciPy 1.15 or later,
tested with 1.17) with the matrix, bounds and options that SciPy's public
`highs-ds` method would pass, and gives its vertex and duals bit for bit
(the tests' reference solve checks this).  The binding is loaded from its
file, without the half second of importing `scipy.optimize`, and only by
the functions that solve; where that fails it is imported the standard
way, and a SciPy without it raises ImportError.  The solve loads no NumPy:
it passes the binding lists and reads back only lists.
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
from gridrepair import seq_opt
from gridrepair.model import IslandSet, NetworkInstance, PrecedenceGraph, ValidationError

LP_TOLERANCE = 1e-9
SEPARATION_TOLERANCE = 1e-10  # relative to the right-hand side of the prefix's cut
SLACKNESS_TOLERANCE = 1e-13  # relative to the objective; see `_slackness_gap`
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
    row_duals: Sequence[float] = ()  # one per row, HiGHS's sign; nonzero only on a tight row
    reduced_costs: Sequence[float] = ()  # one per column; nonzero only at its lower bound


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


def _set_presolve(on: bool) -> None:
    """Turn HiGHS presolve on or off for every later solve on the shared instance."""
    value = "on" if on else "off"
    if _shared_highs().setOptionValue("presolve", value) != _binding().HighsStatus.kOk:
        raise LpError(f"HiGHS rejected option presolve={value!r}")


def simplex_solve(model: LpModel) -> LpVertex:
    """Solve the model to an optimal basic solution.

    Backed by the HiGHS dual simplex (deterministic pivoting with its own
    anti-cycling safeguards) at 1e-9 feasibility tolerances, with presolve
    off unless `_set_presolve` turned it on, on the process's shared
    instance; `passModel` drops the model and basis it held.  HiGHS gets
    the HighsLp SciPy's `highs-ds` method builds: the -rows with row bounds
    [-inf, -rhs], passed row-wise (HiGHS stores them column-wise, rows
    ascending in each column: the CSC matrix SciPy passes), and column
    bounds [lower, inf].  The binding's `col_cost_` setter takes a NumPy
    array, so the HighsLp has n zero costs HiGHS sized (`addVar`, once per
    n) and `changeColCost` sets the nonzero ones.
    """
    highs, hs = _shared_highs(), _binding()
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
    # SciPy's own check of the returned point, at its tolerance; NaN fails it
    tol = math.sqrt(LP_TOLERANCE) * 10
    if not (all(v >= lo - tol for v, lo in zip(x, lower))
            and all(v <= up + tol for v, up in zip(solution.row_value, upper))
            and not math.isnan(fun)):
        raise LpError("the optimal point HiGHS returned violates the constraints")
    return LpVertex(values=x, objective=fun, row_duals=solution.row_dual,
                    reduced_costs=solution.col_dual)


def _slackness_gap(model: LpModel, vertex: LpVertex) -> float:
    """The complementary-slackness gap of the vertex: |dual| times slack
    summed over the rows, plus |reduced cost| times the distance from the
    lower bound summed over the columns; 0 for a vertex without duals.

    At an optimal vertex every product is zero but for rounding.  Where
    HiGHS holds a row tight in its duals but leaves it slack in its values,
    the gap is how far the objective lies above the model's optimum.  The
    presolve-on loop's last vertices read at most 7e-14 of their objective
    on a sweep of 53136 mixed-magnitude solved calls, hence
    SLACKNESS_TOLERANCE."""
    x, start, index, value = vertex.values, model.start, model.index, model.value
    terms = [abs(y) * (math.fsum([-value[i] * x[index[i]] for i in range(start[k], start[k + 1])])
                       - model.rhs[k])
             for k, y in enumerate(vertex.row_duals) if y]
    terms += [abs(d) * (v - lo) for d, v, lo in zip(vertex.reduced_costs, x, model.lower) if d]
    return math.fsum(terms)


def _violation(subset: Iterable, c: Mapping | Sequence, p: Mapping | Sequence, m: int) -> float:
    return load_rhs((p[j] for j in subset), m) - math.fsum(p[j] * c[j] for j in subset)


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
    total = math.fsum(t)  # load_rhs, and the divisor, on the same sums
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

    Round 1, unsolved, is E = E-infinity; its most violated cut goes in with
    the seeds of `_single_crew_prefixes` it violates, each later round adds
    the most violated cut, and each round's model is solved cold.  The last
    vertex is the answer where `_unique_optimum` holds; else the canonical
    pass's point is, and separation is re-checked on it.  Every solve
    runs with HiGHS presolve off.  A loop is not taken if a solve fails
    (LpError, but for the cut pool's CutPoolLimit, which is raised), its last
    vertex's `_slackness_gap` exceeds SLACKNESS_TOLERANCE of its objective or
    the objective exceeds `_conversion_harm`; then the loop runs again from
    round 1 without seeds, one cut per round, first with presolve off (where
    the first loop had seeds) and then with presolve on, and that last run's
    answer or error is the call's.
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
    # round 1, the least point: canonical as it stands
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
    # no relaxation is above the harm of a schedule: that of the list schedule in `order`
    ceiling = (_conversion_harm(order, islands, energization, m) * (1.0 + 1e-12) if order
               else math.inf)

    def cutting_planes(seeded: Sequence[tuple[tuple[int, ...], float, float]]
                       ) -> tuple[LpModel, LpVertex, list[float], list[float], list[Cut]]:
        model = _base_model(instance, islands, precedence)
        cuts, pooled = [], set()  # the pool's subsets, by position in `lines`

        def add_cut(subset: tuple[int, ...], rhs: float, scale: float) -> None:
            cut = Cut(frozenset(map(lines.__getitem__, subset)), rhs)
            if rhs >= 1e20:
                _limit(rhs, 1e20, "right-hand side of the load cut on {}", sorted(cut.lines))
            coefficients = dict.fromkeys(sorted({columns[i] for i in subset}), 0.0)
            for i in subset:  # p(A & island) per island column
                coefficients[columns[i]] += times[i]
            model.add_row(list(coefficients), [v / scale for v in coefficients.values()],
                          rhs / scale)
            cuts.append(cut)
            pooled.add(subset)

        vertex = LpVertex(values=least, objective=harm)  # round 1, unsolved: no duals
        x, history, c, found = least, [harm], at_least, first
        for cut in () if found is None else (found, *seeded):  # round 1's cut, then its seeds
            add_cut(*cut)
        while found is not None:
            if len(pooled) > cut_limit:
                violation = _violation(found[0], c, times, m)
                raise CutPoolLimit(
                    f"cut pool exceeded {cut_limit} (last violation {violation:.3e})")
            vertex = simplex_solve(model)
            history.append(vertex.objective)
            x = vertex.values
            c = [x[k] for k in columns]
            found = _most_violated(c, times, m, pooled)
            if found is None and not _unique_optimum(vertex, len(model.variables)):
                x = _canonical_pass(model, vertex.objective).values
                c = [x[k] for k in columns]
                found = _most_violated(c, times, m, pooled)
            if found is not None:
                add_cut(*found)
        return model, vertex, x, history, cuts

    # the seeded loop, then the loop of one cut per round with presolve off: the
    # first that solves, leaves no gap and stays under the ceiling gives the answer
    for pool in ([seeds] if seeds else []) + [()]:
        try:
            model, vertex, x, history, cuts = cutting_planes(pool)
        except CutPoolLimit:
            raise
        except LpError:  # a solve failed
            continue
        if (_slackness_gap(model, vertex) <= SLACKNESS_TOLERANCE * max(1.0, abs(vertex.objective))
                and history[-1] <= ceiling):
            break
    else:  # else the loop of one cut per round with presolve on, whatever its end
        _set_presolve(True)
        try:
            model, vertex, x, history, cuts = cutting_planes(())
        finally:
            _set_presolve(False)

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
    """Harm of the bound sum_i w_i (E1_i / m + (m - 1) / m E-infinity_i), with
    E1 the single-crew energization along `island_order`, a linear extension
    of the precedence: each island energizes by then in the list schedule on
    m crews in that order (the conversion bound), so the optimum is no
    higher."""
    weights, done, terms = islands.weights, 0.0, []
    processing = {isl.id: isl.processing for isl in islands.islands}
    for iid in island_order:
        done += processing[iid]
        terms.append(weights[iid] * (done / m + (m - 1) / m * infinite[iid]))
    return math.fsum(terms)


def _limit(value: float, limit: float, what: str, *args: object) -> None:
    """Reject, naming `what.format(*args)`, a `value` that reaches `limit`: HiGHS
    cannot take a matrix value of 1e15 or more, nor a bound of 1e20 or more."""
    if value >= limit:
        raise ValidationError(f"{what.format(*args)} {value!r} reaches HiGHS's limit {limit:g}")


def _unique_optimum(vertex: LpVertex, columns: int) -> bool:
    """Whether the vertex is dual-nondegenerate: exactly `columns` of its row
    duals and reduced costs, one per nonbasic variable, exceed LP_TOLERANCE,
    HiGHS's dual feasibility tolerance, in magnitude.  Then no other point is
    optimal (Bertsimas & Tsitsiklis 1997, section 3.2)."""
    return sum(abs(d) > LP_TOLERANCE for d in (*vertex.row_duals, *vertex.reduced_costs)) == columns


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
