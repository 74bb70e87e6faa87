"""LP relaxation of the m-crew repair problem, solved by cutting planes.

Variables are per-line completion times C and per-island energization
times E, in that column order.  The model is held as the arrays HiGHS
receives: an objective and a lower-bound vector, and one dense `>=`
coefficient row per constraint.  Besides the base rows (E above every
member completion and above the parent island's E; C is bounded below
by its repair time), feasible completion vectors obey one load
inequality per line subset A:

    sum_{j in A} p_j C_j >= f(A) = (sum_A p_j)^2 / (2m) + sum_A p_j^2 / 2

The exponentially many subset rows are generated on demand, one row per
cut: prefixes of the solution sorted by completion and by midpoint
(C - p/2).  Midpoint prefixes are exact maximizers of the violation
whenever any subset is violated, which a threshold argument shows and the
test suite re-checks against full subset enumeration.  Separation scores
all prefixes at once from running sums and re-scores exactly (fsum) only
those whose score plus its rounding-error bound, 4(k+8) 2^-53 times the
sum of the magnitudes on a prefix of k lines, can still beat the best
exact violation, so it picks the cut the prefix-by-prefix fsum scan picks.

Each round is a cold solve of the whole model.  It goes straight to HiGHS
through SciPy's private binding (`scipy.optimize._highspy._core`, tested
with SciPy 1.17) with the matrix, bounds and options that
`linprog(method="highs-ds")` would pass, and falls back to `linprog` where
that binding cannot be imported; both give the same vertex bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Collection, Iterable, Mapping

import numpy as np

from gridrepair.model import IslandSet, NetworkInstance, PrecedenceGraph

LP_TOLERANCE = 1e-9
SEPARATION_TOLERANCE = 1e-7

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


@dataclass(frozen=True)
class Cut:
    """One generated load inequality: sum over `lines` of p_j C_j >= rhs."""

    lines: frozenset[str]
    rhs: float

    @staticmethod
    def for_subset(lines: Iterable[str], p: Mapping[str, float], m: int) -> "Cut":
        ids = frozenset(lines)
        if not ids:
            raise ValueError("cut subset must be non-empty")
        return Cut(lines=ids, rhs=load_rhs((p[j] for j in ids), m))


@dataclass
class LpModel:
    """Minimize objective . x subject to rows[k] . x >= rhs[k] and x >= lower.

    `variables` names the columns; names are used only to render the model.
    """

    variables: list[str]
    objective: np.ndarray
    lower: np.ndarray
    rows: list[np.ndarray] = field(default_factory=list)
    rhs: list[float] = field(default_factory=list)
    labels: list[str] = field(default_factory=list)

    def add_row(self, coeffs: np.ndarray, rhs: float, label: str = "") -> None:
        self.rows.append(coeffs)
        self.rhs.append(rhs)
        self.labels.append(label)


@dataclass(frozen=True)
class LpVertex:
    values: np.ndarray  # one entry per model variable, in column order
    objective: float


def simplex_solve(model: LpModel) -> LpVertex:
    """Solve the model to an optimal basic solution.

    Backed by the HiGHS dual simplex (deterministic pivoting with its own
    anti-cycling safeguards) at 1e-9 feasibility tolerances.  HiGHS gets
    the model directly where SciPy's binding allows it, else through
    `linprog`; both give the same vertex bit for bit.  SciPy is imported
    here, so commands that solve no LP never load it.
    """
    vertex = _solve_highs(model)
    return _solve_linprog(model) if vertex is None else vertex


def _solve_highs(model: LpModel) -> LpVertex | None:
    """Hand the model to SciPy's private HiGHS binding; None if it is missing.

    The one place that uses `scipy.optimize._highspy._core` (tested with
    SciPy 1.17).  It passes the HighsLp and options that
    `linprog(method="highs-ds")` builds: the CSC matrix of -rows with row
    bounds [-inf, -rhs], column bounds [lower, inf], presolve, dual simplex
    and output off, and it raises what `_solve_linprog` raises for each
    model status.
    """
    try:
        from scipy.optimize._highspy._core import (
            HighsDebugLevel,
            HighsLp,
            HighsModelStatus,
            HighsStatus,
            MatrixFormat,
            _Highs,
            kHighsInf,
            simplex_constants,
        )
    except ImportError:
        return None

    n, k = len(model.variables), len(model.rows)
    columns = -np.array(model.rows, dtype=float).reshape(k, n).T
    col, row = np.nonzero(columns)  # column-major, rows ascending within a column
    lower, upper = np.array(model.lower, dtype=float), -np.array(model.rhs, dtype=float)
    lp = HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = n
    lp.num_row_ = lp.a_matrix_.num_row_ = k
    lp.a_matrix_.format_ = MatrixFormat.kColwise
    lp.a_matrix_.start_ = np.concatenate(([0], np.cumsum(np.bincount(col, minlength=n))))
    lp.a_matrix_.index_ = row
    lp.a_matrix_.value_ = columns[col, row]
    lp.col_cost_ = np.array(model.objective, dtype=float)
    lp.col_lower_ = lower
    lp.col_upper_ = np.full(n, kHighsInf)
    lp.row_lower_ = np.full(k, -kHighsInf)
    lp.row_upper_ = upper

    highs = _Highs()
    for option, value in (
        ("presolve", "on"),
        ("solver", "simplex"),
        ("simplex_strategy", simplex_constants.SimplexStrategy.kSimplexStrategyDual),
        ("highs_debug_level", HighsDebugLevel.kHighsDebugLevelNone),
        ("primal_feasibility_tolerance", LP_TOLERANCE),
        ("dual_feasibility_tolerance", LP_TOLERANCE),
        ("output_flag", False),
        ("log_to_console", False),
    ):
        if highs.setOptionValue(option, value) != HighsStatus.kOk:
            raise LpError(f"HiGHS rejected option {option}={value!r}")
    if highs.passModel(lp) == HighsStatus.kError:
        raise Infeasible("HiGHS rejected the model")
    run_failed = highs.run() == HighsStatus.kError
    status = highs.getModelStatus()
    if run_failed or status != HighsModelStatus.kOptimal:
        failure = {
            HighsModelStatus.kInfeasible: Infeasible,
            HighsModelStatus.kModelError: Infeasible,
            HighsModelStatus.kUnbounded: Unbounded,
            HighsModelStatus.kIterationLimit: IterationLimit,
            HighsModelStatus.kTimeLimit: IterationLimit,
        }.get(status, LpError)
        raise failure(f"HiGHS model status {highs.modelStatusToString(status)}")
    solution = highs.getSolution()
    x = np.array(solution.col_value)
    fun = highs.getInfo().objective_function_value
    # linprog's own check of the returned point, at its tolerance
    tol = math.sqrt(LP_TOLERANCE) * 10
    if not (
        np.all(x >= lower - tol)
        and np.all(np.array(solution.row_value) <= upper + tol)
        and not math.isnan(fun)
    ):
        raise LpError("the optimal point HiGHS returned violates the constraints")
    return LpVertex(values=x, objective=float(fun))


def _solve_linprog(model: LpModel) -> LpVertex:
    """The same solve through public `linprog`: the fallback, and the tests' reference."""
    from scipy.optimize import linprog

    res = linprog(
        model.objective,
        A_ub=-np.array(model.rows) if model.rows else None,
        b_ub=-np.array(model.rhs) if model.rows else None,
        bounds=[(lo, None) for lo in model.lower.tolist()],
        method="highs-ds",
        options=_HIGHS_OPTIONS,
    )
    if res.status == 2:
        raise Infeasible(res.message)
    if res.status == 3:
        raise Unbounded(res.message)
    if res.status == 1:
        raise IterationLimit(res.message)
    if res.status != 0:
        raise LpError(res.message)
    return LpVertex(values=res.x, objective=float(res.fun))


def _violation(subset: list[str], c: Mapping[str, float], p: Mapping[str, float], m: int) -> float:
    return load_rhs((p[j] for j in subset), m) - math.fsum(p[j] * c[j] for j in subset)


def separate(
    c: Mapping[str, float],
    p: Mapping[str, float],
    m: int,
    pooled: Collection[frozenset[str]] = frozenset(),
) -> Cut | None:
    """Most violated load inequality at the point C, or None if all hold.

    Candidates are the prefixes of the midpoint order and the completion
    order; zero-time lines are left out, as they contribute nothing to
    either side.  When any subset is violated the returned prefix attains
    the exact maximum violation over all 2^n - 1 subsets.  Subsets in
    `pooled` are skipped: a pooled cut's residual violation is solver
    noise.  Ties in violation go to the smaller sorted id list.

    Every prefix is scored at once from prefix sums S = sum p, Q = sum p^2
    and W = sum p*C as S^2/2m + Q/2 - W.  On a prefix of k lines this
    score is within 4(k+8) 2^-53 (S^2/2m + Q/2 + sum |p*C|) of the exact
    (fsum) violation: k-1 roundings in each running sum, a few more in the
    products and in the exact value's own formula.
    Candidates are re-scored exactly from the highest upper bound down,
    until a bound falls below the best exact violation found, and the rule
    above is applied to the exact values.
    """
    lines = [j for j in sorted(p) if p[j] > 0]
    times = np.array([p[j] for j in lines])
    completions = np.array([c[j] for j in lines])
    # one row per order; stable sorts break ties by id, as `lines` is sorted
    keys = (completions - times / 2.0, completions)
    orders = np.array([np.argsort(key, kind="stable") for key in keys])
    pt = times[orders]
    ptc = pt * completions[orders]
    load = np.cumsum(pt, axis=1) ** 2 / (2.0 * m) + np.cumsum(pt * pt, axis=1) / 2.0
    slack = 4.0 * (np.arange(1, len(lines) + 1) + 8) * 2.0**-53
    upper = load - np.cumsum(ptc, axis=1) + slack * (load + np.cumsum(np.abs(ptc), axis=1))
    row, last = np.nonzero(upper > SEPARATION_TOLERANCE)
    bounds = upper[row, last]
    rank = np.argsort(-bounds, kind="stable")
    candidates = zip(bounds[rank].tolist(), row[rank].tolist(), (last[rank] + 1).tolist())
    orders = orders.tolist()
    best: tuple[float, list[str]] | None = None  # (-violation, sorted ids)
    for bound, which, size in candidates:
        if best is not None and bound < -best[0]:
            break
        subset = [lines[i] for i in orders[which][:size]]
        violation = _violation(subset, c, p, m)
        if violation <= SEPARATION_TOLERANCE:
            continue
        key = (-violation, sorted(subset))
        if (best is None or key < best) and frozenset(subset) not in pooled:
            best = key
    return None if best is None else Cut.for_subset(best[1], p, m)


@dataclass
class LpSolution:
    """Optimal point of the relaxation with its generated cut pool."""

    completion: dict[str, float]
    energization: dict[str, float]
    midpoints: dict[str, float]
    objective: float
    iterations: int
    cuts: list[Cut]
    objective_history: list[float]
    model: LpModel


def _base_model(
    instance: NetworkInstance,
    islands: IslandSet,
    precedence: PrecedenceGraph,
) -> LpModel:
    """Columns C by line id then E by island id; island-cover and precedence rows."""
    p = instance.repair_times()
    weights = islands.weights()
    lids, iids = sorted(p), sorted(weights)
    column = {f"C[{lid}]": k for k, lid in enumerate(lids)}
    column.update((f"E[{iid}]", len(lids) + k) for k, iid in enumerate(iids))
    n = len(column)
    model = LpModel(
        variables=list(column),
        objective=np.array([0.0] * len(lids) + [weights[iid] for iid in iids]),
        lower=np.array([p[lid] for lid in lids] + [0.0] * len(iids)),
    )

    def add(plus: str, minus: str, label: str) -> None:
        row = np.zeros(n)
        row[column[plus]], row[column[minus]] = 1.0, -1.0
        model.add_row(row, 0.0, label)

    for isl in islands.islands:
        for lid in isl.line_ids:
            add(f"E[{isl.id}]", f"C[{lid}]", f"island {isl.id} covers {lid}")
    for parent, child in precedence.edges():
        add(f"E[{child}]", f"E[{parent}]", f"{child} after {parent}")
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
    that point too.
    """
    islands = instance.islands if islands is None else islands
    precedence = instance.precedence if precedence is None else precedence
    m = instance.crews if crews is None else crews
    if m < 1:
        raise ValueError(f"crew count must be >= 1, got {m}")
    p = instance.repair_times()
    weights = islands.weights()

    lids = sorted(p)
    column = {lid: k for k, lid in enumerate(lids)}

    model = _base_model(instance, islands, precedence)
    pool: list[Cut] = []
    pooled: set[frozenset[str]] = set()

    def add_cut(cut: Cut) -> None:
        ids = sorted(cut.lines)
        row = np.zeros(len(model.variables))
        row[[column[lid] for lid in ids]] = [p[lid] for lid in ids]
        model.add_row(row, cut.rhs, f"load cut on {{{', '.join(ids)}}}")
        pool.append(cut)
        pooled.add(cut.lines)

    for lid in lids:
        if p[lid] > 0:
            add_cut(Cut.for_subset([lid], p, m))
    cut_limit = 10 * max(1, len(p)) ** 2
    iterations = 0
    history: list[float] = []

    while True:
        vertex = simplex_solve(model)
        iterations += 1
        history.append(vertex.objective)
        cvals = dict(zip(lids, vertex.values[: len(lids)].tolist()))
        cut = separate(cvals, p, m, pooled)
        if cut is None:
            canon_vertex = _canonical_pass(model, vertex.objective)
            cvals = dict(zip(lids, canon_vertex.values[: len(lids)].tolist()))
            cut = separate(cvals, p, m, pooled)
        if cut is not None:
            add_cut(cut)
            if len(pool) > cut_limit:
                violation = _violation(sorted(cut.lines), cvals, p, m)
                raise IterationLimit(
                    f"cut pool exceeded {cut_limit} (last violation {violation:.3e})"
                )
            continue

        evals = dict(zip(sorted(weights), canon_vertex.values[len(lids) :].tolist()))
        solution = LpSolution(
            completion=cvals,
            energization=evals,
            midpoints={},
            objective=vertex.objective,
            iterations=iterations,
            cuts=pool,
            objective_history=history,
            model=model,
        )
        solution.midpoints = lp_midpoints(solution, p)
        return solution


def _canonical_pass(model: LpModel, optimum: float) -> LpVertex:
    """Re-minimize sum of all variables with the objective capped at its optimum."""
    cap = optimum + max(LP_TOLERANCE, LP_TOLERANCE * abs(optimum))
    # fresh row lists: the cap row must not reach the model the loop grows
    canon = LpModel(
        variables=model.variables,
        objective=np.ones(len(model.variables)),
        lower=model.lower,
        rows=list(model.rows),
        rhs=list(model.rhs),
        labels=list(model.labels),
    )
    canon.add_row(-model.objective, -cap, "objective cap")
    return simplex_solve(canon)


def lp_midpoints(solution: LpSolution, p: Mapping[str, float]) -> dict[str, float]:
    """Midpoints C - p/2 of the LP completions.

    Also re-checks the midpoint form of every pooled cut,
    sum_A p_j M_j >= (sum_A p_j)^2 / (2m), which is algebraically the cut
    itself and must hold at any feasible point.
    """
    mids = {lid: solution.completion[lid] - p[lid] / 2.0 for lid in solution.completion}
    for cut in solution.cuts:
        lhs = math.fsum(p[j] * mids[j] for j in cut.lines)
        square = cut.rhs - math.fsum(p[j] * p[j] for j in cut.lines) / 2.0
        if lhs < square - 1e-6 * max(1.0, abs(square)):
            raise LpError(
                f"midpoint form violated on {sorted(cut.lines)}: {lhs} < {square}"
            )
    return mids


def format_model(model: LpModel) -> str:
    """Plain-text rendering of the final model for audit."""

    def terms(coeffs: np.ndarray) -> list[str]:
        named = sorted((model.variables[k], coeffs[k]) for k in np.flatnonzero(coeffs))
        return [f"{coef:g}*{v}" for v, coef in named]

    out = ["minimize", "  " + (" + ".join(terms(model.objective)) or "0"), "subject to"]
    for v, lo in zip(model.variables, model.lower.tolist()):
        out.append(f"  {v} >= {lo:g}")
    for row, rhs, label in zip(model.rows, model.rhs, model.labels):
        line = f"  {' + '.join(terms(row)).replace('+ -', '- ')} >= {rhs:g}"
        if label:
            line += f"    # {label}"
        out.append(line)
    return "\n".join(out) + "\n"
