"""LP relaxation of the m-crew repair problem, solved by cutting planes.

Variables are per-line completion times C and per-island energization
times E, in that column order.  The model is held as an objective and a
lower-bound vector and, for the `>=` rows, a row-wise sparse matrix in
lists that only grow, one row per constraint.  Besides the base rows (E
above every member completion and above the parent island's E; C is
bounded below by its repair time), feasible completion vectors obey one
load inequality per line subset A:

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

The loop runs on integer column indices.  One relaxation owns one HiGHS
instance, its options set once, and each round passes it the whole model
afresh, the row-wise lists as they stand: a cold solve that keeps no
basis.  It goes straight to HiGHS through SciPy's private binding
(`scipy.optimize._highspy._core`, tested with SciPy 1.17) with the matrix,
bounds and options that `linprog(method="highs-ds")` would pass, and falls
back to `linprog` where that binding cannot be imported; both give the
same vertex bit for bit.  NumPy and SciPy are imported by the functions
that use them, so commands that solve no LP load neither.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Collection, Iterable, Mapping, Sequence

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
    """Minimize objective . x subject to row k . x >= rhs[k] and x >= lower.

    The rows are held row-wise in the `<=` form HiGHS is given, negated: row k
    has the columns index[start[k]:start[k + 1]] with the coefficients minus
    value[start[k]:start[k + 1]].  `variables` and `labels` name columns and
    rows only to render the model; a None label marks a load cut.
    """

    variables: list[str]
    objective: np.ndarray
    lower: np.ndarray
    start: list[int] = field(default_factory=lambda: [0])
    index: list[int] = field(default_factory=list)
    value: list[float] = field(default_factory=list)
    rhs: list[float] = field(default_factory=list)
    labels: list[str | None] = field(default_factory=list)

    def add_row(self, columns: np.ndarray, values: np.ndarray, rhs: float, label="") -> None:
        self.index += columns.tolist()
        self.value += (-values).tolist()
        self.start.append(len(self.index))
        self.rhs.append(rhs)
        self.labels.append(label)


@dataclass(frozen=True)
class LpVertex:
    values: np.ndarray  # one entry per model variable, in column order
    objective: float


def simplex_solve(model: LpModel, highs=None) -> LpVertex:
    """Solve the model to an optimal basic solution.

    Backed by the HiGHS dual simplex (deterministic pivoting with its own
    anti-cycling safeguards) at 1e-9 feasibility tolerances.  HiGHS gets
    the model directly where SciPy's binding allows it, on `highs` if given,
    else through `linprog`; both give the same vertex bit for bit.
    """
    vertex = _solve_highs(model, highs)
    return _solve_linprog(model) if vertex is None else vertex


def _new_highs():
    """A HiGHS instance with the options `linprog(method="highs-ds")` sets
    (presolve, dual simplex, the two 1e-9 tolerances, output off); None
    where SciPy's private binding cannot be imported."""
    try:
        from scipy.optimize._highspy import _core as hs
    except ImportError:
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


def _solve_highs(model: LpModel, highs=None) -> LpVertex | None:
    """Solve on `highs` (or a fresh instance) through SciPy's private binding;
    None if it is missing.  `passModel` drops the model and basis it held.

    With `_new_highs`, the one user of `scipy.optimize._highspy._core` (tested
    with SciPy 1.17).  It passes the HighsLp `linprog(method="highs-ds")`
    builds, the matrix of -rows with row bounds [-inf, -rhs] and column
    bounds [lower, inf], and raises what `_solve_linprog` raises per status.
    The matrix goes row-wise; HiGHS stores it column-wise, rows ascending in
    each column, which is the CSC matrix linprog passes.
    """
    import numpy as np
    highs = _new_highs() if highs is None else highs
    if highs is None:
        return None
    from scipy.optimize._highspy import _core as hs

    n, k = len(model.variables), len(model.rhs)
    lower, upper = np.array(model.lower, dtype=float), -np.array(model.rhs, dtype=float)
    lp = hs.HighsLp()  # filled with lists: the binding converts them faster than arrays
    matrix = lp.a_matrix_
    lp.num_col_, lp.num_row_ = matrix.num_col_, matrix.num_row_ = n, k
    matrix.format_ = hs.MatrixFormat.kRowwise
    matrix.start_, matrix.index_, matrix.value_ = model.start, model.index, model.value
    lp.col_cost_ = model.objective.tolist()
    lp.col_lower_ = lower.tolist()
    lp.col_upper_ = [hs.kHighsInf] * n
    lp.row_lower_ = [-hs.kHighsInf] * k
    lp.row_upper_ = upper.tolist()

    if highs.passModel(lp) == hs.HighsStatus.kError:
        raise Infeasible("HiGHS rejected the model")
    run_failed = highs.run() == hs.HighsStatus.kError
    status = highs.getModelStatus()
    if run_failed or status != hs.HighsModelStatus.kOptimal:
        known = hs.HighsModelStatus
        failure = {known.kInfeasible: Infeasible, known.kModelError: Infeasible,
                   known.kUnbounded: Unbounded, known.kIterationLimit: IterationLimit,
                   known.kTimeLimit: IterationLimit}.get(status, LpError)
        raise failure(f"HiGHS model status {highs.modelStatusToString(status)}")
    solution = highs.getSolution()
    x = np.array(solution.col_value)
    fun = highs.getInfo().objective_function_value
    # linprog's own check of the returned point, at its tolerance
    tol = math.sqrt(LP_TOLERANCE) * 10
    row_value = np.array(solution.row_value)
    if not (np.all(x >= lower - tol) and np.all(row_value <= upper + tol) and not math.isnan(fun)):
        raise LpError("the optimal point HiGHS returned violates the constraints")
    return LpVertex(values=x, objective=float(fun))


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
        bounds=[(lo, None) for lo in model.lower.tolist()],
        method="highs-ds",
        options=_HIGHS_OPTIONS,
    )
    if res.status != 0:
        raise {1: IterationLimit, 2: Infeasible, 3: Unbounded}.get(res.status, LpError)(res.message)
    return LpVertex(values=res.x, objective=float(res.fun))


def _violation(subset: Iterable, c: Mapping | Sequence, p: Mapping | Sequence, m: int) -> float:
    return load_rhs((p[j] for j in subset), m) - math.fsum(p[j] * c[j] for j in subset)


def separate(c: Mapping[str, float], p: Mapping[str, float], m: int,
             pooled: Collection[frozenset[str]] = frozenset()) -> Cut | None:
    """Most violated load inequality at the point C, or None if all hold.

    Candidates are the prefixes of the midpoint order and the completion
    order; zero-time lines are left out, as they contribute nothing to
    either side.  When any subset is violated the returned prefix attains
    the exact maximum violation over all 2^n - 1 subsets.  Subsets in
    `pooled` are skipped: a pooled cut's residual violation is solver
    noise.  Ties in violation go to the smaller sorted id list.
    """
    import numpy as np
    lines = [j for j in sorted(p) if p[j] > 0]
    index = {j: k for k, j in enumerate(lines)}
    completions, times = (np.array([x[j] for j in lines], dtype=float) for x in (c, p))
    pooled = {tuple(sorted(index[j] for j in s)) for s in pooled if s.issubset(index)}
    subset = _most_violated(completions, times, m, pooled)
    return None if subset is None else Cut.for_subset([lines[i] for i in subset], p, m)


def _most_violated(completions: np.ndarray, times: np.ndarray, m: int,
                   pooled: Collection[tuple[int, ...]]) -> tuple[int, ...] | None:
    """`separate` on the positive `times` of the lines in id order and their
    `completions`: the sorted positions of the cut, or None.

    Every prefix is scored at once from prefix sums S = sum p, Q = sum p^2
    and W = sum p*C as S^2/2m + Q/2 - W.  On a prefix of k lines this
    score is within 4(k+8) 2^-53 (S^2/2m + Q/2 + sum |p*C|) of the exact
    (fsum) violation: k-1 roundings in each running sum, a few more in the
    products and in the exact value's own formula.
    Candidates are re-scored exactly from the highest upper bound down,
    until a bound falls below the best exact violation found, and the rule
    of `separate` is applied to the exact values.
    """
    import numpy as np
    # one row per order; stable sorts break ties by position, that is by id
    keys = (completions - times / 2.0, completions)
    orders = np.array([np.argsort(key, kind="stable") for key in keys])
    pt = times[orders]
    ptc = pt * completions[orders]
    load = np.cumsum(pt, axis=1) ** 2 / (2.0 * m) + np.cumsum(pt * pt, axis=1) / 2.0
    slack = 4.0 * (np.arange(1, len(times) + 1) + 8) * 2.0**-53
    upper = load - np.cumsum(ptc, axis=1) + slack * (load + np.cumsum(np.abs(ptc), axis=1))
    row, last = np.nonzero(upper > SEPARATION_TOLERANCE)
    bounds = upper[row, last]
    rank = np.argsort(-bounds, kind="stable")
    candidates = zip(bounds[rank].tolist(), row[rank].tolist(), (last[rank] + 1).tolist())
    orders, c, p = orders.tolist(), completions.tolist(), times.tolist()
    best: tuple[float, tuple[int, ...]] | None = None  # (-violation, sorted positions)
    for bound, which, size in candidates:
        if best is not None and bound < -best[0]:
            break
        subset = orders[which][:size]
        violation = _violation(subset, c, p, m)
        if violation <= SEPARATION_TOLERANCE:
            continue
        key = (-violation, tuple(sorted(subset)))
        if (best is None or key < best) and key[1] not in pooled:
            best = key
    return None if best is None else best[1]


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
    instance: NetworkInstance, islands: IslandSet, precedence: PrecedenceGraph
) -> LpModel:
    """Columns C by line id then E by island id; island-cover and precedence rows."""
    import numpy as np
    p, weights = instance.repair_times(), islands.weights
    lids, iids = sorted(p), list(weights)  # islands are in id order
    line_col = {lid: k for k, lid in enumerate(lids)}
    island_col = {iid: len(lids) + k for k, iid in enumerate(iids)}
    model = LpModel(
        variables=[f"C[{lid}]" for lid in lids] + [f"E[{iid}]" for iid in iids],
        objective=np.array([0.0] * len(lids) + [weights[iid] for iid in iids]),
        lower=np.array([p[lid] for lid in lids] + [0.0] * len(iids)),
    )
    pairs, labels = [], []  # (column +1, column -1) per row
    for isl in islands.islands:
        for lid in isl.line_ids:
            pairs += (island_col[isl.id], line_col[lid])
            labels.append(f"island {isl.id} covers {lid}")
    for parent, child in precedence.edges():
        pairs += (island_col[child], island_col[parent])
        labels.append(f"{child} after {parent}")
    model.start, model.index = list(range(0, len(pairs) + 1, 2)), pairs
    model.value = [-1.0, 1.0] * len(labels)  # negated, as the model holds its rows
    model.rhs, model.labels = [0.0] * len(labels), labels
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
    import numpy as np
    islands = instance.islands if islands is None else islands
    precedence = instance.precedence if precedence is None else precedence
    m = instance.crews if crews is None else crews
    if m < 1:
        raise ValueError(f"crew count must be >= 1, got {m}")
    p = instance.repair_times()
    lids, n = sorted(p), len(p)
    # lines with p > 0, by position: their ids, C columns and times
    names = [lid for lid in lids if p[lid] > 0]
    columns = np.array([k for k, lid in enumerate(lids) if p[lid] > 0], dtype=np.intp)
    times = np.array([p[lid] for lid in names], dtype=float)

    model = _base_model(instance, islands, precedence)
    highs = _new_highs()
    pool: list[Cut] = []
    pooled: set[tuple[int, ...]] = set()

    def add_cut(subset: tuple[int, ...]) -> None:
        cut = Cut.for_subset([names[i] for i in subset], p, m)
        positions = np.array(subset, dtype=np.intp)
        model.add_row(columns[positions], times[positions], cut.rhs, None)  # a load cut
        pool.append(cut)
        pooled.add(subset)

    for i in range(len(names)):
        add_cut((i,))
    cut_limit = 10 * max(1, len(p)) ** 2
    iterations = 0
    history: list[float] = []

    while True:
        vertex = simplex_solve(model, highs)
        iterations += 1
        history.append(vertex.objective)
        c = vertex.values[:n]
        subset = _most_violated(c[columns], times, m, pooled)
        if subset is None:
            canon_vertex = _canonical_pass(model, vertex.objective, highs)
            c = canon_vertex.values[:n]
            subset = _most_violated(c[columns], times, m, pooled)
        if subset is not None:
            add_cut(subset)
            if len(pool) > cut_limit:
                violation = _violation(subset, c[columns].tolist(), times.tolist(), m)
                raise IterationLimit(
                    f"cut pool exceeded {cut_limit} (last violation {violation:.3e})"
                )
            continue

        solution = LpSolution(
            completion=dict(zip(lids, c.tolist())),
            energization=dict(zip(islands.weights, canon_vertex.values[n:].tolist())),
            midpoints={},
            objective=vertex.objective,
            iterations=iterations,
            cuts=pool,
            objective_history=history,
            model=model,
        )
        solution.midpoints = lp_midpoints(solution, p)
        return solution


def _canonical_pass(model: LpModel, optimum: float, highs) -> LpVertex:
    """Re-minimize sum of all variables with the objective capped at its optimum."""
    import numpy as np
    cap = optimum + max(LP_TOLERANCE, LP_TOLERANCE * abs(optimum))
    weighted = np.flatnonzero(model.objective)
    # the cap row -objective >= -cap goes on copies: the loop's model must not get it
    canon = replace(model, objective=np.ones(len(model.variables)), start=model.start[:],
                    index=model.index[:], value=model.value[:], rhs=model.rhs[:],
                    labels=model.labels[:])
    canon.add_row(weighted, -model.objective[weighted], -cap, "objective cap")
    return simplex_solve(canon, highs)


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

    def terms(columns: list[int], values: Iterable[float]) -> str:
        named = sorted(zip((model.variables[k] for k in columns), values))
        return " + ".join(f"{coef:g}*{v}" for v, coef in named)

    weighted = model.objective.nonzero()[0].tolist()
    out = ["minimize", "  " + (terms(weighted, model.objective[weighted]) or "0"), "subject to"]
    for v, lo in zip(model.variables, model.lower.tolist()):
        out.append(f"  {v} >= {lo:g}")
    for k, (rhs, label) in enumerate(zip(model.rhs, model.labels)):
        row = slice(model.start[k], model.start[k + 1])
        columns, values = model.index[row], [-v for v in model.value[row]]
        if label is None:  # a load cut, on columns named C[id]
            ids = sorted(model.variables[j][2:-1] for j in columns)
            label = f"load cut on {{{', '.join(ids)}}}"
        line = f"  {terms(columns, values).replace('+ -', '- ')} >= {rhs:g}"
        out.append(line + (f"    # {label}" if label else ""))
    return "\n".join(out) + "\n"
