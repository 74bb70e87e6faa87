"""LP relaxation of the m-crew repair problem, solved by cutting planes.

Variables are per-line completion times C and per-island energization
times E.  Besides the base rows (C bounded below by repair time, E above
every member completion and above the parent island's E), feasible
completion vectors obey one load inequality per line subset A:

    sum_{j in A} p_j C_j >= f(A) = (sum_A p_j)^2 / (2m) + sum_A p_j^2 / 2

The exponentially many subset rows are generated on demand: prefix
candidates of the solution sorted by completion and by midpoint
(C - p/2).  Midpoint prefixes are exact maximizers of the violation
whenever any subset is violated, which a threshold argument shows and the
test suite re-checks against full subset enumeration.
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


@dataclass(frozen=True)
class LinearRow:
    coeffs: dict[str, float]
    sense: str  # ">=" or "<="
    rhs: float
    label: str = ""


@dataclass
class LpModel:
    """A small dense LP: minimize objective . x subject to rows and bounds."""

    variables: list[str]
    objective: dict[str, float]
    rows: list[LinearRow] = field(default_factory=list)
    lower: dict[str, float] = field(default_factory=dict)  # default 0
    upper: dict[str, float] = field(default_factory=dict)  # default +inf


@dataclass(frozen=True)
class LpVertex:
    values: dict[str, float]
    objective: float


def simplex_solve(model: LpModel) -> LpVertex:
    """Solve the model to an optimal basic solution.

    Backed by the HiGHS dual simplex (deterministic pivoting with its own
    anti-cycling safeguards) at 1e-9 feasibility tolerances.  SciPy is
    imported here, so commands that solve no LP never load it.
    """
    from scipy.optimize import linprog

    index = {v: k for k, v in enumerate(model.variables)}
    n = len(model.variables)
    c = np.zeros(n)
    for v, coef in model.objective.items():
        c[index[v]] = coef
    rows, rhs = [], []
    for row in model.rows:
        arr = np.zeros(n)
        for v, coef in row.coeffs.items():
            arr[index[v]] = coef
        if row.sense == ">=":
            arr, b = -arr, -row.rhs
        elif row.sense == "<=":
            b = row.rhs
        else:
            raise ValueError(f"unknown sense {row.sense!r}")
        rows.append(arr)
        rhs.append(b)
    bounds = [
        (model.lower.get(v, 0.0), model.upper.get(v, None)) for v in model.variables
    ]
    res = linprog(
        c,
        A_ub=np.array(rows) if rows else None,
        b_ub=np.array(rhs) if rows else None,
        bounds=bounds,
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
    values = {v: float(res.x[index[v]]) for v in model.variables}
    return LpVertex(values=values, objective=float(res.fun))


def _violation(subset: list[str], c: Mapping[str, float], p: Mapping[str, float], m: int) -> float:
    return load_rhs((p[j] for j in subset), m) - math.fsum(p[j] * c[j] for j in subset)


def _prefix_candidates(
    c: Mapping[str, float], p: Mapping[str, float], m: int
) -> list[tuple[float, frozenset[str]]]:
    """Violations of every prefix of the midpoint order and the completion order.

    Zero-time lines are left out: they contribute nothing to either side.
    Candidates are deduplicated, most violated first.
    """
    lines = [j for j in sorted(p) if p[j] > 0]
    if not lines:
        return []
    orders = (
        sorted(lines, key=lambda j: (c[j] - p[j] / 2.0, j)),
        sorted(lines, key=lambda j: (c[j], j)),
    )
    seen: dict[frozenset[str], float] = {}
    ranked: list[tuple[float, frozenset[str]]] = []
    for order in orders:
        for k in range(1, len(order) + 1):
            subset = frozenset(order[:k])
            if subset in seen:
                continue
            v = _violation(order[:k], c, p, m)
            seen[subset] = v
            ranked.append((v, subset))
    ranked.sort(key=lambda item: (-item[0], sorted(item[1])))
    return ranked


def separate(
    c: Mapping[str, float],
    p: Mapping[str, float],
    m: int,
    pooled: Collection[frozenset[str]] = frozenset(),
) -> Cut | None:
    """Most violated load inequality at the point C, or None if all hold.

    When any subset is violated the returned prefix attains the exact
    maximum violation over all 2^n - 1 subsets.  Subsets in `pooled` are
    skipped: a pooled cut's residual violation is solver noise.
    """
    for violation, subset in _prefix_candidates(c, p, m):
        if violation <= SEPARATION_TOLERANCE:
            return None
        if subset not in pooled:
            return Cut.for_subset(subset, p, m)
    return None


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
    p = instance.repair_times()
    weights = islands.weights()
    cvars = [f"C[{lid}]" for lid in sorted(p)]
    evars = [f"E[{iid}]" for iid in sorted(weights)]
    model = LpModel(
        variables=cvars + evars,
        objective={f"E[{iid}]": weights[iid] for iid in sorted(weights)},
        lower={f"C[{lid}]": p[lid] for lid in sorted(p)},
    )
    for isl in islands.islands:
        for lid in isl.line_ids:
            model.rows.append(
                LinearRow(
                    coeffs={f"E[{isl.id}]": 1.0, f"C[{lid}]": -1.0},
                    sense=">=",
                    rhs=0.0,
                    label=f"island {isl.id} covers {lid}",
                )
            )
    for parent, child in precedence.edges():
        model.rows.append(
            LinearRow(
                coeffs={f"E[{child}]": 1.0, f"E[{parent}]": -1.0},
                sense=">=",
                rhs=0.0,
                label=f"{child} after {parent}",
            )
        )
    return model


def _cut_row(cut: Cut, p: Mapping[str, float]) -> LinearRow:
    return LinearRow(
        coeffs={f"C[{lid}]": p[lid] for lid in sorted(cut.lines)},
        sense=">=",
        rhs=cut.rhs,
        label=f"load cut on {{{', '.join(sorted(cut.lines))}}}",
    )


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

    pool: list[Cut] = [
        Cut.for_subset([lid], p, m) for lid in sorted(p) if p[lid] > 0
    ]
    pooled = {cut.lines for cut in pool}
    cut_limit = 10 * max(1, len(p)) ** 2

    base = _base_model(instance, islands, precedence)
    iterations = 0
    history: list[float] = []

    while True:
        model = LpModel(
            variables=list(base.variables),
            objective=dict(base.objective),
            rows=list(base.rows) + [_cut_row(cut, p) for cut in pool],
            lower=dict(base.lower),
        )
        vertex = simplex_solve(model)
        iterations += 1
        history.append(vertex.objective)
        cvals = {lid: vertex.values[f"C[{lid}]"] for lid in p}
        cut = separate(cvals, p, m, pooled)
        if cut is None:
            canon_vertex = _canonical_pass(model, vertex.objective)
            cvals = {lid: canon_vertex.values[f"C[{lid}]"] for lid in p}
            cut = separate(cvals, p, m, pooled)
        if cut is not None:
            pool.append(cut)
            pooled.add(cut.lines)
            if len(pool) > cut_limit:
                violation = _violation(sorted(cut.lines), cvals, p, m)
                raise IterationLimit(
                    f"cut pool exceeded {cut_limit} (last violation {violation:.3e})"
                )
            continue

        evals = {iid: canon_vertex.values[f"E[{iid}]"] for iid in weights}
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
    canon = LpModel(
        variables=list(model.variables),
        objective={v: 1.0 for v in model.variables},
        rows=list(model.rows)
        + [LinearRow(coeffs=dict(model.objective), sense="<=", rhs=cap, label="objective cap")],
        lower=dict(model.lower),
    )
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
    out = ["minimize"]
    terms = [
        f"{coef:g}*{v}" for v, coef in sorted(model.objective.items()) if coef != 0
    ]
    out.append("  " + (" + ".join(terms) if terms else "0"))
    out.append("subject to")
    for v in model.variables:
        lo = model.lower.get(v, 0.0)
        out.append(f"  {v} >= {lo:g}")
    for row in model.rows:
        lhs = " + ".join(
            f"{coef:g}*{v}" for v, coef in sorted(row.coeffs.items())
        ).replace("+ -", "- ")
        line = f"  {lhs} {row.sense} {row.rhs:g}"
        if row.label:
            line += f"    # {row.label}"
        out.append(line)
    return "\n".join(out) + "\n"
