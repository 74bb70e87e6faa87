"""The two approximation algorithms with per-job and per-island guarantees.

Midpoint list scheduling sorts lines by the LP midpoint C - p/2 and
greedily assigns them to crews; every job then finishes within twice its
LP completion, so total harm is within 2x of optimal.  The conversion
algorithm reuses the optimal single-crew sequence as the priority list
and is within (2 - 1/m) of optimal.
"""

from __future__ import annotations

from dataclasses import dataclass

from gridrepair import schedule as sched
from gridrepair import seq_opt
from gridrepair.lp import LpSolution, solve_relaxation
from gridrepair.model import NetworkInstance
from gridrepair.schedule import Schedule
from gridrepair.seq_opt import SingleCrewOptimum

LP_LIST = "lp-list"
CONVERT = "convert"
SINGLE_OPTIMAL = "single-optimal"
ALGORITHMS = (LP_LIST, CONVERT, SINGLE_OPTIMAL)

# each island's lines, in id order, arranged for the conversion's priority list
_ARRANGEMENTS = {
    "given": lambda lids, p: lids,
    "reversed": lambda lids, p: lids[::-1],
    "adversarial-longest-last": lambda lids, p: sorted(lids, key=lambda lid: (p[lid], lid)),
}
WITHIN_ISLAND_ORDERS = tuple(_ARRANGEMENTS)


@dataclass(frozen=True)
class AlgoResult:
    """A schedule, its per-island energization and its harm, with what the
    algorithm derived on the way: the relaxation or the single-crew optimum."""

    algorithm: str
    schedule: Schedule
    energization: dict[str, float]
    harm: float
    lp: LpSolution | None = None
    single_crew: SingleCrewOptimum | None = None

    @property
    def crews(self) -> int:
        return len(self.schedule.crews)


def _scored(algorithm: str, instance: NetworkInstance, plan: Schedule, **derived) -> AlgoResult:
    """The result of `plan`: its energization and harm on the instance."""
    energization = sched.energization_times(plan, instance.islands, instance.precedence)
    harm = sched.harm(energization, instance.islands.weights)
    return AlgoResult(algorithm, plan, energization, harm, **derived)


def lp_list_schedule(
    instance: NetworkInstance,
    crews: int | None = None,
    solution: LpSolution | None = None,
) -> AlgoResult:
    """Solve the relaxation, sort by ascending midpoint, list-schedule.

    Midpoint ties break toward upstream islands (smaller depth in the
    precedence tree), then ascending line id.  Pass a pre-solved
    relaxation to skip the LP solve.
    """
    m = instance.crews if crews is None else crews
    if solution is None:
        solution = solve_relaxation(instance, crews=m)
    mid, depth = solution.midpoints, instance.precedence.depth
    of_line = instance.islands.island_of_line
    order = sorted(mid, key=lambda lid: (mid[lid], depth[of_line[lid]], lid))
    plan = sched.list_schedule(order, m, instance.repair_times())
    return _scored(LP_LIST, instance, plan, lp=solution)


def convert_single_to_m(
    instance: NetworkInstance,
    crews: int | None = None,
    within_island_order: str = "given",
) -> AlgoResult:
    """Use the optimal single-crew sequence as the m-crew priority list.

    Any within-island order gives the same guarantee (the bound only sees
    island completions), so the order knob exists purely to explore that
    family of schedules; `adversarial-longest-last` realizes the worst one.
    """
    if within_island_order not in _ARRANGEMENTS:
        raise ValueError(f"unknown within-island order {within_island_order!r}")
    m = instance.crews if crews is None else crews
    islands, repair = instance.islands, instance.repair_times()
    single = seq_opt.optimal_single_crew_harm(instance)
    arrange = _ARRANGEMENTS[within_island_order]
    arrangement = {isl.id: arrange(isl.line_ids, repair) for isl in islands.islands}
    lines = seq_opt.expand_sequence(single.island_order, arrangement)
    return _scored(CONVERT, instance, sched.list_schedule(lines, m, repair), single_crew=single)


def single_optimal(instance: NetworkInstance) -> AlgoResult:
    """The exact single-crew schedule as an algorithm result (m = 1)."""
    single = seq_opt.optimal_single_crew_harm(instance)
    return _scored(SINGLE_OPTIMAL, instance, single.plan, single_crew=single)
