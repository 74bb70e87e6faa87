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
from gridrepair.model import IslandSet, NetworkInstance, PrecedenceGraph
from gridrepair.schedule import HarmReport, Schedule
from gridrepair.seq_opt import SingleCrewOptimum

LP_LIST = "lp-list"
CONVERT = "convert"
SINGLE_OPTIMAL = "single-optimal"
ALGORITHMS = (LP_LIST, CONVERT, SINGLE_OPTIMAL)

WITHIN_ISLAND_ORDERS = ("given", "reversed", "adversarial-longest-last")


@dataclass(frozen=True)
class AlgoResult:
    algorithm: str
    crews: int
    schedule: Schedule
    energization: dict[str, float]
    report: HarmReport
    islands: IslandSet
    precedence: PrecedenceGraph
    lp: LpSolution | None = None
    single_crew: SingleCrewOptimum | None = None
    infinite_crew: dict[str, float] | None = None  # unlimited-crew energization


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
    islands, precedence = instance.islands, instance.precedence
    if solution is None:
        solution = solve_relaxation(instance, crews=m)
    depth = precedence.depth()
    of_line = islands.island_of_line()
    order = sorted(
        solution.midpoints,
        key=lambda lid: (solution.midpoints[lid], depth[of_line[lid]], lid),
    )
    plan = sched.list_schedule(order, m, instance.repair_times())
    energization = sched.energization_times(plan, islands, precedence)
    return AlgoResult(
        algorithm=LP_LIST,
        crews=m,
        schedule=plan,
        energization=energization,
        report=sched.harm_report(energization, islands, LP_LIST),
        islands=islands,
        precedence=precedence,
        lp=solution,
    )


def _within_island_key(order: str, repair_times):
    if order == "given":
        return lambda lid: lid
    if order == "reversed":
        return None  # handled by reversing the id-sorted block
    if order == "adversarial-longest-last":
        return lambda lid: (repair_times[lid], lid)
    raise ValueError(f"unknown within-island order {order!r}")


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
    m = instance.crews if crews is None else crews
    islands, precedence = instance.islands, instance.precedence
    single = seq_opt.optimal_single_crew_harm(instance)

    repair = instance.repair_times()
    key = _within_island_key(within_island_order, repair)
    by_id = islands.by_id()
    lines: list[str] = []
    for iid in single.island_order:
        block = sorted(by_id[iid].line_ids)
        if key is None:
            block.reverse()
        else:
            block.sort(key=key)
        lines.extend(block)

    plan = sched.list_schedule(lines, m, repair)
    energization = sched.energization_times(plan, islands, precedence)
    infinite_e, infinite = sched.infinite_crew_energization(islands, precedence, repair)
    return AlgoResult(
        algorithm=CONVERT,
        crews=m,
        schedule=plan,
        energization=energization,
        report=sched.harm_report(
            energization,
            islands,
            CONVERT,
            single_crew_optimum=single.harm,
            infinite_crew_optimum=infinite,
        ),
        islands=islands,
        precedence=precedence,
        single_crew=single,
        infinite_crew=infinite_e,
    )


def single_optimal(instance: NetworkInstance) -> AlgoResult:
    """The exact single-crew schedule as an algorithm result (m = 1)."""
    single = seq_opt.optimal_single_crew_harm(instance)
    return AlgoResult(
        algorithm=SINGLE_OPTIMAL,
        crews=1,
        schedule=single.plan,
        energization=single.energization,
        report=sched.harm_report(single.energization, instance.islands, SINGLE_OPTIMAL),
        islands=instance.islands,
        precedence=instance.precedence,
        single_crew=single,
    )
