"""Crew schedules, energization times and the harm objective.

A schedule assigns every line to one crew; crews work back to back from
time 0 with no idling.  An island is energized when the last repair in it
and in every island on the path back to the source is finished.  Harm is
the weighted sum of island energization times.
"""

from __future__ import annotations

import heapq
from typing import Mapping, NamedTuple, Sequence, TypeVar

from gridrepair.model import IslandSet, PrecedenceGraph, new_record


T = TypeVar("T")


class ListNotPermutation(ValueError):
    """Priority list does not cover every line exactly once."""


class Assignment(NamedTuple):  # a tuple: one per line per schedule
    line: str
    start: float
    completion: float


class Schedule(NamedTuple):
    """Per-crew ordered job assignments plus the priority list that built them."""

    crews: tuple[tuple[Assignment, ...], ...]
    priority: tuple[str, ...]

    def completions(self) -> dict[str, float]:
        return {a.line: a.completion for crew in self.crews for a in crew}

    def starts(self) -> dict[str, float]:
        return {a.line: a.start for crew in self.crews for a in crew}


def list_schedule(
    priority: Sequence[str], m: int, repair_times: Mapping[str, float]
) -> Schedule:
    """Greedy list scheduling: the next list job goes to the earliest-free crew.

    Ties between free crews go to the lowest crew index, so the first m
    jobs land on crews 0..m-1 in list order.  Zero-time jobs occupy a crew
    for zero time and complete at their start instant.
    """
    if m < 1:
        raise ValueError(f"crew count must be >= 1, got {m}")
    if len(priority) != len(repair_times) or set(priority) != repair_times.keys():
        raise ListNotPermutation(
            "priority list is not a permutation of the damaged lines"
        )
    crews: list[list[Assignment]] = [[] for _ in range(m)]
    free: list[tuple[float, int]] = [(0.0, k) for k in range(m)]
    heapq.heapify(free)
    for line in priority:
        start, crew = free[0]  # (free time, index) pairs never tie: heappop's order
        completion = start + repair_times[line]
        crews[crew].append(new_record(Assignment, (line, start, completion)))
        heapq.heapreplace(free, (completion, crew))
    return Schedule(crews=tuple(tuple(c) for c in crews), priority=tuple(priority))


def _island_max(line_values: Mapping[str, float], islands: IslandSet) -> dict[str, float]:
    """Largest member-line value per island (0 for islands with no lines)."""
    return {
        isl.id: max((line_values[lid] for lid in isl.line_ids), default=0.0)
        for isl in islands.islands
    }


def energize(own: Mapping[str, T], precedence: PrecedenceGraph, combine=max) -> dict[str, T]:
    """Top-down over the out-tree: an island energizes at the later of its
    own ready time and its parent's energization.

    `combine` takes the later of two values: `max` for scalars,
    `numpy.maximum` for arrays of many schedules at once.
    """
    energization: dict[str, T] = {}
    parent_of = precedence.parent.get
    for isl in precedence.topological_order:
        parent = parent_of(isl)
        energization[isl] = (
            own[isl] if parent is None else combine(own[isl], energization[parent])
        )
    return energization


def energization_times(
    schedule: Schedule, islands: IslandSet, precedence: PrecedenceGraph
) -> dict[str, float]:
    """Energization instant per island under the given schedule: the max
    completion over the island and all its ancestors."""
    return energize(_island_max(schedule.completions(), islands), precedence)


def harm(energization: Mapping[str, float], island_weights: Mapping[str, float]) -> float:
    """Total weighted energization time, summed left to right in island id order.

    Not by `sum()`, which from Python 3.12 compensates a sum of floats but
    not one of arrays: the oracle scores arrays of schedules with this, and
    each must read bit for bit what it reads for a single schedule.
    """
    total = 0
    for isl in sorted(energization):
        total = total + island_weights[isl] * energization[isl]
    return total


def infinite_crew_energization(
    islands: IslandSet, precedence: PrecedenceGraph, repair_times: Mapping[str, float]
) -> tuple[dict[str, float], float]:
    """Best possible energization: every line on its own crew.

    Each line then completes at its repair time, so an island's
    energization is the largest single repair time on its ancestor path.
    Returns the energization map and its harm, the unlimited-crew optimum.
    """
    energization = energize(_island_max(repair_times, islands), precedence)
    return energization, harm(energization, islands.weights)
