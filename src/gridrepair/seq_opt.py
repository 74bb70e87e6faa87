"""Exact single-crew sequencing.

With one crew the problem collapses to sequencing composite jobs, one per
island (repairs within an island may run contiguously in any internal
order without changing the cost), subject to the island out-tree.  That
is solved exactly by the classic ratio-merge rule (Horn 1972): repeatedly
take the non-root composite with the largest weight/processing ratio and
glue it onto the end of its parent.  It runs on exact ints: every float is
an int over a power of two, so processing and weight scaled by the largest
such denominator are ints, and so are their sums.
"""

from __future__ import annotations

import heapq
import math
from functools import cached_property
from typing import Mapping, Sequence

from gridrepair import schedule as sched
from gridrepair.model import IslandSet, NetworkInstance, PrecedenceGraph, Record


class SingleCrewOptimum(Record):
    """The optimal single-crew island order on `instance`.

    The plan that follows it, its per-island energization and its harm are
    simulated on first read and kept; the conversion needs only the order.
    The harm comes from the schedule simulator, not the merge bookkeeping,
    so the two paths cross-check each other.
    """

    instance: NetworkInstance
    island_order: tuple[str, ...]

    @cached_property
    def plan(self) -> sched.Schedule:
        islands = self.instance.islands.islands
        lines = expand_sequence(self.island_order, {isl.id: isl.line_ids for isl in islands})
        return sched.list_schedule(lines, 1, self.instance.repair_times())

    @cached_property
    def energization(self) -> dict[str, float]:
        return sched.energization_times(self.plan, self.instance.islands, self.instance.precedence)

    @cached_property
    def harm(self) -> float:
        return sched.harm(self.energization, self.instance.islands.weights)


class _Ratio(tuple):
    """(weight, processing) as ints, ordered by exact ratio, largest first."""

    __slots__ = ()

    def __eq__(self, other: _Ratio) -> bool:
        return self[0] * other[1] == other[0] * self[1]

    def __lt__(self, other: _Ratio) -> bool:
        return self[0] * other[1] > other[0] * self[1]


def _ratio_key(head: str, job: list) -> tuple:
    # Max ratio pops first from the min-heap; zero-processing composites count
    # as infinite ratio; ties fall to the smaller head-island id.  The float of
    # the ratio (int / int rounds correctly, and rounding is monotone) orders
    # first; the exact `_Ratio` breaks float ties.  Beyond float range it is inf.
    _, processing, weight = job
    if processing == 0:
        return (0, head)
    try:
        rounded = weight / processing
    except OverflowError:
        rounded = math.inf
    return (1, -rounded, _Ratio((weight, processing)), head)


def optimal_island_sequence(islands: IslandSet, precedence: PrecedenceGraph) -> list[str]:
    """Optimal island order for a single crew via ratio merging.

    Each non-root composite [last island, processing, weight], keyed by its
    first (head) island, is linked in O(1) after the last island of the one
    holding the head's parent island, in decreasing ratio order.  The root's
    chain is optimal and is a linear extension of the precedence out-tree.
    """
    exact = [(isl.id, isl.processing.as_integer_ratio(), isl.weight.as_integer_ratio())
             for isl in islands.islands]
    scale = max(max(dp, dw) for _, (_, dp), (_, dw) in exact)
    jobs = {iid: [iid, p * (scale // dp), w * (scale // dw)] for iid, (p, dp), (w, dw) in exact}
    merged_into = {iid: iid for iid in jobs}  # union-find over heads, path-halved
    after: dict[str, str] = {}  # the island that follows each island in its composite
    root, parent = precedence.root, precedence.parent
    current = {iid: _ratio_key(iid, job) for iid, job in jobs.items() if iid != root}
    heap = sorted(current.values())  # a sorted list is a heap
    while current:  # `current` holds the live key of each unmerged non-root composite
        key = heapq.heappop(heap)
        head = key[-1]
        if current.get(head) is not key:
            continue
        del current[head]
        last, p, w = jobs[head]
        target = parent[head]
        while merged_into[target] != target:
            merged_into[target] = target = merged_into[merged_into[target]]
        parent_job = jobs[target]
        after[parent_job[0]] = head
        parent_job[0] = last
        parent_job[1] += p
        parent_job[2] += w
        merged_into[head] = target
        if target != root:
            current[target] = key = _ratio_key(target, parent_job)
            heapq.heappush(heap, key)
    order = [island := root]
    for _ in after:  # every island but the root follows one other
        order.append(island := after[island])
    return order


def expand_sequence(
    island_order: Sequence[str], arrangement: Mapping[str, Sequence[str]]
) -> list[str]:
    """Flatten an island order into a line priority list.

    Each island's lines stay contiguous, in the order `arrangement` gives
    for that island id; any such order is cost-neutral for a single crew.
    """
    return [lid for iid in island_order for lid in arrangement[iid]]


def optimal_single_crew_harm(instance: NetworkInstance) -> SingleCrewOptimum:
    """Best achievable harm with one crew: the island order that attains it,
    by ratio merging; its plan and harm follow on first read."""
    order = optimal_island_sequence(instance.islands, instance.precedence)
    return SingleCrewOptimum(instance, tuple(order))
