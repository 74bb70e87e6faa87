"""Exact single-crew sequencing.

With one crew the problem collapses to sequencing composite jobs, one per
island (repairs within an island may run contiguously in any internal
order without changing the cost), subject to the island out-tree.  That
is solved exactly by the classic ratio-merge rule: repeatedly take the
non-root composite with the largest weight/processing ratio and glue it
onto the end of its parent.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Sequence

from gridrepair import schedule as sched
from gridrepair.model import IslandSet, NetworkInstance, PrecedenceGraph


@dataclass
class CompositeJob:
    """A merged run of islands scheduled back to back by one crew."""

    island_ids: list[str]
    processing: Fraction
    weight: Fraction


@dataclass(frozen=True)
class SingleCrewOptimum:
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


def _ratio_key(job: CompositeJob, head: str) -> tuple:
    # Max ratio pops first from the min-heap; zero-processing composites
    # count as infinite ratio; ties fall to the smaller head-island id.  The
    # correctly rounded float of the ratio orders first and the exact Fraction
    # only breaks float ties: rounding is monotone (a < b gives float(a) <=
    # float(b)), so this is the exact order.  Beyond float range it is inf.
    if job.processing == 0:
        return (0, 0.0, 0, head)
    ratio = job.weight / job.processing
    try:
        rounded = float(ratio)
    except OverflowError:
        rounded = math.inf
    return (1, -rounded, -ratio, head)


def optimal_island_sequence(
    islands: IslandSet, precedence: PrecedenceGraph
) -> list[str]:
    """Optimal island order for a single crew via ratio merging.

    Each non-root composite is absorbed into its parent in decreasing
    ratio order; parent pointers are resolved union-find style with path
    compression.  The surviving root sequence is optimal and is a linear
    extension of the precedence out-tree.
    """
    jobs = {
        isl.id: CompositeJob([isl.id], Fraction(isl.processing), Fraction(isl.weight))
        for isl in islands.islands
    }
    merged_into = {iid: iid for iid in jobs}

    def find(x: str) -> str:
        while merged_into[x] != x:
            merged_into[x] = merged_into[merged_into[x]]
            x = merged_into[x]
        return x

    version = dict.fromkeys(jobs, 0)
    heap = [(_ratio_key(job, iid), 0, iid) for iid, job in jobs.items() if iid != precedence.root]
    heapq.heapify(heap)

    remaining = len(jobs) - 1
    while remaining:
        _, ver, head = heapq.heappop(heap)
        if find(head) != head or ver != version[head]:
            continue
        job = jobs[head]
        target = find(precedence.parent[job.island_ids[0]])
        parent_job = jobs[target]
        parent_job.island_ids.extend(job.island_ids)
        parent_job.processing += job.processing
        parent_job.weight += job.weight
        merged_into[head] = target
        remaining -= 1
        if target != precedence.root:
            version[target] += 1
            heapq.heappush(heap, (_ratio_key(parent_job, target), version[target], target))
    return list(jobs[precedence.root].island_ids)


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
