"""Brute-force exact solver and bound certifiers.

The optimal m-crew schedule is found by enumerating every priority list
of the damaged lines and simulating greedy list scheduling for each (with
no release dates and only soft precedence, some no-idle list schedule is
optimal).  The simulation is vectorized across all permutations at once,
independently of the scalar simulator in `schedule`.  The certifiers
re-check every proven guarantee: the two lower bounds on the optimum
here, and all algorithm guarantees on a bench row in `certify_row`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from gridrepair import schedule as sched
from gridrepair import seq_opt
from gridrepair.algos import AlgoResult
from gridrepair.lp import load_rhs
from gridrepair.model import NetworkInstance

MAX_BRUTE_FORCE_LINES = 9
MAX_SUBSET_LINES = 12


class TooLarge(ValueError):
    def __init__(self, n: int, limit: int):
        super().__init__(f"{n} damaged lines exceed the enumeration guard of {limit}")
        self.n = n
        self.limit = limit


class InvariantViolation(AssertionError):
    """A proven guarantee failed; the implementation has a bug, not the instance."""


@dataclass(frozen=True)
class OracleResult:
    harm: float
    priority_list: tuple[str, ...]
    enumerated: int


@dataclass(frozen=True)
class BoundCheck:
    crews: int
    optimum: float
    single_crew_optimum: float
    infinite_crew_optimum: float
    slack_single: float
    slack_infinite: float


@dataclass(frozen=True)
class SeparationResult:
    subset: frozenset[str]
    violation: float


def brute_force_optimal(instance: NetworkInstance, m: int) -> OracleResult:
    """Exact minimum harm over all m-crew list schedules.

    Zero-time lines are pinned to the front of every list (finishing a
    zero-time job earlier can never raise any completion), so only the
    damaged lines are permuted; the guard caps those at 9.
    """
    if m < 1:
        raise ValueError(f"crew count must be >= 1, got {m}")
    islands, precedence = instance.islands, instance.precedence
    repair = instance.repair_times()
    zero_lines = sorted(lid for lid in repair if repair[lid] == 0)
    damaged = sorted(lid for lid in repair if repair[lid] > 0)
    n = len(damaged)
    if n > MAX_BRUTE_FORCE_LINES:
        raise TooLarge(n, MAX_BRUTE_FORCE_LINES)

    weights = islands.weights()
    if n == 0:
        energization = {iid: 0.0 for iid in weights}
        return OracleResult(
            harm=sched.harm(energization, weights),
            priority_list=tuple(zero_lines),
            enumerated=1,
        )

    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
    completions = _simulate_all(perms, np.array([repair[j] for j in damaged]), m)

    # island completion = max over damaged members (zero-time members finish at 0)
    col = {lid: k for k, lid in enumerate(damaged)}
    group = {}
    for isl in islands.islands:
        cols = [col[lid] for lid in isl.line_ids if lid in col]
        group[isl.id] = (
            completions[:, cols].max(axis=1)
            if cols
            else np.zeros(len(perms))
        )
    energization = sched.energize(group, precedence, np.maximum)
    harms = sum(weights[iid] * energization[iid] for iid in sorted(weights))

    best = int(np.argmin(harms))  # first hit = lexicographically smallest list
    best_list = tuple(zero_lines) + tuple(damaged[k] for k in perms[best])
    return OracleResult(
        harm=float(harms[best]),
        priority_list=best_list,
        enumerated=len(perms),
    )


def _simulate_all(perms: np.ndarray, p: np.ndarray, m: int) -> np.ndarray:
    """List-schedule every permutation at once; returns per-line completions.

    Ties between free crews resolve to the lowest crew index, matching the
    scalar simulator.
    """
    count, n = perms.shape
    free = np.zeros((count, m))
    completions = np.zeros((count, n))
    rows = np.arange(count)
    for pos in range(n):
        jobs = perms[:, pos]
        crew = np.argmin(free, axis=1)
        finish = free[rows, crew] + p[jobs]
        completions[rows, jobs] = finish
        free[rows, crew] = finish
    return completions


def _lower_bound_failures(
    optimum: float, single: float, infinite: float, m: int
) -> list[str]:
    """The m-crew optimum is at least E1/m and at least E-infinity."""
    tol = 1e-9 * max(1.0, abs(optimum))
    failures = []
    if optimum < single / m - tol:
        failures.append(f"m-crew optimum {optimum} below single-crew bound {single}/{m}")
    if optimum < infinite - tol:
        failures.append(f"m-crew optimum {optimum} below unlimited-crew bound {infinite}")
    return failures


def check_bounds(instance: NetworkInstance, m: int) -> BoundCheck:
    """Certify the two lower bounds on the m-crew optimum.

    The optimum is at least the single-crew optimum divided by m, and at
    least the unlimited-crew optimum.  Violations mean an implementation
    bug, not a hard instance.
    """
    single = seq_opt.optimal_single_crew_harm(instance).harm
    _, infinite = sched.infinite_crew_energization(
        instance.islands, instance.precedence, instance.repair_times()
    )
    optimum = brute_force_optimal(instance, m).harm
    failures = _lower_bound_failures(optimum, single, infinite, m)
    if failures:
        raise InvariantViolation("; ".join(failures))
    return BoundCheck(
        crews=m,
        optimum=optimum,
        single_crew_optimum=single,
        infinite_crew_optimum=infinite,
        slack_single=optimum - single / m,
        slack_infinite=optimum - infinite,
    )


def certify_row(
    name: str,
    instance: NetworkInstance,
    m: int,
    alg1: AlgoResult,
    alg2: AlgoResult,
    h_opt: float | None,
) -> None:
    """Re-check every guarantee on one bench row.

    `alg1` is the midpoint list schedule, `alg2` the conversion; `h_opt`
    is the brute-force optimum, or None beyond the enumeration guard.
    Raises InvariantViolation with a message starting "<name> (m=<m>): ",
    which the bench parses to write the instance out for replay.
    """
    failures: list[str] = []
    repair = instance.repair_times()
    tol = 1e-6

    # per-job chain under midpoint list scheduling
    starts = alg1.schedule.starts()
    elapsed = 0.0
    for lid in alg1.schedule.priority:
        if starts[lid] > elapsed / m + 1e-9:
            failures.append(f"start bound broken for {lid}")
        elapsed += repair[lid]
    completions = alg1.schedule.completions()
    for lid in repair:
        if completions[lid] > 2.0 * alg1.lp.completion[lid] + tol:
            failures.append(f"2x completion bound broken for {lid}")
    for iid, e in alg1.energization.items():
        if e > 2.0 * alg1.lp.energization[iid] + tol:
            failures.append(f"2x energization bound broken for island {iid}")

    # per-island conversion bound
    single, infinite = alg2.single_crew, alg2.infinite_crew
    for iid, e in alg2.energization.items():
        bound = single.energization[iid] / m + (m - 1) / m * infinite[iid]
        if e > bound + 1e-9:
            failures.append(f"conversion bound broken for island {iid}")

    if h_opt is not None:
        if alg1.report.harm > 2.0 * h_opt + tol:
            failures.append("2x harm guarantee broken")
        if alg2.report.harm > (2.0 - 1.0 / m) * h_opt + tol:
            failures.append("(2 - 1/m) harm guarantee broken")
        if alg1.lp.objective > h_opt + tol:
            failures.append("relaxation exceeds the optimum")
        failures += _lower_bound_failures(
            h_opt, single.harm, alg2.report.infinite_crew_optimum, m
        )

    if failures:
        raise InvariantViolation(f"{name} (m={m}): " + "; ".join(failures))


def exhaustive_separation(
    c: dict[str, float], p: dict[str, float], m: int
) -> SeparationResult:
    """Exact maximizer of the load-inequality violation over all subsets.

    Enumerates every one of the 2^n - 1 non-empty subsets; n is capped at
    12.  Serves as the ground truth for the prefix separation routine.
    """
    lines = sorted(p)
    n = len(lines)
    if n > MAX_SUBSET_LINES:
        raise TooLarge(n, MAX_SUBSET_LINES)
    if n == 0:
        raise ValueError("no lines to separate over")
    pv = np.array([p[j] for j in lines])
    pc = np.array([p[j] * c[j] for j in lines])
    masks = np.arange(1, 2**n, dtype=np.uint32)
    bits = (masks[:, None] >> np.arange(n)) & 1  # (2^n - 1, n)
    totals = bits @ pv
    violations = totals * totals / (2.0 * m) + bits @ (pv * pv) / 2.0 - bits @ pc
    best = int(np.argmax(violations))
    subset = frozenset(lines[k] for k in range(n) if bits[best, k])
    # recompute in exact scalar arithmetic for the reported value
    value = load_rhs((p[j] for j in subset), m) - math.fsum(p[j] * c[j] for j in subset)
    return SeparationResult(subset=subset, violation=value)
