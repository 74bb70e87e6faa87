"""Brute-force exact solver and bound certifiers.

The optimal m-crew schedule is found by enumerating every priority list
of the damaged lines and simulating greedy list scheduling for each (with
no release dates and only soft precedence, some no-idle list schedule is
optimal).  Lists that share a prefix share its simulation, so the lists
are grown one line at a time and each distinct prefix is simulated once;
a prefix's children append each of its remaining lines.  A prefix is
summed up by two things.  One is the sorted free times of its crews: the
next job completes at the earliest free time plus its repair time,
whichever crew index takes it, so the crews' identities never matter,
and only c = min(m, n) of them can ever be used.  The other is each
island's latest completion so far.  The first c lines of every list start
together at time 0, one per crew, so their order changes no completion:
after them the crews are free at those lines' sorted repair times and
each island's latest completion is the largest of them on the island.
So the prefixes of length c are not grown line by line; each c-line set
is one start state standing for its c! orderings, and the remaining
(n - c)! suffixes are grown from it.  The simulation is vectorized across
all prefixes of a level at once, independently of the scalar simulator in
`schedule`.  With n <= m the one start state puts every line on its own
crew, so the optimum is the unlimited-crew harm and the first list the
lines in id order: nothing is simulated and NumPy stays unloaded.
`certify_row` re-checks every proven guarantee on a bench row: the
algorithms' bounds and, with the optimum, the two lower bounds on it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cache

from gridrepair import schedule as sched
from gridrepair.algos import AlgoResult
from gridrepair.model import NetworkInstance

MAX_BRUTE_FORCE_LINES = 9


class TooLarge(ValueError):
    def __init__(self, n: int, limit: int):
        super().__init__(f"{n} damaged lines exceed the enumeration guard of {limit}")


class InvariantViolation(AssertionError):
    """A proven guarantee failed; the implementation has a bug, not the instance."""


@dataclass(frozen=True)
class OracleResult:
    harm: float
    priority_list: tuple[str, ...]
    enumerated: int  # the n! lists the minimum is taken over, not the lists simulated


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

    if n <= m:  # one start state, every line on its own crew
        harm = instance.infinite_crew_energization[1]
        return OracleResult(harm, (*zero_lines, *damaged), enumerated=math.factorial(n))
    import numpy as np  # here, so that importing the oracle does not load NumPy

    ids = list(islands.weights)  # in id order
    c, width = min(m, n), len(ids)
    position = {iid: k for k, iid in enumerate(ids)}
    island_of = islands.island_of_line
    home = np.array([position[island_of[lid]] for lid in damaged], dtype=np.intp)
    slots = np.arange(width)[:, None, None]
    p = np.array([repair[lid] for lid in damaged], dtype=float)
    # one column per prefix: its c crews' sorted free times, its islands' latest
    # completions, and its remaining lines in id order (rest[q, i]: the q-th of prefix i);
    # the first prefixes are the c-line sets, each standing for its c! orderings (all
    # bit-identical: their floats are the lines' repair times and maxima of them)
    heads, rest = _sets(n, c)
    first = p.take(heads)
    free = np.sort(first, axis=0)
    done = np.multiply(first, home.take(heads) == slots).max(axis=1)
    for r in range(n - c, 0, -1):
        # child j * R + i of prefix i (of R) appends its j-th remaining line
        finish = free[0] + p.take(rest)
        # masked to the line's island; a 0 leaves a maximum of times >= 0 as it was
        grown = np.multiply(finish, home.take(rest) == slots)
        done = np.maximum(grown, done[:, None], out=grown).reshape(width, -1)
        if r > 1:
            # the earliest free time becomes finish: clamp it into the sorted order
            later = np.maximum(finish, free[:, None])
            head = later[:-1]
            np.minimum(head, free[1:, None], out=head)
            free = later.reshape(c, -1)
            rest = rest.take(_skip(r), axis=0).reshape(r - 1, -1)
    energization = sched.energize(dict(zip(ids, done)), precedence, np.maximum)
    harms = sched.harm(energization, islands.weights)

    # column s + S * sum_k j_k (n-c)!/(n-c-k)! holds set s (of S) in id order, then the
    # suffix choices j_0, j_1, ...; reversing those mixed-radix axes puts the lists kept
    # in lexicographic order.  A set in id order is the smallest of its c! orderings,
    # so the first hit below is still the smallest optimal list of all n!
    lists = harms.reshape((*range(1, n - c + 1), -1)).T.ravel()
    best = int(np.argmin(lists))  # first hit = lexicographically smallest list
    s, rank = divmod(best, math.factorial(n - c))
    chosen = heads[:, s].tolist()
    order = list(zero_lines) + [damaged[k] for k in chosen]
    left = [lid for k, lid in enumerate(damaged) if k not in chosen]
    for r in range(n - c, 0, -1):
        j, rank = divmod(rank, math.factorial(r - 1))
        order.append(left.pop(j))
    return OracleResult(harm=float(lists[best]), priority_list=tuple(order),
                        enumerated=math.factorial(n))


@cache
def _sets(n: int, c: int) -> tuple[np.ndarray, np.ndarray]:
    """heads[k, s] and rest[q, s]: the k-th line of the s-th c-line set of n
    lines and the q-th line outside it, sets in itertools.combinations order
    and lines in id order.  Built on first use: importing makes no arrays."""
    import numpy as np
    heads = list(itertools.combinations(range(n), c))
    rest = [[k for k in range(n) if k not in h] for h in heads]
    return (np.array(heads, dtype=np.intp).T.copy(),
            np.array(rest, dtype=np.intp).reshape(len(heads), n - c).T.copy())


@cache
def _skip(r: int) -> np.ndarray:
    """[q, j]: the position, among r lines in order, of the q-th line left
    once the j-th is taken.  Built on first use: importing makes no arrays."""
    import numpy as np
    return np.array([[q + (q >= j) for j in range(r)] for q in range(r - 1)], dtype=np.intp)


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


def certify_row(
    name: str,
    instance: NetworkInstance,
    m: int,
    alg1: AlgoResult,
    alg2: AlgoResult,
    h_opt: float | None,
) -> None:
    """Re-check every guarantee on one bench row.

    `alg1` is the midpoint list schedule, `alg2` the conversion; `h_opt` is
    the brute-force optimum, or None beyond the enumeration guard.
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
    single, (infinite_e, infinite_harm) = alg2.single_crew, instance.infinite_crew_energization
    for iid, e in alg2.energization.items():
        bound = single.energization[iid] / m + (m - 1) / m * infinite_e[iid]
        if e > bound + 1e-9:
            failures.append(f"conversion bound broken for island {iid}")

    if h_opt is not None:
        if alg1.harm > 2.0 * h_opt + tol:
            failures.append("2x harm guarantee broken")
        if alg2.harm > (2.0 - 1.0 / m) * h_opt + tol:
            failures.append("(2 - 1/m) harm guarantee broken")
        if alg1.lp.objective > h_opt + tol:
            failures.append("relaxation exceeds the optimum")
        failures += _lower_bound_failures(h_opt, single.harm, infinite_harm, m)

    if failures:
        raise InvariantViolation(f"{name} (m={m}): " + "; ".join(failures))
