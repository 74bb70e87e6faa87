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

Large enumerations are pruned by branch and bound, as exact methods for
P|prec|sum wC do (Potts 1985; Hall, Schulz, Shmoys and Wein 1997).  The
incumbent is the harm of a list schedule: the caller's (the bench passes
the better of its two algorithms' harms) or else the conversion
schedule's (`algos.convert_single_to_m`).  It is at least the computed
optimum, bit for bit: the scalar simulator makes the same float
operations as the vectorized one on the same list, and moving its
zero-time lines to the front raises no completion.  So an optimum found
above the incumbent, or a bound that drops every prefix, raises
InvariantViolation instead of returning a wrong optimum.  The
lower bound of a prefix raises each island's latest completion to the
earliest free time plus the repair time of each of its lines not yet
placed, which no later start can beat, then energizes and scores that
with `schedule.energize` and `schedule.harm`.  It is the island-wise
maximum over the prefix's children, so it costs one reduction of the
level just grown.  Each step is a maximum, a product with a weight >= 0
or a sum taken in the same order as the harm's, all monotone in floats,
so the bound is at most the computed harm of every list below the prefix.
A prefix is dropped only where its bound is strictly above the
incumbent, so no list of the least harm is ever lost.  Two lines are
twins when they lie in one island and have equal repair times.  Swapping
twins in a list repeats every float operation, so the harm is identical
bit for bit, and the list with the lower id first is the smaller one.
So a c-line set, or a checked prefix, that has placed a line while a
lower twin of it is unplaced is dropped too: each list below it has a
twin list of the same harm and a smaller rank.  Every prefix carries its
rank, the position of its first list among all n! in lexicographic
order, and the answer has one rule, pruned or not: the least harm, then
the least rank, so the lexicographically smallest list of least harm.
`certify_row` re-checks every proven guarantee on a bench row: the
algorithms' bounds and, with the optimum, the two lower bounds on it.
"""

from __future__ import annotations

import itertools
import math
from functools import cache
from typing import NamedTuple

from gridrepair import algos, lp
from gridrepair import schedule as sched
from gridrepair.algos import AlgoResult
from gridrepair.model import NetworkInstance

MAX_BRUTE_FORCE_LINES = 9
PRUNE_LISTS = 6_000  # prune where the n!/c! lists simulated number at least this many
PRUNE_AT = (4, 3, 2)  # the prefixes checked: those with this many lines left
KEEP_AT_MOST = 0.75  # drop pruned prefixes where at most this share stays, else stop pruning
ULPS = 2.0**-50  # the relative slack `certify_row` allows a bound, about 4 ulps


class TooLarge(ValueError):
    def __init__(self, n: int, limit: int):
        super().__init__(f"{n} damaged lines exceed the enumeration guard of {limit}")


class InvariantViolation(AssertionError):
    """A proven guarantee failed; the implementation has a bug, not the instance."""


class OracleResult(NamedTuple):
    harm: float
    priority_list: tuple[str, ...]
    enumerated: int  # the n! lists the minimum is taken over, not the lists simulated


def brute_force_optimal(
    instance: NetworkInstance, m: int, incumbent: float | None = None
) -> OracleResult:
    """Exact minimum harm over all m-crew list schedules.

    Zero-time lines are pinned to the front of every list (finishing a
    zero-time job earlier can never raise any completion), so only the
    damaged lines are permuted; the guard caps those at 9.  The list
    returned has the least harm and, of those, the least rank: it is the
    lexicographically smallest list of least harm, pruned or not.

    The bound and the twin rule prune only where the lists simulated,
    n!/c!, number at least `PRUNE_LISTS`: at most 9 lines, that is n = 8
    with m <= 3 and n = 9 with m <= 4 (7 lines at m = 1 make 5 040 lists,
    8 at m = 3 make 6 720).  The c-line sets are filtered by the twin rule,
    and the prefixes with 4, 3 and 2 lines left by both.  Where a check
    would keep more than `KEEP_AT_MOST` of them, it drops none and pruning
    stops.  Measured in-process on the bench corpus (seeds 0-399, at most 9
    lines; per (n, m) group the median of each call's best time, calls of
    this oracle and of the one without twins and with a gate of 10 000
    interleaved; two runs), the conversion as incumbent takes 0.71-0.84 of
    the time at n = 9 with m <= 3 and 0.89-0.95 at n = 8 with m = 1 and 3,
    and the bench's better incumbent 0.53-0.82 at n = 9 with m <= 4 and
    0.64-0.88 at n = 8 with m <= 3.  n = 8 at m = 2 with the conversion
    reads +1 and +3 %: where one twin pair meets a bound that already
    drops three quarters at each check, the twin checks (about 25 us)
    outweigh the half of the survivors they drop.

    `incumbent` is the harm of any m-crew list schedule; None takes the
    conversion's.  Raises InvariantViolation where the optimum found is
    above it, or where every checked prefix is dropped.
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
        return _checked(harm, (*zero_lines, *damaged), n, incumbent)
    import numpy as np  # here, so that importing the oracle does not load NumPy

    ids = list(islands.weights)  # in id order
    c, width = min(m, n), len(ids)
    position = {iid: k for k, iid in enumerate(ids)}
    island_of = islands.island_of_line
    home = np.array([position[island_of[lid]] for lid in damaged], dtype=np.intp)
    slots = np.arange(width)[:, None, None]
    p = np.array([repair[lid] for lid in damaged], dtype=float)
    # one column per prefix: its c crews' sorted free times, its islands' latest
    # completions, its remaining lines in id order (rest[q, i]: the q-th of prefix i)
    # and its rank: the position among all n! in lexicographic order of its first
    # list.  The first prefixes are the c-line sets, each standing for its c!
    # orderings (all bit-identical: their floats are the lines' repair times and
    # maxima of them) and ranked as its smallest, in id order
    heads, rest, rank = _sets(n, c)
    first = p.take(heads)
    free = np.sort(first, axis=0)
    done = np.multiply(first, home.take(heads) == slots).max(axis=1)
    prune = math.perm(n, n - c) >= PRUNE_LISTS
    if prune:
        if incumbent is None:
            incumbent = algos.convert_single_to_m(instance, m).harm
        twins = _twin_code(damaged, repair, island_of)
        if twins is not None:  # drop the sets holding a line but not its lower twin
            kept = np.flatnonzero(_in_order(twins, rest, n))
            free, done, rest, rank = (a.take(kept, axis=-1) for a in (free, done, rest, rank))
    for r in range(n - c, 0, -1):
        # child j * R + i of prefix i (of R) appends its j-th remaining line
        finish = free[0] + p.take(rest)
        # masked to the line's island; a 0 leaves a maximum of times >= 0 as it was
        grown = np.multiply(finish, home.take(rest) == slots)
        done = np.maximum(grown, done[:, None], out=grown)
        rank = rank + _steps(r)
        if prune and r in PRUNE_AT:
            # the latest of a prefix's children per island raises each island to the
            # earliest finish of its unplaced lines: no list below it scores less
            bound = sched.harm(sched.energize(dict(zip(ids, done.max(axis=1))), precedence,
                                              np.maximum), islands.weights)
            keep = ~(bound > incumbent)
            if twins is not None:
                keep &= _in_order(twins, rest, n)
            kept = np.flatnonzero(keep)
            if not len(kept):
                raise InvariantViolation(
                    f"every prefix's bound is above the incumbent {incumbent!r} at m={m}: "
                    "it is below the optimum")
            if len(kept) <= KEEP_AT_MOST * len(bound):
                free, done, rest, rank, finish = (
                    a.take(kept, axis=-1) for a in (free, done, rest, rank, finish))
            else:  # too few dropped to pay for the checks deeper down
                prune = False
        done, rank = done.reshape(width, -1), rank.ravel()
        if r > 1:
            # the earliest free time becomes finish: clamp it into the sorted order
            later = np.maximum(finish, free[:, None])
            head = later[:-1]
            np.minimum(head, free[1:, None], out=head)
            free = later.reshape(c, -1)
            rest = rest.take(_skip(r), axis=0).reshape(r - 1, -1)
    energization = sched.energize(dict(zip(ids, done)), precedence, np.maximum)
    harms = sched.harm(energization, islands.weights)

    # the least harm, and of the lists that reach it the one of least rank; a set
    # in id order is the smallest of its c! orderings, so that is still the
    # lexicographically smallest optimal list of all n!
    harm = harms.min()
    best = int(rank[harms == harm].min())
    s, best = divmod(best, math.factorial(n - c))
    chosen = heads[:, s].tolist()
    order = list(zero_lines) + [damaged[k] for k in chosen]
    left = [lid for k, lid in enumerate(damaged) if k not in chosen]
    for r in range(n - c, 0, -1):
        j, best = divmod(best, math.factorial(r - 1))
        order.append(left.pop(j))
    return _checked(float(harm), tuple(order), n, incumbent)


def _checked(harm: float, order: tuple[str, ...], n: int, incumbent: float | None) -> OracleResult:
    """The result, once the optimum is found at most the incumbent, as every
    list schedule's harm is; above it, the incumbent is wrong or the search is."""
    if incumbent is not None and harm > incumbent:
        raise InvariantViolation(f"brute-force optimum {harm!r} above the incumbent {incumbent!r}")
    return OracleResult(harm=harm, priority_list=order, enumerated=math.factorial(n))


def _twin_code(damaged: list[str], repair: dict[str, float],
               island_of: dict[str, str]) -> np.ndarray | None:
    """code[k]: bit k, plus bit n + k' where line k' is the next twin above line k
    (twins: lines of one island with equal repair times); None without twins."""
    import numpy as np
    n, code, last = len(damaged), [1 << k for k in range(len(damaged))], {}
    for k, lid in enumerate(damaged):
        key = (island_of[lid], repair[lid])
        if key in last:
            code[last[key]] += 1 << (n + k)
        last[key] = k
    return np.array(code, dtype=np.int64) if len(last) < n else None


def _in_order(code: np.ndarray, rest: np.ndarray, n: int) -> np.ndarray:
    """Per column of remaining lines `rest`, whether its prefix has placed no
    line while a lower twin of it is unplaced: summed codes whose bit n + k'
    is set but bit k' not show a remaining line whose next twin up, k', is
    already placed."""
    total = code.take(rest).sum(axis=0)
    return ((total >> n) & ~total) == 0


@cache
def _sets(n: int, c: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """heads[k, s], rest[q, s] and rank[s]: the k-th line of the s-th c-line
    set of n lines, the q-th line outside it and the rank of its first list,
    s (n - c)!, sets in itertools.combinations order and lines in id order.
    Built on first use: importing makes no arrays."""
    import numpy as np
    heads = list(itertools.combinations(range(n), c))
    rest = [[k for k in range(n) if k not in h] for h in heads]
    return (np.array(heads, dtype=np.intp).T.copy(),
            np.array(rest, dtype=np.intp).reshape(len(heads), n - c).T.copy(),
            np.arange(len(heads)) * math.factorial(n - c))


@cache
def _steps(r: int) -> np.ndarray:
    """[j, 0]: how far appending the j-th of r remaining lines moves a prefix's
    rank, j (r - 1)!.  Built on first use: importing makes no arrays."""
    import numpy as np
    return (np.arange(r) * math.factorial(r - 1))[:, None]


@cache
def _skip(r: int) -> np.ndarray:
    """[q, j]: the position, among r lines in order, of the q-th line left
    once the j-th is taken.  Built on first use: importing makes no arrays."""
    import numpy as np
    return np.array([[q + (q >= j) for j in range(r)] for q in range(r - 1)], dtype=np.intp)


def _lower_bound_failures(
    harm: float, single: float, infinite: float, m: int, what: str = "m-crew optimum"
) -> list[str]:
    """The m-crew optimum, and so every m-crew harm, is at least E1/m and at
    least E-infinity."""
    tol = 1e-9 * max(1.0, abs(harm))
    failures = []
    if harm < single / m - tol:
        failures.append(f"{what} {harm} below single-crew bound {single}/{m}")
    if harm < infinite - tol:
        failures.append(f"{what} {harm} below unlimited-crew bound {infinite}")
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
    Raises InvariantViolation with a message starting "<name> (m=<m>): ".

    Graham's bound: a list schedule starts its k-th line (from 0) no later
    than the earlier lines' total time over m, the least crew load being at
    most the mean.  The start is its crew's running sum of at most k of
    those times, `elapsed` the running sum of all k, and each of a sum's
    k - 1 roundings scales it by a factor within 2^-53 of 1.  So start * m,
    rounded, is at most (1 + 2^-53)^k / (1 - 2^-53)^(k - 1) times `elapsed`,
    below (1 + (2k + 3) 2^-53) times it for k < 2^26; the allowance taken is
    at least that: 1 + (k + 2) 2^-52 is exact and its product rounds once.
    Where `elapsed` is subnormal, every sum is exact and start * m is at
    most `elapsed` itself.
    """
    failures: list[str] = []
    repair = instance.repair_times()
    tol = 1e-6

    # per-job chain under midpoint list scheduling
    starts = alg1.schedule.starts()
    elapsed = 0.0
    for k, lid in enumerate(alg1.schedule.priority):
        if starts[lid] * m > elapsed * (1.0 + (k + 2) * 2.0**-52):
            failures.append(f"start bound broken for {lid}")
        elapsed += repair[lid]
    completions = alg1.schedule.completions()
    lp_completion, lp_energization = alg1.lp.completion, alg1.lp.energization
    for lid in repair:
        if completions[lid] > 2.0 * lp_completion[lid] + tol:
            failures.append(f"2x completion bound broken for {lid}")
    for iid, e in alg1.energization.items():
        if e > 2.0 * lp_energization[iid] + tol:
            failures.append(f"2x energization bound broken for island {iid}")

    def above(value: float, bound: float, slack: float) -> bool:
        # a few ulps of the bound on top of the absolute slack: both sides are
        # rounded sums and products, which miss by one rounding from about 1e11
        return value > bound + slack + ULPS * abs(bound)

    # per-island conversion bound
    single, (infinite_e, infinite_harm) = alg2.single_crew, instance.infinite_crew_energization
    for iid, e in alg2.energization.items():
        bound = single.energization[iid] / m + (m - 1) / m * infinite_e[iid]
        if above(e, bound, 1e-9):
            failures.append(f"conversion bound broken for island {iid}")

    # the lower bounds on the optimum hold for every schedule's harm, at any size
    for what, harm in (("lp-list harm", alg1.harm), ("conversion harm", alg2.harm)):
        failures += _lower_bound_failures(harm, single.harm, infinite_harm, m, what)

    if h_opt is not None:
        if above(alg1.harm, 2.0 * h_opt, tol):
            failures.append("2x harm guarantee broken")
        if above(alg2.harm, (2.0 - 1.0 / m) * h_opt, tol):
            failures.append("(2 - 1/m) harm guarantee broken")
        # the LP loop accepts an objective up to GAP_TOLERANCE of it above its dual bound
        objective = alg1.lp.objective
        if above(objective, h_opt, tol + lp.GAP_TOLERANCE * max(1.0, abs(objective))):
            failures.append("relaxation exceeds the optimum")
        failures += _lower_bound_failures(h_opt, single.harm, infinite_harm, m)

    if failures:
        raise InvariantViolation(f"{name} (m={m}): " + "; ".join(failures))
