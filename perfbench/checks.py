"""Independent checks of the program's outputs.

Everything is recomputed from the instance file with this module's own
code; nothing here imports ``gridrepair`` and nothing is compared against a
stored copy of an earlier output.  Each check returns a list of problems,
empty when the output is correct.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

TOL = 1e-9


def _close(a: float, b: float, rel: float = TOL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


@dataclass
class Feeder:
    """A raw instance re-derived: islands, island tree, weights, repair times."""

    p: dict[str, float]  # repair time per line
    island_of: dict[str, str]  # line -> island id
    members: dict[str, list[str]]  # island id -> lines
    parent: dict[str, str]  # island id -> parent island id (root island absent)
    order: list[str]  # island ids, parents before children
    weight: dict[str, float]  # island id -> summed weight of the nodes its lines feed
    optima: dict[int, float] = field(default_factory=dict)  # crews -> brute-force optimum

    @classmethod
    def from_raw(cls, raw: dict) -> "Feeder":
        root = str(raw["root"])
        node_weight = {str(n["id"]): float(n["weight"]) for n in raw["nodes"]}
        adjacent: dict[str, list[tuple[str, dict]]] = {nid: [] for nid in node_weight}
        for ln in raw["lines"]:
            adjacent[str(ln["from"])].append((str(ln["to"]), ln))
            adjacent[str(ln["to"])].append((str(ln["from"]), ln))
        # orient every line away from the root: (upstream node, downstream node)
        oriented: dict[str, tuple[str, str, dict]] = {}
        seen, stack = {root}, [root]
        while stack:
            here = stack.pop()
            for there, ln in adjacent[here]:
                if there not in seen:
                    seen.add(there)
                    oriented[str(ln["id"])] = (here, there, ln)
                    stack.append(there)
        if len(oriented) != len(raw["lines"]):
            raise ValueError("instance is not a tree spanning its nodes")

        # union-find over the nodes joined by non-switch lines
        rep = {nid: nid for nid in node_weight}

        def find(x: str) -> str:
            while rep[x] != x:
                rep[x] = rep[rep[x]]
                x = rep[x]
            return x

        for up, down, ln in oriented.values():
            if not ln["switch"]:
                rep[find(up)] = find(down)

        lines_of: dict[str, list[str]] = {}
        for lid, (_, down, _) in oriented.items():
            lines_of.setdefault(find(down), []).append(lid)
        name = {r: min(lids) for r, lids in lines_of.items()}
        root_rep = find(root)
        if root_rep not in name:
            clash = root in name.values()
            name[root_rep] = f"root({root})" if clash else root

        island_of = {lid: name[r] for r, lids in lines_of.items() for lid in lids}
        members = {name[r]: sorted(lids) for r, lids in lines_of.items()}
        members.setdefault(name[root_rep], [])
        parent = {
            island_of[lid]: name[find(up)]
            for lid, (up, _, ln) in oriented.items()
            if ln["switch"]
        }
        weight = {iid: 0.0 for iid in members}
        for lid, (_, down, _) in oriented.items():
            weight[island_of[lid]] += node_weight[down]

        kids: dict[str, list[str]] = {iid: [] for iid in members}
        for child, par in parent.items():
            kids[par].append(child)
        order, stack = [], [name[root_rep]]
        while stack:
            here = stack.pop()
            order.append(here)
            stack.extend(kids[here])
        if len(order) != len(members):
            raise ValueError("island tree does not reach every island")
        p = {lid: float(ln["repair_time"]) for lid, (_, _, ln) in oriented.items()}
        return cls(p, island_of, members, parent, order, weight)

    def energization(self, completion: dict[str, float]) -> dict[str, float]:
        """Walk down the island tree: an island lights at max(own last repair, parent)."""
        out: dict[str, float] = {}
        for iid in self.order:
            own = max((completion[lid] for lid in self.members[iid]), default=0.0)
            up = out[self.parent[iid]] if iid in self.parent else 0.0
            out[iid] = max(own, up)
        return out

    def harm(self, energization: dict[str, float]) -> float:
        return math.fsum(self.weight[iid] * energization[iid] for iid in self.members)

    def unlimited_crews(self) -> dict[str, float]:
        """Energization when every line has its own crew: each finishes at its repair time."""
        return self.energization(self.p)


def check_schedule(feeder: Feeder, out: dict, m: int, convert: bool) -> list[str]:
    """Check one `gridrepair schedule` JSON output against the feeder."""
    problems: list[str] = []
    crews = out.get("assignments", [])
    if out.get("crews") != m or len(crews) != m:
        return [f"expected {m} crews, output has crews={out.get('crews')} and {len(crews)} lists"]

    placed: dict[str, tuple[float, int, int]] = {}
    completion: dict[str, float] = {}
    for c, jobs in enumerate(crews):
        free = 0.0
        for k, job in enumerate(jobs):
            lid, start, end = job["line"], float(job["start"]), float(job["completion"])
            if lid in placed:
                problems.append(f"line {lid} assigned twice")
            elif lid not in feeder.p:
                problems.append(f"unknown line {lid}")
            else:
                if not _close(end - start, feeder.p[lid]):
                    problems.append(f"line {lid}: completion - start = {end - start}, "
                                    f"repair time {feeder.p[lid]}")
                placed[lid] = (start, c, k)
                completion[lid] = end
            if not _close(start, free):
                problems.append(f"crew {c} idles or overlaps before {lid} ({free} -> {start})")
            free = end
    missing = sorted(set(feeder.p) - set(placed))
    if missing:
        problems.append(f"{len(missing)} lines never assigned, first {missing[0]}")
    if problems:
        return problems

    energization = feeder.energization(completion)
    reported = out.get("energization", {})
    if set(reported) != set(energization):
        return [f"islands differ: reported {len(reported)}, recomputed {len(energization)}"]
    for iid, e in energization.items():
        if not _close(float(reported[iid]), e):
            problems.append(f"island {iid}: reported energization {reported[iid]}, recomputed {e}")
    harm = feeder.harm(energization)
    reported_harm = float(out.get("harm", math.nan))
    if not _close(reported_harm, harm):
        problems.append(f"reported harm {reported_harm}, recomputed {harm}")
    lower = feeder.harm(feeder.unlimited_crews())
    if not reported_harm >= lower * (1 - TOL) - TOL:
        problems.append(f"reported harm {reported_harm} below the unlimited-crew bound {lower}")

    # list-scheduling property on the priority order recovered from the output
    priority = sorted(placed, key=lambda lid: placed[lid])
    before = 0.0
    for lid in priority:
        if placed[lid][0] > before / m + TOL * max(1.0, before):
            problems.append(f"line {lid} starts at {placed[lid][0]} after the average load {before / m}")
        before += feeder.p[lid]

    if convert:
        single: dict[str, float] = {}
        elapsed = 0.0
        for lid in priority:
            elapsed += feeder.p[lid]
            single[lid] = elapsed
        e1 = feeder.energization(single)
        e_inf = feeder.unlimited_crews()
        for iid, e in energization.items():
            bound = e1[iid] / m + (m - 1) / m * e_inf[iid]
            if e > bound + TOL * max(1.0, bound):
                problems.append(f"island {iid}: E={e} above E1/m + (m-1)/m*Einf = {bound}")
    return problems


_PERMUTATIONS: dict[int, np.ndarray] = {}

BRUTE_FORCE_LIMIT = 8


def optimum(feeder: Feeder, m: int) -> float:
    """Least harm over every m-crew list schedule of the damaged lines.

    Zero-time lines finish at 0 in front of every list.  Crews are
    identical, so each row keeps its crews' free times sorted and the next
    job takes the first; ties do not change any completion time.
    """
    if m not in feeder.optima:
        feeder.optima[m] = _brute_force(feeder, m)
    return feeder.optima[m]


def _brute_force(feeder: Feeder, m: int) -> float:
    damaged = sorted(lid for lid, t in feeder.p.items() if t > 0)
    n = len(damaged)
    if n > BRUTE_FORCE_LIMIT:
        raise ValueError(f"{n} damaged lines exceed the brute-force limit {BRUTE_FORCE_LIMIT}")
    if n == 0:
        return feeder.harm(feeder.energization({lid: 0.0 for lid in feeder.p}))
    if n not in _PERMUTATIONS:
        _PERMUTATIONS[n] = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    perms = _PERMUTATIONS[n]
    p = np.array([feeder.p[lid] for lid in damaged])
    free = np.zeros((len(perms), m))
    done = np.zeros((len(perms), n))
    rows = np.arange(len(perms))
    for pos in range(n):
        job = perms[:, pos]
        finish = free[:, 0] + p[job]
        done[rows, job] = finish
        free[:, 0] = finish
        free.sort(axis=1)
    column = {lid: k for k, lid in enumerate(damaged)}
    lit: dict[str, np.ndarray] = {}
    harm = np.zeros(len(perms))
    for iid in feeder.order:
        cols = [column[lid] for lid in feeder.members[iid] if lid in column]
        own = done[:, cols].max(axis=1) if cols else np.zeros(len(perms))
        lit[iid] = np.maximum(own, lit[feeder.parent[iid]]) if iid in feeder.parent else own
        harm += feeder.weight[iid] * lit[iid]
    return float(harm.min())


def check_row(feeder: Feeder, row: dict, m: int) -> list[str]:
    """Check one certified bench row against brute force and the proven ratios."""
    problems: list[str] = []
    if row["crews"] != m:
        problems.append(f"row crews {row['crews']}, expected {m}")
    if row["lines"] != len(feeder.p):
        problems.append(f"row lines {row['lines']}, instance has {len(feeder.p)}")
    if row["islands"] != len(feeder.members):
        problems.append(f"row islands {row['islands']}, recomputed {len(feeder.members)}")
    infinite = feeder.harm(feeder.unlimited_crews())
    if not _close(row["h_infinite"], infinite):
        problems.append(f"h_infinite {row['h_infinite']}, recomputed {infinite}")
    single = optimum(feeder, 1)
    if not _close(row["h_single"], single):
        problems.append(f"h_single {row['h_single']}, brute force {single}")
    opt = optimum(feeder, m)
    if row["h_opt"] is None or not _close(row["h_opt"], opt):
        return problems + [f"h_opt {row['h_opt']}, brute force {opt}"]
    slack = 1e-6 * max(1.0, opt)
    if row["h_alg1"] > 2.0 * opt + slack:
        problems.append(f"h_alg1 {row['h_alg1']} above 2 * opt {opt}")
    if row["h_alg2"] > (2.0 - 1.0 / m) * opt + slack:
        problems.append(f"h_alg2 {row['h_alg2']} above (2 - 1/m) * opt {opt}")
    if row["h_lp"] > opt + slack:
        problems.append(f"h_lp {row['h_lp']} above opt {opt}")
    for key in ("h_alg1", "h_alg2"):
        if row[key] < opt - slack:
            problems.append(f"{key} {row[key]} below opt {opt}: no schedule beats the optimum")
    return problems
