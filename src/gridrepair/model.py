"""Damaged-feeder instance model: validation, island partition, precedence tree.

The network is a tree rooted at the single source node.  Node weights are
pushed onto the unique line feeding each node, switch lines induce the
island partition, and the islands form an out-tree that orders
energization.  Everything here is a pure function of the instance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property


class ValidationError(ValueError):
    """Raised when an instance fails a structural check; names the element."""


class SchemaError(ValidationError):
    """A field is unknown, missing, or not of its JSON type."""


class DuplicateId(ValidationError):
    pass


class UnknownRoot(ValidationError):
    pass


class UnknownEndpoint(ValidationError):
    pass


class CycleDetected(ValidationError):
    pass


class Disconnected(ValidationError):
    pass


class NegativeRepairTime(ValidationError):
    pass


class NegativeWeight(ValidationError):
    pass


class AllWeightsZero(ValidationError):
    pass


class InvalidCrewCount(ValidationError):
    pass


class NonFiniteValue(ValidationError):
    pass


@dataclass(frozen=True)
class Node:
    id: str
    weight: float


@dataclass(frozen=True)
class Line:
    """A feeder line, oriented so `upstream` is the endpoint nearer the source."""

    id: str
    upstream: str
    downstream: str
    repair_time: float
    is_switch: bool


@dataclass(frozen=True)
class NetworkInstance:
    """A validated damaged feeder: a spanning tree of lines over the nodes.

    Lines are stored oriented away from the root.  Undamaged lines are
    admitted with repair_time 0.  The island partition and its precedence
    tree are derived on first use and kept with the instance.
    """

    nodes: tuple[Node, ...]
    lines: tuple[Line, ...]
    root: str
    crews: int

    def node_weights(self) -> dict[str, float]:
        return {n.id: n.weight for n in self.nodes}

    def repair_times(self) -> dict[str, float]:
        return {ln.id: ln.repair_time for ln in self.lines}

    def line_ids(self) -> list[str]:
        return [ln.id for ln in self.lines]

    @cached_property
    def islands(self) -> IslandSet:
        return partition_islands(self)

    @cached_property
    def precedence(self) -> PrecedenceGraph:
        return build_precedence_graph(self, self.islands)


@dataclass(frozen=True)
class Island:
    """A maximal switch-free group of lines, energized as a unit.

    `weight` and `processing` are the plain sums of the member line
    weights and repair times.  The island containing the source keeps the
    root node in `node_ids` and may own no lines at all (every line out
    of the source is a switch); it then gets the root node id as its id.
    """

    id: str
    line_ids: tuple[str, ...]
    node_ids: tuple[str, ...]
    weight: float
    processing: float


@dataclass(frozen=True)
class IslandSet:
    islands: tuple[Island, ...]

    def by_id(self) -> dict[str, Island]:
        return {isl.id: isl for isl in self.islands}

    def island_of_line(self) -> dict[str, str]:
        return {lid: isl.id for isl in self.islands for lid in isl.line_ids}

    def island_of_node(self) -> dict[str, str]:
        return {nid: isl.id for isl in self.islands for nid in isl.node_ids}

    def weights(self) -> dict[str, float]:
        return {isl.id: isl.weight for isl in self.islands}

    def ids(self) -> list[str]:
        return [isl.id for isl in self.islands]


@dataclass(frozen=True)
class PrecedenceGraph:
    """Out-tree over islands: a child cannot energize before its parent.

    One edge per switch line; rooted at the island containing the source.
    """

    root: str
    parent: dict[str, str]

    def edges(self) -> list[tuple[str, str]]:
        return sorted((p, c) for c, p in self.parent.items())

    def children(self) -> dict[str, list[str]]:
        out: dict[str, list[str]] = {self.root: []}
        for child, par in self.parent.items():
            out.setdefault(par, []).append(child)
            out.setdefault(child, [])
        for kids in out.values():
            kids.sort()
        return out

    def topological_order(self) -> list[str]:
        """Parents before children, siblings in id order."""
        kids = self.children()
        order, stack = [], [self.root]
        while stack:
            cur = stack.pop()
            order.append(cur)
            stack.extend(reversed(kids[cur]))
        return order

    def depth(self) -> dict[str, int]:
        depths = {self.root: 0}
        for isl in self.topological_order()[1:]:
            depths[isl] = depths[self.parent[isl]] + 1
        return depths


def _fields(entry: object, fields: tuple[str, ...], what: str) -> None:
    """Require `entry` to be an object with exactly `fields`."""
    if not isinstance(entry, dict):
        raise SchemaError(f"{what} must be an object")
    for key in entry:
        if key not in fields:
            raise SchemaError(f"{what} has unknown field {key!r}")
    for key in fields:
        if key not in entry:
            raise SchemaError(f"{what} is missing field {key!r}")


def _number(value: object, owner: str, name: str) -> float:
    """A JSON number as a finite float; booleans and strings are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{owner} has non-numeric {name} {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond float range
        number = math.inf
    if not math.isfinite(number):
        raise NonFiniteValue(f"{owner} has non-finite {name} {number}")
    return number


def validate(raw: dict) -> NetworkInstance:
    """Check a parsed raw instance and normalize it.

    Verifies every field is known, present and of its JSON type (crews an
    integer, weights and repair times numbers, switch a boolean), ids are
    unique, values are finite and non-negative, the line set is a
    spanning tree, and at least one node weight is positive; orients
    every line away from the root.  Nothing is coerced: a failing check
    raises a ValidationError subclass naming the offending element.
    """
    _fields(raw, ("root", "crews", "nodes", "lines"), "instance")
    crews = raw["crews"]
    if isinstance(crews, bool) or not isinstance(crews, int):
        raise SchemaError(f"crews must be an integer, got {crews!r}")
    if crews < 1:
        raise InvalidCrewCount(f"crews must be >= 1, got {crews}")
    for key in ("nodes", "lines"):
        if not isinstance(raw[key], list):
            raise SchemaError(f"{key} must be an array")

    nodes: list[Node] = []
    seen_nodes: set[str] = set()
    for k, entry in enumerate(raw["nodes"]):
        _fields(entry, ("id", "weight"), f"node entry {k}")
        nid = str(entry["id"])
        if nid in seen_nodes:
            raise DuplicateId(f"duplicate node id {nid!r}")
        seen_nodes.add(nid)
        w = _number(entry["weight"], f"node {nid!r}", "weight")
        if w < 0:
            raise NegativeWeight(f"node {nid!r} has negative weight {w}")
        nodes.append(Node(nid, w))

    root = str(raw["root"])
    if root not in seen_nodes:
        raise UnknownRoot(f"root {root!r} is not a node")

    raw_lines: list[tuple[str, str, str, float, bool]] = []
    seen_lines: set[str] = set()
    for k, entry in enumerate(raw["lines"]):
        _fields(entry, ("id", "from", "to", "repair_time", "switch"), f"line entry {k}")
        lid = str(entry["id"])
        if lid in seen_lines:
            raise DuplicateId(f"duplicate line id {lid!r}")
        seen_lines.add(lid)
        u, v = str(entry["from"]), str(entry["to"])
        for end in (u, v):
            if end not in seen_nodes:
                raise UnknownEndpoint(f"line {lid!r} endpoint {end!r} is not a node")
        p = _number(entry["repair_time"], f"line {lid!r}", "repair time")
        if p < 0:
            raise NegativeRepairTime(f"line {lid!r} has negative repair time {p}")
        sw = entry["switch"]
        if not isinstance(sw, bool):
            raise SchemaError(f"line {lid!r} switch flag must be a boolean, got {sw!r}")
        raw_lines.append((lid, u, v, p, sw))

    # union-find over endpoints: a line joining an already-connected pair closes a cycle
    comp = {nid: nid for nid in seen_nodes}

    def find(x: str) -> str:
        while comp[x] != x:
            comp[x] = comp[comp[x]]
            x = comp[x]
        return x

    adjacency: dict[str, list[tuple[str, int]]] = {nid: [] for nid in seen_nodes}
    for k, (lid, u, v, _, _) in enumerate(raw_lines):
        ru, rv = find(u), find(v)
        if ru == rv:
            raise CycleDetected(f"line {lid!r} ({u!r}-{v!r}) closes a cycle")
        comp[ru] = rv
        adjacency[u].append((v, k))
        adjacency[v].append((u, k))

    # orient away from the root by traversal
    parent_of: dict[str, int] = {}
    visited = {root}
    stack = [root]
    while stack:
        cur = stack.pop()
        for other, k in adjacency[cur]:
            if other not in visited:
                visited.add(other)
                parent_of[other] = k
                stack.append(other)
    if len(visited) < len(seen_nodes):
        missing = sorted(seen_nodes - visited)[0]
        raise Disconnected(f"node {missing!r} is not connected to the root")
    if len(raw_lines) != len(seen_nodes) - 1:
        raise ValidationError(
            f"{len(raw_lines)} lines cannot span {len(seen_nodes)} nodes"
        )

    weights = {n.id: n.weight for n in nodes}
    if all(weights[nid] == 0 for nid in seen_nodes):
        raise AllWeightsZero("every node weight is zero")

    lines = []
    for node_id, k in parent_of.items():
        lid, u, v, p, sw = raw_lines[k]
        up = v if u == node_id else u
        lines.append(Line(lid, up, node_id, p, sw))
    lines.sort(key=lambda ln: ln.id)

    return NetworkInstance(
        nodes=tuple(sorted(nodes, key=lambda n: n.id)),
        lines=tuple(lines),
        root=root,
        crews=crews,
    )


def derive_line_weights(instance: NetworkInstance) -> dict[str, float]:
    """Push each non-root node's weight onto its feeding line.

    The root's weight lands on no line: the source is energized throughout.
    """
    weights = instance.node_weights()
    return {ln.id: weights[ln.downstream] for ln in instance.lines}


def partition_islands(instance: NetworkInstance) -> IslandSet:
    """Split the feeder into islands: components left after deleting switch lines.

    Each switch line joins its downstream island, since that island stays
    dark until the switch line itself is repaired.  Island ids are the
    smallest member line id (the root island falls back to the root node
    id when it owns no lines), so the partition is independent of input
    line order.
    """
    comp = {n.id: n.id for n in instance.nodes}

    def find(x: str) -> str:
        while comp[x] != x:
            comp[x] = comp[comp[x]]
            x = comp[x]
        return x

    for ln in instance.lines:
        if not ln.is_switch:
            comp[find(ln.upstream)] = find(ln.downstream)

    members: dict[str, list[str]] = {}
    for n in instance.nodes:
        members.setdefault(find(n.id), []).append(n.id)

    line_groups: dict[str, list[str]] = {rep: [] for rep in members}
    for ln in instance.lines:
        line_groups[find(ln.downstream)].append(ln.id)

    line_weights = derive_line_weights(instance)
    repair = instance.repair_times()

    islands = []
    taken: set[str] = set()
    for rep, node_ids in members.items():
        line_ids = sorted(line_groups[rep])
        if line_ids:
            island_id = line_ids[0]
        else:
            island_id = instance.root
            if island_id in {sorted(g)[0] for g in line_groups.values() if g}:
                island_id = f"root({instance.root})"
        if island_id in taken:
            raise ValidationError(f"island id collision on {island_id!r}")
        taken.add(island_id)
        islands.append(
            Island(
                id=island_id,
                line_ids=tuple(line_ids),
                node_ids=tuple(sorted(node_ids)),
                weight=sum(line_weights[lid] for lid in line_ids),
                processing=sum(repair[lid] for lid in line_ids),
            )
        )
    islands.sort(key=lambda isl: isl.id)
    return IslandSet(islands=tuple(islands))


def build_precedence_graph(instance: NetworkInstance, islands: IslandSet) -> PrecedenceGraph:
    """Contract each island to a vertex; switch lines become the tree edges.

    The edge runs from the island owning the switch line's upstream
    endpoint to the island owning the line itself, so the result is an
    out-tree rooted at the source island with one edge per switch.
    """
    of_node = islands.island_of_node()
    of_line = islands.island_of_line()
    parent: dict[str, str] = {}
    for ln in instance.lines:
        if ln.is_switch:
            parent[of_line[ln.id]] = of_node[ln.upstream]
    return PrecedenceGraph(root=of_node[instance.root], parent=parent)
