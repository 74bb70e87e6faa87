"""Damaged-feeder instance model: validation, island partition, precedence tree.

The network is a tree rooted at the single source node.  Node weights are
pushed onto the unique line feeding each node, switch lines induce the
island partition, and the islands form an out-tree that orders
energization.  Everything here is a pure function of the instance.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter, itemgetter
from typing import NamedTuple


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


# Named tuples, not dataclasses: a feeder builds thousands of them.  Read their
# fields by name: unpacking a tuple subclass takes CPython's slow path.
class Node(NamedTuple):
    id: str
    weight: float


class Line(NamedTuple):
    """A feeder line, oriented so `upstream` is the endpoint nearer the source."""

    id: str
    upstream: str
    downstream: str
    repair_time: float
    is_switch: bool


@dataclass(frozen=True)
class NetworkInstance:
    """A validated damaged feeder: a spanning tree of lines over the nodes.

    Nodes and lines are in id order, lines oriented away from the root.
    Undamaged lines are admitted with repair_time 0.  The repair-time table,
    the island partition and its precedence tree are derived on first use
    and kept with the instance; every reader shares them, so none may change
    them.
    """

    nodes: tuple[Node, ...]
    lines: tuple[Line, ...]
    root: str
    crews: int

    def node_weights(self) -> dict[str, float]:
        return {n.id: n.weight for n in self.nodes}

    def repair_times(self) -> dict[str, float]:
        return self._repair_times  # one dict per instance, shared by every caller

    @cached_property
    def _repair_times(self) -> dict[str, float]:
        return {ln.id: ln.repair_time for ln in self.lines}

    @cached_property
    def islands(self) -> IslandSet:
        return partition_islands(self)

    @cached_property
    def precedence(self) -> PrecedenceGraph:
        return build_precedence_graph(self, self.islands)


@dataclass(frozen=True)
class Island:
    """A maximal switch-free group of lines, energized as a unit.

    `line_ids` and `node_ids` are in id order.  `weight` and `processing`
    are the plain sums of the member line weights and repair times.  The
    island containing the source keeps the root node in `node_ids` and may
    own no lines at all (every line out of the source is a switch); it then
    gets the root node id as its id.
    """

    id: str
    line_ids: tuple[str, ...]
    node_ids: tuple[str, ...]
    weight: float
    processing: float


@dataclass(frozen=True)
class IslandSet:
    """The islands in id order.

    Each lookup table is built on first use and kept; every reader shares
    the one dict, so none may change it.
    """

    islands: tuple[Island, ...]

    @cached_property
    def island_of_line(self) -> dict[str, str]:
        return {lid: isl.id for isl in self.islands for lid in isl.line_ids}

    @cached_property
    def island_of_node(self) -> dict[str, str]:
        return {nid: isl.id for isl in self.islands for nid in isl.node_ids}

    @cached_property
    def weights(self) -> dict[str, float]:
        """Island weights, keyed in id order."""
        return {isl.id: isl.weight for isl in self.islands}


@dataclass(frozen=True)
class PrecedenceGraph:
    """Out-tree over islands: a child cannot energize before its parent.

    One edge per switch line; rooted at the island containing the source.
    The order and depths are built on first use and kept.
    """

    root: str
    parent: dict[str, str]

    def edges(self) -> list[tuple[str, str]]:
        return sorted((p, c) for c, p in self.parent.items())

    @cached_property
    def topological_order(self) -> tuple[str, ...]:
        """Parents before children, siblings in id order."""
        kids: dict[str, list[str]] = {}
        for child in sorted(self.parent, reverse=True):  # popped back in id order
            kids.setdefault(self.parent[child], []).append(child)
        order, stack = [], [self.root]
        while stack:
            cur = stack.pop()
            order.append(cur)
            stack.extend(kids.get(cur, ()))
        return tuple(order)

    @cached_property
    def depth(self) -> dict[str, int]:
        depths = {self.root: 0}
        for isl in self.topological_order[1:]:
            depths[isl] = depths[self.parent[isl]] + 1
        return depths


# Each check names the element as `owner.format(*args)`, built only when the
# check fails: formatting every element's name up front would cost more than
# the checks themselves on large feeders.


def _fields(entry: object, fields: tuple[str, ...], owner: str, *args: object) -> None:
    """Require `entry` to be an object with exactly `fields`."""
    if not isinstance(entry, dict):
        raise SchemaError(f"{owner.format(*args)} must be an object")
    for key in entry:
        if key not in fields:
            raise SchemaError(f"{owner.format(*args)} has unknown field {key!r}")
    for key in fields:
        if key not in entry:
            raise SchemaError(f"{owner.format(*args)} is missing field {key!r}")


def _number(value: object, name: str, owner: str, *args: object) -> float:
    """A JSON number as a finite float; booleans and strings are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{owner.format(*args)} has non-numeric {name} {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond float range
        number = math.inf
    if not math.isfinite(number):
        raise NonFiniteValue(f"{owner.format(*args)} has non-finite {name} {number}")
    return number


def _id(value: object, owner: str, *args: object) -> str:
    """A JSON string id; numbers, arrays and the rest are rejected, not converted."""
    if not isinstance(value, str):
        raise SchemaError(f"{owner.format(*args)} must be a string, got {value!r}")
    return value


_NODE_FIELDS, _LINE_FIELDS = ("id", "weight"), ("id", "from", "to", "repair_time", "switch")
_NODE_KEYS, _LINE_KEYS = frozenset(_NODE_FIELDS), frozenset(_LINE_FIELDS)
_LINE_ITEMS = itemgetter(*_LINE_FIELDS)
_FLOAT_MAX = sys.float_info.max  # a plain int or float in [0, _FLOAT_MAX] is finite as a float
new_record = tuple.__new__  # new_record(Node, (id, w)) is Node(id, w) minus its Python __new__


def validate(raw: dict) -> NetworkInstance:
    """Check a parsed raw instance and normalize it.

    Verifies every field is known, present and of its JSON type (ids and
    endpoints strings, crews an integer, weights and repair times numbers,
    switch a boolean), ids are unique, values are finite and non-negative,
    the line set is a spanning tree, and at least one node weight is
    positive; orients every line away from the root.  Nothing is coerced: a failing check
    raises a ValidationError subclass naming the offending element.

    An entry of the common shape (a plain dict with exactly its fields, str
    ids, plain int or float values in range) passes inline checks; any other
    entry takes the checks one by one, which accept a str or int subclass
    or name the failure.  Line records stay in file order until the final sort
    by id.  Only a file not already directed away from the root takes the
    orienting traversal, and only a failed one a union-find, which reports the
    first line that closes a cycle before a disconnected node.
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
        plain = type(entry) is dict and entry.keys() == _NODE_KEYS
        nid, w = (entry["id"], entry["weight"]) if plain else (None, None)
        if not (type(nid) is str and nid not in seen_nodes
                and type(w) in (int, float) and 0 <= w <= _FLOAT_MAX):
            _fields(entry, _NODE_FIELDS, "node entry {}", k)
            nid = _id(entry["id"], "node entry {} id", k)
            if nid in seen_nodes:
                raise DuplicateId(f"duplicate node id {nid!r}")
            w = _number(entry["weight"], "weight", "node {!r}", nid)
            if w < 0:
                raise NegativeWeight(f"node {nid!r} has negative weight {w}")
        seen_nodes.add(nid)
        nodes.append(new_record(Node, (nid, float(w))))

    root = _id(raw["root"], "root")
    if root not in seen_nodes:
        raise UnknownRoot(f"root {root!r} is not a node")

    lines: list[Line] = []  # in file order, as the file orients them until proven otherwise
    seen_lines: set[str] = set()
    feeder: dict[str, str] = {}  # `to` -> `from`
    for k, entry in enumerate(raw["lines"]):
        plain = type(entry) is dict and entry.keys() == _LINE_KEYS
        lid, u, v, p, sw = _LINE_ITEMS(entry) if plain else (None,) * 5
        if not (type(lid) is str and type(u) is str and type(v) is str
                and lid not in seen_lines and u in seen_nodes and v in seen_nodes
                and type(p) in (int, float) and 0 <= p <= _FLOAT_MAX and type(sw) is bool):
            _fields(entry, _LINE_FIELDS, "line entry {}", k)
            lid = _id(entry["id"], "line entry {} id", k)
            if lid in seen_lines:
                raise DuplicateId(f"duplicate line id {lid!r}")
            u = _id(entry["from"], "line {!r} 'from'", lid)
            v = _id(entry["to"], "line {!r} 'to'", lid)
            for end in (u, v):
                if end not in seen_nodes:
                    raise UnknownEndpoint(f"line {lid!r} endpoint {end!r} is not a node")
            p = _number(entry["repair_time"], "repair time", "line {!r}", lid)
            if p < 0:
                raise NegativeRepairTime(f"line {lid!r} has negative repair time {p}")
            sw = entry["switch"]
            if not isinstance(sw, bool):
                raise SchemaError(f"line {lid!r} switch flag must be a boolean, got {sw!r}")
        seen_lines.add(lid)
        lines.append(new_record(Line, (lid, u, v, float(p), sw)))
        feeder[v] = u

    # the file's orientation stands if n - 1 lines feed each non-root node once, up to the root
    oriented = len(feeder) == len(lines) == len(seen_nodes) - 1 and root not in feeder
    reached = {root} if oriented else set()
    for node, up in feeder.items() if reached else ():
        if up in reached:  # its feeder already reaches the root
            reached.add(node)
            continue
        path = [node]
        while up not in reached and len(path) < len(lines):
            path.append(up)
            up = feeder[up]
        if up not in reached:  # n - 1 lines up and not at the root: a cycle
            break
        reached.update(path)
    if len(reached) < len(seen_nodes):  # orient by traversal
        adjacency: dict[str, list[tuple[str, int]]] = {nid: [] for nid in seen_nodes}
        for k, ln in enumerate(lines):
            adjacency[ln.upstream].append((ln.downstream, k))
            adjacency[ln.downstream].append((ln.upstream, k))
        visited, stack = {root}, [root]
        while stack:
            cur = stack.pop()
            for other, k in adjacency[cur]:
                if other not in visited:
                    visited.add(other)
                    stack.append(other)
                    if lines[k].downstream != other:  # given reversed
                        lid, u, v, p, sw = lines[k]
                        lines[k] = new_record(Line, (lid, v, u, p, sw))
        if len(visited) < len(seen_nodes) or len(lines) != len(seen_nodes) - 1:
            # union-find over endpoints: a line joining a connected pair closes a cycle
            comp = {nid: nid for nid in seen_nodes}
            for lid, u, v in map(itemgetter("id", "from", "to"), raw["lines"]):
                ru, rv = u, v
                while comp[ru] != ru:
                    comp[ru] = ru = comp[comp[ru]]  # path halving
                while comp[rv] != rv:
                    comp[rv] = rv = comp[comp[rv]]
                if ru == rv:
                    raise CycleDetected(f"line {lid!r} ({u!r}-{v!r}) closes a cycle")
                comp[ru] = rv
            # acyclic lines that reach every node number n - 1, so some node is unreached
            missing = sorted(seen_nodes - visited)[0]
            raise Disconnected(f"node {missing!r} is not connected to the root")

    if all(node.weight == 0 for node in nodes):
        raise AllWeightsZero("every node weight is zero")
    # outputs are at most these totals; the margin covers rounding in sums of < 2**30 terms
    total = sum(map(attrgetter("repair_time"), lines))
    weight = sum(node.weight for node in nodes if node.id != root) * total
    for name, value in (("repair time", total), ("weight times total repair time", weight)):
        if not math.isfinite(value * (1 + 2**-20)):
            raise NonFiniteValue(f"total {name} {value} is not finite within rounding")
    lines.sort(key=itemgetter(0))  # by unique id: a str key takes the sort's fast compare
    nodes.sort(key=itemgetter(0))
    return NetworkInstance(nodes=tuple(nodes), lines=tuple(lines), root=root, crews=crews)


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

    Each node's island is found in one memoized walk up its feeding lines:
    the root and every node fed by a switch line head their own island, and
    any other node is in its upstream node's island.  One pass over the
    id-ordered nodes and one over the id-ordered lines then group them by
    island, already in id order.
    """
    feeding = {ln.downstream: ln for ln in instance.lines}
    head = {instance.root: instance.root}
    groups = {instance.root: ([], [])}  # per head: its node ids and its lines, in id order
    for node in feeding:
        top = node  # up to the first node with a head, or one fed by a switch line
        while top not in head:
            line = feeding[top]
            if line.is_switch:
                head[top], groups[top] = top, ([], [])
                break
            top = line.upstream
        rep = head[top]
        while node not in head:
            head[node] = rep
            node = feeding[node].upstream
    for node in instance.nodes:
        groups[head[node.id]][0].append(node.id)
    for ln in instance.lines:
        groups[head[ln.downstream]][1].append(ln)

    weights, line_id = instance.node_weights(), attrgetter("id")
    downstream, repair_time = attrgetter("downstream"), attrgetter("repair_time")
    islands = []
    taken: set[str] = set()
    for node_ids, lines in groups.values():
        line_ids = tuple(map(line_id, lines))
        if line_ids:
            island_id = line_ids[0]
        else:
            island_id = instance.root
            if island_id in {g[1][0].id for g in groups.values() if g[1]}:
                island_id = f"root({instance.root})"
        if island_id in taken:
            raise ValidationError(f"island id collision on {island_id!r}")
        taken.add(island_id)
        # sum() over id-ordered values, not a += loop: from Python 3.12 the two differ;
        # a 0.0 start keeps an island with no lines a float and leaves other sums alone
        islands.append(Island(island_id, line_ids, tuple(node_ids),
                              weight=sum(map(weights.__getitem__, map(downstream, lines)), 0.0),
                              processing=sum(map(repair_time, lines), 0.0)))
    islands.sort(key=lambda isl: isl.id)
    return IslandSet(islands=tuple(islands))


def build_precedence_graph(instance: NetworkInstance, islands: IslandSet) -> PrecedenceGraph:
    """Contract each island to a vertex; switch lines become the tree edges.

    The edge runs from the island owning the switch line's upstream
    endpoint to the island owning the line itself, so the result is an
    out-tree rooted at the source island with one edge per switch.
    """
    of_node, of_line = islands.island_of_node, islands.island_of_line
    parent: dict[str, str] = {}
    for ln in instance.lines:
        if ln.is_switch:
            parent[of_line[ln.id]] = of_node[ln.upstream]
    return PrecedenceGraph(root=of_node[instance.root], parent=parent)
