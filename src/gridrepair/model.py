"""Damaged-feeder instance model: validation, island partition, precedence tree.

The network is a tree rooted at the single source node.  Node weights are
pushed onto the unique line feeding each node, switch lines induce the
island partition, and the islands form an out-tree that orders
energization.  Everything here is a pure function of the instance.
"""

from __future__ import annotations

import math
import sys
from functools import cached_property
from itertools import compress
from operator import attrgetter, itemgetter
from typing import NamedTuple


class ValidationError(ValueError):
    """Raised for every rejected input: a file that is not JSON, an instance that
    fails a check of `validate`, or an LP number HiGHS cannot take.  The message
    names the offending element and the rule it breaks."""


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


class Record:
    """A frozen dataclass's init, equality, hash and repr over `_fields`, the fields
    annotated in the subclass, with no code generated per class at import (about
    0.5 ms each).  The fields sit in `__dict__` beside `cached_property` tables that
    take part in no comparison; both pickle."""

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))

    def __init__(self, *args: object, **kwargs: object) -> None:
        values = dict(zip(self._fields, args), **kwargs)
        if len(values) != len(args) + len(kwargs) or values.keys() != set(self._fields):
            raise TypeError(f"{type(self).__name__} takes the fields {self._fields}")
        self.__dict__.update(values)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other: object) -> bool:
        same = other.__class__ is self.__class__
        return self._values() == other._values() if same else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"


class NetworkInstance(Record):
    """A validated damaged feeder: a spanning tree of lines over the nodes.

    Nodes and lines are in id order, lines oriented away from the root.
    Undamaged lines are admitted with repair_time 0.  The repair-time table, the
    island partition, its precedence tree and the unlimited-crew energization are
    derived on first use and kept with the instance; no reader may change them.
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
    def _heads(self) -> dict[str, str]:
        """Each node's island head; `validate` fills it from the walk that proves
        a file already oriented, and any other instance walks its own lines."""
        return island_heads({ln.downstream: ln.upstream for ln in self.lines},
                            {ln.downstream for ln in self.lines if ln.is_switch}, self.root)

    @cached_property
    def islands(self) -> IslandSet:
        return partition_islands(self)

    @cached_property
    def precedence(self) -> PrecedenceGraph:
        return build_precedence_graph(self, self.islands)

    @cached_property
    def infinite_crew_energization(self) -> tuple[dict[str, float], float]:
        """`schedule.infinite_crew_energization` of the instance's own islands."""
        from gridrepair import schedule as sched  # which imports this module
        return sched.infinite_crew_energization(self.islands, self.precedence, self._repair_times)


class Island(NamedTuple):  # a tuple, like Node and Line: one per switch line, plus the root's
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


class IslandSet(Record):
    """The islands in id order.

    Each lookup table is built on first use and kept; every reader shares
    the one dict, so none may change it.
    """

    islands: tuple[Island, ...]

    @cached_property
    def island_of_line(self) -> dict[str, str]:
        return {lid: isl.id for isl in self.islands for lid in isl.line_ids}

    @cached_property
    def weights(self) -> dict[str, float]:
        """Island weights, keyed in id order."""
        return {isl.id: isl.weight for isl in self.islands}


class PrecedenceGraph(Record):
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
        for child, parent in sorted(self.parent.items(), reverse=True):  # popped back in id order
            kids.setdefault(parent, []).append(child)
        order, stack = [], [self.root]
        while stack:
            cur = stack.pop()
            order.append(cur)
            stack.extend(kids.get(cur, ()))
        return tuple(order)

    @cached_property
    def depth(self) -> dict[str, int]:
        depths, parent = {self.root: 0}, self.parent
        for isl in self.topological_order[1:]:
            depths[isl] = depths[parent[isl]] + 1
        return depths


# Each check names the element as `owner.format(*args)`, built only when the
# check fails: formatting every element's name up front would cost more than
# the checks themselves on large feeders.


def _fields(entry: object, fields: tuple[str, ...], owner: str, *args: object) -> None:
    """Require `entry` to be an object with exactly `fields`."""
    if not isinstance(entry, dict):
        raise ValidationError(f"{owner.format(*args)} must be an object")
    for key in entry:
        if key not in fields:
            raise ValidationError(f"{owner.format(*args)} has unknown field {key!r}")
    for key in fields:
        if key not in entry:
            raise ValidationError(f"{owner.format(*args)} is missing field {key!r}")


def _number(value: object, name: str, owner: str, *args: object) -> float:
    """A JSON number as a finite float; booleans and strings are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{owner.format(*args)} has non-numeric {name} {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond float range
        number = math.inf
    if not math.isfinite(number):
        raise ValidationError(f"{owner.format(*args)} has non-finite {name} {number}")
    return number


def _id(value: object, owner: str, *args: object) -> str:
    """A JSON string id; numbers, arrays and the rest are rejected, not converted."""
    if not isinstance(value, str):
        raise ValidationError(f"{owner.format(*args)} must be a string, got {value!r}")
    return value


_NODE_FIELDS, _LINE_FIELDS = ("id", "weight"), ("id", "from", "to", "repair_time", "switch")
_NODE_ITEMS, _LINE_ITEMS = itemgetter(*_NODE_FIELDS), itemgetter(*_LINE_FIELDS)
_FLOAT_MAX = sys.float_info.max  # a plain int or float in [0, _FLOAT_MAX] is finite as a float
new_record = tuple.__new__  # new_record(Node, (id, w)) is Node(id, w) minus its Python __new__


def island_heads(feeder: dict[str, str], switched: set[str], root: str) -> dict[str, str] | None:
    """Each node's island head, in one memoized walk up `feeder` (node -> the
    node feeding it): the root and every node in `switched`, fed by a switch
    line, head their own island; any other node is in its feeder's.  None if
    a chain of feeders does not reach the root within len(feeder) steps: it
    loops, so bounding the walk keeps it O(n).
    """
    head = {root: root}
    for node, up in feeder.items():
        if up in head:  # the usual case: a feeder listed before the nodes it feeds
            head[node] = node if node in switched else head[up]
            continue
        path = [node]
        while up not in head and len(path) < len(feeder):
            path.append(up)
            up = feeder[up]
        if up not in head:
            return None
        top = head[up]
        for node in reversed(path):
            top = head[node] = node if node in switched else top
    return head


def validate(raw: dict) -> NetworkInstance:
    """Check a parsed raw instance and normalize it.

    Verifies every field is known, present and of its JSON type (ids and
    endpoints strings, crews an integer, weights and repair times numbers,
    switch a boolean), ids are unique, values are finite and non-negative,
    the line set is a spanning tree, and at least one node weight is
    positive; orients every line away from the root.  Nothing is coerced: a failing check
    raises a ValidationError naming the offending element.

    An entry of the common shape (a plain dict with exactly its fields, str
    ids, plain int or float values in range) passes inline checks; any other
    entry takes the checks one by one, which accept a str or int subclass
    or name the failure.  Line records stay in file order until the final sort
    by id.  Only a file not already directed away from the root takes the
    orienting traversal, and only a failed one a union-find, which reports the
    first line that closes a cycle before a disconnected node.  A file already
    so directed is proved a tree by the walk of `island_heads`, which also
    heads its islands; the instance keeps those heads for `partition_islands`.
    """
    _fields(raw, ("root", "crews", "nodes", "lines"), "instance")
    crews = raw["crews"]
    if isinstance(crews, bool) or not isinstance(crews, int):
        raise ValidationError(f"crews must be an integer, got {crews!r}")
    if crews < 1:
        raise ValidationError(f"crews must be >= 1, got {crews}")
    for key in ("nodes", "lines"):
        if not isinstance(raw[key], list):
            raise ValidationError(f"{key} must be an array")

    nodes: list[Node] = []
    seen_nodes: set[str] = set()
    for k, entry in enumerate(raw["nodes"]):
        try:  # a plain dict of two entries with both fields has no other
            nid, w = _NODE_ITEMS(entry) if type(entry) is dict and len(entry) == 2 else (None,) * 2
        except KeyError:
            nid = w = None
        if not (type(nid) is str and nid not in seen_nodes
                and type(w) in (int, float) and 0 <= w <= _FLOAT_MAX):
            _fields(entry, _NODE_FIELDS, "node entry {}", k)
            nid = _id(entry["id"], "node entry {} id", k)
            if nid in seen_nodes:
                raise ValidationError(f"duplicate node id {nid!r}")
            w = _number(entry["weight"], "weight", "node {!r}", nid)
            if w < 0:
                raise ValidationError(f"node {nid!r} has negative weight {w}")
        seen_nodes.add(nid)
        nodes.append(new_record(Node, (nid, float(w))))

    root = _id(raw["root"], "root")
    if root not in seen_nodes:
        raise ValidationError(f"root {root!r} is not a node")

    lines: list[Line] = []  # in file order, as the file orients them until proven otherwise
    seen_lines: set[str] = set()
    feeder: dict[str, str] = {}  # `to` -> `from`
    switched: set[str] = set()  # the `to` of each switch line
    for k, entry in enumerate(raw["lines"]):
        try:
            lid, u, v, p, sw = (_LINE_ITEMS(entry) if type(entry) is dict and len(entry) == 5
                                else (None,) * 5)
        except KeyError:
            lid = u = v = p = sw = None
        if not (type(lid) is str and type(u) is str and type(v) is str
                and lid not in seen_lines and u in seen_nodes and v in seen_nodes
                and type(p) in (int, float) and 0 <= p <= _FLOAT_MAX and type(sw) is bool):
            _fields(entry, _LINE_FIELDS, "line entry {}", k)
            lid = _id(entry["id"], "line entry {} id", k)
            if lid in seen_lines:
                raise ValidationError(f"duplicate line id {lid!r}")
            u = _id(entry["from"], "line {!r} 'from'", lid)
            v = _id(entry["to"], "line {!r} 'to'", lid)
            for end in (u, v):
                if end not in seen_nodes:
                    raise ValidationError(f"line {lid!r} endpoint {end!r} is not a node")
            p = _number(entry["repair_time"], "repair time", "line {!r}", lid)
            if p < 0:
                raise ValidationError(f"line {lid!r} has negative repair time {p}")
            sw = entry["switch"]
            if not isinstance(sw, bool):
                raise ValidationError(f"line {lid!r} switch flag must be a boolean, got {sw!r}")
        seen_lines.add(lid)
        lines.append(new_record(Line, (lid, u, v, float(p), sw)))
        feeder[v] = u
        if sw:
            switched.add(v)

    # the file's orientation stands if n - 1 lines feed each non-root node once, up to the root
    oriented = len(feeder) == len(lines) == len(seen_nodes) - 1 and root not in feeder
    heads = island_heads(feeder, switched, root) if oriented else None
    if heads is None:  # orient by traversal
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
                    raise ValidationError(f"line {lid!r} ({u!r}-{v!r}) closes a cycle")
                comp[ru] = rv
            # acyclic lines that reach every node number n - 1, so some node is unreached
            missing = sorted(seen_nodes - visited)[0]
            raise ValidationError(f"node {missing!r} is not connected to the root")

    if all(node.weight == 0 for node in nodes):
        raise ValidationError("every node weight is zero")
    # outputs are at most these totals; the margin covers rounding in sums of < 2**30 terms
    total = sum(map(attrgetter("repair_time"), lines))
    weight = sum(node.weight for node in nodes if node.id != root) * total
    for name, value in (("repair time", total), ("weight times total repair time", weight)):
        if not math.isfinite(value * (1 + 2**-20)):
            raise ValidationError(f"total {name} {value} is not finite within rounding")
    lines.sort(key=itemgetter(0))  # by unique id: a str key takes the sort's fast compare
    nodes.sort(key=itemgetter(0))
    instance = NetworkInstance(nodes=tuple(nodes), lines=tuple(lines), root=root, crews=crews)
    if heads is not None:  # the walk that proved the file's orientation found them
        instance.__dict__["_heads"] = heads
    return instance


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

    Each node's island is that of its head (see `island_heads`), kept with
    the instance.  One pass over the id-ordered nodes and one over the
    id-ordered lines group them by head, already in id order.
    """
    heads = instance._heads
    # per head: its node ids and its lines
    groups = {top: ([], []) for top in dict.fromkeys(heads.values())}
    for nid in map(itemgetter(0), instance.nodes):
        groups[heads[nid]][0].append(nid)
    for ln, top in zip(instance.lines, map(heads.__getitem__, map(itemgetter(2), instance.lines))):
        groups[top][1].append(ln)

    weights, line_id = instance.node_weights(), itemgetter(0)
    downstream, repair_time = itemgetter(2), itemgetter(3)
    islands = []
    for node_ids, lines in groups.values():
        line_ids = tuple(map(line_id, lines))
        if line_ids:  # its smallest line id, unique among islands
            island_id = line_ids[0]
        else:  # the root island, the one island that can own no lines
            firsts = {g[1][0].id for g in groups.values() if g[1]}
            island_id = instance.root if instance.root not in firsts else f"root({instance.root})"
            if island_id in firsts:
                raise ValidationError(f"island id collision on {island_id!r}")
        # sum() over id-ordered values, not a += loop: from Python 3.12 the two differ;
        # a 0.0 start keeps an island with no lines a float and leaves other sums alone
        islands.append(new_record(Island, (
            island_id, line_ids, tuple(node_ids),
            sum(map(weights.__getitem__, map(downstream, lines)), 0.0),  # weight
            sum(map(repair_time, lines), 0.0))))  # processing
    islands.sort(key=itemgetter(0))  # by unique id
    return IslandSet(islands=tuple(islands))


def build_precedence_graph(instance: NetworkInstance, islands: IslandSet) -> PrecedenceGraph:
    """Contract each island to a vertex; switch lines become the tree edges.

    The edge runs from the island owning the switch line's upstream
    endpoint to the island owning the line itself, so the result is an
    out-tree rooted at the source island with one edge per switch.  Islands
    are found by head: the head of an island's first node is its head, and a
    switch line feeds the head of its own island.
    """
    heads = instance._heads
    of_head = {heads[isl.node_ids[0]]: isl.id for isl in islands.islands}
    parent: dict[str, str] = {}
    for ln in compress(instance.lines, map(itemgetter(4), instance.lines)):  # the switch lines
        parent[of_head[ln.downstream]] = of_head[heads[ln.upstream]]
    return PrecedenceGraph(root=of_head[instance.root], parent=parent)
