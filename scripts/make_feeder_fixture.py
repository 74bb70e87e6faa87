#!/usr/bin/env python3
"""Regenerate fixtures/feeder123.json, a 123-node feeder with 6 switches.

Seven islands of realistic sizes hang off a branching precedence tree:

    I0 -> I1 -> I3
       |     -> I4
       -> I2 -> I5 -> I6

Deterministic: same script, same bytes.  Run from the repo root:

    python scripts/make_feeder_fixture.py
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gridrepair.model import validate  # noqa: E402

ISLAND_NODE_COUNTS = [24, 18, 17, 16, 17, 15, 16]  # sums to 123
ISLAND_PARENT = [None, 0, 0, 1, 1, 2, 5]
SEED = 20230815


def build() -> dict:
    rng = random.Random(SEED)
    nodes: list[dict] = []
    lines: list[dict] = []
    island_nodes: list[list[str]] = []

    def new_node() -> str:
        nid = f"n{len(nodes) + 1:03d}"
        nodes.append({"id": nid, "weight": rng.randint(0, 10)})
        return nid

    def new_line(u: str, v: str, switch: bool) -> None:
        lid = f"l{len(lines) + 1:03d}"
        # roughly one line in six is undamaged
        p = 0 if rng.random() < 1 / 6 else rng.randint(1, 10)
        lines.append(
            {"id": lid, "from": u, "to": v, "repair_time": p, "switch": switch}
        )

    for k, count in enumerate(ISLAND_NODE_COUNTS):
        head = new_node()
        members = [head]
        for _ in range(count - 1):
            parent = members[rng.randrange(len(members))]
            child = new_node()
            new_line(parent, child, switch=False)
            members.append(child)
        island_nodes.append(members)
        if ISLAND_PARENT[k] is not None:
            upstream = island_nodes[ISLAND_PARENT[k]]
            new_line(upstream[rng.randrange(len(upstream))], head, switch=True)

    return {
        "root": island_nodes[0][0],
        "crews": 3,
        "nodes": nodes,
        "lines": lines,
    }


def main() -> None:
    raw = build()
    validate(raw)  # must validate
    out = Path(__file__).resolve().parent.parent / "fixtures" / "feeder123.json"
    out.write_text(json.dumps(raw, indent=2) + "\n")
    print(f"wrote {out}: {len(raw['nodes'])} nodes, {len(raw['lines'])} lines")


if __name__ == "__main__":
    main()
