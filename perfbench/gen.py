"""Seeded input generator for the benchmark workloads.

Writes each workload's instance files once per seed into a cache under
``perfbench/.cache`` (ignored by git) together with a ``manifest.json``
that lists the operations in the order every run performs them.  The
program under test only ever receives these files.  Nothing here imports
``gridrepair``, so a change to the program's own generator cannot change
the benchmark's inputs.

    python3 perfbench/gen.py --workload lp-feeders --seed 1
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
from pathlib import Path

CACHE = Path(__file__).resolve().parent / ".cache"
GEN_VERSION = 5

# Make-up of each workload.  Sizes are fixed per position, so the seed
# changes the shape of every feeder but never the size mix.  A run of
# `--seconds s` makes round(s / pass_s) passes over the operations (at
# least 1), whatever the program's speed: one pass at 24 s.  The
# operation counts are large because the inputs of one seed differ in
# cost from another's: fewer would let the seed move a run's median by
# more than the machine does.
WORKLOADS = {
    "lp-feeders": {
        "kind": "cli",
        "alg": "lp-list",
        "crews": 3,
        "count": 480,
        "pass_s": 24.0,
        "reference_every": 1,
        "lines": (45, 70),
        "switch_share": 0.1,
        "repair_time": (1, 10),
        "weight": (0, 10),
        "warmup_lines": 30,
    },
    "convert-xl": {
        "kind": "cli",
        "alg": "convert",
        "crews": 3,
        "count": 100,
        "pass_s": 30.0,
        "reference_every": 1,
        "lines": (600, 1200),
        "switch_share": 0.1,
        "repair_time": (0, 10),
        "weight": (0, 10),
        "warmup_lines": 100,
    },
    "certify-small": {
        "kind": "bench",
        "crews": (2, 3),
        "count": 750,
        "pass_s": 24.0,
        "reference_every": 8,
        "nodes": (2, 9),
        "switch_probability": 0.4,
        "repair_time": (0, 10),
        "weight": (0, 10),
    },
}

# The warm-up instance is the same for every seed.
WARMUP_SEED = 99991


def feeder(rng: random.Random, lines: int, spec: dict, crews: int) -> dict:
    """Random radial feeder: node k attaches to a uniformly drawn earlier node.

    Exactly ``switch_share * lines`` lines (rounded) carry a switch, drawn
    uniformly, so every feeder of a size has the same number of islands:
    the LP's round count follows the island count, and a per-line coin
    flip would let the seed move a whole round's cost.
    """
    width = len(str(lines))
    node_ids = [f"n{k:0{width}d}" for k in range(lines + 1)]
    while True:
        weights = [rng.randint(*spec["weight"]) for _ in node_ids]
        if any(w > 0 for w in weights[1:]):
            break
    switches = set(rng.sample(range(1, lines + 1), round(spec["switch_share"] * lines)))
    raw_lines = []
    for k in range(1, lines + 1):
        raw_lines.append(
            {
                "id": f"l{k:0{width}d}",
                "from": node_ids[rng.randrange(k)],
                "to": node_ids[k],
                "repair_time": rng.randint(*spec["repair_time"]),
                "switch": k in switches,
            }
        )
    return {
        "root": node_ids[0],
        "crews": crews,
        "nodes": [{"id": nid, "weight": w} for nid, w in zip(node_ids, weights)],
        "lines": raw_lines,
    }


def small_instance(seed: int, spec: dict) -> dict:
    """One instance of the standard seeded bench corpus.

    Draws in the same order as ``gridrepair bench``'s generator, so the
    instance named ``gen-<seed>`` is the one that command would build.
    """
    rng = random.Random(seed)
    count = rng.randint(*spec["nodes"])
    width = len(str(count - 1))
    node_ids = [f"n{k:0{width}d}" for k in range(count)]
    while True:
        weights = [rng.randint(*spec["weight"]) for _ in range(count)]
        if any(w > 0 for w in weights[1:]):
            break
    lines = []
    for k in range(1, count):
        parent = rng.randrange(k)
        lines.append(
            {
                "id": f"l{k:0{width}d}",
                "from": node_ids[parent],
                "to": node_ids[k],
                "repair_time": rng.randint(*spec["repair_time"]),
                "switch": rng.random() < spec["switch_probability"],
            }
        )
    return {
        "root": node_ids[0],
        "crews": spec["crews"][0],
        "nodes": [{"id": nid, "weight": w} for nid, w in zip(node_ids, weights)],
        "lines": lines,
    }


def _sizes(spec: dict) -> list[int]:
    """Evenly spread sizes over the range, interleaved so each half of a round
    holds small and large feeders alike."""
    lo, hi = spec["lines"]
    n = spec["count"]
    even = [lo + round(k * (hi - lo) / (n - 1)) for k in range(n)]
    return even[0::2] + even[1::2]


def _write(path: Path, raw: dict) -> None:
    path.write_text(json.dumps(raw, separators=(",", ":")) + "\n")


def build(workload: str, seed: int, target: Path) -> dict:
    """Write every instance file of one workload and seed into `target`."""
    spec = WORKLOADS[workload]
    target.mkdir(parents=True)
    manifest = {"workload": workload, "seed": seed, "kind": spec["kind"], "ops": []}
    if spec["kind"] == "cli":
        manifest.update(alg=spec["alg"], crews=spec["crews"], warmup="warmup.json")
        _write(
            target / "warmup.json",
            feeder(random.Random(WARMUP_SEED), spec["warmup_lines"], spec, spec["crews"]),
        )
        rng = random.Random(f"{workload}/{seed}")
        for k, lines in enumerate(_sizes(spec)):
            name = f"f{k:03d}-{lines}"
            _write(target / f"{name}.json", feeder(rng, lines, spec, spec["crews"]))
            manifest["ops"].append({"name": name, "file": f"{name}.json"})
    else:
        manifest.update(crews=list(spec["crews"]), warmup="warmup.json")
        _write(target / "warmup.json", small_instance(WARMUP_SEED, spec))
        base = seed * 1_000_000
        for k in range(spec["count"]):
            name = f"gen-{base + k}"
            _write(target / f"{name}.json", small_instance(base + k, spec))
            for m in spec["crews"]:
                manifest["ops"].append({"name": name, "file": f"{name}.json", "m": m})
    (target / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    return manifest


def ensure(workload: str, seed: int) -> Path:
    """Directory holding the workload's files for `seed`, generated if missing."""
    target = CACHE / f"v{GEN_VERSION}" / workload / f"seed-{seed}"
    if (target / "manifest.json").exists():
        return target
    staging = target.with_name(f"{target.name}.tmp{os.getpid()}")
    if staging.exists():
        shutil.rmtree(staging)
    build(workload, seed, staging)
    if target.exists():
        shutil.rmtree(target)
    staging.rename(target)
    return target


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    print(ensure(args.workload, args.seed))


if __name__ == "__main__":
    main()
