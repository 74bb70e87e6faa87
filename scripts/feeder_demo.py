#!/usr/bin/env python3
"""Walk the bundled 123-node feeder through every algorithm and print a table.

    python scripts/feeder_demo.py [instance.json]
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gridrepair import algos  # noqa: E402
from gridrepair import schedule as sched  # noqa: E402
from gridrepair.harness import load_instance  # noqa: E402


def main() -> None:
    path = Path(sys.argv[1]) if len(sys.argv) > 1 else (
        Path(__file__).resolve().parent.parent / "fixtures" / "feeder123.json"
    )
    instance = load_instance(path)
    islands, precedence = instance.islands, instance.precedence
    damaged = sum(1 for p in instance.repair_times().values() if p > 0)

    print(f"instance: {path.name}")
    print(
        f"  {len(instance.nodes)} nodes, {len(instance.lines)} lines "
        f"({damaged} damaged), {len(islands.islands)} islands, "
        f"{instance.crews} crews"
    )
    print(f"  precedence: root {precedence.root}, edges {precedence.edges()}")

    single = algos.single_optimal(instance)
    alg1 = algos.lp_list_schedule(instance)
    alg2 = algos.convert_single_to_m(instance)
    _, infinite = sched.infinite_crew_energization(
        islands, precedence, instance.repair_times())

    print(f"\n  {'algorithm':28s} {'harm':>12s}")
    print(f"  {'-' * 28} {'-' * 12}")
    print(f"  {'single crew, exact':28s} {single.harm:12.1f}")
    print(f"  {'relaxation lower bound':28s} {alg1.lp.objective:12.1f}")
    print(f"  {'midpoint list (2x)':28s} {alg1.harm:12.1f}")
    print(f"  {'conversion (2 - 1/m)':28s} {alg2.harm:12.1f}")
    print(f"  {'unlimited crews floor':28s} {infinite:12.1f}")
    print(
        f"\n  relaxation cuts: {len(alg1.lp.cuts)} "
        f"({alg1.lp.iterations} rounds)"
    )


if __name__ == "__main__":
    main()
