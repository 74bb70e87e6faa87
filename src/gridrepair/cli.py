"""Command-line interface.

Exit codes: 0 on success, 2 on a rejected input or option (`ValidationError`,
`oracle.TooLarge`, `OSError`), 3 on a violated guarantee, a broken invariant or
any other `ValueError`: an implementation bug, not a bad instance.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from gridrepair import algos, harness, oracle
from gridrepair.lp import LpError, format_model
from gridrepair.model import ValidationError

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_VIOLATION = 3


@functools.cache  # neither parse changes the parser or its actions
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, list[argparse.Action]]]:
    """The parser, and per command the actions its `add_argument` calls
    returned, in order, which `_parse` reads."""
    parser = argparse.ArgumentParser(
        prog="gridrepair",
        description="Repair crew scheduling for damaged radial distribution feeders.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands: dict[str, list[argparse.Action]] = {}

    p = sub.add_parser("validate", help="check an instance file")
    commands["validate"] = [p.add_argument("instance", type=str)]

    p = sub.add_parser("islands", help="print the island partition and precedence tree")
    commands["islands"] = [p.add_argument("instance", type=str)]

    p = sub.add_parser("schedule", help="run a scheduling algorithm")
    commands["schedule"] = [
        p.add_argument("instance", type=str),
        p.add_argument("--alg", choices=algos.ALGORITHMS, required=True),
        p.add_argument("--crews", type=int, default=None, help="override the instance crew count"),
        p.add_argument("--dump-lp", type=str, default=None, metavar="PATH",
                       help="write the final LP model and cut pool as text (lp-list only)"),
        p.add_argument("--within-island-order", choices=algos.WITHIN_ISLAND_ORDERS, default=None,
                       help="line order inside each island (convert only; default given)"),
        p.add_argument("--out", type=str, default=None, help="write JSON here instead of stdout"),
    ]

    p = sub.add_parser("oracle", help="brute-force optimum for desk-scale instances")
    commands["oracle"] = [
        p.add_argument("instance", type=str),
        p.add_argument("--crews", type=int, default=None),
        p.add_argument("--out", type=str, default=None),
    ]

    p = sub.add_parser("bench", help="benchmark random instances and write a CSV")
    commands["bench"] = [
        p.add_argument("--seed", type=int, default=0),
        p.add_argument("--count", type=int, default=100),
        p.add_argument("--max-lines", type=int, default=8),
        p.add_argument("--crews", type=str, default="2,3", help="comma-separated crew counts"),
        p.add_argument("--switch-probability", type=float, default=0.4),
        p.add_argument("--out", type=str, required=True),
    ]
    return parser, commands


def _parse(argv: list[str]) -> argparse.Namespace | None:
    """The namespace `parse_args(argv)` returns, built from the command's own
    actions, where argv is a command, its positionals and each of its options
    at most once, spelled whole and followed by a value that does not start
    with "-"; None for any other argv, which argparse alone parses: help,
    abbreviations, `--opt=value`, a repeated option, a value starting with
    "-", an unknown or missing argument, and a value its `type` or `choices`
    rejects.  Every argument `_build_parser` adds stores one value."""
    commands = _build_parser()[1]
    if not argv or argv[0] not in commands:
        return None
    actions = commands[argv[0]]
    options = {flag: action for action in actions for flag in action.option_strings}
    positionals, values, tokens = [], {}, iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            positionals.append(token)
            continue
        action, value = options.get(token), next(tokens, "-")
        if action is None or action in values or value.startswith("-"):
            return None
        values[action] = value
    positional_actions = [action for action in actions if not action.option_strings]
    if len(positionals) != len(positional_actions):
        return None
    values.update(zip(positional_actions, positionals))
    args = argparse.Namespace(command=argv[0])
    for action in actions:
        if action in values:
            text = values[action]
        elif action.required:
            return None
        elif isinstance(action.default, str):  # argparse sends a string default through `type`
            text = action.default
        else:
            setattr(args, action.dest, action.default)
            continue
        try:
            value = text if action.type is None else action.type(text)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if action in values and action.choices is not None and value not in action.choices:
            return None
        setattr(args, action.dest, value)
    return args


def _emit(payload: dict | str, out: str | None) -> None:
    text = payload if isinstance(payload, str) else json.dumps(payload, indent=2)
    if out is None:
        print(text)
        return
    # the bytes `Path(out).write_text(..., encoding="utf-8")` wrote, without its text layer
    fd = os.open(out, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        data = memoryview((text if text.endswith("\n") else text + "\n").encode("utf-8"))
        while data:
            data = data[os.write(fd, data):]
    finally:
        os.close(fd)


def _cmd_validate(args) -> int:
    instance = harness.load_instance(args.instance)
    print(
        f"OK: {len(instance.nodes)} nodes, {len(instance.lines)} lines, "
        f"{len(instance.islands.islands)} islands, root {instance.root!r}"
    )
    return EXIT_OK


def _cmd_islands(args) -> int:
    instance = harness.load_instance(args.instance)
    payload = {
        "islands": [
            {
                "id": isl.id,
                "lines": list(isl.line_ids),
                "nodes": list(isl.node_ids),
                "weight": isl.weight,
                "processing": isl.processing,
            }
            for isl in instance.islands.islands
        ],
        "precedence": {
            "root": instance.precedence.root,
            "edges": [list(edge) for edge in instance.precedence.edges()],
        },
    }
    _emit(payload, None)
    return EXIT_OK


def _cmd_schedule(args) -> int:
    if args.dump_lp is not None and args.alg != algos.LP_LIST:
        raise ValidationError(f"--dump-lp needs --alg {algos.LP_LIST}, got --alg {args.alg}")
    if args.within_island_order is not None and args.alg != algos.CONVERT:
        raise ValidationError(
            f"--within-island-order needs --alg {algos.CONVERT}, got --alg {args.alg}")
    if args.crews is not None and args.crews < 1:  # single-optimal reads no crew count
        raise ValidationError(f"--crews must be at least 1, got {args.crews}")
    instance = harness.load_instance(args.instance)
    if args.alg == algos.LP_LIST:
        result = algos.lp_list_schedule(instance, crews=args.crews)
        if args.dump_lp is not None:
            _emit(format_model(result.lp.model, result.lp.cuts), args.dump_lp)
    elif args.alg == algos.CONVERT:
        result = algos.convert_single_to_m(
            instance, crews=args.crews, within_island_order=args.within_island_order or "given"
        )
    else:
        result = algos.single_optimal(instance)
    _emit(harness.result_to_text(result), args.out)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    if args.crews is not None and args.crews < 1:
        raise ValidationError(f"--crews must be at least 1, got {args.crews}")
    instance = harness.load_instance(args.instance)
    m = instance.crews if args.crews is None else args.crews
    result = oracle.brute_force_optimal(instance, m)
    _emit(harness.oracle_to_json(result, m), args.out)
    return EXIT_OK


def _cmd_bench(args) -> int:
    try:
        crews = tuple(int(tok) for tok in args.crews.split(",") if tok)
    except ValueError:
        crews = ()
    if not crews:
        raise ValidationError(f"--crews takes comma-separated crew counts, got {args.crews!r}")
    for option, value, wanted, ok in (
        ("--crews", min(crews), "at least 1", min(crews) >= 1),
        ("--count", args.count, "at least 1", args.count >= 1),
        ("--max-lines", args.max_lines, "at least 1", args.max_lines >= 1),
        ("--switch-probability", args.switch_probability, "in [0, 1]",
         0.0 <= args.switch_probability <= 1.0),
    ):
        if not ok:
            raise ValidationError(f"{option} must be {wanted}, got {value!r}")
    repeated = next((m for k, m in enumerate(crews) if m in crews[:k]), None)
    if repeated is not None:  # run_bench would run and write each of its rows twice
        raise ValidationError(
            f"--crews lists crew count {repeated} more than once, got {args.crews!r}")
    params = harness.GenParams(
        seed=args.seed,
        nodes=(2, args.max_lines + 1),
        switch_probability=args.switch_probability,
        crews=crews,
    )
    rows = harness.run_bench(params, args.count, out_path=args.out)
    print(f"wrote {len(rows)} rows to {args.out}")
    solved = [r for r in rows if r.h_opt]
    if solved:
        print(f"worst midpoint-list ratio:  {max(r.ratio_alg1 for r in solved):.4f}")
        print(f"worst conversion ratio:     {max(r.ratio_alg2 for r in solved):.4f}")
        print(f"smallest relaxation ratio:  {min(r.ratio_lp for r in solved):.4f}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse(argv)
    if args is None:
        args = _build_parser()[0].parse_args(argv)
    handlers = {
        "validate": _cmd_validate,
        "islands": _cmd_islands,
        "schedule": _cmd_schedule,
        "oracle": _cmd_oracle,
        "bench": _cmd_bench,
    }
    try:
        return handlers[args.command](args)
    except (ValidationError, oracle.TooLarge, OSError) as exc:  # a rejected input or option
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    # any other ValueError, schedule.ListNotPermutation among them, is a bug too
    except (oracle.InvariantViolation, LpError, ValueError) as exc:
        print(f"violation: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())
