"""Command line front end: run scenarios, compare traces, check inputs, report."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import bt
from .dsl import parse_scenario, parse_tree
from .errors import SimError
from .interaction import (ABANDONMENT_MODES, build_photographer_bt, build_photographer_fsm,
                          default_catalogue, structural_economy_report)
from .sim import compare, parse_trace, run, serialize_trace


def _build_parser() -> argparse.ArgumentParser:
    """The command line grammar.  It holds no state between parses, so one
    instance, built at import, serves every ``main`` call."""
    parser = argparse.ArgumentParser(
        prog="shutter-sim",
        description="Run photographer controllers over scripted scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a controller over a scenario and emit a trace")
    run_p.add_argument("--controller", choices=("bt", "fsm", "both"), required=True)
    run_p.add_argument("--scenario", required=True, metavar="FILE")
    run_p.add_argument("--tree", metavar="FILE", help="tree description for the bt controller")
    run_p.add_argument("--fsm-mode", choices=ABANDONMENT_MODES,
                       default="transitions", help="abandonment handling for the fsm controller")
    run_p.add_argument("--out", metavar="FILE", help="write the trace here instead of stdout")
    run_p.set_defaults(handler=_cmd_run)

    cmp_p = sub.add_parser("compare", help="compare two trace files by emission content")
    cmp_p.add_argument("--a", required=True, metavar="FILE")
    cmp_p.add_argument("--b", required=True, metavar="FILE")
    cmp_p.set_defaults(handler=_cmd_compare)

    check_p = sub.add_parser("check", help="validate a scenario (and optional tree) without running")
    check_p.add_argument("--scenario", required=True, metavar="FILE")
    check_p.add_argument("--tree", metavar="FILE")
    check_p.set_defaults(handler=_cmd_check)

    report_p = sub.add_parser("report", help="print the structural cost of the reactive features")
    report_p.set_defaults(handler=_cmd_report)
    return parser


def _read(path: str) -> str:
    """The text of a UTF-8 input file, without a leading byte-order mark; a
    decode error names the file and the byte's offset in it."""
    try:
        return Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise SimError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _load_bt(tree_path: str | None) -> bt.Node:
    if tree_path is None:
        return build_photographer_bt()
    root = parse_tree(_read(tree_path))
    return bt.validate_tree(root, default_catalogue())


def _cmd_run(args: argparse.Namespace) -> int:
    scenario = parse_scenario(_read(args.scenario))
    if args.tree is not None and args.controller == "fsm":
        raise SimError("--tree only applies to the bt controller")
    records = []
    if args.controller in ("bt", "both"):
        records.extend(run(_load_bt(args.tree), scenario))
    if args.controller in ("fsm", "both"):
        records.extend(run(build_photographer_fsm(args.fsm_mode), scenario))
    text = serialize_trace(records)
    if args.out is not None:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    records_a = parse_trace(_read(args.a))
    records_b = parse_trace(_read(args.b))
    report = compare(records_a, records_b)
    if report.equivalent:
        print("equivalent")
        return 0
    d = report.first_divergence
    print(f"divergent at position {d.position}: a={_show(d.emission_a)} b={_show(d.emission_b)}")
    return 1


def _show(emission: tuple[str, str] | None) -> str:
    if emission is None:
        return "<absent>"
    action, payload = emission
    return f"{action}({payload})"


def _cmd_check(args: argparse.Namespace) -> int:
    scenario = parse_scenario(_read(args.scenario))
    print(f"scenario {scenario.name}: {scenario.duration} ticks, {len(scenario.rows)} events")
    if args.tree is not None:
        root = _load_bt(args.tree)
        print(f"tree {root.name}: {bt.node_count(root)} nodes")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    report = structural_economy_report()
    width = max(len(k) for k in report)
    print("elements added per reactive feature, by controller style:")
    for key, value in report.items():
        print(f"  {key:<{width}}  {value}")
    return 0


_PARSER = _build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.handler(args)
    except (OSError, SimError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
