"""Compare two checkouts on the benchmark in alternating pairs of runs.

Each pair runs ``perfbench/run.py`` once in each checkout, in a fresh
process, with the parent first in even pairs and the change first in odd
ones, so a drift of the host's speed does not favour one side.  For every
end-to-end metric it prints the median and quartiles of each side, the
median gain, and the pairs the change won by the metric's better direction
in ``BENCHMARK.json``.  Stdlib only.

    python tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload crowd-still \\
        --seed 1 [--seconds 4] [--pairs 10]

Exits 1 when a run fails, reports ``"correct": false``, or prints a
``traces_sha256`` other than the first run's, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def read_result(stdout: str) -> tuple[dict, str | None]:
    """The result object on the last line of a run's standard output, and
    the digest on its ``traces_sha256`` line (None when it has none)."""
    lines = stdout.strip().splitlines()
    digest = next((line.rsplit(" ", 1)[-1] for line in lines if line.startswith("traces_sha256 ")), None)
    return json.loads(lines[-1]), digest


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """The first quartile, the median and the third quartile of ``values``,
    two or more."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(pairs: list[tuple[dict, dict]], better: dict[str, str]) -> list[str]:
    """One line per metric of ``better`` that every result in ``pairs``
    reports: each side's median and quartiles, the change's median gain, the
    pairs it won (a tie wins none), and whether that gain exceeds the
    parent's interquartile range.  ``pairs`` holds each pair's (parent,
    change) result objects; ``better`` maps a metric to "higher" or "lower"."""
    lines = []
    for name, direction in better.items():
        if not all(name in result["metrics"] for pair in pairs for result in pair):
            continue
        values = [[result["metrics"][name]["value"] for result in side] for side in zip(*pairs)]
        sign = 1 if direction == "higher" else -1
        wins = sum(sign * (change - parent) > 0 for parent, change in zip(*values))
        (p1, parent, p3), (c1, change, c3) = map(quartiles, values)
        gain = change / parent - 1 if parent else float("nan")
        beyond = "yes" if sign * (change - parent) > p3 - p1 else "no"
        lines.append(f"{name}: parent {parent:.6g} [{p1:.6g}, {p3:.6g}], "
                     f"change {change:.6g} [{c1:.6g}, {c3:.6g}], {gain:+.1%}, "
                     f"won {wins} of {len(pairs)}, gain beyond parent IQR: {beyond}")
    return lines


def faults(pairs: list[tuple[dict, dict]], digests: list[str | None]) -> list[str]:
    """What makes the comparison void: a run that reports ``"correct":
    false``, and a ``traces_sha256`` that differs from the first run's."""
    found = [f"pair {i} {side}: correct is false"
             for i, pair in enumerate(pairs) for side, result in zip(SIDES, pair)
             if result.get("correct") is not True]
    if len(set(digests)) > 1:
        found.append(f"traces_sha256 differ between runs: {sorted(set(map(str, digests)))}")
    return found


def run_once(checkout: Path, args: argparse.Namespace) -> tuple[dict, str | None]:
    """One untraced benchmark run in ``checkout``."""
    command = [sys.executable, "perfbench/run.py", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{checkout}: exit {done.returncode}: {done.stderr.strip()}")
    return read_result(done.stdout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=4.0)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, as quartiles need two runs a side")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {metric["name"]: metric["better"] for metric in declared["end_to_end"]}

    pairs, digests = [], []
    try:
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {}
            for side in order:
                pair[side], digest = run_once(getattr(args, side), args)
                digests.append(digest)
            pairs.append((pair["parent"], pair["change"]))
            print(f"pair {i + 1} of {args.pairs} done, {order[0]} first", file=sys.stderr)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"{args.workload} seed={args.seed}: {args.pairs} pairs of {args.seconds:g} s runs")
    for line in summarize(pairs, better):
        print(line)
    problems = faults(pairs, digests)
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
