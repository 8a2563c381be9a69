"""shutter-sim benchmark: BT and FSM ticks/s and BT-vs-FSM verdicts/s.

Run from the root of a checkout:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

One process, one client, closed loop: each operation starts when the last one
has ended.  The package is imported from ``src/`` and driven only through its
public functions.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer ones from spans.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import random
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import gen
import oracle
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TREE_FILE = ROOT / "trees" / "photographer.tree"
SCENARIO_DIR = ROOT / "scenarios"
WORK_DIR = ROOT / ".bench_build" / "perfbench"
FSM_MODES = ("none", "transitions", "timeouts")
SETUP_REPEATS = 9
REFERENCE_LOOP_S = 0.010  # what reference_loop() takes on the reference host
RESCALED = ("setup_s", "bt_ticks_per_s", "fsm_ticks_per_s", "verdicts_per_s")


def declared_units() -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def reference_loop() -> float:
    """Seconds a fixed pure-Python loop takes right now: a gauge of host speed.

    Host speed drifts by tens of percent over seconds.  Each timed pass is
    bracketed by this loop, and its host seconds are rescaled to reference
    seconds: ``seconds * REFERENCE_LOOP_S / loop seconds``.
    """
    start = perf_counter()
    total = 0.0
    for i in range(60_000):
        total += math.hypot(i * 0.5, i * 0.25)
    return perf_counter() - start


def import_package():
    """A fresh import of the package, so that every set-up pays for it."""
    for name in [n for n in sys.modules if n == "shutter_sim" or n.startswith("shutter_sim.")]:
        del sys.modules[name]
    pkg = importlib.import_module("shutter_sim")
    for sub in ("bt", "cli", "dsl", "fsm", "interaction", "sim", "world"):
        importlib.import_module(f"shutter_sim.{sub}")
    return pkg


@dataclass
class Outcome:
    """One operation: one scenario taken from text to its BT-vs-FSM verdicts."""

    key: str
    seconds: float
    verdicts: int = 0
    divergent: int = 0
    traces: dict[str, str] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


class Corpus:
    """The scenario files, each run through ``cli.main`` in-process."""

    def __init__(self, seed: int, run_dir: Path):
        self.files = sorted(SCENARIO_DIR.glob("*.scn"))
        random.Random(seed).shuffle(self.files)
        self.run_dir = run_dir
        self.pass_length = len(self.files)

    def prepare(self, pkg, catalogue=None):
        """Read and parse the corpus; the CLI builds its controllers on every call."""
        self.texts = {path.name: path.read_text(encoding="utf-8") for path in self.files}
        for text in self.texts.values():
            pkg.dsl.parse_scenario(text)

    def op(self, pkg, state, index: int) -> Outcome:
        path = self.files[index % len(self.files)]
        out = {label: self.run_dir / f"{label}.txt" for label in ("bt", "bt-tree", *FSM_MODES)}
        runs = [("bt", ["--controller", "bt"]),
                ("bt-tree", ["--controller", "bt", "--tree", str(TREE_FILE)])]
        runs += [(mode, ["--controller", "fsm", "--fsm-mode", mode]) for mode in FSM_MODES]
        outcome = Outcome(path.name, 0.0)
        sink = io.StringIO()
        start = perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for label, flags in runs:
                code = pkg.cli.main(["run", "--scenario", str(path), *flags, "--out", str(out[label])])
                if code != 0:
                    outcome.problems.append(f"run {label} exited {code}")
            for mode in FSM_MODES:
                code = pkg.cli.main(["compare", "--a", str(out["bt"]), "--b", str(out[mode])])
                if code not in (0, 1):
                    outcome.problems.append(f"compare bt/{mode} exited {code}")
                outcome.verdicts += 1
                outcome.divergent += code == 1
        outcome.seconds = perf_counter() - start
        if outcome.problems:
            outcome.problems.append(sink.getvalue().strip())
        else:
            outcome.traces = {label: p.read_text(encoding="utf-8") for label, p in out.items()}
        return outcome


class Crowd:
    """One seeded crowd scenario, taken from text to verdicts through the API."""

    def __init__(self, name: str, seed: int, run_dir: Path):
        self.name, self.seed, self.run_dir = name, seed, run_dir
        self.pass_length = 1

    def prepare(self, pkg, catalogue=None):
        """Generate the scenario, check it and the tree file through the CLI, build controllers."""
        text = gen.GENERATORS[self.name](self.seed)
        path = self.run_dir / f"{self.name}.scn"
        path.write_text(text, encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()):
            code = pkg.cli.main(["check", "--scenario", str(path), "--tree", str(TREE_FILE)])
        if code != 0:
            raise RuntimeError(f"generated scenario failed the check (exit {code})")
        cat = catalogue or pkg.interaction.default_catalogue()
        tree = pkg.bt.validate_tree(pkg.dsl.parse_tree(TREE_FILE.read_text(encoding="utf-8")), cat)
        machines = [pkg.interaction.build_photographer_fsm(mode, catalogue=cat) for mode in FSM_MODES]
        self.texts = {self.name: text}
        return tree, machines

    def op(self, pkg, state, index: int) -> Outcome:
        tree, machines = state
        sim = pkg.sim
        outcome = Outcome(self.name, 0.0)
        start = perf_counter()
        scenario = pkg.dsl.parse_scenario(self.texts[self.name])
        bt_text = sim.serialize_trace(sim.run(tree, scenario))
        bt_records = sim.parse_trace(bt_text)
        outcome.traces["bt"] = bt_text
        for mode, machine in zip(FSM_MODES, machines):
            fsm_text = sim.serialize_trace(sim.run(machine, scenario))
            report = sim.compare(bt_records, sim.parse_trace(fsm_text))
            outcome.traces[mode] = fsm_text
            outcome.verdicts += 1
            outcome.divergent += not report.equivalent
        outcome.seconds = perf_counter() - start
        return outcome


class Checker:
    """Checks every trace once against the oracles, then by digest on repeats."""

    def __init__(self, texts: dict[str, str]):
        self.texts = texts
        self.rosters: dict[str, list] = {}
        self.reference: dict[tuple[str, str], tuple[str, list[str]]] = {}

    def problems(self, pkg, outcome: Outcome) -> list[str]:
        found = []
        for label, trace in outcome.traces.items():
            digest = hashlib.sha256(trace.encode("utf-8")).hexdigest()
            ref = self.reference.get((outcome.key, label))
            if ref is None:
                if outcome.key not in self.rosters:
                    self.rosters[outcome.key] = oracle.scenario_rosters(self.texts[outcome.key])
                ref = (digest, oracle.check_trace(trace, self.rosters[outcome.key])
                       + oracle.check_round_trip(trace, pkg.sim.parse_trace, pkg.sim.serialize_trace))
                self.reference[(outcome.key, label)] = ref
            if digest != ref[0]:
                found.append(f"{outcome.key} {label}: trace differs from the first run of the scenario")
            found += [f"{outcome.key} {label}: {p}" for p in ref[1]]
        return found

    def digest(self) -> str:
        h = hashlib.sha256()
        for (key, label), (digest, _) in sorted(self.reference.items()):
            h.update(f"{key} {label} {digest}\n".encode("utf-8"))
        return h.hexdigest()


class RunTimer:
    """Times every ``sim.run`` call; a thin hook, on in every run."""

    def __init__(self, pkg):
        self.samples: list[tuple[bool, int, float]] = []  # (is tree, ticks, seconds)
        run, node = pkg.sim.run, pkg.bt.Node

        def timed(controller, scenario):
            start = perf_counter()
            records = run(controller, scenario)
            seconds = perf_counter() - start
            self.samples.append((isinstance(controller, node), len(records), seconds))
            return records

        self.undo = spans.rebind(run, timed)


class Bench:
    def __init__(self, workload, pkg, seconds: float):
        self.workload, self.pkg, self.seconds = workload, pkg, seconds
        self.checker = Checker(workload.texts)
        self.attempted = self.failed = 0
        self.reported = 0

    def operate(self, state, index: int, tracer: spans.Tracer | None = None) -> Outcome:
        undo = tracer.install(self.pkg) if tracer else []
        try:
            outcome = self.workload.op(self.pkg, state, index)
        except Exception as exc:  # any exception in an operation counts as a failure
            outcome = Outcome("?", 0.0, problems=[f"{type(exc).__name__}: {exc}"])
        finally:
            spans.restore(undo)
        if tracer:
            tracer.fold()
        if not outcome.problems:
            outcome.problems = self.checker.problems(self.pkg, outcome)
        self.attempted += 1
        if outcome.problems:
            self.failed += 1
            if self.reported < 5:
                self.reported += 1
                print("FAIL " + "; ".join(outcome.problems), file=sys.stderr)
        return outcome

    def passes(self, plan):
        """Run whole passes until time is up.

        Yields each pass's outcomes with the factor that turns its host
        seconds into reference seconds.
        """
        deadline = perf_counter() + self.seconds
        index = 0
        before = reference_loop()
        while True:
            outcomes = [plan(index + i) for i in range(self.workload.pass_length)]
            after = reference_loop()
            yield outcomes, 2 * REFERENCE_LOOP_S / (before + after)
            before = after
            index += self.workload.pass_length
            if perf_counter() >= deadline:
                return


def _rate(pairs: list[tuple[float, float]], to_reference: float) -> float | None:
    seconds = sum(s for _, s in pairs) * to_reference
    return sum(n for n, _ in pairs) / seconds if seconds else None


def measure(bench: Bench, state) -> dict[str, float]:
    """Median over passes of ticks per reference second inside ``sim.run``, and of verdicts."""
    timer = RunTimer(bench.pkg)
    rates: dict[str, list[float]] = {"bt_ticks_per_s": [], "fsm_ticks_per_s": [], "verdicts_per_s": []}
    try:
        for outcomes, to_reference in bench.passes(lambda i: bench.operate(state, i)):
            samples, timer.samples = timer.samples, []
            for name, pairs in (
                ("bt_ticks_per_s", [(t, s) for is_tree, t, s in samples if is_tree]),
                ("fsm_ticks_per_s", [(t, s) for is_tree, t, s in samples if not is_tree]),
                ("verdicts_per_s", [(o.verdicts, o.seconds) for o in outcomes]),
            ):
                rate = _rate(pairs, to_reference)
                if rate is not None:
                    rates[name].append(rate)
    finally:
        spans.restore(timer.undo)
    print(f"{len(rates['verdicts_per_s'])} passes of {bench.workload.pass_length} operations; "
          "rates are medians over passes", file=sys.stderr)
    # a metric with no sample (every operation failed) reads 0
    return {name: statistics.median(values) if values else 0.0 for name, values in rates.items()}


def measure_traced(bench: Bench, state, traced_state, tracer: spans.Tracer) -> dict[str, float]:
    """Alternate untraced and traced passes; layer metrics come from the traced ones."""
    overheads = []
    verdicts = divergent = 0

    def alternate(index):
        plain = bench.operate(state, index)
        return plain, bench.operate(traced_state, index, tracer)

    for pairs, _ in bench.passes(alternate):
        plain_s = sum(p.seconds for p, _ in pairs)
        if plain_s:
            overheads.append(sum(t.seconds for _, t in pairs) / plain_s)
        verdicts += sum(t.verdicts for _, t in pairs)
        divergent += sum(t.divergent for _, t in pairs)
    metrics = tracer.layer_metrics()
    metrics["sim.compare.divergent_share"] = divergent / verdicts if verdicts else 0.0
    metrics["trace.overhead"] = statistics.median(overheads) if overheads else 0.0
    print(f"divergent verdicts: {divergent} of {verdicts} traced BT-vs-FSM compares", file=sys.stderr)
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("corpus", *gen.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (SRC / "shutter_sim" / "__init__.py", TREE_FILE, SCENARIO_DIR) if not p.exists()]
    if missing:
        print(f"error: not a shutter-sim checkout, missing {missing[0]}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    run_dir = WORK_DIR / f"run-{args.workload}-{args.seed}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "corpus":
            workload = Corpus(args.seed, run_dir)
        else:
            workload = Crowd(args.workload, args.seed, run_dir)

        setup_s = []
        before = reference_loop()
        for _ in range(SETUP_REPEATS):
            start = perf_counter()
            pkg = import_package()
            state = workload.prepare(pkg)
            seconds = perf_counter() - start
            after = reference_loop()
            setup_s.append(seconds * 2 * REFERENCE_LOOP_S / (before + after))
            before = after

        bench = Bench(workload, pkg, args.seconds)
        if args.trace:
            tracer = spans.Tracer()
            catalogue = tracer.catalogue(pkg.interaction.default_catalogue())
            undo = tracer.install(pkg)
            try:  # the traced set-up gives the parse and CLI spans of the crowds
                traced_state = workload.prepare(pkg, catalogue)
            finally:
                spans.restore(undo)
            tracer.fold()
            metrics = measure_traced(bench, state, traced_state, tracer)
            tracer.write(WORK_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
        else:
            metrics = measure(bench, state)
            metrics["setup_s"] = statistics.median(setup_s)
            metrics["pass_ratio"] = (bench.attempted - bench.failed) / bench.attempted
            metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    units = declared_units()
    print(f"traces_sha256 {args.workload} seed={args.seed} {bench.checker.digest()}")
    print(f"pass_ratio base: {bench.attempted - bench.failed} of {bench.attempted} operations passed "
          f"(one operation = one scenario from text to its {len(FSM_MODES)} BT-vs-FSM verdicts)")
    for name, value in metrics.items():
        note = " (reference seconds, see README)" if name in RESCALED else ""
        print(f"{name} {value:.6g} {units[name]}{note}")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
