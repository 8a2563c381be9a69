"""Spans recorded from outside the package, around the calls into each layer.

Wrappers are bound over the package's own functions for the length of one
traced operation and removed after it.  Each span keeps its name, its parent
span and a count of the work it did; a span's self time is its duration
minus the time of its direct children.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
from pathlib import Path
from time import perf_counter

KEEP_SPANS = 100_000  # raw spans kept for the written-out file


def package_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if name == "shutter_sim" or name.startswith("shutter_sim.")]


def rebind(old, new) -> list[tuple[object, str, object]]:
    """Point every package-level name bound to ``old`` at ``new``; returns the undo list."""
    undo = []
    for module in package_modules():
        for attr in [a for a, v in vars(module).items() if v is old]:
            setattr(module, attr, new)
            undo.append((module, attr, old))
    return undo


def restore(undo: list[tuple[object, str, object]]) -> None:
    for owner, attr, old in reversed(undo):
        setattr(owner, attr, old)


def _len_arg(index):
    return lambda args, result: len(args[index])


def _len_result(args, result) -> int:
    return len(result)


def _emissions(args, result) -> int:
    return sum(len(r.emissions) for records in args[:2] for r in records)


def _lines(args, result) -> int:
    return len(args[0].splitlines())


def _fired(args, result) -> int:
    # entering a state (transition or timeout) zeroes the residency counter
    return int(args[0].ticks_in_state == 0)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent index, start, end, count]
        self._open: list[int] = []
        self.kept: list[list] = []
        # name -> [calls, total s, self s, count]; (name, controller) -> calls
        self.totals: dict[str, list[float]] = {}
        self.calls_by_controller: dict[tuple[str, str], int] = {}

    def wrap(self, name: str, fn, count=None):
        spans, stack = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, 0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if count is not None:
                span[4] = count(args, result)
            return result

        return traced

    def catalogue(self, base):
        """A copy of ``base`` whose conditions and behaviors record spans."""
        cat = type(base)()
        for name in base.condition_names():
            cat.register_condition(name, self.wrap(f"interaction.conditions:{name}", base.condition(name)))
        for name in base.behavior_names():
            b = base.behavior(name)
            cat.register_behavior(dataclasses.replace(
                b,
                step_fn=b.step_fn and self.wrap(f"interaction.behaviors:{name}", b.step_fn),
                status_fn=b.status_fn and self.wrap(f"interaction.behaviors:{name}", b.status_fn),
            ))
        return cat

    def install(self, pkg) -> list:
        """Wrap the layer boundaries of an imported package; returns the undo list."""
        sim, bt, fsm, dsl, cli, interaction = pkg.sim, pkg.bt, pkg.fsm, pkg.dsl, pkg.cli, pkg.interaction
        targets = [
            (sim, "run", "sim.run", _len_result),
            (sim, "apply_events", "world.apply_events", _len_arg(1)),
            (bt, "tick", "bt.tick", None),
            (interaction, "cluster_groups", "groups.cluster_groups", None),
            (interaction, "interaction_group_size", "groups.interaction_group_size", None),
            (sim, "serialize_trace", "sim.serialize_trace", _len_arg(0)),
            (sim, "parse_trace", "sim.parse_trace", _len_result),
            (sim, "compare", "sim.compare", _emissions),
            (dsl, "parse_scenario", "dsl.parse_scenario", _lines),
            (dsl, "parse_tree", "dsl.parse_tree", None),
            (cli, "main", "cli.main", None),
        ]
        undo = []
        for module, attr, name, count in targets:
            fn = getattr(module, attr, None)
            if fn is not None:
                undo += rebind(fn, self.wrap(name, fn, count))
        make_catalogue = interaction.default_catalogue
        undo += rebind(make_catalogue, lambda *a, **kw: self.catalogue(make_catalogue(*a, **kw)))
        machine = fsm.StateMachine
        undo.append((machine, "step", machine.step))
        machine.step = self.wrap("fsm.step", machine.step, _fired)
        return undo

    def fold(self) -> None:
        """Fold the spans recorded so far into per-layer totals and drop them."""
        spans = self.spans
        child = [0.0] * len(spans)
        controller: list[str | None] = [None] * len(spans)
        for i, (name, parent, start, end, count) in enumerate(spans):
            if parent >= 0:
                child[parent] += end - start
                controller[i] = controller[parent]
            if name in ("bt.tick", "fsm.step"):
                controller[i] = name
        base = len(self.kept)
        for i, (name, parent, start, end, count) in enumerate(spans):
            layer = name.split(":")[0]
            row = self.totals.setdefault(layer, [0, 0.0, 0.0, 0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[i]
            row[3] += count
            key = (layer, controller[i])
            self.calls_by_controller[key] = self.calls_by_controller.get(key, 0) + 1
            if base + i < KEEP_SPANS:
                self.kept.append([base + i, parent + base if parent >= 0 else -1, name, start, end, count])
        spans.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for sid, parent, name, start, end, count in self.kept:
                out.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                      "start": start, "end": end, "count": count}) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics named ``<module>.<function>.<stat>``."""
        def row(layer):
            return self.totals.get(layer, [0, 0.0, 0.0, 0])

        def per(numerator, denominator, scale=1.0):
            return numerator * scale / denominator if denominator else 0.0

        bt_ticks, fsm_ticks = row("bt.tick")[0], row("fsm.step")[0]
        ticks = bt_ticks + fsm_ticks
        run_s = row("sim.run")[1]
        cluster = row("groups.cluster_groups")
        apply = row("world.apply_events")
        conditions = row("interaction.conditions")
        by_ctl = self.calls_by_controller
        return {
            "groups.cluster_groups.calls_per_tick": per(cluster[0], ticks),
            "groups.cluster_groups.calls_per_bt_tick": per(by_ctl.get(("groups.cluster_groups", "bt.tick"), 0), bt_ticks),
            "groups.cluster_groups.calls_per_fsm_tick": per(by_ctl.get(("groups.cluster_groups", "fsm.step"), 0), fsm_ticks),
            "groups.cluster_groups.us_per_call": per(cluster[1], cluster[0], 1e6),
            "groups.cluster_groups.share": per(cluster[1], run_s),
            "groups.interaction_group_size.us_per_call": per(row("groups.interaction_group_size")[1], row("groups.interaction_group_size")[0], 1e6),
            "world.apply_events.us_per_event": per(apply[1], apply[3], 1e6),
            "world.apply_events.share": per(apply[1], run_s),
            "interaction.conditions.calls_per_tick": per(conditions[0], ticks),
            "interaction.conditions.self_us_per_tick": per(conditions[2], ticks, 1e6),
            "interaction.behaviors.self_us_per_tick": per(row("interaction.behaviors")[2], ticks, 1e6),
            "bt.tick.self_us_per_tick": per(row("bt.tick")[2], bt_ticks, 1e6),
            "fsm.step.self_us_per_tick": per(row("fsm.step")[2], fsm_ticks, 1e6),
            "fsm.step.transitions_per_tick": per(row("fsm.step")[3], fsm_ticks),
            "sim.run.self_us_per_tick": per(row("sim.run")[2], ticks, 1e6),
            "sim.serialize_trace.us_per_record": per(row("sim.serialize_trace")[1], row("sim.serialize_trace")[3], 1e6),
            "sim.parse_trace.us_per_record": per(row("sim.parse_trace")[1], row("sim.parse_trace")[3], 1e6),
            "sim.compare.us_per_emission": per(row("sim.compare")[1], row("sim.compare")[3], 1e6),
            "dsl.parse_scenario.us_per_line": per(row("dsl.parse_scenario")[1], row("dsl.parse_scenario")[3], 1e6),
            "dsl.parse_tree.us_per_call": per(row("dsl.parse_tree")[1], row("dsl.parse_tree")[0], 1e6),
            "cli.main.self_ms_per_call": per(row("cli.main")[2], row("cli.main")[0], 1e3),
        }
