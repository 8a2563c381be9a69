"""Shared test helpers: repository paths, the benchmark's crowd generators, a
catalogue of scriptable stub leaves, a probe controller that records the
context, and all-pairs references for the engaged group and the zone groups'
members."""

from __future__ import annotations

import importlib.util
import math
from pathlib import Path
from typing import NamedTuple

from shutter_sim import Behavior, Catalogue, NodeStatus

PKG_ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = PKG_ROOT / "scenarios"
TREE_FILE = PKG_ROOT / "trees" / "photographer.tree"
MALFORMED_DIR = Path(__file__).resolve().parent / "data" / "malformed"


def perfbench_gen():
    """``perfbench/gen.py``, loaded by path, as ``perfbench`` is no package."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", PKG_ROOT / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


class LeafScript:
    """Stub behaviors and conditions whose outcomes tests set between ticks.

    Behavior ``stub_i`` logs its index on every tick and returns
    ``script.statuses[i]``; condition ``flag_k`` reads ``script.flags[k]``.
    """

    def __init__(self, n_leaves: int = 6, n_flags: int = 2):
        self.statuses = [NodeStatus.SUCCESS] * n_leaves
        self.log: list[int] = []
        self.calls: list[tuple[int, int]] = []
        self.flags = [True] * n_flags
        self.catalogue = Catalogue()

        def record(ctx, step, i):
            self.log.append(i)
            self.calls.append((i, step))

        for i in range(n_leaves):
            self.catalogue.register_behavior(Behavior(
                f"stub_{i}", 1,
                step_fn=(lambda ctx, step, i=i: record(ctx, step, i)),
                status_fn=(lambda ctx, step, i=i: self.statuses[i]),
            ))
        for k in range(n_flags):
            self.catalogue.register_condition(
                f"flag_{k}", lambda ctx, k=k: self.flags[k]
            )
        self.catalogue.register_condition("always", lambda ctx: True)
        self.catalogue.register_condition("never", lambda ctx: False)


class WorldView(NamedTuple):
    """A copy of the world half of a context: the person items in iteration
    order, the pressed buttons, and the hazard and network levels."""

    persons: list
    buttons: set[str]
    hazard: bool
    network: bool

    @classmethod
    def of(cls, ctx) -> WorldView:
        return cls(list(ctx.persons.items()), set(ctx.buttons_pressed_this_tick),
                   ctx.hazard_hand_near_arm, ctx.network_ok)


class ContextProbe:
    """A stand-in controller for ``sim.run`` that records the ``WorldView`` of
    the context on every tick."""

    label = "probe"

    def __init__(self):
        self.seen: list[WorldView] = []

    def reset(self) -> None:
        self.seen = []

    def step(self, ctx) -> str:
        self.seen.append(WorldView.of(ctx))
        return "Probe"


def reference_components(persons, dist_threshold):
    """All-pairs connected components, each as a set of ids."""
    remaining = {q.person_id: q for q in persons}
    components = []
    while remaining:
        _, start = remaining.popitem()
        component, frontier = {start.person_id}, [start]
        while frontier:
            a = frontier.pop()
            linked = [
                b for b in remaining.values()
                if math.hypot(a.x - b.x, a.y - b.y) <= dist_threshold
            ]
            for b in linked:
                del remaining[b.person_id]
                component.add(b.person_id)
                frontier.append(b)
        components.append(component)
    return components


def reference_engaged_size(persons, dist_threshold=1.5, zone_radius=2.5):
    """Size of the component with a member nearest the origin within
    ``zone_radius``, ties to the smaller minimum id; 0 when none qualifies."""
    distance = {q.person_id: math.hypot(q.x, q.y) for q in persons}
    keyed = [
        ((min(distance[m] for m in comp), min(comp)), len(comp))
        for comp in reference_components(persons, dist_threshold)
        if min(distance[m] for m in comp) <= zone_radius
    ]
    return min(keyed)[1] if keyed else 0


def reference_zone_members(persons, dist_threshold=1.5, zone_radius=2.5):
    """The sorted ids of every person in a component that reaches the zone."""
    inside = {q.person_id for q in persons if math.hypot(q.x, q.y) <= zone_radius}
    return sorted(pid for comp in reference_components(persons, dist_threshold) if comp & inside for pid in comp)
