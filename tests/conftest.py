"""Shared test helpers: repository paths, criterion 3's hazard windows, the
benchmark's crowd generators, the evidence scripts and the random visits they
draw, a catalogue of scriptable stub leaves, a probe controller that records
the context, a tree's structural signature, and all-pairs references for the
engaged group and the zone groups' members."""

from __future__ import annotations

import importlib.util
import math
import random
from pathlib import Path
from typing import NamedTuple

from shutter_sim import Behavior, Catalogue, Event, NodeStatus, ScenarioScript, bt, parse_scenario
from shutter_sim.world import BUTTONS

PKG_ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = PKG_ROOT / "scenarios"
TREE_FILE = PKG_ROOT / "trees" / "photographer.tree"
MALFORMED_DIR = Path(__file__).resolve().parent / "data" / "malformed"


def hazard_windows():
    """Acceptance criterion 3's 130 scenarios, as ``(start, length, text)``: a
    consenting person, with a hazard from tick ``start`` for ``length`` ticks."""
    for start in range(0, 26):
        for length in range(1, 6):
            yield start, length, (
                "scenario hz ticks 36\n"
                "@0 person_appear id=1 x=1.0 y=0.5\n"
                "@5 button yes\n"
                f"@{start} hazard on\n"
                f"@{start + length} hazard off\n"
            )


def perfbench_gen():
    """``perfbench/gen.py``, loaded by path, as ``perfbench`` is no package."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", PKG_ROOT / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def load(name: str) -> ScenarioScript:
    """The scenario file ``name`` of ``scenarios/``, parsed."""
    return parse_scenario((SCENARIO_DIR / name).read_text(encoding="utf-8"))


def random_visit(rng: random.Random) -> ScenarioScript:
    """60 ticks: 1-3 persons who each appear once, move and may leave, and
    random buttons and hazard and network switches."""
    def spot():
        return rng.uniform(-3, 3), rng.uniform(-3, 3)

    events = []
    for pid in range(1, rng.randint(1, 3) + 1):
        start = rng.randrange(50)
        leave = rng.randrange(start + 1, 61)
        events.append(Event(start, "person_appear", pid, *spot()))
        moves = rng.sample(range(start + 1, leave), min(leave - start - 1, rng.randint(0, 5)))
        events += [Event(t, "person_move", pid, *spot()) for t in sorted(moves)]
        if leave < 60:
            events.append(Event(leave, "person_leave", pid))
    events += [Event(rng.randrange(60), "button_press", button=rng.choice(BUTTONS))
               for _ in range(rng.randint(0, 6))]
    events += [Event(rng.randrange(60), rng.choice(("hazard_on", "hazard_off", "network_down",
                                                    "network_up")))
               for _ in range(rng.randint(0, 3))]
    events.sort(key=lambda event: event.at_tick)
    return ScenarioScript("visit", 60, tuple(events))


def evidence_scripts(source: str) -> list[ScenarioScript]:
    """The scripts of one evidence source: the ``scenarios/`` corpus, the
    benchmark's seed 1-3 crowds, criterion 3's hazard windows, or (any other
    ``source``) 300 seeded random visits."""
    if source == "corpus":
        return [load(path.name) for path in sorted(SCENARIO_DIR.glob("*.scn"))]
    if source == "crowds":
        gen = perfbench_gen()
        return [parse_scenario(getattr(gen, crowd)(seed))
                for crowd in ("crowd_still", "crowd_churn") for seed in (1, 2, 3)]
    if source == "hazard_windows":
        return [parse_scenario(text) for _, _, text in hazard_windows()]
    rng = random.Random(3141)
    return [random_visit(rng) for _ in range(300)]


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


def structural_signature(root: bt.Node) -> tuple:
    """Shape of a tree minus runtime state and node ids, for equality checks:
    each node's level, kind, name and settings, in preorder."""
    return tuple((depth, node.kind, node.name, getattr(node, "memory", False),
                  getattr(node, "condition_name", None), getattr(node, "duration_override", None))
                 for node, depth in bt._preorder(root))


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
