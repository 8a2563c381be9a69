"""ScenarioScript's one validator against a replay of the rules it took over.

Before ``ScenarioScript`` checked itself, the rules lived in two places: the
parser's pass (positive duration, ticks below the duration, the roster) and
the checks the event applier made on every run (coordinates, button, kind).
``reference_error`` replays both sets, one event at a time, with the
messages they raised, plus the tick order and lower bound the type's
docstring promises.  The validator must accept exactly the event lists the
replay accepts and reject every other one with the replay's message, and the
frames it builds must leave a run with the roster the events describe.
"""

from __future__ import annotations

import math
import random
from collections import Counter

from shutter_sim import Event, ScenarioScript, ValidationError, run
from shutter_sim.world import BUTTONS

from conftest import ContextProbe

KINDS = ("person_appear", "person_move", "person_leave", "button_press",
         "hazard_on", "hazard_off", "network_down", "network_up")
BAD_COORDS = (math.inf, -math.inf, math.nan, None)


def reference_error(name: str, duration: int, events) -> str | None:
    if duration < 1:
        return f"scenario {name!r} needs a positive duration"
    present: set[int] = set()
    last = 0
    for ev in events:
        tick, kind, pid = ev.at_tick, ev.kind, ev.person_id
        # the parser's pass: the tick range and the roster
        if tick >= duration:
            return f"event at {tick} beyond duration {duration}"
        # the order the type promises
        if tick < 0:
            return f"event at {tick} before tick 0"
        if tick < last:
            return f"event at {tick} out of order after tick {last}"
        last = tick
        if kind == "person_appear":
            if pid in present:
                return f"person {pid} already present at tick {tick}"
            present.add(pid)
        elif kind in ("person_move", "person_leave"):
            if pid not in present:
                return f"unknown person {pid} at tick {tick}"
            if kind == "person_leave":
                present.discard(pid)
        # the run's per-event checks
        if kind in ("person_appear", "person_move"):
            if ev.x is None or ev.y is None or not (math.isfinite(ev.x) and math.isfinite(ev.y)):
                return f"event {kind} at tick {tick} needs finite coordinates"
        elif kind == "button_press":
            if ev.button not in BUTTONS:
                return f"unknown button {ev.button!r} at tick {tick}"
        elif kind not in KINDS:
            return f"unknown event kind {kind!r} at tick {tick}"
    return None


RULES = ("positive duration", "beyond duration", "before tick 0", "out of order",
         "already present", "unknown person", "finite coordinates", "unknown button",
         "unknown event kind")


def _coord(rng: random.Random) -> float | None:
    return rng.choice(BAD_COORDS) if rng.random() < 0.015 else round(rng.uniform(-5, 5), 2)


def random_timeline(rng: random.Random) -> tuple[int, list[Event]]:
    """Mostly well-formed timelines, with every kind of defect now and then."""
    duration = rng.choice((0, -3)) if rng.random() < 0.02 else rng.randint(1, 20)
    events: list[Event] = []
    present: set[int] = set()
    tick = 0
    for _ in range(rng.randint(0, 8)):
        roll = rng.random()
        if roll < 0.01:
            at = -rng.randint(1, 3)
        elif roll < 0.03 and tick > 0:
            at = tick - rng.randint(1, tick)
        else:
            tick += rng.choice((0, 0, 1, 2))
            at = tick
        kind = rng.choices(KINDS + ("teleport", "button"), weights=(6, 5, 3, 2, 1, 1, 1, 1, 0.1, 0.1))[0]
        # an id that keeps the roster consistent, most of the time
        if kind in ("person_move", "person_leave") and not present and rng.random() < 0.9:
            kind = "person_appear"
        if kind == "person_appear" and rng.random() < 0.95:
            pid = min(set(range(1, 10)) - present)
        elif kind in ("person_move", "person_leave") and present and rng.random() < 0.95:
            pid = rng.choice(sorted(present))
        else:
            pid = rng.randint(1, 5)
        if kind == "person_appear":
            present.add(pid)
        elif kind == "person_leave":
            present.discard(pid)
        button = rng.choice(BUTTONS) if rng.random() < 0.95 else rng.choice(("maybe", "YES", None))
        events.append(Event(at, kind, pid, _coord(rng), _coord(rng), button))
    return duration, events


def _replay(script: ScenarioScript) -> dict[int, tuple[float, float]]:
    """The roster on the last tick of a ``sim.run`` over the script's frames."""
    probe = ContextProbe()
    run(probe, script)
    return {pid: (p.x, p.y) for pid, p in probe.seen[-1].persons}


def test_the_validator_matches_the_replayed_rules():
    rng = random.Random(6060)
    outcomes: Counter[str] = Counter()
    for _ in range(3000):
        duration, events = random_timeline(rng)
        expected = reference_error("r", duration, events)
        try:
            script = ScenarioScript("r", duration, tuple(events))
        except ValidationError as exc:
            assert str(exc) == expected, events
            outcomes[next(rule for rule in RULES if rule in expected)] += 1
            continue
        assert expected is None, events
        outcomes["accepted"] += 1
        roster: dict[int, tuple[float, float]] = {}
        for ev in events:
            if ev.kind == "person_leave":
                del roster[ev.person_id]
            elif ev.kind in ("person_appear", "person_move"):
                roster[ev.person_id] = (ev.x, ev.y)
        assert _replay(script) == roster
    # every rule was exercised, and most timelines were well formed
    assert outcomes["accepted"] > 1000, outcomes
    assert set(outcomes) == {"accepted", *RULES}, outcomes
