"""ScenarioScript's one validator against a replay of the rules it took over.

Before ``ScenarioScript`` checked itself, the rules lived in two places: the
parser's pass (positive duration, ticks below the duration, the roster) and
the checks the event applier made on every run (coordinates, button, kind).
``reference_error`` replays both sets, one event at a time, with the
messages they raised, plus the tick order and lower bound the type's
docstring promises.  The validator must accept exactly the event lists the
replay accepts and reject every other one with the replay's message, and the
frames it builds must leave a run with the roster the events describe.

``parse_scenario`` hands the same walk plain rows instead of ``Event``
records: rendered scenario texts must parse to the script, or fail with the
message, that the events they render give through the constructor.
"""

from __future__ import annotations

import math
import random
import re
from collections import Counter

import pytest

from shutter_sim import Event, PersonObservation, ScenarioScript, ValidationError, dsl, parse_scenario, run
from shutter_sim.world import BUTTONS, Frame

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


# --- the parse path against the constructor -------------------------------------

HUGE = "1" * 401  # a literal too large for a float: it reads as infinity


def rendered_scenario(rng: random.Random, features: Counter) -> tuple[str, int, list[Event]]:
    """A scenario text, its duration and the events its lines render, in file
    order.  Events are drawn in tick order, mostly keeping the roster, then
    written as an interleaving of the ticks that keeps each tick's own order."""
    duration = 0 if rng.random() < 0.03 else rng.randint(1, 12)
    present: set[int] = set()
    drawn: list[tuple[Event, str]] = []
    tick = 0

    def person(kind: str, pid: int) -> None:
        if kind == "person_leave":
            present.discard(pid)
            drawn.append((Event(tick, kind, pid), f"@{tick} {kind} id={pid}"))
            return
        present.add(pid)
        x, y = (HUGE if rng.random() < 0.02 else f"{rng.uniform(-5, 5):.2f}" for _ in "xy")
        drawn.append((Event(tick, kind, pid, float(x), float(y)), f"@{tick} {kind} id={pid} x={x} y={y}"))

    for _ in range(rng.randint(0, 10)):
        tick += rng.choice((0, 0, 1, 2))
        roll = rng.random()
        if roll < 0.6:
            kind = rng.choice(("person_appear", "person_move", "person_leave"))
            if kind != "person_appear" and not present and rng.random() < 0.9:
                kind = "person_appear"
            if kind == "person_appear" and rng.random() < 0.9:
                pid = min(set(range(1, 10)) - present)
            elif kind != "person_appear" and present and rng.random() < 0.95:
                pid = rng.choice(sorted(present))
            else:
                pid = rng.randint(1, 4)
            person(kind, pid)
            if kind == "person_leave" and rng.random() < 0.3:
                person("person_appear", pid)  # back on the same tick
                features["leave and return on one tick"] += 1
        elif roll < 0.8:
            button = rng.choice(("yes", "no", "aux"))
            drawn.append((Event(tick, "button_press", button=button), f"@{tick} button {button}"))
        else:
            word, switch = rng.choice((("hazard", "on"), ("hazard", "off"),
                                       ("network", "down"), ("network", "up")))
            drawn.append((Event(tick, f"{word}_{switch}"), f"@{tick} {word} {switch}"))

    by_tick: dict[int, list[tuple[Event, str]]] = {}
    for event, line in drawn:
        by_tick.setdefault(event.at_tick, []).append((event, line))
    queues = list(by_tick.values())
    in_file: list[tuple[Event, str]] = []
    while queues:
        queue = rng.choice(queues)
        in_file.append(queue.pop(0))
        if not queue:
            queues.remove(queue)
    events = [event for event, _ in in_file]
    if [ev.at_tick for ev in events] != sorted(ev.at_tick for ev in events):
        features["ticks out of order"] += 1
    text = "\n".join([f"scenario r ticks {duration}", *(line for _, line in in_file)]) + "\n"
    return text, duration, events


def _outcome(make) -> tuple | str:
    """The events, frames and the script itself ``make()`` gives, or its
    ValidationError's text."""
    try:
        script = make()
    except ValidationError as exc:
        return str(exc)
    assert all(type(ev) is Event for ev in script.events)
    assert all(type(frame) is Frame and all(type(p) is PersonObservation for p in frame.persons.values())
               for frame in script.frames)  # of the exact types, though new_record builds them
    return script.events, script.frames, script


def test_the_parse_path_and_the_constructor_agree():
    rng = random.Random(2121)
    features: Counter[str] = Counter()
    for _ in range(2000):
        text, duration, events = rendered_scenario(rng, features)
        in_order = tuple(sorted(events, key=lambda ev: ev.at_tick))  # stable: file order in a tick
        parsed = _outcome(lambda: parse_scenario(text))
        built = _outcome(lambda: ScenarioScript("r", duration, in_order))
        assert parsed == built, text
        if isinstance(parsed, str):
            features[next(rule for rule in RULES if rule in parsed)] += 1
        else:
            features["accepted"] += 1
            assert hash(parsed[2]) == hash(built[2]) and repr(parsed[2]) == repr(built[2])
    wanted = {"accepted", "positive duration", "beyond duration", "already present",
              "unknown person", "finite coordinates", "ticks out of order",
              "leave and return on one tick"}
    assert all(features[name] >= 10 for name in wanted), features


def test_parsing_makes_no_event_until_events_is_read(monkeypatch):
    made = Counter()

    class CountedEvent:
        """Stands in for the ``Event`` that ``dsl`` names, counting what it makes."""

        def __new__(cls, *fields, **named):
            made["call"] += 1
            return Event(*fields, **named)

        @staticmethod
        def _make(row):
            made["_make"] += 1
            return Event._make(row)

    monkeypatch.setattr(dsl, "Event", CountedEvent)
    script = parse_scenario("scenario s ticks 9\n@2 button yes\n@0 person_appear id=1 x=1.0 y=0.5\n"
                            "@4 person_leave id=1\n@4 hazard on\n")
    assert len(script.frames) == 3 and script == script
    assert sum(made.values()) == 0
    assert script.events == (Event(0, "person_appear", 1, 1.0, 0.5), Event(2, "button_press", button="yes"),
                             Event(4, "person_leave", 1), Event(4, "hazard_on"))
    assert script.events is script.events  # made once, then kept
    assert sum(made.values()) == 4


@pytest.mark.parametrize("duration", [2.5, "3", True, None], ids=repr)
def test_a_duration_that_is_not_an_int_is_refused_naming_the_scenario(duration):
    # 2.5 once ended sim.run in a bare TypeError, "3" raised one from the
    # comparison, and True ran as one tick
    with pytest.raises(ValidationError, match=rf"^scenario 'odd' duration {re.escape(repr(duration))} "
                                              "is not an integer$"):
        ScenarioScript("odd", duration, (Event(0, "hazard_on"),))


@pytest.mark.parametrize("tick", [0.5, True, "1", None, 1.0], ids=repr)
def test_an_event_tick_that_is_not_an_int_is_refused(tick):
    # Event(0.5, ...) once made a frame that sim.run never matched, dropping it
    # and every later frame; Event(True, ...) applied at tick 1
    events = (Event(0, "network_down"), Event(tick, "hazard_on"), Event(2, "network_up"))
    with pytest.raises(ValidationError, match=rf"^event tick {re.escape(repr(tick))} is not an integer$"):
        ScenarioScript("odd", 3, events)


@pytest.mark.parametrize("events, tick", [
    ((Event(1, "hazard_on"), Event(True, "hazard_off"), Event(1.0, "network_down")), True),
    ((Event(1, "hazard_on"), Event(1.0, "network_down")), 1.0),
], ids=("True after 1", "1.0 after 1"))
def test_a_tick_equal_to_the_int_tick_before_it_is_refused_too(events, tick):
    # groupby groups by ==, so these ticks once joined tick 1's group unchecked
    with pytest.raises(ValidationError, match=rf"^event tick {re.escape(repr(tick))} is not an integer$"):
        ScenarioScript("odd", 3, events)


@pytest.mark.parametrize("kind", ["person_appear", "person_move", "person_leave"])
@pytest.mark.parametrize("pid", ["a", True, [1], None, 1.0], ids=repr)
def test_a_person_id_that_is_not_an_int_is_refused(kind, pid):
    # True once named person 1, a list ended in a bare TypeError from the roster
    events = (Event(0, "person_appear", 1, 1.0, 1.0), Event(1, kind, pid, 1.0, 1.0))
    with pytest.raises(ValidationError, match=rf"^person id {re.escape(repr(pid))} at tick 1 is not an integer$"):
        ScenarioScript("odd", 3, events)


@pytest.mark.parametrize("kind", ["person_appear", "person_move"])
@pytest.mark.parametrize("x, y", [("1.0", 1.0), (True, 1.0), (1.0, False), (10 ** 400, 1.0), ([1.0], 1.0)],
                         ids=("x='1.0'", "x=True", "y=False", "x=10**400", "x=[1.0]"))
def test_a_coordinate_that_is_not_a_finite_float_or_int_is_refused(kind, x, y):
    # '1.0' once ended in a bare TypeError from isfinite, and True was taken as 1
    events = (Event(0, "person_appear", 1, 1.0, 1.0), Event(1, kind, 2 if kind == "person_appear" else 1, x, y))
    with pytest.raises(ValidationError, match=rf"^event {kind} at tick 1 needs finite coordinates$"):
        ScenarioScript("odd", 3, events)


def test_int_coordinates_are_accepted():
    script = ScenarioScript("ints", 3, (Event(0, "person_appear", 1, 1, -2), Event(1, "person_move", 1, 0, 0.5)))
    assert _replay(script) == {1: (0, 0.5)}


@pytest.mark.parametrize("position", [0, 1])
@pytest.mark.parametrize("row", [
    (0, "hazard_on", None, None, None),
    (0, "hazard_on", None, None, None, None, None),
    5,
    None,
    (),
], ids=("5 fields", "7 fields", "5", "None", "()"))
def test_a_row_that_is_not_six_fields_is_refused_naming_its_position(row, position):
    # these once escaped the walk as a bare ValueError from the unpack, or a
    # TypeError or IndexError from itemgetter(0)
    rows = ((0, "network_down", None, None, None, None),) * position + (row,)
    with pytest.raises(ValidationError, match=rf"^event {position} is not a row of 6 fields$"):
        ScenarioScript("odd", 3, rows)
