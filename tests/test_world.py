"""Context lifecycle: event frames, emission collection, tick boundaries."""

from __future__ import annotations

import copy
import dataclasses
import math
import pickle
import random
from collections import namedtuple

import pytest

from shutter_sim import (
    ActionEmission,
    Behavior,
    Divergence,
    DivergenceReport,
    Event,
    InteractionContext,
    PersonObservation,
    ScenarioScript,
    State,
    TickRecord,
    Timeout,
    Transition,
    ValidationError,
    flatten_emissions,
    parse_trace,
    run,
    serialize_trace,
)
from shutter_sim.groups import zone_groups
from shutter_sim.world import ACTION_PAYLOADS, Roster, emit, end_tick

from conftest import ContextProbe


def _contexts(duration, *events):
    """The world half of the context on each tick of a run over ``events``."""
    probe = ContextProbe()
    run(probe, ScenarioScript("s", duration, events))
    return [view._replace(persons=dict(view.persons)) for view in probe.seen]


def test_person_events_update_the_roster():
    seen = _contexts(3, Event(0, "person_appear", person_id=1, x=1.0, y=0.5),
                     Event(1, "person_move", person_id=1, x=2.0, y=-0.5),
                     Event(2, "person_leave", person_id=1))
    assert seen[0].persons[1].x == 1.0
    assert (seen[1].persons[1].x, seen[1].persons[1].y) == (2.0, -0.5)
    assert seen[2].persons == {}


def _appear(pid, x=0.0, y=0.0):
    return Event(0, "person_appear", person_id=pid, x=x, y=y)


def test_duplicate_appearance_is_rejected():
    with pytest.raises(ValidationError, match="person 7 already present at tick 0"):
        ScenarioScript("s", 5, (_appear(7), _appear(7, x=1.0, y=1.0)))


@pytest.mark.parametrize("kind", ["person_move", "person_leave"])
def test_unknown_person_is_rejected(kind):
    with pytest.raises(ValidationError, match="unknown person 9 at tick 0"):
        ScenarioScript("s", 5, (Event(0, kind, person_id=9, x=0.0, y=0.0),))


def test_event_ticks_must_be_in_order_and_not_negative():
    with pytest.raises(ValidationError, match="event at 3 out of order after tick 5"):
        ScenarioScript("s", 10, (Event(5, "hazard_on"), Event(3, "hazard_off")))
    with pytest.raises(ValidationError, match="event at -1 before tick 0"):
        ScenarioScript("s", 10, (Event(-1, "hazard_on"),))


@pytest.mark.parametrize("coord", [math.inf, math.nan, None])
def test_positions_must_be_finite(coord):
    with pytest.raises(ValidationError, match="finite coordinates"):
        ScenarioScript("s", 5, (_appear(1, x=coord),))


def test_button_presses_last_one_tick():
    seen = _contexts(2, Event(0, "button_press", button="yes"))
    assert seen[0].buttons == {"yes"}
    assert seen[1].buttons == set()


def test_unknown_button_is_rejected():
    with pytest.raises(ValidationError, match="unknown button 'maybe'"):
        ScenarioScript("s", 5, (Event(0, "button_press", button="maybe"),))


def test_hazard_and_network_toggles():
    seen = _contexts(2, Event(0, "hazard_on"), Event(0, "network_down"),
                     Event(1, "hazard_off"), Event(1, "network_up"))
    assert seen[0].hazard and not seen[0].network
    assert not seen[1].hazard and seen[1].network


def test_end_tick_flushes_and_advances():
    ctx = InteractionContext()
    emit(ctx, "say", "hello")
    flushed = end_tick(ctx)
    assert flushed == [ActionEmission("say", "hello")]
    assert ctx.emissions_this_tick == []
    assert ctx.clock == 1


# every character str.splitlines treats as a line boundary (all lie below U+2030)
LINE_BOUNDARIES = [chr(c) for c in range(0x2030) if len(f"a{chr(c)}b".splitlines()) == 2]


def test_line_boundaries_cover_the_known_breaks():
    assert {"\n", "\r", "\x0b", "\x0c", "\x85", "\u2028", "\u2029"} <= set(LINE_BOUNDARIES)


@pytest.mark.parametrize(
    "payload",
    ["a;b", ";", "a\r\nb", "trailing\n"] + [f"a{c}b" for c in LINE_BOUNDARIES],
)
def test_emit_rejects_payloads_a_trace_cannot_read_back(payload):
    ctx = InteractionContext()
    with pytest.raises(ValueError, match="holds ';' or a line break"):
        emit(ctx, "say", payload)
    assert ctx.emissions_this_tick == []


def test_emit_rejects_actions_outside_the_vocabulary():
    ctx = InteractionContext()
    with pytest.raises(ValueError, match="unknown action 'dance' at clock 0"):
        emit(ctx, "dance")
    assert ctx.emissions_this_tick == []


def _round_trip(emissions):
    record = TickRecord(0, "bt", "Running", tuple(emissions), 1, False, True)
    return flatten_emissions(parse_trace(serialize_trace([record])))


# an action that takes each payload type
ACTION_FOR = {str: "say", int: "take_photo", type(None): "idle"}


@pytest.mark.parametrize("payload", ["a) c] x", "a(b", "x] persons=1 hazard=0 net=1", " emit=[", 7, None])
def test_accepted_payloads_round_trip(payload):
    ctx = InteractionContext()
    emit(ctx, ACTION_FOR[type(payload)], payload)
    record = TickRecord(0, "bt", "Running", tuple(ctx.emissions_this_tick), 1, False, True)
    assert parse_trace(serialize_trace([record])) == [record]


@pytest.mark.parametrize("action", sorted(ACTION_PAYLOADS))
def test_emit_builds_an_action_emission_of_its_exact_type(action):
    declared = ACTION_PAYLOADS[action]
    payload = {str: "hi", int: 3, None: None}[declared]
    ctx = InteractionContext()
    emit(ctx, action, payload)
    emission, = ctx.emissions_this_tick
    assert type(emission) is ActionEmission and len(emission) == len(ActionEmission._fields)
    assert emission == ActionEmission(action, payload)
    assert emission.action is action and emission.payload is payload


@pytest.mark.parametrize("action,payload", [
    ("say", 7), ("say", None), ("take_photo", "1"), ("take_photo", True), ("show_photo", 1.0),
    ("show_photo", None), ("idle", "x"), ("idle", 0), ("halt_motion_hold", ""),
])
def test_emit_rejects_a_payload_of_the_wrong_type(action, payload):
    ctx = InteractionContext()
    with pytest.raises(ValueError, match=f"^{action} takes "):
        emit(ctx, action, payload)
    assert ctx.emissions_this_tick == []


def test_every_action_declares_its_payload_type():
    assert ACTION_PAYLOADS == {
        "say": str, "take_photo": int, "show_photo": int, "idle": None, "halt_motion_hold": None,
    }


def test_random_accepted_payloads_round_trip():
    rng = random.Random(3301)
    alphabet = "ab ()[]=;\\\t\n\x0c\u2028-"
    for _ in range(2000):
        ctx = InteractionContext()
        for _ in range(rng.randint(1, 3)):
            payload = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 8)))
            try:
                emit(ctx, "say", payload)
            except ValueError:
                assert ";" in payload or len(f"a{payload}b".splitlines()) > 1
        expected = [("say", e.payload) for e in ctx.emissions_this_tick]
        assert _round_trip(ctx.emissions_this_tick) == expected


# Every plain value record, with its fields in order.
RECORDS = [
    (PersonObservation, ("person_id", "x", "y")),
    (Event, ("at_tick", "kind", "person_id", "x", "y", "button")),
    (ActionEmission, ("action", "payload")),
    (TickRecord, ("tick", "controller", "status", "emissions", "persons", "hazard", "network")),
    (Divergence, ("position", "emission_a", "emission_b")),
    (DivergenceReport, ("equivalent", "first_divergence")),
    (State, ("state_id", "on_entry", "on_tick")),
    (Transition, ("source", "guard", "target", "priority", "record_origin", "require_origin")),
    (Timeout, ("state", "after_ticks", "target")),
]


@pytest.mark.parametrize("record_type, fields", RECORDS, ids=[t.__name__ for t, _ in RECORDS])
def test_value_records_are_tuples_of_their_fields(record_type, fields):
    values = tuple(f"{name}-value" for name in fields)
    record = record_type(*values)
    assert record == values
    assert record == namedtuple("Other", fields)(*values)  # the type takes no part
    *unpacked, = record
    assert unpacked == [getattr(record, name) for name in fields] == list(values)
    assert record[-1] == values[-1]
    with pytest.raises(AttributeError):
        setattr(record, fields[0], None)


def test_behavior_stays_a_dataclass():
    behavior = Behavior("wave", 2)
    assert dataclasses.is_dataclass(behavior)
    assert dataclasses.replace(behavior, duration=3) == Behavior("wave", 3)
    assert behavior != ("wave", 2, None, None)


def test_a_roster_copies_as_a_read_only_roster_and_reads_out_as_a_writable_dict():
    roster = Roster({1: PersonObservation(1, 1.0, 0.5), 2: PersonObservation(2, 9.0, 0.0)})
    roster.zones = zone_groups(roster.values())
    twins = [copy.copy(roster), copy.deepcopy(roster)]
    twins += [pickle.loads(pickle.dumps(roster, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in twins:
        assert type(twin) is Roster and twin is not roster and twin == roster
        assert twin.zones == (1, [roster[1]])
        with pytest.raises(TypeError, match="^a frame's Roster is read-only"):
            twin[3] = PersonObservation(3, 0.0, 0.0)
        assert twin == roster
    for plain in (roster.copy(), dict(roster), roster | {}):
        assert type(plain) is dict and plain == roster
        plain[3] = PersonObservation(3, 0.0, 0.0)
        del plain[1]
        assert sorted(plain) == [2, 3] and sorted(roster) == [1, 2]
