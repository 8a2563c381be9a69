"""Context lifecycle: event application, emission collection, tick boundaries."""

from __future__ import annotations

import math
import random

import pytest

from shutter_sim import (
    ActionEmission,
    Event,
    InteractionContext,
    ScenarioScript,
    TickRecord,
    ValidationError,
    flatten_emissions,
    parse_trace,
    serialize_trace,
)
from shutter_sim.world import ACTION_PAYLOADS, apply_events, emit, end_tick


def test_person_events_update_the_roster():
    ctx = InteractionContext()
    apply_events(ctx, [Event(0, "person_appear", person_id=1, x=1.0, y=0.5)])
    assert ctx.persons[1].x == 1.0
    apply_events(ctx, [Event(0, "person_move", person_id=1, x=2.0, y=-0.5)])
    assert (ctx.persons[1].x, ctx.persons[1].y) == (2.0, -0.5)
    apply_events(ctx, [Event(0, "person_leave", person_id=1)])
    assert ctx.persons == {}


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
    ctx = InteractionContext()
    apply_events(ctx, [Event(0, "button_press", button="yes")])
    assert ctx.buttons_pressed_this_tick == {"yes"}
    end_tick(ctx)
    assert ctx.buttons_pressed_this_tick == set()


def test_unknown_button_is_rejected():
    with pytest.raises(ValidationError, match="unknown button 'maybe'"):
        ScenarioScript("s", 5, (Event(0, "button_press", button="maybe"),))


def test_hazard_and_network_toggles():
    ctx = InteractionContext()
    apply_events(ctx, [Event(0, "hazard_on"), Event(0, "network_down")])
    assert ctx.hazard_hand_near_arm and not ctx.network_ok
    end_tick(ctx)
    apply_events(ctx, [Event(1, "hazard_off"), Event(1, "network_up")])
    assert not ctx.hazard_hand_near_arm and ctx.network_ok


def test_end_tick_flushes_and_advances():
    ctx = InteractionContext()
    emit(ctx, ActionEmission(0, "say", "hello"))
    flushed = end_tick(ctx)
    assert flushed == [ActionEmission(0, "say", "hello")]
    assert ctx.emissions_this_tick == []
    assert ctx.clock == 1


def test_emission_must_carry_the_current_tick():
    ctx = InteractionContext()
    with pytest.raises(ValueError, match="stamped tick 2 at clock 0"):
        emit(ctx, ActionEmission(2, "say", "late"))


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
        emit(ctx, ActionEmission(0, "say", payload))
    assert ctx.emissions_this_tick == []


def test_emit_rejects_actions_outside_the_vocabulary():
    ctx = InteractionContext()
    with pytest.raises(ValueError, match="unknown action 'dance' at clock 0"):
        emit(ctx, ActionEmission(0, "dance"))
    assert ctx.emissions_this_tick == []


def _round_trip(emissions):
    record = TickRecord(0, "bt", "Running", tuple(emissions), 1, False, True)
    return flatten_emissions(parse_trace(serialize_trace([record])))


# an action that takes each payload type
ACTION_FOR = {str: "say", int: "take_photo", type(None): "idle"}


@pytest.mark.parametrize("payload", ["a) c] x", "a(b", "x] persons=1 hazard=0 net=1", " emit=[", 7, None])
def test_accepted_payloads_round_trip(payload):
    ctx = InteractionContext()
    emit(ctx, ActionEmission(0, ACTION_FOR[type(payload)], payload))
    record = TickRecord(0, "bt", "Running", tuple(ctx.emissions_this_tick), 1, False, True)
    assert parse_trace(serialize_trace([record])) == [record]


@pytest.mark.parametrize("action,payload", [
    ("say", 7), ("say", None), ("take_photo", "1"), ("take_photo", True), ("show_photo", 1.0),
    ("show_photo", None), ("idle", "x"), ("idle", 0), ("halt_motion_hold", ""),
])
def test_emit_rejects_a_payload_of_the_wrong_type(action, payload):
    ctx = InteractionContext()
    with pytest.raises(ValueError, match=f"^{action} takes "):
        emit(ctx, ActionEmission(0, action, payload))
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
                emit(ctx, ActionEmission(0, "say", payload))
            except ValueError:
                assert ";" in payload or len(f"a{payload}b".splitlines()) > 1
        expected = [("say", e.payload) for e in ctx.emissions_this_tick]
        assert _round_trip(ctx.emissions_this_tick) == expected
