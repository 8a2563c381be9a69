"""Shared interaction state: the blackboard, stimulus events, and emitted actions.

One simulated tick is one controller decision cycle.  Events are applied at the
start of a tick, the controller runs against the resulting context, and
``end_tick`` flushes whatever the controller emitted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

# Closed vocabulary of emitted action names.
ACTION_SAY = "say"
ACTION_TAKE_PHOTO = "take_photo"
ACTION_SHOW_PHOTO = "show_photo"
ACTION_HALT = "halt_motion_hold"
ACTION_IDLE = "idle"
# The payload type each action carries; None means it carries no payload.
ACTION_PAYLOADS: dict[str, type | None] = {
    ACTION_SAY: str,
    ACTION_TAKE_PHOTO: int,
    ACTION_SHOW_PHOTO: int,
    ACTION_HALT: None,
    ACTION_IDLE: None,
}

BUTTONS = ("yes", "no", "aux")


@dataclass(frozen=True)
class PersonObservation:
    """A tracked person at a 2-D position, in meters, robot at the origin."""

    person_id: int
    x: float
    y: float


@dataclass(frozen=True)
class Event:
    """A timed stimulus applied to the context at the start of its tick."""

    at_tick: int
    kind: str
    person_id: int | None = None
    x: float | None = None
    y: float | None = None
    button: str | None = None


@dataclass(frozen=True)
class ActionEmission:
    """One action produced by a controller during one tick."""

    tick: int
    action: str
    payload: str | int | None = None


@dataclass
class InteractionContext:
    """The blackboard both controller styles read and write."""

    clock: int = 0
    persons: dict[int, PersonObservation] = field(default_factory=dict)
    buttons_pressed_this_tick: set[str] = field(default_factory=set)
    hazard_hand_near_arm: bool = False
    network_ok: bool = True
    photos_taken: int = 0
    photos_shown: int = 0
    greeting_group_size: int = 0
    cooldown_until: int = 0
    emissions_this_tick: list[ActionEmission] = field(default_factory=list)


def apply_events(ctx: InteractionContext, events: Iterable[Event]) -> None:
    """Apply one tick's events in order.

    The events come from a ``dsl.ScenarioScript``, which has checked every
    rule they must keep (tick, kind, button, coordinates, roster), so nothing
    is checked here.
    """
    for ev in events:
        kind = ev.kind
        if kind == "person_appear" or kind == "person_move":
            ctx.persons[ev.person_id] = PersonObservation(ev.person_id, ev.x, ev.y)
        elif kind == "person_leave":
            del ctx.persons[ev.person_id]
        elif kind == "button_press":
            ctx.buttons_pressed_this_tick.add(ev.button)
        elif kind == "hazard_on":
            ctx.hazard_hand_near_arm = True
        elif kind == "hazard_off":
            ctx.hazard_hand_near_arm = False
        elif kind == "network_down":
            ctx.network_ok = False
        else:  # network_up
            ctx.network_ok = True


def emit(ctx: InteractionContext, emission: ActionEmission) -> None:
    """Record one emission; its tick must match the current clock.

    The action must be in ``ACTION_PAYLOADS`` and its payload of exactly the
    declared type (a ``bool`` is not an ``int``).  A text payload may hold no
    ``;`` and no line boundary, so that the serialized trace reads back
    (``sim.parse_trace``).
    """
    if emission.tick != ctx.clock:
        raise ValueError(f"emission stamped tick {emission.tick} at clock {ctx.clock}")
    if emission.action not in ACTION_PAYLOADS:
        raise ValueError(f"unknown action {emission.action!r} at clock {ctx.clock}")
    payload = emission.payload
    declared = ACTION_PAYLOADS[emission.action]
    if type(payload) is not (type(None) if declared is None else declared):
        wanted = "no payload" if declared is None else f"a {declared.__name__} payload"
        raise ValueError(f"{emission.action} takes {wanted}, got {payload!r}")
    if isinstance(payload, str) and (";" in payload or payload.splitlines() not in ([], [payload])):
        raise ValueError(f"payload {payload!r} of {emission.action} holds ';' or a line break")
    ctx.emissions_this_tick.append(emission)


def end_tick(ctx: InteractionContext) -> list[ActionEmission]:
    """Flush and return the tick's emissions, drop button edges, and advance the clock."""
    flushed = list(ctx.emissions_this_tick)
    ctx.emissions_this_tick.clear()
    ctx.buttons_pressed_this_tick.clear()
    ctx.clock += 1
    return flushed
