"""Shared interaction state: the blackboard, stimulus events, and emitted actions.

One simulated tick is one controller decision cycle.  A tick's events reach
the context at the start of the tick, as one ``Frame`` that
``dsl.ScenarioScript`` built from them; the controller runs against the
resulting context, and ``end_tick`` flushes whatever the controller emitted.

Every plain value record, here and in ``fsm`` and ``sim``, is a
``typing.NamedTuple``: it equals the plain tuple of its fields (so two record
types with equal fields compare equal), unpacks and indexes in field order,
and refuses attribute assignment.  The code that builds a record once per
tick, once per scenario row or once per trace line does so with
``new_record``, not the class call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

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

# The two consent buttons, and every button a scenario may press.
BUTTON_YES = "yes"
BUTTON_NO = "no"
BUTTONS = (BUTTON_YES, BUTTON_NO, "aux")

# ``new_record(Record, fields)`` builds a NamedTuple record of the exact type
# and fields that ``Record(*fields)`` builds, without the call through the
# class's generated ``__new__``, which is a Python function: with CPython 3.11
# on a 2-core x86-64 host, timeit gave about 460 ns this way and 800 ns by the
# class call for a seven-field ``sim.TickRecord``.  The caller passes every
# field, as defaults are not filled in.
new_record = tuple.__new__


class PersonObservation(NamedTuple):
    """A tracked person at a 2-D position, in meters, robot at the origin."""

    person_id: int
    x: float
    y: float


class Event(NamedTuple):
    """A timed stimulus applied to the context at the start of its tick."""

    at_tick: int
    kind: str
    person_id: int | None = None
    x: float | None = None
    y: float | None = None
    button: str | None = None


def _read_only(roster, *args, **kwargs):
    raise TypeError("a frame's Roster is read-only: assign ctx.persons a new dict, "
                    "such as {**ctx.persons, pid: obs}, or write into ctx.persons.copy()")


class Roster(dict):
    """A frame's roster, by person id: a read-only dict that can carry its
    ``zones``, the record ``(size, members)`` that ``groups.zone_groups``
    returns for its values (the engaged group's size, then the members of
    every group reaching the zone), or one ``groups.same_zone_groups`` proved
    to hold the same size and members; None until the catalogue's greeting
    first sizes the roster.

    Every in-place write raises a TypeError, so a stored record is right for
    the roster's values for as long as the roster lives.  ``Roster(mapping)``
    builds one, as ``dict.__init__`` calls none of the overrides; ``copy()``,
    ``dict(roster)`` and ``roster | other`` give writable plain dicts.  Dict
    equality and ``repr`` ignore the attributes; a copy, a deep copy or a
    pickle is a ``Roster`` that keeps them.
    """

    zones = None
    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):
        # copy and pickle would otherwise rebuild the items one by one, by
        # the __setitem__ a Roster refuses
        return type(self), (dict(self),), vars(self)


class Frame(NamedTuple):
    """The world half of the context after one tick's events.

    ``persons`` is the roster after the tick's person events, a ``Roster``
    that a frame whose tick moves no one shares with the frame before it, so
    such frames share its ``zones`` too; it is read-only, so a reader
    copies it before writing.  ``buttons`` are the buttons pressed on the
    tick; ``hazard`` and ``network`` are the levels after it.  A script has
    one frame per tick that has events.
    """

    tick: int
    persons: Roster
    buttons: tuple[str, ...]
    hazard: bool
    network: bool


class ActionEmission(NamedTuple):
    """One action produced by a controller; its tick is that of the
    ``sim.TickRecord`` that holds it."""

    action: str
    payload: str | int | None = None


@dataclass
class InteractionContext:
    """The blackboard both controller styles read and write.

    In a ``sim.run``, ``persons`` is the current frame's read-only ``Roster``
    itself, so a behavior changes the roster by assigning ``persons`` a new
    dict, for instance ``{**ctx.persons, pid: obs}`` or a written
    ``ctx.persons.copy()``; a context built by hand starts with a plain,
    writable dict.  ``sized`` is the last ``Roster`` whose ``zones`` record
    the catalogue's greeting read or filled in this run, which it may prove a
    later roster's record from; it takes no part in equality or ``repr``.
    """

    clock: int = 0
    persons: dict[int, PersonObservation] = field(default_factory=dict)
    buttons_pressed_this_tick: set[str] = field(default_factory=set)
    hazard_hand_near_arm: bool = False
    network_ok: bool = True
    photos_taken: int = 0
    photos_shown: int = 0
    cooldown_until: int = 0
    emissions_this_tick: list[ActionEmission] = field(default_factory=list)
    sized: Roster | None = field(default=None, repr=False, compare=False)


def breaks_line(text: str) -> bool:
    """Whether ``text`` holds anything ``str.splitlines`` splits on."""
    return text.splitlines() not in ([], [text])


def emit(ctx: InteractionContext, action: str, payload: str | int | None = None) -> None:
    """Record one emission of ``action`` on the current tick.

    The action must be in ``ACTION_PAYLOADS`` and its payload of exactly the
    declared type (a ``bool`` is not an ``int``).  A text payload may hold no
    ``;`` and no line boundary, so that the serialized trace reads back
    (``sim.parse_trace``).  The ``ActionEmission`` is built with ``new_record``,
    as this runs once per emission.
    """
    if action not in ACTION_PAYLOADS:
        raise ValueError(f"unknown action {action!r} at clock {ctx.clock}")
    declared = ACTION_PAYLOADS[action]
    if type(payload) is not (type(None) if declared is None else declared):
        wanted = "no payload" if declared is None else f"a {declared.__name__} payload"
        raise ValueError(f"{action} takes {wanted}, got {payload!r}")
    if isinstance(payload, str) and (";" in payload or breaks_line(payload)):
        raise ValueError(f"payload {payload!r} of {action} holds ';' or a line break")
    ctx.emissions_this_tick.append(new_record(ActionEmission, (action, payload)))


def end_tick(ctx: InteractionContext) -> list[ActionEmission]:
    """Flush and return the tick's emissions, drop button edges, and advance the clock."""
    flushed = list(ctx.emissions_this_tick)
    ctx.emissions_this_tick.clear()
    ctx.buttons_pressed_this_tick.clear()
    ctx.clock += 1
    return flushed
