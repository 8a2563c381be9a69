"""Deterministic scenario runner, trace serialization, and trace comparison.

Each tick: apply the scenario's frame for that tick, if it has one, advance
the controller, flush emissions into a TickRecord.  Traces serialize one
record per line so repeated runs can be compared byte for byte.
"""

from __future__ import annotations

import re
from itertools import zip_longest
from typing import NamedTuple, NoReturn, Sequence as Seq

from . import bt
from .dsl import _MAX_DIGITS, ScenarioScript
from .errors import ValidationError
from .fsm import StateMachine
from .world import (
    ACTION_HALT,
    ACTION_IDLE,
    ACTION_PAYLOADS,
    ActionEmission,
    InteractionContext,
    end_tick,
    new_record,
)

PADDING_ACTIONS = frozenset({ACTION_IDLE, ACTION_HALT})


class TickRecord(NamedTuple):
    """What one controller did during one tick."""

    tick: int
    controller: str  # "bt" | "fsm"
    status: str  # root status token or current state id
    emissions: tuple[ActionEmission, ...]
    persons: int
    hazard: bool
    network: bool


class Divergence(NamedTuple):
    position: int
    emission_a: tuple[str, str] | None
    emission_b: tuple[str, str] | None


class DivergenceReport(NamedTuple):
    equivalent: bool
    first_divergence: Divergence | None


def run(controller: bt.Node | StateMachine, scenario: ScenarioScript) -> list[TickRecord]:
    """Run one controller over a scenario from a fresh context and fresh state.

    A validated ``bt`` root and a ``fsm.StateMachine`` are run alike: one
    ``reset()``, which refuses an unvalidated tree, then one ``step(ctx)`` per
    tick, giving each record its status, under the controller's ``label``.
    The scenario's events arrive as its prebuilt ``frames``: on a tick with a
    frame, ``ctx.persons`` becomes its roster, as it is, its buttons are
    pressed, and the hazard and network levels are set.  The roster is a
    read-only ``world.Roster``, so no run can change what the next one sees;
    a behavior that assigns ``ctx.persons`` a new dict changes it until the
    next frame.  The script's frames and its duration are all this reads of
    it.  A ValueError from the controller, such as a behavior that cannot act
    on the world it sees, is re-raised as a ValidationError naming the tick.
    """
    frames = iter(scenario.frames)
    frame = next(frames, None)
    step, label = controller.step, controller.label
    controller.reset()
    ctx = InteractionContext()
    records: list[TickRecord] = []
    try:
        for t in range(scenario.duration):
            if frame is not None and frame.tick == t:
                _, ctx.persons, buttons, ctx.hazard_hand_near_arm, ctx.network_ok = frame
                ctx.buttons_pressed_this_tick.update(buttons)
                frame = next(frames, None)
            # arguments run left to right: the step, then end_tick's flush
            records.append(new_record(TickRecord, (t, label, step(ctx), tuple(end_tick(ctx)),
                                                   len(ctx.persons), ctx.hazard_hand_near_arm,
                                                   ctx.network_ok)))
    except ValueError as exc:
        raise ValidationError(f"tick {t}: {exc}") from None
    return records


def _payload_str(payload: str | int | None) -> str:
    return "" if payload is None else str(payload)


def serialize_trace(records: Seq[TickRecord]) -> str:
    """One record per line; deterministic bytes for identical runs."""
    lines = []
    for r in records:
        emitted = ";".join([f"{e.action}({_payload_str(e.payload)})" for e in r.emissions])
        lines.append(_RECORD % (r.tick, r.controller, r.status, emitted,
                                r.persons, int(r.hazard), int(r.network)))
    return "\n".join(lines) + ("\n" if lines else "")


# The fields on each side of a trace line's emissions, as (key, value regex).
# Counts are ASCII decimals without sign, separator or leading zero, and at
# most ``_MAX_DIGITS`` digits, so int() takes them as they are.  The emissions
# end at the line's last ``] ``, as the fields after it hold none; an emission
# is an action up to its first ``(`` and a payload up to its last ``)``, neither
# holding ``;``, and only ``_payload`` checks an int payload.
# ``_TRACE_LINE`` and ``_RECORD`` are built from these tables; ``_trace_fault`` reads them.
_COUNT = rf"0|[1-9][0-9]{{0,{_MAX_DIGITS - 1}}}"
_FLAG = "[01]"
_HEAD = (("tick", _COUNT), ("ctl", "[^ ]*"), ("status", "[^ ]*"))
_TAIL = (("persons", _COUNT), ("hazard", _FLAG), ("net", _FLAG))
_SHAPES = {_COUNT: "a decimal count", _FLAG: "0 or 1"}  # as a fault names them
_OPEN, _CLOSE = " emit=[", "] "
_EMISSION_TEXT = r"[^;(]*\([^;]*\)"
_EMISSION = re.compile(r"([^;(]*)\(([^;]*)\)")


def _fields(fields: tuple[tuple[str, str], ...], value: str) -> str:
    """``key=value`` for each field, ``{}`` in ``value`` standing for its value regex."""
    return " ".join(f"{key}={value.format(regex)}" for key, regex in fields)


_TRACE_LINE = re.compile(
    _fields(_HEAD, "({})") + re.escape(_OPEN)
    + rf"((?:{_EMISSION_TEXT}(?:;{_EMISSION_TEXT})*)?)"
    + re.escape(_CLOSE) + _fields(_TAIL, "({})")
)
_TICK_FIELD = re.compile(_fields(_HEAD[:1], "({})") + " ")
_RECORD = _fields(_HEAD, "%s") + _OPEN + "%s" + _CLOSE + _fields(_TAIL, "%s")


def parse_trace(text: str) -> list[TickRecord]:
    """Read a serialized trace back, each payload typed as ``ACTION_PAYLOADS`` declares.

    An action outside that table, or one declared without a payload, reads back
    its payload text, or None when the text is empty.  Blank lines are skipped;
    any other line that breaks the format is a ValidationError naming the line
    and the first field at fault.  Records read from one text may share one
    ``emissions`` tuple, which is immutable.
    """
    records = []
    append = records.append
    match, tick_field = _TRACE_LINE.fullmatch, _TICK_FIELD.match
    # A line's tail, its text after the tick field, to the fields _TRACE_LINE
    # read from an earlier line with that tail.  A line with a valid tick field
    # matches _TRACE_LINE exactly when its tail does, whatever the count, so a
    # repeated tail needs no second full match.  Only tails of lines the full
    # match accepted are stored.
    tails: dict[str, tuple] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        head = tick_field(line)
        if head is not None:
            tail = line[head.end():]
            fields = tails.get(tail)
            if fields is not None:
                append(new_record(TickRecord, (int(head[1]),) + fields))
                continue
        try:
            m = match(line)
            if m is None:
                if not line.strip():
                    continue
                _trace_fault(line)
            tick, ctl, status, body, persons, hazard, net = m.groups()
            emissions = tuple([new_record(ActionEmission, (action, _payload(action, payload)))
                               for action, payload in _EMISSION.findall(body)])
            # a line _TRACE_LINE accepts starts with a tick field, so ``tail`` is its own
            fields = tails[tail] = (ctl, status, emissions, int(persons), hazard == "1", net == "1")
            append(new_record(TickRecord, (int(tick),) + fields))
        except ValueError as exc:
            raise ValidationError(f"bad trace line {line_no}: {exc}") from None
    return records


def _trace_fault(line: str) -> NoReturn:
    """Raise a ValueError naming the first fault of a line ``_TRACE_LINE``
    rejects: a missing ``emit=[`` or ``] ``, a side of the line with too few
    or too many fields, then the tick, the emissions and the other fields in
    line order."""
    head, found, rest = line.partition(_OPEN)
    if not found:
        raise ValueError("expected emit=[ after status=")
    body, found, tail = rest.rpartition(_CLOSE)
    if not found:
        raise ValueError("expected ] before persons=")
    parts = []
    for side, fields, where in ((head, _HEAD, "before emit=["), (tail, _TAIL, "after the emissions")):
        texts = side.split(" ")
        if len(texts) != len(fields):
            raise ValueError(f"expected {' '.join(key + '=' for key, _ in fields)} {where}")
        parts += zip(texts, fields)
    _check_field(*parts[0])  # the tick
    if body:
        for item in body.split(";"):
            emission = _EMISSION.fullmatch(item)
            if emission is None:
                raise ValueError("unterminated emission")
            _payload(*emission.groups())
    for part in parts[1:]:
        _check_field(*part)
    raise AssertionError(f"{line!r}: rejected by _TRACE_LINE, yet no field is at fault")


def _check_field(part: str, field: tuple[str, str]) -> None:
    """Raise a ValueError unless ``part`` is ``key=value`` with a value its regex matches."""
    key, value = field
    if not part.startswith(key + "="):
        raise ValueError(f"expected {key}=")
    text = part[len(key) + 1:]
    if re.fullmatch(value, text) is None:
        if value == _COUNT and re.fullmatch("[1-9][0-9]*", text):
            raise ValueError(f"{key} has more than {_MAX_DIGITS} digits")
        raise ValueError(f"{key} {text!r} is not {_SHAPES[value]}")


def _payload(action: str, text: str) -> str | int | None:
    """A payload text as the type its action declares; an int payload must be
    written as ``serialize_trace`` writes it, within int()'s limit."""
    declared = ACTION_PAYLOADS.get(action)
    if declared is str:
        return text
    if declared is not int:
        return text or None
    # int() could refuse more digits with its own advice; no text has more digits than characters
    if len(text) > _MAX_DIGITS and sum(ch.isdecimal() for ch in text) > _MAX_DIGITS:
        raise ValueError(f"{action} payload has more than {_MAX_DIGITS} digits")
    value = int(text)
    if str(value) != text:
        raise ValueError(f"{action} payload {text!r} is not an integer")
    return value


def flatten_emissions(records: Seq[TickRecord]) -> list[tuple[str, str]]:
    """(action, payload) pairs in order, with idle/hold padding stripped."""
    return [
        (e.action, _payload_str(e.payload))
        for r in records
        for e in r.emissions
        if e.action not in PADDING_ACTIONS
    ]


def compare(records_a: Seq[TickRecord], records_b: Seq[TickRecord]) -> DivergenceReport:
    """Compare two traces by emission content, ignoring padding and tick offsets."""
    pairs = zip_longest(flatten_emissions(records_a), flatten_emissions(records_b))
    for i, (ea, eb) in enumerate(pairs):
        if ea != eb:
            return DivergenceReport(False, Divergence(i, ea, eb))
    return DivergenceReport(True, None)
