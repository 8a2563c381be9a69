"""Deterministic scenario runner, trace serialization, and trace comparison.

Each tick: apply the scenario's events for that tick, advance the controller,
flush emissions into a TickRecord.  Traces serialize one record per line so
repeated runs can be compared byte for byte.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Sequence as Seq

from . import bt
from .dsl import ScenarioScript
from .errors import ValidationError
from .fsm import StateMachine
from .world import (
    ACTION_HALT,
    ACTION_IDLE,
    ACTION_PAYLOADS,
    ActionEmission,
    InteractionContext,
    apply_events,
    end_tick,
)

PADDING_ACTIONS = frozenset({ACTION_IDLE, ACTION_HALT})


@dataclass(frozen=True)
class TickRecord:
    """What one controller did during one tick."""

    tick: int
    controller: str  # "bt" | "fsm"
    status: str  # root status token or current state id
    emissions: tuple[ActionEmission, ...]
    persons: int
    hazard: bool
    network: bool


@dataclass(frozen=True)
class Divergence:
    position: int
    emission_a: tuple[str, str] | None
    emission_b: tuple[str, str] | None


@dataclass(frozen=True)
class DivergenceReport:
    equivalent: bool
    first_divergence: Divergence | None


def run(controller: bt.Node | StateMachine, scenario: ScenarioScript) -> list[TickRecord]:
    """Run one controller over a scenario from a fresh context and fresh state."""
    by_tick: dict[int, list] = defaultdict(list)
    for ev in scenario.events:
        by_tick[ev.at_tick].append(ev)

    is_tree = isinstance(controller, bt.Node)
    controller.reset()
    ctx = InteractionContext()
    records: list[TickRecord] = []
    for t in range(scenario.duration):
        apply_events(ctx, by_tick.get(t, ()))
        if is_tree:
            status = bt.tick(controller, ctx).value
            label = "bt"
        else:
            controller.step(ctx)
            status = controller.current
            label = "fsm"
        persons = len(ctx.persons)
        hazard = ctx.hazard_hand_near_arm
        network = ctx.network_ok
        emissions = end_tick(ctx)
        records.append(TickRecord(t, label, status, tuple(emissions), persons, hazard, network))
    return records


def _payload_str(payload: str | int | None) -> str:
    return "" if payload is None else str(payload)


def serialize_trace(records: Seq[TickRecord]) -> str:
    """One record per line; deterministic bytes for identical runs."""
    lines = []
    for r in records:
        emitted = ";".join(f"{e.action}({_payload_str(e.payload)})" for e in r.emissions)
        lines.append(
            f"tick={r.tick} ctl={r.controller} status={r.status} emit=[{emitted}]"
            f" persons={r.persons} hazard={int(r.hazard)} net={int(r.network)}"
        )
    return "\n".join(lines) + ("\n" if lines else "")


def parse_trace(text: str) -> list[TickRecord]:
    """Read a serialized trace back, each payload typed as ``ACTION_PAYLOADS`` declares.

    An action outside that table, or one declared without a payload, reads back
    its payload text, or None when the text is empty.
    """
    records = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            head, _, rest = line.partition(" emit=[")
            body, _, tail = rest.rpartition("] ")
            tick_part, ctl_part, status_part = head.split(" ")
            persons_part, hazard_part, net_part = tail.split(" ")
            emissions = []
            tick = int(_field(tick_part, "tick"))
            if body:
                for item in body.split(";"):
                    action, _, payload = item.partition("(")
                    if not payload.endswith(")"):
                        raise ValueError("unterminated emission")
                    emissions.append(ActionEmission(tick, action, _read_payload(action, payload[:-1])))
            records.append(TickRecord(
                tick=tick,
                controller=_field(ctl_part, "ctl"),
                status=_field(status_part, "status"),
                emissions=tuple(emissions),
                persons=int(_field(persons_part, "persons")),
                hazard=_field(hazard_part, "hazard") == "1",
                network=_field(net_part, "net") == "1",
            ))
        except ValueError as exc:
            raise ValidationError(f"bad trace line {line_no}: {exc}") from None
    return records


def _read_payload(action: str, text: str) -> str | int | None:
    declared = ACTION_PAYLOADS.get(action)
    if declared is str:
        return text
    if declared is int:
        value = int(text)
        if str(value) != text:
            raise ValueError(f"{action} payload {text!r} is not an integer")
        return value
    return text or None


def _field(part: str, key: str) -> str:
    prefix = key + "="
    if not part.startswith(prefix):
        raise ValueError(f"expected {prefix}")
    return part[len(prefix):]


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
    a = flatten_emissions(records_a)
    b = flatten_emissions(records_b)
    for i in range(max(len(a), len(b))):
        ea = a[i] if i < len(a) else None
        eb = b[i] if i < len(b) else None
        if ea != eb:
            return DivergenceReport(False, Divergence(i, ea, eb))
    return DivergenceReport(True, None)
