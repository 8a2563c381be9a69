"""Finite state machine engine with guarded transitions and per-state timeouts.

Each step fires at most one transition.  Out-transitions of the current state
are tried in ascending priority order; if none fires and the state has been
resident long enough, its timeout fires.  Entering a state runs its on_entry
behavior; a quiet step runs the current state's on_tick behavior instead.
A machine has a validated ``bt`` root's controller protocol; its snapshot is
``(current, ticks_in_state, return_slot)``.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .bt import _check_duration, _check_snapshot
from .errors import ConfigurationError
from .world import InteractionContext, breaks_line


class State(NamedTuple):
    state_id: str
    on_entry: str | None = None
    on_tick: str | None = None


class Transition(NamedTuple):
    """A guarded edge.  Lower priority numbers are tried first.

    ``record_origin`` stores the source state in the machine's return slot
    when the transition fires; ``require_origin`` makes the transition
    eligible only while the return slot holds the given state.  Together they
    let a high-priority hold state hand control back to wherever it came from.
    """

    source: str
    guard: str
    target: str
    priority: int
    record_origin: bool = False
    require_origin: str | None = None


class Timeout(NamedTuple):
    state: str
    after_ticks: int
    target: str


def _is_state(rows: dict[str, list], sid) -> bool:
    """Whether ``sid`` is one of the states in ``rows``; a state id is a
    ``str``, so anything else is refused before the lookup, which an
    unhashable value such as a list would break with a bare TypeError."""
    return type(sid) is str and sid in rows


class StateMachine:
    """States plus prioritized guarded transitions over an InteractionContext.

    The constructor checks the whole table (states, their behaviors,
    transitions, timeouts) and resolves every behavior and guard name through
    ``catalogue`` once; the built machine keeps one row per state, holds the
    callables and never changes.
    """

    label = "fsm"  # the trace's controller field

    def __init__(self, states: list[State], transitions: list[Transition], initial: str,
                 catalogue, timeouts: Sequence[Timeout] = ()):
        # state id -> [on_entry, on_tick, edges, timeout]: the behavior names,
        # then their step functions (None where there is none); the (transition,
        # guard) pairs; the state's Timeout, or None
        rows: dict[str, list] = {}
        for state in states:
            sid = state.state_id
            if type(sid) is not str:  # before the lookups, which a list would break
                raise ConfigurationError(f"state id {sid!r} is not a str")
            if sid in rows:
                raise ConfigurationError(f"duplicate state {sid!r}")
            # a trace line writes the id as its status= field, which ends at a space
            if " " in sid or breaks_line(sid):
                raise ConfigurationError(f"state {sid!r} holds a space or a line break, "
                                         "which a trace line cannot carry")
            rows[sid] = [state.on_entry, state.on_tick, [], None]
        if not _is_state(rows, initial):
            raise ConfigurationError(f"initial state {initial!r} is not a state")
        self.initial = initial
        for row in rows.values():
            row[:2] = [None if name is None else catalogue.behavior(name).step_fn for name in row[:2]]
        for tr in transitions:
            if not _is_state(rows, tr.source):
                raise ConfigurationError(f"transition from unknown state {tr.source!r}")
            if not _is_state(rows, tr.target):
                raise ConfigurationError(f"transition to unknown state {tr.target!r}")
            if tr.require_origin is not None and not _is_state(rows, tr.require_origin):
                raise ConfigurationError(f"transition requires unknown origin {tr.require_origin!r}")
            if type(tr.priority) is not int:
                raise ConfigurationError(f"priority {tr.priority!r} on a transition from "
                                         f"{tr.source!r} is not an integer")
            edges = rows[tr.source][2]
            if any(t.priority == tr.priority for t, _ in edges):
                raise ConfigurationError(f"duplicate priority {tr.priority} "
                                         f"on transitions from {tr.source!r}")
            try:
                guard = catalogue.condition(tr.guard)
            except ConfigurationError:
                raise ConfigurationError(f"unknown guard {tr.guard!r}") from None
            edges.append((tr, guard))
        for timeout in timeouts:
            if not _is_state(rows, timeout.state):
                raise ConfigurationError(f"timeout on unknown state {timeout.state!r}")
            if not _is_state(rows, timeout.target):
                raise ConfigurationError(f"timeout to unknown state {timeout.target!r}")
            row = rows[timeout.state]
            if row[3] is not None:
                raise ConfigurationError(f"state {timeout.state!r} already has a timeout")
            _check_duration("timeout after_ticks", timeout.after_ticks)
            row[3] = timeout
        for _, _, edges, _ in rows.values():
            edges.sort(key=lambda edge: edge[0].priority)  # lowest priority number first
        self._rows = rows
        self.reset()

    def step(self, ctx: InteractionContext) -> str:
        """Fire the first eligible transition, or else run on_tick; returns the state id."""
        current = self.current
        _, on_tick, edges, timeout = self._rows[current]
        for tr, guard in edges:
            if tr.require_origin is not None and self.return_slot != tr.require_origin:
                continue
            if guard(ctx):
                if tr.record_origin:
                    self.return_slot = current
                return self._enter(tr.target, ctx)
        ticks = self.ticks_in_state = self.ticks_in_state + 1
        if timeout is not None and ticks >= timeout.after_ticks:
            return self._enter(timeout.target, ctx)
        if on_tick is not None:
            on_tick(ctx, ticks)
        return current

    def _enter(self, target: str, ctx: InteractionContext) -> str:
        self.current = target
        self.ticks_in_state = 0
        on_entry = self._rows[target][0]
        if on_entry is not None:
            on_entry(ctx, 0)
        return target

    def reset(self) -> None:
        self.restore((self.initial, 0, None))

    def snapshot(self) -> tuple[str, int, str | None]:
        return self.current, self.ticks_in_state, self.return_slot

    def restore(self, snapshot: tuple[str, int, str | None]) -> None:
        """Resume from ``snapshot``, refusing one this machine could not have
        taken: a state or return slot that is not one of its states (the slot
        may be None), or a ``ticks_in_state`` that is not a non-negative ``int``."""
        _check_snapshot(snapshot, 3)
        current, ticks, slot = snapshot
        if not _is_state(self._rows, current):
            raise ConfigurationError(f"snapshot state {current!r} is not a state")
        if type(ticks) is not int or ticks < 0:
            raise ConfigurationError(f"snapshot ticks_in_state {ticks!r} is not a non-negative integer")
        if slot is not None and not _is_state(self._rows, slot):
            raise ConfigurationError(f"snapshot return slot {slot!r} is not a state")
        self.current, self.ticks_in_state, self.return_slot = snapshot

    def count_elements(self) -> dict[str, int]:
        rows = self._rows.values()
        return {
            "n_states": len(rows),
            "n_transitions": sum(len(edges) for _, _, edges, _ in rows),
            "n_timeouts": sum(timeout is not None for _, _, _, timeout in rows),
        }
