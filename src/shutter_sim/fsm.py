"""Finite state machine engine with guarded transitions and per-state timeouts.

Each step fires at most one transition.  Out-transitions of the current state
are tried in ascending priority order; if none fires and the state has been
resident long enough, its timeout fires.  A state has at most one behavior,
stepped as a tree action steps it: with step 0 when the state is entered, and
with the state's ``ticks_in_state`` on each quiet step.
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
    behavior: str | None = None


class Transition(NamedTuple):
    """A guarded edge.  Lower priority numbers are tried first.

    A ``returns`` edge hands control back: it is eligible only while the
    machine's return slot holds its target, and entering its source stores in
    that slot the state the machine came from.  So a high-priority hold state
    hands control back to wherever it was entered from.
    """

    source: str
    guard: str
    target: str
    priority: int
    returns: bool = False


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
        # state id -> [behavior, edges, timeout, returns]: the behavior name,
        # then its step function (None where there is none); the (transition,
        # guard) pairs; the state's Timeout, or None; whether an edge returns
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
            rows[sid] = [state.behavior, [], None, False]
        if not _is_state(rows, initial):
            raise ConfigurationError(f"initial state {initial!r} is not a state")
        self.initial = initial
        for row in rows.values():
            row[0] = None if row[0] is None else catalogue.behavior(row[0]).step_fn
        for tr in transitions:
            if not _is_state(rows, tr.source):
                raise ConfigurationError(f"transition from unknown state {tr.source!r}")
            if not _is_state(rows, tr.target):
                raise ConfigurationError(f"transition to unknown state {tr.target!r}")
            if type(tr.priority) is not int:
                raise ConfigurationError(f"priority {tr.priority!r} on a transition from "
                                         f"{tr.source!r} is not an integer")
            if type(tr.returns) is not bool:
                raise ConfigurationError(f"returns {tr.returns!r} on a transition from "
                                         f"{tr.source!r} is not a bool")
            row = rows[tr.source]
            if any(t.priority == tr.priority for t, _ in row[1]):
                raise ConfigurationError(f"duplicate priority {tr.priority} "
                                         f"on transitions from {tr.source!r}")
            try:
                guard = catalogue.condition(tr.guard)
            except ConfigurationError:
                raise ConfigurationError(f"unknown guard {tr.guard!r}") from None
            row[1].append((tr, guard))
            if tr.returns:
                row[3] = True
        for timeout in timeouts:
            if not _is_state(rows, timeout.state):
                raise ConfigurationError(f"timeout on unknown state {timeout.state!r}")
            if not _is_state(rows, timeout.target):
                raise ConfigurationError(f"timeout to unknown state {timeout.target!r}")
            row = rows[timeout.state]
            if row[2] is not None:
                raise ConfigurationError(f"state {timeout.state!r} already has a timeout")
            _check_duration("timeout after_ticks", timeout.after_ticks)
            row[2] = timeout
        for _, edges, _, _ in rows.values():
            edges.sort(key=lambda edge: edge[0].priority)  # lowest priority number first
        self._rows = rows
        self.reset()

    def step(self, ctx: InteractionContext) -> str:
        """Fire the first eligible transition, or else run the state's behavior;
        returns the state id."""
        current = self.current
        behavior, edges, timeout, _ = self._rows[current]
        for tr, guard in edges:
            if tr.returns and self.return_slot != tr.target:
                continue
            if guard(ctx):
                return self._enter(tr.target, ctx)
        ticks = self.ticks_in_state = self.ticks_in_state + 1
        if timeout is not None and ticks >= timeout.after_ticks:
            return self._enter(timeout.target, ctx)
        if behavior is not None:
            behavior(ctx, ticks)
        return current

    def _enter(self, target: str, ctx: InteractionContext) -> str:
        behavior, _, _, returns = self._rows[target]
        if returns:  # a state that hands control back records where it was entered from
            self.return_slot = self.current
        self.current = target
        self.ticks_in_state = 0
        if behavior is not None:
            behavior(ctx, 0)
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
            "n_transitions": sum(len(edges) for _, edges, _, _ in rows),
            "n_timeouts": sum(timeout is not None for _, _, timeout, _ in rows),
        }
