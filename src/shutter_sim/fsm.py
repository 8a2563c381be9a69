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


class StateMachine:
    """States plus prioritized guarded transitions over an InteractionContext.

    The constructor checks the whole table (states, their behaviors,
    transitions, timeouts) and resolves every behavior and guard name through
    ``catalogue`` once; the built machine holds the callables and never changes.
    """

    label = "fsm"  # the trace's controller field

    def __init__(self, states: list[State], transitions: list[Transition], initial: str,
                 catalogue, timeouts: Sequence[Timeout] = ()):
        self.states: dict[str, State] = {}
        for state in states:
            sid = state.state_id
            if sid in self.states:
                raise ConfigurationError(f"duplicate state {sid!r}")
            # a trace line writes the id as its status= field, which ends at a space
            if " " in sid or breaks_line(sid):
                raise ConfigurationError(f"state {sid!r} holds a space or a line break, "
                                         "which a trace line cannot carry")
            self.states[sid] = state
        if initial not in self.states:
            raise ConfigurationError(f"initial state {initial!r} is not a state")
        self.initial = initial
        # state -> (on_entry, on_tick) step functions, None where there is none
        self._steps: dict[str, tuple] = {
            s.state_id: tuple(None if slot is None else catalogue.behavior(slot).step_fn
                              for slot in (s.on_entry, s.on_tick))
            for s in states
        }
        # state -> its (transition, guard) pairs, lowest priority number first
        self._outgoing: dict[str, list[tuple]] = {s: [] for s in self.states}
        for tr in transitions:
            if tr.source not in self.states:
                raise ConfigurationError(f"transition from unknown state {tr.source!r}")
            if tr.target not in self.states:
                raise ConfigurationError(f"transition to unknown state {tr.target!r}")
            if tr.require_origin is not None and tr.require_origin not in self.states:
                raise ConfigurationError(f"transition requires unknown origin {tr.require_origin!r}")
            if type(tr.priority) is not int:
                raise ConfigurationError(f"priority {tr.priority!r} on a transition from "
                                         f"{tr.source!r} is not an integer")
            if any(t.priority == tr.priority for t, _ in self._outgoing[tr.source]):
                raise ConfigurationError(f"duplicate priority {tr.priority} "
                                         f"on transitions from {tr.source!r}")
            try:
                guard = catalogue.condition(tr.guard)
            except ConfigurationError:
                raise ConfigurationError(f"unknown guard {tr.guard!r}") from None
            self._outgoing[tr.source].append((tr, guard))
        for edges in self._outgoing.values():
            edges.sort(key=lambda edge: edge[0].priority)
        self.timeouts: dict[str, Timeout] = {}
        for timeout in timeouts:
            if timeout.state not in self.states:
                raise ConfigurationError(f"timeout on unknown state {timeout.state!r}")
            if timeout.target not in self.states:
                raise ConfigurationError(f"timeout to unknown state {timeout.target!r}")
            if timeout.state in self.timeouts:
                raise ConfigurationError(f"state {timeout.state!r} already has a timeout")
            _check_duration("timeout after_ticks", timeout.after_ticks)
            self.timeouts[timeout.state] = timeout
        self.reset()

    def step(self, ctx: InteractionContext) -> str:
        """Fire the first eligible transition, or else run on_tick; returns the state id."""
        for tr, guard in self._outgoing[self.current]:
            if tr.require_origin is not None and self.return_slot != tr.require_origin:
                continue
            if guard(ctx):
                if tr.record_origin:
                    self.return_slot = self.current
                return self._enter(tr.target, ctx)
        self.ticks_in_state += 1
        timeout = self.timeouts.get(self.current)
        if timeout is not None and self.ticks_in_state >= timeout.after_ticks:
            return self._enter(timeout.target, ctx)
        on_tick = self._steps[self.current][1]
        if on_tick is not None:
            on_tick(ctx, self.ticks_in_state)
        return self.current

    def _enter(self, target: str, ctx: InteractionContext) -> str:
        self.current = target
        self.ticks_in_state = 0
        on_entry = self._steps[target][0]
        if on_entry is not None:
            on_entry(ctx, 0)
        return target

    def reset(self) -> None:
        self.restore((self.initial, 0, None))

    def snapshot(self) -> tuple[str, int, str | None]:
        return self.current, self.ticks_in_state, self.return_slot

    def restore(self, snapshot: tuple[str, int, str | None]) -> None:
        _check_snapshot(snapshot, 3)
        self.current, self.ticks_in_state, self.return_slot = snapshot

    def count_elements(self) -> dict[str, int]:
        return {
            "n_states": len(self.states),
            "n_transitions": sum(map(len, self._outgoing.values())),
            "n_timeouts": len(self.timeouts),
        }
