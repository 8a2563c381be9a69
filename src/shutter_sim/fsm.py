"""Finite state machine engine with guarded transitions and per-state timeouts.

Each step fires at most one transition.  Out-transitions of the current state
are tried in ascending priority order; if none fires and the state has been
resident long enough, its timeout fires.  Entering a state runs its on_entry
behavior; a quiet step runs the current state's on_tick behavior instead.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigurationError
from .world import InteractionContext


@dataclass(frozen=True)
class State:
    state_id: str
    on_entry: str | None = None
    on_tick: str | None = None


@dataclass(frozen=True)
class Transition:
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


@dataclass(frozen=True)
class Timeout:
    state: str
    after_ticks: int
    target: str


class StateMachine:
    """States plus prioritized guarded transitions over an InteractionContext."""

    def __init__(
        self,
        states: list[State],
        transitions: list[Transition],
        initial: str,
        catalogue,
    ):
        self.states: dict[str, State] = {}
        for state in states:
            if state.state_id in self.states:
                raise ConfigurationError(f"duplicate state {state.state_id!r}")
            self.states[state.state_id] = state
        if initial not in self.states:
            raise ConfigurationError(f"initial state {initial!r} is not a state")
        self.initial = initial
        self.timeouts: dict[str, Timeout] = {}
        self._outgoing: dict[str, list[Transition]] = {s: [] for s in self.states}
        self._catalogue = catalogue
        self._guards = {}
        self._behaviors = {}
        for state in states:
            for slot in (state.on_entry, state.on_tick):
                if slot is not None and slot not in self._behaviors:
                    self._behaviors[slot] = catalogue.behavior(slot)
        for tr in transitions:
            self.add_transition(tr)

        self.current = initial
        self.ticks_in_state = 0
        self.return_slot: str | None = None

    def add_transition(self, tr: Transition) -> None:
        if tr.source not in self.states:
            raise ConfigurationError(f"transition from unknown state {tr.source!r}")
        if tr.target not in self.states:
            raise ConfigurationError(f"transition to unknown state {tr.target!r}")
        if tr.require_origin is not None and tr.require_origin not in self.states:
            raise ConfigurationError(f"transition requires unknown origin {tr.require_origin!r}")
        if any(t.priority == tr.priority for t in self._outgoing[tr.source]):
            raise ConfigurationError(
                f"duplicate priority {tr.priority} on transitions from {tr.source!r}"
            )
        if tr.guard not in self._guards:
            if not self._catalogue.has_condition(tr.guard):
                raise ConfigurationError(f"unknown guard {tr.guard!r}")
            self._guards[tr.guard] = self._catalogue.condition(tr.guard)
        self._outgoing[tr.source].append(tr)
        self._outgoing[tr.source].sort(key=lambda t: t.priority)

    def add_timeout(self, state: str, after_ticks: int, target: str) -> None:
        if state not in self.states:
            raise ConfigurationError(f"timeout on unknown state {state!r}")
        if target not in self.states:
            raise ConfigurationError(f"timeout to unknown state {target!r}")
        if state in self.timeouts:
            raise ConfigurationError(f"state {state!r} already has a timeout")
        if after_ticks < 1:
            raise ConfigurationError("timeout after_ticks must be positive")
        self.timeouts[state] = Timeout(state, after_ticks, target)

    def step(self, ctx: InteractionContext) -> None:
        """Advance one tick: fire the first eligible transition or run on_tick."""
        for tr in self._outgoing[self.current]:
            if tr.require_origin is not None and self.return_slot != tr.require_origin:
                continue
            if self._guards[tr.guard](ctx):
                if tr.record_origin:
                    self.return_slot = self.current
                self._enter(tr.target, ctx)
                return
        self.ticks_in_state += 1
        timeout = self.timeouts.get(self.current)
        if timeout is not None and self.ticks_in_state >= timeout.after_ticks:
            self._enter(timeout.target, ctx)
            return
        state = self.states[self.current]
        if state.on_tick is not None:
            self._run(state.on_tick, ctx, self.ticks_in_state)

    def _enter(self, target: str, ctx: InteractionContext) -> None:
        self.current = target
        self.ticks_in_state = 0
        state = self.states[target]
        if state.on_entry is not None:
            self._run(state.on_entry, ctx, 0)

    def _run(self, behavior_name: str, ctx: InteractionContext, step: int) -> None:
        behavior = self._behaviors[behavior_name]
        if behavior.step_fn is not None:
            behavior.step_fn(ctx, step)

    def reset(self) -> None:
        self.current = self.initial
        self.ticks_in_state = 0
        self.return_slot = None

    def count_elements(self) -> dict[str, int]:
        return {
            "n_states": len(self.states),
            "n_transitions": sum(map(len, self._outgoing.values())),
            "n_timeouts": len(self.timeouts),
        }
