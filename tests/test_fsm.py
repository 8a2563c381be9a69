"""Machine engine semantics: priorities, residency timeouts, return slots."""

from __future__ import annotations

import pytest

from shutter_sim import (
    ConfigurationError,
    InteractionContext,
    State,
    StateMachine,
    Timeout,
    Transition,
    build_photographer_fsm,
    default_catalogue,
    parse_scenario,
    parse_trace,
    run,
    serialize_trace,
)
from shutter_sim.interaction import ABANDONMENT_MODES

from conftest import LeafScript


def machine(script: LeafScript, states, transitions, initial, timeouts=()):
    return StateMachine(states, transitions, initial, script.catalogue, timeouts)


def simple(script: LeafScript, timeouts=()):
    return machine(
        script,
        states=[
            State("A", on_entry="stub_0", on_tick="stub_1"),
            State("B", on_entry="stub_2", on_tick="stub_3"),
            State("C"),
        ],
        transitions=[
            Transition("A", "flag_0", "B", 1),
            Transition("A", "flag_1", "C", 2),
            Transition("B", "always", "C", 1),
        ],
        initial="A",
        timeouts=timeouts,
    )


def step(script: LeafScript, m, flags=None):
    if flags is not None:
        script.flags[: len(flags)] = flags
    script.log.clear()
    script.calls.clear()
    m.step(InteractionContext())
    return m.current, list(script.calls)


def test_lowest_priority_number_fires_first():
    script = LeafScript()
    m = simple(script)
    assert step(script, m, flags=[True, True]) == ("B", [(2, 0)])


def test_priority_is_consulted_even_when_the_first_guard_is_false():
    script = LeafScript()
    m = simple(script)
    assert step(script, m, flags=[False, True]) == ("C", [])


def test_at_most_one_transition_per_step():
    script = LeafScript()
    m = simple(script)
    # B's unconditional exit must wait for the next step
    assert step(script, m, flags=[True, True])[0] == "B"
    assert step(script, m)[0] == "C"


def test_entry_runs_at_step_zero_without_the_tick_behavior():
    script = LeafScript()
    m = simple(script)
    current, calls = step(script, m, flags=[True, False])
    assert (current, calls) == ("B", [(2, 0)])  # stub_3 (on_tick) did not run


def test_quiet_steps_run_on_tick_with_residency_step_numbers():
    script = LeafScript()
    m = simple(script)
    assert step(script, m, flags=[False, False]) == ("A", [(1, 1)])
    assert step(script, m) == ("A", [(1, 2)])
    assert step(script, m) == ("A", [(1, 3)])


def test_timeout_fires_after_the_configured_residency():
    script = LeafScript()
    m = machine(
        script,
        states=[State("T", on_tick="stub_0"), State("Home", on_entry="stub_1")],
        transitions=[],
        initial="T",
        timeouts=[Timeout("T", 10, "Home")],
    )
    ctx = InteractionContext()
    for expected_step in range(1, 10):
        script.calls.clear()
        m.step(ctx)
        assert (m.current, script.calls) == ("T", [(0, expected_step)])
    script.calls.clear()
    m.step(ctx)  # the 10th quiet step fires the timeout instead of on_tick
    assert (m.current, script.calls) == ("Home", [(1, 0)])


def test_a_firing_guard_preempts_the_timeout():
    script = LeafScript()
    m = machine(
        script,
        states=[State("T"), State("ByGuard"), State("ByTimeout")],
        transitions=[Transition("T", "flag_0", "ByGuard", 1)],
        initial="T",
        timeouts=[Timeout("T", 1, "ByTimeout")],
    )
    assert step(script, m, flags=[True])[0] == "ByGuard"


def test_entering_a_state_resets_its_residency_counter():
    script = LeafScript()
    m = machine(
        script,
        states=[State("T"), State("Away"), State("Home")],
        transitions=[
            Transition("T", "flag_0", "Away", 1),
            Transition("Away", "always", "T", 1),
        ],
        initial="T",
        timeouts=[Timeout("T", 3, "Home")],
    )
    step(script, m, flags=[False])
    step(script, m)
    assert m.ticks_in_state == 2
    step(script, m, flags=[True])   # leave for Away
    step(script, m)                 # bounce back to T
    assert m.ticks_in_state == 0
    step(script, m, flags=[False])
    step(script, m)
    assert (m.current, m.ticks_in_state) == ("T", 2)
    assert step(script, m)[0] == "Home"


def test_return_slot_sends_control_back_to_the_interrupted_state():
    script = LeafScript()
    m = machine(
        script,
        states=[State("A"), State("B"), State("H")],
        transitions=[
            Transition("A", "flag_0", "H", 1, record_origin=True),
            Transition("B", "flag_0", "H", 1, record_origin=True),
            # the lower-numbered return edge must be skipped on an origin mismatch
            Transition("H", "flag_1", "B", 1, require_origin="B"),
            Transition("H", "flag_1", "A", 2, require_origin="A"),
        ],
        initial="A",
    )
    assert step(script, m, flags=[True, False])[0] == "H"
    assert m.return_slot == "A"
    assert step(script, m, flags=[False, True])[0] == "A"


def test_construction_rejects_bad_wiring():
    script = LeafScript()
    a, b = State("A"), State("B")
    with pytest.raises(ConfigurationError, match="duplicate state"):
        machine(script, [a, State("A")], [], "A")
    with pytest.raises(ConfigurationError, match="initial state"):
        machine(script, [a], [], "Z")
    with pytest.raises(ConfigurationError, match="unknown state"):
        machine(script, [a], [Transition("Z", "always", "A", 1)], "A")
    with pytest.raises(ConfigurationError, match="unknown state"):
        machine(script, [a], [Transition("A", "always", "Z", 1)], "A")
    with pytest.raises(ConfigurationError, match="unknown origin"):
        machine(script, [a], [Transition("A", "always", "A", 1, require_origin="Z")], "A")
    with pytest.raises(ConfigurationError, match="duplicate priority"):
        machine(script, [a, b], [
            Transition("A", "always", "B", 1),
            Transition("A", "never", "B", 1),
        ], "A")
    with pytest.raises(ConfigurationError, match="unknown guard"):
        machine(script, [a], [Transition("A", "ghost", "A", 1)], "A")
    with pytest.raises(ConfigurationError, match="unknown behavior"):
        machine(script, [State("A", on_entry="ghost")], [], "A")


def test_timeout_wiring_is_checked():
    script = LeafScript()

    def timed(*timeouts):
        return machine(script, [State("A"), State("B")], [], "A", timeouts)

    with pytest.raises(ConfigurationError, match="unknown state"):
        timed(Timeout("Z", 1, "A"))
    with pytest.raises(ConfigurationError, match="unknown state"):
        timed(Timeout("A", 1, "Z"))
    with pytest.raises(ConfigurationError, match="must be positive"):
        timed(Timeout("A", 0, "B"))
    timed(Timeout("A", 2, "B"))
    with pytest.raises(ConfigurationError, match="already has a timeout"):
        timed(Timeout("A", 2, "B"), Timeout("A", 3, "B"))


@pytest.mark.parametrize("after_ticks,message", [
    (True, "timeout after_ticks must be an integer"),
    (2.5, "timeout after_ticks must be an integer"),
    ("3", "timeout after_ticks must be an integer"),
    (None, "timeout after_ticks must be an integer"),
    (0, "timeout after_ticks must be positive"),
    (-1, "timeout after_ticks must be positive"),
])
def test_a_timeout_is_a_positive_int_number_of_ticks(after_ticks, message):
    # the rule of an action's duration: a bool or a float that would fire on a
    # rounded tick is refused, and so is a type that cannot be compared
    script = LeafScript()
    with pytest.raises(ConfigurationError) as excinfo:
        machine(script, [State("A"), State("B")], [], "A", [Timeout("A", after_ticks, "B")])
    assert str(excinfo.value) == message


@pytest.mark.parametrize("priority", ["1", None, 1.5, True])
def test_a_transition_priority_is_an_int(priority):
    script = LeafScript()
    transitions = [Transition("A", "never", "B", 2), Transition("A", "always", "B", priority)]
    with pytest.raises(ConfigurationError) as excinfo:
        machine(script, [State("A"), State("B")], transitions, "A")
    assert str(excinfo.value) == f"priority {priority!r} on a transition from 'A' is not an integer"


@pytest.mark.parametrize("priority", [0, -3])
def test_zero_and_negative_priorities_are_legal_and_fire_first(priority):
    script = LeafScript()
    transitions = [Transition("A", "always", "B", 1), Transition("A", "always", "C", priority)]
    m = machine(script, [State("A"), State("B"), State("C")], transitions, "A")
    assert step(script, m)[0] == "C"


def test_reset_returns_to_the_initial_state():
    script = LeafScript()
    m = machine(
        script,
        [State("A"), State("H")],
        [Transition("A", "flag_0", "H", 1, record_origin=True)],
        "A",
    )
    step(script, m, flags=[True])
    assert (m.current, m.return_slot) == ("H", "A")
    m.reset()
    assert (m.current, m.ticks_in_state, m.return_slot) == ("A", 0, None)


def test_count_elements_after_add_timeout_and_step():
    script = LeafScript()
    m = simple(script, timeouts=[Timeout("C", 5, "A")])
    assert m.count_elements() == {"n_states": 3, "n_transitions": 3, "n_timeouts": 1}
    script.flags[:2] = [False, False]
    m.step(InteractionContext())
    assert m.ticks_in_state == 1


A, B = State("A"), State("B")
BAD_TIMEOUT = Timeout("A", 0, "B")


@pytest.mark.parametrize("states,transitions,initial,timeouts,message", [
    ([A, State("B", on_entry="nope"), A], [], "A", [], "duplicate state 'A'"),
    ([A, State("G", on_entry="nope")], [Transition("A", "nope", "B", 1)], "Z", [BAD_TIMEOUT],
     "initial state 'Z' is not a state"),
    ([A, State("B", on_tick="nope")], [Transition("Q", "always", "A", 1)], "A", [],
     "unknown behavior 'nope'"),
    ([A, B, State("G", on_entry="nope")], [Transition("A", "nope", "B", 1)], "A", [BAD_TIMEOUT],
     "unknown behavior 'nope'"),
    ([A, B], [Transition("A", "always", "Z", 1), Transition("A", "nope", "B", 1)], "A", [BAD_TIMEOUT],
     "transition to unknown state 'Z'"),
    ([A, B], [Transition("A", "always", "B", 1), Transition("A", "nope", "A", 1)], "A", [BAD_TIMEOUT],
     "duplicate priority 1 on transitions from 'A'"),
    ([A], [Transition("A", "nope", "A", 1)], "A", [Timeout("Q", 1, "A")], "unknown guard 'nope'"),
    ([A, B], [Transition("A", "nope", "B", 1)], "A", [BAD_TIMEOUT], "unknown guard 'nope'"),
    ([A, B], [], "A", [Timeout("Z", 0, "B"), BAD_TIMEOUT], "timeout on unknown state 'Z'"),
    ([A, B], [], "A", [BAD_TIMEOUT], "timeout after_ticks must be positive"),
    ([State("A B"), State("C"), State("C")], [], "C", [],
     "state 'A B' holds a space or a line break, which a trace line cannot carry"),
], ids=["duplicate-before-behavior", "initial-before-behavior", "behavior-before-edge-source",
        "behavior-before-guard", "edge-target-before-guard", "priority-before-guard",
        "guard-before-timeout-state", "guard-before-timeout-ticks", "timeout-state-before-ticks",
        "timeout-ticks", "space-before-duplicate"])
def test_construction_names_the_first_defect_in_table_order(states, transitions, initial, timeouts,
                                                            message):
    """States, then the initial state, their behaviors, transitions and
    timeouts, row by row; each message is the one text the machine gives for
    that defect, and each case holds a later defect too."""
    with pytest.raises(ConfigurationError) as excinfo:
        machine(LeafScript(), states, transitions, initial, timeouts)
    assert str(excinfo.value) == message


@pytest.mark.parametrize("state_id", ["Ask Consent", "Ask\nConsent", "Ask\r\n", "\x85", "Ask\u2028Consent"],
                         ids=["space", "newline", "crlf", "next-line", "line-separator"])
def test_a_state_id_a_trace_line_cannot_carry_is_refused(state_id):
    # run writes the id as the status= field, which ends at a space and a line
    # at anything str.splitlines splits on; the id is checked with the states,
    # so before the initial state and the behaviors
    message = f"state {state_id!r} holds a space or a line break, which a trace line cannot carry"
    with pytest.raises(ConfigurationError) as excinfo:
        StateMachine([State(state_id, on_tick="ghost")], [], "Z", default_catalogue())
    assert str(excinfo.value) == message


@pytest.mark.parametrize("state_id", [5, ["A"]], ids=["int", "list"])
def test_a_state_id_must_be_a_str(state_id):
    # a trace line writes the id as its status= field, which reads back as a
    # str; and a list would break the state table with a bare TypeError
    with pytest.raises(ConfigurationError) as excinfo:
        StateMachine([State(state_id)], [], state_id, default_catalogue())
    assert str(excinfo.value) == f"state id {state_id!r} is not a str"


@pytest.mark.parametrize("states,transitions,initial,timeouts,message", [
    ([A], [], ["A"], [], "initial state ['A'] is not a state"),
    ([A], [Transition(["A"], "always", "A", 1)], "A", [], "transition from unknown state ['A']"),
    ([A], [Transition("A", "always", ["A"], 1)], "A", [], "transition to unknown state ['A']"),
    ([A], [Transition("A", "always", "A", 1, require_origin=["A"])], "A", [],
     "transition requires unknown origin ['A']"),
    ([A], [], "A", [Timeout(["A"], 1, "A")], "timeout on unknown state ['A']"),
    ([A], [], "A", [Timeout("A", 1, ["A"])], "timeout to unknown state ['A']"),
], ids=["initial", "source", "target", "require-origin", "timeout-state", "timeout-target"])
def test_an_unhashable_state_reference_is_refused_as_an_unknown_state(states, transitions, initial,
                                                                     timeouts, message):
    # every state id is a str, so a list is no state; it is refused with the
    # message an unknown id gets, not the lookup's bare TypeError
    with pytest.raises(ConfigurationError) as excinfo:
        machine(LeafScript(), states, transitions, initial, timeouts)
    assert str(excinfo.value) == message


def test_the_shipped_machines_build_and_a_tab_in_a_state_id_round_trips():
    for mode in ABANDONMENT_MODES:
        for include_halt in (True, False):
            build_photographer_fsm(mode, include_halt=include_halt)
    m = StateMachine([State("Ask\tConsent", on_tick="idle")], [], "Ask\tConsent", default_catalogue())
    records = run(m, parse_scenario("scenario s ticks 3\n"))
    assert records[0].status == "Ask\tConsent"
    assert parse_trace(serialize_trace(records)) == records


def test_a_built_machine_has_no_mutators():
    assert not hasattr(StateMachine, "add_transition")
    assert not hasattr(StateMachine, "add_timeout")


@pytest.mark.parametrize("snapshot,message", [
    (("Nope", 0, None), "snapshot state 'Nope' is not a state"),
    ((["A"], 0, None), "snapshot state ['A'] is not a state"),
    (("A", "x", None), "snapshot ticks_in_state 'x' is not a non-negative integer"),
    (("A", -1, None), "snapshot ticks_in_state -1 is not a non-negative integer"),
    (("A", True, None), "snapshot ticks_in_state True is not a non-negative integer"),
    (("A", 0, "Nope"), "snapshot return slot 'Nope' is not a state"),
    (("A", 0, "A", None), "snapshot holds 4 values, not 3"),
], ids=["unknown-state", "list-state", "str-ticks", "negative-ticks", "bool-ticks", "unknown-slot",
        "four-values"])
def test_restore_refuses_a_snapshot_the_machine_could_not_have_taken(snapshot, message):
    script = LeafScript()
    m = simple(script)
    with pytest.raises(ConfigurationError) as excinfo:
        m.restore(snapshot)
    assert str(excinfo.value) == message
    assert m.snapshot() == ("A", 0, None)
    m.restore(("C", 4, "B"))
    assert m.snapshot() == ("C", 4, "B")
