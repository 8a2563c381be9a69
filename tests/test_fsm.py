"""Machine engine semantics: priorities, residency timeouts, return slots."""

from __future__ import annotations

import pytest

from shutter_sim import ConfigurationError, InteractionContext, State, StateMachine, Transition

from conftest import LeafScript


def machine(script: LeafScript, states, transitions, initial):
    return StateMachine(states, transitions, initial, script.catalogue)


def simple(script: LeafScript):
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
    )
    m.add_timeout("T", 10, "Home")
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
    )
    m.add_timeout("T", 1, "ByTimeout")
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
    )
    m.add_timeout("T", 3, "Home")
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
    m = machine(script, [State("A"), State("B")], [], "A")
    with pytest.raises(ConfigurationError, match="unknown state"):
        m.add_timeout("Z", 1, "A")
    with pytest.raises(ConfigurationError, match="unknown state"):
        m.add_timeout("A", 1, "Z")
    with pytest.raises(ConfigurationError, match="must be positive"):
        m.add_timeout("A", 0, "B")
    m.add_timeout("A", 2, "B")
    with pytest.raises(ConfigurationError, match="already has a timeout"):
        m.add_timeout("A", 3, "B")


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
    m = simple(script)
    m.add_timeout("C", 5, "A")
    assert m.count_elements() == {"n_states": 3, "n_transitions": 3, "n_timeouts": 1}
    script.flags[:2] = [False, False]
    m.step(InteractionContext())
    assert m.ticks_in_state == 1
