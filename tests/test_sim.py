"""Scenario runner, trace serialization, and emission-level comparison."""

from __future__ import annotations

import copy
import random
import re
import types
from collections import Counter

import pytest

import shutter_sim
from shutter_sim import (
    Action,
    ActionEmission,
    Condition,
    ConfigurationError,
    Divergence,
    Event,
    InteractionContext,
    Parallel,
    PersonObservation,
    ScenarioScript,
    TickRecord,
    ValidationError,
    build_photographer_bt,
    build_photographer_fsm,
    compare,
    default_catalogue,
    end_tick,
    flatten_emissions,
    parse_scenario,
    parse_trace,
    run,
    serialize_trace,
    validate_tree,
)
from shutter_sim.cli import main
from shutter_sim.dsl import _MAX_DIGITS

from conftest import SCENARIO_DIR, ContextProbe, WorldView

FSM_MODES = ("none", "transitions", "timeouts")

EMPTY = "scenario empty ticks 5\n"


def record(tick, *emissions, controller="bt", status="Running"):
    return TickRecord(
        tick=tick,
        controller=controller,
        status=status,
        emissions=tuple(ActionEmission(a, p) for a, p in emissions),
        persons=0,
        hazard=False,
        network=True,
    )


def test_an_empty_scenario_idles_both_controllers():
    scenario = parse_scenario(EMPTY)
    tree_records = run(build_photographer_bt(), scenario)
    assert len(tree_records) == 5
    assert all(r.status == "Success" for r in tree_records)
    assert all([e.action for e in r.emissions] == ["idle"] for r in tree_records)

    machine_records = run(build_photographer_fsm(), scenario)
    assert all(r.status == "Waiting" for r in machine_records)
    assert all([e.action for e in r.emissions] == ["idle"] for r in machine_records)


def test_records_snapshot_the_context():
    scenario = parse_scenario(
        "scenario snap ticks 3\n"
        "@0 person_appear id=1 x=1.0 y=0.0\n"
        "@1 hazard on\n@1 network down\n"
        "@2 person_leave id=1\n@2 hazard off\n"
    )
    records = run(build_photographer_bt(), scenario)
    assert [(r.persons, r.hazard, r.network) for r in records] == [
        (1, False, True), (1, True, False), (0, False, False),
    ]
    assert [r.tick for r in records] == [0, 1, 2]


def test_serialized_line_format():
    records = [record(4, ("say", "hi"), ("take_photo", 2), ("idle", None))]
    assert serialize_trace(records) == (
        "tick=4 ctl=bt status=Running emit=[say(hi);take_photo(2);idle()]"
        " persons=0 hazard=0 net=1\n"
    )
    assert serialize_trace([]) == ""


def test_trace_round_trip_is_stable():
    scenario = parse_scenario((SCENARIO_DIR / "solo.scn").read_text(encoding="utf-8"))
    text = serialize_trace(run(build_photographer_bt(), scenario))
    assert serialize_trace(parse_trace(text)) == text


@pytest.mark.parametrize("name", sorted(p.stem for p in SCENARIO_DIR.glob("*.scn")))
def test_trace_records_round_trip_with_typed_payloads(name):
    scenario = parse_scenario((SCENARIO_DIR / f"{name}.scn").read_text(encoding="utf-8"))
    controllers = [build_photographer_bt()] + [
        build_photographer_fsm(mode) for mode in ("none", "transitions", "timeouts")
    ]
    for controller in controllers:
        records = run(controller, scenario)
        assert parse_trace(serialize_trace(records)) == records


def _assert_exact_records(records: list) -> int:
    """Assert that every record and emission has its exact type and all its
    fields, as ``new_record`` builds them; returns the emissions seen."""
    emissions = 0
    for r in records:
        assert type(r) is TickRecord and len(r) == len(TickRecord._fields)
        for e in r.emissions:
            assert type(e) is ActionEmission and len(e) == len(ActionEmission._fields)
            emissions += 1
    return emissions


@pytest.mark.parametrize("name", sorted(p.stem for p in SCENARIO_DIR.glob("*.scn")))
def test_runs_and_parsed_traces_build_records_of_their_exact_types(name):
    # sim.run and parse_trace build their records with tuple.__new__,
    # which checks neither the type nor the number of fields
    scenario = parse_scenario((SCENARIO_DIR / f"{name}.scn").read_text(encoding="utf-8"))
    for controller in [build_photographer_bt(), *map(build_photographer_fsm, FSM_MODES)]:
        records = run(controller, scenario)
        assert _assert_exact_records(records) > 0
        assert _assert_exact_records(parse_trace(serialize_trace(records))) > 0


def test_parse_trace_restores_int_payloads():
    records = [record(3, ("take_photo", 1), ("show_photo", 12), ("say", "1"), ("say", ""), ("idle", None)),
               # a sign is not a digit: _MAX_DIGITS of them after a minus still fit int()'s limit
               record(4, ("take_photo", -5), ("show_photo", -int("9" * _MAX_DIGITS)))]
    parsed = parse_trace(serialize_trace(records))
    assert parsed == records
    assert [type(e.payload) for e in parsed[0].emissions] == [int, int, str, str, type(None)]


@pytest.mark.parametrize("emitted", ["take_photo()", "take_photo(x)", "show_photo(01)", "show_photo(+1)",
                                     "show_photo(-0)", "take_photo(-01)", "take_photo(--1)"])
def test_parse_trace_rejects_a_malformed_int_payload(emitted):
    with pytest.raises(ValidationError, match="bad trace line 1"):
        parse_trace(f"tick=0 ctl=bt status=Running emit=[{emitted}] persons=0 hazard=0 net=1\n")


def _trace_line(tick="3", persons="2", hazard="0", net="1", status="Running"):
    """One trace line with these field texts; a field given as None is left out."""
    def side(**fields):
        return " ".join(f"{key}={text}" for key, text in fields.items() if text is not None)
    return (side(tick=tick, ctl="bt", status=status) + " emit=[say(hi)] "
            + side(persons=persons, hazard=hazard, net=net) + "\n")


def test_parse_trace_reads_the_fields_serialize_trace_writes():
    assert serialize_trace(parse_trace(_trace_line())) == _trace_line()
    assert serialize_trace(parse_trace(_trace_line("0", "10", "1", "0"))) == _trace_line("0", "10", "1", "0")


@pytest.mark.parametrize("field,text,message", [
    ("tick", "1_0", "tick '1_0' is not a decimal count"),
    ("tick", "+3", "tick '+3' is not a decimal count"),
    ("tick", "\u0663", "tick '\u0663' is not a decimal count"),
    ("tick", "03", "tick '03' is not a decimal count"),
    ("tick", "-3", "tick '-3' is not a decimal count"),
    ("tick", "", "tick '' is not a decimal count"),
    ("persons", "1_2", "persons '1_2' is not a decimal count"),
    ("persons", "\u00b2", "persons '\u00b2' is not a decimal count"),
    ("hazard", "yes", "hazard 'yes' is not 0 or 1"),
    ("hazard", "2", "hazard '2' is not 0 or 1"),
    ("net", "2", "net '2' is not 0 or 1"),
    ("net", "", "net '' is not 0 or 1"),
    ("status", None, "expected tick= ctl= status= before emit=["),
    ("tick", "3 tick=3", "expected tick= ctl= status= before emit=["),
    ("net", None, "expected persons= hazard= net= after the emissions"),
    ("net", "1 net=1", "expected persons= hazard= net= after the emissions"),
    # a whole line in place of the fields
    ("line", "tick=1 ctl=bt status=Running", "expected emit=[ after status="),
    ("line", "tick=1 ctl=bt status=Running emit=say(x) persons=0 hazard=0 net=1",
     "expected emit=[ after status="),
    ("line", "tick=1 ctl=bt status=Running emit=[say(x) persons=0 hazard=0 net=1",
     "expected ] before persons="),
    ("line", "tick=1 ctl=bt status=Running emit=[say(x)]", "expected ] before persons="),
])
def test_parse_trace_rejects_fields_serialize_trace_never_writes(field, text, message):
    with pytest.raises(ValidationError) as excinfo:
        parse_trace(text if field == "line" else _trace_line(**{field: text}))
    assert str(excinfo.value) == f"bad trace line 1: {message}"


def test_compare_refuses_a_trace_with_a_signed_tick(tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    a.write_text(_trace_line(tick="3"), encoding="utf-8")
    b.write_text(_trace_line(tick="+3"), encoding="utf-8")
    assert main(["compare", "--a", str(a), "--b", str(b)]) == 2
    assert capsys.readouterr().err == "error: bad trace line 1: tick '+3' is not a decimal count\n"


def test_parse_trace_rejects_an_unterminated_emission():
    with pytest.raises(ValidationError) as excinfo:
        parse_trace("tick=1 ctl=bt status=Running emit=[say(hi] persons=0 hazard=0 net=1\n")
    assert str(excinfo.value) == "bad trace line 1: unterminated emission"


def test_parse_trace_skips_blank_lines_between_records():
    first = _trace_line("0")
    second = _trace_line("1")
    expected = parse_trace(first + second)
    assert len(expected) == 2
    for blank in ("\n", "   \n", "\t \n"):
        assert parse_trace(first + blank + second) == expected


def test_parse_trace_reports_the_bad_line():
    good = "tick=0 ctl=bt status=Success emit=[] persons=0 hazard=0 net=1\n"
    with pytest.raises(ValidationError, match="bad trace line 2"):
        parse_trace(good + "tick=1 ctl=bt status=?\n")


def test_flatten_strips_padding_actions():
    records = [
        record(0, ("idle", None), ("say", "hi")),
        record(1, ("halt_motion_hold", None)),
        record(2, ("take_photo", 1)),
    ]
    assert flatten_emissions(records) == [("say", "hi"), ("take_photo", "1")]


def test_compare_ignores_padding_and_tick_placement():
    a = [record(0, ("say", "hi")), record(1, ("idle", None), ("take_photo", 1))]
    b = [record(0, ("halt_motion_hold", None)), record(5, ("say", "hi"), ("take_photo", 1))]
    assert compare(a, b).equivalent


def test_compare_reports_the_first_divergence():
    a = [record(0, ("say", "hi"), ("take_photo", 1))]
    b = [record(0, ("say", "hi"), ("take_photo", 2))]
    report = compare(a, b)
    assert not report.equivalent
    d = report.first_divergence
    assert (d.position, d.emission_a, d.emission_b) == (1, ("take_photo", "1"), ("take_photo", "2"))


def test_compare_flags_a_missing_tail():
    a = [record(0, ("say", "hi"))]
    report = compare(a, [])
    assert not report.equivalent
    assert report.first_divergence == Divergence(0, ("say", "hi"), None)


def test_run_starts_every_invocation_fresh():
    scenario = parse_scenario((SCENARIO_DIR / "solo.scn").read_text(encoding="utf-8"))
    tree = build_photographer_bt()
    first = serialize_trace(run(tree, scenario))
    second = serialize_trace(run(tree, scenario))
    assert first == second

    machine = build_photographer_fsm()
    assert serialize_trace(run(machine, scenario)) == serialize_trace(run(machine, scenario))


def test_the_package_exports_its_public_names_and_no_removed_wrappers():
    public = [name for name, value in vars(shutter_sim).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)]
    assert sorted(shutter_sim.__all__) == sorted(public)
    removed = {"step", "add_timeout", "count_elements", "reset", "apply_events",
               "cluster_groups", "interaction_group_size", "GroupCluster"}
    assert removed.isdisjoint(shutter_sim.__all__)
    assert not hasattr(shutter_sim.world, "apply_events")


# --- the frames against a by-hand replay of the events ----------------------


def events_by_tick(script: ScenarioScript) -> dict[int, list[Event]]:
    events_at: dict[int, list[Event]] = {}
    for ev in script.events:
        events_at.setdefault(ev.at_tick, []).append(ev)
    return events_at


def replay_ticks(controller, events_at: dict[int, list[Event]], ctx: InteractionContext, ticks):
    """``sim.run``'s loop over ``ticks``, from the controller and ``ctx`` as
    they stand, with each tick's events applied one by one, as they read,
    without the script's frames.  Returns the records and, per tick, the
    world half of the context the controller saw."""
    records, contexts = [], []
    for t in ticks:
        for ev in events_at.get(t, ()):
            if ev.kind in ("person_appear", "person_move"):
                ctx.persons[ev.person_id] = PersonObservation(ev.person_id, ev.x, ev.y)
            elif ev.kind == "person_leave":
                del ctx.persons[ev.person_id]
            elif ev.kind == "button_press":
                ctx.buttons_pressed_this_tick.add(ev.button)
            elif ev.kind in ("hazard_on", "hazard_off"):
                ctx.hazard_hand_near_arm = ev.kind == "hazard_on"
            else:
                ctx.network_ok = ev.kind == "network_up"
        contexts.append(WorldView.of(ctx))
        status = controller.step(ctx)
        persons, hazard, network = len(ctx.persons), ctx.hazard_hand_near_arm, ctx.network_ok
        records.append(TickRecord(t, controller.label, status, tuple(end_tick(ctx)),
                                  persons, hazard, network))
    return records, contexts


def replay_by_hand(controller, script):
    """``replay_ticks`` over the whole script from a reset controller and a
    fresh context."""
    controller.reset()
    return replay_ticks(controller, events_by_tick(script), InteractionContext(), range(script.duration))


def random_script(rng: random.Random, features: Counter) -> ScenarioScript:
    """A valid timeline with roster churn, same-tick departures and returns,
    several buttons on one tick, and hazard and network toggles; ``features``
    counts the ticks that carry each of the last three."""
    duration = rng.randint(1, 30)
    present: set[int] = set()
    events: list[Event] = []

    def where():
        return round(rng.uniform(-3, 3), 2), round(rng.uniform(-3, 3), 2)

    for t in range(duration):
        if rng.random() < 0.4:
            continue
        buttons = 0
        for _ in range(rng.randint(1, 6)):
            roll = rng.random()
            if roll < 0.25 and len(present) < 6:
                pid = rng.choice(sorted(set(range(1, 9)) - present))
                present.add(pid)
                events.append(Event(t, "person_appear", pid, *where()))
            elif roll < 0.45 and present:
                events.append(Event(t, "person_move", rng.choice(sorted(present)), *where()))
            elif roll < 0.6 and present:
                pid = rng.choice(sorted(present))
                events.append(Event(t, "person_leave", pid))
                if rng.random() < 0.5:
                    events.append(Event(t, "person_appear", pid, *where()))
                    features["same-tick return"] += 1
                else:
                    present.remove(pid)
            elif roll < 0.8:
                events.append(Event(t, "button_press", button=rng.choice(("yes", "no", "aux"))))
                buttons += 1
            elif roll < 0.9:
                events.append(Event(t, rng.choice(("hazard_on", "hazard_off"))))
                features["hazard"] += 1
            else:
                events.append(Event(t, rng.choice(("network_down", "network_up"))))
                features["network"] += 1
        features["several buttons"] += buttons > 1
    return ScenarioScript("random", duration, tuple(events))


def test_runs_over_frames_match_a_by_hand_replay_of_the_events():
    rng = random.Random(8080)
    features: Counter[str] = Counter()
    for _ in range(150):
        script = random_script(rng, features)
        probe = ContextProbe()
        run(probe, script)
        controllers = [build_photographer_bt()] + [build_photographer_fsm(m) for m in FSM_MODES]
        for controller in controllers:
            expected, contexts = replay_by_hand(controller, script)
            assert run(controller, script) == expected, script
            assert probe.seen == contexts, script
    assert min(features[k] for k in ("same-tick return", "several buttons", "hazard", "network")) >= 50, features


# --- the controller protocol: snapshot and restore --------------------------


@pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.scn")), ids=lambda path: path.stem)
def test_a_restored_snapshot_and_context_copy_replay_the_same_records(path):
    # at every tick: save the controller's snapshot and a deep copy of the
    # context, run on to the end, restore both, then step on from the restored
    # pair; every record, run on or stepped again, is the one sim.run gives
    script = parse_scenario(path.read_text(encoding="utf-8"))
    events_at = events_by_tick(script)
    controllers = [build_photographer_bt()] + [build_photographer_fsm(m) for m in FSM_MODES]
    for controller in controllers:
        expected = run(controller, script)
        controller.reset()
        ctx = InteractionContext()
        for t in range(script.duration):
            saved, saved_ctx = controller.snapshot(), copy.deepcopy(ctx)
            ran_on, _ = replay_ticks(controller, events_at, ctx, range(t, script.duration))
            assert ran_on == expected[t:], (path.stem, controller.label, t)
            controller.restore(saved)
            ctx = saved_ctx
            assert controller.snapshot() == saved
            stepped, _ = replay_ticks(controller, events_at, ctx, [t])
            assert stepped == expected[t:t + 1], (path.stem, controller.label, t)


def test_restore_refuses_a_snapshot_of_the_wrong_length():
    tree, machine = build_photographer_bt(), build_photographer_fsm()
    for controller in (tree, machine):
        snapshot = controller.snapshot()
        for wrong in (snapshot[:-1], snapshot + (None,)):
            with pytest.raises(ConfigurationError,
                               match=f"^snapshot holds {len(wrong)} values, not {len(snapshot)}$"):
                controller.restore(wrong)
        assert controller.snapshot() == snapshot


@pytest.mark.parametrize("kind, value, wanted, good", [
    ("fallback", 2, "None or a child index below 2", 1),
    ("fallback", -1, "None or a child index below 2", 1),
    ("fallback", "x", "None or a child index below 2", 1),
    ("fallback", True, "None or a child index below 2", 1),
    ("action", None, "a non-negative integer", 5),
    ("action", -1, "a non-negative integer", 5),
    ("action", True, "a non-negative integer", 5),
    ("action", 1.0, "a non-negative integer", 5),
    ("condition", 0, "None", None),
    ("parallel", 0, "None", None),
    ("guard", False, "None", None),
])
def test_tree_restore_refuses_a_value_its_node_could_not_hold(kind, value, wanted, good):
    # the machine's restore refuses what it could not have taken; so does the
    # tree's, slot by slot, before a step could fail on the value; the
    # photographer tree has no parallel, so that row takes a small tree
    if kind == "parallel":
        tree = validate_tree(Parallel("p", [Condition("always"), Action("idle")]), default_catalogue())
    else:
        tree = build_photographer_bt()
    node_id = next(node.node_id for node in tree.iter_nodes() if node.kind == kind)
    snapshot = tree.snapshot()
    with pytest.raises(ConfigurationError,
                       match=f"^snapshot value {re.escape(repr(value))} of node {node_id} is not {wanted}$"):
        tree.restore(snapshot[:node_id] + (value,) + snapshot[node_id + 1:])
    assert tree.snapshot() == snapshot
    accepted = snapshot[:node_id] + (good,) + snapshot[node_id + 1:]
    tree.restore(accepted)
    assert tree.snapshot() == accepted


def test_a_run_that_writes_the_world_half_leaves_the_next_run_alone():
    def meddling(predicate):
        def condition(ctx):
            ctx.persons = {**ctx.persons, 99: PersonObservation(99, 0.5, 0.5)}
            ctx.buttons_pressed_this_tick.add("yes")
            return predicate(ctx)
        return condition

    cat = default_catalogue()
    for name in ("person_detected", "no_person"):
        cat.register_condition(name, meddling(cat.condition(name)))
    for path in sorted(SCENARIO_DIR.glob("*.scn")):
        scenario = parse_scenario(path.read_text(encoding="utf-8"))
        frames = copy.deepcopy(scenario.frames)
        plain = [build_photographer_bt()] + [build_photographer_fsm(m) for m in FSM_MODES]
        before = [run(controller, scenario) for controller in plain]
        meddlers = [validate_tree(build_photographer_bt(), cat)]
        meddlers += [build_photographer_fsm(m, catalogue=cat) for m in FSM_MODES]
        for controller, records in zip(meddlers, before):
            assert run(controller, scenario) != records  # the meddling shows in its own run
        assert scenario.frames == frames, path.name  # no run wrote a frame's roster
        with pytest.raises(TypeError, match="^a frame's Roster is read-only"):
            scenario.frames[0].persons[99] = PersonObservation(99, 0.5, 0.5)
        assert scenario.frames == frames, path.name  # nor did the refused write
        assert [run(controller, scenario) for controller in plain] == before, path.name


def test_frames_take_no_part_in_equality_hashing_or_repr():
    events = (Event(0, "person_appear", 1, 1.0, 0.5), Event(2, "button_press", button="yes"))
    a, b = ScenarioScript("s", 5, events), ScenarioScript("s", 5, events)
    assert a.frames and a.frames == b.frames
    object.__setattr__(b, "frames", ())
    assert a == b and hash(a) == hash(b)
    assert repr(a) == repr(b) == f"ScenarioScript(name='s', duration=5, events={events!r})"


def test_frames_cost_one_per_tick_with_events_whatever_the_duration():
    script = parse_scenario(
        "scenario s ticks 1000000000\n"
        "@0 person_appear id=1 x=1.0 y=0.5\n@0 button yes\n@999999999 person_leave id=1\n"
    )
    assert [f.tick for f in script.frames] == [0, 999_999_999]
    assert script.frames[0] == (0, {1: PersonObservation(1, 1.0, 0.5)}, ("yes",), False, True)
    assert script.frames[1] == (999_999_999, {}, (), False, True)


def test_a_frame_whose_tick_moves_no_one_shares_the_roster_before_it():
    script = parse_scenario(
        "scenario s ticks 5\n@0 person_appear id=1 x=1.0 y=0.5\n@1 button yes\n@2 hazard on\n"
        "@3 person_move id=1 x=2.0 y=0.5\n"
    )
    first, button, hazard, move = script.frames
    assert button.persons is first.persons and hazard.persons is first.persons
    assert move.persons is not first.persons
    assert first.persons == {1: PersonObservation(1, 1.0, 0.5)}
    assert move.persons == {1: PersonObservation(1, 2.0, 0.5)}
