"""Photographer domain: utterances, behaviors, builders, and frozen traces."""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from shutter_sim import (
    ANNOUNCE_TEXT,
    FAREWELL_TEXT,
    PRAISE_TEXTS,
    Action,
    ActionEmission,
    Behavior,
    Condition,
    ConfigurationError,
    InteractionContext,
    PersonObservation,
    Sequence,
    State,
    StateMachine,
    Transition,
    build_photographer_bt,
    build_photographer_fsm,
    compare,
    default_catalogue,
    emit,
    flatten_emissions,
    greeting_text,
    node_count,
    parse_scenario,
    parse_tree,
    praise_text,
    print_tree,
    run,
    serialize_trace,
    structural_economy_report,
    validate_tree,
)
from shutter_sim import bt, interaction
from shutter_sim.groups import someone_in_zone
from shutter_sim.interaction import ABANDON_TIMEOUT_TICKS, ABANDONMENT_MODES, PHOTOS_PER_SESSION
from shutter_sim.world import BUTTONS

from conftest import (
    PKG_ROOT,
    SCENARIO_DIR,
    TREE_FILE,
    evidence_scripts,
    hazard_windows,
    load,
    random_visit,
    reference_engaged_size,
    structural_signature,
)

# trees/photographer.tree as it was with the presence re-check: 23 nodes
RECHECK_TREE = Path(__file__).resolve().parent / "data" / "photographer_recheck.tree"
# trees/photographer.tree as it was with a hazard guard per arm-motion action: 21 nodes
PER_ACTION_GUARDS_TREE = Path(__file__).resolve().parent / "data" / "photographer_per_action_guards.tree"


def ctx_with_persons(*positions, clock=0):
    ctx = InteractionContext(clock=clock)
    for i, (x, y) in enumerate(positions, start=1):
        ctx.persons[i] = PersonObservation(i, x, y)
    return ctx


# --- utterances ---------------------------------------------------------------


def test_greeting_for_one_person():
    assert greeting_text(1) == "Would you like me to take your photo?"


def test_greeting_spells_out_small_group_sizes():
    assert greeting_text(2) == "Would you like me to take a photo of the two of you?"
    assert greeting_text(3) == "Would you like me to take a photo of the three of you?"
    assert greeting_text(12) == "Would you like me to take a photo of the twelve of you?"


def test_greeting_falls_back_to_digits_for_large_groups():
    assert greeting_text(13) == "Would you like me to take a photo of the 13 of you?"
    assert greeting_text(47) == "Would you like me to take a photo of the 47 of you?"


def test_greeting_requires_a_person():
    with pytest.raises(ValueError):
        greeting_text(0)


def test_praise_lines_follow_the_photo_index():
    assert praise_text(1) == "You look great in this photo."
    assert [praise_text(i) for i in (1, 2, 3)] == list(PRAISE_TEXTS)
    with pytest.raises(ValueError):
        praise_text(0)
    with pytest.raises(ValueError):
        praise_text(4)


# --- catalogue conditions and behaviors ----------------------------------------


def test_person_detected_requires_presence_and_an_expired_cooldown():
    cat = default_catalogue()
    detected = cat.condition("person_detected")
    vacant = cat.condition("no_person")

    nobody = InteractionContext()
    assert not detected(nobody) and vacant(nobody)

    ctx = ctx_with_persons((1.0, 0.5))
    assert detected(ctx) and not vacant(ctx)

    ctx.cooldown_until = 5
    assert not detected(ctx) and vacant(ctx)
    ctx.clock = 5
    assert detected(ctx) and not vacant(ctx)


def test_person_detected_ignores_groups_outside_the_zone():
    cat = default_catalogue()
    ctx = ctx_with_persons((8.0, 8.0))
    assert not cat.condition("person_detected")(ctx)


def test_person_detected_uses_the_catalogue_zone_radius():
    # the zone reaches 2.5 m from the robot
    detected = default_catalogue().condition("person_detected")
    assert detected(ctx_with_persons((1.2, 1.6)))  # 2 m away
    assert not detected(ctx_with_persons((1.8, 2.4)))  # 3 m away


def test_presence_and_greeting_agree_with_clustering_around_the_cooldown_edge():
    # person_detected tests the cooldown before it looks at the crowd; the
    # answers must be those of an all-pairs grouping of the whole crowd, on
    # either side of the edge and on it
    cat = default_catalogue()
    detected, vacant = cat.condition("person_detected"), cat.condition("no_person")
    greet = cat.behavior("greet").step_fn
    rng = random.Random(8117)
    cooldown_until = 20
    for _ in range(300):
        positions = [(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)) for _ in range(rng.randint(0, 25))]
        for clock in (cooldown_until - 1, cooldown_until, cooldown_until + 1):
            ctx = ctx_with_persons(*positions, clock=clock)
            ctx.cooldown_until = cooldown_until
            persons = list(ctx.persons.values())
            expected = reference_engaged_size(persons)
            present = expected >= 1 and clock >= cooldown_until
            assert detected(ctx) is present
            assert vacant(ctx) is not present
            if expected == 0:
                with pytest.raises(ValueError):
                    greet(ctx, 0)
                continue
            greet(ctx, 0)
            assert ctx.emissions_this_tick[-1].payload == greeting_text(expected)


@pytest.mark.parametrize("crowd", [[(1.0, 0.5)], [(8.0, 8.0)], [(8.0, 8.0), (1.0, 0.5)]],
                         ids=("inside", "outside", "both"))
@pytest.mark.parametrize("offset", [-1, 0], ids=("cooling", "cooled"))
def test_no_person_negates_person_detected_on_both_sides_of_the_cooldown_edge(crowd, offset):
    cat = default_catalogue()
    detected, vacant = cat.condition("person_detected"), cat.condition("no_person")
    ctx = ctx_with_persons(*crowd, clock=20 + offset)
    ctx.cooldown_until = 20
    assert detected(ctx) is (offset == 0 and (1.0, 0.5) in crowd)
    assert vacant(ctx) is (not detected(ctx))


class PresenceCheck:
    """Wraps a controller for ``run`` and checks, before and after each of its
    steps, that ``no_person`` is the negation of ``person_detected``."""

    def __init__(self, controller):
        self.controller, self.label = controller, controller.label
        cat = default_catalogue()
        self.detected, self.vacant = cat.condition("person_detected"), cat.condition("no_person")
        self.cases: set[tuple[bool, bool]] = set()  # (cooling down, someone in the zone)

    def reset(self) -> None:
        self.controller.reset()

    def _check(self, ctx) -> None:
        assert self.vacant(ctx) is (not self.detected(ctx))
        self.cases.add((ctx.clock < ctx.cooldown_until, someone_in_zone(ctx.persons.values())))

    def step(self, ctx) -> str:
        self._check(ctx)
        status = self.controller.step(ctx)
        self._check(ctx)
        return status


@pytest.mark.parametrize("make", [build_photographer_bt, *(
    lambda mode=mode: build_photographer_fsm(mode) for mode in ABANDONMENT_MODES)],
    ids=("bt", *(f"fsm-{mode}" for mode in ABANDONMENT_MODES)))
def test_no_person_negates_person_detected_at_every_corpus_tick(make):
    cases = set()
    for path in sorted(SCENARIO_DIR.glob("*.scn")):
        scenario = parse_scenario(path.read_text(encoding="utf-8"))
        checked = PresenceCheck(make())
        assert run(checked, scenario) == run(make(), scenario)
        cases |= checked.cases
    # the corpus reaches a cooldown with someone in the zone, and outside a
    # cooldown both an empty and an occupied zone
    assert cases >= {(True, True), (False, True), (False, False)}


def test_button_conditions_read_the_current_tick_only():
    cat = default_catalogue()
    ctx = InteractionContext()
    assert not cat.condition("button_yes")(ctx)
    ctx.buttons_pressed_this_tick.add("yes")
    assert cat.condition("button_yes")(ctx) and not cat.condition("button_no")(ctx)


CONSENT_SUCCESSOR = {
    bt.NodeStatus.SUCCESS: "AnnouncePhoto",
    bt.NodeStatus.FAILURE: "Farewell",
    bt.NodeStatus.RUNNING: "AskConsent",
}


@pytest.mark.parametrize("mode", ["none", "transitions", "timeouts"])
def test_tree_and_machine_read_every_button_combination_alike(mode):
    """Every subset of the buttons pressed on one tick, with one person in the
    zone: the tree's await_consent status matches where the machine goes from
    AskConsent."""
    cat = default_catalogue()
    await_consent = bt.validate_tree(bt.Action("await_consent"), cat)
    machine = build_photographer_fsm(mode, catalogue=cat)
    statuses = set()
    for n in range(len(BUTTONS) + 1):
        for pressed in itertools.combinations(BUTTONS, n):
            ctx = ctx_with_persons((1.0, 0.0))
            ctx.buttons_pressed_this_tick.update(pressed)
            await_consent.reset()
            status = bt.tick(await_consent, ctx)
            machine.reset()
            machine.current = "AskConsent"
            machine.step(ctx)
            assert machine.current == CONSENT_SUCCESSOR[status], pressed
            statuses.add(status)
    assert statuses == set(CONSENT_SUCCESSOR)


def test_progress_conditions_watch_the_session_counters():
    cat = default_catalogue()
    ctx = InteractionContext()
    assert not cat.condition("photos_done")(ctx)
    ctx.photos_taken = 3
    assert cat.condition("photos_done")(ctx)
    ctx.photos_shown = 3
    assert cat.condition("praise_done")(ctx)


def test_greet_opens_a_fresh_session():
    cat = default_catalogue()
    ctx = ctx_with_persons((0.8, 0.3), (1.4, -0.2))
    ctx.photos_taken = 3
    ctx.photos_shown = 3
    cat.behavior("greet").step_fn(ctx, 0)
    assert (ctx.photos_taken, ctx.photos_shown) == (0, 0)
    assert ctx.emissions_this_tick[0].payload == greeting_text(2)
    # the second greet step is silent
    cat.behavior("greet").step_fn(ctx, 1)
    assert len(ctx.emissions_this_tick) == 1


def test_take_photo_numbers_its_shots():
    cat = default_catalogue()
    ctx = InteractionContext()
    for expected in (1, 2, 3):
        cat.behavior("take_photo").step_fn(ctx, 0)
        assert ctx.emissions_this_tick[-1].payload == expected
    assert ctx.photos_taken == 3


def test_take_photo_stops_at_the_sessions_photos():
    # a step past the session's photos, as a longer take_photo action takes,
    # takes none
    take_photo = default_catalogue().behavior("take_photo").step_fn
    ctx = InteractionContext(photos_taken=PHOTOS_PER_SESSION)
    take_photo(ctx, 1)
    assert (ctx.emissions_this_tick, ctx.photos_taken) == ([], PHOTOS_PER_SESSION)


def test_show_and_praise_alternates_and_tracks_progress():
    cat = default_catalogue()
    ctx = InteractionContext()
    fn = cat.behavior("show_and_praise").step_fn
    fn(ctx, 0)
    fn(ctx, 1)
    emitted = [(e.action, e.payload) for e in ctx.emissions_this_tick]
    assert emitted == [("show_photo", 1), ("say", praise_text(1))]
    assert ctx.photos_shown == 1


def test_farewell_speaks_once_and_starts_the_cooldown():
    cat = default_catalogue()
    ctx = InteractionContext(clock=4)
    cat.behavior("farewell").step_fn(ctx, 0)
    assert ctx.cooldown_until == 14
    assert [e.payload for e in ctx.emissions_this_tick] == [FAREWELL_TEXT]
    cat.behavior("farewell").step_fn(ctx, 1)
    assert len(ctx.emissions_this_tick) == 1


# each record built once at import, with the action and payload emit is given for it
PREBUILT = [
    (interaction._IDLE, "idle", None),
    (bt.HOLD, "halt_motion_hold", None),
    (interaction._ANNOUNCE, "say", ANNOUNCE_TEXT),
    (interaction._FAREWELL, "say", FAREWELL_TEXT),
    *((interaction._TAKE[i - 1], "take_photo", i) for i in range(1, PHOTOS_PER_SESSION + 1)),
    *((interaction._SHOW[i - 1], "show_photo", i) for i in range(1, PHOTOS_PER_SESSION + 1)),
    *((interaction._PRAISE[i - 1], "say", praise_text(i)) for i in range(1, PHOTOS_PER_SESSION + 1)),
]


@pytest.mark.parametrize("record,action,payload", PREBUILT,
                         ids=[f"{action}({payload})" for _, action, payload in PREBUILT])
def test_each_prebuilt_emission_is_the_record_emit_builds(record, action, payload):
    ctx = InteractionContext()
    emit(ctx, action, payload)
    emitted, = ctx.emissions_this_tick
    assert type(record) is type(emitted) is ActionEmission
    assert record == emitted
    assert [type(field) for field in record] == [type(field) for field in emitted]


def test_the_hold_behavior_and_a_blocked_guard_append_one_record():
    ctx = InteractionContext(hazard_hand_near_arm=True)
    default_catalogue().behavior("hold_motion").step_fn(ctx, 0)
    guarded = validate_tree(bt.Guard("no_hazard", "g", Action("idle")), default_catalogue())
    guarded.step(ctx)
    assert len(ctx.emissions_this_tick) == 2
    assert all(record is bt.HOLD for record in ctx.emissions_this_tick)


def test_runs_append_the_prebuilt_records_on_every_tick():
    # across ticks, runs and controllers, each fixed emission is one object;
    # only the greeting, whose text follows the group, is built as it is emitted
    prebuilt = {record: record for record, _, _ in PREBUILT}
    greetings = {greeting_text(n) for n in range(1, 13)}
    seen = set()
    for _ in range(2):
        for controller in (build_photographer_bt(), *map(build_photographer_fsm, ABANDONMENT_MODES)):
            for path in sorted(SCENARIO_DIR.glob("*.scn")):
                for record in run(controller, load(path.name)):
                    for emitted in record.emissions:
                        if emitted.payload in greetings:
                            assert emitted not in prebuilt
                        else:
                            assert emitted is prebuilt[emitted]
                            seen.add(emitted)
    assert seen == set(prebuilt)


def test_photo_indexes_outside_the_session_go_through_emit():
    cat = default_catalogue()
    take, show = cat.behavior("take_photo").step_fn, cat.behavior("show_and_praise").step_fn
    ctx = InteractionContext(photos_taken=-1, photos_shown=PHOTOS_PER_SESSION)
    take(ctx, 0)
    show(ctx, 0)
    assert ctx.emissions_this_tick == [ActionEmission("take_photo", 0),
                                       ActionEmission("show_photo", PHOTOS_PER_SESSION + 1)]
    with pytest.raises(ValueError, match=f"^photo index {PHOTOS_PER_SESSION + 1} out of range$"):
        show(ctx, 1)
    # an index that is not an int meets emit's payload check
    ctx = InteractionContext(photos_taken=0.5, photos_shown=0.5)
    with pytest.raises(ValueError, match=r"^take_photo takes an int payload, got 1\.5$"):
        take(ctx, 0)
    with pytest.raises(ValueError, match=r"^show_photo takes an int payload, got 1\.5$"):
        show(ctx, 0)
    with pytest.raises(ValueError, match=r"^say takes a str payload, got 1$"):
        emit(ctx, "say", 1)
    assert ctx.emissions_this_tick == []


def test_catalogue_lists_its_names_sorted():
    cat = default_catalogue()
    assert cat.behavior_names() == [
        "announce", "await_consent", "farewell", "greet", "hold_motion", "idle", "show_and_praise",
        "take_photo"]
    assert cat.condition_names() == [
        "always", "button_no", "button_yes", "hazard", "network_up", "no_hazard", "no_person",
        "person_detected", "photos_done", "praise_done"]


def test_catalogue_rejects_unknowns_and_bad_durations():
    cat = default_catalogue()
    with pytest.raises(ConfigurationError, match="unknown behavior"):
        cat.behavior("ghost")
    with pytest.raises(ConfigurationError, match="unknown condition"):
        cat.condition("ghost")
    with pytest.raises(ConfigurationError, match="duration must be positive"):
        cat.register_behavior(Behavior("bad", 0))
    for duration in (True, False, 2.5):
        with pytest.raises(ConfigurationError, match="'bad' duration must be an integer"):
            cat.register_behavior(Behavior("bad", duration))


def test_an_unhashable_name_is_an_unknown_name():
    # each ended in a bare TypeError: unhashable type: 'list'
    cat = default_catalogue()
    with pytest.raises(ConfigurationError, match=r"^unknown behavior \['idle'\]$"):
        cat.behavior(["idle"])
    with pytest.raises(ConfigurationError, match=r"^unknown condition \['always'\]$"):
        cat.condition(["always"])
    with pytest.raises(ConfigurationError, match=r"^unknown behavior \['idle'\]$"):
        StateMachine([State("A", behavior=["idle"])], [], "A", cat)
    with pytest.raises(ConfigurationError, match=r"^unknown guard \['always'\]$"):
        StateMachine([State("A")], [Transition("A", ["always"], "A", 1)], "A", cat)
    with pytest.raises(ConfigurationError, match=r"^unresolved names: condition \['always'\]$"):
        validate_tree(Sequence("s", [Condition(["always"])]), cat)
    with pytest.raises(ConfigurationError, match=r"^unresolved names: behavior \['idle'\]$"):
        validate_tree(Sequence("s", [Action(["idle"])]), cat)


def test_catalogue_refuses_entries_the_engines_could_not_call():
    # each was once accepted, and the first tick that reached it ended sim.run
    # in a bare TypeError
    cat = default_catalogue()
    with pytest.raises(ConfigurationError, match="^condition 'person_detected' predicate 5 is not callable$"):
        cat.register_condition("person_detected", 5)
    with pytest.raises(ConfigurationError, match="^condition 'ghost' predicate None is not callable$"):
        cat.register_condition("ghost", None)
    with pytest.raises(ConfigurationError, match="^behavior 'idle' step_fn 'notfn' is not callable$"):
        cat.register_behavior(Behavior("idle", 1, "notfn"))
    with pytest.raises(ConfigurationError, match="^behavior 'idle' status_fn 1 is not callable$"):
        cat.register_behavior(Behavior("idle", 1, None, 1))
    # the refused entries left the catalogue as it was
    assert callable(cat.condition("person_detected")) and "ghost" not in cat.condition_names()
    assert callable(cat.behavior("idle").step_fn)
    cat.register_behavior(Behavior("pause", 1))  # a behavior may do nothing on its steps
    assert cat.behavior("pause").step_fn is None


# --- builders -------------------------------------------------------------------


def test_tree_builder_produces_a_validated_tree():
    tree = build_photographer_bt()
    assert node_count(tree) == 19
    assert structural_signature(tree) == structural_signature(build_photographer_bt())
    # README's depth: root, net_guard, main, motion_guard, motion and an arm-motion action
    assert max(level for level, *_ in structural_signature(tree)) == 6
    assert bt.tick(tree, InteractionContext()) is not None


def test_hazard_guards_cost_two_tree_nodes():
    # one no_hazard guard over a memory sequence of the arm-motion actions
    tree = build_photographer_bt()
    assert node_count(tree) - node_count(build_photographer_bt(hazard_guards=False)) == 2
    guards = [node for node in tree.iter_nodes() if getattr(node, "condition_name", None) == "no_hazard"]
    assert [guard.name for guard in guards] == ["motion_guard"]
    (motion,) = guards[0].children
    assert (motion.kind, motion.memory) == ("sequence", True)
    assert [child.name for child in motion.children] == ["announce"] + ["take_photo"] * PHOTOS_PER_SESSION
    assert all(child.kind == "action" for child in motion.children)


# sha256 of print_tree for each hazard_guards value, with its node count; the
# default one is also trees/photographer.tree
BUILT_TREES = {
    True: (19, "ac0be0a22e3223cb1f77125346097b59a2720281f557d0f00c0523e3f3eb4764"),
    False: (17, "f5206939ff286e735792e0069c88441ddf3ee8ad4239ca527933a823f5e2e289"),
}


@pytest.mark.parametrize("hazard_guards", list(BUILT_TREES))
def test_every_tree_builder_variant_prints_as_pinned(hazard_guards):
    tree = build_photographer_bt(hazard_guards=hazard_guards)
    text = print_tree(tree).encode("utf-8")
    assert (node_count(tree), hashlib.sha256(text).hexdigest()) == BUILT_TREES[hazard_guards]


def test_machine_builder_element_counts():
    assert build_photographer_fsm("none").count_elements() == {
        "n_states": 8, "n_transitions": 12, "n_timeouts": 0,
    }
    assert build_photographer_fsm("transitions").count_elements() == {
        "n_states": 8, "n_transitions": 19, "n_timeouts": 0,
    }
    assert build_photographer_fsm("timeouts").count_elements() == {
        "n_states": 8, "n_transitions": 12, "n_timeouts": 7,
    }
    assert build_photographer_fsm("none", include_halt=False).count_elements() == {
        "n_states": 7, "n_transitions": 8, "n_timeouts": 0,
    }


class StepWatch:
    """A controller for ``sim.run`` that steps a machine and keeps, for each
    step, the snapshot before it, whether ``no_person`` held, and the snapshot
    after it."""

    label = "fsm"

    def __init__(self, machine):
        self.machine = machine
        self.no_person = default_catalogue().condition("no_person")
        self.steps = []

    def reset(self) -> None:
        self.machine.reset()

    def step(self, ctx) -> str:
        before, held = self.machine.snapshot(), self.no_person(ctx)
        status = self.machine.step(ctx)
        self.steps.append((before, held, self.machine.snapshot()))
        return status


def watched_steps(mode: str) -> list:
    rng = random.Random(2718)
    scripts = [load(path.name) for path in sorted(SCENARIO_DIR.glob("*.scn"))]
    scripts += [random_visit(rng) for _ in range(300)]
    steps = []
    for script in scripts:
        watch = StepWatch(build_photographer_fsm(mode))
        run(watch, script)
        steps += watch.steps
    return steps


def test_the_counted_elements_that_can_never_fire_stay_dead():
    # count_elements counts these, and README says why they stay; a change that
    # lets one fire changes what the report's figures mean
    # transitions: Farewell's always edge (priority 1) fires only on a step
    # from Farewell on which no_person (priority 0) does not hold
    farewell = [held for (state, _, _), held, _ in watched_steps("transitions") if state == "Farewell"]
    assert len(farewell) > 20 and all(farewell)
    # timeouts: a state's timeout fires only on a step that starts at one tick
    # short of it, so these five states leave on their own edges first
    longest: dict[str, int] = {}
    fired = set()
    for (state, ticks, _), _, (after, after_ticks, _) in watched_steps("timeouts"):
        longest[state] = max(longest.get(state, 0), ticks)
        if ticks == ABANDON_TIMEOUT_TICKS - 1 and (after, after_ticks) == ("Waiting", 0):
            fired.add(state)
    dead = ("Greet", "AnnouncePhoto", "TakePhoto", "ShowPraise", "Farewell")
    assert all(longest[state] < ABANDON_TIMEOUT_TICKS - 1 for state in dead), longest
    # the watch does see a timeout fire: the two live ones do
    assert fired == {"AskConsent", "HaltMotion"}


@pytest.mark.parametrize("mode", ABANDONMENT_MODES)
def test_the_machine_holds_mid_photo_run_in_ten_hazard_windows(mode):
    # TakePhoto -> HaltMotion and HaltMotion -> TakePhoto fire in no corpus
    # file or crowd, but they do fire: the machine takes photos 1, 2 and 3 on
    # ticks 6, 7 and 8 of criterion 3's windows, so a hazard from tick 7 or 8
    # meets it between photos, and it resumes with the next one
    hold = {("TakePhoto", "HaltMotion"), ("HaltMotion", "TakePhoto")}
    held = []
    for start, length, text in hazard_windows():
        watch = StepWatch(build_photographer_fsm(mode))
        records = run(watch, parse_scenario(text))
        fired = hold & {(before[0], after[0]) for before, _, after in watch.steps}
        if fired:
            assert fired == hold, (start, length)
            photos = [e.payload for r in records for e in r.emissions if e.action == "take_photo"]
            assert photos == [1, 2, 3], (start, length, photos)
            held.append(start)
    assert held == [7] * 5 + [8] * 5


# sha256 over every tick's (status, emissions, snapshot after the step) of the
# six machine builds (each mode, with and without the hold) over the 144
# scripts of the corpus, the crowds at seeds 1-3 and criterion 3's windows.
# It was taken from the table that gave a state an entry and a tick behavior
# and each hold edge the origin it recorded or required, so it shows that one
# behavior per state and one returns flag per edge step the same machine
MACHINE_STEPS_SHA256 = "795dfa861b30b78cc55f2fa6c929ceda641a2b417275d62322071d2e202a828b"


def test_the_six_machine_builds_step_as_pinned():
    digest = hashlib.sha256()
    for source in ("corpus", "crowds", "hazard_windows"):
        for script in evidence_scripts(source):
            for mode in ABANDONMENT_MODES:
                for include_halt in (True, False):
                    watch = StepWatch(build_photographer_fsm(mode, include_halt=include_halt))
                    for record, (_, _, after) in zip(run(watch, script), watch.steps):
                        emissions = [tuple(e) for e in record.emissions]
                        digest.update(repr((record.status, emissions, after)).encode("utf-8"))
    assert digest.hexdigest() == MACHINE_STEPS_SHA256


@pytest.mark.parametrize("source", ["corpus", "crowds", "hazard_windows", "random_visits"])
def test_the_presence_recheck_the_tree_dropped_changes_no_trace(source):
    # the 23-node tree of before re-tested person_detected in a parallel
    # beside the session; its leaf is reached only on a tick on which wait's
    # no_person, the exact negation, failed, so the re-check always held.
    # Dropping it changes no trace, which is why the report counts the tree's
    # abandonment as 0
    catalogue = default_catalogue()
    recheck = validate_tree(parse_tree(RECHECK_TREE.read_text(encoding="utf-8")), catalogue)
    shipped = validate_tree(parse_tree(TREE_FILE.read_text(encoding="utf-8")), catalogue)
    assert [node_count(recheck), node_count(shipped)] == [23, 19]
    for i, script in enumerate(evidence_scripts(source)):
        assert serialize_trace(run(shipped, script)) == serialize_trace(run(recheck, script)), (i, script.name)


def motion_catalogue(announce: int, take_photo: int):
    """The default catalogue with ``announce`` and ``take_photo`` lasting the
    given number of ticks; ``take_photo`` takes a photo on each of them until
    the session has its ``PHOTOS_PER_SESSION``."""
    catalogue = default_catalogue()
    for name, duration in (("announce", announce), ("take_photo", take_photo)):
        catalogue.register_behavior(dataclasses.replace(catalogue.behavior(name), duration=duration))
    return catalogue


@pytest.mark.parametrize("durations", [(1, 1), (2, 3), (3, 2)], ids=["default", "slow_photos", "slow_announce"])
@pytest.mark.parametrize("source", ["corpus", "crowds", "hazard_windows", "random_visits"])
def test_one_guard_over_the_motion_block_holds_where_a_guard_per_action_did(source, durations):
    # the 21-node tree of before wrapped announce and each take_photo in a
    # guard(no_hazard) of its own inside the memory main. One guard over a
    # memory sequence of the four actions is checked at the same ticks: main
    # resumes at it where it resumed at a per-action guard, and the block
    # goes on past a finished action within the tick, where the next
    # per-action guard read the hazard that tick's first check had read. So
    # it holds, and resumes, exactly where they did, whatever the actions
    # last; (1, 1) is the default catalogue
    catalogue = motion_catalogue(*durations)
    per_action = validate_tree(parse_tree(PER_ACTION_GUARDS_TREE.read_text(encoding="utf-8")), catalogue)
    shipped = validate_tree(parse_tree(TREE_FILE.read_text(encoding="utf-8")), catalogue)
    assert [node_count(per_action), node_count(shipped)] == [21, 19]
    for i, script in enumerate(evidence_scripts(source)):
        assert serialize_trace(run(shipped, script)) == serialize_trace(run(per_action, script)), (i, script.name)


def test_the_shipped_tree_scans_the_zone_at_most_once_a_tick(monkeypatch):
    # both presence conditions call someone_in_zone; the tree ticks one of
    # them at most once a tick, where the re-check made it two on most
    # session ticks
    scans = []
    scan = interaction.someone_in_zone
    monkeypatch.setattr(interaction, "someone_in_zone", lambda persons: scans.append(1) or scan(persons))
    tree = validate_tree(parse_tree(TREE_FILE.read_text(encoding="utf-8")), default_catalogue())
    per_tick = []

    class ScanWatch:
        label = "bt"
        reset = tree.reset

        def step(self, ctx) -> str:
            before = len(scans)
            status = tree.step(ctx)
            per_tick.append(len(scans) - before)
            return status

    for path in sorted(SCENARIO_DIR.glob("*.scn")):
        run(ScanWatch(), load(path.name))
    assert len(per_tick) == 287 and max(per_tick) == 1 and sum(per_tick) == 269


def test_machine_builder_rejects_unknown_modes():
    with pytest.raises(ValueError, match="unknown abandonment mode"):
        build_photographer_fsm("magic")


def test_structural_economy_report_values():
    assert structural_economy_report() == {
        "bt_nodes_added_for_abandonment": 0,
        "fsm_transitions_added_for_abandonment": 7,
        "bt_nodes_added_for_halt": 2,
        "fsm_transitions_added_for_halt": 4,
    }


# --- frozen whole-pipeline traces -----------------------------------------------


SOLO_SESSION = [
    ("say", greeting_text(1)),
    ("say", ANNOUNCE_TEXT),
    ("take_photo", "1"),
    ("take_photo", "2"),
    ("take_photo", "3"),
    ("show_photo", "1"),
    ("say", praise_text(1)),
    ("show_photo", "2"),
    ("say", praise_text(2)),
    ("show_photo", "3"),
    ("say", praise_text(3)),
    ("say", greeting_text(1)),  # the visitor stays, so a second session opens
]


def test_solo_scenario_emissions_for_both_controllers():
    scenario = load("solo.scn")
    for controller in (build_photographer_bt(), build_photographer_fsm()):
        records = run(controller, scenario)
        assert flatten_emissions(records) == SOLO_SESSION


def test_solo_trace_landmarks():
    records = run(build_photographer_bt(), load("solo.scn"))
    assert records[0].emissions[0].payload == greeting_text(1)
    # consent tick: announcement, all three shots, and the first presentation
    assert [e.action for e in records[5].emissions] == [
        "say", "take_photo", "take_photo", "take_photo", "show_photo",
    ]
    machine_records = run(build_photographer_fsm(), load("solo.scn"))
    assert [r.status for r in machine_records[:7]] == [
        "Greet", "AskConsent", "AskConsent", "AskConsent", "AskConsent",
        "AnnouncePhoto", "TakePhoto",
    ]


def test_readme_library_example_runs_from_the_repo_root():
    # the python block under README's "## Library": its verdict, then the
    # tree's solo trace, which is the golden one; development mode reports a
    # file the example leaves open on stderr
    readme = (PKG_ROOT / "README.md").read_text(encoding="utf-8")
    example = readme.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("```\n", 1)[0]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(PKG_ROOT / "src"),
                                                                     os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-X", "dev", "-c", example], cwd=PKG_ROOT, env=env,
                          capture_output=True, text=True, check=True)
    assert done.stderr == ""
    verdict, trace = done.stdout.split("\n", 1)
    assert verdict == "True"
    assert trace == (PKG_ROOT / "tests" / "data" / "golden" / "solo.bt.trace").read_text(encoding="utf-8")


def test_decline_scenario_emissions_for_both_controllers():
    scenario = load("solo_decline.scn")
    expected = [
        ("say", greeting_text(1)),
        ("say", FAREWELL_TEXT),
        ("say", greeting_text(1)),  # cooldown expires while the visitor lingers
    ]
    for controller in (build_photographer_bt(), build_photographer_fsm()):
        assert flatten_emissions(run(controller, scenario)) == expected


def test_tree_and_machine_traces_are_emission_equivalent_on_the_solo_scenario():
    scenario = load("solo.scn")
    report = compare(
        run(build_photographer_bt(), scenario),
        run(build_photographer_fsm(), scenario),
    )
    assert report.equivalent


@pytest.mark.parametrize("mode", ABANDONMENT_MODES)
def test_a_consent_withdrawn_a_tick_later_is_outside_the_equivalence_claim(mode):
    # nominal events only: the tree finishes its greeting and reads the yes on
    # tick 1, while the machine spends tick 1 leaving Greet, misses the yes
    # and reads the no on tick 2
    scenario = parse_scenario(
        "scenario w ticks 3\n"
        "@0 person_appear id=1 x=1.0 y=0.0\n"
        "@1 button yes\n"
        "@2 button no\n"
    )
    report = compare(run(build_photographer_bt(), scenario), run(build_photographer_fsm(mode), scenario))
    assert not report.equivalent
    divergence = report.first_divergence
    assert divergence.position == 1
    assert divergence.emission_a == ("say", ANNOUNCE_TEXT)
    assert divergence.emission_b == ("say", FAREWELL_TEXT)


# The tree against the machine on every scenarios/ file, for each --fsm-mode
# in ABANDONMENT_MODES order: None where the emissions are equivalent, else
# the position of the first divergence.  Criterion 5 covers six of the
# equivalent files in transitions mode.
EQUIVALENCE = {
    "duo.scn": (None, None, 12),  # timeouts: only AskConsent times out, and the machine greets again
    "duo_decline.scn": (None, None, None),
    "hazard_window.scn": (2, 2, 2),  # the machine announces again on leaving HaltMotion
    "network_outage.scn": (11, 11, 11),  # the horizon cuts the machine's praise short
    "solo.scn": (None, None, None),
    "solo_decline.scn": (None, None, None),
    "solo_slow.scn": (None, None, None),
    "trio.scn": (None, None, 12),  # as in duo
}


def test_every_corpus_file_has_its_verdict_pinned_under_every_mode():
    assert ABANDONMENT_MODES == ("none", "transitions", "timeouts")
    assert sorted(path.name for path in SCENARIO_DIR.glob("*.scn")) == sorted(EQUIVALENCE)
    for name, positions in EQUIVALENCE.items():
        scenario = load(name)
        tree_records = run(build_photographer_bt(), scenario)
        for mode, position in zip(ABANDONMENT_MODES, positions):
            report = compare(tree_records, run(build_photographer_fsm(mode), scenario))
            divergence = report.first_divergence
            assert report.equivalent is (position is None), (name, mode, divergence)
            assert (None if divergence is None else divergence.position) == position, (name, mode)


def test_network_outage_diverges_where_the_horizon_ends_the_machine_not_at_the_outage():
    # without its outage the file diverges where it does with it: the tree is
    # done praising by tick 11 and greets again at 12, while the machine shows
    # praise until tick 17 and the person leaves at 18, so the machine's
    # emissions are a prefix of the tree's that the horizon cuts off
    text = (SCENARIO_DIR / "network_outage.scn").read_text(encoding="utf-8")
    kept = [line for line in text.splitlines() if not line.startswith(("@2 network down", "@6 network up"))]
    assert len(kept) == len(text.splitlines()) - 2
    scenario = parse_scenario("\n".join(kept) + "\n")
    tree_records = run(build_photographer_bt(), scenario)
    greeting = ("say", greeting_text(1))
    assert tree_records[11].status == "Success"
    assert [(e.action, e.payload) for e in tree_records[12].emissions] == [greeting]
    for mode in ABANDONMENT_MODES:
        machine_records = run(build_photographer_fsm(mode), scenario)
        assert [r.status for r in machine_records[12:19]] == ["ShowPraise"] * 6 + ["Waiting"], mode
        report = compare(tree_records, machine_records)
        assert report.first_divergence == (11, greeting, None), mode
        tree, machine = flatten_emissions(tree_records), flatten_emissions(machine_records)
        assert tree[:len(machine)] == machine and len(machine) == 11, mode


def test_network_outage_holds_the_tree_in_place():
    records = run(build_photographer_bt(), load("network_outage.scn"))
    for t in (2, 3, 4, 5):
        assert [e.action for e in records[t].emissions] == ["halt_motion_hold"]
    # the session still completes once connectivity returns
    photos = [e.payload for r in records for e in r.emissions if e.action == "take_photo"]
    assert photos == [1, 2, 3]
