"""Photographer domain: utterances, behaviors, builders, and frozen traces."""

from __future__ import annotations

import hashlib
import itertools
import random

import pytest

from shutter_sim import (
    ANNOUNCE_TEXT,
    FAREWELL_TEXT,
    PRAISE_TEXTS,
    Action,
    Behavior,
    Condition,
    ConfigurationError,
    Event,
    InteractionContext,
    PersonObservation,
    ScenarioScript,
    Sequence,
    State,
    StateMachine,
    Transition,
    build_photographer_bt,
    build_photographer_fsm,
    compare,
    default_catalogue,
    flatten_emissions,
    greeting_text,
    node_count,
    parse_scenario,
    praise_text,
    print_tree,
    run,
    structural_economy_report,
    structural_signature,
    validate_tree,
)
from shutter_sim import bt
from shutter_sim.groups import someone_in_zone
from shutter_sim.interaction import ABANDON_TIMEOUT_TICKS, ABANDONMENT_MODES
from shutter_sim.world import BUTTONS

from conftest import SCENARIO_DIR, reference_engaged_size


def load(name):
    return parse_scenario((SCENARIO_DIR / name).read_text(encoding="utf-8"))


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
        StateMachine([State("A", on_entry=["idle"])], [], "A", cat)
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
    assert node_count(tree) == 23
    assert structural_signature(tree) == structural_signature(build_photographer_bt())
    assert bt.tick(tree, InteractionContext()) is not None


def test_abandonment_costs_exactly_one_tree_node():
    assert node_count(build_photographer_bt()) - node_count(
        build_photographer_bt(abandonment=False)
    ) == 1


def test_hazard_guards_cost_four_tree_nodes():
    assert node_count(build_photographer_bt()) - node_count(
        build_photographer_bt(hazard_guards=False)
    ) == 4


# sha256 of print_tree for each builder variant, with its node count; the
# default one is also trees/photographer.tree
BUILT_TREES = {
    (True, True): (23, "68040205568da511c12576b2459b8dc9a136e06c92c30ccb002a37859f8c186c"),
    (True, False): (19, "5978f835ed87c6a66d0c6a44e17107206a3fdc2623de9a2f66738819ff334d9d"),
    (False, True): (22, "6ac7446ba59e20362b4db3d1cc26d611dbf50338f725ac0aec011c96421eee18"),
    (False, False): (18, "c4ec50dfff5e0e026579579427f7b7336196ccb94617751c574a9f6edf63a080"),
}


@pytest.mark.parametrize("abandonment,hazard_guards", list(BUILT_TREES))
def test_every_tree_builder_variant_prints_as_pinned(abandonment, hazard_guards):
    tree = build_photographer_bt(abandonment=abandonment, hazard_guards=hazard_guards)
    text = print_tree(tree).encode("utf-8")
    assert (node_count(tree), hashlib.sha256(text).hexdigest()) == BUILT_TREES[abandonment, hazard_guards]


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


def random_visit(rng: random.Random) -> ScenarioScript:
    """60 ticks: 1-3 persons who each appear once, move and may leave, and
    random buttons and hazard and network switches."""
    def spot():
        return rng.uniform(-3, 3), rng.uniform(-3, 3)

    events = []
    for pid in range(1, rng.randint(1, 3) + 1):
        start = rng.randrange(50)
        leave = rng.randrange(start + 1, 61)
        events.append(Event(start, "person_appear", pid, *spot()))
        moves = rng.sample(range(start + 1, leave), min(leave - start - 1, rng.randint(0, 5)))
        events += [Event(t, "person_move", pid, *spot()) for t in sorted(moves)]
        if leave < 60:
            events.append(Event(leave, "person_leave", pid))
    events += [Event(rng.randrange(60), "button_press", button=rng.choice(BUTTONS))
               for _ in range(rng.randint(0, 6))]
    events += [Event(rng.randrange(60), rng.choice(("hazard_on", "hazard_off", "network_down",
                                                    "network_up")))
               for _ in range(rng.randint(0, 3))]
    events.sort(key=lambda event: event.at_tick)
    return ScenarioScript("visit", 60, tuple(events))


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


def test_machine_builder_rejects_unknown_modes():
    with pytest.raises(ValueError, match="unknown abandonment mode"):
        build_photographer_fsm("magic")


def test_structural_economy_report_values():
    assert structural_economy_report() == {
        "bt_nodes_added_for_abandonment": 1,
        "fsm_transitions_added_for_abandonment": 7,
        "bt_nodes_added_for_halt": 4,
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
    "network_outage.scn": (11, 11, 11),  # the machine has no network hold
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


def test_network_outage_holds_the_tree_in_place():
    records = run(build_photographer_bt(), load("network_outage.scn"))
    for t in (2, 3, 4, 5):
        assert [e.action for e in records[t].emissions] == ["halt_motion_hold"]
    # the session still completes once connectivity returns
    photos = [e.payload for r in records for e in r.emissions if e.action == "take_photo"]
    assert photos == [1, 2, 3]
