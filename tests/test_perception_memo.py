"""The greeting's engaged-group memo, each frame roster's ``zones`` record:
exact when a behavior replaces the roster, kept exact by the roster refusing
every in-place write, shared by every run over one script
and by the frames that share a roster, carried to a later roster where no one
near the zone's groups changed, and private to that script; and the sweeps
the benchmark's crowds take with it."""

from __future__ import annotations

import copy
import dataclasses
import math
import operator
import pickle
import random

import pytest

from shutter_sim import (
    Event,
    PersonObservation,
    ScenarioScript,
    build_photographer_bt,
    build_photographer_fsm,
    default_catalogue,
    greeting_text,
    parse_scenario,
    parse_tree,
    run,
    validate_tree,
)
from shutter_sim import interaction
from shutter_sim.groups import ZONE_RADIUS
from shutter_sim.world import Roster

from conftest import SCENARIO_DIR, TREE_FILE, perfbench_gen, reference_engaged_size, reference_zone_members

FSM_MODES = ("none", "transitions", "timeouts")
NEWCOMER = 1000
GREETING_SIZES = {greeting_text(n): n for n in range(1, 100)}


def seeded_crowd(seed: int, most: int = 24, ticks: int = 80) -> ScenarioScript:
    """A crowd around the robot: people arrive, wander and leave on most ticks,
    and a consent button is pressed now and then, so sessions end and new
    greetings start on many frames, some of them frames whose tick moves no
    one and so share the roster before them."""
    rng = random.Random(seed)
    present: list[int] = []
    events: list[Event] = []

    def where():
        return round(rng.uniform(-3.0, 3.0), 2), round(rng.uniform(-3.0, 3.0), 2)

    for t in range(ticks):
        if rng.random() < 0.3:
            continue
        if len(present) < most and rng.random() < 0.6:
            pid = max(present, default=0) + 1
            present.append(pid)
            events.append(Event(t, "person_appear", pid, *where()))
        for pid in present:
            if rng.random() < 0.2:
                events.append(Event(t, "person_move", pid, *where()))
        if present and rng.random() < 0.2:
            events.append(Event(t, "person_leave", present.pop(rng.randrange(len(present)))))
        if rng.random() < 0.15:
            events.append(Event(t, "button_press", button=rng.choice(("yes", "no"))))
    return ScenarioScript(f"crowd{seed}", ticks, tuple(events))


CORPUS = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SCENARIO_DIR.glob("*.scn"))}
SCRIPTS = {**{name: lambda text=text: parse_scenario(text) for name, text in CORPUS.items()},
           **{f"crowd{seed}": lambda seed=seed: seeded_crowd(seed) for seed in (1, 2, 3)}}


def plain_controllers():
    return [build_photographer_bt()] + [build_photographer_fsm(m) for m in FSM_MODES]


def greeting_sizes(records) -> list[tuple[int, int]]:
    """(tick, group size) of each greeting, read back from its text."""
    return [(r.tick, GREETING_SIZES[e.payload]) for r in records for e in r.emissions
            if e.action == "say" and e.payload in GREETING_SIZES]


def joining_catalogue(sized: list[tuple[int, int]]):
    """The default catalogue, except that ``person_detected`` first adds a
    newcomer inside the zone, next to the person nearest the robot, and the
    greeting appends (clock, reference size of the roster it sees) to ``sized``."""
    cat = default_catalogue()
    detected, greet = cat.condition("person_detected"), cat.behavior("greet")

    def joining(ctx):
        inside = [p for p in ctx.persons.values() if math.hypot(p.x, p.y) <= ZONE_RADIUS]
        if inside and NEWCOMER not in ctx.persons:
            p = min(inside, key=lambda p: (math.hypot(p.x, p.y), p.person_id))
            ctx.persons = {**ctx.persons, NEWCOMER: PersonObservation(NEWCOMER, 0.9 * p.x, 0.9 * p.y)}
        return detected(ctx)

    def sized_greet(ctx, step):
        if step == 0:
            sized.append((ctx.clock, reference_engaged_size(list(ctx.persons.values()))))
        greet.step_fn(ctx, step)

    cat.register_condition("person_detected", joining)
    cat.register_behavior(dataclasses.replace(greet, step_fn=sized_greet))
    return cat


@pytest.mark.parametrize("plain_first", [False, True], ids=["written-first", "plain-first"])
def test_a_written_roster_is_sized_afresh_and_leaves_the_memo_exact(plain_first):
    # plain runs first fill the memo that the writing runs must not read; the
    # writing runs first would fill it with their roster's sizes if they could
    greeted = 0
    for name, make in SCRIPTS.items():
        script = make()
        fresh = [run(controller, make()) for controller in plain_controllers()]
        if plain_first:
            assert run(build_photographer_bt(), script) == fresh[0], name
        sized: list[tuple[int, int]] = []
        cat = joining_catalogue(sized)
        writers = [validate_tree(build_photographer_bt(), cat)]
        writers += [build_photographer_fsm(m, catalogue=cat) for m in FSM_MODES]
        for writer in writers:
            sized.clear()
            assert greeting_sizes(run(writer, script)) == sized, (name, writer.label)
            greeted += len(sized)
        assert [run(controller, script) for controller in plain_controllers()] == fresh, name
    assert greeted >= 100


def counting(monkeypatch) -> list[tuple]:
    """Counts the greeting's sweeps, calls to ``zone_groups``: one entry per
    call, the persons it swept."""
    calls: list[tuple] = []
    sweep = interaction.zone_groups

    def counted(persons):
        persons = tuple(persons)
        calls.append(persons)
        return sweep(persons)

    monkeypatch.setattr(interaction, "zone_groups", counted)
    return calls


def swept_once(calls: list[tuple]) -> bool:
    """Whether no two sweeps swept the same observation objects."""
    return len({tuple(map(id, persons)) for persons in calls}) == len(calls)


def rosters(script: ScenarioScript) -> list:
    """The script's distinct roster objects, in frame order."""
    return list({id(frame.persons): frame.persons for frame in script.frames}.values())


def filled(script: ScenarioScript) -> list:
    """The script's distinct rosters whose ``zones`` record was filled."""
    return [roster for roster in rosters(script) if roster.zones is not None]


def sizes(script: ScenarioScript) -> list:
    """Each frame roster's engaged size, None where none was computed."""
    return [None if frame.persons.zones is None else frame.persons.zones[0] for frame in script.frames]


def sharing(script: ScenarioScript) -> list[int]:
    """For each frame, the index of the first frame with the same roster object."""
    first: dict[int, int] = {}
    return [first.setdefault(id(frame.persons), i) for i, frame in enumerate(script.frames)]


def assert_records_exact(sized: list, label) -> None:
    """Each roster's stored size and members are the references' for its
    values, and each member is the roster's own observation object, which is
    what ``groups.same_zone_groups`` compares by identity."""
    for roster in sized:
        size, members = roster.zones
        persons = list(roster.values())
        assert size == reference_engaged_size(persons), label
        assert sorted(m.person_id for m in members) == reference_zone_members(persons), label
        assert all(roster[m.person_id] is m for m in members), label


def test_one_script_sizes_each_frame_at_most_once_over_all_its_runs(monkeypatch):
    calls = counting(monkeypatch)
    greetings = computed = 0
    for name, make in SCRIPTS.items():
        script = make()
        before = len(calls)
        for controller in plain_controllers():
            greetings += len(greeting_sizes(run(controller, script)))
        sized = filled(script)
        # each sweep filled one roster, and no roster's persons were swept twice
        assert len(calls) - before <= len(sized) and swept_once(calls[before:]), name
        # a reused record carries the size and members of its own roster
        assert_records_exact(sized, name)
        computed += len(sized)
    assert 0 < computed < greetings  # the machines read what the tree computed


def test_frames_that_share_a_roster_share_one_size(monkeypatch):
    # tick 2 and tick 5 press buttons and move no one, so their frames share
    # tick 0's roster; the tree and the machines greet on more than one of
    # these frames, and the pair is sized once
    calls = counting(monkeypatch)
    script = ScenarioScript("pair", 30, (
        Event(0, "person_appear", 1, 1.0, 0.5), Event(0, "person_appear", 2, 1.5, 0.5),
        Event(2, "button_press", button="no"), Event(5, "button_press", button="aux"),
    ))
    greeted = set()
    for controller in plain_controllers():
        for tick, size in greeting_sizes(run(controller, script)):
            assert size == 2
            greeted.add(max(frame.tick for frame in script.frames if frame.tick <= tick))
    assert len(greeted) > 1 and len(rosters(script)) == 1
    assert len(calls) == len(rosters(script))


def test_a_standing_group_among_far_passers_by_is_swept_once(monkeypatch):
    # three people stand at the robot while others come, walk and go at least
    # 5 m off on every tick, so every frame has a roster of its own; a "no"
    # every 17 ticks ends a session, and each greeting after the first takes
    # its size from the roster the greeting before it sized
    calls = counting(monkeypatch)
    events = [Event(0, "person_appear", pid, x, y)
              for pid, x, y in ((1, 1.0, 0.2), (2, 1.6, 0.2), (3, 2.2, -0.1))]
    walking: list[int] = []
    for t in range(90):
        pid = 10 + t
        events.append(Event(t, "person_appear", pid, -8.0 + 0.25 * (t % 64), 5.0 + t % 7))
        events += [Event(t, "person_move", q, -8.0 + 0.3 * (q % 50), 6.0 + 0.1 * t) for q in walking]
        walking.append(pid)
        if len(walking) > 6:
            events.append(Event(t, "person_leave", walking.pop(0)))
        if t % 17 == 3:
            events.append(Event(t, "button_press", button="no"))
    script = ScenarioScript("standing", 90, tuple(events))
    frame_at = {frame.tick: frame for frame in script.frames}
    greeted = []
    for controller in plain_controllers():
        for tick, size in greeting_sizes(run(controller, script)):
            assert size == reference_engaged_size(list(frame_at[tick].persons.values())) == 3
            greeted.append(tick)
        assert len(calls) == 1, controller.label  # the tree sweeps once, the machines never
    assert len(set(greeted)) > 3 and len(filled(script)) == len(set(greeted))


def test_a_second_parse_of_the_same_text_starts_with_an_empty_memo(monkeypatch):
    # so nothing is shared across scripts: a benchmark operation that parses
    # its scenario afresh computes every roster's size again
    calls = counting(monkeypatch)
    text = CORPUS["trio"]
    first = parse_scenario(text)
    run(build_photographer_bt(), first)
    sized, swept = filled(first), len(calls)
    assert sized and 0 < swept <= len(sized)
    second = parse_scenario(text)
    assert set(sizes(second)) == {None}
    run(build_photographer_bt(), second)
    assert len(calls) == 2 * swept
    assert sizes(second) == sizes(first)
    assert not {id(roster) for roster in rosters(second)} & {id(roster) for roster in rosters(first)}


@pytest.mark.parametrize("name", ["trio", "crowd1"])
def test_a_filled_memo_leaves_equality_hashing_repr_copies_and_pickles_alone(name):
    filled, fresh = SCRIPTS[name](), SCRIPTS[name]()
    records = [run(controller, filled) for controller in plain_controllers()]
    assert set(sizes(filled)) - {None} and set(sizes(fresh)) == {None}
    assert filled == fresh and hash(filled) == hash(fresh) and repr(filled) == repr(fresh)
    assert filled.frames == fresh.frames and repr(filled.frames) == repr(fresh.frames)
    originals = {id(roster) for roster in rosters(filled)}
    for twin in (copy.deepcopy(filled), pickle.loads(pickle.dumps(filled))):
        assert twin == fresh and hash(twin) == hash(fresh) and repr(twin) == repr(fresh)
        # the copy keeps each roster's size and which frames share a roster,
        # in rosters of its own
        assert sizes(twin) == sizes(filled) and sharing(twin) == sharing(filled)
        assert not {id(roster) for roster in rosters(twin)} & originals
        assert [run(controller, twin) for controller in plain_controllers()] == records


THIRD = PersonObservation(3, 2.0, 0.5)  # within linking distance of person 2
IN_PLACE_WRITES = {
    "setitem": lambda roster: operator.setitem(roster, 3, THIRD),
    "delitem": lambda roster: operator.delitem(roster, 1),
    "ior": lambda roster: operator.ior(roster, {3: THIRD}),
    "clear": lambda roster: roster.clear(),
    "pop": lambda roster: roster.pop(1),
    "popitem": lambda roster: roster.popitem(),
    "setdefault": lambda roster: roster.setdefault(3, THIRD),
    "update": lambda roster: roster.update({3: THIRD}),
}


def test_a_sized_roster_refuses_every_in_place_write_so_its_size_stays_right():
    # were the write to go through, the next run would read the stored size
    # and greet three people as "the two of you"
    script = parse_scenario(
        "scenario pair ticks 4\n@0 person_appear id=1 x=1.0 y=0.5\n@0 person_appear id=2 x=1.5 y=0.5\n")
    first = run(build_photographer_bt(), script)
    assert greeting_sizes(first) == [(0, 2)]
    roster = script.frames[0].persons
    before = dict(roster)
    for name, write in IN_PLACE_WRITES.items():
        with pytest.raises(TypeError, match="^a frame's Roster is read-only"):
            write(roster)
        assert roster == before and roster.zones[0] == 2, name
    assert run(build_photographer_bt(), script) == first


def test_a_behavior_that_writes_the_roster_in_place_stops_its_run_and_no_other():
    # through both presence conditions: the tree ticks only no_person, and
    # the machines tick person_detected from Waiting
    cat = default_catalogue()

    def writing(predicate):
        def condition(ctx):
            ctx.persons[NEWCOMER] = PersonObservation(NEWCOMER, 0.5, 0.5)
            return predicate(ctx)
        return condition

    for name in ("person_detected", "no_person"):
        cat.register_condition(name, writing(cat.condition(name)))
    script = SCRIPTS["trio"]()
    for writer in [validate_tree(build_photographer_bt(), cat)] + [
            build_photographer_fsm(m, catalogue=cat) for m in FSM_MODES]:
        with pytest.raises(TypeError, match="^a frame's Roster is read-only"):
            run(writer, script)
    assert all(type(roster) is Roster and NEWCOMER not in roster for roster in rosters(script))
    fresh = SCRIPTS["trio"]()
    assert [run(c, script) for c in plain_controllers()] == [run(c, fresh) for c in plain_controllers()]


# sweeps of each benchmark crowd, by seed: (in the tree's run, in all four
# runs, rosters whose record is filled after all four runs)
BENCH_SWEEPS = {
    "crowd_still": {1: (1, 1, 5), 2: (1, 1, 4), 3: (1, 1, 6)},
    "crowd_churn": {1: (14, 23, 23), 2: (13, 22, 22), 3: (13, 22, 22)},
}


@pytest.mark.parametrize("crowd", sorted(BENCH_SWEEPS))
def test_the_benchmark_crowds_take_the_sweeps_the_memo_leaves_them(crowd, monkeypatch):
    # one benchmark operation: the crowd parsed once, then the tree's run and
    # the machines' runs over it, as perfbench/run.py does
    gen = perfbench_gen()
    calls = counting(monkeypatch)
    catalogue = default_catalogue()
    tree = validate_tree(parse_tree(TREE_FILE.read_text(encoding="utf-8")), catalogue)
    machines = [build_photographer_fsm(mode, catalogue=catalogue) for mode in FSM_MODES]
    for seed, (in_tree, in_all, rosters_filled) in BENCH_SWEEPS[crowd].items():
        scenario = parse_scenario(getattr(gen, crowd)(seed))
        del calls[:]
        run(tree, scenario)
        assert len(calls) == in_tree, seed
        for machine in machines:
            run(machine, scenario)
        assert len(calls) == in_all, seed
        sized = filled(scenario)
        assert len(sized) == rosters_filled, seed
        assert_records_exact(sized, seed)
