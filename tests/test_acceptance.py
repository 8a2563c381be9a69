"""Acceptance gate: nine verifiable properties of the toolkit, one test each.

Every test derives its expected values independently of the implementation
(hand-built oracles, brute-force references, or frozen literal strings) and
prints one PASS line; run ``pytest -s tests/test_acceptance.py`` to see them.
"""

from __future__ import annotations

import itertools
import random
import subprocess
import sys

import pytest

from shutter_sim import (
    Behavior,
    Catalogue,
    InteractionContext,
    NodeStatus,
    ParseError,
    PersonObservation,
    build_photographer_bt,
    build_photographer_fsm,
    compare,
    engaged_group_size,
    flatten_emissions,
    greeting_text,
    node_count,
    parse_scenario,
    parse_tree,
    print_tree,
    run,
    serialize_trace,
    someone_in_zone,
    structural_economy_report,
    structural_signature,
)
from shutter_sim import bt

from conftest import MALFORMED_DIR, SCENARIO_DIR, TREE_FILE, reference_engaged_size

S, R, F = NodeStatus.SUCCESS, NodeStatus.RUNNING, NodeStatus.FAILURE


def load(name: str):
    return parse_scenario((SCENARIO_DIR / name).read_text(encoding="utf-8"))


# --- 1. tree engine semantics vs an independent recursive evaluator ---------------

COMPOSITES = (
    ("sequence", False), ("sequence", True),
    ("fallback", False), ("fallback", True),
    ("parallel", False),
)
LEAF_CAP = 4  # exhaustive within this many total leaves; beyond it the space explodes


def _shapes():
    """Every composite tree of depth <= 2 with <= 3 children per composite.

    A shape is (kind, memory, children); a child is ("leaf", index) or a
    depth-1 composite of leaves.  Leaf indexes are assigned left to right.
    """
    child_forms = [None] + [(kind, n) for kind in COMPOSITES for n in (1, 2, 3)]
    for kind, memory in COMPOSITES:
        for width in (1, 2, 3):
            for combo in itertools.product(child_forms, repeat=width):
                total = sum(1 if form is None else form[1] for form in combo)
                if total > LEAF_CAP:
                    continue
                index = itertools.count()
                children = []
                for form in combo:
                    if form is None:
                        children.append(("leaf", next(index)))
                    else:
                        (ckind, cmem), n = form
                        grand = tuple(("leaf", next(index)) for _ in range(n))
                        children.append((ckind, cmem, grand))
                yield (kind, memory, tuple(children)), total


def _build(shape):
    kind, memory, children = shape
    nodes = []
    for child in children:
        if child[0] == "leaf":
            nodes.append(bt.Action(f"stub_{child[1]}"))
        else:
            ckind, cmem, grand = child
            leaves = [bt.Action(f"stub_{g[1]}") for g in grand]
            nodes.append(_composite(ckind, cmem, leaves))
    return _composite(kind, memory, nodes)


def _composite(kind, memory, children):
    if kind == "parallel":
        return bt.Parallel("p", children)
    cls = bt.Sequence if kind == "sequence" else bt.Fallback
    return cls("c", children, memory=memory)


def _evaluate(shape, statuses):
    """Reference one-tick semantics: returns (status, leaf tick order)."""
    if shape[0] == "leaf":
        return statuses[shape[1]], [shape[1]]
    kind, _memory, children = shape
    if kind == "parallel":
        ticked: list[int] = []
        results = []
        for child in children:
            status, sub = _evaluate(child, statuses)
            results.append(status)
            ticked += sub
        if F in results:
            return F, ticked
        return (S if all(r is S for r in results) else R), ticked
    stop_short = S if kind == "sequence" else F  # the status that lets the chain continue
    ticked = []
    for child in children:
        status, sub = _evaluate(child, statuses)
        ticked += sub
        if status is not stop_short:
            return status, ticked
    return stop_short, ticked


def test_criterion_1_tree_engine_matches_the_reference_evaluator():
    statuses: list[NodeStatus] = [S] * LEAF_CAP
    log: list[int] = []
    catalogue = Catalogue()
    for i in range(LEAF_CAP):
        catalogue.register_behavior(Behavior(
            f"stub_{i}", 1,
            step_fn=(lambda ctx, step, i=i: log.append(i)),
            status_fn=(lambda ctx, step, i=i: statuses[i]),
        ))
    ctx = InteractionContext()
    cases = 0
    for status in (S, R, F):  # depth-0: a bare leaf as the whole tree
        statuses[0] = status
        log.clear()
        leaf = bt.validate_tree(bt.Action("stub_0"), catalogue)
        assert bt.tick(leaf, ctx) is status and log == [0]
        cases += 1
    for shape, total in _shapes():
        root = bt.validate_tree(_build(shape), catalogue)
        for assignment in itertools.product((S, R, F), repeat=total):
            statuses[:total] = assignment
            log.clear()
            root.reset()
            got = bt.tick(root, ctx)
            want, want_order = _evaluate(shape, statuses)
            if got is not want or log != want_order:
                pytest.fail(
                    f"shape {shape} with {assignment}: engine {got}/{log}, "
                    f"reference {want}/{want_order}"
                )
            cases += 1
    assert cases > 100_000
    print(f"PASS criterion 1: tree engine matches the reference evaluator on {cases} cases")


# --- 2. abandonment sends the tree back to waiting within one tick ----------------


def test_criterion_2_departure_reaches_the_waiting_branch_within_one_tick():
    sweeps = 0
    for leave in range(1, 26):
        scenario = parse_scenario(
            "scenario sweep ticks 30\n"
            "@0 person_appear id=1 x=1.0 y=0.5\n"
            "@5 button yes\n"
            f"@{leave} person_leave id=1\n"
        )
        records = run(build_photographer_bt(), scenario)
        assert flatten_emissions(records[:leave]), "the interaction never started"
        on_leave = records[leave]
        assert on_leave.status == "Success"
        assert [e.action for e in on_leave.emissions] == ["idle"], (leave, on_leave)
        assert flatten_emissions(records[leave:]) == [], leave
        sweeps += 1
    assert sweeps == 25
    print(f"PASS criterion 2: waiting branch reached on the departure tick in {sweeps}/25 sweeps")


# --- 3. hazard holds never lose, duplicate, or misplace photos --------------------


def test_criterion_3_photos_pause_during_hazards_and_resume_in_place():
    runs = 0
    for start in range(0, 26):
        for length in range(1, 6):
            scenario = parse_scenario(
                "scenario hz ticks 36\n"
                "@0 person_appear id=1 x=1.0 y=0.5\n"
                "@5 button yes\n"
                f"@{start} hazard on\n"
                f"@{start + length} hazard off\n"
            )
            for controller in (build_photographer_bt(), build_photographer_fsm()):
                records = run(controller, scenario)
                photos = [
                    e.payload
                    for r in records for e in r.emissions
                    if e.action == "take_photo"
                ]
                assert photos == [1, 2, 3], (start, length, records[0].controller, photos)
                during_hazard = [
                    e.action
                    for r in records if r.hazard
                    for e in r.emissions
                ]
                assert "take_photo" not in during_hazard, (start, length)
                runs += 1
    assert runs == 26 * 5 * 2
    print(f"PASS criterion 3: exactly photos 1,2,3 and none during the hazard in {runs} runs")


# --- 4. structural cost of reactivity, measured from built artifacts --------------


def test_criterion_4_structural_economy_of_the_two_styles():
    report = structural_economy_report()

    tree_delta = node_count(build_photographer_bt()) - node_count(
        build_photographer_bt(abandonment=False)
    )
    machine = build_photographer_fsm("transitions")
    non_waiting = machine.count_elements()["n_states"] - 1
    machine_delta = (
        machine.count_elements()["n_transitions"]
        - build_photographer_fsm("none").count_elements()["n_transitions"]
    )

    assert tree_delta == 1
    assert non_waiting == 7
    assert machine_delta == non_waiting
    assert report["bt_nodes_added_for_abandonment"] == tree_delta
    assert report["fsm_transitions_added_for_abandonment"] == machine_delta
    assert report["bt_nodes_added_for_halt"] == 4
    assert report["fsm_transitions_added_for_halt"] == 4
    assert build_photographer_fsm("timeouts").count_elements()["n_timeouts"] == non_waiting
    print(
        "PASS criterion 4: abandonment costs 1 tree node vs "
        f"{machine_delta} machine transitions (or {non_waiting} timeouts); halt costs 4 vs 4"
    )


# --- 5. both controller styles emit the same interaction ---------------------------

CORPUS = {
    "solo.scn": 1,
    "duo.scn": 2,
    "trio.scn": 3,
    "solo_decline.scn": 1,
    "duo_decline.scn": 2,
    "solo_slow.scn": 1,
}


def test_criterion_5_tree_and_machine_are_emission_equivalent_on_the_corpus():
    assert len(CORPUS) >= 5
    sizes_covered = set()
    declines = 0
    for name, size in CORPUS.items():
        scenario = load(name)
        tree_records = run(build_photographer_bt(), scenario)
        machine_records = run(build_photographer_fsm("transitions"), scenario)
        report = compare(tree_records, machine_records)
        assert report.equivalent, (name, report.first_divergence)
        flat = flatten_emissions(tree_records)
        assert flat[0] == ("say", greeting_text(size)), name
        sizes_covered.add(size)
        declines += any(payload == "Maybe next time!" for _, payload in flat)
    assert sizes_covered == {1, 2, 3}
    assert declines >= 1
    print(f"PASS criterion 5: emission-equivalent on {len(CORPUS)} scenarios "
          f"(group sizes {sorted(sizes_covered)}, {declines} declines)")


# --- 6. greeting adapts its wording to the group size ------------------------------

NUMBER_WORDS = {
    2: "two", 3: "three", 4: "four", 5: "five", 6: "six", 7: "seven",
    8: "eight", 9: "nine", 10: "ten", 11: "eleven", 12: "twelve",
}


def test_criterion_6_greeting_matches_the_templates_exactly():
    assert greeting_text(1) == "Would you like me to take your photo?"
    assert greeting_text(3) == "Would you like me to take a photo of the three of you?"
    for n in range(2, 101):
        word = NUMBER_WORDS.get(n, str(n))
        assert greeting_text(n) == f"Would you like me to take a photo of the {word} of you?"
    print("PASS criterion 6: greeting verbatim for sizes 1 and 3, template-exact through 100")


# --- 7. engaged group vs a brute-force connected-components reference -------------


def test_criterion_7_clustering_matches_brute_force():
    rng = random.Random(49193)
    trials = 1000
    for _ in range(trials):
        n = rng.randint(0, 8)
        ids = rng.sample(range(1, 60), n)
        persons = [
            PersonObservation(i, rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
            for i in ids
        ]
        size = reference_engaged_size(persons)
        assert engaged_group_size(persons) == size
        assert someone_in_zone(persons) is (size >= 1)
    print(f"PASS criterion 7: engaged-group size and presence match brute force on {trials} instances")


# --- 8. text round-trips and precise syntax errors ----------------------------------

MALFORMED_LINES = {
    "bad_header.scn": 1,
    "missing_ticks.scn": 1,
    "bad_tick.scn": 2,
    "missing_at.scn": 2,
    "unknown_event.scn": 2,
    "bad_float.scn": 2,
    "bad_key.scn": 2,
    "trailing_junk.scn": 2,
    "bad_button.scn": 3,
    "empty_composite.tree": 2,
    "guard_no_parens.tree": 1,
    "bad_duration.tree": 2,
    "two_roots.tree": 4,
}


def _random_tree(rng: random.Random, depth: int) -> bt.Node:
    name = f"n{rng.randrange(10_000)}"
    roll = rng.random()
    if depth >= 3 or roll < 0.30:
        if rng.random() < 0.5:
            return bt.Condition(name)
        duration = rng.choice([None, 1, 2, 5, 12])
        return bt.Action(name, duration=duration)
    if roll < 0.45:
        return bt.Guard(f"c{rng.randrange(100)}", name, _random_tree(rng, depth + 1))
    children = [_random_tree(rng, depth + 1) for _ in range(rng.randint(1, 4))]
    kind = rng.choice(("sequence", "fallback", "parallel"))
    if kind == "parallel":
        return bt.Parallel(name, children)
    cls = bt.Sequence if kind == "sequence" else bt.Fallback
    return cls(name, children, memory=rng.random() < 0.5)


def test_criterion_8_tree_text_round_trips_and_errors_point_at_the_defect():
    rng = random.Random(88011)
    trees = 500
    for _ in range(trees):
        tree = _random_tree(rng, 0)
        text = print_tree(tree)
        reparsed = parse_tree(text)
        assert structural_signature(reparsed) == structural_signature(tree)
        assert print_tree(reparsed) == text

    built = build_photographer_bt()
    assert structural_signature(parse_tree(print_tree(built))) == structural_signature(built)
    assert TREE_FILE.read_text(encoding="utf-8") == print_tree(built)

    corpus = sorted(p.name for p in MALFORMED_DIR.iterdir())
    assert corpus == sorted(MALFORMED_LINES)
    for name, expected_line in MALFORMED_LINES.items():
        path = MALFORMED_DIR / name
        parser = parse_scenario if path.suffix == ".scn" else parse_tree
        with pytest.raises(ParseError) as err:
            parser(path.read_text(encoding="utf-8"))
        assert err.value.line == expected_line, (name, str(err.value))
    print(f"PASS criterion 8: {trees} random trees round-trip; "
          f"{len(MALFORMED_LINES)} malformed files report the defect line")


# --- 9. repeated CLI runs are byte-identical ----------------------------------------


def test_criterion_9_cli_runs_are_byte_identical(tmp_path):
    scenario_path = SCENARIO_DIR / "solo.scn"
    outputs = []
    for i in (1, 2):
        out = tmp_path / f"trace_{i}.txt"
        proc = subprocess.run(
            [
                sys.executable, "-m", "shutter_sim", "run",
                "--controller", "both",
                "--scenario", str(scenario_path),
                "--out", str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]

    scenario = load("solo.scn")
    expected = serialize_trace(
        run(build_photographer_bt(), scenario)
        + run(build_photographer_fsm("transitions"), scenario)
    ).encode("utf-8")
    assert outputs[0] == expected
    print("PASS criterion 9: repeated runs produced byte-identical traces")
