"""Scenario runner, trace serialization, and emission-level comparison."""

from __future__ import annotations

import types

import pytest

import shutter_sim
from shutter_sim import (
    ActionEmission,
    Divergence,
    TickRecord,
    ValidationError,
    build_photographer_bt,
    build_photographer_fsm,
    compare,
    flatten_emissions,
    parse_scenario,
    parse_trace,
    run,
    serialize_trace,
)

from conftest import SCENARIO_DIR

EMPTY = "scenario empty ticks 5\n"


def record(tick, *emissions, controller="bt", status="Running"):
    return TickRecord(
        tick=tick,
        controller=controller,
        status=status,
        emissions=tuple(ActionEmission(tick, a, p) for a, p in emissions),
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


def test_parse_trace_restores_int_payloads():
    records = [record(3, ("take_photo", 1), ("show_photo", 12), ("say", "1"), ("say", ""), ("idle", None))]
    parsed = parse_trace(serialize_trace(records))
    assert parsed == records
    assert [type(e.payload) for e in parsed[0].emissions] == [int, int, str, str, type(None)]


@pytest.mark.parametrize("emitted", ["take_photo()", "take_photo(x)", "show_photo(01)", "show_photo(+1)"])
def test_parse_trace_rejects_a_malformed_int_payload(emitted):
    with pytest.raises(ValidationError, match="bad trace line 1"):
        parse_trace(f"tick=0 ctl=bt status=Running emit=[{emitted}] persons=0 hazard=0 net=1\n")


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
    removed = {"step", "add_timeout", "count_elements", "reset", "apply_events"}
    assert removed.isdisjoint(shutter_sim.__all__)
