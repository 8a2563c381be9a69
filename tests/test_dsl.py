"""Scenario and tree text formats: parsing, validation, errors, round-trips."""

from __future__ import annotations

import pytest

from shutter_sim import (
    Action,
    Condition,
    ConfigurationError,
    Fallback,
    Guard,
    Node,
    ParseError,
    Parallel,
    Sequence,
    ValidationError,
    build_photographer_bt,
    parse_scenario,
    parse_tree,
    print_tree,
)
from shutter_sim import dsl

from conftest import MALFORMED_DIR, SCENARIO_DIR, TREE_FILE, structural_signature


# --- scenario format ------------------------------------------------------------


def test_parses_the_shipped_solo_scenario():
    script = parse_scenario((SCENARIO_DIR / "solo.scn").read_text(encoding="utf-8"))
    assert (script.name, script.duration) == ("solo", 40)
    assert [(e.at_tick, e.kind) for e in script.events] == [
        (0, "person_appear"), (5, "button_press"), (30, "person_leave"),
    ]
    assert script.events[1].button == "yes"
    assert (script.events[0].x, script.events[0].y) == (1.0, 0.5)


def test_events_sort_stably_by_tick():
    script = parse_scenario(
        "scenario s ticks 10\n"
        "@5 person_leave id=2\n"
        "@0 person_appear id=1 x=0.0 y=0.0\n"
        "@0 person_appear id=2 x=1.0 y=0.0\n"
        "@5 person_leave id=1\n"
    )
    assert [(e.at_tick, e.person_id) for e in script.events] == [
        (0, 1), (0, 2), (5, 2), (5, 1),
    ]


def test_comments_blank_lines_and_signed_coordinates():
    script = parse_scenario(
        "scenario s ticks 8\n"
        "\n"
        "# leading comment\n"
        "@1 person_appear id=4 x=-0.4 y=-1.25\n"
        "   # indented comment\n"
    )
    assert script.events[0].x == -0.4
    assert script.events[0].y == -1.25


LINE_READING = (
    "# a comment before the header\n"
    "scenario s ticks 8\n"
    "@1 person_appear id=4 x=-0.4 y=-1.25\n"
    "\n"
    "@2 button yes\n"
    "@5 person_leave id=4\n"
)


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_lines_end_where_universal_newlines_end_them(tmp_path, newline):
    # the CLI reads a file with Path.read_text, so a file and its text parse alike
    text = LINE_READING.replace("\n", newline)
    path = tmp_path / "s.scn"
    path.write_bytes(text.encode("utf-8"))
    assert parse_scenario(text) == parse_scenario(path.read_text(encoding="utf-8"))
    assert parse_scenario(text) == parse_scenario(LINE_READING)


def test_a_form_feed_or_a_vertical_tab_is_not_a_line_break():
    with pytest.raises(ParseError) as err:
        parse_scenario("scenario s ticks 8\n@2 button yes\x0c@3 button no\n")
    assert (err.value.line, err.value.column) == (2, 14)


@pytest.mark.parametrize("line", ["\xa0", "\x0c# note", " \t\u3000", "\v#"],
                         ids=["nbsp", "form-feed-comment", "ideographic-space", "vt-comment"])
def test_a_line_skipped_before_the_header_is_skipped_after_it(line):
    assert parse_scenario(f"{line}\nscenario s ticks 8\n") == parse_scenario("scenario s ticks 8\n")
    after = LINE_READING.replace("\n\n", f"\n{line}\n")
    assert parse_scenario(after) == parse_scenario(LINE_READING)


def test_switch_events_map_to_context_event_kinds():
    script = parse_scenario(
        "scenario s ticks 9\n"
        "@1 hazard on\n@2 hazard off\n@3 network down\n@4 network up\n@5 button aux\n"
    )
    assert [e.kind for e in script.events] == [
        "hazard_on", "hazard_off", "network_down", "network_up", "button_press",
    ]
    assert script.events[-1].button == "aux"


def test_scenario_referential_validation():
    with pytest.raises(ValidationError, match="beyond duration"):
        parse_scenario("scenario s ticks 5\n@5 button yes\n")
    with pytest.raises(ValidationError, match="already present"):
        parse_scenario(
            "scenario s ticks 5\n@0 person_appear id=1 x=0.0 y=0.0\n"
            "@1 person_appear id=1 x=1.0 y=0.0\n"
        )
    with pytest.raises(ValidationError, match="unknown person"):
        parse_scenario("scenario s ticks 5\n@0 person_move id=3 x=0.0 y=0.0\n")
    with pytest.raises(ValidationError, match="unknown person"):
        parse_scenario(
            "scenario s ticks 5\n@0 person_appear id=1 x=0.0 y=0.0\n"
            "@1 person_leave id=1\n@2 person_leave id=1\n"
        )
    with pytest.raises(ValidationError, match="positive duration"):
        parse_scenario("scenario s ticks 0\n")


def test_scenario_syntax_errors_carry_position_and_expectation():
    with pytest.raises(ParseError) as err:
        parse_scenario("scenario s ticks 10\n@1 hazard on\n@5 button maybe\n")
    assert (err.value.line, err.value.column) == (3, 11)
    assert err.value.expected == "yes|no|aux"
    assert str(err.value) == "line 3, column 11: unknown button 'maybe' (expected yes|no|aux)"

    with pytest.raises(ParseError) as err:
        parse_scenario("")
    assert (err.value.line, err.value.column) == (1, 1)

    with pytest.raises(ParseError) as err:
        parse_scenario("scenario s ticks 10\n@2 person_appear id=1 y=0.0 x=0.0\n")
    assert err.value.line == 2
    assert err.value.expected == "x"


_EVENT_WORDS = "person_appear|person_move|person_leave|button|hazard|network"
_NODE_WORDS = "sequence|fallback|parallel|guard|condition|action"

# (line, column, message, expected) of every file in tests/data/malformed/
MALFORMED_FILES = {
    "bad_button.scn": (3, 11, "unknown button 'maybe'", "yes|no|aux"),
    "bad_duration.tree": (2, 19, "expected a duration", "integer"),
    "bad_float.scn": (2, 25, "expected x coordinate", "number"),
    "bad_header.scn": (1, 1, "expected 'scenario', got 'scene'", "scenario"),
    "bad_key.scn": (2, 23, "expected 'x', got 'z'", "x"),
    "bad_tick.scn": (2, 2, "expected tick", "integer"),
    "empty_composite.tree": (2, 1, "composite requires at least one child", _NODE_WORDS),
    "guard_no_parens.tree": (1, 7, "expected '('", "("),
    "missing_at.scn": (2, 1, "expected '@'", "@"),
    "missing_ticks.scn": (1, 12, "expected keyword 'ticks'", "identifier"),
    "trailing_junk.scn": (2, 14, "unexpected trailing input", "end of line"),
    "two_roots.tree": (4, 1, "unexpected input after tree", "end of input"),
    "unknown_event.scn": (2, 4, "unknown event 'person_dance'", _EVENT_WORDS),
}


def test_the_event_walk_finds_no_fault_in_a_line_the_regex_accepts():
    # parse_scenario takes an event line's groups only from _EVENT_LINE and
    # walks a line only to locate its fault, so a line both accept is an
    # internal error
    lines = [line for path in sorted(SCENARIO_DIR.glob("*.scn"))
             for line in path.read_text(encoding="utf-8").splitlines()
             if line.lstrip().startswith("@")]
    assert len(lines) > 30
    for line in lines:
        with pytest.raises(AssertionError, match="line 7, .*: rejected by _EVENT_LINE") as err:
            dsl._event_fault(line, 7)
        assert repr(line) in str(err.value)


def test_the_malformed_table_covers_every_file():
    assert sorted(MALFORMED_FILES) == sorted(p.name for p in MALFORMED_DIR.iterdir())


@pytest.mark.parametrize("name", sorted(MALFORMED_FILES))
def test_malformed_files_fail_at_a_pinned_location(name):
    path = MALFORMED_DIR / name
    parse = parse_scenario if path.suffix == ".scn" else parse_tree
    with pytest.raises(ParseError) as err:
        parse(path.read_text(encoding="utf-8"))
    e = err.value
    assert (e.line, e.column, e.message, e.expected) == MALFORMED_FILES[name]


# event-line defects, each on line 2 after a valid header
EVENT_LINE_DEFECTS = [
    ("@5 person_appearid=1 x=1.0 y=2.0", 4, "unknown event 'person_appearid'", _EVENT_WORDS),
    ("@5 button yes7", 11, "unknown button 'yes7'", "yes|no|aux"),
    ("@5 person_appear id=1 x=1. y=2.0", 27, "expected digits after decimal point", "digit"),
    ("@5 person_appear id=1 x=1.0.5 y=2.0", 28, "expected keyword 'y'", "identifier"),
    ("@5 person_leave id=1a", 21, "unexpected trailing input", "end of line"),
    ("@5 person_leave idx=1", 17, "expected 'id', got 'idx'", "id"),
    ("@5 person_leave idx=", 17, "expected 'id', got 'idx'", "id"),
    ("@5 person_leave id=", 20, "expected person id", "integer"),
    ("@5 person_move id=1 x=1.0 y=", 29, "expected y coordinate", "number"),
    ("@5 person_appear id=1 x=- y=0", 25, "expected x coordinate", "number"),
    ("5 button yes", 1, "expected '@'", "@"),
    ("@5 hazard on extra", 14, "unexpected trailing input", "end of line"),
    ("@5 button yes # c", 15, "unexpected trailing input", "end of line"),
    ("@5\tbutton\tmaybe", 11, "unknown button 'maybe'", "yes|no|aux"),
    ("\t@5 hazard on\tmore", 15, "unexpected trailing input", "end of line"),
    ("@ 5", 4, "expected event", "identifier"),
    ("@5 hazard", 10, "expected hazard switch", "identifier"),
    ("@5 network sideways", 12, "unknown network switch 'sideways'", "down|up"),
    # a keyword that runs into the next word or int is one identifier
    ("@5 buttonyes", 4, "unknown event 'buttonyes'", _EVENT_WORDS),
    ("@5 hazardon", 4, "unknown event 'hazardon'", _EVENT_WORDS),
    ("@5 networkup", 4, "unknown event 'networkup'", _EVENT_WORDS),
    ("@5 person_leaveid=1", 4, "unknown event 'person_leaveid'", _EVENT_WORDS),
    ("@5 person_move id=1 xx=1 y=1", 21, "expected 'x', got 'xx'", "x"),
]


@pytest.mark.parametrize("line,column,message,expected", EVENT_LINE_DEFECTS)
def test_event_line_defects_fail_at_a_pinned_location(line, column, message, expected):
    with pytest.raises(ParseError) as err:
        parse_scenario("scenario s ticks 10\n" + line + "\n")
    e = err.value
    assert (e.line, e.column, e.message, e.expected) == (2, column, message, expected)


# --- tree format ------------------------------------------------------------------


SAMPLE_TREE = Fallback("top", [
    Sequence("walk", [Condition("no_person"), Action("idle", duration=2)], memory=True),
    Parallel("pair", [
        Guard("network_up", "net", Action("take_photo")),
        Action("greet"),
    ]),
])

SAMPLE_TEXT = """\
fallback top {
  sequence* walk {
    condition no_person
    action idle dur=2
  }
  parallel pair {
    guard(network_up) net {
      action take_photo
    }
    action greet
  }
}
"""


def test_print_tree_canonical_layout():
    assert print_tree(SAMPLE_TREE) == SAMPLE_TEXT


def test_parse_print_round_trip():
    parsed = parse_tree(SAMPLE_TEXT)
    assert structural_signature(parsed) == structural_signature(SAMPLE_TREE)
    assert print_tree(parsed) == SAMPLE_TEXT


@pytest.mark.parametrize("tree,message", [
    (Sequence("a b", [Action("idle")]), "sequence 'a b' cannot be printed: 'a b'"),
    (Condition("no person"), "condition 'no person' cannot be printed: 'no person'"),
    (Fallback("f", [Action("2x")]), "action '2x' cannot be printed: '2x'"),
    (Guard("no-hazard", "g", Action("idle")), "guard 'g' cannot be printed: 'no-hazard'"),
    (Parallel("", [Action("idle")]), "parallel '' cannot be printed: ''"),
    (Sequence("s", [Action("½")]), "action '½' cannot be printed: '½'"),
    (Sequence(5, [Condition("a")]), "sequence 5 cannot be printed: 5"),
    (Condition(5), "condition 5 cannot be printed: 5"),
], ids=["space", "condition", "digit-first", "guard-condition", "empty", "vulgar-fraction",
        "int-node-name", "int-condition-name"])
def test_print_tree_refuses_a_name_that_would_not_reparse(tree, message):
    # each of these texts would be a syntax error or another tree in parse_tree,
    # and an int name would read back as a str
    with pytest.raises(ConfigurationError) as err:
        print_tree(tree)
    assert str(err.value) == message + " is not a tree identifier"


def _two_child_guard() -> Guard:
    guard = Guard("network_up", "g", Action("idle"))
    guard.children.append(Action("greet"))
    return guard


@pytest.mark.parametrize("tree,message", [
    (Sequence("s", [Action("idle", duration=True)], memory="no"), "sequence 's' memory 'no' is not a bool"),
    (Fallback("f", [Action("idle")], memory=1), "fallback 'f' memory 1 is not a bool"),
    (Sequence("s", [_two_child_guard()]), "guard 'g' must have exactly one child"),
    (Sequence("s", [Parallel("p", [])]), "composite 'p' must have at least one child"),
    (Sequence("s", [Node("x", [Action("idle")])]), "node 'x' is not a node kind the engine ticks"),
    (Sequence("s", [Action("idle", duration=True)]),
     "action 'idle' cannot be printed: duration True is not a non-negative integer"),
    (Sequence("s", [Action("idle", duration=2.0)]),
     "action 'idle' cannot be printed: duration 2.0 is not a non-negative integer"),
    (Sequence("s", [Action("idle", duration=-1)]),
     "action 'idle' cannot be printed: duration -1 is not a non-negative integer"),
    (Sequence("s", [Action("idle", duration=10 ** dsl._MAX_DIGITS)]),
     f"action 'idle' cannot be printed: duration has more than {dsl._MAX_DIGITS} digits"),
], ids=["memory-str", "memory-int", "guard-two-children", "composite-empty", "bare-node",
        "duration-bool", "duration-float", "duration-negative", "duration-too-long"])
def test_print_tree_refuses_a_field_that_would_not_read_back(tree, message):
    # memory="no" would print as sequence* and read back as a memory chain, the
    # guard, empty composite and bare node as text parse_tree refuses, and each
    # duration as a syntax error or another value; a shape is refused with
    # validate_tree's message
    with pytest.raises(ConfigurationError) as err:
        print_tree(tree)
    assert str(err.value) == message


def test_print_tree_prints_every_duration_parse_tree_reads():
    durations = [0, 1, 10 ** dsl._MAX_DIGITS - 1]
    tree = Sequence("s", [Action("idle", duration=d) for d in durations], memory=True)
    reparsed = parse_tree(print_tree(tree))
    assert [child.duration_override for child in reparsed.children] == durations
    assert structural_signature(reparsed) == structural_signature(tree)


def test_print_tree_prints_any_identifier_parse_tree_reads():
    tree = Sequence("_", [Condition("é2"), Guard("ǅx", "sequence", Action("dur"))])
    assert print_tree(parse_tree(print_tree(tree))) == print_tree(tree)
    assert structural_signature(parse_tree(print_tree(tree))) == structural_signature(tree)


def test_whitespace_is_insignificant():
    squeezed = "fallback top{sequence* walk{condition no_person action idle dur=2}" \
               "parallel pair{guard(network_up)net{action take_photo}action greet}}"
    assert structural_signature(parse_tree(squeezed)) == structural_signature(SAMPLE_TREE)


def test_shipped_tree_file_matches_the_builder():
    text = TREE_FILE.read_text(encoding="utf-8")
    built = build_photographer_bt()
    assert structural_signature(parse_tree(text)) == structural_signature(built)
    assert print_tree(built) == text


def test_tree_syntax_errors():
    with pytest.raises(ParseError) as err:
        parse_tree("sequence s {\n}\n")
    assert (err.value.line, err.value.column) == (2, 1)

    with pytest.raises(ParseError) as err:
        parse_tree("guard(c) g {\n  condition a\n  condition b\n}\n")
    assert err.value.line == 3
    assert err.value.expected == "}"

    with pytest.raises(ParseError) as err:
        parse_tree("sequence s { action a }\ncondition extra\n")
    assert err.value.line == 2

    with pytest.raises(ParseError, match="unexpected character"):
        parse_tree("sequence s { action $ }")

    with pytest.raises(ParseError, match="unexpected end of input"):
        parse_tree("sequence s {\n  action a\n")


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_tree_lines_end_where_universal_newlines_end_them(tmp_path, newline):
    # the CLI reads a file with Path.read_text, so a file and its text parse
    # alike, and an error is located on the same line and column
    text = SAMPLE_TEXT.replace("\n", newline)
    path = tmp_path / "t.tree"
    path.write_bytes(text.encode("utf-8"))
    assert print_tree(parse_tree(text)) == print_tree(parse_tree(path.read_text(encoding="utf-8")))
    assert print_tree(parse_tree(text)) == SAMPLE_TEXT
    bad = "sequence s {\n  action a\n}\n}\n".replace("\n", newline)
    path.write_bytes(bad.encode("utf-8"))
    for source in (bad, path.read_text(encoding="utf-8")):
        with pytest.raises(ParseError) as err:
            parse_tree(source)
        assert (err.value.line, err.value.column) == (4, 1)


# tree defects that neither the malformed files nor the test above reach
TREE_DEFECTS = [
    ("sequence { action idle }", 1, 10, "expected node name", "identifier"),
    ("fallback root { { } }", 1, 17, "expected a node", _NODE_WORDS),
    ("fallback root { dance x }", 1, 17, "unknown node kind 'dance'", _NODE_WORDS),
    ("fallback root { action }", 1, 24, "expected behavior name", "identifier"),
    ("parallel p { condition }", 1, 24, "expected condition name", "identifier"),
    # 100 sequences around a leaf: the leaf is level 101, one past the bound
    pytest.param("sequence a {\n" * 100 + "action idle\n" + "}\n" * 100,
                 101, 1, "tree nested too deep", "at most 100 levels", id="nested-101-levels"),
]


@pytest.mark.parametrize("text,line,column,message,expected", TREE_DEFECTS)
def test_tree_defects_fail_at_a_pinned_location(text, line, column, message, expected):
    with pytest.raises(ParseError) as err:
        parse_tree(text)
    e = err.value
    assert (e.line, e.column, e.message, e.expected) == (line, column, message, expected)


def test_parsed_trees_validate_and_tick_against_the_default_catalogue():
    from shutter_sim import InteractionContext, bt, default_catalogue

    root = bt.validate_tree(parse_tree(SAMPLE_TEXT), default_catalogue())
    assert bt.tick(root, InteractionContext()) is not None
